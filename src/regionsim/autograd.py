"""Dense float64 tensors with reverse-mode gradients.

Implements exactly the closed set of operations the retrieval model needs
(convolution, matmul, softmax, L2 normalization, dot products, soft
cross-entropy, softplus, a row gather) plus the shape plumbing to connect them.
Convolution and matmul take a leading batch axis, so one node serves a
whole stack of images, and a convolution layer is one im2col gather and
one BLAS product. The ReLU lives inside the convolution (``relu=True``):
the encoder's only ReLUs follow a conv, and fused there the node keeps a
bool mask instead of a second activation.
Backward accumulation follows the graph construction order, so repeated
runs are bitwise deterministic. One backward consumes its graph: each
node's gradient, VJPs and parent links are dropped as soon as its backward
has run, so every forward buffer and interior gradient is freed once no
later VJP needs it. Only leaves keep their gradients, and a second
backward over a consumed node raises ``SequencingError``; it needs a fresh
forward pass.

Every op is its forward math plus one VJP (vector-Jacobian product: the
map from the output gradient to one input's gradient) per input, and one
recording rule, :func:`_record`, turns those into a graph node. With no
Tensor among the inputs an op returns its plain array and records
nothing; otherwise array inputs become constants, and backward sends each
input its VJP only if that input requires a gradient. So model code is
written once, in numpy operator syntax (``Tensor`` carries the operators
it uses), and the same forward definition builds the training graph on
Tensors and runs on numpy alone on arrays. ``slice_view`` is the one
exception: its backward adds into the sliced range of the input's
gradient in place, where a VJP would build a full-size zero array for
every slice.

Freed buffers stay in the process heap. A generation-2 training step
allocates and frees about 15 MB of graph buffers every batch, the same
sizes each time. By default glibc maps large blocks on their own and
trims the heap's free top, with thresholds that start at 128 KiB and
adapt as it goes, so each batch faults many pages of the last one's
buffers in again. At import the module raises glibc's
``M_MMAP_THRESHOLD`` to :data:`MMAP_THRESHOLD`, so buffers below it come
from the heap rather than from a mapping of their own, and
``M_TRIM_THRESHOLD`` to :data:`TRIM_THRESHOLD`, so free() keeps up to
that much free heap for the next batch. This acts on the whole process
and changes no number: no result depends on where a buffer sits. Where
``mallopt`` does not exist or refuses a value, nothing changes.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateInputError, EvaluationError, ParameterError, SequencingError, ShapeError
)

LOG_FLOOR = 1e-30
NORM_FLOOR = 1e-12
SMOOTH_EPS = 1e-3

# glibc's mallopt parameter numbers (malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# The largest mmap threshold glibc accepts on 64-bit (HEAP_MAX_SIZE / 2); a
# generation-2 batch's largest buffers are a few MB.
MMAP_THRESHOLD = 32 * 1024 * 1024
# Free heap kept before free() trims: well above a batch's graph (about
# 15 MB), so a step's freed buffers stay for the next step.
TRIM_THRESHOLD = 256 * 1024 * 1024


def _retain_freed_heap():
    """Set glibc's mmap and trim thresholds (see the module docstring).
    Returns both ``mallopt`` results (1 where a value was taken), or None
    where the C library has no ``mallopt``; never raises."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD),
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD),
    )


_retain_freed_heap()


class Tensor:
    """A numpy array node in a dynamically built computation graph.

    ``grad`` is allocated lazily during backward; leaf parameters created
    through :func:`parameter` carry a zero gradient buffer from the start so
    frozen parameters always read as exactly zero.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_vjps")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _vjps=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._vjps = _vjps

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.data.shape}")
        return float(self.data)

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def _accumulate(self, g):
        """Add ``g`` to this node's gradient. The first one is stored as one
        owned float64 copy, in the node's own memory layout as a zeros
        buffer would be, since a VJP may hand one buffer to several inputs
        or return a read-only broadcast view; later ones add into it in
        place. ``g`` must have exactly the node's shape: a copy would keep
        a wrong shape that adding into zeros would have broadcast."""
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {g.shape} for a node of shape {self.data.shape}")
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode gradient accumulation from a scalar output.

        Consumes the graph: once a node's backward has run, the node drops
        its gradient, VJPs and parents, so the buffers they hold are freed
        as the pass moves on. Leaves keep their gradients. Backward again
        through any node of this graph, from this output or another one,
        raises ``SequencingError`` before touching a gradient: rebuild the
        graph with a fresh forward pass.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            if node._backward is _consumed:
                _consumed(node, None)
            seen.add(id(node))
            stack.append((node, True))
            for p in reversed(node._parents):
                stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node, node.grad)
                node.grad, node._vjps, node._parents = None, (), ()
                node._backward = _consumed

    # The numpy operators the model code uses (see the module docstring);
    # numpy defers every ``ndarray <op> Tensor`` to the reflected method.
    __array_ufunc__ = None

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __rmatmul__(self, other):
        return matmul(other, self)

    @property
    def T(self):
        # numpy's .T reverses every axis; only a matrix means the same here.
        if self.ndim != 2:
            raise ShapeError(f".T expects a matrix, got shape {self.shape}; see transpose()")
        return transpose(self)

    def reshape(self, shape):
        return reshape(self, shape)

    def sum(self, axis=None):
        return tensor_sum(self, axis)

    def __getitem__(self, key):
        return slice_view(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def _data(x) -> np.ndarray:
    """The float64 array behind a Tensor or array-like input."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def parameter(data) -> Tensor:
    """A trainable leaf with a preallocated zero gradient buffer."""
    t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
    t.grad = np.zeros_like(t.data)
    return t


def _record(out, inputs: Sequence, *vjps: Callable[[np.ndarray], np.ndarray], gate=None):
    """The recording rule of every op but :func:`slice_view`.

    Returns ``out`` as a float64 array when no input is a Tensor. Otherwise
    returns a node whose parents are ``inputs``, arrays among them wrapped
    as constants, and whose backward is :func:`_route`; with a bool
    ``gate`` (a fused ReLU's mask), backward first multiplies the node's
    gradient by it, once for all the VJPs.
    """
    if Tensor not in map(type, inputs):  # Tensor is never subclassed
        return np.asarray(out, dtype=np.float64)
    parents = tuple(map(as_tensor, inputs))
    # Nodes share _route rather than each holding a backward closure: the
    # garbage collector's passes grow with the objects a graph allocates.
    backward = _route if gate is None else functools.partial(_gated_route, gate)
    return Tensor(out, _parents=parents, _backward=backward, _vjps=vjps)


def _consumed(node: Tensor, g):
    """Backward of a node whose backward has run. ``Tensor.backward`` calls
    it while it walks the graph, so it raises before any gradient moves."""
    raise SequencingError("graph already backpropagated; rebuild it")


def _route(node: Tensor, g: np.ndarray):
    """Backward of a recorded node: add ``node._vjps[i](g)`` to the gradient
    of input i, in input order, only if that input requires a gradient."""
    for p, vjp in zip(node._parents, node._vjps):
        if p.requires_grad:
            p._accumulate(vjp(g))


def _gated_route(gate: np.ndarray, node: Tensor, g: np.ndarray):
    """:func:`_route` of ``g * gate``. ``g`` is the node's own gradient
    buffer, dropped once this backward has run, so it is gated in place."""
    g *= gate
    _route(node, g)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b):
    ad, bd = _data(a), _data(b)
    return _record(
        ad + bd, (a, b), lambda g: _unbroadcast(g, ad.shape), lambda g: _unbroadcast(g, bd.shape)
    )


def sub(a, b):
    ad, bd = _data(a), _data(b)
    return _record(
        ad - bd, (a, b), lambda g: _unbroadcast(g, ad.shape), lambda g: _unbroadcast(-g, bd.shape)
    )


def mul(a, b):
    ad, bd = _data(a), _data(b)
    return _record(
        ad * bd,
        (a, b),
        lambda g: _unbroadcast(g * bd, ad.shape),
        lambda g: _unbroadcast(g * ad, bd.shape),
    )


def scale(a, c: float):
    return _record(_data(a) * c, (a,), lambda g: g * c)


def matmul(a, b):
    """Matrix product: (m, k) @ (k, n) or (k,), and over a leading batch
    axis, (B, m, k) @ (k, n) or (B, m, k) @ (B, k, n).

    A stack is one numpy ``@`` call, which takes each of its matrices
    through the BLAS product of the 2-D case, so slice i of the result is
    bitwise ``a[i] @ b`` (or ``a[i] @ b[i]``). The gradient of a matrix
    shared by the whole stack sums over the stack in one product.
    """
    ad, bd = _data(a), _data(b)
    shapes_ok = (ad.ndim == 2 and bd.ndim in (1, 2)) or (ad.ndim == 3 and bd.ndim in (2, 3))
    if not shapes_ok or (ad.ndim == bd.ndim == 3 and ad.shape[0] != bd.shape[0]):
        raise ShapeError(
            f"matmul expects (2d, 1d|2d) or (3d, 2d|3d) with one batch, got {ad.shape} @ {bd.shape}"
        )
    if ad.shape[-1] != bd.shape[0 if bd.ndim == 1 else -2]:
        raise ShapeError(f"matmul inner dims differ: {ad.shape} @ {bd.shape}")
    if bd.ndim == 1:
        return _record(ad @ bd, (a, b), lambda g: np.outer(g, bd), lambda g: ad.T @ g)

    def grad_b(g):
        if ad.ndim == bd.ndim:
            return np.swapaxes(ad, -1, -2) @ g
        k, n = bd.shape
        return ad.reshape(-1, k).T @ g.reshape(-1, n)

    return _record(ad @ bd, (a, b), lambda g: g @ np.swapaxes(bd, -1, -2), grad_b)


def transpose(a):
    """Swap the last two axes: a matrix's transpose, or that of every
    matrix of a stack. Given an array it returns the swapped array view."""
    data = _data(a)
    if data.ndim < 2:
        raise ShapeError(f"transpose expects a matrix or a stack of them, got shape {data.shape}")
    return _record(np.swapaxes(data, -1, -2), (a,), lambda g: np.swapaxes(g, -1, -2))


def reshape(a, shape):
    data = _data(a)
    return _record(data.reshape(shape), (a,), lambda g: g.reshape(data.shape))


def slice_view(a: Tensor, key) -> Tensor:
    """Basic slicing; backward scatters into the sliced range. Advanced keys
    are refused: one may repeat an element, which the scatter counts once."""
    basic = (int, np.integer, slice, type(None), type(Ellipsis))
    if not all(isinstance(part, basic) for part in (key if isinstance(key, tuple) else (key,))):
        raise ShapeError(f"only int, slice, None and Ellipsis keys are supported, got {key!r}")
    out_data = a.data[key]

    def backward(node, g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[key] += g

    return Tensor(out_data, _parents=(a,), _backward=backward)


def tensor_sum(a, axis=None):
    """Sum over ``axis`` (all axes for None); the VJP is a read-only
    broadcast view of the output gradient, never an input-sized array."""
    data = _data(a)
    shape = data.shape

    def vjp(g):
        return np.broadcast_to(g if axis is None else np.expand_dims(g, axis=axis), shape)

    return _record(data.sum(axis=axis), (a,), vjp)


def concat(tensors: Sequence):
    """Join arrays along axis 0; each input's gradient is its own row range."""
    arrays = [_data(t) for t in tensors]
    bounds = np.cumsum([0] + [len(x) for x in arrays])
    parts = [lambda g, a=a, b=b: g[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return _record(np.concatenate(arrays), tensors, *parts)


def take(a, index):
    """Rows of ``a`` at an integer index array, ``index.shape + a.shape[1:]``;
    the VJP scatter-adds, so a row taken twice gets both gradients."""
    data, index = _data(a), np.asarray(index, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(data)
        np.add.at(out, index, g)
        return out

    return _record(data[index], (a,), vjp)


def softplus(a):
    data = _data(a)
    return _record(np.logaddexp(0.0, data), (a,), lambda g: g / (1.0 + np.exp(-data)))


def dot(a, b):
    ad, bd = _data(a), _data(b)
    if ad.ndim != 1 or bd.ndim != 1 or ad.shape != bd.shape:
        raise ShapeError(f"dot expects equal-length vectors, got {ad.shape}, {bd.shape}")
    return _record(np.dot(ad, bd), (a, b), lambda g: g * bd, lambda g: g * ad)


def softmax(a, axis: int = -1):
    """Max-subtracted softmax along one axis."""
    data = _data(a)
    shifted = data - data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    return _record(p, (a,), lambda g: p * (g - (g * p).sum(axis=axis, keepdims=True)))


def softmax_temp(v: Tensor | np.ndarray, tau: float):
    """Temperature-scaled softmax over a vector of scores.

    Low tau sharpens the distribution; the output always sums to one and
    keeps the argmax of the input.
    """
    data = _data(v)
    if data.ndim != 1 or data.size == 0:
        raise ShapeError(f"softmax_temp expects a non-empty vector, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise EvaluationError("softmax_temp input contains non-finite entries")
    if not (isinstance(tau, (int, float)) and tau > 0):
        raise ParameterError(f"temperature must be positive, got {tau!r}")
    return softmax(scale(v, 1.0 / float(tau)), axis=0)


def soft_cross_entropy(y, y_hat: np.ndarray):
    """Cross-entropy of distribution ``y`` against a constant target ``y_hat``,
    or of each row of a (T, C) matrix, summed.

    Returns -sum(y_hat * log(y)) with the log floored at 1e-30 so sharply
    peaked predictions cannot produce -inf.
    """
    yd = _data(y)
    target = np.asarray(y_hat, dtype=np.float64)
    if yd.ndim not in (1, 2) or yd.shape != target.shape:
        raise ShapeError(f"distribution lengths differ: {yd.shape} vs {target.shape}")
    if np.any(np.abs(target.sum(axis=-1) - 1.0) > 1e-6):
        raise ParameterError("target weights must sum to 1")
    clipped = np.maximum(yd, LOG_FLOOR)
    out_data = -(target * np.log(clipped)).sum()
    if not np.isfinite(out_data):
        raise EvaluationError("cross-entropy evaluated to a non-finite value")
    return _record(
        out_data, (y,), lambda g: g * np.where(yd > LOG_FLOOR, -target / clipped, 0.0)
    )


def l2_normalize(v):
    """Unit-normalize a vector, or each row of a matrix; rejects near-zero input."""
    return _normalize_rows(v, 0.0)


def l2_normalize_smooth(a):
    """L2 normalization of a vector, or of each row of a matrix, against
    sqrt(norm^2 + SMOOTH_EPS^2); zero rows stay zero.

    Rows with norm well above ``SMOOTH_EPS`` come out unit length; near-zero
    rows shrink to zero instead of being scaled by an unbounded 1/norm.
    Every derivative stays bounded by 1/SMOOTH_EPS, so the op is
    finite-difference checkable even when a row is effectively empty.
    """
    return _normalize_rows(a, SMOOTH_EPS * SMOOTH_EPS)


def _normalize_rows(v, eps_sq: float):
    """Each row of ``v`` over s = sqrt(its sum of squares + eps_sq). With
    eps_sq = 0, an s at or below NORM_FLOOR is refused; otherwise s is at
    least sqrt(eps_sq)."""
    data = _data(v)
    if data.ndim not in (1, 2):
        raise ShapeError("l2 normalization expects a vector or a matrix of rows")
    s = np.sqrt((data * data).sum(axis=-1, keepdims=True) + eps_sq)
    if not eps_sq and (s <= NORM_FLOOR).any():
        raise DegenerateInputError(f"cannot normalize vector with norm {s.min():.3e}")
    return _record(
        data / s, (v,), lambda g: g / s - data * ((g * data).sum(axis=-1, keepdims=True) / s**3)
    )


@functools.lru_cache(maxsize=None)
def _conv_windows(h: int, wd: int, kh: int, kw: int, stride: int, pad: int):
    """The clipped im2col windows of a conv over an h x wd map, per kernel
    offset k = i*kw + j (the order of ``w.reshape(Cout, -1)``): an (output
    key, input key) pair of slices, and the border strips of the output
    plane that the window leaves uncovered, which read only padding.
    Together the window and its strips tile the plane, so a column buffer
    filled through both needs no zeroing first. Shared by every conv of
    one shape, kernel, stride and pad."""
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (wd + 2 * pad - kw) // stride + 1

    def clipped(k, extent, n_out):
        # Per offset o along one axis: the (output, input) slices of the
        # output positions r whose input index o - pad + stride*r lies in
        # [0, extent); lo is the first such r and hi one past the last.
        spans = []
        for o in range(k):
            lo = max(0, -((o - pad) // stride))
            hi = max(lo, min(n_out, (extent - 1 - o + pad) // stride + 1))
            first = o - pad + stride * lo
            spans.append((slice(lo, hi), slice(first, first + stride * (hi - lo), stride)))
        return spans

    windows, borders = [], []
    for ro, ri in clipped(kh, h, h_out):
        for co, ci in clipped(kw, wd, w_out):
            windows.append((np.s_[:, :, ro, co], np.s_[:, :, ri, ci]))
            strips = (
                (slice(0, ro.start), slice(0, w_out)),
                (slice(ro.stop, h_out), slice(0, w_out)),
                (ro, slice(0, co.start)),
                (ro, slice(co.stop, w_out)),
            )
            borders.append(
                tuple(np.s_[:, :, r, c] for r, c in strips if r.start < r.stop and c.start < c.stop)
            )
    return tuple(windows), tuple(borders)


def conv2d(x, w, b, stride: int = 1, pad: int = 0, relu: bool = False):
    """2-D convolution of a (Cin, B, H, W) stack with (Cout, Cin, kh, kw) kernels,
    optionally followed by a ReLU.

    Returns a (Cout, B, H', W') stack; a single (Cin, H, W) map is the
    B = 1 case and keeps its rank. Each layer is one im2col product: the
    kernel offsets' windows of the stack fill one (Cin*kh*kw, B*H'*W')
    column buffer, and ``w.reshape(Cout, -1) @ cols`` plus the bias is the
    output. Zero padding is never materialized: for each offset, only the
    output positions whose input lies inside the map are copied into an
    uninitialized column buffer, and only the border strips left over are
    zeroed (:func:`_conv_windows`); backward scatter-adds one ``w.T @ g``
    product per offset into the unpadded input gradient through the same
    clipped windows. Backward rebuilds the columns for its one weight-gradient
    product, so between forward and backward the node keeps its output and
    no column buffer or padded copy.

    With ``relu`` the output is multiplied in place by its own ``> 0`` mask;
    the node keeps only that bool mask, and backward gates its gradient by
    it once before the three VJPs.

    Repeated evaluations are bitwise identical. Each output is one BLAS dot
    product over the Cin*kh*kw taps, so it rounds differently, at the 1e-16
    level, from a sum of per-offset products. It does not depend on the
    other images of its stack, except that BLAS may round a column at the
    edge of its tiling differently, by an ulp or so, where H'*W' is not a
    multiple of the tile width.
    """
    xd, wdata, bd = _data(x), _data(w), _data(b)
    if xd.ndim not in (3, 4) or wdata.ndim != 4 or bd.ndim != 1:
        raise ShapeError("conv2d expects x(Cin,[B,]H,W), w(Cout,Cin,kh,kw), b(Cout,)")
    xs = xd if xd.ndim == 4 else xd[:, None]
    cin, n, h, wd = xs.shape
    cout, cin_w, kh, kw = wdata.shape
    if cin != cin_w or bd.shape[0] != cout:
        raise ShapeError(f"conv2d channel mismatch: x has {cin}, w expects {cin_w}")
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (wd + 2 * pad - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"input {h}x{wd} too small for kernel {kh}x{kw} stride {stride}")

    windows, borders = _conv_windows(h, wd, kh, kw, stride, pad)
    wm = wdata.reshape(cout, -1)

    def columns():
        cols = np.empty((cin, kh * kw, n, h_out, w_out))
        for k, (at_out, at_in) in enumerate(windows):
            plane = cols[:, k]
            plane[at_out] = xs[at_in]
            for strip in borders[k]:
                plane[strip] = 0.0
        return cols.reshape(cin * kh * kw, -1)

    def grad_x(g):
        gcols = (wm.T @ g.reshape(cout, -1)).reshape(cin, kh * kw, n, h_out, w_out)
        gx = np.zeros_like(xs)
        for k, (at_out, at_in) in enumerate(windows):
            gx[at_in] += gcols[:, k][at_out]
        return gx.reshape(xd.shape)

    out = wm @ columns()
    out += bd[:, None]
    out = out.reshape((cout,) + xd.shape[1:-2] + (h_out, w_out))
    mask = None
    if relu:
        mask = out > 0
        out *= mask
    return _record(
        out,
        (x, w, b),
        grad_x,
        lambda g: (g.reshape(cout, -1) @ columns().T).reshape(wdata.shape),
        lambda g: g.reshape(cout, -1).sum(axis=1),
        gate=mask,
    )


def grad_check(
    fn: Callable[[], Tensor],
    params: Iterable[Tensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` must rebuild its graph from ``params`` on every call and return a
    scalar. The error is |analytic - numeric| / max(1, |numeric|), maximized
    over every coordinate of every parameter.
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ParameterError(f"eps must lie in [1e-6, 1e-3], got {eps}")
    params = list(params)
    out = fn()
    if not np.all(np.isfinite(out.data)):
        raise EvaluationError("function output is not finite")
    for p in params:
        p.grad = np.zeros_like(p.data)
    out.backward()
    analytic = [p.grad.copy() for p in params]

    max_err = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            f_plus = fn().item()
            flat[idx] = orig - eps
            f_minus = fn().item()
            flat[idx] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise EvaluationError("function output is not finite during differencing")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(gflat[idx] - numeric) / max(1.0, abs(numeric))
            max_err = max(max_err, err)
    return max_err
