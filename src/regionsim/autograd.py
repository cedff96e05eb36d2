"""Dense float64 tensors with reverse-mode gradients.

Implements exactly the closed set of operations the retrieval model needs
(convolution, ReLU, matmul, softmax, L2 normalization, dot products,
soft cross-entropy, softplus) plus the shape plumbing to connect them.
Convolution and matmul take a leading batch axis, so one node serves a
whole stack of images.
Backward accumulation follows the graph construction order, so repeated
runs are bitwise deterministic.

Model code is written once, in numpy operator syntax. ``Tensor`` carries
the operators it uses, and the ops numpy has no operator for (conv2d,
relu, softmax, transpose, stack_rows, both L2 normalizations) return a
plain array, recording nothing, when no input is a Tensor. So the same
forward definition builds the training graph on Tensors and runs on numpy
alone on arrays.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, EvaluationError, ParameterError, ShapeError

LOG_FLOOR = 1e-30
NORM_FLOOR = 1e-12
SMOOTH_EPS = 1e-3


class Tensor:
    """A numpy array node in a dynamically built computation graph.

    ``grad`` is allocated lazily during backward; leaf parameters created
    through :func:`parameter` carry a zero gradient buffer from the start so
    frozen parameters always read as exactly zero.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        """Reverse-mode gradient accumulation from a scalar output."""
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
            seen.add(id(node))
            stack.append((node, True))
            for p in reversed(node._parents):
                stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # The numpy operators the model code uses (see the module docstring);
    # numpy defers every ``ndarray <op> Tensor`` to the reflected method.
    __array_ufunc__ = None

    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def __rmatmul__(self, other):
        return matmul(as_tensor(other), self)

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


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return Tensor(a.data * c, _parents=(a,), _backward=backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (m, k) @ (k, n) or (k,), and over a leading batch
    axis, (B, m, k) @ (k, n) or (B, m, k) @ (B, k, n).

    A stack is one numpy ``@`` call, which takes each of its matrices
    through the BLAS product of the 2-D case, so slice i of the result is
    bitwise ``a[i] @ b`` (or ``a[i] @ b[i]``). The gradient of a matrix
    shared by the whole stack sums over the stack in one product.
    """
    shapes_ok = (a.ndim == 2 and b.ndim in (1, 2)) or (a.ndim == 3 and b.ndim in (2, 3))
    if not shapes_ok or (a.ndim == b.ndim == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(
            f"matmul expects (2d, 1d|2d) or (3d, 2d|3d) with one batch, got {a.shape} @ {b.shape}"
        )
    if a.shape[-1] != b.shape[0 if b.ndim == 1 else -2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if b.ndim == 1:
            if a.requires_grad:
                a._accumulate(np.outer(g, b.data))
            if b.requires_grad:
                b._accumulate(a.data.T @ g)
            return
        if a.requires_grad:
            a._accumulate(g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            if a.ndim == b.ndim:
                b._accumulate(np.swapaxes(a.data, -1, -2) @ g)
            else:
                k, n = b.shape
                b._accumulate(a.data.reshape(-1, k).T @ g.reshape(-1, n))

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def transpose(a):
    """Swap the last two axes: a matrix's transpose, or that of every
    matrix of a stack. Given an array it returns the swapped array view."""
    data = _data(a)
    if data.ndim < 2:
        raise ShapeError(f"transpose expects a matrix or a stack of them, got shape {data.shape}")
    out_data = np.swapaxes(data, -1, -2)
    if not isinstance(a, Tensor):
        return out_data

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.swapaxes(g, -1, -2))

    return Tensor(out_data, _parents=(a,), _backward=backward)


def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.data.shape
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(in_shape))

    return Tensor(out_data, _parents=(a,), _backward=backward)


def slice_view(a: Tensor, key) -> Tensor:
    """Basic slicing; backward scatters into the sliced range. Advanced keys
    are refused: one may repeat an element, which the scatter counts once."""
    basic = (int, np.integer, slice, type(None), type(Ellipsis))
    if not all(isinstance(part, basic) for part in (key if isinstance(key, tuple) else (key,))):
        raise ShapeError(f"only int, slice, None and Ellipsis keys are supported, got {key!r}")
    out_data = a.data[key]

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[key] += g

    return Tensor(out_data, _parents=(a,), _backward=backward)


def tensor_sum(a: Tensor, axis=None) -> Tensor:
    out_data = a.data.sum(axis=axis)

    def backward(g):
        if a.requires_grad:
            if axis is None:
                a._accumulate(np.full_like(a.data, float(g)))
            else:
                a._accumulate(np.expand_dims(g, axis=axis) * np.ones_like(a.data))

    return Tensor(out_data, _parents=(a,), _backward=backward)


def stack_rows(tensors: Sequence):
    """Stack equal-length vectors into a matrix; row i backprops to input i.
    Given arrays only it returns the stacked array."""
    if not tensors:
        raise ShapeError("stack_rows needs at least one vector")
    out_data = np.stack([_data(t) for t in tensors], axis=0)
    if not any(isinstance(t, Tensor) for t in tensors):
        return out_data

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(g[i])

    return Tensor(out_data, _parents=tuple(tensors), _backward=backward)


def relu(a):
    data = _data(a)
    mask = data > 0
    out_data = data * mask
    if not isinstance(a, Tensor):
        return out_data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return Tensor(out_data, _parents=(a,), _backward=backward)


def softplus(a: Tensor) -> Tensor:
    out_data = np.logaddexp(0.0, a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g / (1.0 + np.exp(-a.data)))

    return Tensor(out_data, _parents=(a,), _backward=backward)


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot expects equal-length vectors, got {a.shape}, {b.shape}")
    out_data = np.dot(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def softmax(a, axis: int = -1):
    """Max-subtracted softmax along one axis."""
    data = _data(a)
    shifted = data - data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    if not isinstance(a, Tensor):
        return p

    def backward(g):
        if a.requires_grad:
            inner = (g * p).sum(axis=axis, keepdims=True)
            a._accumulate(p * (g - inner))

    return Tensor(p, _parents=(a,), _backward=backward)


def softmax_temp(v: Tensor | np.ndarray, tau: float) -> Tensor:
    """Temperature-scaled softmax over a vector of scores.

    Low tau sharpens the distribution; the output always sums to one and
    keeps the argmax of the input.
    """
    v = as_tensor(v)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"softmax_temp expects a non-empty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.data)):
        raise EvaluationError("softmax_temp input contains non-finite entries")
    if not (isinstance(tau, (int, float)) and tau > 0):
        raise ParameterError(f"temperature must be positive, got {tau!r}")
    return softmax(scale(v, 1.0 / float(tau)), axis=0)


def soft_cross_entropy(y: Tensor | np.ndarray, y_hat: np.ndarray) -> Tensor:
    """Cross-entropy of distribution ``y`` against a constant target ``y_hat``.

    Returns -sum(y_hat * log(y)) with the log floored at 1e-30 so sharply
    peaked predictions cannot produce -inf.
    """
    y = as_tensor(y)
    target = np.asarray(y_hat, dtype=np.float64)
    if y.ndim != 1 or target.ndim != 1 or y.shape != target.shape:
        raise ShapeError(f"distribution lengths differ: {y.shape} vs {target.shape}")
    if abs(target.sum() - 1.0) > 1e-6:
        raise ParameterError("target weights must sum to 1")
    clipped = np.maximum(y.data, LOG_FLOOR)
    out_data = -(target * np.log(clipped)).sum()

    def backward(g):
        if y.requires_grad:
            grad = np.where(y.data > LOG_FLOOR, -target / clipped, 0.0)
            y._accumulate(g * grad)

    out = Tensor(out_data, _parents=(y,), _backward=backward)
    if not np.isfinite(out.data):
        raise EvaluationError("cross-entropy evaluated to a non-finite value")
    return out


def l2_normalize(v):
    """Unit-normalize a vector, or each row of a matrix; rejects near-zero input."""
    data = _data(v)
    if data.ndim not in (1, 2):
        raise ShapeError("l2_normalize expects a vector or a matrix of rows")
    norm = np.sqrt((data * data).sum(axis=-1, keepdims=True))
    if norm.min() <= NORM_FLOOR:
        raise DegenerateInputError(f"cannot normalize vector with norm {norm.min():.3e}")
    out_data = data / norm
    if not isinstance(v, Tensor):
        return out_data

    def backward(g):
        if not v.requires_grad:
            return
        inner = (g * data).sum(axis=-1, keepdims=True)
        v._accumulate(g / norm - data * (inner / norm**3))

    return Tensor(out_data, _parents=(v,), _backward=backward)


def l2_normalize_smooth(a, axis=None, eps: float = SMOOTH_EPS):
    """L2 normalization against sqrt(norm^2 + eps^2); zero rows stay zero.

    ``axis=None`` treats the tensor as one flat vector, ``axis=1`` normalizes
    each row independently. Rows with norm well above ``eps`` come out unit
    length; near-zero rows shrink to zero instead of being scaled by an
    unbounded 1/norm. Every derivative stays bounded by 1/eps, so the op is
    finite-difference checkable even when a row is effectively empty.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if axis not in (None, 1):
        raise ShapeError("l2_normalize_smooth supports axis None or 1")
    data = _data(a)
    keep = axis is not None
    s = np.sqrt((data * data).sum(axis=axis, keepdims=keep) + eps * eps)
    out_data = data / s
    if not isinstance(a, Tensor):
        return out_data

    def backward(g):
        if not a.requires_grad:
            return
        inner = (g * data).sum(axis=axis, keepdims=keep)
        a._accumulate(g / s - data * (inner / s**3))

    return Tensor(out_data, _parents=(a,), _backward=backward)


def conv2d(x, w, b, stride: int = 1, pad: int = 0):
    """2-D convolution of a (Cin, B, H, W) stack with (Cout, Cin, kh, kw) kernels.

    Returns a (Cout, B, H', W') stack; a single (Cin, H, W) map is the
    B = 1 case and keeps its rank. Each kernel offset is one
    ``w[:, :, i, j] @ patch`` product over all B*H'*W' output positions (a
    broadcast multiply when Cin = 1), summed in a fixed offset order, so
    repeated evaluations are bitwise identical. A position's sum over Cin
    does not depend on the other images of its stack, except that BLAS may
    round a column at the edge of its tiling differently, by an ulp or so,
    where H'*W' is not a multiple of the tile width.
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
    xp = np.pad(xs, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else xs
    offsets = [
        (i, j, np.s_[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride])
        for i in range(kh)
        for j in range(kw)
    ]
    acc = np.repeat(bd[:, None], n * h_out * w_out, axis=1)
    for i, j, at in offsets:
        patch = xp[at].reshape(cin, -1)
        # One input channel: a K = 1 product is one multiply per entry, so
        # the broadcast product has its bits without the BLAS call.
        acc = acc + (wdata[:, :, i, j] * patch if cin == 1 else wdata[:, :, i, j] @ patch)
    out_data = acc.reshape((cout,) + xd.shape[1:-2] + (h_out, w_out))
    if not any(isinstance(t, Tensor) for t in (x, w, b)):
        return out_data
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)

    def backward(g):
        gm = g.reshape(cout, -1)
        if b.requires_grad:
            b._accumulate(gm.sum(axis=1))
        need_x = x.requires_grad
        gxp = np.zeros_like(xp) if need_x else None
        for i, j, at in offsets:
            if w.requires_grad:
                if w.grad is None:
                    w.grad = np.zeros_like(w.data)
                w.grad[:, :, i, j] += gm @ xp[at].reshape(cin, -1).T
            if need_x:
                gxp[at] += (w.data[:, :, i, j].T @ gm).reshape(cin, n, h_out, w_out)
        if need_x:
            gx = gxp[:, :, pad : pad + h, pad : pad + wd] if pad else gxp
            x._accumulate(gx.reshape(xd.shape))

    return Tensor(out_data, _parents=(x, w, b), _backward=backward)


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
