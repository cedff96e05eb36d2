"""Small strided convolutional encoder producing dense feature maps.

A fixed 5-tap binomial low-pass, then three 3x3 stride-2 same-padded conv
layers (1 -> 8 -> 16 -> 16 channels, ReLU between layers) turn a grayscale
image into a (16, H/8, W/8) feature map. :func:`encode` is the one
forward definition: with Tensor parameters it records the training graph,
with array parameters (:meth:`EncoderParams.as_arrays`) it returns a plain
array for mining and evaluation, where no gradients are needed.

Images carry a batch axis: a (B, H, W) stack of same-shape images runs
through one im2col product per layer, in the conv layout
(16, B, H/8, W/8), and a single (H, W) image is its B = 1 case. Each
layer is one graph node: the first two fuse their ReLU into the conv, so
a training graph holds one activation per layer plus two bool masks.
Training graphs and the gradient-free callers alike encode fixed chunks
of images, one stack each, through the one loop
``trainer.describe_chunks``.

The low-pass is anti-aliasing. The layers subsample by 8 in all, and the
facade glyphs hold 2-pixel checkers, far above the rate they are sampled
at. Unfiltered, a view shifted by one or two pixels (under 0.25 m) has a
less similar descriptor than one shifted by a whole metre, so similarity
follows the pixel phase of the camera rather than the facade two views
share.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .errors import EvaluationError, ShapeError
from .seeding import derive_rng

CHANNELS = (1, 8, 16, 16)
KERNEL = 3
STRIDE = 2
PAD = 1
LOW_PASS = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
# Output columns per product of the low-pass W-axis pass.
BAND_BLOCK = 32


@dataclass
class EncoderParams:
    """Conv weights/biases in fixed parameter order: graph leaves for
    training, or plain arrays for a forward pass that records no graph."""

    weights: list[ag.Tensor]
    biases: list[ag.Tensor]

    def tensors(self) -> list[ag.Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def as_arrays(self) -> "EncoderParams":
        """The same parameters on array leaves: encoding records no graph."""
        return EncoderParams(
            [ag._data(w) for w in self.weights], [ag._data(b) for b in self.biases]
        )

    def freeze_all_but_last(self):
        """Stop gradient flow into every layer except the final conv."""
        for t in self.tensors()[:-2]:
            t.requires_grad = False


def init_encoder(seed: int) -> EncoderParams:
    """Scaled-uniform weight init, zero biases, keyed by the run seed."""
    rng = derive_rng(seed, "encoder-init")
    weights, biases = [], []
    for cin, cout in zip(CHANNELS, CHANNELS[1:]):
        fan_in = cin * KERNEL * KERNEL
        fan_out = cout * KERNEL * KERNEL
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(cout, cin, KERNEL, KERNEL))
        weights.append(ag.parameter(w))
        biases.append(ag.parameter(np.zeros(cout)))
    return EncoderParams(weights, biases)


@functools.lru_cache(maxsize=None)
def _low_pass_matrix(n: int) -> np.ndarray:
    """(n, n) matrix that applies :data:`LOW_PASS` along an axis of length
    n, replicating the edge samples; read-only, since callers share it."""
    r = len(LOW_PASS) // 2
    m = np.zeros((n, n))
    for i in range(n):
        for j, c in enumerate(LOW_PASS):
            m[i, min(max(i + j - r, 0), n - 1)] += c
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=None)
def _column_blocks(w: int) -> tuple[tuple[slice, slice, np.ndarray], ...]:
    """The W-axis pass of :func:`low_pass` in blocks of :data:`BAND_BLOCK`
    output columns: (output columns, the input columns they read, that
    band of ``_low_pass_matrix(w).T``). A block reads its own columns plus
    a halo of two on each side, clipped at the edges, where the replicated
    taps already sit inside the band. Read-only, since callers share it."""
    r = len(LOW_PASS) // 2
    taps = _low_pass_matrix(w).T
    blocks = []
    for c0 in range(0, w, BAND_BLOCK):
        out = slice(c0, min(c0 + BAND_BLOCK, w))
        read = slice(max(c0 - r, 0), min(out.stop + r, w))
        band = np.ascontiguousarray(taps[read, out])
        band.flags.writeable = False
        blocks.append((out, read, band))
    return tuple(blocks)


def low_pass(images: np.ndarray) -> np.ndarray:
    """Separable :data:`LOW_PASS` blur of an (H, W) image or a (B, H, W)
    stack, edges replicated: ``_low_pass_matrix(h) @ x @ _low_pass_matrix(w).T``.

    The H-axis pass is one product per image. The W-axis pass is one 2-D
    product over every row of the stack per block of output columns, and
    reads only the columns inside the 5-tap band. The taps are multiples of
    1/16 that sum to 1, so on inputs that are multiples of 2^-25 in [0, 1]
    (world pixels: float32 in {0} and [0.38, 1]) every partial sum is a
    multiple of 2^-33 no larger than 1, exact in float64, and the result is
    the dense products', bit for bit. Other inputs may round differently,
    by about 1e-16.
    """
    h, w = images.shape[-2:]
    rows = (_low_pass_matrix(h) @ images).reshape(-1, w)
    out = np.empty_like(rows)
    for cols, read, band in _column_blocks(w):
        out[:, cols] = rows[:, read] @ band
    return out.reshape(images.shape)


def _prepare(images) -> np.ndarray:
    """Validated float64 image or stack, low-passed for the first layer."""
    try:
        x = np.asarray(images, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"images of one stack must share one shape: {exc}") from exc
    if x.ndim not in (2, 3):
        raise ShapeError(f"expected a 2-D grayscale image or a stack of them, got shape {x.shape}")
    if x.shape[-2] < 8 or x.shape[-1] < 8:
        raise ShapeError(f"image {x.shape[-2:]} too small for three stride-2 layers")
    finite = np.isfinite(x).all(axis=(-2, -1))
    if not finite.all():
        which = f" {int(np.argmin(finite))} of the stack" if x.ndim == 3 else ""
        raise EvaluationError(f"image{which} contains non-finite pixels")
    return low_pass(x)


def encode(params: EncoderParams, images):
    """Forward pass of an (H, W) image to a (16, H/8, W/8) feature map, or
    of a (B, H, W) stack to (16, B, H/8, W/8): a graph node when the
    parameters are Tensors, a plain array when they are arrays. Each layer
    is one ``conv2d`` call, with its ReLU fused in on all but the last, so
    it records one node per layer."""
    x = _prepare(images)[None]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        x = ag.conv2d(x, w, b, stride=STRIDE, pad=PAD, relu=i < last)
    return x

