"""Soft-assignment VLAD aggregation of feature maps into unit descriptors.

Each spatial position's feature vector is softly assigned to K learned
centers via a softmax over projected similarity scores; per-center residual
means are intra-normalized, flattened, and globally L2-normalized, yielding
a K*D descriptor whose dot products measure view similarity. Centers are the
only parameters; the projection (2*alpha*c_k) and bias (-alpha*|c_k|^2) are
derived from them inside the graph so gradients reach the centers.

:func:`aggregate_regions` is the one definition, written in numpy operator
syntax. Given Tensors it records the training graph; given arrays the same
lines run on numpy alone, which is how mining, labels and evaluation call
it. It describes any set of the nine fixed regions of a map in one pass,
or of every map of a (D, B, H, W) stack at once, and :func:`aggregate` is
its full-map case. ``trainer.describe_chunks`` aggregates whole encode
chunks this way, and soft labels a query's positives as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .errors import InitError, ParameterError, ShapeError
from .regions import FULL_REGION, region_mask
from .seeding import derive_rng

DEFAULT_K = 8
# Sharpness is calibrated to the encoder's feature scale (norms 0.2-0.3): the
# init-time assignment entropy should sit between one-hot and uniform, or
# raw-descriptor similarity carries no location signal for mining.
DEFAULT_ALPHA = 100.0
KMEANS_ITERS = 25


@dataclass
class VladParams:
    centers: ag.Tensor  # (K, D); a plain array yields array descriptors
    alpha: float = DEFAULT_ALPHA

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def as_arrays(self) -> "VladParams":
        """The same parameters on array leaves: aggregation records no graph."""
        return VladParams(ag._data(self.centers), self.alpha)


def init_centers(features: np.ndarray, k: int, seed: int) -> np.ndarray:
    """K-means centers over local feature rows, seeded and fixed-iteration.

    Starts from k distinct feature vectors chosen by the derived rng and runs
    a fixed number of Lloyd iterations; a cluster that loses all members
    keeps its previous center. Fewer than k distinct features is an error.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise ShapeError(f"expected (N, D) feature rows, got shape {features.shape}")
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    distinct = np.unique(features, axis=0)
    if distinct.shape[0] < k:
        raise InitError(
            f"k-means needs at least {k} distinct features, found {distinct.shape[0]}"
        )
    rng = derive_rng(seed, "vlad-centers")
    centers = distinct[rng.choice(distinct.shape[0], size=k, replace=False)].copy()
    for _ in range(KMEANS_ITERS):
        d2 = ((features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)  # ties resolve to the lowest center id
        for j in range(k):
            members = features[assign == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
    return centers


def aggregate_regions(params: VladParams, fm, region_ids: Sequence[int]):
    """Aggregate regions of a (D, H, W) feature map to unit K*D rows, (R, K*D),
    or of each map of a (D, B, H, W) stack, (B, R, K*D).

    Row r describes region ``region_ids[r]``: a graph node when the maps or
    the centers are Tensors, a plain array when both are arrays. Assignment
    is per position, so one softmax serves every region and a 0/1 mask picks
    each region's residual sums. These are averaged over the region's
    positions, so the intra-normalization treats all region sizes alike.
    A stack runs as one pass of batched products; each of its maps goes
    through the same BLAS products as on its own, so its rows are bitwise
    the rows of that map aggregated alone.
    """
    if fm.ndim not in (3, 4):
        raise ShapeError(f"expected a (D, H, W) map or a (D, B, H, W) stack, got {fm.shape}")
    d = params.dim
    if fm.shape[0] != d:
        raise ShapeError(f"feature dim {fm.shape[0]} does not match centers dim {d}")
    k = params.k
    b = fm.shape[1] if fm.ndim == 4 else 1
    h, w = fm.shape[-2:]
    n = h * w
    mask = region_mask(h, w, tuple(region_ids))  # (N, R, 1)
    r = mask.shape[1]
    c = params.centers
    # (B, N, D): each map's (N, D) matrix keeps the transposed layout of
    # the one-map case, so BLAS takes the same path and rounds the same.
    x = fm.reshape((d, b * n)).T.reshape((b, n, d))
    proj = c * (2.0 * params.alpha)
    bias = (c * c).sum(axis=1) * -params.alpha
    scores = x @ proj.T + bias  # (B, N, K)
    assign = ag.softmax(scores, axis=2)
    masked = (assign.reshape((b, n, 1, k)) * mask).reshape((b, n, r * k))  # (B, N, R*K)
    weighted = (ag.transpose(masked) @ x).reshape((b, r, k, d))
    mass = masked.sum(axis=1).reshape((b, r, k, 1))
    residuals = (weighted - mass * c) * (1.0 / mask.sum(axis=0)).reshape((r, 1, 1))
    intra = ag.l2_normalize_smooth(residuals.reshape((b * r * k, d)), axis=1)
    rows = ag.l2_normalize(intra.reshape((b * r, k * d)))
    return rows.reshape(fm.shape[1:-2] + (r, k * d))


def aggregate(params: VladParams, fm):
    """Aggregate a whole (D, H, W) feature map to a unit K*D descriptor, or
    each map of a (D, B, H, W) stack to a (B, K*D) row."""
    return aggregate_regions(params, fm, (FULL_REGION,)).reshape(
        fm.shape[1:-2] + (params.k * params.dim,)
    )


def aggregate_array(params: VladParams, fm: np.ndarray) -> np.ndarray:
    """:func:`aggregate` on array leaves: no graph is recorded."""
    return aggregate(params.as_arrays(), np.asarray(fm, np.float64))
