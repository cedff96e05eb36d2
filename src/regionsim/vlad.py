"""Soft-assignment VLAD aggregation of feature maps into unit descriptors.

Each spatial position's feature vector is softly assigned to K learned
centers via a softmax over projected similarity scores; per-center residual
means are intra-normalized, flattened, and globally L2-normalized, yielding
a K*D descriptor whose dot products measure view similarity. Centers are the
only parameters; the projection (2*alpha*c_k) and bias (-alpha*|c_k|^2) are
derived from them inside the graph so gradients reach the centers.

:func:`aggregate` is written once in numpy operator syntax. Given Tensors it
records the training graph; given arrays the same lines run on numpy alone,
which is how mining, labels and evaluation call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .errors import InitError, ParameterError, ShapeError
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


def aggregate(params: VladParams, fm):
    """Aggregate a (D, H, W) feature map to a unit K*D descriptor.

    A graph node when the map or the centers are Tensors, a plain array when
    both are arrays. Residual rows are averaged over spatial positions
    rather than summed, so their scale does not depend on how many columns
    a (sub-)map has and the smooth intra-normalization treats full maps and
    small regions alike.
    """
    if fm.ndim != 3:
        raise ShapeError(f"expected (D, H, W) feature map, got shape {fm.shape}")
    d = params.dim
    if fm.shape[0] != d:
        raise ShapeError(f"feature dim {fm.shape[0]} does not match centers dim {d}")
    k = params.k
    n = fm.shape[1] * fm.shape[2]
    c = params.centers
    x = fm.reshape((d, n)).T  # (N, D)
    proj = c * (2.0 * params.alpha)
    bias = (c * c).sum(axis=1) * -params.alpha
    scores = x @ proj.T + bias  # (N, K)
    assign = ag.softmax(scores, axis=1)
    weighted = assign.T @ x  # (K, D)
    mass = assign.sum(axis=0).reshape((k, 1))
    residuals = (weighted - mass * c) * (1.0 / n)
    intra = ag.l2_normalize_smooth(residuals, axis=1)
    return ag.l2_normalize(intra.reshape((k * d,)))


def aggregate_array(params: VladParams, fm: np.ndarray) -> np.ndarray:
    """:func:`aggregate` on array leaves: no graph is recorded."""
    return aggregate(VladParams(params.centers.data, params.alpha), np.asarray(fm, np.float64))
