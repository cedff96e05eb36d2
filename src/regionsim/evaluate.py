"""PCA whitening and recall@k retrieval evaluation.

Whitening is fit on training descriptors only and applied everywhere at
inference: mean-center, project onto the leading eigenvectors scaled by
1/sqrt(eigenvalue + 1e-8), then re-normalize to unit length. Recall@k asks
whether any of the k most similar gallery images lies within d meters of
the query's reported position; the gallery is scored and ordered by
``mining.similarities`` and ``mining.ranked``, as mining orders it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .errors import FitError, ParameterError, ShapeError
from .mining import ranked, similarities

EIG_FLOOR = 1e-8
RANK_TOL = 1e-12
DEFAULT_KS = (1, 5, 10)
DEFAULT_RADIUS_M = 25.0


@dataclass
class WhiteningModel:
    mean: np.ndarray  # (D,)
    projection: np.ndarray  # (out_dim, D)
    eigenvalues: np.ndarray  # (out_dim,) matching projection rows

    @property
    def in_dim(self) -> int:
        return self.mean.shape[0]

    @property
    def out_dim(self) -> int:
        return self.projection.shape[0]


def fit_whitening(descriptors: np.ndarray, out_dim: int) -> WhiteningModel:
    """Fit mean + scaled-eigenvector projection on training descriptors."""
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected (N, D) descriptors, got shape {x.shape}")
    n, d = x.shape
    if not (1 <= out_dim <= d):
        raise ParameterError(f"out_dim must lie in [1, {d}], got {out_dim}")
    if n <= out_dim:
        raise ParameterError(f"need more than {out_dim} samples, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:out_dim]
    lead_vals = eigvals[order]
    if lead_vals[-1] <= RANK_TOL:
        raise FitError(
            f"covariance rank below {out_dim}: smallest kept eigenvalue {lead_vals[-1]:.3e}"
        )
    projection = eigvecs[:, order].T / np.sqrt(lead_vals + EIG_FLOOR)[:, None]
    return WhiteningModel(mean=mean, projection=projection, eigenvalues=lead_vals)


def apply_whitening_batch(model: WhiteningModel, descriptors: np.ndarray) -> np.ndarray:
    """Project each descriptor row and unit-normalize it with
    ``ag.l2_normalize``, which refuses a zero projection."""
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ShapeError(f"expected (N, {model.in_dim}) descriptors, got {x.shape}")
    return ag.l2_normalize((x - model.mean) @ model.projection.T)


def recall_at_k(
    query_descs: np.ndarray,
    query_pos: np.ndarray,
    gallery_descs: np.ndarray,
    gallery_pos: np.ndarray,
    ks: Sequence[int] = DEFAULT_KS,
    radius_m: float = DEFAULT_RADIUS_M,
) -> dict[int, float]:
    """Fraction of queries with a gallery hit within radius in the top k.

    Ranking is by descending dot-product similarity with ties broken toward
    the lowest gallery id; positions are reported (noisy) coordinates. Each
    query orders only its candidates for the top max(ks), not the whole
    gallery.
    """
    g = np.asarray(gallery_descs, dtype=np.float64)
    if g.shape[0] == 0:
        raise ParameterError("gallery is empty")
    sims = similarities(query_descs, g)
    ks = tuple(int(k) for k in ks)
    if not ks or any(k < 1 for k in ks):
        raise ParameterError(f"k values must be positive: {ks}")
    if g.shape[0] < max(ks):
        raise ParameterError(f"gallery size {g.shape[0]} below max k {max(ks)}")
    qp = np.asarray(query_pos, dtype=np.float64)
    gp = np.asarray(gallery_pos, dtype=np.float64)

    hits = {k: 0 for k in ks}
    k_max = max(ks)
    cut = g.shape[0] - k_max
    for i, scores in enumerate(sims):
        # Only rows scoring at least the k_max-th best can rank in the top
        # k_max; ties at that score are all kept, so ``ranked`` breaks them
        # as it would over the whole gallery.
        kth = np.partition(scores, cut)[cut]
        top = ranked(scores, np.flatnonzero(scores >= kth))[:k_max]
        close = np.abs(gp[top] - qp[i]) <= radius_m
        for k in ks:
            if bool(close[:k].any()):
                hits[k] += 1
    n_q = max(sims.shape[0], 1)
    return {k: hits[k] / n_q for k in ks}


def format_metrics_csv(rows: Sequence[tuple[int, dict[int, float]]]) -> str:
    """CSV report: one row per generation, recalls at 1/5/10 to 3 decimals."""
    out = ["generation,recall1,recall5,recall10"]
    for gen, rec in rows:
        out.append(f"{gen},{rec[1]:.3f},{rec[5]:.3f},{rec[10]:.3f}")
    return "\n".join(out) + "\n"
