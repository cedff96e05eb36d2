"""Training-tuple mining: positives, k-reciprocal neighbors, hard negatives.

All similarity inputs are unit descriptors; geographic eligibility always
uses reported (noisy) positions, never ground truth. Gallery items are
addressed by row index, and callers keep row order equal to id order so the
lowest-id tie-break is the lowest row index everywhere.

:func:`similarities` and :func:`ranked` are the one home of the ranking
rule that mining and evaluation share: descending score, ties to the lowest
row. Scores come from ``np.einsum``, which sums each entry over its own two
rows alone. A BLAS product (``@``) rounds a row by its position in the
product, so byte-identical gallery images would not tie.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import vlad as vlad_mod
from .errors import ParameterError, ShapeError
from .regions import ALL_REGION_IDS

POSITIVE_RADIUS_M = 10.0
NEGATIVE_RADIUS_M = 25.0
NEGATIVE_POOL_SIZE = 1000


def similarities(query_descs: np.ndarray, gallery_descs: np.ndarray) -> np.ndarray:
    """(Q, G) dot products of every query row with every gallery row; each
    entry depends only on its own two rows."""
    q = np.asarray(query_descs, dtype=np.float64)
    g = np.asarray(gallery_descs, dtype=np.float64)
    if q.ndim != 2 or g.ndim != 2 or q.shape[1] != g.shape[1]:
        raise ShapeError(f"descriptor shapes do not align: {q.shape} vs {g.shape}")
    return np.einsum("qd,gd->qg", q, g)


def ranked(scores: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows`` by descending ``scores[rows]``, ties to the lowest row."""
    rows = np.asarray(rows, dtype=np.intp)
    return rows[np.lexsort((rows, -scores[rows]))]


def difficult_positives(
    query_pos: float, scores: np.ndarray, gallery_pos: np.ndarray, k: int
) -> list[int]:
    """The query's positive candidates, most similar first, at most k.

    Candidates are the gallery items reported within 10 m of the query's
    reported position, the only positives the noisy GPS labels admit. They
    are :func:`ranked` by the query's gallery ``scores``. Fewer than k
    candidates give a shorter list, none an empty one.
    """
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    eligible = np.flatnonzero(np.abs(gallery_pos - query_pos) <= POSITIVE_RADIUS_M)
    return ranked(scores, eligible)[:k].tolist()


def easiest_positive(
    query_pos: float, scores: np.ndarray, gallery_pos: np.ndarray
) -> Optional[int]:
    """Most similar gallery item within 10 m; None signals no candidate."""
    rows = difficult_positives(query_pos, scores, gallery_pos, 1)
    return rows[0] if rows else None


def sample_negatives(
    query_pos: float,
    scores: np.ndarray,
    gallery_pos: np.ndarray,
    rng: np.random.Generator,
    n: int = 10,
    pool_size: int = NEGATIVE_POOL_SIZE,
) -> list[int]:
    """Uniform sample of n ids from the hardest far-away gallery images.

    The candidate pool is the min(pool_size, available) images beyond 25 m
    that rank first by the query's gallery ``scores``. A pool smaller than n
    is returned whole; the caller reads the short length as the exhaustion
    signal.
    """
    far = np.flatnonzero(np.abs(gallery_pos - query_pos) > NEGATIVE_RADIUS_M)
    pool = ranked(scores, far)[:pool_size]
    if pool.size <= n:
        return pool.tolist()
    return pool[rng.choice(pool.size, size=n, replace=False)].tolist()


def _neighbor_order(dist2: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Ascending squared distance, ties by ascending id."""
    return np.lexsort((ids, dist2))


def k_reciprocal(
    query_desc: np.ndarray,
    gallery_descs: np.ndarray,
    k: int,
) -> list[int]:
    """The query's k mutually-nearest gallery neighbors, padded to length k.

    A gallery item qualifies when it lies in the query's top-k and the query
    lies in its own top-k over the other gallery items plus the query (the
    query carries tie-key -1, so it wins distance ties). Qualifying ids come
    first in ascending query distance, then non-qualifying top-k members in
    the same order, so the result is always exactly k ids.
    """
    g = np.asarray(gallery_descs, dtype=np.float64)
    q = np.asarray(query_desc, dtype=np.float64)
    if g.ndim != 2 or q.ndim != 1 or g.shape[1] != q.shape[0]:
        raise ShapeError(f"descriptor shapes do not align: {g.shape} vs {q.shape}")
    n = g.shape[0]
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if n <= k:
        raise ParameterError(f"gallery size {n} must exceed k={k}")

    diff = g - q
    dq2 = (diff * diff).sum(axis=1)
    topk = _neighbor_order(dq2, np.arange(n))[:k]

    reciprocal = np.zeros(n, dtype=bool)
    for gid in topk:
        others = np.concatenate([np.arange(gid), np.arange(gid + 1, n)])
        dg = g[others] - g[gid]
        cand_d2 = np.concatenate([[dq2[gid]], (dg * dg).sum(axis=1)])
        cand_ids = np.concatenate([[-1], others])
        nearest = _neighbor_order(cand_d2, cand_ids)[:k]
        reciprocal[gid] = bool(np.any(cand_ids[nearest] == -1))

    ordered = [int(i) for i in topk if reciprocal[i]]
    ordered += [int(i) for i in topk if not reciprocal[i]]
    return ordered


def hardest_negative_region(
    query_desc: np.ndarray,
    negative: np.ndarray,
    params: vlad_mod.VladParams,
    region_ids: Sequence[int] = ALL_REGION_IDS,
) -> tuple[int, np.ndarray]:
    """Region of the negative most similar to the query, by exhaustive scan.

    ``negative`` is the negative's (R, K*D) region matrix, row r describing
    ``region_ids[r]``, and is scored as given; a (D, H, W) feature map is
    first aggregated over ``region_ids`` with the current parameters, the
    full map (id 0) and all eight sub-regions by default. Ties go to the
    first listed, lowest region id. ``region_ids`` narrows the scan for the
    halves-only ablation.
    """
    regions = np.asarray(negative, dtype=np.float64)
    if regions.ndim == 3:
        regions = vlad_mod.aggregate_regions(params.as_arrays(), regions, region_ids)
    want = (len(region_ids), params.k * params.dim)
    if regions.shape != want:
        raise ShapeError(f"expected a (D, H, W) map or {want} rows, got {np.shape(negative)}")
    best = int(np.argmax(regions @ query_desc))
    return int(region_ids[best]), regions[best]
