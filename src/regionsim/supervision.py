"""Soft-label construction and the hard/soft/total training losses.

A frozen previous-generation model scores each query against its difficult
positives (optionally decomposed into regions); a sharp softmax over those
scores becomes the immutable training target for the next generation. The
student is always scored at temperature 1. Teacher and student score by
:func:`score_matrix` against the (R, K*D) region matrices that
``trainer.describe_chunks`` builds for both: the student a batch at a time,
the teacher one query at a time (:func:`region_sims`). The hard loss is the
pairwise softmax ranking loss in its numerically stable softplus form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .atomic import atomic_open
from .errors import IntegrityError, ParameterError, ShapeError
from .regions import ALL_REGION_IDS

DEFAULT_TAUS = (0.07, 0.06, 0.05)
WEIGHT_SUM_TOL = 1e-6


def validate_schedule(taus: Sequence[float], strict: bool = True) -> tuple[float, ...]:
    """Check a temperature schedule: positive, decreasing (strictly unless
    ``strict=False``, which admits the constant-temperature ablation)."""
    taus = tuple(float(t) for t in taus)
    if not taus:
        raise ParameterError("temperature schedule is empty")
    if any(t <= 0 for t in taus):
        raise ParameterError(f"temperatures must be positive: {taus}")
    pairs = list(zip(taus, taus[1:]))
    if strict and any(b >= a for a, b in pairs):
        raise ParameterError(f"temperatures must strictly decrease: {taus}")
    if not strict and any(b > a for a, b in pairs):
        raise ParameterError(f"temperatures must not increase: {taus}")
    return taus


@dataclass(frozen=True)
class SoftLabelRecord:
    """Immutable soft supervision for one query, produced by generation
    ``generation`` at temperature ``tau``."""

    query_id: int
    generation: int
    tau: float
    entries: tuple[tuple[int, int], ...]  # (gallery id, region id) in order
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.entries) != len(self.weights):
            raise IntegrityError("entry/weight lengths differ")
        if abs(sum(self.weights) - 1.0) > WEIGHT_SUM_TOL:
            raise IntegrityError(f"weights sum to {sum(self.weights)!r}, not 1")

    @property
    def positive_ids(self) -> tuple[int, ...]:
        """The gallery ids of the entries, each once, in entry order."""
        return tuple(dict.fromkeys(gid for gid, _ in self.entries))


def expected_entries(
    positive_ids: Sequence[int], region_ids: Sequence[int]
) -> tuple[tuple[int, int], ...]:
    """Normative entry order: each positive in rank order, full image first,
    then its sub-regions."""
    return tuple((int(p), int(r)) for p in positive_ids for r in region_ids)


def score_matrix(queries, rows, index):
    """(T, C) scores ``S[t, c] = <queries[t], rows[index[t, c]]>`` of (T, K*D)
    queries against an (M, K*D) row stack: one row gather, then one
    matrix-vector product per row of S. Graph nodes in give a graph node
    out; arrays give an array."""
    t, c = np.shape(index)
    return (ag.take(rows, index) @ ag.reshape(queries, (t, -1, 1))).reshape((t, c))


def region_sims(query_desc, positive_regions):
    """The query's scores against every region of every positive, in entry
    order, (P*R,): :func:`score_matrix` with the query once per positive, so
    each positive's R scores are one product against its region matrix."""
    rows, p = ag.concat(positive_regions), len(positive_regions)
    queries = ag.take(ag.reshape(query_desc, (1, -1)), [0] * p)
    return score_matrix(queries, rows, np.arange(rows.shape[0]).reshape(p, -1)).reshape((-1,))


def region_soft_labels(
    query_desc: np.ndarray,
    positive_ids: Sequence[int],
    positive_regions: Sequence[np.ndarray],
    tau: float,
    generation: int,
    query_id: int = -1,
    region_ids: Sequence[int] = ALL_REGION_IDS,
) -> SoftLabelRecord:
    """Soft targets: one softmax over every (positive, region) sim.

    The query is never decomposed; it enters only as a descriptor. Each
    positive enters as its (R, K*D) region matrix, row r describing region
    ``region_ids[r]``; ``region_ids=(0,)`` gives image-level targets over
    the full positives.
    """
    if len(positive_ids) == 0:
        raise ParameterError("need at least one positive")
    if len(positive_ids) != len(positive_regions):
        raise ShapeError("one region matrix per positive id is required")
    weights = ag.softmax_temp(region_sims(query_desc, positive_regions), tau)
    return SoftLabelRecord(
        query_id=query_id,
        generation=generation,
        tau=tau,
        entries=expected_entries(positive_ids, region_ids),
        weights=tuple(float(w) for w in weights),
    )


def validate_record(record: SoftLabelRecord, region_ids: Sequence[int]):
    """Entry order must match the normative per-positive layout exactly."""
    if record.entries != expected_entries(record.positive_ids, region_ids):
        raise IntegrityError(f"label entries for query {record.query_id} are out of order")


def batch_hard_loss(pos_scores, neg_scores, weights: np.ndarray) -> ag.Tensor:
    """Sum of ``weights[t, p] * softplus(neg_scores[t, n] - pos_scores[t, p])``
    over (T, P) positive and (T, N) negative scores: the pairwise softmax
    loss -log[exp(s_p) / (exp(s_p) + exp(s_n))], which never overflows. The
    constant weights pick each tuple's positives; a padded one weighs 0."""
    t, p = np.shape(weights)
    margins = neg_scores.reshape((t, 1, -1)) - pos_scores.reshape((t, p, 1))
    return (ag.softplus(margins) * np.reshape(weights, (t, p, 1))).sum()


def hard_loss(
    query_desc: ag.Tensor,
    positive_desc: ag.Tensor,
    negative_descs: Sequence[ag.Tensor],
) -> ag.Tensor:
    """Sum over negatives of softplus(<q,n> - <q,p*>): one-tuple
    :func:`batch_hard_loss` over the positive and negatives as score rows."""
    if len(negative_descs) == 0:
        raise ParameterError("hard loss needs at least one negative")
    rows = ag.concat([ag.reshape(d, (1, -1)) for d in (positive_desc, *negative_descs)])
    s = score_matrix(ag.reshape(query_desc, (1, -1)), rows, np.arange(rows.shape[0])[None])
    return batch_hard_loss(s[:, :1], s[:, 1:], np.ones((1, 1)))


def batch_soft_loss(student_sims, records: Sequence[SoftLabelRecord]) -> ag.Tensor:
    """Sum over rows t of the cross-entropy between the student's
    temperature-1 distribution over the first ``len(records[t].weights)``
    columns of row t and those weights. Later columns are padding: -inf
    before the softmax, so they get probability and gradient exactly 0."""
    t, c = student_sims.shape
    widths = np.array([len(rec.weights) for rec in records])
    if widths.shape != (t,) or widths.max() > c:
        raise IntegrityError(f"{widths.tolist()} stored weights do not fit {t} rows of {c} sims")
    targets = np.zeros((t, c))
    for row, rec in zip(targets, records):
        row[: len(rec.weights)] = rec.weights
    pad = np.where(np.arange(c) >= widths[:, None], -np.inf, 0.0)
    return ag.soft_cross_entropy(ag.softmax(student_sims + pad, axis=1), targets)


def soft_loss(student_sims: ag.Tensor, record: SoftLabelRecord) -> ag.Tensor:
    """Cross-entropy between the student's temperature-1 distribution over
    the record's entries and the stored target weights: one-row
    :func:`batch_soft_loss`."""
    if student_sims.ndim != 1 or student_sims.shape[0] != len(record.weights):
        raise IntegrityError(
            f"student produced {student_sims.shape} sims for "
            f"{len(record.weights)} stored weights"
        )
    return batch_soft_loss(student_sims.reshape((1, -1)), [record])


def total_loss(hard: ag.Tensor, soft: ag.Tensor, lam: float) -> ag.Tensor:
    """Combined objective: hard + lam * soft."""
    if lam < 0:
        raise ParameterError(f"loss weight must be non-negative, got {lam}")
    return ag.add(hard, ag.scale(soft, lam))


# Serialization: one record per line, weights at 9 significant digits.

def format_record(record: SoftLabelRecord) -> str:
    parts = [str(record.query_id), str(record.generation), f"{record.tau:.9g}"]
    for (gid, rid), w in zip(record.entries, record.weights):
        parts.extend([str(gid), str(rid), f"{w:.9g}"])
    return " ".join(parts)


def parse_record(line: str) -> SoftLabelRecord:
    tok = line.split()
    if len(tok) < 6 or (len(tok) - 3) % 3 != 0:
        raise IntegrityError(f"malformed label line: {line[:60]!r}")
    try:
        query_id, generation = int(tok[0]), int(tok[1])
        tau = float(tok[2])
        entries, weights = [], []
        for i in range(3, len(tok), 3):
            entries.append((int(tok[i]), int(tok[i + 1])))
            weights.append(float(tok[i + 2]))
    except ValueError as exc:
        raise IntegrityError(f"malformed label line: {line[:60]!r}") from exc
    return SoftLabelRecord(
        query_id=query_id,
        generation=generation,
        tau=tau,
        entries=tuple(entries),
        weights=tuple(weights),
    )


def write_label_file(path, records: Sequence[SoftLabelRecord]):
    with atomic_open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(format_record(rec) + "\n")


def read_label_file(path) -> list[SoftLabelRecord]:
    with open(path, "r", encoding="ascii") as fh:
        return [parse_record(line) for line in fh if line.strip()]

