"""Soft-label construction and the hard/soft/total training losses.

A frozen previous-generation model scores each query against its difficult
positives (optionally decomposed into regions); a sharp softmax over those
scores becomes the immutable training target for the next generation. The
student is always scored at temperature 1. Teacher and student alike score
a positive's regions by :func:`region_sims`: one matrix-vector product
against its (R, K*D) region matrix from ``vlad.aggregate_regions``. The
hard loss is the pairwise softmax ranking loss in its numerically stable
softplus form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .atomic import atomic_open
from .errors import IntegrityError, ParameterError, ShapeError
from .regions import ALL_REGION_IDS
from .vlad import VladParams, aggregate_regions

DEFAULT_TAUS = (0.07, 0.06, 0.05)
HALVES_ONLY_IDS = (0, 1, 2, 3, 4)
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


def region_sims(query_desc, positive_regions):
    """Similarity of the query to every region of every positive, in entry
    order: one ``m @ query_desc`` per (R, K*D) region matrix m, flattened to
    (P*R,). Graph nodes in give a graph node out; arrays give an array."""
    return ag.stack_rows([m @ query_desc for m in positive_regions]).reshape((-1,))


def region_soft_labels(
    query_desc: np.ndarray,
    positive_ids: Sequence[int],
    positive_fms: Sequence[np.ndarray],
    params: VladParams,
    tau: float,
    generation: int,
    query_id: int = -1,
    region_ids: Sequence[int] = ALL_REGION_IDS,
) -> SoftLabelRecord:
    """Soft targets: one softmax over every (positive, region) sim.

    The query is never decomposed; it enters only as a descriptor.
    ``region_ids=(0,)`` gives image-level targets over the full positives.
    The positives share one map shape and are aggregated as one
    (D, P, h, w) stack.
    """
    if len(positive_ids) == 0:
        raise ParameterError("need at least one positive")
    if len(positive_ids) != len(positive_fms):
        raise ShapeError("one feature map per positive id is required")
    shapes = {np.shape(fm) for fm in positive_fms}
    if len(shapes) > 1:
        raise ShapeError(f"positive feature maps differ in shape: {sorted(shapes)}")
    stack = np.stack(positive_fms, axis=1)
    sims = region_sims(query_desc, aggregate_regions(params.as_arrays(), stack, region_ids))
    weights = ag.softmax_temp(sims, tau).data
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


def hard_loss(
    query_desc: ag.Tensor,
    positive_desc: ag.Tensor,
    negative_descs: Sequence[ag.Tensor],
) -> ag.Tensor:
    """Sum over negatives of softplus(<q,n> - <q,p*>).

    Algebraically equal to the pairwise softmax form
    -log[exp<q,p*> / (exp<q,p*> + exp<q,n>)] summed over negatives, but never
    overflows for large scores. The negatives are stacked into one matrix,
    so the loss is one ``negs @ q - q.p``, one softplus and one sum.
    """
    if len(negative_descs) == 0:
        raise ParameterError("hard loss needs at least one negative")
    negs = ag.stack_rows(negative_descs)
    return ag.softplus(negs @ query_desc - ag.dot(query_desc, positive_desc)).sum()


def soft_loss(student_sims: ag.Tensor, record: SoftLabelRecord) -> ag.Tensor:
    """Cross-entropy between the student's temperature-1 distribution over
    the record's entries and the stored target weights."""
    if student_sims.ndim != 1 or student_sims.shape[0] != len(record.weights):
        raise IntegrityError(
            f"student produced {student_sims.shape} sims for "
            f"{len(record.weights)} stored weights"
        )
    student = ag.softmax_temp(student_sims, 1.0)
    return ag.soft_cross_entropy(student, np.array(record.weights))


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

