"""Finite-difference gradient suite over every differentiable operation.

Each check builds a small seeded instance of one op (or the combined
training objective), reduces any non-scalar output through a fixed random
linear readout, and compares the backward pass against central differences
with :func:`autograd.grad_check`. The whole suite stays well under a minute
because the instances are tiny, not because any op is skipped.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from . import encoder as enc
from . import supervision as sup
from . import vlad
from .regions import ALL_REGION_IDS
from .seeding import derive_rng

PASS_THRESHOLD = 1e-4
EPS = 1e-5
KINK_MARGIN = 10 * EPS


def _clear_of_kinks(params: enc.EncoderParams, images: np.ndarray) -> bool:
    """Whether every pre-activation of the ReLU layers lies at least
    ``KINK_MARGIN`` from zero, where central differences are valid."""
    arrays = params.as_arrays()
    return all(
        np.abs(enc.encode(enc.EncoderParams(arrays.weights[:n], arrays.biases[:n]), images)).min()
        > KINK_MARGIN
        for n in range(1, len(arrays.weights))
    )


def _read_out(rng: np.random.Generator, out, params) -> float:
    """Gradients of ``out()`` w.r.t. ``params``, read out by a fixed random
    linear map drawn from ``rng``."""
    r = rng.standard_normal(np.shape(ag._data(out())))
    return ag.grad_check(lambda: (out() * r).sum(), params, eps=EPS)


def _check_encoder(seed: int, image_shape: tuple) -> float:
    """Encoder gradients w.r.t. every kernel and bias, on an (H, W) image
    or a (B, H, W) stack: the first draw whose ReLU inputs all clear the
    kink, since a random draw puts one within 1e-6 of it at some seeds."""
    rng = derive_rng(seed, "gradsuite", "encoder")
    params = enc.init_encoder(seed)
    images = rng.uniform(0.0, 1.0, size=image_shape)
    while not _clear_of_kinks(params, images):
        images = rng.uniform(0.0, 1.0, size=image_shape)
    return _read_out(rng, lambda: enc.encode(params, images), params.tensors())


def check_encoder(seed: int = 0) -> float:
    """Conv stack gradients w.r.t. every kernel and bias."""
    return _check_encoder(seed, (8, 16))


def check_encoder_stack(seed: int = 0) -> float:
    """The same gradients through a (2, 8, 16) stack, where each layer's
    product and its backward span both images."""
    return _check_encoder(seed, (2, 8, 16))


def _check_vlad(rng: np.random.Generator, fm_hw, describe) -> float:
    """Gradients of ``describe(params, fm)`` w.r.t. the centers and the
    input feature map."""
    centers = ag.parameter(rng.standard_normal((4, 6)))
    params = vlad.VladParams(centers=centers)
    fm = ag.parameter(rng.standard_normal((6, *fm_hw)) * 0.5)
    return _read_out(rng, lambda: describe(params, fm), [centers, fm])


def check_vlad_aggregate(seed: int = 0) -> float:
    """Whole-map aggregation."""
    return _check_vlad(derive_rng(seed, "gradsuite", "vlad"), (2, 3), vlad.aggregate)


def check_vlad_regions(seed: int = 0) -> float:
    """All nine region rows of an odd-sized map, whose halves share the
    middle row and column."""
    rng = derive_rng(seed, "gradsuite", "vlad-regions")
    return _check_vlad(rng, (3, 5), lambda p, fm: vlad.aggregate_regions(p, fm, ALL_REGION_IDS))


def check_vlad_regions_stack(seed: int = 0) -> float:
    """All nine region rows of every map of a (D, 3, 3, 5) stack, through
    the batched products."""
    rng = derive_rng(seed, "gradsuite", "vlad-regions-stack")
    return _check_vlad(
        rng, (3, 3, 5), lambda p, fm: vlad.aggregate_regions(p, fm, ALL_REGION_IDS)
    )


def check_batched_matmul(seed: int = 0) -> float:
    """A stack times one matrix, and a stack times a stack of matrices
    through the last-two-axes swap."""
    rng = derive_rng(seed, "gradsuite", "batched-matmul")
    a = ag.parameter(rng.standard_normal((3, 4, 5)))
    m = ag.parameter(rng.standard_normal((5, 2)))
    s = ag.parameter(rng.standard_normal((3, 2, 5)))
    r1, r2 = rng.standard_normal((2, 3, 4, 2))

    def fn():
        return ((a @ m) * r1).sum() + ((a @ ag.transpose(s)) * r2).sum()

    return ag.grad_check(fn, [a, m, s], eps=EPS)


def check_take(seed: int = 0) -> float:
    """Row gather with a row taken twice in one index row and once more in
    another, so its gradient sums three scatter-adds."""
    rng = derive_rng(seed, "gradsuite", "take")
    rows = ag.parameter(rng.standard_normal((5, 4)))
    return _read_out(rng, lambda: ag.take(rows, [[0, 3, 3], [1, 3, 4]]), [rows])


def check_concat(seed: int = 0) -> float:
    """Axis-0 join of parts with different row counts."""
    rng = derive_rng(seed, "gradsuite", "concat")
    parts = [ag.parameter(rng.standard_normal((n, 3))) for n in (2, 1, 3)]
    return _read_out(rng, lambda: ag.concat(parts), parts)


def check_batch_soft_loss(seed: int = 0) -> float:
    """Row-wise soft loss over rows of 6, 4 and 2 real columns. A padded
    column must get a gradient of exactly 0, or the check fails outright."""
    rng = derive_rng(seed, "gradsuite", "batch-soft")
    sims = ag.parameter(rng.standard_normal((3, 6)))
    widths = (6, 4, 2)
    records = [
        sup.SoftLabelRecord(0, 1, 0.07, sup.expected_entries(range(w), (0,)), tuple(weights))
        for w, weights in ((w, rng.dirichlet(np.ones(w))) for w in widths)
    ]
    err = ag.grad_check(lambda: sup.batch_soft_loss(sims, records), [sims], eps=EPS)
    padded = np.arange(6) >= np.array(widths)[:, None]
    return err if np.all(sims.grad[padded] == 0.0) else np.inf


def check_softmax_temp(seed: int = 0) -> float:
    rng = derive_rng(seed, "gradsuite", "softmax")
    logits = ag.parameter(rng.standard_normal(9))
    return _read_out(rng, lambda: ag.softmax_temp(logits, 0.07), [logits])


def check_soft_cross_entropy(seed: int = 0) -> float:
    """CE against a fixed target, through the student softmax."""
    rng = derive_rng(seed, "gradsuite", "soft-ce")
    logits = ag.parameter(rng.standard_normal(12))
    target = rng.uniform(0.1, 1.0, size=12)
    target /= target.sum()

    def fn():
        return ag.soft_cross_entropy(ag.softmax_temp(logits, 1.0), target)

    return ag.grad_check(fn, [logits], eps=EPS)


def check_hard_loss(seed: int = 0) -> float:
    """Pairwise ranking loss w.r.t. query, positive, and negative descriptors."""
    rng = derive_rng(seed, "gradsuite", "hard")
    q = ag.parameter(rng.standard_normal(10))
    p = ag.parameter(rng.standard_normal(10))
    negs = [ag.parameter(rng.standard_normal(10)) for _ in range(3)]

    def fn():
        return sup.hard_loss(q, p, negs)

    return ag.grad_check(fn, [q, p] + negs, eps=EPS)


def check_total_loss(seed: int = 0) -> float:
    """Combined hard + soft objective on one miniature training tuple."""
    rng = derive_rng(seed, "gradsuite", "total")
    dim = 10
    q = ag.parameter(rng.standard_normal(dim))
    pos = [ag.parameter(rng.standard_normal(dim)) for _ in range(2)]
    negs = [ag.parameter(rng.standard_normal(dim)) for _ in range(3)]
    weights = rng.uniform(0.1, 1.0, size=2 * 9)
    weights /= weights.sum()
    record = sup.SoftLabelRecord(
        query_id=0,
        generation=1,
        tau=0.07,
        entries=sup.expected_entries([0, 1], range(9)),
        weights=tuple(weights),
    )
    # Stand-in region matrices: nine fixed rotations of each positive leaf,
    # so every soft entry differs while gradients still reach the leaves.
    rots = np.concatenate([np.linalg.qr(rng.standard_normal((dim, dim)))[0] for _ in range(9)])

    def fn():
        sims = sup.region_sims(q, [(rots @ pos[g]).reshape((9, dim)) for g in record.positive_ids])
        return sup.total_loss(sup.hard_loss(q, pos[0], negs), sup.soft_loss(sims, record), 0.5)

    return ag.grad_check(fn, [q] + pos + negs, eps=EPS)


ALL_CHECKS = (
    ("encoder", check_encoder),
    ("encoder_stack", check_encoder_stack),
    ("vlad_aggregate", check_vlad_aggregate),
    ("vlad_regions", check_vlad_regions),
    ("vlad_regions_stack", check_vlad_regions_stack),
    ("batched_matmul", check_batched_matmul),
    ("take", check_take),
    ("concat", check_concat),
    ("softmax_temp", check_softmax_temp),
    ("soft_cross_entropy", check_soft_cross_entropy),
    ("batch_soft_loss", check_batch_soft_loss),
    ("hard_loss", check_hard_loss),
    ("total_loss", check_total_loss),
)


def run_suite(seed: int = 0) -> dict[str, float]:
    """Max relative gradient error per op, in declaration order."""
    return {name: fn(seed) for name, fn in ALL_CHECKS}
