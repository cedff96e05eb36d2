"""Multi-generation training loop with SGD, label freezing, checkpoints.

Each generation re-initializes the network from the same seed, so the only
thing that improves across generations is the supervision: generation 1
trains on the geographic hard loss alone, and every later generation mines
its difficult positives and soft labels exactly once from the frozen
previous checkpoint, then trains against those immutable targets plus
on-the-fly negatives. All label and evaluation reads go through the float32
storage precision of checkpoints, so a resumed run and an in-memory run see
identical bytes.

Difficult positives come from the same pool as generation 1's positive:
the gallery images reported within 10 m of the query. The frozen teacher
ranks them and keeps at most k, so a query with fewer candidates gets
fewer, and a query with none is skipped in every generation. Only the
naive top-k ablation mines over the whole gallery. Every ranking reads one
``mining.similarities`` matrix per descriptor cache and orders it by
``mining.ranked``, the one tie rule.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autograd as ag
from . import encoder as enc
from . import evaluate as ev
from . import vlad as vlad_mod
from .atomic import atomic_open
from .checkpoint import (
    PARAM_NAMES,
    Checkpoint,
    from_model,
    quantize_checkpoint,
    save_checkpoint,
    to_model,
)
from .config import RunConfig, config_digest
from .errors import (
    EvaluationError, FitError, IntegrityError, ParameterError, SequencingError, ShapeError
)
from .mining import (
    difficult_positives,
    easiest_positive,
    hardest_negative_region,
    k_reciprocal,  # noqa: F401  unused here; perfbench traces it as trainer.k_reciprocal
    ranked,
    sample_negatives,
    similarities,
)
from .model import Model, init_model
from .regions import ALL_REGION_IDS, FULL_REGION, HALVES_ONLY_IDS
from .seeding import derive_rng
from .supervision import (
    SoftLabelRecord,
    batch_hard_loss,
    batch_soft_loss,
    expected_entries,
    format_record,
    region_soft_labels,
    score_matrix,
    total_loss,
    write_label_file,
)
from .synthcity import Dataset, GeoImage


# Images per gradient-free encoder stack. Fixed, so that the worker count
# never changes a stack, and another size would change the training bits
# (a chunk's conv weight gradient sums its images in one product). On
# 32x96 images at one BLAS thread (2-vCPU Xeon VM, 2 MiB L2 per core),
# encode_images takes 125/111/105/112/146 us per image at chunks of
# 4/8/16/32/64: from 32 up, layer 2's column buffer (3.5 MB) outgrows the
# L2.
ENCODE_CHUNK = 16

def params_digest(model: Model) -> str:
    """Hash of all parameter bytes in fixed order."""
    h = hashlib.sha256()
    for p in model.parameters():
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def labels_digest(records: Sequence[SoftLabelRecord]) -> str:
    """Hash of the serialized label records; guards their immutability."""
    payload = "\n".join(format_record(r) for r in records)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def encode_chunks(pixels: Sequence[np.ndarray]) -> list[range]:
    """Split a list of images into the runs that are encoded as one stack:
    consecutive runs of :data:`ENCODE_CHUNK` images, the last one shorter.

    A world holds one image shape (``synthcity.load_dataset`` checks it),
    so the runs depend on the image count alone. BLAS may round a column at
    the edge of its tiling differently, so a stack's composition can touch
    the last bit of an odd-size map, and runs that followed anything else
    (such as the worker count) could change a downstream number.
    """
    n = len(pixels)
    return [range(i, min(i + ENCODE_CHUNK, n)) for i in range(0, n, ENCODE_CHUNK)]


def describe_chunks(
    model: Model, images: Sequence[GeoImage], region_ids: Sequence[int], workers: int = 1
):
    """The one loop from images to region rows: yields, for each run of
    :func:`encode_chunks`, in order, (run, the (B, R, K*D)
    ``aggregate_regions`` rows of its encoded images). Tensor parameters
    give graph nodes, array parameters (``model.as_arrays()``) give
    arrays. Images of one run must share one shape (``encoder.encode``
    raises ``ShapeError`` otherwise).

    Chunks come one at a time, and a chunk's feature maps are freed once
    its rows no longer need them: at once on the gradient-free path,
    :func:`encode_images`, and in the training graph once backward has
    passed them. With ``workers`` > 1 the pool may run ahead of the
    caller."""
    pixels = [img.pixels for img in images]

    def one(chunk: range):
        fms = enc.encode(model.encoder, pixels[chunk.start : chunk.stop])
        return chunk, vlad_mod.aggregate_regions(model.vlad, fms, region_ids)

    chunks = encode_chunks(pixels)
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(one, chunks)
    else:
        yield from map(one, chunks)


def encode_images(
    model: Model,
    images: Sequence[GeoImage],
    workers: int = 1,
    region_ids: Sequence[int] = (FULL_REGION,),
) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradient-free (R, K*D) region matrices, one per image and each a view
    of its chunk's rows, and the (N, K*D) full descriptors, by
    :func:`describe_chunks`. ``region_ids`` must start with the full map,
    whose row gives the descriptor."""
    if region_ids[0] != FULL_REGION:
        raise ParameterError(f"region ids must start with the full map, got {region_ids}")
    matrices: list[np.ndarray] = []
    descriptors = [np.zeros((0, model.descriptor_dim))]
    for _, rows in describe_chunks(model.as_arrays(), images, region_ids, workers):
        matrices.extend(rows)
        descriptors.append(rows[:, 0])
    return matrices, np.concatenate(descriptors)


def sgd_step(
    params: Sequence[ag.Tensor],
    velocities: list[np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
):
    """Heavy-ball update: v <- m*v + (grad + wd*p); p <- p - lr*v.

    Frozen parameters are skipped entirely, momentum state included.
    """
    if len(params) != len(velocities):
        raise ShapeError("one velocity buffer per parameter is required")
    for i, p in enumerate(params):
        if not p.requires_grad:
            continue
        if velocities[i].shape != p.data.shape:
            raise ShapeError(
                f"velocity shape {velocities[i].shape} does not match {p.data.shape}"
            )
        g = p.grad + weight_decay * p.data
        velocities[i] = momentum * velocities[i] + g
        p.data = p.data - lr * velocities[i]


def _require_finite(
    loss: ag.Tensor, params: Sequence[ag.Tensor], omega: int, epoch: int, batch: int
):
    """Stop before a non-finite loss or gradient reaches the parameters."""
    bad = [name for name, p in zip(PARAM_NAMES, params) if not np.all(np.isfinite(p.grad))]
    if not np.isfinite(loss.item()) or bad:
        raise EvaluationError(
            f"generation {omega}, epoch {epoch}, batch {batch}: loss {loss.item()!r}, "
            f"non-finite gradients in {bad or 'none'}"
        )


def _label_region_ids(cfg: RunConfig) -> tuple[int, ...]:
    if not cfg.use_regions:
        return (0,)
    return ALL_REGION_IDS if cfg.use_quarters else HALVES_ONLY_IDS


@dataclass
class GenerationTargets:
    """Per-query difficult positives (gallery rows) and optional soft labels,
    all computed once from the frozen previous-generation network.

    ``positives`` has one entry per train query, in query-row order: the
    rows reported within 10 m, most teacher-similar first, at most k. It is
    shorter than k where fewer candidates exist and empty where none does;
    only the naive top-k ablation holds k rows from the whole gallery.
    ``records`` has one soft-label record per query with positives, in
    query order, when soft labels are on.
    """

    positives: list[tuple[int, ...]]
    records: list[SoftLabelRecord]


def compute_generation_targets(
    frozen_model: Model,
    dataset: Dataset,
    cfg: RunConfig,
    omega: int,
) -> GenerationTargets:
    """Mine positives and build labels for generation omega >= 2.

    The difficult positives of a query are its gallery rows reported within
    10 m, ranked by the frozen teacher's similarity (ties to the lowest row)
    and cut to ``cfg.k_positives``; the first of them is the hard-loss
    positive. A query with no candidate gets no positives and no record,
    and training skips it, as generation 1 does. Only the naive top-k
    ablation ignores GPS and takes the top-k over the whole gallery.
    Each gallery image is described once, with the label region set, and
    a query's soft labels read its positives' region matrices.
    """
    if omega < 2:
        raise SequencingError("generation 1 has no distilled targets")
    train_q = dataset.split("train-query")
    train_g = dataset.split("train-gallery")
    region_ids = _label_region_ids(cfg)
    g_regions, g_descs = encode_images(frozen_model, train_g, cfg.workers, region_ids)
    _, q_descs = encode_images(frozen_model, train_q, cfg.workers)
    g_pos = np.array([img.reported_x for img in train_g])
    sims = similarities(q_descs, g_descs)
    tau = cfg.schedule[omega - 2]

    positives: list[tuple[int, ...]] = []
    records: list[SoftLabelRecord] = []
    for qrow, qimg in enumerate(train_q):
        if cfg.naive_topk:
            rows = ranked(sims[qrow], np.arange(len(train_g)))[: cfg.k_positives].tolist()
        else:
            rows = difficult_positives(qimg.reported_x, sims[qrow], g_pos, cfg.k_positives)
        positives.append(tuple(rows))
        if not rows or not cfg.use_soft:
            continue
        records.append(
            region_soft_labels(
                q_descs[qrow],
                [train_g[r].id for r in rows],
                [g_regions[r] for r in rows],
                tau,
                omega - 1,
                query_id=qimg.id,
                region_ids=region_ids,
            )
        )
    return GenerationTargets(positives=positives, records=records)


def _batch_loss(
    model: Model,
    batch: list[tuple[int, tuple[int, ...], tuple[int, ...], Optional[SoftLabelRecord]]],
    train_q: list[GeoImage],
    train_g: list[GeoImage],
    cfg: RunConfig,
    omega: int,
) -> ag.Tensor:
    """Mean loss over the batch, from one score matrix.

    The batch's queries, in tuple order, and its distinct gallery images, in
    first-use order, are encoded chunk by chunk (:func:`describe_chunks`)
    into a (T, K*D) query stack and a stack of gallery region rows, full map
    first. One index matrix lists, per tuple, the rows of every region of
    each positive, padded to the batch's most positives, then of its
    negatives: the full map or, with negative regions, the region scoring
    highest against the query (``hardest_negative_region``, a no-grad scan).
    ``score_matrix`` scores them in one product; a row read by several
    tuples gathers all their gradients. The hard loss weighs the positives'
    full-map columns one-hot on the first or, in naive top-k, evenly; the
    soft loss reads the region block. Each soft-label record lists the
    regions of its tuple's positive rows in order, and a batch has one for
    all tuples or for none.
    """
    region_ids = _label_region_ids(cfg) if omega >= 2 else (FULL_REGION,)
    r, t = len(region_ids), len(batch)
    records = [rec for *_, rec in batch if rec is not None]

    def stack(images: list[GeoImage], rids: tuple[int, ...]) -> ag.Tensor:
        return ag.concat([rows for _, rows in describe_chunks(model, images, rids)])

    queries = stack([train_q[qrow] for qrow, *_ in batch], (FULL_REGION,)).reshape((t, -1))
    used = list(dict.fromkeys(row for _, pos_rows, negs, _ in batch for row in pos_rows + negs))
    rows = stack([train_g[row] for row in used], region_ids).reshape((len(used) * r, -1))
    first = {row: i * r for i, row in enumerate(used)}  # each image's full-map row

    def neg_row(ti: int, nrow: int) -> int:
        at = first[nrow]
        if omega >= 2 and cfg.use_neg_regions:
            region = rows.data[at : at + r]
            rid, _ = hardest_negative_region(queries.data[ti], region, model.vlad, region_ids)
            at += region_ids.index(rid)
        return at

    p = max(len(pos_rows) for _, pos_rows, _, _ in batch)
    index = np.zeros((t, p * r + len(batch[0][2])), dtype=np.intp)  # padding reads row 0
    weights = np.zeros((t, p))
    for ti, (_, pos_rows, negs, _) in enumerate(batch):
        index[ti, : len(pos_rows) * r] = [first[row] + j for row in pos_rows for j in range(r)]
        index[ti, p * r :] = [neg_row(ti, nrow) for nrow in negs]
        # Naive top-k averages its positives: the one-positive loss scale.
        n_pos = len(pos_rows) if cfg.naive_topk and omega >= 2 else 1
        weights[ti, :n_pos] = 1.0 / n_pos
    scores = score_matrix(queries, rows, index)
    loss = batch_hard_loss(scores[:, : p * r : r], scores[:, p * r :], weights)
    if records:
        loss = total_loss(loss, batch_soft_loss(scores[:, : p * r], records), cfg.lam)
    return ag.scale(loss, 1.0 / t)


@dataclass
class GenerationResult:
    checkpoint: Checkpoint
    records: list[SoftLabelRecord]
    init_digest: str
    label_digest: str
    stats: dict = field(default_factory=dict)


def train_generation(
    omega: int,
    prev_ckpt: Optional[Checkpoint],
    dataset: Dataset,
    cfg: RunConfig,
) -> GenerationResult:
    """Train one generation end to end and return its checkpoint.

    Generation 1 needs no previous checkpoint; later generations refuse to
    start without the immediately preceding one.
    """
    if omega < 1:
        raise SequencingError(f"generation index must be >= 1, got {omega}")
    if omega >= 2:
        if prev_ckpt is None:
            raise SequencingError(f"generation {omega} needs the generation {omega - 1} checkpoint")
        if prev_ckpt.generation != omega - 1:
            raise SequencingError(
                f"generation {omega} got a generation {prev_ckpt.generation} checkpoint"
            )
    cfg_hash = config_digest(cfg, dataset.world_key)

    train_q = dataset.split("train-query")
    train_g = dataset.split("train-gallery")
    sample = [img.pixels for img in train_g[: cfg.center_init_images]]
    model = init_model(cfg.seed, sample, freeze_early=cfg.freeze_early)
    velocities = [np.zeros_like(p.data) for p in model.parameters()]
    init_digest = params_digest(model)

    records: list[SoftLabelRecord] = []
    targets: Optional[GenerationTargets] = None
    label_digest = ""
    if omega >= 2:
        frozen_model, _ = to_model(quantize_checkpoint(prev_ckpt))
        targets = compute_generation_targets(frozen_model, dataset, cfg, omega)
        records = targets.records
        if records:
            label_digest = labels_digest(records)

    q_pos = np.array([img.reported_x for img in train_q])
    g_pos = np.array([img.reported_x for img in train_g])
    by_query = {rec.query_id: rec for rec in records}
    soft = {qrow: by_query[img.id] for qrow, img in enumerate(train_q) if img.id in by_query}
    for qrow, rec in soft.items():
        ids = [train_g[r].id for r in targets.positives[qrow]]
        if rec.entries != expected_entries(ids, _label_region_ids(cfg)):
            raise IntegrityError(f"labels of query {rec.query_id} do not list its positives")

    tuples_per_epoch = []
    for epoch in range(cfg.epochs):
        # Epoch-start cache with the current parameters: feeds positive
        # mining (generation 1), the negative pool and the whitening fit that
        # evaluation runs on this split, whose rank test stops a collapse.
        _, g_descs = encode_images(model, train_g, cfg.workers)
        _, q_descs = encode_images(model, train_q, cfg.workers)
        try:
            ev.fit_whitening(np.concatenate([q_descs, g_descs]), cfg.eval_out_dim)
        except FitError as exc:
            raise EvaluationError(
                f"generation {omega}, epoch {epoch}: descriptors collapsed, {exc}"
            ) from exc
        sims = similarities(q_descs, g_descs)
        tuples = []
        for qrow in range(len(train_q)):
            if omega == 1:
                p = easiest_positive(q_pos[qrow], sims[qrow], g_pos)
                if p is None:
                    continue
                pos_rows: tuple[int, ...] = (p,)
            else:
                pos_rows = targets.positives[qrow]
                if not pos_rows:
                    continue
            rng = derive_rng(cfg.seed, "negatives", omega, epoch, train_q[qrow].id)
            negs = sample_negatives(q_pos[qrow], sims[qrow], g_pos, rng, n=cfg.n_negatives)
            if len(negs) < cfg.n_negatives:
                continue  # negative pool exhausted for this query
            tuples.append((qrow, pos_rows, tuple(negs), soft.get(qrow)))
        tuples_per_epoch.append(len(tuples))

        order = derive_rng(cfg.seed, "shuffle", omega, epoch).permutation(len(tuples))
        for start in range(0, len(order), cfg.batch_tuples):
            batch = [tuples[i] for i in order[start : start + cfg.batch_tuples]]
            model.zero_grads()
            loss = _batch_loss(model, batch, train_q, train_g, cfg, omega)
            loss.backward()
            _require_finite(loss, model.parameters(), omega, epoch, start // cfg.batch_tuples)
            sgd_step(model.parameters(), velocities, cfg.lr, cfg.momentum, cfg.weight_decay)

    if records and labels_digest(records) != label_digest:
        raise IntegrityError(f"generation {omega} labels changed during training")
    ckpt = from_model(model, velocities, omega, cfg.epochs, cfg.seed, cfg_hash)
    return GenerationResult(
        checkpoint=ckpt,
        records=records,
        init_digest=init_digest,
        label_digest=label_digest,
        stats={"tuples_per_epoch": tuples_per_epoch},
    )


def evaluate_model(
    model: Model, dataset: Dataset, cfg: RunConfig, workers: int = 1
) -> dict[int, float]:
    """Whiten on the train split, then recall@{1,5,10} on the test split."""
    _, tq = encode_images(model, dataset.split("train-query"), workers)
    _, tg = encode_images(model, dataset.split("train-gallery"), workers)
    whitening = ev.fit_whitening(np.concatenate([tq, tg], axis=0), cfg.eval_out_dim)
    test_q = dataset.split("test-query")
    test_g = dataset.split("test-gallery")
    _, qd = encode_images(model, test_q, workers)
    _, gd = encode_images(model, test_g, workers)
    return ev.recall_at_k(
        ev.apply_whitening_batch(whitening, qd),
        np.array([img.reported_x for img in test_q]),
        ev.apply_whitening_batch(whitening, gd),
        np.array([img.reported_x for img in test_g]),
    )


@dataclass
class PipelineResult:
    generations: list[GenerationResult]
    metrics_rows: list[tuple[int, dict[int, float]]]
    metrics_csv: str


def run_pipeline(
    dataset: Dataset,
    cfg: RunConfig,
    out_dir: Optional[str] = None,
    log=None,
) -> PipelineResult:
    """Run generations 1..omega, evaluating and persisting each in turn.

    Artifacts per run: gen<w>.ckpt for every generation, labels_gen<w>.txt
    for every generation trained with soft labels, and metrics.csv with one
    row per generation.
    """
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    results: list[GenerationResult] = []
    rows: list[tuple[int, dict[int, float]]] = []
    prev: Optional[Checkpoint] = None
    for omega in range(1, cfg.generations + 1):
        res = train_generation(omega, prev, dataset, cfg)
        if results and res.init_digest != results[0].init_digest:
            raise IntegrityError("generation re-initialization drifted across generations")
        prev = res.checkpoint
        eval_model_, _ = to_model(quantize_checkpoint(res.checkpoint))
        recalls = evaluate_model(eval_model_, dataset, cfg, cfg.workers)
        rows.append((omega, recalls))
        results.append(res)
        if out_dir:
            save_checkpoint(res.checkpoint, os.path.join(out_dir, f"gen{omega}.ckpt"))
            if res.records:
                write_label_file(
                    os.path.join(out_dir, f"labels_gen{omega}.txt"), res.records
                )
        if log:
            log(
                f"generation {omega}: recall@1 {recalls[1]:.3f} "
                f"recall@5 {recalls[5]:.3f} recall@10 {recalls[10]:.3f}"
            )
    csv_text = ev.format_metrics_csv(rows)
    if out_dir:
        with atomic_open(os.path.join(out_dir, "metrics.csv"), "w", encoding="ascii") as fh:
            fh.write(csv_text)
    return PipelineResult(generations=results, metrics_rows=rows, metrics_csv=csv_text)
