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
naive top-k ablation mines over the whole gallery.
"""

from __future__ import annotations

import functools
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
from .checkpoint import PARAM_NAMES, Checkpoint, from_model, save_checkpoint, to_model
from .config import RunConfig, config_digest
from .errors import EvaluationError, IntegrityError, SequencingError, ShapeError
from .mining import (
    difficult_positives,
    easiest_positive,
    hardest_negative_region,
    k_reciprocal,  # noqa: F401  unused here; perfbench traces it as trainer.k_reciprocal
    plain_top_k,
    sample_negatives,
)
from .model import Model, init_model
from .regions import ALL_REGION_IDS, FULL_REGION
from .seeding import derive_rng
from .supervision import (
    HALVES_ONLY_IDS,
    SoftLabelRecord,
    format_record,
    hard_loss,
    region_sims,
    region_soft_labels,
    soft_loss,
    total_loss,
    write_label_file,
)
from .synthcity import Dataset, GeoImage


# Images per gradient-free encoder stack. Fixed, so that the worker count
# never changes a stack. On 32x96 images, chunks of 8-16 encode fastest;
# from 32 up a chunk's layer outputs no longer stay in cache.
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


def quantize_checkpoint(ckpt: Checkpoint) -> Checkpoint:
    """Round every tensor through storage precision (little-endian float32).

    Downstream consumers (label mining, evaluation) always read a previous
    generation at file precision, whether or not it ever hit disk.
    """
    tensors = [(n, a.astype("<f4").astype(np.float64)) for n, a in ckpt.tensors]
    return Checkpoint(ckpt.generation, ckpt.epoch, ckpt.seed, ckpt.config_hash, tensors)


def encode_chunks(pixels: Sequence[np.ndarray]) -> list[range]:
    """Split a list of images into the runs that are encoded as one stack.

    Each run holds at most :data:`ENCODE_CHUNK` consecutive images of one
    shape, and a change of shape starts a new run. The runs depend on the
    image list alone: BLAS may round a column at the edge of its tiling
    differently, so a stack's composition can touch the last bit of an
    odd-size map, and runs that followed anything else (such as the worker
    count) could change a downstream number.
    """
    chunks: list[range] = []
    for i, img in enumerate(pixels):
        last = chunks[-1] if chunks else None
        if last and len(last) < ENCODE_CHUNK and np.shape(pixels[last.start]) == np.shape(img):
            chunks[-1] = range(last.start, i + 1)
        else:
            chunks.append(range(i, i + 1))
    return chunks


def describe_chunks(
    model: Model, images: Sequence[GeoImage], region_ids: Sequence[int], workers: int = 1
):
    """The one loop from images to feature maps and region rows: for each
    run of :func:`encode_chunks`, in order, (run, its (D, B, h, w) maps, its
    (B, R, K*D) ``aggregate_regions`` rows). Tensor parameters give graph
    nodes, array parameters (``model.as_arrays()``) give arrays."""
    pixels = [img.pixels for img in images]

    def one(chunk: range):
        fms = enc.encode(model.encoder, np.stack(pixels[chunk.start : chunk.stop]))
        return chunk, fms, vlad_mod.aggregate_regions(model.vlad, fms, region_ids)

    chunks = encode_chunks(pixels)
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, chunks))
    return [one(chunk) for chunk in chunks]


def encode_images(
    model: Model, images: Sequence[GeoImage], workers: int = 1
) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradient-free feature maps (views of their chunk's stack) + full
    descriptors for a list of images, by :func:`describe_chunks`."""
    done = describe_chunks(model.as_arrays(), images, (FULL_REGION,), workers)
    if not done:
        return [], np.zeros((0, model.descriptor_dim))
    maps = [fm for _, fms, _ in done for fm in np.moveaxis(fms, 1, 0)]
    return maps, np.concatenate([rows[:, 0] for _, _, rows in done])


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
    workers: int = 1,
) -> GenerationTargets:
    """Mine positives and build labels for generation omega >= 2.

    The difficult positives of a query are its gallery rows reported within
    10 m, ranked by the frozen teacher's similarity (ties to the lowest row)
    and cut to ``cfg.k_positives``; the first of them is the hard-loss
    positive. A query with no candidate gets no positives and no record,
    and training skips it, as generation 1 does. Only the naive top-k
    ablation ignores GPS and takes the plain top-k over the whole gallery.
    """
    if omega < 2:
        raise SequencingError("generation 1 has no distilled targets")
    train_q = dataset.split("train-query")
    train_g = dataset.split("train-gallery")
    g_fms, g_descs = encode_images(frozen_model, train_g, workers)
    _, q_descs = encode_images(frozen_model, train_q, workers)
    g_pos = np.array([img.reported_x for img in train_g])
    tau = cfg.taus[omega - 2]
    region_ids = _label_region_ids(cfg)

    positives: list[tuple[int, ...]] = []
    records: list[SoftLabelRecord] = []
    for qrow, qimg in enumerate(train_q):
        if cfg.naive_topk:
            rows = plain_top_k(q_descs[qrow], g_descs, cfg.k_positives)
        else:
            rows = difficult_positives(
                qimg.reported_x, q_descs[qrow], g_pos, g_descs, cfg.k_positives
            )
        positives.append(tuple(rows))
        if not rows or not cfg.use_soft:
            continue
        records.append(
            region_soft_labels(
                q_descs[qrow],
                [train_g[r].id for r in rows],
                [g_fms[r] for r in rows],
                frozen_model.vlad,
                tau,
                omega - 1,
                query_id=qimg.id,
                region_ids=region_ids,
            )
        )
    return GenerationTargets(positives=positives, records=records)


def _batch_loss(
    model: Model,
    batch: list[tuple[int, tuple[int, ...], tuple[int, ...]]],
    train_q: list[GeoImage],
    train_g: list[GeoImage],
    records_by_qrow: dict[int, SoftLabelRecord],
    gid_to_row: dict[int, int],
    cfg: RunConfig,
    omega: int,
) -> ag.Tensor:
    """Mean loss over the batch, from one graph per encode chunk.

    The batch's distinct query images and its distinct gallery images, each
    in first-use order (a tuple's positives, then its negatives), are
    encoded and aggregated chunk by chunk (:func:`describe_chunks`). Every
    listed positive is encoded, although without soft labels or the naive
    top-k ablation a later generation's loss reads only the first. Queries
    get their full-map descriptor; gallery images get this generation's
    region matrix (the full map alone in generation 1), and negative
    regions, when on, come from the same set. Tuples read their rows out of
    these stacks, so an image used by several tuples is one row whose
    gradient accumulates from every consumer.
    """
    region_ids = _label_region_ids(cfg) if omega >= 2 else (FULL_REGION,)

    def describe(split: list[GeoImage], rows: list[int], rids: tuple[int, ...]):
        # Row r -> (its chunk's feature maps, its chunk's region rows, its index).
        done = describe_chunks(model, [split[r] for r in rows], rids)
        return {rows[i]: (fms, descs, j) for run, fms, descs in done for j, i in enumerate(run)}

    queries = describe(train_q, list(dict.fromkeys(q for q, _, _ in batch)), (FULL_REGION,))
    used = (row for _, pos_rows, negs in batch for row in pos_rows + negs)
    gallery = describe(train_g, list(dict.fromkeys(used)), region_ids)

    def regions(grow: int) -> ag.Tensor:
        _, rows, j = gallery[grow]
        return rows[j]

    def gallery_desc(grow: int, rid: int = FULL_REGION) -> ag.Tensor:
        _, rows, j = gallery[grow]
        return rows[j, region_ids.index(rid)]

    losses = []
    for qrow, pos_rows, negs in batch:
        _, rows, j = queries[qrow]
        q = rows[j, 0]
        if omega >= 2 and cfg.use_neg_regions:
            # Region choice is a no-grad argmax; the chosen region's row of
            # the graph's region matrix then carries the gradients.
            neg_descs = []
            for nrow in negs:
                fms, _, j = gallery[nrow]
                rid, _ = hardest_negative_region(
                    q.data, fms.data[:, j], model.vlad, region_ids=region_ids
                )
                neg_descs.append(gallery_desc(nrow, rid))
        else:
            neg_descs = [gallery_desc(nrow) for nrow in negs]

        if cfg.naive_topk and omega >= 2:
            # Averaged over the top-k so the ablation trains at the same
            # loss scale as the single-positive objective.
            terms = [hard_loss(q, gallery_desc(prow), neg_descs) for prow in pos_rows]
            tuple_loss = ag.scale(functools.reduce(ag.add, terms), 1.0 / len(pos_rows))
        else:
            tuple_loss = hard_loss(q, gallery_desc(pos_rows[0]), neg_descs)
            if omega >= 2 and cfg.use_soft:
                rec = records_by_qrow[qrow]
                sims = region_sims(q, [regions(gid_to_row[g]) for g in rec.positive_ids])
                tuple_loss = total_loss(tuple_loss, soft_loss(sims, rec), cfg.lam)
        losses.append(tuple_loss)

    return ag.scale(functools.reduce(ag.add, losses), 1.0 / len(losses))


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
    workers: Optional[int] = None,
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
    workers = cfg.workers if workers is None else workers
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
        targets = compute_generation_targets(frozen_model, dataset, cfg, omega, workers)
        records = targets.records
        if records:
            label_digest = labels_digest(records)

    q_pos = np.array([img.reported_x for img in train_q])
    g_pos = np.array([img.reported_x for img in train_g])
    gid_to_row = {img.id: r for r, img in enumerate(train_g)}
    qid_to_row = {img.id: r for r, img in enumerate(train_q)}
    records_by_qrow = {qid_to_row[rec.query_id]: rec for rec in records}

    tuples_per_epoch = []
    for epoch in range(cfg.epochs):
        # Epoch-start cache with the current parameters: feeds positive
        # mining (generation 1) and the negative pool for every generation.
        _, g_descs = encode_images(model, train_g, workers)
        _, q_descs = encode_images(model, train_q, workers)
        tuples = []
        for qrow in range(len(train_q)):
            if omega == 1:
                p = easiest_positive(q_pos[qrow], q_descs[qrow], g_pos, g_descs)
                if p is None:
                    continue
                pos_rows: tuple[int, ...] = (p,)
            else:
                pos_rows = targets.positives[qrow]
                if not pos_rows:
                    continue
            rng = derive_rng(cfg.seed, "negatives", omega, epoch, train_q[qrow].id)
            negs = sample_negatives(
                q_pos[qrow], q_descs[qrow], g_pos, g_descs, rng, n=cfg.n_negatives
            )
            if len(negs) < cfg.n_negatives:
                continue  # negative pool exhausted for this query
            tuples.append((qrow, pos_rows, tuple(negs)))
        tuples_per_epoch.append(len(tuples))

        order = derive_rng(cfg.seed, "shuffle", omega, epoch).permutation(len(tuples))
        for start in range(0, len(order), cfg.batch_tuples):
            batch = [tuples[i] for i in order[start : start + cfg.batch_tuples]]
            model.zero_grads()
            loss = _batch_loss(
                model, batch, train_q, train_g, records_by_qrow, gid_to_row, cfg, omega
            )
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
