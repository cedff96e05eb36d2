"""The benchmark's workloads: set-up, one measured repetition, output checks.

Every workload runs the public ``regionsim`` API with one worker. Set-up
(dataset, teacher, warm-up) is repeated for ``SETUP_SECONDS``, at least
``MIN_SETUPS`` times, so its median is a steady number even where one
set-up takes a tenth of a second; the last set-up's state feeds the
repetitions. Each repetition is timed end to end, and its outputs are
compared with those of the workload's first repetition, so a run that
drifts counts failed operations instead of stopping.

Workloads (see README.md for why each exists):

- ``gen1-geo``: ``train_generation(1)`` on the default world, then
  ``evaluate_model``. Whole-image graphs, geographic positives, no mining.
- ``distill-regions``: load a generation-1 checkpoint, ``train_generation(2)``
  with the full config, save the checkpoint and label file, evaluate.
- ``retrieval-4x``: a world with a 4x gallery; ``compute_generation_targets``
  from an untrained teacher, then ``evaluate_model``. No graph is built.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from regionsim import autograd as ag
from regionsim import checkpoint, supervision, synthcity, trainer
from regionsim import evaluate as ev
from regionsim.config import RunConfig, config_digest
from regionsim.errors import IntegrityError
from regionsim.model import Model, init_model
from regionsim.regions import ALL_REGION_IDS
from tracing import Tracer, clock

ROOT = Path(__file__).resolve().parents[1]
TMP_ROOT = ROOT / ".bench_tmp"

MIN_SETUPS = 3
MAX_SETUPS = 50
SETUP_SECONDS = 3.0  # the first set-up is ~50% slower; more samples steady the median
EPOCHS = 1  # one epoch per generation keeps a repetition near the run length
GALLERY_SCALE = 4
WARMUP_IMAGES = 16
# recall@1 on the default 64 test queries moves by a quarter between seeds;
# on 512 queries about half as much. Test queries never enter training, and
# each split draws from its own random stream, so the training inputs are
# those of the default world.
EVAL_QUERIES = 512

# Layers wrapped in a traced repetition: (owner, attribute, span name). Each
# function is patched where its caller looks it up; trainer imports the
# mining and supervision functions by name.
TRACED = (
    (ag.Tensor, "backward", "backward"),
    (trainer, "sgd_step", "sgd"),
    (trainer, "k_reciprocal", "mining.k_reciprocal"),
    (trainer, "hardest_negative_region", "mining.hardest_negative_region"),
    (trainer, "sample_negatives", "mining.sample_negatives"),
    (trainer, "easiest_positive", "mining.easiest_positive"),
    (trainer, "region_soft_labels", "supervision.region_soft_labels"),
    (ev, "fit_whitening", "evaluate.fit_whitening"),
    (ev, "recall_at_k", "evaluate.recall_at_k"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
)


def world_spec(workload: str, seed: int, small: bool = False) -> synthcity.WorldSpec:
    """The default world with ``EVAL_QUERIES`` test queries, or criterion 8's
    tiny world for the self-test; ``retrieval-4x`` scales both galleries by
    ``GALLERY_SCALE``."""
    if small:
        spec = synthcity.WorldSpec(
            seed=seed,
            length_m=120.0,
            n_train_queries=8,
            n_train_gallery=48,
            n_test_queries=8,
            n_test_gallery=48,
        )
    else:
        spec = synthcity.WorldSpec(seed=seed, n_test_queries=EVAL_QUERIES)
    if workload == "retrieval-4x":
        spec = replace(
            spec,
            n_train_gallery=GALLERY_SCALE * spec.n_train_gallery,
            n_test_gallery=GALLERY_SCALE * spec.n_test_gallery,
        )
    return spec


def run_config(seed: int, small: bool = False) -> RunConfig:
    if small:
        return RunConfig.create(
            seed=seed,
            epochs=1,
            workers=1,
            k_positives=5,
            eval_out_dim=16,
            center_init_images=8,
        )
    return RunConfig.create(seed=seed, epochs=EPOCHS, workers=1)


@dataclass
class State:
    """What one set-up leaves for the repetitions."""

    workload: str
    ds: synthcity.Dataset
    cfg: RunConfig
    workdir: str
    teacher: Optional[Model] = None  # retrieval-4x
    teacher_path: str = ""  # distill-regions
    outputs: dict = field(default_factory=dict)  # compared across set-ups


@dataclass
class Rep:
    """One repetition's timings, work counts and outputs."""

    pipeline_s: float = 0.0
    eval_s: float = 0.0
    generation_s: float = 0.0
    targets_s: float = 0.0
    tuples: int = 0
    tried: int = 0
    outputs: dict = field(default_factory=dict)  # compared with the first repetition
    problems: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # traced repetitions only


def _tensors_digest(tensors) -> str:
    h = hashlib.sha256()
    for name, arr in tensors:
        h.update(name.encode("ascii"))
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _sample(ds: synthcity.Dataset, n: int) -> list[np.ndarray]:
    return [img.pixels for img in ds.split("train-gallery")[:n]]


def set_up(workload: str, seed: int, workdir: str, small: bool = False) -> State:
    """Dataset, teacher (if the workload has one) and warm-up."""
    cfg = run_config(seed, small)
    ds = synthcity.generate_dataset(world_spec(workload, seed, small))
    st = State(workload, ds, cfg, workdir)
    warm = None
    if workload == "distill-regions":
        gen1 = trainer.train_generation(1, None, ds, cfg)
        st.teacher_path = os.path.join(workdir, "gen1.ckpt")
        checkpoint.save_checkpoint(gen1.checkpoint, st.teacher_path)
        st.outputs["gen1_params"] = _tensors_digest(gen1.checkpoint.tensors)
    elif workload == "retrieval-4x":
        # An untrained teacher at file precision: its mined rows differ
        # from a trained teacher's, but the work per query is the same.
        model = init_model(cfg.seed, _sample(ds, cfg.center_init_images))
        velocities = [np.zeros_like(p.data) for p in model.parameters()]
        ckpt = checkpoint.from_model(
            model, velocities, 1, 0, cfg.seed, config_digest(cfg, ds.world_key)
        )
        st.teacher, _ = checkpoint.to_model(trainer.quantize_checkpoint(ckpt))
        st.outputs["teacher_params"] = trainer.params_digest(st.teacher)
        warm = st.teacher
    if warm is None:
        warm = init_model(cfg.seed, _sample(ds, cfg.center_init_images))
    trainer.encode_images(warm, ds.split("train-gallery")[:WARMUP_IMAGES], 1)
    return st


def _finite(values, what: str, problems: list[str]):
    if not np.all(np.isfinite(values)):
        problems.append(f"non-finite {what}")


def _graph_nodes(loss: ag.Tensor) -> int:
    """Distinct nodes reachable from the loss through ``_parents``."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _install(tracer: Tracer, problems: list[str], traced: bool):
    """Wrappers every repetition needs (targets timing, finiteness checks),
    plus every layer span when ``traced``."""
    counts = tracer.counts

    def count_images(model, images, *args, **kwargs):
        counts["encode.images"] += len(images)

    def check_encoded(result):
        # A non-finite feature map also makes its descriptor non-finite.
        _finite(result[1], "descriptors", problems)

    tracer.wrap(trainer, "compute_generation_targets", "targets")
    tracer.wrap(
        trainer, "_batch_loss", "forward", after=lambda loss: _finite(loss.data, "loss", problems)
    )
    tracer.wrap(trainer, "encode_images", "encode", before=count_images, after=check_encoded)
    if not traced:
        return

    def count_graph(loss, *args, **kwargs):
        counts["graph.nodes"] += _graph_nodes(loss)
        counts["graph.batches"] += 1

    for owner, attr, name in TRACED:
        tracer.wrap(owner, attr, name, before=count_graph if name == "backward" else None)
    tracer.count(ag.Tensor, "_accumulate", "backward.accumulate_calls")


def _evaluate(model: Model, st: State, rep: Rep):
    start = clock()
    recalls = trainer.evaluate_model(model, st.ds, st.cfg, 1)
    rep.eval_s = clock() - start
    _finite(list(recalls.values()), "recall", rep.problems)
    rep.outputs["recall_at_1"] = recalls[1]


def _train(st: State, rep: Rep, tracer: Tracer, omega: int, prev) -> trainer.GenerationResult:
    start = clock()
    res = trainer.train_generation(omega, prev, st.ds, st.cfg)
    rep.generation_s = clock() - start
    rep.targets_s = tracer.total("targets")
    rep.tuples = sum(res.stats["tuples_per_epoch"])
    rep.tried = st.cfg.epochs * len(st.ds.split("train-query"))
    for _, arr in res.checkpoint.tensors:
        _finite(arr, "parameters", rep.problems)
    return res


def _check_records(records, n_queries: int, rep: Rep):
    if len(records) != n_queries:
        rep.problems.append(f"{len(records)} label records for {n_queries} queries")
    for rec in records:
        try:
            supervision.validate_record(rec, ALL_REGION_IDS)
        except IntegrityError as exc:
            rep.problems.append(str(exc))
        _finite(rec.weights, "label weights", rep.problems)


def _rep_gen1(st: State, rep: Rep, tracer: Tracer):
    res = _train(st, rep, tracer, 1, None)
    model, _ = checkpoint.to_model(trainer.quantize_checkpoint(res.checkpoint))
    _evaluate(model, st, rep)
    rep.outputs["gen1_params"] = trainer.params_digest(model)


def _rep_distill(st: State, rep: Rep, tracer: Tracer):
    prev = checkpoint.load_checkpoint(st.teacher_path)
    res = _train(st, rep, tracer, 2, prev)
    ckpt_path = os.path.join(st.workdir, "gen2.ckpt")
    labels_path = os.path.join(st.workdir, "labels_gen2.txt")
    checkpoint.save_checkpoint(res.checkpoint, ckpt_path)
    supervision.write_label_file(labels_path, res.records)
    model, _ = checkpoint.to_model(trainer.quantize_checkpoint(res.checkpoint))
    _evaluate(model, st, rep)
    rep.outputs["gen1_params"] = _tensors_digest(prev.tensors)
    rep.outputs["gen2_params"] = trainer.params_digest(model)
    rep.outputs["labels"] = res.label_digest

    def check_files():
        """The saved checkpoint and label file read back to what was trained."""
        saved = trainer.quantize_checkpoint(res.checkpoint).tensors
        loaded = checkpoint.load_checkpoint(ckpt_path).tensors
        if [n for n, _ in loaded] != [n for n, _ in saved] or not all(
            np.array_equal(a, b) for (_, a), (_, b) in zip(loaded, saved)
        ):
            rep.problems.append("gen-2 checkpoint does not read back to the trained one")
        records = supervision.read_label_file(labels_path)
        if trainer.labels_digest(records) != res.label_digest:
            rep.problems.append("label file does not read back to the trained labels")
        _check_records(records, len(st.ds.split("train-query")), rep)

    return check_files


def _rep_retrieval(st: State, rep: Rep, tracer: Tracer):
    targets = trainer.compute_generation_targets(st.teacher, st.ds, st.cfg, 2)
    rep.targets_s = tracer.total("targets")
    _evaluate(st.teacher, st, rep)
    _check_records(targets.records, len(st.ds.split("train-query")), rep)
    rep.outputs["positives"] = targets.positives
    rep.outputs["labels"] = trainer.labels_digest(targets.records)


# Each returns None or a check to run once the timed part is over and every
# wrapper is restored, so the check's own reads are neither timed nor traced.
REPS = {"gen1-geo": _rep_gen1, "distill-regions": _rep_distill, "retrieval-4x": _rep_retrieval}
WORKLOADS = tuple(REPS)


def benchmark() -> dict:
    """``BENCHMARK.json``: workloads, metrics, units, bounds, ``run_seconds``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics, in
    the order ``BENCHMARK.json`` declares them."""
    return {m["name"]: m["unit"] for m in benchmark()[kind]}


def repetition(st: State, traced: bool) -> Rep:
    """Run the workload once and check its outputs."""
    rep = Rep()
    with Tracer() as tracer:
        _install(tracer, rep.problems, traced)
        start = clock()
        check = REPS[st.workload](st, rep, tracer)
        rep.pipeline_s = clock() - start
    if check is not None:
        check()
    if traced:
        rep.layers = layer_metrics(tracer, rep)
    return rep


def _steps_ms(tracer: Tracer) -> list[float]:
    """Forward + backward + SGD time of every optimizer step, in ms."""
    steps, fwd, bwd = [], 0.0, 0.0
    for span in tracer.spans:
        if span.name == "forward":
            fwd, bwd = span.duration, 0.0
        elif span.name == "backward":
            bwd = span.duration
        elif span.name == "sgd":
            steps.append(1e3 * (fwd + bwd + span.duration))
    return steps


def layer_metrics(tracer: Tracer, rep: Rep) -> dict[str, float]:
    """Per-layer numbers of one traced repetition (0 where a layer idles)."""
    images = tracer.counts["encode.images"]
    batches = tracer.counts["graph.batches"]
    steps = _steps_ms(tracer)
    out = {
        "encode.calls": tracer.calls("encode"),
        "encode.images": images,
        "encode.self_s": tracer.self_time("encode"),
        "encode.us_per_image": 1e6 * tracer.total("encode") / images if images else 0.0,
        "forward.self_s": tracer.self_time("forward"),
        "graph.nodes_per_batch": tracer.counts["graph.nodes"] / batches if batches else 0.0,
        "backward.s": tracer.total("backward"),
        "backward.accumulate_calls": tracer.counts["backward.accumulate_calls"],
        "sgd.s": tracer.total("sgd"),
        "step_ms_p50": float(np.percentile(steps, 50)) if steps else 0.0,
        "step_ms_p75": float(np.percentile(steps, 75)) if steps else 0.0,
        "mining.tuples_kept_frac": rep.tuples / rep.tried if rep.tried else 0.0,
        "targets.self_s": tracer.self_time("targets"),
    }
    for name in ("mining.k_reciprocal", "mining.hardest_negative_region",
                 "supervision.region_soft_labels"):
        out[f"{name}.calls"] = tracer.calls(name)
    for name in ("mining.k_reciprocal", "mining.hardest_negative_region",
                 "mining.sample_negatives", "mining.easiest_positive",
                 "supervision.region_soft_labels", "evaluate.fit_whitening",
                 "evaluate.recall_at_k", "checkpoint.load", "checkpoint.save"):
        out[f"{name}.s"] = tracer.total(name)
    return out


def _median(values) -> float:
    return float(statistics.median(values))


def _throughput(rep: Rep) -> float:
    train_s = rep.generation_s - rep.targets_s
    return rep.tuples / train_s if rep.tuples else 0.0


def _log(msg: str):
    print(msg, file=sys.stderr)


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    small: bool = False,
    setup_seconds: float = SETUP_SECONDS,
) -> dict:
    """Set up at least ``MIN_SETUPS`` times, and again while another set-up
    should end within ``setup_seconds``; then repeat the workload for
    ``seconds``: at least once, and again while another repetition should
    end in time.
    With ``trace`` each untraced repetition is followed by a traced one and
    the per-layer metrics are reported instead of the end-to-end ones."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)
    attempted = failed = 0
    setup_s, datagen_s = [], []
    plain: list[Rep] = []
    traced: list[Rep] = []
    try:
        first_setup = None
        setup_deadline = clock() + setup_seconds
        while len(setup_s) < MIN_SETUPS or (
            len(setup_s) < MAX_SETUPS and clock() + setup_s[-1] <= setup_deadline
        ):
            with Tracer() as tracer:
                if trace:
                    tracer.wrap(synthcity, "generate_dataset", "synthcity.generate_dataset")
                start = clock()
                st = set_up(workload, seed, workdir, small)
                setup_s.append(clock() - start)
            datagen_s.append(tracer.total("synthcity.generate_dataset"))
            attempted += 1
            if first_setup is None:
                first_setup = st.outputs
            elif st.outputs != first_setup:
                failed += 1
                _log(f"{workload}: set-up outputs differ from the first set-up")

        first = None
        deadline = clock() + seconds
        while True:
            round_start = clock()
            for with_trace in (False, True) if trace else (False,):
                rep = repetition(st, with_trace)
                attempted += 1
                if first is None:
                    first = rep.outputs
                problems = rep.problems + [
                    f"{key} differs from the first repetition"
                    for key in first
                    if rep.outputs.get(key) != first[key]
                ]
                if problems:
                    failed += 1
                    _log(f"{workload}: " + "; ".join(sorted(set(problems))))
                (traced if with_trace else plain).append(rep)
            # Start another round only if it should end by the deadline.
            if 2 * clock() - round_start > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()  # succeeds only once no other run uses it

    if trace:
        values = {
            "generation_s": _median([r.generation_s for r in plain]),
            "targets_s": _median([r.targets_s for r in plain]),
            "eval_s": _median([r.eval_s for r in plain]),
            "train_tuples_per_s": _median([_throughput(r) for r in plain]),
            "synthcity.generate_dataset.s": _median(datagen_s),
        }
        for name in traced[0].layers:
            values[name] = _median([r.layers[name] for r in traced])
        values["trace.overhead_frac"] = (
            _median([r.pipeline_s for r in traced]) / _median([r.pipeline_s for r in plain]) - 1.0
        )
        units = declared_units("per_layer")
    else:
        values = {
            "setup_s": _median(setup_s),
            "pipeline_s": _median([r.pipeline_s for r in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "recall_at_1": first["recall_at_1"],
        }
        units = declared_units("end_to_end")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "samples": {"setups": len(setup_s), "repetitions": len(plain), "traced": len(traced)},
        "raw": {
            "setup_s": setup_s,
            "pipeline_s": [r.pipeline_s for r in plain],
            "eval_s": [r.eval_s for r in plain],
        },
    }
