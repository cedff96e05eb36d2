"""Trainer tests: SGD arithmetic, digests, caching, sequencing, determinism."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from _oracles import per_image_batch_loss, per_positive_soft_labels
from regionsim import autograd as ag
from regionsim import checkpoint as ck
from regionsim import encoder as enc
from regionsim import trainer
from regionsim.config import RunConfig, config_digest
from regionsim.errors import (
    EvaluationError,
    IntegrityError,
    ParameterError,
    SequencingError,
    ShapeError,
)
from regionsim.model import init_model
from regionsim.regions import ALL_REGION_IDS, HALVES_ONLY_IDS
from regionsim.seeding import derive_rng
from regionsim.supervision import format_record
from regionsim.synthcity import Dataset, WorldSpec, generate_dataset
from regionsim.vlad import aggregate, aggregate_regions


@pytest.fixture(scope="module")
def small_ds():
    spec = WorldSpec(
        seed=3,
        length_m=120.0,
        n_train_queries=8,
        n_train_gallery=48,
        n_test_queries=8,
        n_test_gallery=48,
    )
    return generate_dataset(spec)


@pytest.fixture(scope="module")
def small_cfg():
    return RunConfig.create(
        generations=2, epochs=1, k_positives=5, seed=0, workers=1, eval_out_dim=32
    )


@pytest.fixture(scope="module")
def small_run(small_ds, small_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    result = trainer.run_pipeline(small_ds, small_cfg, out_dir=str(out))
    return result, out


class TestSgdStep:
    def make_param(self, value):
        return ag.parameter(np.asarray(value, dtype=np.float64))

    def test_hand_evaluated_update(self):
        p = self.make_param([1.0])
        p.grad[:] = 1.0
        v = [np.zeros(1)]
        trainer.sgd_step([p], v, lr=0.001, momentum=0.9, weight_decay=0.001)
        assert v[0][0] == 1.001
        assert p.data[0] == 0.998999

    def test_zero_grad_zero_velocity_no_change(self):
        p = self.make_param([0.5, -2.0])
        v = [np.zeros(2)]
        trainer.sgd_step([p], v, lr=0.1, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(p.data, [0.5, -2.0])
        np.testing.assert_array_equal(v[0], 0.0)

    def test_frozen_param_untouched(self):
        p = self.make_param([1.0, 1.0])
        p.grad[:] = 5.0
        p.requires_grad = False
        v = [np.full(2, 3.0)]
        trainer.sgd_step([p], v, lr=0.1, momentum=0.9, weight_decay=0.01)
        np.testing.assert_array_equal(p.data, [1.0, 1.0])
        np.testing.assert_array_equal(v[0], 3.0)  # momentum state also frozen

    def test_momentum_accumulates(self):
        p = self.make_param([0.0])
        v = [np.array([2.0])]
        p.grad[:] = 0.0
        trainer.sgd_step([p], v, lr=1.0, momentum=0.5, weight_decay=0.0)
        assert v[0][0] == 1.0
        assert p.data[0] == -1.0

    def test_shape_mismatch_rejected(self):
        p = self.make_param([1.0, 2.0])
        with pytest.raises(ShapeError):
            trainer.sgd_step([p], [np.zeros(3)], 0.1, 0.9, 0.0)
        with pytest.raises(ShapeError):
            trainer.sgd_step([p], [], 0.1, 0.9, 0.0)


class TestDigests:
    def sample_model(self, seed=0):
        rng = derive_rng(seed, "digest-images")
        return init_model(seed, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])

    def test_params_digest_reproducible(self):
        a = self.sample_model(1)
        b = self.sample_model(1)
        assert trainer.params_digest(a) == trainer.params_digest(b)

    def test_params_digest_sees_changes(self):
        m = self.sample_model(1)
        before = trainer.params_digest(m)
        m.encoder.biases[0].data[0] += 1e-9
        assert trainer.params_digest(m) != before

    def test_quantize_checkpoint_matches_f4_round_trip(self):
        m = self.sample_model(2)
        vels = [np.random.default_rng(0).normal(size=p.data.shape) for p in m.parameters()]
        ckpt = ck.from_model(m, vels, 1, 5, 2, "aa")
        q = trainer.quantize_checkpoint(ckpt)
        for (_, a), (_, b) in zip(ckpt.tensors, q.tensors):
            np.testing.assert_array_equal(b, a.astype("<f4").astype(np.float64))
        # idempotent: a second rounding changes nothing
        q2 = trainer.quantize_checkpoint(q)
        for (_, a), (_, b) in zip(q.tensors, q2.tensors):
            np.testing.assert_array_equal(a, b)


class TestEncodeImages:
    def test_worker_count_never_changes_results(self, small_ds):
        rng = derive_rng(0, "enc-images")
        model = init_model(0, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        images = small_ds.split("train-gallery")[:12]
        mats1, descs1 = trainer.encode_images(model, images, 1, ALL_REGION_IDS)
        mats4, descs4 = trainer.encode_images(model, images, 4, ALL_REGION_IDS)
        np.testing.assert_array_equal(descs1, descs4)
        for a, b in zip(mats1, mats4):
            np.testing.assert_array_equal(a, b)

    def test_rows_follow_input_order(self, small_ds):
        rng = derive_rng(1, "enc-images")
        model = init_model(1, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        images = small_ds.split("train-gallery")[:6]
        _, descs = trainer.encode_images(model, images, workers=3)
        for i, img in enumerate(images):
            fm = enc.encode(model.encoder.as_arrays(), img.pixels)
            np.testing.assert_array_equal(descs[i], aggregate(model.vlad.as_arrays(), fm))

    def per_image(self, model, images, region_ids):
        """Each image's region matrix and descriptor, from its own map."""
        arrays = model.as_arrays()
        for img in images:
            fm = enc.encode(arrays.encoder, img.pixels)
            yield aggregate_regions(arrays.vlad, fm, region_ids), aggregate(arrays.vlad, fm)

    def test_partial_last_chunk_matches_single_images(self, small_ds):
        # 37 images: two full chunks of 16 and a last one of 5.
        rng = derive_rng(2, "enc-images")
        model = init_model(2, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        images = small_ds.split("train-gallery")[:37]
        for region_ids in ((0,), HALVES_ONLY_IDS, ALL_REGION_IDS):
            mats1, descs1 = trainer.encode_images(model, images, 1, region_ids)
            mats3, descs3 = trainer.encode_images(model, images, 3, region_ids)
            assert np.array_equal(descs1, descs3)
            assert len(mats1) == len(mats3) == len(images) == descs1.shape[0]
            want = self.per_image(model, images, region_ids)
            for m1, m3, (m, desc), row in zip(mats1, mats3, want, descs1):
                assert m1.shape == (len(region_ids), model.descriptor_dim)
                assert np.array_equal(m1, m3) and np.array_equal(m1, m)
                assert np.array_equal(row, desc) and np.array_equal(m1[0], row)

    def test_matrices_are_views_of_their_chunk(self, small_ds):
        rng = derive_rng(3, "enc-images")
        model = init_model(3, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        mats, _ = trainer.encode_images(model, small_ds.split("train-gallery")[:20], 1, (0, 3))
        assert all(m.base is mats[0].base for m in mats[:16])
        assert all(m.base is mats[16].base for m in mats[16:])
        assert mats[0].base is not mats[16].base

    def test_region_ids_must_start_with_the_full_map(self, small_ds):
        rng = derive_rng(3, "enc-images")
        model = init_model(3, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        with pytest.raises(ParameterError, match="full map"):
            trainer.encode_images(model, small_ds.split("train-gallery")[:2], 1, (1, 0))

    def test_images_of_two_shapes_in_one_chunk_raise(self, small_ds):
        rng = derive_rng(3, "enc-images")
        model = init_model(3, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        images = [
            replace(img, pixels=img.pixels[:, :64]) if i == 3 else img
            for i, img in enumerate(small_ds.split("train-gallery")[:12])
        ]
        with pytest.raises(ShapeError, match="share one shape"):
            trainer.encode_images(model, images, workers=2)

    def test_no_images(self):
        rng = derive_rng(4, "enc-images")
        model = init_model(4, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        mats, descs = trainer.encode_images(model, [], workers=3)
        assert mats == [] and descs.shape == (0, model.descriptor_dim)


class TestDescribeChunks:
    def test_graph_and_array_paths_give_the_same_bits(self, small_ds):
        # 20 images: a chunk of 16 and one of 4, with regions of each map.
        rng = derive_rng(5, "enc-images")
        model = init_model(5, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        images = small_ds.split("train-gallery")[:20]
        region_ids = (0, 3, 8)
        graph = list(trainer.describe_chunks(model, images, region_ids))
        arrays = list(trainer.describe_chunks(model.as_arrays(), images, region_ids, workers=2))
        assert [run for run, _ in graph] == [range(0, 16), range(16, 20)]
        assert [run for run, _ in arrays] == [range(0, 16), range(16, 20)]
        for (run, rows), (_, rows_a) in zip(graph, arrays):
            assert isinstance(rows, ag.Tensor) and isinstance(rows_a, np.ndarray)
            assert rows.shape == (len(run), 3, model.descriptor_dim)
            assert np.array_equal(rows.data, rows_a)


class TestEncodeChunks:
    def test_runs_of_one_shape_up_to_the_chunk_size(self):
        # A world has one image shape, so the runs follow the image count.
        assert trainer.ENCODE_CHUNK == 16
        want = [range(0, 16), range(16, 32), range(32, 37)]
        assert trainer.encode_chunks([np.zeros((8, 8))] * 37) == want
        assert trainer.encode_chunks([np.zeros((8, 8))] * 16) == [range(0, 16)]
        assert trainer.encode_chunks([]) == []


class _FirstBatch(Exception):
    """Carries the arguments of a generation's first batch loss."""


def first_batch_args(monkeypatch, ds, cfg, omega, prev=None):
    """The arguments ``train_generation`` passes to its first ``_batch_loss``,
    with the model still at its initialization."""

    def grab(*args):
        raise _FirstBatch(args)

    with monkeypatch.context() as patched:
        patched.setattr(trainer, "_batch_loss", grab)
        with pytest.raises(_FirstBatch) as caught:
            trainer.train_generation(omega, prev, ds, cfg)
    return caught.value.args[0]


def loss_and_grads(model, build):
    model.zero_grads()
    loss = build()
    loss.backward()
    return loss.item(), [p.grad.copy() for p in model.parameters()]


BATCH_CONFIGS = [
    (1, {}),
    (2, {}),
    (2, {"use_regions": False}),
    (2, {"naive_topk": True}),
    (2, {"batch_tuples": 8}),
]


def graph_nodes(*roots) -> set[int]:
    """Ids of the nodes reachable from ``roots`` through ``_parents``."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return seen


class TestBatchLoss:
    """The stacked batch graph against one B = 1 graph per image."""

    def args(self, monkeypatch, small_ds, small_run, omega, kw):
        cfg = RunConfig.create(
            generations=2, epochs=1, k_positives=5, seed=0, workers=1, eval_out_dim=32, **kw
        )
        prev = small_run[0].generations[0].checkpoint if omega >= 2 else None
        return first_batch_args(monkeypatch, small_ds, cfg, omega, prev)

    @pytest.mark.parametrize(
        "omega,kw", BATCH_CONFIGS, ids=["gen1", "full", "no_regions", "naive", "padded"]
    )
    def test_matches_per_image_graphs(self, monkeypatch, small_ds, small_run, omega, kw):
        args = self.args(monkeypatch, small_ds, small_run, omega, kw)
        model, batch, cfg = args[0], args[1], args[4]
        assert len(batch) == cfg.batch_tuples
        if cfg.batch_tuples == 8:
            # Tuples of 1 and 3 positives are padded to the batch's 5.
            counts = {len(pos_rows) for _, pos_rows, _, _ in batch}
            assert min(counts) == 1 and 3 in counts and max(counts) == cfg.k_positives
        region_ids = trainer._label_region_ids(cfg) if omega >= 2 else (0,)
        got, got_grads = loss_and_grads(model, lambda: trainer._batch_loss(*args))
        want, want_grads = loss_and_grads(
            model, lambda: per_image_batch_loss(*args, region_ids)
        )
        assert abs(got - want) <= 1e-12
        for name, g, w in zip(ck.PARAM_NAMES, got_grads, want_grads):
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), name

    def test_loss_nodes_do_not_grow_with_the_batch(self, monkeypatch, small_ds, small_run):
        """The nodes the loss records beside those of its encode chunks."""
        own = []
        for batch_tuples in (2, 4):
            args = self.args(monkeypatch, small_ds, small_run, 2, {"batch_tuples": batch_tuples})
            chunk_rows, real = [], trainer.describe_chunks

            def recording(*a, **kw):
                for run, rows in real(*a, **kw):
                    chunk_rows.append(rows)
                    yield run, rows

            with monkeypatch.context() as patched:
                patched.setattr(trainer, "describe_chunks", recording)
                loss = trainer._batch_loss(*args)
            assert len(chunk_rows) >= 3
            own.append(len(graph_nodes(loss) - graph_nodes(*chunk_rows)))
        assert own[0] == own[1] <= 30, own

    def test_three_conv_nodes_per_encode_chunk(self, monkeypatch, small_ds, small_run):
        args = self.args(monkeypatch, small_ds, small_run, 2, {})
        model, batch = args[0], args[1]
        # A conv node is one with an encoder kernel among its parents.
        kernels = {id(w) for w in model.encoder.weights}
        seen, stack, convs = set(), [trainer._batch_loss(*args)], 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node._parents)
            convs += any(id(p) in kernels for p in node._parents)
        # The full config reads every positive (soft labels) and every negative.
        n_queries = len({qrow for qrow, _, _, _ in batch})
        n_gallery = len({row for _, pos_rows, negs, _ in batch for row in pos_rows + negs})
        chunks = -(-n_queries // trainer.ENCODE_CHUNK) + -(-n_gallery // trainer.ENCODE_CHUNK)
        assert chunks >= 3
        assert convs == 3 * chunks


class TestBackwardMemory:
    def test_backward_frees_the_graph_it_has_passed(self, monkeypatch):
        """On criterion 8's world, the memory a generation-2 batch's backward
        adds on top of its forward graph stays a small fraction of that
        graph: backward frees each forward buffer and interior gradient
        once no later VJP needs it. Keeping them all reads about 1x."""
        spec = WorldSpec(
            seed=5,
            length_m=120.0,
            n_train_queries=8,
            n_train_gallery=48,
            n_test_queries=8,
            n_test_gallery=48,
        )
        ds = generate_dataset(spec)
        cfg = RunConfig.create(
            generations=2, epochs=1, k_positives=5, seed=0, workers=1,
            eval_out_dim=16, center_init_images=8,
        )
        # An untrained teacher stands in for generation 1: the graph's size
        # does not depend on the teacher's weights.
        teacher = init_model(cfg.seed, [img.pixels for img in ds.split("train-gallery")[:8]])
        velocities = [np.zeros_like(p.data) for p in teacher.parameters()]
        prev = ck.from_model(teacher, velocities, 1, 0, cfg.seed, config_digest(cfg, ds.world_key))
        args = first_batch_args(monkeypatch, ds, cfg, 2, prev)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss = trainer._batch_loss(*args)
            forward = tracemalloc.get_traced_memory()[0] - start
            interior = loss._parents[0]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loss.backward()
            added = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert forward > 1 << 20
        assert added < 0.25 * forward, f"backward added {added / forward:.2f}x the forward graph"
        assert interior.grad is None and not interior._parents
        assert all(np.all(np.isfinite(p.grad)) for p in args[0].parameters())


class TestGenerationTargets:
    def frozen(self, small_ds, seed=0):
        gallery = small_ds.split("train-gallery")
        return init_model(seed, [img.pixels for img in gallery[:8]])

    def expected_positives(self, model, small_ds, k):
        """Per query: gallery rows reported within 10 m, most similar first
        under the frozen model (ties to the lowest row), cut to k."""
        train_q = small_ds.split("train-query")
        train_g = small_ds.split("train-gallery")
        _, q_descs = trainer.encode_images(model, train_q)
        _, g_descs = trainer.encode_images(model, train_g)
        g_pos = np.array([img.reported_x for img in train_g])
        out = []
        for qrow, q in enumerate(train_q):
            cands = [r for r in range(len(train_g)) if abs(g_pos[r] - q.reported_x) <= 10.0]
            sims = {r: float(g_descs[r] @ q_descs[qrow]) for r in cands}
            out.append(tuple(sorted(cands, key=lambda r: (-sims[r], r))[:k]))
        return out

    def check_targets(self, small_ds, cfg, entries_per_row):
        model = self.frozen(small_ds)
        t = trainer.compute_generation_targets(model, small_ds, cfg, omega=2)
        want = self.expected_positives(model, small_ds, cfg.k_positives)
        n_q = len(small_ds.split("train-query"))
        assert len(t.positives) == n_q
        assert t.positives == want
        # This world's candidate counts are 1, 1, 3, 5, 6, 9, 9, 11, so some
        # queries keep fewer than k rows and none is skipped.
        assert sorted(len(rows) for rows in t.positives) == [1, 1, 3, 5, 5, 5, 5, 5]
        assert len(t.records) == n_q
        gallery = small_ds.split("train-gallery")
        for q, rows, rec in zip(small_ds.split("train-query"), t.positives, t.records):
            assert all(abs(gallery[r].reported_x - q.reported_x) <= 10.0 for r in rows)
            assert rec.query_id == q.id
            heads = rec.entries[::entries_per_row]
            assert [gid for gid, _ in heads] == [gallery[r].id for r in rows]
            assert len(rec.entries) == entries_per_row * len(rows)
            assert rec.tau == cfg.schedule[0]
            assert rec.generation == 1
        return t

    def test_positives_and_records_aligned(self, small_ds, small_cfg):
        self.check_targets(small_ds, small_cfg, 9)

    @pytest.mark.parametrize(
        "kw", [{}, {"use_quarters": False}, {"use_regions": False}],
        ids=["full", "halves_only", "no_regions"],
    )
    def test_records_match_per_positive_oracle(self, small_ds, kw):
        """Each record equals the labels built from every positive's own
        single-image feature map, one aggregation per positive."""
        cfg = RunConfig.create(generations=2, epochs=1, k_positives=5, eval_out_dim=32, **kw)
        model = self.frozen(small_ds)
        t = trainer.compute_generation_targets(model, small_ds, cfg, omega=2)
        arrays = model.as_arrays()
        gallery = small_ds.split("train-gallery")
        for q, rows, rec in zip(small_ds.split("train-query"), t.positives, t.records):
            fms = [enc.encode(arrays.encoder, gallery[r].pixels) for r in rows]
            q_desc = aggregate(arrays.vlad, enc.encode(arrays.encoder, q.pixels))
            want = per_positive_soft_labels(
                q_desc, [gallery[r].id for r in rows], fms, model.vlad, cfg.schedule[0], 1,
                query_id=q.id, region_ids=trainer._label_region_ids(cfg),
            )
            assert rec == want

    def test_record_ids_are_global_image_ids(self, small_ds, small_cfg):
        model = self.frozen(small_ds)
        t = trainer.compute_generation_targets(model, small_ds, small_cfg, omega=2)
        gallery_ids = {img.id for img in small_ds.split("train-gallery")}
        query_ids = [img.id for img in small_ds.split("train-query")]
        for qid, rec in zip(query_ids, t.records):
            assert rec.query_id == qid
            assert {gid for gid, _ in rec.entries} <= gallery_ids

    def test_no_regions_mode_uses_image_entries(self, small_ds):
        cfg = RunConfig.create(
            generations=2, epochs=1, k_positives=5, use_regions=False, eval_out_dim=32
        )
        t = self.check_targets(small_ds, cfg, 1)
        for rec in t.records:
            assert all(rid == 0 for _, rid in rec.entries)

    def test_halves_only_mode(self, small_ds):
        cfg = RunConfig.create(
            generations=2, epochs=1, k_positives=5, use_quarters=False, eval_out_dim=32
        )
        t = self.check_targets(small_ds, cfg, 5)
        for rec in t.records:
            assert sorted({rid for _, rid in rec.entries}) == [0, 1, 2, 3, 4]

    def test_naive_topk_mines_plain_neighbors_without_labels(self, small_ds):
        cfg = RunConfig.create(
            generations=2, epochs=1, k_positives=5, naive_topk=True, eval_out_dim=32
        )
        model = self.frozen(small_ds)
        t = trainer.compute_generation_targets(model, small_ds, cfg, omega=2)
        assert t.records == []
        gallery = small_ds.split("train-gallery")
        _, g_descs = trainer.encode_images(model, gallery)
        _, q_descs = trainer.encode_images(model, small_ds.split("train-query"))
        # For unit descriptors, ascending Euclidean distance is descending similarity.
        d2 = ((q_descs[:, None, :] - g_descs[None, :, :]) ** 2).sum(axis=2)
        for qrow, rows in enumerate(t.positives):
            assert list(rows) == sorted(range(len(gallery)), key=lambda g: (d2[qrow, g], g))[:5]

    def test_generation_one_has_no_targets(self, small_ds, small_cfg):
        with pytest.raises(SequencingError):
            trainer.compute_generation_targets(self.frozen(small_ds), small_ds, small_cfg, omega=1)


class TestTrainGeneration:
    def test_later_generation_requires_previous_checkpoint(self, small_ds, small_cfg):
        with pytest.raises(SequencingError):
            trainer.train_generation(2, None, small_ds, small_cfg)

    def test_generation_mismatch_rejected(self, small_ds, small_cfg, small_run):
        result, _ = small_run
        gen2 = result.generations[1].checkpoint
        with pytest.raises(SequencingError):
            trainer.train_generation(2, gen2, small_ds, small_cfg)

    def test_query_without_candidate_is_skipped(self, small_ds, small_cfg, small_run):
        # Move the third query's reported position off the street, so no
        # gallery image lies within 10 m of it: it gets no positives and no
        # label record, and the queries after it keep their own records.
        skipped = small_ds.split("train-query")[2].id
        images = [
            replace(img, reported_x=-100.0) if img.id == skipped else img
            for img in small_ds.images
        ]
        ds = Dataset(spec=small_ds.spec, images=images)
        gen1 = small_run[0].generations[0].checkpoint
        teacher, _ = ck.to_model(trainer.quantize_checkpoint(gen1))
        t = trainer.compute_generation_targets(teacher, ds, small_cfg, omega=2)
        assert t.positives[2] == ()
        assert all(t.positives[i] for i in range(len(t.positives)) if i != 2)
        assert [rec.query_id for rec in t.records] == [
            img.id for img in ds.split("train-query") if img.id != skipped
        ]
        res = trainer.train_generation(2, gen1, ds, small_cfg)
        assert res.stats["tuples_per_epoch"] == [len(ds.split("train-query")) - 1]

    def test_non_finite_loss_stops_before_the_step(self, small_ds, small_cfg, monkeypatch):
        real = trainer.batch_hard_loss
        monkeypatch.setattr(
            trainer, "batch_hard_loss", lambda *args: ag.scale(real(*args), float("nan"))
        )
        stepped = []
        monkeypatch.setattr(trainer, "sgd_step", lambda *args: stepped.append(1))
        with pytest.raises(EvaluationError, match="generation 1, epoch 0, batch 0: loss nan"):
            trainer.train_generation(1, None, small_ds, small_cfg)
        assert not stepped

    def test_collapsed_descriptors_stop_training(self, small_ds, small_cfg, monkeypatch):
        # From the second epoch's cache on, every descriptor is the same.
        real, calls = trainer.encode_images, []

        def collapsing(model, images, *rest):
            mats, descs = real(model, images, *rest)
            calls.append(1)
            return mats, (descs if len(calls) <= 2 else np.full_like(descs, descs.shape[1] ** -0.5))

        monkeypatch.setattr(trainer, "encode_images", collapsing)
        cfg = replace(small_cfg, epochs=2)
        with pytest.raises(EvaluationError, match="generation 1, epoch 1: descriptors collapsed"):
            trainer.train_generation(1, None, small_ds, cfg)

    def test_near_identical_full_rank_descriptors_train(self, small_ds, small_cfg, monkeypatch):
        # Every cache is one shared direction plus a small distinct part: a
        # mean cosine near 1, but a covariance of full rank.
        real, cosines = trainer.encode_images, []

        def crowded(model, images, *rest):
            mats, descs = real(model, images, *rest)
            near = descs.shape[1] ** -0.5 + 0.05 * descs
            near /= np.linalg.norm(near, axis=1, keepdims=True)
            cosines.append((near @ near.T).mean())
            return mats, near

        monkeypatch.setattr(trainer, "encode_images", crowded)
        res = trainer.train_generation(1, None, small_ds, replace(small_cfg, epochs=2))
        assert res.checkpoint.epoch == 2
        assert len(cosines) == 4 and min(cosines) >= 0.98

    def test_near_uniform_start_trains(self):
        # Seed 93 starts with a mean query-gallery cosine of 0.98.
        ds = generate_dataset(WorldSpec(seed=93))
        res = trainer.train_generation(1, None, ds, RunConfig.create(seed=93, epochs=1))
        assert res.checkpoint.generation == 1

    @pytest.mark.parametrize(
        "rows,entries",
        [
            (lambda rows: rows[::-1], lambda entries: entries),
            # The positives in order, but every entry relabeled as a full map.
            (lambda rows: rows, lambda entries: tuple((gid, 0) for gid, _ in entries)),
        ],
        ids=["reversed_positives", "wrong_regions"],
    )
    def test_labels_must_list_the_tuple_positives(
        self, small_ds, small_cfg, small_run, monkeypatch, rows, entries
    ):
        real = trainer.compute_generation_targets

        def altered(*args):
            t = real(*args)
            records = [replace(rec, entries=entries(rec.entries)) for rec in t.records]
            return trainer.GenerationTargets([rows(r) for r in t.positives], records)

        monkeypatch.setattr(trainer, "compute_generation_targets", altered)
        with pytest.raises(IntegrityError, match="do not list its positives"):
            trainer.train_generation(2, small_run[0].generations[0].checkpoint, small_ds, small_cfg)

    def test_generation_index_positive(self, small_ds, small_cfg):
        with pytest.raises(SequencingError):
            trainer.train_generation(0, None, small_ds, small_cfg)


class TestPipeline:
    def test_row_and_artifact_counts(self, small_run, small_cfg):
        result, out = small_run
        assert len(result.metrics_rows) == small_cfg.generations
        assert [gen for gen, _ in result.metrics_rows] == [1, 2]
        assert (out / "gen1.ckpt").exists()
        assert (out / "gen2.ckpt").exists()
        assert (out / "metrics.csv").exists()
        assert not (out / "labels_gen1.txt").exists()
        assert (out / "labels_gen2.txt").exists()

    def test_generation_one_trains_without_labels(self, small_run):
        result, _ = small_run
        assert result.generations[0].records == []
        assert result.generations[0].label_digest == ""
        assert result.generations[1].records

    def test_same_initialization_every_generation(self, small_run):
        result, _ = small_run
        digests = {g.init_digest for g in result.generations}
        assert len(digests) == 1

    def test_metrics_csv_matches_rows(self, small_run):
        result, out = small_run
        text = (out / "metrics.csv").read_text()
        assert text == result.metrics_csv
        lines = text.strip().splitlines()
        assert lines[0] == "generation,recall1,recall5,recall10"
        assert len(lines) == 3

    def test_label_file_round_trips_records(self, small_run):
        result, out = small_run
        want = "".join(format_record(r) + "\n" for r in result.generations[1].records)
        assert (out / "labels_gen2.txt").read_text() == want

    def test_checkpoint_metadata(self, small_run, small_ds, small_cfg):
        from regionsim.config import config_digest

        result, out = small_run
        ckpt = ck.load_checkpoint(str(out / "gen2.ckpt"))
        assert ckpt.generation == 2
        assert ckpt.seed == small_cfg.seed
        assert ckpt.epoch == small_cfg.epochs
        assert ckpt.config_hash == config_digest(small_cfg, small_ds.world_key)

    def test_tuple_counts_recorded(self, small_run, small_cfg):
        result, _ = small_run
        for gen in result.generations:
            counts = gen.stats["tuples_per_epoch"]
            assert len(counts) == small_cfg.epochs
            assert all(c >= 0 for c in counts)

    def test_single_generation_baseline_run(self, small_ds, tmp_path):
        cfg = RunConfig.create(generations=1, epochs=1, seed=1, eval_out_dim=32)
        result = trainer.run_pipeline(small_ds, cfg, out_dir=str(tmp_path))
        assert len(result.metrics_rows) == 1
        assert result.generations[0].records == []
        assert not list(tmp_path.glob("labels_*"))


class TestDeterminism:
    def test_repeat_run_bitwise_identical(self, small_ds, small_cfg, small_run, tmp_path):
        result, out = small_run
        again = trainer.run_pipeline(small_ds, small_cfg, out_dir=str(tmp_path))
        assert again.metrics_csv == result.metrics_csv
        for name in ("gen1.ckpt", "gen2.ckpt", "labels_gen2.txt", "metrics.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_plain_constructor_runs_the_same_pipeline(self, small_ds, small_run, tmp_path):
        # RunConfig(...) resolves the temperature schedule as create does.
        result, out = small_run
        cfg = RunConfig(generations=2, epochs=1, k_positives=5, seed=0, workers=1, eval_out_dim=32)
        again = trainer.run_pipeline(small_ds, cfg, out_dir=str(tmp_path))
        assert again.metrics_csv == result.metrics_csv
        for name in ("gen1.ckpt", "gen2.ckpt", "labels_gen2.txt"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_worker_pool_size_is_invisible(self, small_ds, small_run, tmp_path):
        result, out = small_run
        cfg4 = RunConfig.create(
            generations=2, epochs=1, k_positives=5, seed=0, workers=4, eval_out_dim=32
        )
        pooled = trainer.run_pipeline(small_ds, cfg4, out_dir=str(tmp_path))
        assert pooled.metrics_csv == result.metrics_csv
        for name in ("gen1.ckpt", "gen2.ckpt", "labels_gen2.txt"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
