"""Trainer tests: SGD arithmetic, digests, caching, sequencing, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from _oracles import per_image_batch_loss
from regionsim import autograd as ag
from regionsim import checkpoint as ck
from regionsim import trainer
from regionsim.config import RunConfig
from regionsim.encoder import encode_array
from regionsim.errors import EvaluationError, SequencingError, ShapeError
from regionsim.model import init_model
from regionsim.seeding import derive_rng
from regionsim.supervision import format_record
from regionsim.synthcity import Dataset, WorldSpec, generate_dataset
from regionsim.vlad import aggregate_array


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
        fms1, descs1 = trainer.encode_images(model, images, workers=1)
        fms4, descs4 = trainer.encode_images(model, images, workers=4)
        np.testing.assert_array_equal(descs1, descs4)
        for a, b in zip(fms1, fms4):
            np.testing.assert_array_equal(a, b)

    def test_rows_follow_input_order(self, small_ds):
        rng = derive_rng(1, "enc-images")
        model = init_model(1, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        images = small_ds.split("train-gallery")[:6]
        _, descs = trainer.encode_images(model, images, workers=3)
        for i, img in enumerate(images):
            expect = aggregate_array(model.vlad, encode_array(model.encoder, img.pixels))
            np.testing.assert_array_equal(descs[i], expect)

    def per_image(self, model, images):
        return [
            (fm, aggregate_array(model.vlad, fm))
            for fm in (encode_array(model.encoder, img.pixels) for img in images)
        ]

    def test_partial_last_chunk_matches_single_images(self, small_ds):
        # 37 images: two full chunks of 16 and a last one of 5.
        rng = derive_rng(2, "enc-images")
        model = init_model(2, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        images = small_ds.split("train-gallery")[:37]
        fms1, descs1 = trainer.encode_images(model, images, workers=1)
        fms3, descs3 = trainer.encode_images(model, images, workers=3)
        assert np.array_equal(descs1, descs3)
        assert len(fms1) == len(fms3) == len(images) == descs1.shape[0]
        for fm1, fm3, (fm, desc), row in zip(fms1, fms3, self.per_image(model, images), descs1):
            assert np.array_equal(fm1, fm3)
            assert np.array_equal(fm1, fm)
            assert np.array_equal(row, desc)

    def test_shape_change_starts_a_new_chunk(self, small_ds):
        rng = derive_rng(3, "enc-images")
        model = init_model(3, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        gallery = small_ds.split("train-gallery")
        images = [
            replace(img, pixels=img.pixels[:, :64]) if i in (3, 4, 9) else img
            for i, img in enumerate(gallery[:12])
        ]
        fms, descs = trainer.encode_images(model, images, workers=2)
        for got, row, (fm, desc) in zip(fms, descs, self.per_image(model, images)):
            assert np.array_equal(got, fm)
            assert np.array_equal(row, desc)
        assert [fm.shape for fm in fms[2:5]] == [(16, 4, 12), (16, 4, 8), (16, 4, 8)]

    def test_no_images(self):
        rng = derive_rng(4, "enc-images")
        model = init_model(4, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        fms, descs = trainer.encode_images(model, [], workers=3)
        assert fms == [] and descs.shape == (0, model.descriptor_dim)


class TestDescribeChunks:
    def test_graph_and_array_paths_give_the_same_bits(self, small_ds):
        # 20 images: a chunk of 16 and one of 4, with regions of each map.
        rng = derive_rng(5, "enc-images")
        model = init_model(5, [rng.uniform(0, 1, (32, 96)) for _ in range(4)])
        images = small_ds.split("train-gallery")[:20]
        region_ids = (0, 3, 8)
        graph = trainer.describe_chunks(model, images, region_ids)
        arrays = trainer.describe_chunks(model.as_arrays(), images, region_ids, workers=2)
        assert [run for run, _, _ in graph] == [range(0, 16), range(16, 20)]
        assert [run for run, _, _ in arrays] == [range(0, 16), range(16, 20)]
        for (run, fms, rows), (_, fms_a, rows_a) in zip(graph, arrays):
            assert isinstance(fms, ag.Tensor) and isinstance(rows, ag.Tensor)
            assert isinstance(fms_a, np.ndarray) and isinstance(rows_a, np.ndarray)
            assert fms.shape == (16, len(run), 4, 12)
            assert rows.shape == (len(run), 3, model.descriptor_dim)
            assert np.array_equal(fms.data, fms_a) and np.array_equal(rows.data, rows_a)


class TestEncodeChunks:
    def test_runs_of_one_shape_up_to_the_chunk_size(self):
        small, wide = np.zeros((8, 8)), np.zeros((8, 16))
        pixels = [small] * 20 + [wide] * 3 + [small]
        assert trainer.ENCODE_CHUNK == 16
        want = [range(0, 16), range(16, 20), range(20, 23), range(23, 24)]
        assert trainer.encode_chunks(pixels) == want
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
]


class TestBatchLoss:
    """The stacked batch graph against one B = 1 graph per image."""

    def args(self, monkeypatch, small_ds, small_run, omega, kw):
        cfg = RunConfig.create(
            generations=2, epochs=1, k_positives=5, seed=0, workers=1, eval_out_dim=32, **kw
        )
        prev = small_run[0].generations[0].checkpoint if omega >= 2 else None
        return first_batch_args(monkeypatch, small_ds, cfg, omega, prev)

    @pytest.mark.parametrize("omega,kw", BATCH_CONFIGS, ids=["gen1", "full", "no_regions", "naive"])
    def test_matches_per_image_graphs(self, monkeypatch, small_ds, small_run, omega, kw):
        args = self.args(monkeypatch, small_ds, small_run, omega, kw)
        model, batch, cfg = args[0], args[1], args[6]
        assert len(batch) == cfg.batch_tuples
        region_ids = trainer._label_region_ids(cfg) if omega >= 2 else (0,)
        got, got_grads = loss_and_grads(model, lambda: trainer._batch_loss(*args))
        want, want_grads = loss_and_grads(
            model, lambda: per_image_batch_loss(*args, region_ids)
        )
        assert abs(got - want) <= 1e-12
        for name, g, w in zip(ck.PARAM_NAMES, got_grads, want_grads):
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max(), name

    def test_three_conv_nodes_per_encode_chunk(self, monkeypatch, small_ds, small_run):
        args = self.args(monkeypatch, small_ds, small_run, 2, {})
        batch = args[1]
        seen, stack, convs = set(), [trainer._batch_loss(*args)], 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node._parents)
            convs += getattr(node._backward, "__qualname__", "") == "conv2d.<locals>.backward"
        # The full config reads every positive (soft labels) and every negative.
        n_queries = len({qrow for qrow, _, _ in batch})
        n_gallery = len({row for _, pos_rows, negs in batch for row in pos_rows + negs})
        chunks = -(-n_queries // trainer.ENCODE_CHUNK) + -(-n_gallery // trainer.ENCODE_CHUNK)
        assert chunks >= 3
        assert convs == 3 * chunks


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
            assert rec.tau == cfg.taus[0]
            assert rec.generation == 1
        return t

    def test_positives_and_records_aligned(self, small_ds, small_cfg):
        self.check_targets(small_ds, small_cfg, 9)

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
        from regionsim.mining import plain_top_k

        for qrow, rows in enumerate(t.positives):
            assert list(rows) == plain_top_k(q_descs[qrow], g_descs, 5)

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
        real = trainer.hard_loss
        monkeypatch.setattr(
            trainer, "hard_loss", lambda *args: ag.scale(real(*args), float("nan"))
        )
        stepped = []
        monkeypatch.setattr(trainer, "sgd_step", lambda *args: stepped.append(1))
        with pytest.raises(EvaluationError, match="generation 1, epoch 0, batch 0: loss nan"):
            trainer.train_generation(1, None, small_ds, small_cfg)
        assert not stepped

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

    def test_worker_pool_size_is_invisible(self, small_ds, small_run, tmp_path):
        result, out = small_run
        cfg4 = RunConfig.create(
            generations=2, epochs=1, k_positives=5, seed=0, workers=4, eval_out_dim=32
        )
        pooled = trainer.run_pipeline(small_ds, cfg4, out_dir=str(tmp_path))
        assert pooled.metrics_csv == result.metrics_csv
        for name in ("gen1.ckpt", "gen2.ckpt", "labels_gen2.txt"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
