"""End-to-end acceptance checks, one printed verdict line per criterion.

Criteria 4-6 share one session fixture that trains the full generation
chain plus both ablation chains on the default world for three seeds.
Generation 1 never reads a teacher or an ablation flag, so each seed trains
it once and every chain continues from the same checkpoint.
"""

import sys
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from _oracles import brute_hardest_region, brute_k_reciprocal, literal_region_blocks
from regionsim import autograd as ag
from regionsim import evaluate as ev
from regionsim import gradsuite, trainer
from regionsim.checkpoint import to_model
from regionsim.config import RunConfig
from regionsim.mining import hardest_negative_region, k_reciprocal
from regionsim.model import init_model
from regionsim.supervision import SoftLabelRecord, expected_entries, hard_loss, soft_loss
from regionsim.synthcity import WorldSpec, generate_dataset, region_overlap
from regionsim.vlad import VladParams, aggregate

CHAIN_SEEDS = (0, 1, 2)


def report(num: int, label: str, ok: bool, detail: str):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # visible even under pytest capture
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()


def _recall1(res, ds, cfg):
    model, _ = to_model(trainer.quantize_checkpoint(res.checkpoint))
    return trainer.evaluate_model(model, ds, cfg)[1]


def _continue_chain(ds, cfg, gen1, gen1_recall):
    """Generations 2..4 on top of a shared generation-1 checkpoint."""
    recalls, prev, gen2_records = [gen1_recall], gen1.checkpoint, None
    for omega in range(2, cfg.generations + 1):
        res = trainer.train_generation(omega, prev, ds, cfg)
        prev = res.checkpoint
        recalls.append(_recall1(res, ds, cfg))
        if omega == 2:
            gen2_records = res.records
    return recalls, gen2_records


@pytest.fixture(scope="session")
def chains():
    ds = generate_dataset(WorldSpec())
    out = {"ds": ds, "full": [], "no_regions": [], "naive": [], "records": []}
    for seed in CHAIN_SEEDS:
        full_cfg = RunConfig.create(seed=seed)
        start = time.perf_counter()
        gen1 = trainer.train_generation(1, None, ds, full_cfg)
        gen1_recall = _recall1(gen1, ds, full_cfg)
        recalls, records = _continue_chain(ds, full_cfg, gen1, gen1_recall)
        if seed == CHAIN_SEEDS[0]:
            out["full_run_seconds"] = time.perf_counter() - start
        out["full"].append(recalls)
        out["records"].append(records)
        for key, kw in (("no_regions", {"use_regions": False}), ("naive", {"naive_topk": True})):
            cfg = RunConfig.create(seed=seed, **kw)
            recalls, _ = _continue_chain(ds, cfg, gen1, gen1_recall)
            out[key].append(recalls)
    return out


class TestCriterion1:
    def test_gradient_suite(self):
        start = time.perf_counter()
        errors = gradsuite.run_suite(seed=0)
        elapsed = time.perf_counter() - start
        worst = max(errors.values())
        ok = worst <= 1e-4 and elapsed <= 60.0
        report(1, "gradient suite", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
        assert worst <= 1e-4
        assert elapsed <= 60.0


class TestCriterion2:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(7)
        mismatches = 0
        for trial in range(200):
            k = int(rng.choice([1, 5, 10]))
            n = int(rng.integers(k + 1, 65))
            dim = int(rng.integers(3, 12))
            gallery = rng.standard_normal((n, dim))
            query = rng.standard_normal(dim)
            if k_reciprocal(query, gallery, k) != brute_k_reciprocal(query, gallery, k):
                mismatches += 1
        for trial in range(100):
            params = VladParams(centers=ag.constant(rng.standard_normal((4, 6))))
            fm = rng.standard_normal((6, int(rng.integers(2, 7)), int(rng.integers(2, 7))))
            query = rng.standard_normal(24)
            query /= np.linalg.norm(query)
            blocks = literal_region_blocks(fm)
            descs = {rid: aggregate(params.as_arrays(), blocks[rid]) for rid in range(9)}
            rid, desc = hardest_negative_region(query, fm, params)
            brid, _ = brute_hardest_region(query, descs)
            if rid != brid or not np.allclose(desc, descs[brid], atol=1e-12):
                mismatches += 1
        report(2, "oracle equivalence", mismatches == 0, f"{mismatches}/300 mismatches")
        assert mismatches == 0


class TestCriterion3:
    def test_loss_identities(self):
        rng = np.random.default_rng(13)
        worst_pair = 0.0
        for _ in range(1000):
            sp, sn = rng.uniform(-5.0, 5.0, size=2)
            q = ag.constant(np.array([1.0, 0.0]))
            p = ag.constant(np.array([sp, rng.standard_normal()]))
            n = ag.constant(np.array([sn, rng.standard_normal()]))
            direct = -np.log(np.exp(sp) / (np.exp(sp) + np.exp(sn)))
            worst_pair = max(worst_pair, abs(hard_loss(q, p, [n]).item() - direct))

        # All sims equal: each of the N=10 terms is softplus(0) = ln 2.
        q = ag.constant(np.array([1.0, 0.0]))
        same = ag.constant(np.array([0.7, 0.0]))
        equal_sims = hard_loss(q, same, [same] * 10).item()
        drift = abs(equal_sims - 10.0 * np.log(2.0))

        worst_ent = 0.0
        for _ in range(50):
            logits = rng.standard_normal(12)
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            record = SoftLabelRecord(
                query_id=0,
                generation=1,
                tau=0.07,
                entries=expected_entries(range(12), [0]),
                weights=tuple(probs),
            )
            loss = soft_loss(ag.constant(logits), record).item()
            entropy = -float(np.sum(probs * np.log(probs)))
            worst_ent = max(worst_ent, abs(loss - entropy))

        ok = worst_pair <= 1e-9 and drift <= 1e-6 and worst_ent <= 1e-9
        report(
            3,
            "loss identities",
            ok,
            f"pairwise {worst_pair:.1e}, 10*ln2 drift {drift:.1e}, entropy {worst_ent:.1e}",
        )
        assert worst_pair <= 1e-9
        assert drift <= 1e-6  # 6.9315 in the card is 10*ln2 printed to 4 dp
        assert worst_ent <= 1e-9


class TestCriterion4:
    def test_generation_trend(self, chains):
        means = np.mean(chains["full"], axis=0)
        gain = means[-1] - means[0]
        monotone = bool(all(means[i + 1] >= means[i] - 0.01 for i in range(len(means) - 1)))
        seconds = chains["full_run_seconds"]
        ok = gain >= 0.02 and monotone and seconds <= 600.0
        seq = "/".join(f"{m:.3f}" for m in means)
        report(4, "generation trend", ok, f"recall@1 {seq}, gain {gain:+.3f}, {seconds:.0f}s")
        assert seconds <= 600.0
        assert gain >= 0.02
        assert monotone


class TestCriterion5:
    def test_ablation_direction(self, chains):
        baseline = float(np.mean([r[0] for r in chains["full"]]))
        full = float(np.mean([r[-1] for r in chains["full"]]))
        no_regions = float(np.mean([r[-1] for r in chains["no_regions"]]))
        naive = float(np.mean([r[-1] for r in chains["naive"]]))
        ok = naive < baseline and full >= no_regions >= naive
        detail = (
            f"baseline {baseline:.3f}, full {full:.3f}, "
            f"no-regions {no_regions:.3f}, naive-topk {naive:.3f}"
        )
        report(5, "ablation direction", ok, detail)
        assert naive < baseline
        assert full >= no_regions
        assert no_regions >= naive


class TestCriterion6:
    def test_label_fidelity(self, chains):
        ds = chains["ds"]
        queries = {img.id: img for img in ds.split("train-query")}
        gallery = {img.id: img for img in ds.split("train-gallery")}
        rhos = []
        for records in chains["records"]:
            weights, truths = [], []
            for rec in records:
                q = queries[rec.query_id]
                for (gid, rid), w in zip(rec.entries, rec.weights):
                    weights.append(w)
                    truths.append(region_overlap(q, gallery[gid], rid, ds.spec.window_m))
            rhos.append(spearmanr(weights, truths).statistic)
        mean_rho = float(np.mean(rhos))
        ok = mean_rho >= 0.3
        seeds = ", ".join(f"{rho:.3f}" for rho in rhos)
        report(6, "label fidelity", ok, f"spearman {mean_rho:.3f} (seeds {seeds})")
        assert mean_rho >= 0.3


class TestCriterion7:
    def test_whitening_properties(self):
        spec = WorldSpec()
        ds = generate_dataset(spec)
        model = init_model(0, [img.pixels for img in ds.split("train-gallery")[:16]])
        _, tq = trainer.encode_images(model, ds.split("train-query"), 1)
        _, tg = trainer.encode_images(model, ds.split("train-gallery"), 1)
        train = np.concatenate([tq, tg])
        whitening = ev.fit_whitening(train, 64)
        # Decorrelation is a property of the linear map; the per-descriptor
        # unit-norm applied at retrieval time is checked separately below.
        projected = (train - whitening.mean) @ whitening.projection.T
        cov = projected.T @ projected / (train.shape[0] - 1)
        off = float(np.abs(cov - np.diag(np.diag(cov))).max())

        test_q = ds.split("test-query")
        test_g = ds.split("test-gallery")
        _, qd = trainer.encode_images(model, test_q, 1)
        _, gd = trainer.encode_images(model, test_g, 1)
        qd = ev.apply_whitening_batch(whitening, qd)
        gd = ev.apply_whitening_batch(whitening, gd)
        q_pos = np.array([img.reported_x for img in test_q])
        g_pos = np.array([img.reported_x for img in test_g])
        base = ev.recall_at_k(qd, q_pos, gd, g_pos)
        rot = np.linalg.qr(np.random.default_rng(3).standard_normal((64, 64)))[0]
        rotated = ev.recall_at_k(qd @ rot, q_pos, gd @ rot, g_pos)

        ok = off <= 1e-6 and rotated == base
        report(7, "whitening", ok, f"max off-diag {off:.1e}, rotation invariant {rotated == base}")
        assert off <= 1e-6
        assert rotated == base


class TestCriterion8:
    def test_determinism(self, tmp_path):
        spec = WorldSpec(
            seed=5,
            length_m=120.0,
            n_train_queries=8,
            n_train_gallery=48,
            n_test_queries=8,
            n_test_gallery=48,
        )
        ds = generate_dataset(spec)
        artifacts = []
        for run, workers in (("a", 1), ("b", 1), ("c", 3)):
            cfg = RunConfig.create(
                generations=2,
                epochs=1,
                k_positives=5,
                seed=0,
                workers=workers,
                eval_out_dim=16,
                center_init_images=8,
            )
            out = tmp_path / run
            trainer.run_pipeline(ds, cfg, out_dir=str(out))
            artifacts.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        same_rerun = artifacts[0] == artifacts[1]
        same_workers = artifacts[0] == artifacts[2]
        ok = same_rerun and same_workers
        report(8, "determinism", ok, f"rerun identical {same_rerun}, workers 1 vs 3 identical {same_workers}")
        assert same_rerun
        assert same_workers
