"""Mining tests: worked neighbor examples, brute-force oracles, geography."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import (
    TrainingTuple,
    brute_hardest_region,
    brute_k_reciprocal,
    brute_ranked,
    literal_region_blocks,
    tuple_respects_geography,
)
from regionsim import autograd as ag
from regionsim import evaluate as ev
from regionsim import mining, trainer, vlad
from regionsim.config import RunConfig
from regionsim.errors import ParameterError, ShapeError
from regionsim.model import init_model
from regionsim.regions import ALL_REGION_IDS, HALVES_ONLY_IDS
from regionsim.seeding import derive_rng
from regionsim.synthcity import Dataset, GeoImage, WorldSpec, generate_dataset


def as_points(*xs):
    return np.asarray(xs, dtype=np.float64).reshape(-1, 1)


def score_row(query_desc, gallery_descs):
    """The query's row of the gallery score matrix."""
    return mining.similarities(np.asarray(query_desc)[None], gallery_descs)[0]


def small_int_rows(d, min_size, max_size):
    """Lists of d-vectors with entries in [-3, 3]: every dot product and
    squared distance is exact, so ties are exact too."""
    row = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    return st.lists(row, min_size=min_size, max_size=max_size)


@st.composite
def integer_scores_cases(draw):
    """Queries, a gallery whose rows repeat a few distinct rows (injected
    duplicates), and a gallery row subset in any order."""
    d = draw(st.integers(1, 4))
    distinct = draw(small_int_rows(d, 1, 6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=16))
    gallery = np.array([distinct[i] for i in picks], dtype=np.float64)
    queries = np.array(draw(small_int_rows(d, 1, 3)), dtype=np.float64)
    rows = draw(st.lists(st.integers(0, len(picks) - 1), unique=True))
    return queries, gallery, rows


class TestRanked:
    @given(integer_scores_cases())
    def test_matches_brute_force(self, case):
        queries, gallery, rows = case
        sims = mining.similarities(queries, gallery)
        for qrow, q in enumerate(queries.astype(int).tolist()):
            exact = [sum(a * b for a, b in zip(q, g)) for g in gallery.astype(int).tolist()]
            assert sims[qrow].tolist() == exact
            assert mining.ranked(sims[qrow], rows).tolist() == brute_ranked(sims[qrow], rows)


def tie_case():
    """Seven unit rows in 8 dimensions, rows 1 and 5 byte-identical, and a
    query nearest to them. A BLAS ``gallery @ query`` computes row 5 in its
    tail kernel and scores it one ulp above row 1 (OpenBLAS dgemv)."""
    rng = np.random.default_rng(6)
    gallery = rng.normal(size=(7, 8))
    gallery /= np.linalg.norm(gallery, axis=1, keepdims=True)
    gallery[5] = gallery[1]
    query = gallery[1] + 0.1 * rng.normal(size=8)
    return query / np.linalg.norm(query), gallery


class TestIdenticalRowsTie:
    """Byte-identical gallery rows score alike and rank lower row first in
    mining and evaluation alike."""

    def test_scores_tie_and_lead(self):
        query, gallery = tie_case()
        scores = score_row(query, gallery)
        assert scores[1] == scores[5]
        assert mining.ranked(scores, np.arange(7))[:2].tolist() == [1, 5]

    def test_difficult_positives(self):
        query, gallery = tie_case()
        out = mining.difficult_positives(0.0, score_row(query, gallery), np.zeros(7), k=3)
        assert out[:2] == [1, 5]

    def test_negative_pool_order(self):
        # A pool no larger than n comes back whole, in rank order.
        query, gallery = tie_case()
        far = np.full(7, 100.0)
        out = mining.sample_negatives(0.0, score_row(query, gallery), far, derive_rng(0, "t"), n=7)
        assert out[:2] == [1, 5]

    def test_naive_top_k_targets(self, monkeypatch):
        query, gallery = tie_case()

        def image(i, split):
            return GeoImage(i, np.zeros((8, 8)), 0.0, 0.0, 1, split, "")

        images = [image(0, "train-query")] + [image(i + 1, "train-gallery") for i in range(7)]
        descs = {"train-query": query[None], "train-gallery": gallery}
        monkeypatch.setattr(
            trainer, "encode_images", lambda model, imgs, *rest: ([], descs[imgs[0].split])
        )
        cfg = RunConfig.create(generations=2, naive_topk=True, k_positives=2)
        targets = trainer.compute_generation_targets(None, Dataset(WorldSpec(), images), cfg, 2)
        assert targets.positives == [(1, 5)]

    def test_recall(self):
        query, gallery = tie_case()
        gallery_pos = np.full(7, 100.0)
        gallery_pos[5] = 0.0  # the only row within 25 m
        recalls = ev.recall_at_k(query[None], np.zeros(1), gallery, gallery_pos, ks=(1, 2))
        assert recalls == {1: 0.0, 2: 1.0}


class TestKReciprocal:
    def test_two_mutual_neighbors(self):
        out = mining.k_reciprocal(np.zeros(1), as_points(1, 2, 10, 11), k=2)
        assert out == [0, 1]

    def test_padding_when_no_mutual_pair(self):
        # 1's nearest neighbor is 1.5, not the query, so padding fills in.
        out = mining.k_reciprocal(np.zeros(1), as_points(1, 1.5, 2.5), k=1)
        assert out == [0]

    def test_all_duplicates_resolve_by_id(self):
        k = 4
        gallery = np.tile(np.array([2.0, -1.0]), (k + 1, 1))
        out = mining.k_reciprocal(np.array([2.0, -1.0]), gallery, k=k)
        assert out == [0, 1, 2, 3]

    def test_rejects_small_gallery(self):
        with pytest.raises(ParameterError):
            mining.k_reciprocal(np.zeros(1), as_points(1, 2, 3), k=3)
        with pytest.raises(ParameterError):
            mining.k_reciprocal(np.zeros(1), as_points(1, 2, 3), k=0)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(12, 64))
            d = int(rng.integers(1, 6))
            k = int(rng.choice([1, 5, 10]))
            gallery = rng.normal(size=(n, d))
            if rng.random() < 0.3:
                gallery = np.round(gallery, 1)  # force distance ties
            query = rng.normal(size=d)
            got = mining.k_reciprocal(query, gallery, k)
            want = brute_k_reciprocal(query, gallery, k)
            assert got == want
            assert len(got) == k and len(set(got)) == k

    @given(st.data())
    def test_matches_brute_force_on_integer_points(self, data):
        d = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(k + 1, 14))
        gallery = np.array(data.draw(small_int_rows(d, n, n)), dtype=np.float64)
        query = np.array(data.draw(small_int_rows(d, 1, 1))[0], dtype=np.float64)
        assert mining.k_reciprocal(query, gallery, k) == brute_k_reciprocal(query, gallery, k)

    def test_output_is_subset_of_plain_topk(self):
        rng = np.random.default_rng(102)
        gallery = rng.normal(size=(30, 4))
        query = rng.normal(size=4)
        out = mining.k_reciprocal(query, gallery, k=6)
        d2 = ((gallery - query) ** 2).sum(axis=1)
        plain = set(np.argsort(d2, kind="stable")[:6])
        assert set(out) == plain


class TestEasiestPositive:
    def test_single_candidate(self):
        pos = np.array([5.0, 100.0])
        descs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert mining.easiest_positive(0.0, score_row([1.0, 0.0], descs), pos) == 0

    def test_argmax_among_candidates(self):
        pos = np.array([3.0, 7.0, 200.0])
        descs = np.array([[0.7, 0.0], [0.9, 0.0], [1.0, 0.0]])
        assert mining.easiest_positive(0.0, score_row([1.0, 0.0], descs), pos) == 1

    def test_no_candidate_signals_none(self):
        pos = np.array([11.0, 50.0])
        descs = np.eye(2)
        assert mining.easiest_positive(0.0, score_row([1.0, 0.0], descs), pos) is None

    def test_boundary_is_inclusive(self):
        pos = np.array([10.0])
        descs = np.array([[1.0, 0.0]])
        assert mining.easiest_positive(0.0, score_row([1.0, 0.0], descs), pos) == 0


class TestDifficultPositives:
    def test_candidates_ranked_by_similarity_then_row(self):
        pos = np.array([3.0, 50.0, -7.0, 10.0, 2.0])
        descs = np.array([[0.5, 0.0], [1.0, 0.0], [0.9, 0.0], [0.5, 0.0], [0.7, 0.0]])
        out = mining.difficult_positives(0.0, score_row([1.0, 0.0], descs), pos, k=10)
        assert out == [2, 4, 0, 3]  # row 1 is beyond 10 m; rows 0 and 3 tie

    def test_cut_to_k(self):
        pos = np.zeros(4)
        descs = np.array([[0.1, 0.0], [0.4, 0.0], [0.3, 0.0], [0.2, 0.0]])
        assert mining.difficult_positives(0.0, score_row([1.0, 0.0], descs), pos, k=2) == [1, 2]

    def test_no_candidate_gives_empty_list(self):
        pos = np.array([11.0, -40.0])
        assert mining.difficult_positives(0.0, score_row([1.0, 0.0], np.eye(2)), pos, k=3) == []

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            mining.difficult_positives(0.0, np.ones(2), np.zeros(2), k=0)


class TestSampleNegatives:
    def test_small_pool_returned_whole(self):
        pos = np.array([30.0, 40.0, 50.0, 5.0])
        descs = np.eye(4)
        out = mining.sample_negatives(
            0.0, score_row(np.ones(4) / 2.0, descs), pos, derive_rng(0, "neg"), n=10
        )
        assert sorted(out) == [0, 1, 2]  # index 3 is too close

    def test_same_seed_same_sample(self):
        rng = np.random.default_rng(103)
        pos = rng.uniform(30, 400, size=80)
        descs = rng.normal(size=(80, 8))
        descs /= np.linalg.norm(descs, axis=1, keepdims=True)
        q = descs[0] * 0.0 + np.eye(8)[0]
        a = mining.sample_negatives(0.0, score_row(q, descs), pos, derive_rng(9, "neg"), n=10)
        b = mining.sample_negatives(0.0, score_row(q, descs), pos, derive_rng(9, "neg"), n=10)
        assert a == b

    def test_distance_and_distinctness(self):
        rng = np.random.default_rng(104)
        pos = rng.uniform(0, 400, size=100)
        descs = rng.normal(size=(100, 8))
        descs /= np.linalg.norm(descs, axis=1, keepdims=True)
        q = np.eye(8)[0]
        out = mining.sample_negatives(50.0, score_row(q, descs), pos, derive_rng(4, "neg"), n=10)
        assert len(out) == 10 and len(set(out)) == 10
        for idx in out:
            assert abs(pos[idx] - 50.0) > 25.0

    def test_sample_stays_inside_similarity_pool(self):
        rng = np.random.default_rng(105)
        pos = np.full(60, 100.0)  # all eligible
        descs = rng.normal(size=(60, 8))
        descs /= np.linalg.norm(descs, axis=1, keepdims=True)
        q = np.eye(8)[0]
        sims = descs @ q
        top20 = set(np.lexsort((np.arange(60), -sims))[:20])
        for seed in range(5):
            out = mining.sample_negatives(
                0.0, score_row(q, descs), pos, derive_rng(seed, "neg"), n=10, pool_size=20
            )
            assert set(out) <= top20


class TestHardestNegativeRegion:
    def make_params(self, seed=0, k=4, d=3):
        rng = np.random.default_rng(seed)
        return vlad.VladParams(centers=ag.parameter(rng.normal(size=(k, d))), alpha=2.0)

    def test_constant_map_picks_full_image(self):
        params = self.make_params()
        fm = np.tile(np.array([0.3, -0.2, 0.9])[:, None, None], (1, 4, 12))
        query = np.ones(12) / np.sqrt(12.0)
        rid, desc = mining.hardest_negative_region(query, fm, params)
        assert rid == 0
        assert desc.shape == (12,)

    def test_planted_top_left_match(self):
        params = self.make_params(seed=1)
        c = params.centers.data
        rng = np.random.default_rng(7)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        query_fm = np.tile((c[0] + 0.2 * v)[:, None, None], (1, 2, 4))
        query = vlad.aggregate(params.as_arrays(), query_fm)
        neg = np.tile((c[1] - 0.2 * v)[:, None, None], (1, 4, 8))
        neg[:, 0:2, 0:4] = (c[0] + 0.2 * v)[:, None, None]
        rid, _ = mining.hardest_negative_region(query, neg, params)
        assert rid == 5

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(106)
        params = self.make_params(seed=2)
        for _ in range(40):
            fm = rng.normal(size=(3, int(rng.integers(2, 6)), int(rng.integers(2, 13))))
            query = rng.normal(size=12)
            query /= np.linalg.norm(query)
            rid, desc = mining.hardest_negative_region(query, fm, params)
            blocks = literal_region_blocks(fm)
            oracle_descs = {r: vlad.aggregate(params.as_arrays(), blocks[r]) for r in range(9)}
            want_rid, want_sim = brute_hardest_region(query, oracle_descs)
            assert rid == want_rid
            np.testing.assert_allclose(float(desc @ query), want_sim, rtol=0, atol=0)
            # argmax dominance over the plain full-image similarity
            assert float(desc @ query) >= float(oracle_descs[0] @ query)


    @pytest.mark.parametrize("region_ids", [ALL_REGION_IDS, HALVES_ONLY_IDS])
    def test_region_matrix_is_scored_as_given(self, region_ids):
        # A negative's region rows, as the training graph holds them, pick
        # the region and row that aggregating its map picks.
        rng = np.random.default_rng(108)
        params = self.make_params(seed=3)
        for _ in range(10):
            fm = rng.normal(size=(3, 4, 12))
            query = rng.normal(size=12)
            query /= np.linalg.norm(query)
            rows = vlad.aggregate_regions(params.as_arrays(), fm, region_ids)
            rid, desc = mining.hardest_negative_region(query, rows, params, region_ids)
            want_rid, want_desc = mining.hardest_negative_region(query, fm, params, region_ids)
            assert rid == want_rid and np.array_equal(desc, want_desc)
        for bad in (rows[1:], rows[0], fm[None]):
            with pytest.raises(ShapeError):
                mining.hardest_negative_region(query, bad, params, region_ids)


class TestTupleGeography:
    def test_mined_tuples_respect_radii(self):
        rng = np.random.default_rng(107)
        for trial in range(20):
            g = 60
            pos = rng.uniform(0, 400, size=g)
            descs = rng.normal(size=(g, 8))
            descs /= np.linalg.norm(descs, axis=1, keepdims=True)
            qpos = float(rng.uniform(0, 400))
            qdesc = descs[int(rng.integers(g))]
            scores = score_row(qdesc, descs)
            p_star = mining.easiest_positive(qpos, scores, pos)
            if p_star is None:
                continue
            negs = mining.sample_negatives(qpos, scores, pos, derive_rng(trial, "geo"), n=5)
            t = TrainingTuple(
                query_id=0,
                easiest_positive=p_star,
                difficult_positives=(),
                negatives=tuple(negs),
                negative_regions=(0,) * len(negs),
            )
            assert tuple_respects_geography(t, qpos, pos, generation=1)
            assert abs(pos[p_star] - qpos) <= 10.0
            for n_id in negs:
                assert abs(pos[n_id] - qpos) > 25.0

    @pytest.mark.parametrize("use_regions", [True, False], ids=["full", "no_regions"])
    def test_generation_two_tuples_respect_radii(self, use_regions):
        ds = generate_dataset(
            WorldSpec(
                seed=3,
                length_m=120.0,
                n_train_queries=8,
                n_train_gallery=48,
                n_test_queries=8,
                n_test_gallery=48,
            )
        )
        train_q = ds.split("train-query")
        train_g = ds.split("train-gallery")
        teacher = init_model(0, [img.pixels for img in train_g[:8]])
        cfg = RunConfig.create(
            generations=2, epochs=1, k_positives=5, use_regions=use_regions, eval_out_dim=32
        )
        targets = trainer.compute_generation_targets(teacher, ds, cfg, omega=2)
        _, q_descs = trainer.encode_images(teacher, train_q)
        _, g_descs = trainer.encode_images(teacher, train_g)
        g_pos = np.array([img.reported_x for img in train_g])
        sims = mining.similarities(q_descs, g_descs)
        for qrow, (q, rows) in enumerate(zip(train_q, targets.positives)):
            # The hard-loss positive is the teacher's most similar 10 m candidate.
            assert rows[0] == mining.easiest_positive(q.reported_x, sims[qrow], g_pos)
            negs = mining.sample_negatives(
                q.reported_x, sims[qrow], g_pos, derive_rng(qrow, "geo"), n=5
            )
            t = TrainingTuple(
                query_id=q.id,
                easiest_positive=rows[0],
                difficult_positives=rows,
                negatives=tuple(negs),
                negative_regions=(0,) * len(negs),
            )
            assert tuple_respects_geography(t, q.reported_x, g_pos, generation=2)

    def test_generation_two_rejects_far_or_misplaced_positive(self):
        pos = np.array([2.0, 5.0, 14.0, 60.0])
        base = dict(query_id=0, negatives=(3,), negative_regions=(0,))
        ok = TrainingTuple(easiest_positive=1, difficult_positives=(1, 0), **base)
        far = TrainingTuple(easiest_positive=1, difficult_positives=(1, 2), **base)
        misplaced = TrainingTuple(easiest_positive=0, difficult_positives=(1, 0), **base)
        far_hard = TrainingTuple(easiest_positive=2, difficult_positives=(2,), **base)
        assert tuple_respects_geography(ok, 0.0, pos, generation=2)
        assert not tuple_respects_geography(far, 0.0, pos, generation=2)
        assert not tuple_respects_geography(misplaced, 0.0, pos, generation=2)
        assert not tuple_respects_geography(far_hard, 0.0, pos, generation=2)
        assert not tuple_respects_geography(far_hard, 0.0, pos, generation=1)
