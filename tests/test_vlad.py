"""VLAD aggregation tests: k-means init, descriptor properties, gradients."""

import numpy as np
import pytest

from regionsim import autograd as ag
from regionsim import encoder as enc
from regionsim import vlad
from regionsim.errors import DegenerateInputError, InitError, ShapeError
from regionsim.regions import ALL_REGION_IDS


def make_params(k=3, d=4, seed=0, alpha=10.0):
    rng = np.random.default_rng(seed)
    return vlad.VladParams(centers=ag.parameter(rng.normal(size=(k, d))), alpha=alpha)


class TestInitCenters:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(1)
        means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        pts = np.concatenate([m + 0.01 * rng.normal(size=(40, 2)) for m in means])
        centers = vlad.init_centers(pts, k=3, seed=5)
        nearest = [int(np.argmin(((centers - m) ** 2).sum(axis=1))) for m in means]
        assert sorted(nearest) == [0, 1, 2]  # one center per blob
        for m, j in zip(means, nearest):
            np.testing.assert_allclose(centers[j], m, atol=0.02)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(100, 8))
        a = vlad.init_centers(pts, k=4, seed=9)
        b = vlad.init_centers(pts, k=4, seed=9)
        assert np.array_equal(a, b)
        c = vlad.init_centers(pts, k=4, seed=10)
        assert not np.array_equal(a, c)

    def test_rejects_too_few_distinct_points(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]] * 5)
        with pytest.raises(InitError):
            vlad.init_centers(pts, k=3, seed=0)

    def test_centers_stay_finite_at_tight_k(self):
        rng = np.random.default_rng(3)
        for seed in range(25):
            pts = np.round(rng.normal(size=(12, 3)), 1)
            k = min(6, np.unique(pts, axis=0).shape[0])
            centers = vlad.init_centers(pts, k=k, seed=seed)
            assert centers.shape == (k, 3)
            assert np.all(np.isfinite(centers))


class TestAggregate:
    def test_unit_norm_and_shape(self):
        rng = np.random.default_rng(4)
        params = make_params(k=3, d=4)
        desc = vlad.aggregate(params.as_arrays(), rng.normal(size=(4, 2, 5)))
        assert desc.shape == (12,)
        np.testing.assert_allclose(np.linalg.norm(desc), 1.0, atol=1e-12)

    def test_paths_match_bitwise(self):
        rng = np.random.default_rng(5)
        params = make_params(k=5, d=6, seed=6)
        for _ in range(10):
            fm = rng.normal(size=(6, rng.integers(1, 5), rng.integers(1, 7)))
            graph = vlad.aggregate(params, ag.constant(fm)).data
            assert np.array_equal(graph, vlad.aggregate(params.as_arrays(), fm))

    def test_invariant_to_spatial_permutation(self):
        rng = np.random.default_rng(6)
        params = make_params(k=4, d=3, seed=7)
        fm = rng.normal(size=(3, 2, 6))
        cols = fm.reshape(3, 12)
        perm = rng.permutation(12)
        shuffled = cols[:, perm].reshape(3, 2, 6)
        reshaped = cols[:, perm].reshape(3, 1, 12)
        base = vlad.aggregate(params.as_arrays(), fm)
        np.testing.assert_allclose(vlad.aggregate(params.as_arrays(), shuffled), base, atol=1e-12)
        np.testing.assert_allclose(vlad.aggregate(params.as_arrays(), reshaped), base, atol=1e-12)

    def test_degenerate_all_zero_raises(self):
        params = vlad.VladParams(centers=ag.parameter(np.zeros((3, 4))))
        fm = np.zeros((4, 2, 2))
        with pytest.raises(DegenerateInputError):
            vlad.aggregate(params.as_arrays(), fm)
        with pytest.raises(DegenerateInputError):
            vlad.aggregate(params, ag.constant(fm))

    def test_rejects_dim_mismatch(self):
        params = make_params(k=3, d=4)
        with pytest.raises(ShapeError):
            vlad.aggregate(params.as_arrays(), np.zeros((5, 2, 2)))

    def test_array_leaves(self):
        # VladParams documents a plain array as valid centers.
        rng = np.random.default_rng(10)
        params = make_params(k=3, d=4, seed=11)
        fm = rng.normal(size=(4, 3, 5))
        plain = vlad.VladParams(centers=params.centers.data.copy(), alpha=params.alpha)
        desc = vlad.aggregate(plain.as_arrays(), fm)
        assert isinstance(desc, np.ndarray)
        assert np.array_equal(desc, vlad.aggregate(params.as_arrays(), fm))
        assert np.array_equal(plain.as_arrays().centers, plain.centers)

    def test_gradients_reach_centers_and_features(self):
        rng = np.random.default_rng(8)
        params = make_params(k=3, d=4, seed=9, alpha=2.0)
        fm = ag.parameter(rng.normal(size=(4, 2, 3)))
        wts = rng.normal(size=12)

        def fn():
            return ag.dot(vlad.aggregate(params, fm), ag.constant(wts))

        assert ag.grad_check(fn, [params.centers, fm]) <= 1e-4


class TestAggregateRegions:
    def test_shape_and_unit_rows(self):
        rng = np.random.default_rng(12)
        params = make_params(k=3, d=4, seed=13)
        rows = vlad.aggregate_regions(params.as_arrays(), rng.normal(size=(4, 3, 5)), (0, 2, 7))
        assert rows.shape == (3, 12)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_full_region_row_is_aggregate(self):
        rng = np.random.default_rng(14)
        params = make_params(k=5, d=6, seed=15)
        for _ in range(10):
            fm = rng.normal(size=(6, rng.integers(1, 5), rng.integers(1, 7)))
            rows = vlad.aggregate_regions(params.as_arrays(), fm, ALL_REGION_IDS)
            assert np.array_equal(rows[0], vlad.aggregate(params.as_arrays(), fm))

    def test_paths_match_bitwise(self):
        rng = np.random.default_rng(16)
        params = make_params(k=5, d=6, seed=17)
        for _ in range(10):
            fm = rng.normal(size=(6, rng.integers(1, 5), rng.integers(1, 7)))
            graph = vlad.aggregate_regions(params, ag.constant(fm), ALL_REGION_IDS)
            array = vlad.aggregate_regions(params.as_arrays(), fm, ALL_REGION_IDS)
            assert isinstance(graph, ag.Tensor) and isinstance(array, np.ndarray)
            assert np.array_equal(graph.data, array)

    def test_gradients_reach_centers_and_features(self):
        rng = np.random.default_rng(18)
        params = make_params(k=3, d=4, seed=19, alpha=2.0)
        fm = ag.parameter(rng.normal(size=(4, 3, 5)))
        wts = rng.normal(size=(9, 12))

        def fn():
            rows = vlad.aggregate_regions(params, fm, ALL_REGION_IDS)
            return ag.tensor_sum(ag.mul(rows, ag.constant(wts)))

        assert ag.grad_check(fn, [params.centers, fm]) <= 1e-4


class TestStacks:
    """A (D, B, H, W) stack gives each map the rows it gets on its own."""

    def test_encoded_stack_rows_equal_per_map_rows_bitwise(self):
        rng = np.random.default_rng(20)
        params = enc.init_encoder(3)
        fms = enc.encode(params.as_arrays(), rng.uniform(0.0, 1.0, size=(16, 32, 96)))
        assert fms.shape == (16, 16, 4, 12)
        centers = vlad.init_centers(fms.reshape(16, -1).T, vlad.DEFAULT_K, 3)
        arrays = vlad.VladParams(centers)
        rows = vlad.aggregate_regions(arrays, fms, ALL_REGION_IDS)
        graph = vlad.aggregate_regions(vlad.VladParams(ag.parameter(centers)), fms, ALL_REGION_IDS)
        descs = vlad.aggregate(arrays.as_arrays(), fms)
        assert rows.shape == (16, 9, 128) and descs.shape == (16, 128)
        assert np.array_equal(graph.data, rows)
        for i in range(16):
            alone = vlad.aggregate_regions(arrays, fms[:, i], ALL_REGION_IDS)
            assert np.array_equal(rows[i], alone)
            assert np.array_equal(descs[i], vlad.aggregate(arrays.as_arrays(), fms[:, i]))

    def test_random_stacks_match_per_map_rows(self):
        rng = np.random.default_rng(21)
        params = make_params(k=5, d=6, seed=22).as_arrays()
        for _ in range(10):
            b, h, w = rng.integers(1, 6), rng.integers(1, 5), rng.integers(1, 7)
            fms = rng.normal(size=(6, b, h, w))
            rows = vlad.aggregate_regions(params, fms, ALL_REGION_IDS)
            assert rows.shape == (b, 9, 30)
            for i in range(b):
                want = vlad.aggregate_regions(params, fms[:, i], ALL_REGION_IDS)
                np.testing.assert_allclose(rows[i], want, rtol=0, atol=1e-15)

    def test_rejects_other_ranks(self):
        with pytest.raises(ShapeError):
            vlad.aggregate(make_params(k=3, d=4).as_arrays(), np.zeros((4, 1, 1, 2, 2)))
