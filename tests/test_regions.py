"""Region decomposition tests: slice layout, region masks, gradients."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import literal_region_blocks
from regionsim import autograd as ag
from regionsim import vlad
from regionsim.errors import ParameterError, ShapeError
from regionsim.regions import ALL_REGION_IDS, region_mask, region_slices


class TestSlices:
    def test_even_grid_layout(self):
        s = region_slices(4, 12)
        assert s[0] == (slice(0, 4), slice(0, 12))
        assert s[1] == (slice(0, 4), slice(0, 6))  # left
        assert s[2] == (slice(0, 4), slice(6, 12))  # right
        assert s[3] == (slice(0, 2), slice(0, 12))  # top
        assert s[4] == (slice(2, 4), slice(0, 12))  # bottom
        assert s[5] == (slice(0, 2), slice(0, 6))  # top-left
        assert s[6] == (slice(0, 2), slice(6, 12))  # top-right
        assert s[7] == (slice(2, 4), slice(0, 6))  # bottom-left
        assert s[8] == (slice(2, 4), slice(6, 12))  # bottom-right

    def test_odd_grid_shares_middle(self):
        s = region_slices(5, 13)
        assert s[3][0] == slice(0, 3) and s[4][0] == slice(2, 5)
        assert s[1][1] == slice(0, 7) and s[2][1] == slice(6, 13)

    def test_halves_cover_grid(self):
        for n in range(1, 20):
            s = region_slices(n, n)
            top, bottom = s[3][0], s[4][0]
            assert top.start == 0 and bottom.stop == n
            assert top.stop >= bottom.start  # no gap
            assert top.stop - top.start >= n // 2
            assert bottom.stop - bottom.start >= n // 2

    def test_quarters_compose_halves(self):
        for h, w in [(4, 6), (5, 7), (1, 1), (3, 8)]:
            s = region_slices(h, w)
            assert s[5] == (s[3][0], s[1][1])
            assert s[6] == (s[3][0], s[2][1])
            assert s[7] == (s[4][0], s[1][1])
            assert s[8] == (s[4][0], s[2][1])

    def test_rejects_empty_grid(self):
        with pytest.raises(ShapeError):
            region_slices(0, 4)


class TestViews:
    """A region's view of a map is its 0/1 position mask, not a slice."""

    def test_view_matches_copy_values(self):
        # The positions a mask selects are exactly the literal block's.
        for h, w in [(4, 12), (5, 13), (3, 3), (2, 7), (1, 1)]:
            grid = np.arange(h * w, dtype=np.float64).reshape(1, h, w)
            blocks = literal_region_blocks(grid)
            mask = region_mask(h, w, ALL_REGION_IDS)
            assert mask.shape == (h * w, 9, 1)
            assert set(np.unique(mask)) <= {0.0, 1.0}
            for r, rid in enumerate(ALL_REGION_IDS):
                picked = grid.reshape(-1)[mask[:, r, 0] == 1.0]
                assert np.array_equal(picked, blocks[rid].reshape(-1))

    def test_mask_rows_follow_requested_ids(self):
        full = region_mask(5, 6, ALL_REGION_IDS)
        some = region_mask(5, 6, (4, 0, 7))
        assert np.array_equal(some[:, :, 0], full[:, [4, 0, 7], 0])

    def test_mask_is_cached_and_read_only(self):
        a = region_mask(4, 6, (0, 1, 2))
        assert region_mask(4, 6, (0, 1, 2)) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0, 0] = 0.0

    def test_rejects_bad_region_id(self):
        for rid in (-1, 9, 100):
            with pytest.raises(ParameterError):
                region_mask(4, 4, (0, rid))
        with pytest.raises(ParameterError):
            region_mask(4, 4, ())
        params = vlad.VladParams(centers=np.eye(2))
        with pytest.raises(ParameterError):
            vlad.aggregate_regions(params, np.ones((2, 4, 4)), (9,))

    def test_rejects_non_3d(self):
        params = vlad.VladParams(centers=np.eye(2))
        with pytest.raises(ShapeError):
            vlad.aggregate_regions(params, np.ones((2, 4)), (1,))
        with pytest.raises(ShapeError):
            vlad.aggregate_regions(params, ag.constant(np.ones((1, 2, 4, 4))), (1,))


class TestGradients:
    """Each region row's gradient reaches the map only inside its region."""

    def params(self, seed):
        rng = np.random.default_rng(seed)
        return vlad.VladParams(centers=ag.parameter(rng.normal(size=(3, 2))), alpha=2.0)

    def test_gradient_scatters_into_region_only(self):
        rng = np.random.default_rng(31)
        params = self.params(30)
        fm = ag.parameter(rng.normal(size=(2, 4, 6)))
        rows = vlad.aggregate_regions(params, fm, ALL_REGION_IDS)
        ag.dot(rows[5], ag.constant(rng.normal(size=6))).backward()  # top-left
        inside = np.zeros((4, 6), dtype=bool)
        inside[0:2, 0:3] = True
        assert np.all(fm.grad[:, ~inside] == 0.0)
        assert np.all(np.abs(fm.grad[:, inside]).sum(axis=0) > 0.0)

    def test_overlapping_regions_accumulate(self):
        # Odd height: the middle row belongs to both the top and bottom half.
        rng = np.random.default_rng(33)
        params = self.params(32)
        fm_data = rng.normal(size=(2, 3, 3))
        wts = rng.normal(size=(2, 6))

        def grad_of(rids):
            fm = ag.parameter(fm_data)
            rows = vlad.aggregate_regions(params, fm, (3, 4))
            total = None
            for r in rids:
                term = ag.dot(rows[r], ag.constant(wts[r]))
                total = term if total is None else ag.add(total, term)
            total.backward()
            return fm.grad

        top, bottom, both = grad_of([0]), grad_of([1]), grad_of([0, 1])
        assert np.all(top[:, 2] == 0.0) and np.all(bottom[:, 0] == 0.0)
        assert np.all(top[:, 1] != 0.0) and np.all(bottom[:, 1] != 0.0)
        np.testing.assert_allclose(both, top + bottom, rtol=0, atol=1e-15)


@given(
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    region_ids=st.lists(st.sampled_from(ALL_REGION_IDS), min_size=1, max_size=9, unique=True),
)
def test_mask_selects_literal_blocks(h, w, region_ids):
    """On any grid and any id list, mask row r selects exactly the positions
    of the literal block of ``region_ids[r]``, in row-major order."""
    grid = np.arange(h * w).reshape(1, h, w)
    blocks = literal_region_blocks(grid)
    mask = region_mask(h, w, tuple(region_ids))
    for r, rid in enumerate(region_ids):
        assert np.flatnonzero(mask[:, r, 0]).tolist() == blocks[rid].reshape(-1).tolist()
