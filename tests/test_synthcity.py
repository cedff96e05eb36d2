"""Synthetic world tests: rendering, overlap truth, dataset IO, label noise."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_weak_label_stats
from regionsim import synthcity as sc
from regionsim.errors import DatasetError, ParameterError
from regionsim.regions import ALL_REGION_IDS, FULL_REGION


def small_spec(seed=0, **kw):
    base = dict(
        seed=seed,
        length_m=120.0,
        n_train_queries=8,
        n_train_gallery=24,
        n_test_queries=8,
        n_test_gallery=24,
    )
    base.update(kw)
    return sc.WorldSpec(**base)


# The default world with a 4x gallery and 512 test queries.
FOUR_X = sc.WorldSpec(n_train_gallery=1024, n_test_queries=512, n_test_gallery=1024)


def view(world, x, heading, image_id=0, split="train-query"):
    return sc.GeoImage(
        id=image_id,
        pixels=sc.render_view(world, x, heading),
        true_x=x,
        reported_x=x,
        heading=heading,
        split=split,
        world_key=world.key,
    )


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ParameterError):
            small_spec(length_m=-1.0)
        with pytest.raises(ParameterError):
            small_spec(window_m=200.0)
        with pytest.raises(ParameterError):
            small_spec(noise_sigma_m=-0.1)
        with pytest.raises(ParameterError):
            small_spec(heading_balance=1.5)
        with pytest.raises(ParameterError):
            small_spec(n_train_queries=0)

    def test_eight_columns_per_meter_default(self):
        assert small_spec().cols_per_meter == 8.0


class TestRendering:
    def test_identical_inputs_identical_pixels(self):
        world = sc.World(small_spec(1))
        a = sc.render_view(world, 40.0, +1)
        b = sc.render_view(world, 40.0, +1)
        assert np.array_equal(a, b)
        assert a.dtype == np.float32 and a.shape == (32, 96)

    def test_pixels_lie_in_unit_range(self):
        world = sc.World(small_spec(2))
        for x in (6.0, 33.3, 114.0):
            for h in (+1, -1):
                img = sc.render_view(world, x, h)
                assert img.min() >= 0.0 and img.max() <= 1.0

    def test_opposite_headings_are_independent(self):
        world = sc.World(small_spec(3))
        assert not np.array_equal(sc.render_view(world, 50.0, 1), sc.render_view(world, 50.0, -1))

    def test_far_positions_share_no_columns(self):
        spec = small_spec(4)
        world = sc.World(spec)
        a = sc.render_view(world, 30.0, 1)
        b = sc.render_view(world, 30.0 + spec.window_m, 1)
        # Adjacent windows touch but do not overlap; crops differ.
        assert not np.array_equal(a, b)

    def test_out_of_bounds_raises(self):
        world = sc.World(small_spec(5))
        with pytest.raises(ParameterError):
            sc.render_view(world, 1.0, 1)
        with pytest.raises(ParameterError):
            sc.render_view(world, 119.0, 1)
        with pytest.raises(ParameterError):
            sc.render_view(world, 50.0, 2)

    def test_texture_differs_across_seeds(self):
        a = sc.World(small_spec(6))
        b = sc.World(small_spec(7))
        assert not np.array_equal(a.textures[1], b.textures[1])


class TestPixelViews:
    """Rendered pixels are read-only float32 views into the world's
    textures, each quantized once, with the bits of a per-crop cast."""

    def oracle(self, spec, img):
        """The crop of the float64 texture, cast to float32 on its own."""
        cols = int(round(spec.length_m * spec.cols_per_meter))
        start = int(round((img.true_x - spec.window_m / 2.0) * spec.cols_per_meter))
        start = min(max(start, 0), cols - spec.image_width)
        texture = sc._facade_texture(spec, img.heading, cols)
        return texture[:, start : start + spec.image_width].astype(np.float32)

    def test_pixels_match_a_cast_of_each_crop(self):
        spec = small_spec(20)
        ds = sc.generate_dataset(spec)
        for img in ds.images:
            want = self.oracle(spec, img)
            assert img.pixels.dtype == np.float32 and img.pixels.shape == want.shape
            assert img.pixels.tobytes() == want.tobytes()

    def test_pixels_are_read_only(self):
        ds = sc.generate_dataset(small_spec(21))
        for img in ds.images:
            assert not img.pixels.flags.writeable
        with pytest.raises(ValueError):
            ds.images[0].pixels[0, 0] = 0.5

    def test_images_of_one_heading_share_the_texture(self):
        spec = small_spec(22)
        ds = sc.generate_dataset(spec)
        for heading in (+1, -1):
            views = [img for img in ds.images if img.heading == heading]
            # Two views less than a window apart cover common facade columns.
            a, b = next(
                (a, b) for a in views for b in views
                if a.id < b.id and abs(a.true_x - b.true_x) < spec.window_m / 2
            )
            assert np.shares_memory(a.pixels, b.pixels)
            assert all(img.pixels.base is a.pixels.base for img in views)
        east = next(img for img in ds.images if img.heading == +1)
        west = next(img for img in ds.images if img.heading == -1)
        assert east.pixels.base is not west.pixels.base


class TestOverlapTruth:
    def setup_method(self):
        self.spec = small_spec(8)
        self.world = sc.World(self.spec)
        self.w = self.spec.window_m

    def full(self, a, b):
        return sc.region_overlap(a, b, FULL_REGION, self.w)

    def test_same_pose_full_overlap(self):
        a, b = view(self.world, 50.0, 1, 0), view(self.world, 50.0, 1, 1)
        assert self.full(a, b) == 1.0

    def test_opposite_headings_zero(self):
        a, b = view(self.world, 50.0, 1, 0), view(self.world, 50.0, -1, 1)
        assert self.full(a, b) == 0.0

    def test_half_window_shift_gives_half(self):
        a = view(self.world, 50.0, 1, 0)
        b = view(self.world, 50.0 + self.w / 2, 1, 1)
        assert self.full(a, b) == 0.5

    def test_symmetric_and_maximal_only_at_same_position(self):
        rng = np.random.default_rng(301)
        for _ in range(50):
            xa, xb = rng.uniform(6, 114, size=2)
            a, b = view(self.world, xa, 1, 0), view(self.world, xb, 1, 1)
            fab = self.full(a, b)
            fba = self.full(b, a)
            assert fab == fba
            assert 0.0 <= fab <= 1.0
            assert (fab == 1.0) == (xa == xb)

    def test_cross_world_comparison_rejected(self):
        other = sc.World(small_spec(9))
        a = view(self.world, 50.0, 1, 0)
        b = view(other, 50.0, 1, 1)
        with pytest.raises(DatasetError):
            self.full(a, b)

    def test_region_overlap_frozen_case(self):
        # Query 3 m right of the gallery image: window [47,59] vs [44,56].
        g = view(self.world, 50.0, 1, 0)
        q = view(self.world, 53.0, 1, 1)
        assert sc.region_overlap(q, g, 0, self.w) == pytest.approx(0.75)
        for rid in (1, 5, 7):  # left half [44, 50): 3 of 6 m visible
            assert sc.region_overlap(q, g, rid, self.w) == pytest.approx(0.5)
        for rid in (2, 6, 8):  # right half [50, 56) fully visible
            assert sc.region_overlap(q, g, rid, self.w) == pytest.approx(1.0)
        for rid in (3, 4):  # top/bottom spanning full width
            assert sc.region_overlap(q, g, rid, self.w) == pytest.approx(0.75)

    def test_region_overlap_zero_across_headings(self):
        g = view(self.world, 50.0, 1, 0)
        q = view(self.world, 50.0, -1, 1)
        for rid in range(9):
            assert sc.region_overlap(q, g, rid, self.w) == 0.0

    def test_region_interval_table(self):
        # The view at 50 m with a 12 m window spans [44, 56]; a region's
        # facade interval is its column part of that span.
        want = {
            0: (44.0, 56.0), 1: (44.0, 50.0), 2: (50.0, 56.0),
            3: (44.0, 56.0), 4: (44.0, 56.0), 5: (44.0, 50.0),
            6: (50.0, 56.0), 7: (44.0, 50.0), 8: (50.0, 56.0),
        }
        assert {rid: sc.region_interval(50.0, 12.0, rid) for rid in range(9)} == want
        for bad in (-1, 9):
            with pytest.raises(ParameterError):
                sc.region_interval(50.0, 12.0, bad)

    def test_region_overlap_rejects_bad_id(self):
        g = view(self.world, 50.0, 1, 0)
        with pytest.raises(ParameterError):
            sc.region_overlap(g, g, 9, self.w)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_array_overlap_matches_each_pair(self, data):
        """``_overlap`` over broadcast (Q, G) arrays gives, entry by entry,
        the value and type ``region_overlap`` gives the pair."""
        lo, hi = self.world.bounds()
        poses = st.lists(
            st.tuples(st.sampled_from([lo, hi]) | st.floats(lo, hi), st.sampled_from([1, -1])),
            min_size=1,
            max_size=6,
        )
        queries = [view(self.world, x, h, i) for i, (x, h) in enumerate(data.draw(poses))]
        gallery = [view(self.world, x, h, i) for i, (x, h) in enumerate(data.draw(poses))]
        q_x, q_heading = np.array([(q.true_x, q.heading) for q in queries]).T[:, :, None]
        g_x, g_heading = np.array([(g.true_x, g.heading) for g in gallery]).T
        for rid in ALL_REGION_IDS:
            grid = sc._overlap(q_x, q_heading, g_x, g_heading, rid, self.w)
            assert grid.shape == (len(queries), len(gallery))
            for i, q in enumerate(queries):
                for j, g in enumerate(gallery):
                    pair = sc.region_overlap(q, g, rid, self.w)
                    assert type(pair) is float and pair == grid[i, j]


class TestGeneration:
    def test_split_counts_and_ids(self):
        ds = sc.generate_dataset(small_spec(10))
        assert len(ds.images) == 64
        assert [img.id for img in ds.images] == list(range(64))
        counts = {s: len(ds.split(s)) for s in sc.SPLITS}
        assert counts == {
            "train-query": 8,
            "train-gallery": 24,
            "test-query": 8,
            "test-gallery": 24,
        }

    def test_default_spec_scale(self):
        spec = sc.WorldSpec()
        assert spec.split_counts() == {
            "train-query": 64,
            "train-gallery": 256,
            "test-query": 64,
            "test-gallery": 256,
        }

    def test_reported_positions_clamped(self):
        ds = sc.generate_dataset(small_spec(11, noise_sigma_m=50.0))
        for img in ds.images:
            assert 0.0 <= img.reported_x <= 120.0

    def test_same_seed_same_dataset(self):
        a = sc.generate_dataset(small_spec(12))
        b = sc.generate_dataset(small_spec(12))
        for ia, ib in zip(a.images, b.images):
            assert np.array_equal(ia.pixels, ib.pixels)
            assert ia.true_x == ib.true_x and ia.reported_x == ib.reported_x

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("noise", [0.0, 5.0, 10.0])
    def test_weak_label_stats_match_the_pair_loop(self, seed, noise):
        ds = sc.generate_dataset(sc.WorldSpec(seed=seed, noise_sigma_m=noise))
        assert ds.stats == brute_weak_label_stats(ds)

    def test_weak_label_stats_match_the_pair_loop_on_the_4x_gallery(self):
        ds = sc.generate_dataset(FOUR_X)
        assert ds.stats == brute_weak_label_stats(ds)

    @pytest.mark.parametrize(
        "spec, close, zero", [(sc.WorldSpec(), 815, 454), (FOUR_X, 3387, 2054)]
    )
    def test_golden_weak_label_stats(self, spec, close, zero):
        # Integer counts from seeded camera and GPS draws: they move only if
        # sampling, clipping or the overlap truth does.
        stats = sc.generate_dataset(spec).stats
        assert stats["close_pairs_within_10m"] == close
        assert stats["zero_overlap_close_pairs"] == zero
        assert stats["noisy_positive_fraction"] == zero / close

    def test_weak_labels_include_zero_overlap_pairs(self):
        ds = sc.generate_dataset(small_spec(13))
        stats = ds.stats
        assert stats["close_pairs_within_10m"] > 0
        assert 0.0 < stats["noisy_positive_fraction"] <= 1.0


class TestDatasetIO:
    def test_round_trip_is_exact(self, tmp_path):
        ds = sc.generate_dataset(small_spec(14))
        root = str(tmp_path / "world")
        sc.write_dataset(ds, root)
        back = sc.load_dataset(root)
        assert back.spec == ds.spec
        assert back.stats == ds.stats
        for ia, ib in zip(ds.images, back.images):
            assert np.array_equal(ia.pixels, ib.pixels)
            assert ia.true_x == ib.true_x
            assert ia.reported_x == ib.reported_x
            assert ia.heading == ib.heading and ia.split == ib.split

    def test_write_is_byte_deterministic(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            ds = sc.generate_dataset(small_spec(15))
            root = tmp_path / name
            sc.write_dataset(ds, str(root))
            tree = hashlib.sha256()
            for fname in sorted(os.listdir(root)):
                tree.update(fname.encode())
                tree.update((root / fname).read_bytes())
            digests.append(tree.hexdigest())
        assert digests[0] == digests[1]

    def test_load_rejects_missing_image(self, tmp_path):
        ds = sc.generate_dataset(small_spec(16))
        root = str(tmp_path / "world")
        sc.write_dataset(ds, root)
        os.remove(os.path.join(root, "img_00003.bin"))
        with pytest.raises(DatasetError):
            sc.load_dataset(root)

    def test_load_rejects_truncated_payload(self, tmp_path):
        ds = sc.generate_dataset(small_spec(17))
        root = str(tmp_path / "world")
        sc.write_dataset(ds, root)
        path = os.path.join(root, "img_00000.bin")
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-4])
        with pytest.raises(DatasetError):
            sc.load_dataset(root)

    def test_load_rejects_a_partial_float(self, tmp_path):
        ds = sc.generate_dataset(small_spec(17))
        root = str(tmp_path / "world")
        sc.write_dataset(ds, root)
        path = os.path.join(root, "img_00000.bin")
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-1])
        with pytest.raises(DatasetError, match="payload size"):
            sc.load_dataset(root)

    def test_loaded_pixels_are_read_only(self, tmp_path):
        ds = sc.generate_dataset(small_spec(14))
        root = str(tmp_path / "world")
        sc.write_dataset(ds, root)
        back = sc.load_dataset(root)
        assert all(img.pixels.dtype == np.float32 for img in back.images)
        assert not any(img.pixels.flags.writeable for img in back.images)

    def test_load_rejects_an_image_of_another_shape(self, tmp_path):
        ds = sc.generate_dataset(small_spec(19))
        root = str(tmp_path / "world")
        sc.write_dataset(ds, root)
        h, w = ds.spec.image_height, ds.spec.image_width - 32
        narrow = np.zeros((h, w), dtype="<f4")
        with open(os.path.join(root, "img_00003.bin"), "wb") as fh:
            fh.write(np.array([h, w], dtype="<u4").tobytes() + narrow.tobytes())
        with pytest.raises(DatasetError, match=f"is {h}x{w}"):
            sc.load_dataset(root)

    @pytest.mark.parametrize("name", ["manifest.csv", "truth.csv"])
    @pytest.mark.parametrize("change", ["extra field", "missing field", "non-numeric"])
    def test_load_rejects_malformed_csv_line(self, tmp_path, name, change):
        ds = sc.generate_dataset(small_spec(18))
        root = tmp_path / "world"
        sc.write_dataset(ds, str(root))
        path = root / name
        lines = path.read_text(encoding="ascii").splitlines(keepends=True)
        fields = lines[3].rstrip("\n").split(",")
        lines[3] = ",".join({
            "extra field": fields + ["7"],
            "missing field": fields[:2],
            "non-numeric": fields[:1] + ["east"] + fields[2:],
        }[change]) + "\n"
        path.write_text("".join(lines), encoding="ascii")
        with pytest.raises(DatasetError, match=f"{name} line 4"):
            sc.load_dataset(str(root))

    def test_load_rejects_missing_directory(self, tmp_path):
        with pytest.raises(DatasetError):
            sc.load_dataset(str(tmp_path / "nope"))
