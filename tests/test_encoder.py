"""Encoder tests: shapes, init determinism, path equivalence, graph memory,
freezing."""

import tracemalloc

import numpy as np
import pytest

from regionsim import autograd as ag
from regionsim import encoder as enc
from regionsim.errors import EvaluationError, ShapeError
from regionsim.synthcity import WorldSpec, generate_dataset, load_dataset, write_dataset


def dense_low_pass(x):
    """The filter as two dense matrix products, the band's zeros included."""
    h, w = x.shape[-2:]
    return enc._low_pass_matrix(h) @ x @ enc._low_pass_matrix(w).T


class TestShapes:
    def test_reference_input_shape(self):
        params = enc.init_encoder(0)
        fm = enc.encode(params.as_arrays(), np.zeros((32, 96)))
        assert fm.shape == (16, 4, 12)

    def test_odd_dims_round_up_per_layer(self):
        params = enc.init_encoder(0)
        # ceil-halving three times: 33 -> 17 -> 9 -> 5, 97 -> 49 -> 25 -> 13
        assert enc.encode(params.as_arrays(), np.zeros((33, 97))).shape == (16, 5, 13)

    def test_rejects_bad_inputs(self):
        params = enc.init_encoder(0)
        with pytest.raises(ShapeError):
            enc.encode(params.as_arrays(), np.zeros((4, 4)))
        with pytest.raises(ShapeError):
            enc.encode(params.as_arrays(), np.zeros((8, 8, 3)))
        bad = np.zeros((8, 8))
        bad[0, 0] = np.nan
        with pytest.raises(EvaluationError):
            enc.encode(params.as_arrays(), bad)


class TestLowPass:
    def test_constant_image_unchanged(self):
        img = np.full((9, 12), 0.3)
        np.testing.assert_allclose(enc.low_pass(img), img, rtol=0, atol=1e-15)

    def test_glyph_checkers_are_attenuated(self):
        # The renderer's checker glyphs have 2-pixel cells: a 4-pixel period.
        rr = (np.arange(16)[:, None] // 2 + np.arange(32)[None, :] // 2) % 2
        out = enc.low_pass(rr.astype(np.float64))[4:-4, 4:-4]
        assert np.ptp(out) <= 0.25 * np.ptp(rr)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_world_images_give_the_dense_products_bits(self, seed):
        # Float32 pixels in {0} and [0.38, 1]: every partial sum is exact.
        images = [img.pixels for img in generate_dataset(WorldSpec(seed=seed)).images]
        stack = np.asarray(images, dtype=np.float64)
        assert np.array_equal(enc.low_pass(stack), dense_low_pass(stack))
        for img in stack:
            assert np.array_equal(enc.low_pass(img), dense_low_pass(img))

    def test_loaded_world_images_give_the_dense_products_bits(self, tmp_path):
        ds = generate_dataset(WorldSpec(seed=0))
        write_dataset(ds, str(tmp_path))
        loaded = np.asarray([img.pixels for img in load_dataset(str(tmp_path)).images], np.float64)
        want = dense_low_pass(np.asarray([img.pixels for img in ds.images], np.float64))
        assert np.array_equal(dense_low_pass(loaded), want)
        assert np.array_equal(enc.low_pass(loaded), want)

    @pytest.mark.parametrize("shape", [(5, 9, 12), (3, 32, 96), (2, 17, 70), (4, 8, 33), (40, 36)])
    def test_float64_stacks_match_the_dense_products_to_rounding(self, shape):
        # Widths below, at and past one block of output columns.
        x = np.random.default_rng(shape[-1]).uniform(0, 1, size=shape)
        np.testing.assert_allclose(enc.low_pass(x), dense_low_pass(x), rtol=0, atol=1e-15)

    def test_one_pixel_shift_keeps_descriptors_close(self):
        from regionsim.model import init_model
        from regionsim.synthcity import World, WorldSpec, render_view
        from regionsim.vlad import aggregate

        world = World(WorldSpec())
        xs = np.random.default_rng(0).uniform(20.0, 380.0, size=20)
        views = [render_view(world, x, h) for x in xs for h in (1, -1)]
        model = init_model(0, views[:8])

        def desc(img):
            return aggregate(model.vlad.as_arrays(), enc.encode(model.encoder.as_arrays(), img))

        sims = [
            desc(render_view(world, x, h)) @ desc(render_view(world, x + 1 / 8, h))
            for x in xs
            for h in (1, -1)
        ]
        # Without the low-pass this mean is about 0.4.
        assert np.mean(sims) >= 0.8


class TestInit:
    def test_same_seed_same_params(self):
        a = enc.init_encoder(42)
        b = enc.init_encoder(42)
        for ta, tb in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = enc.init_encoder(42)
        b = enc.init_encoder(43)
        assert not np.array_equal(a.weights[0].data, b.weights[0].data)

    def test_layer_shapes_and_zero_biases(self):
        p = enc.init_encoder(7)
        assert [w.shape for w in p.weights] == [
            (8, 1, 3, 3),
            (16, 8, 3, 3),
            (16, 16, 3, 3),
        ]
        for b in p.biases:
            assert np.all(b.data == 0.0)


class TestPaths:
    def test_graph_and_array_paths_match_bitwise(self):
        rng = np.random.default_rng(5)
        params = enc.init_encoder(5)
        for _ in range(5):
            img = rng.normal(size=(rng.integers(8, 40), rng.integers(8, 40)))
            array = enc.encode(params.as_arrays(), img)
            assert np.array_equal(enc.encode(params, img).data, array)

    def test_array_leaves(self):
        params = enc.init_encoder(6)
        plain = enc.EncoderParams(
            [w.data.copy() for w in params.weights], [b.data.copy() for b in params.biases]
        )
        img = np.random.default_rng(6).normal(size=(16, 24))
        assert np.array_equal(enc.encode(plain, img), enc.encode(params.as_arrays(), img))


class TestGraphMemory:
    def test_encode_keeps_one_activation_per_layer(self):
        # A 16-image 32x96 chunk. Between forward and backward the graph may
        # hold the low-passed input, each layer's output and the bool masks
        # of the two fused ReLUs: no padded copy, no pre-ReLU output.
        rng = np.random.default_rng(12)
        images = rng.normal(size=(16, 32, 96))
        params = enc.init_encoder(12)
        enc.low_pass(images)  # fill the cached low-pass matrices first
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = enc.encode(params, images)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        shapes, (h, w) = [], images.shape[1:]
        for cout in enc.CHANNELS[1:]:
            h, w = -(-h // enc.STRIDE), -(-w // enc.STRIDE)
            shapes.append((cout, len(images), h, w))
        outputs = sum(8 * int(np.prod(s)) for s in shapes)
        masks = sum(int(np.prod(s)) for s in shapes[:-1])
        assert out.requires_grad and out.shape == shapes[-1] and outputs <= retained
        assert retained <= images.nbytes + outputs + masks + 64 * 1024


class TestStacks:
    """A (B, H, W) stack runs one im2col product per layer over all its
    images; each image's map is the one it gets when encoded alone."""

    def per_image(self, params, images):
        return np.stack([enc.encode(params, img) for img in images], axis=1)

    @pytest.mark.parametrize("n", [1, 16, 17, 37])
    def test_stack_equals_single_images_bitwise(self, n):
        params = enc.init_encoder(12).as_arrays()
        images = np.random.default_rng(n).uniform(0, 1, size=(n, 32, 96))
        out = enc.encode(params, images)
        assert out.shape == (16, n, 4, 12)
        assert np.array_equal(out, self.per_image(params, images))

    @pytest.mark.parametrize("shape", [(33, 97), (17, 40)])
    def test_odd_sizes_agree_to_rounding(self, shape):
        # Where a map's position count is not a multiple of the BLAS tile
        # width, edge columns of a stacked product may round differently.
        params = enc.init_encoder(13).as_arrays()
        images = np.random.default_rng(13).uniform(0, 1, size=(37,) + shape)
        np.testing.assert_allclose(
            enc.encode(params, images), self.per_image(params, images), rtol=0, atol=1e-15
        )

    def test_list_of_images_is_a_stack(self):
        params = enc.init_encoder(14).as_arrays()
        images = list(np.random.default_rng(14).uniform(0, 1, size=(3, 32, 96)))
        assert np.array_equal(enc.encode(params, images), self.per_image(params, images))

    def test_each_image_is_validated(self):
        params = enc.init_encoder(15).as_arrays()
        images = np.zeros((4, 16, 16))
        images[2, 3, 3] = np.inf
        with pytest.raises(EvaluationError, match="image 2 of the stack"):
            enc.encode(params, images)
        with pytest.raises(ShapeError):
            enc.encode(params, [np.zeros((16, 16)), np.zeros((16, 24))])
        with pytest.raises(ShapeError):
            enc.encode(params, np.zeros((2, 16, 4)))
        with pytest.raises(ShapeError):
            enc.encode(params, np.zeros((2, 2, 16, 16)))

    def test_low_pass_filters_each_image_alone(self):
        images = np.random.default_rng(16).uniform(0, 1, size=(5, 9, 12))
        want = np.stack([enc.low_pass(img) for img in images])
        assert np.array_equal(enc.low_pass(images), want)


class TestFreezing:
    def test_frozen_layers_keep_zero_grads(self):
        rng = np.random.default_rng(9)
        params = enc.init_encoder(9)
        params.freeze_all_but_last()
        out = enc.encode(params, rng.normal(size=(16, 16)))
        ag.tensor_sum(ag.mul(out, out)).backward()
        w1, b1, w2, b2, w3, b3 = params.tensors()
        for frozen in (w1, b1, w2, b2):
            assert np.all(frozen.grad == 0.0)
        assert np.any(w3.grad != 0.0)
        assert np.any(b3.grad != 0.0)

    def test_unfrozen_gradients_reach_first_layer(self):
        rng = np.random.default_rng(10)
        params = enc.init_encoder(10)
        out = enc.encode(params, rng.normal(size=(16, 16)))
        ag.tensor_sum(ag.mul(out, out)).backward()
        assert np.any(params.weights[0].grad != 0.0)

    def test_cross_layer_gradients_are_exact(self):
        rng = np.random.default_rng(11)
        params = enc.init_encoder(11)
        img = rng.normal(size=(8, 8))
        wts = rng.normal(size=(16, 1, 1))

        def fn():
            return ag.tensor_sum(ag.mul(enc.encode(params, img), ag.constant(wts)))

        # Check a leaf from each end of the network; full sweeps live in the
        # dedicated gradient suite.
        assert ag.grad_check(fn, [params.weights[0], params.biases[0], params.biases[2]]) <= 1e-4
