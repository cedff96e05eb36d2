"""Model bundle tests: deterministic init, descriptor paths, freezing."""

import numpy as np

from _oracles import literal_region_blocks
from regionsim import autograd as ag
from regionsim import encoder as enc
from regionsim import model as mdl
from regionsim import vlad
from regionsim.regions import ALL_REGION_IDS


def sample_images(seed, n=4, shape=(16, 24)):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape) for _ in range(n)]


class TestInitModel:
    def test_bitwise_deterministic(self):
        imgs = sample_images(0)
        a = mdl.init_model(3, imgs)
        b = mdl.init_model(3, imgs)
        for ta, tb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(ta.data, tb.data)

    def test_parameter_list_is_stable(self):
        m = mdl.init_model(1, sample_images(1))
        params = m.parameters()
        assert len(params) == 7
        assert params[-1] is m.vlad.centers
        assert m.descriptor_dim == 128

    def test_freeze_early_layers(self):
        m = mdl.init_model(2, sample_images(2), freeze_early=True)
        img = sample_images(3, n=1)[0]
        ag.tensor_sum(vlad.aggregate(m.vlad, enc.encode(m.encoder, img))).backward()
        w1, b1, w2, b2, w3, b3, centers = m.parameters()
        for frozen in (w1, b1, w2, b2):
            assert np.all(frozen.grad == 0.0)
        assert np.any(w3.grad != 0.0)
        assert np.any(centers.grad != 0.0)


class TestDescriptors:
    def test_graph_and_array_paths_match_bitwise(self):
        m = mdl.init_model(4, sample_images(4))
        for img in sample_images(5, n=3):
            graph = vlad.aggregate(m.vlad, enc.encode(m.encoder, img)).data
            array = vlad.aggregate(m.vlad.as_arrays(), enc.encode(m.encoder.as_arrays(), img))
            assert np.array_equal(graph, array)

    def test_region_paths_match_bitwise(self):
        m = mdl.init_model(6, sample_images(6))
        img = sample_images(7, n=1, shape=(32, 96))[0]
        graph = vlad.aggregate_regions(m.vlad, enc.encode(m.encoder, img), ALL_REGION_IDS).data
        array = vlad.aggregate_regions(
            m.vlad.as_arrays(), enc.encode(m.encoder.as_arrays(), img), ALL_REGION_IDS
        )
        assert isinstance(array, np.ndarray)
        assert np.array_equal(graph, array)

    def test_region_rows_equal_block_descriptors(self):
        # A 4x12 map: every region has at least 2 positions, so each row is
        # bitwise the whole-map descriptor of the cropped block.
        m = mdl.init_model(8, sample_images(8))
        fm = enc.encode(m.encoder.as_arrays(), sample_images(9, n=1, shape=(32, 96))[0])
        assert fm.shape[1:] == (4, 12)
        rows = vlad.aggregate_regions(m.vlad.as_arrays(), fm, ALL_REGION_IDS)
        blocks = literal_region_blocks(fm)
        for rid in ALL_REGION_IDS:
            assert np.array_equal(rows[rid], vlad.aggregate(m.vlad.as_arrays(), blocks[rid]))

    def test_region_rows_match_blocks_on_random_sizes(self):
        # A one-position block scores its position with a one-row product,
        # which takes another BLAS path, so its row agrees to rounding;
        # every larger region is bitwise equal.
        rng = np.random.default_rng(13)
        params = vlad.VladParams(rng.normal(size=(5, 6)), alpha=3.0)
        for _ in range(30):
            fm = rng.normal(size=(6, int(rng.integers(1, 8)), int(rng.integers(1, 14))))
            rows = vlad.aggregate_regions(params, fm, ALL_REGION_IDS)
            blocks = literal_region_blocks(fm)
            for rid in ALL_REGION_IDS:
                want = vlad.aggregate(params.as_arrays(), blocks[rid])
                if blocks[rid][0].size > 1:
                    assert np.array_equal(rows[rid], want)
                else:
                    np.testing.assert_allclose(rows[rid], want, rtol=0, atol=1e-15)

    def test_descriptor_gradient_is_exact(self):
        m = mdl.init_model(10, sample_images(10))
        img = sample_images(11, n=1, shape=(8, 8))[0]
        rng = np.random.default_rng(12)
        wts = rng.normal(size=m.descriptor_dim)

        def fn():
            return ag.dot(vlad.aggregate(m.vlad, enc.encode(m.encoder, img)), ag.constant(wts))

        checked = [m.encoder.biases[0], m.encoder.biases[2], m.vlad.centers]
        assert ag.grad_check(fn, checked, eps=1e-6) <= 1e-4
