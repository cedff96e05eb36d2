"""Model bundle tests: deterministic init, descriptor paths, freezing."""

import numpy as np

from regionsim import autograd as ag
from regionsim import encoder as enc
from regionsim import model as mdl
from regionsim import vlad
from regionsim.regions import region_view


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
        ag.tensor_sum(mdl.image_descriptor(m, img)).backward()
        w1, b1, w2, b2, w3, b3, centers = m.parameters()
        for frozen in (w1, b1, w2, b2):
            assert np.all(frozen.grad == 0.0)
        assert np.any(w3.grad != 0.0)
        assert np.any(centers.grad != 0.0)


class TestDescriptors:
    def test_graph_and_array_paths_match_bitwise(self):
        m = mdl.init_model(4, sample_images(4))
        for img in sample_images(5, n=3):
            graph = mdl.image_descriptor(m, img).data
            array = vlad.aggregate_array(m.vlad, enc.encode_array(m.encoder, img))
            assert np.array_equal(graph, array)

    def test_region_paths_match_bitwise(self):
        m = mdl.init_model(6, sample_images(6))
        img = sample_images(7, n=1, shape=(32, 96))[0]
        fm_t = enc.encode(m.encoder, img)
        fm_a = enc.encode_array(m.encoder, img)
        for rid in range(9):
            graph = mdl.region_descriptor(m, fm_t, rid).data
            assert np.array_equal(graph, vlad.aggregate_array(m.vlad, region_view(fm_a, rid)))

    def test_region_view_equals_copy_descriptor(self):
        m = mdl.init_model(8, sample_images(8))
        fm = enc.encode_array(m.encoder, sample_images(9, n=1, shape=(32, 96))[0])
        for rid in range(9):
            via_view = vlad.aggregate_array(m.vlad, region_view(fm, rid))
            via_copy = vlad.aggregate_array(m.vlad, np.ascontiguousarray(region_view(fm, rid)))
            assert np.array_equal(via_view, via_copy)

    def test_descriptor_gradient_is_exact(self):
        m = mdl.init_model(10, sample_images(10))
        img = sample_images(11, n=1, shape=(8, 8))[0]
        rng = np.random.default_rng(12)
        wts = rng.normal(size=m.descriptor_dim)

        def fn():
            return ag.dot(mdl.image_descriptor(m, img), ag.constant(wts))

        checked = [m.encoder.biases[0], m.encoder.biases[2], m.vlad.centers]
        assert ag.grad_check(fn, checked, eps=1e-6) <= 1e-4
