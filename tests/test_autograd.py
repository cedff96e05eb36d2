"""Tensor-core tests: frozen numeric examples, properties, and gradient checks."""

import numpy as np
import pytest

from regionsim import autograd as ag
from regionsim.errors import (
    DegenerateInputError,
    EvaluationError,
    ParameterError,
    ShapeError,
)


def naive_softmax_temp(v, tau):
    # Independent oracle: direct exponentials without max subtraction.
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(v / tau)
    return e / e.sum()


def entropy(p):
    p = np.asarray(p, dtype=np.float64)
    mask = p > 0
    return float(-(p[mask] * np.log(p[mask])).sum())


class TestSoftmaxTemp:
    def test_unit_temperature_example(self):
        p = ag.softmax_temp(np.array([0.9, 0.7]), 1.0).data
        np.testing.assert_allclose(p, [0.549833997312478, 0.450166002687522], atol=1e-12)
        np.testing.assert_allclose(np.round(p, 4), [0.5498, 0.4502])

    def test_sharp_temperature_example(self):
        p = ag.softmax_temp(np.array([0.9, 0.7]), 0.05).data
        np.testing.assert_allclose(p, [0.9820137900379085, 0.0179862099620915], atol=1e-12)

    def test_default_label_temperature_example(self):
        p = ag.softmax_temp(np.array([0.9, 0.7]), 0.07).data
        np.testing.assert_allclose(np.round(p, 4), [0.9457, 0.0543])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            v = rng.normal(scale=2.0, size=n)
            tau = float(rng.uniform(0.03, 2.0))
            np.testing.assert_allclose(
                ag.softmax_temp(v, tau).data, naive_softmax_temp(v, tau), atol=1e-12
            )

    def test_sums_to_one_and_keeps_argmax(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.normal(size=int(rng.integers(2, 10)))
            v += rng.normal(scale=1e-3, size=v.size)  # break exact ties
            for tau in (1.0, 0.1, 0.07, 0.05):
                p = ag.softmax_temp(v, tau).data
                assert abs(p.sum() - 1.0) <= 1e-9
                assert np.argmax(p) == np.argmax(v)
                assert np.all(p > 0)

    def test_lower_temperature_concentrates_mass(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = rng.normal(size=6)
            v += np.linspace(0, 1e-3, 6)  # distinct scores
            ents = [entropy(ag.softmax_temp(v, tau).data) for tau in (1.0, 0.1, 0.07, 0.05)]
            assert all(a > b for a, b in zip(ents, ents[1:]))

    def test_large_scores_stay_finite(self):
        p = ag.softmax_temp(np.array([1000.0, 999.0, -1000.0]), 0.05).data
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) <= 1e-9

    def test_rejects_bad_temperature(self):
        with pytest.raises(ParameterError):
            ag.softmax_temp(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ParameterError):
            ag.softmax_temp(np.array([1.0, 2.0]), -0.1)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ShapeError):
            ag.softmax_temp(np.array([]), 0.07)
        with pytest.raises(EvaluationError):
            ag.softmax_temp(np.array([1.0, np.nan]), 0.07)


class TestSoftCrossEntropy:
    def test_frozen_examples(self):
        ce = ag.soft_cross_entropy
        np.testing.assert_allclose(
            ce(np.array([0.5, 0.5]), np.array([1.0, 0.0])).item(), np.log(2.0), atol=1e-12
        )
        np.testing.assert_allclose(
            ce(np.array([0.25, 0.75]), np.array([1.0, 0.0])).item(), np.log(4.0), atol=1e-12
        )
        got = ce(np.array([0.7, 0.3]), np.array([0.6, 0.4])).item()
        np.testing.assert_allclose(got, 0.6955940882993571, atol=1e-12)
        assert round(got, 4) == 0.6956

    def test_self_entropy_lower_bound(self):
        # ce(y, t) >= H(t), with equality iff y == t.
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            t = rng.dirichlet(np.ones(n))
            y = rng.dirichlet(np.ones(n))
            assert ag.soft_cross_entropy(y, t).item() >= entropy(t) - 1e-9
            np.testing.assert_allclose(
                ag.soft_cross_entropy(t, t).item(), entropy(t), atol=1e-9
            )

    def test_log_floor_keeps_value_finite(self):
        y = np.array([1.0, 0.0])
        t = np.array([0.5, 0.5])
        out = ag.soft_cross_entropy(y, t).item()
        assert np.isfinite(out)
        assert out >= 0.5 * np.log(1e30) - 1.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            ag.soft_cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))

    def test_rejects_unnormalized_target(self):
        with pytest.raises(ParameterError):
            ag.soft_cross_entropy(np.array([0.5, 0.5]), np.array([0.7, 0.7]))


class TestL2Normalize:
    def test_frozen_example(self):
        np.testing.assert_allclose(
            ag.l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-12
        )

    def test_unit_norm_property(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            v = rng.normal(size=int(rng.integers(1, 40)))
            if np.linalg.norm(v) <= 1e-12:
                continue
            out = ag.l2_normalize(v)
            np.testing.assert_allclose(np.linalg.norm(out), 1.0, atol=1e-12)

    def test_rejects_near_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            ag.l2_normalize(np.zeros(4))
        with pytest.raises(DegenerateInputError):
            ag.l2_normalize(np.full(4, 1e-13))

    def test_rows_of_a_matrix(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(5, 7))
        out = ag.l2_normalize(x)
        for row, v in zip(out, x):
            assert np.array_equal(row, ag.l2_normalize(v))
        with pytest.raises(DegenerateInputError):
            ag.l2_normalize(np.vstack([x, np.zeros(7)]))
        with pytest.raises(ShapeError):
            ag.l2_normalize(np.ones((2, 3, 4)))

    def test_smooth_variant_keeps_zero_rows(self):
        # Rows far above eps are unit to ~eps^2 relative error; zero rows
        # stay exactly zero instead of being rescaled.
        x = ag.parameter(np.array([[3.0, 4.0], [0.0, 0.0]]))
        out = ag.l2_normalize_smooth(x, axis=1)
        np.testing.assert_allclose(out.data[0], [0.6, 0.8], atol=1e-7)
        assert np.linalg.norm(out.data[0]) <= 1.0
        np.testing.assert_array_equal(out.data[1], [0.0, 0.0])

    def test_smooth_variant_shrinks_tiny_rows(self):
        x = ag.parameter(np.array([[1e-9, 0.0]]))
        out = ag.l2_normalize_smooth(x, axis=1)
        assert np.linalg.norm(out.data[0]) < 1e-5

    def test_smooth_variant_rejects_bad_eps(self):
        with pytest.raises(ParameterError):
            ag.l2_normalize_smooth(ag.parameter(np.ones((2, 2))), axis=1, eps=0.0)


def naive_conv2d(x, w, b, stride, pad):
    # Triple-loop reference convolution (cross-correlation).
    cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, h_out, w_out))
    for o in range(cout):
        for r in range(h_out):
            for c in range(w_out):
                patch = xp[:, r * stride : r * stride + kh, c * stride : c * stride + kw]
                out[o, r, c] = (patch * w[o]).sum() + b[o]
    return out


class TestConv2d:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(23)
        for stride, pad in [(1, 0), (1, 1), (2, 1), (2, 0)]:
            x = rng.normal(size=(2, 7, 9))
            w = rng.normal(size=(3, 2, 3, 3))
            b = rng.normal(size=3)
            got = ag.conv2d(ag.constant(x), ag.constant(w), ag.constant(b), stride, pad)
            np.testing.assert_allclose(got.data, naive_conv2d(x, w, b, stride, pad), atol=1e-12)

    def test_halving_shape_with_same_padding(self):
        x = ag.constant(np.zeros((1, 32, 96)))
        w = ag.constant(np.zeros((8, 1, 3, 3)))
        b = ag.constant(np.zeros(8))
        assert ag.conv2d(x, w, b, stride=2, pad=1).shape == (8, 16, 48)

    def test_stack_is_one_map_per_image(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 5, 7, 9))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        for stride, pad in [(1, 0), (2, 1)]:
            got = ag.conv2d(x, w, b, stride, pad)
            want = np.stack([ag.conv2d(x[:, k], w, b, stride, pad) for k in range(5)], axis=1)
            assert got.shape == (3, 5) + want.shape[2:]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
            for k in range(5):
                oracle = naive_conv2d(x[:, k], w, b, stride, pad)
                np.testing.assert_allclose(got[:, k], oracle, atol=1e-12)

    def test_single_input_channel_matches_the_product_form(self):
        # With Cin = 1 each offset is a broadcast multiply; a K = 1 matrix
        # product rounds every entry the same, one multiply each.
        rng = np.random.default_rng(25)
        for shape in [(1, 16, 32, 96), (1, 3, 7, 9), (1, 5, 8)]:
            x = rng.normal(size=shape)
            w = rng.normal(size=(8, 1, 3, 3))
            b = rng.normal(size=8)
            xs = x if x.ndim == 4 else x[:, None]
            xp = np.pad(xs, ((0, 0), (0, 0), (1, 1), (1, 1)))
            h_out, w_out = (xs.shape[2] - 1) // 2 + 1, (xs.shape[3] - 1) // 2 + 1
            acc = np.repeat(b[:, None], xs.shape[1] * h_out * w_out, axis=1)
            for i in range(3):
                for j in range(3):
                    patch = xp[:, :, i : i + 2 * h_out : 2, j : j + 2 * w_out : 2]
                    acc = acc + w[:, :, i, j] @ patch.reshape(1, -1)
            want = acc.reshape((8,) + x.shape[1:-2] + (h_out, w_out))
            assert np.array_equal(ag.conv2d(x, w, b, stride=2, pad=1), want)

    def test_rejects_channel_mismatch(self):
        x = ag.constant(np.zeros((2, 8, 8)))
        w = ag.constant(np.zeros((4, 3, 3, 3)))
        with pytest.raises(ShapeError):
            ag.conv2d(x, w, ag.constant(np.zeros(4)), 1, 1)

    def test_rejects_too_small_input(self):
        x = ag.constant(np.zeros((1, 2, 2)))
        w = ag.constant(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            ag.conv2d(x, w, ag.constant(np.zeros(1)), 1, 0)


class TestGradients:
    """Central-difference checks for every differentiable op."""

    TOL = 1e-4

    def test_arithmetic_and_broadcast(self):
        rng = np.random.default_rng(29)
        a = ag.parameter(rng.normal(size=(3, 4)))
        b = ag.parameter(rng.normal(size=(1, 4)))
        c = ag.parameter(rng.normal(size=(3, 1)))

        def fn():
            return ag.tensor_sum(ag.mul(ag.add(a, b), ag.sub(a, c)))

        assert ag.grad_check(fn, [a, b, c]) <= self.TOL

    def test_matmul_both_arities(self):
        rng = np.random.default_rng(31)
        m = ag.parameter(rng.normal(size=(3, 5)))
        n = ag.parameter(rng.normal(size=(5, 2)))
        v = ag.parameter(rng.normal(size=5))

        def fn():
            return ag.tensor_sum(ag.matmul(m, n)) + ag.tensor_sum(ag.matmul(m, v))

        assert ag.grad_check(fn, [m, n, v]) <= self.TOL

    def test_batched_matmul_and_axis_swap(self):
        rng = np.random.default_rng(33)
        a = ag.parameter(rng.normal(size=(4, 3, 5)))
        m = ag.parameter(rng.normal(size=(5, 2)))
        s = ag.parameter(rng.normal(size=(4, 2, 5)))
        r = rng.normal(size=(4, 3, 2))

        def fn():
            return ((a @ m) * r).sum() + ((a @ ag.transpose(s)) * r).sum()

        assert ag.grad_check(fn, [a, m, s]) <= self.TOL

    def test_conv2d_all_inputs(self):
        rng = np.random.default_rng(37)
        x = ag.parameter(rng.normal(size=(2, 6, 6)))
        w = ag.parameter(rng.normal(size=(3, 2, 3, 3)))
        b = ag.parameter(rng.normal(size=3))

        def fn():
            out = ag.conv2d(x, w, b, stride=2, pad=1)
            return ag.tensor_sum(ag.mul(out, out))

        assert ag.grad_check(fn, [x, w, b]) <= self.TOL

    def test_conv2d_stack_all_inputs(self):
        rng = np.random.default_rng(39)
        x = ag.parameter(rng.normal(size=(2, 3, 5, 6)))
        w = ag.parameter(rng.normal(size=(3, 2, 3, 3)))
        b = ag.parameter(rng.normal(size=3))

        def fn():
            out = ag.conv2d(x, w, b, stride=2, pad=1)
            return ag.tensor_sum(ag.mul(out, out))

        assert ag.grad_check(fn, [x, w, b]) <= self.TOL

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(41)
        vals = rng.normal(size=(4, 4))
        vals[np.abs(vals) < 0.05] += 0.1  # keep clear of the nondifferentiable point
        x = ag.parameter(vals)

        def fn():
            return ag.tensor_sum(ag.relu(x))

        assert ag.grad_check(fn, [x]) <= self.TOL

    def test_softplus(self):
        rng = np.random.default_rng(43)
        x = ag.parameter(rng.normal(scale=3.0, size=8))

        def fn():
            return ag.tensor_sum(ag.softplus(x))

        assert ag.grad_check(fn, [x]) <= self.TOL

    def test_dot_and_l2_normalize(self):
        rng = np.random.default_rng(47)
        a = ag.parameter(rng.normal(size=6) + 0.5)
        b = ag.parameter(rng.normal(size=6))

        def fn():
            return ag.dot(ag.l2_normalize(a), ag.l2_normalize(b))

        assert ag.grad_check(fn, [a, b]) <= self.TOL

    def test_softmax_temp_through_cross_entropy(self):
        rng = np.random.default_rng(53)
        v = ag.parameter(rng.normal(size=7))
        target = rng.dirichlet(np.ones(7))

        def fn():
            return ag.soft_cross_entropy(ag.softmax_temp(v, 0.5), target)

        assert ag.grad_check(fn, [v]) <= self.TOL

    def test_row_softmax(self):
        rng = np.random.default_rng(59)
        x = ag.parameter(rng.normal(size=(4, 5)))
        wts = rng.normal(size=(4, 5))

        def fn():
            return ag.tensor_sum(ag.mul(ag.softmax(x, axis=1), ag.constant(wts)))

        assert ag.grad_check(fn, [x]) <= self.TOL

    def test_row_normalize_gradient(self):
        rng = np.random.default_rng(71)
        x = ag.parameter(rng.normal(size=(3, 4)) + 0.5)
        wts = rng.normal(size=(3, 4))

        def fn():
            return ag.tensor_sum(ag.mul(ag.l2_normalize_smooth(x, axis=1), ag.constant(wts)))

        assert ag.grad_check(fn, [x]) <= self.TOL

    def test_row_l2_normalize_gradient(self):
        rng = np.random.default_rng(73)
        x = ag.parameter(rng.normal(size=(3, 4)) + 0.5)
        wts = rng.normal(size=(3, 4))

        def fn():
            return ag.tensor_sum(ag.mul(ag.l2_normalize(x), ag.constant(wts)))

        assert ag.grad_check(fn, [x]) <= self.TOL

    def test_row_normalize_gradient_near_empty_row(self):
        # The smoothing keeps the check passing even when a row sits in the
        # steepest part of the curve (norm comparable to eps).
        x = ag.parameter(np.array([[1.0, 2.0], [1e-3, -1e-3], [3.0, -1.0]]))
        wts = np.array([[0.3, -0.7], [1.1, 0.4], [-0.2, 0.9]])

        def fn():
            return ag.tensor_sum(ag.mul(ag.l2_normalize_smooth(x, axis=1), ag.constant(wts)))

        assert ag.grad_check(fn, [x], eps=1e-6) <= self.TOL

    def test_row_normalize_zero_row_grad_is_bounded(self):
        # A zero row has gradient g/eps: finite, never a 1/norm blowup.
        x = ag.parameter(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]]))
        out = ag.tensor_sum(ag.l2_normalize_smooth(x, axis=1))
        out.backward()
        assert np.all(np.isfinite(x.grad))
        np.testing.assert_allclose(x.grad[1], 1.0 / ag.SMOOTH_EPS)
        assert np.any(x.grad[0] != 0.0) and np.any(x.grad[2] != 0.0)

    def test_plumbing_ops(self):
        rng = np.random.default_rng(61)
        x = ag.parameter(rng.normal(size=(3, 8)))
        wts = rng.normal(size=(8, 3))

        def fn():
            t = ag.transpose(ag.reshape(x, (3, 8)))
            rows = [ag.slice_view(t, (slice(None), i)) for i in range(3)]
            stacked = ag.stack_rows(rows)
            return ag.tensor_sum(ag.mul(ag.transpose(stacked), ag.constant(wts)))

        assert ag.grad_check(fn, [x]) <= self.TOL

    def test_shared_subgraph_accumulates(self):
        x = ag.parameter(np.array([2.0, -1.0]))

        def fn():
            y = ag.mul(x, x)
            return ag.tensor_sum(ag.add(y, y))  # d/dx 2x^2 = 4x

        assert ag.grad_check(fn, [x]) <= self.TOL
        x.zero_grad()
        out = fn()
        out.backward()
        np.testing.assert_allclose(x.grad, [8.0, -4.0], atol=1e-12)

    def test_frozen_parameter_keeps_zero_grad(self):
        a = ag.parameter(np.array([1.0, 2.0]))
        f = ag.parameter(np.array([3.0, 4.0]))
        f.requires_grad = False
        out = ag.dot(a, f)
        out.backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(f.grad, [0.0, 0.0])

    def test_backward_is_bitwise_repeatable(self):
        rng = np.random.default_rng(67)
        data = rng.normal(size=(4, 6))
        grads = []
        for _ in range(2):
            x = ag.parameter(data.copy())
            out = ag.tensor_sum(ag.softmax(ag.matmul(x, ag.transpose(x)), axis=1))
            out.backward()
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])


class TestGradCheckGuards:
    def test_rejects_eps_out_of_range(self):
        x = ag.parameter(np.array([1.0]))

        def fn():
            return ag.tensor_sum(ag.mul(x, x))

        with pytest.raises(ParameterError):
            ag.grad_check(fn, [x], eps=1e-7)
        with pytest.raises(ParameterError):
            ag.grad_check(fn, [x], eps=1e-2)

    def test_flags_nonfinite_objective(self):
        x = ag.parameter(np.array([np.inf]))

        def fn():
            return ag.tensor_sum(ag.mul(x, x))

        with pytest.raises(EvaluationError):
            ag.grad_check(fn, [x])

    def test_scalar_requirement_for_backward(self):
        x = ag.parameter(np.array([1.0, 2.0]))
        with pytest.raises(ShapeError):
            ag.mul(x, x).backward()


class TestArrayInputs:
    """Ops without a numpy operator return a plain array, with the Tensor
    path's exact bits, when no input is a Tensor."""

    def check(self, op, *arrays, **kwargs):
        got = op(*arrays, **kwargs)
        want = op(*[ag.constant(a) for a in arrays], **kwargs)
        assert isinstance(got, np.ndarray) and isinstance(want, ag.Tensor)
        assert np.array_equal(got, want.data)

    def test_conv2d(self):
        rng = np.random.default_rng(71)
        x, w, b = rng.normal(size=(2, 7, 9)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
        for stride, pad in [(1, 0), (2, 1)]:
            self.check(ag.conv2d, x, w, b, stride=stride, pad=pad)
            self.check(ag.conv2d, np.stack([x, -x], axis=1), w, b, stride=stride, pad=pad)

    def test_relu_and_softmax(self):
        rng = np.random.default_rng(73)
        x = rng.normal(size=(5, 4))
        self.check(ag.relu, x)
        self.check(ag.softmax, x, axis=1)
        self.check(ag.softmax, x, axis=0)

    def test_normalizations(self):
        rng = np.random.default_rng(79)
        self.check(ag.l2_normalize, rng.normal(size=7))
        x = rng.normal(size=(4, 6))
        x[2] = 0.0
        self.check(ag.l2_normalize_smooth, x, axis=1)
        self.check(ag.l2_normalize_smooth, x)

    def test_stack_rows(self):
        rng = np.random.default_rng(89)
        self.check(lambda *rows: ag.stack_rows(rows), *rng.normal(size=(3, 5)))

    def test_mixed_inputs_record_a_node(self):
        rng = np.random.default_rng(83)
        x = rng.normal(size=(2, 6, 6))
        w = ag.parameter(rng.normal(size=(3, 2, 3, 3)))
        out = ag.conv2d(x, w, np.zeros(3), stride=2, pad=1)
        assert isinstance(out, ag.Tensor) and out.requires_grad


class TestSliceKeys:
    """``Tensor[key]`` takes basic keys only: an advanced key may repeat an
    element, and the scatter in backward would count that element once."""

    def test_advanced_keys_are_rejected(self):
        a = ag.parameter(np.array([[1.0, 2.0, 3.0]]))
        for key in ([0, 0], np.array([0, 0]), (0, [1, 1]), np.array([[True, False, True]])):
            with pytest.raises(ShapeError):
                a[key]

    def test_basic_keys_pass_grad_check(self):
        rng = np.random.default_rng(97)
        x = ag.parameter(rng.normal(size=(4, 3, 5)))
        keys = [
            1, -1, np.int64(2), slice(1, None, 2), (slice(None), 0), (Ellipsis, 3),
            (None, 2, slice(None, None, -1)), (0, None, Ellipsis), (slice(0, 3), 1, slice(1, 4)),
        ]
        readouts = [rng.normal(size=np.empty((4, 3, 5))[key].shape) for key in keys]

        def fn():
            total = ag.constant(0.0)
            for key, r in zip(keys, readouts):
                total = total + (x[key] * r).sum()
            return total

        assert ag.grad_check(fn, [x]) <= 1e-6


class TestOperators:
    """The numpy operator subset on Tensors builds the same graph as the
    named ops, so gradients check through it."""

    TOL = 1e-4

    def test_operators_return_tensors(self):
        rng = np.random.default_rng(89)
        m = ag.parameter(rng.normal(size=(3, 4)))
        arr = rng.normal(size=(3, 4))
        outs = [m @ arr.T, arr.T @ m, m.T, m.reshape((4, 3)), m.sum(axis=0), m[1:, :2]]
        outs += [arr + m, arr - m, arr * m]
        assert all(isinstance(out, ag.Tensor) for out in outs)
        assert np.array_equal((arr @ m.T).data, arr @ m.data.T)
        assert np.array_equal((arr - m).data, arr - m.data)

    def test_stack_products_are_per_matrix_products(self):
        rng = np.random.default_rng(98)
        a = rng.normal(size=(6, 48, 16))
        m = rng.normal(size=(16, 8))
        s = rng.normal(size=(6, 16, 7))
        by_matrix = (ag.constant(a) @ m).data
        by_stack = (ag.constant(a) @ s).data
        for i in range(6):
            assert np.array_equal(by_matrix[i], a[i] @ m)
            assert np.array_equal(by_stack[i], a[i] @ s[i])
        assert np.array_equal(ag.transpose(a), np.swapaxes(a, 1, 2))
        assert np.array_equal(ag.transpose(ag.constant(a)).data, np.swapaxes(a, 1, 2))

    def test_matmul_shape_checks(self):
        rng = np.random.default_rng(99)
        stack = ag.constant(rng.normal(size=(3, 4, 5)))
        for other in (rng.normal(size=5), rng.normal(size=(2, 5, 2)), rng.normal(size=(3, 4, 2))):
            with pytest.raises(ShapeError):
                stack @ other
        with pytest.raises(ShapeError):
            stack.T  # numpy would reverse all three axes
        with pytest.raises(ShapeError):
            ag.transpose(rng.normal(size=4))

    def test_matmul_and_transpose(self):
        rng = np.random.default_rng(97)
        m = ag.parameter(rng.normal(size=(3, 5)))
        n = ag.parameter(rng.normal(size=(3, 5)))
        v = rng.normal(size=5)
        left = rng.normal(size=(2, 5))

        def fn():
            return (m @ n.T).sum() + (m @ v).sum() + (left @ m.T).sum()

        assert ag.grad_check(fn, [m, n]) <= self.TOL

    def test_reshape_sum_and_slicing(self):
        rng = np.random.default_rng(101)
        x = ag.parameter(rng.normal(size=(2, 3, 4)))
        wts = rng.normal(size=(3, 2))

        def fn():
            cols = x.reshape((6, 4)).sum(axis=1).reshape((3, 2))
            return (cols * wts).sum() + (x[:, 1:, ::2] * x[:, 1:, ::2]).sum()

        assert ag.grad_check(fn, [x]) <= self.TOL

    def test_array_on_the_left_defers_to_tensor(self):
        rng = np.random.default_rng(103)
        x = ag.parameter(rng.normal(size=(3, 4)))
        arr = rng.normal(size=(3, 4))

        def fn():
            return ((arr + x) * (arr - x)).sum() + (arr * x).sum()

        assert isinstance(arr + x, ag.Tensor)
        assert ag.grad_check(fn, [x]) <= self.TOL
