"""Eval tests: whitening algebra, recall protocol, rotation invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regionsim import autograd as ag
from regionsim import evaluate as ev
from regionsim.errors import DegenerateInputError, FitError, ParameterError, ShapeError
from regionsim.mining import ranked, similarities


def identity_covariance_data(rng, n, d):
    # Exact sample covariance I: rescale the SVD spectrum of centered noise.
    x = rng.normal(size=(n, d))
    x -= x.mean(axis=0)
    u, _, vt = np.linalg.svd(x, full_matrices=False)
    return u * np.sqrt(n - 1) @ vt


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


class TestFitWhitening:
    def test_identity_covariance_stays_identity(self):
        rng = np.random.default_rng(401)
        x = identity_covariance_data(rng, 50, 8)
        model = ev.fit_whitening(x, out_dim=8)
        z = ev.apply_whitening_batch(model, x)
        # Undo the output re-normalization to inspect the raw projection.
        raw = (x - model.mean) @ model.projection.T
        cov = raw.T @ raw / (x.shape[0] - 1)
        np.testing.assert_allclose(cov, np.eye(8), atol=1e-6)
        assert z.shape == (50, 8)

    def test_whitened_covariance_offdiag_vanishes(self):
        rng = np.random.default_rng(402)
        x = rng.normal(size=(200, 16)) @ rng.normal(size=(16, 16))  # correlated
        model = ev.fit_whitening(x, out_dim=8)
        raw = (x - model.mean) @ model.projection.T
        cov = raw.T @ raw / (x.shape[0] - 1)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= 1e-6

    def test_scaled_rows_are_orthonormal(self):
        rng = np.random.default_rng(403)
        x = rng.normal(size=(100, 12))
        model = ev.fit_whitening(x, out_dim=6)
        v = model.projection * np.sqrt(model.eigenvalues + ev.EIG_FLOOR)[:, None]
        np.testing.assert_allclose(v @ v.T, np.eye(6), atol=1e-9)

    def test_repeated_sample_is_rank_deficient(self):
        x = np.tile(np.array([1.0, 2.0, 3.0]), (10, 1))
        with pytest.raises(FitError):
            ev.fit_whitening(x, out_dim=2)

    def test_low_rank_data_rejected_at_high_out_dim(self):
        rng = np.random.default_rng(404)
        basis = rng.normal(size=(3, 10))
        x = rng.normal(size=(40, 3)) @ basis  # rank 3
        with pytest.raises(FitError):
            ev.fit_whitening(x, out_dim=5)
        model = ev.fit_whitening(x, out_dim=3)
        assert model.out_dim == 3

    def test_parameter_validation(self):
        rng = np.random.default_rng(405)
        x = rng.normal(size=(20, 4))
        with pytest.raises(ParameterError):
            ev.fit_whitening(x, out_dim=5)
        with pytest.raises(ParameterError):
            ev.fit_whitening(x, out_dim=0)
        with pytest.raises(ParameterError):
            ev.fit_whitening(x[:4], out_dim=4)


class TestApplyWhitening:
    def setup_method(self):
        rng = np.random.default_rng(406)
        self.x = rng.normal(size=(60, 10))
        self.model = ev.fit_whitening(self.x, out_dim=4)

    def test_outputs_unit_norm(self):
        rng = np.random.default_rng(407)
        out = ev.apply_whitening_batch(self.model, rng.normal(size=(20, 10)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_mean_vector_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            ev.apply_whitening_batch(self.model, self.model.mean[None, :].copy())

    def test_empty_batch(self):
        # Whitening normalizes through ag.l2_normalize; no rows is no error.
        out = ev.apply_whitening_batch(self.model, np.zeros((0, 10)))
        assert out.shape == (0, 4)
        assert ag.l2_normalize(np.zeros((0, 4))).shape == (0, 4)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            ev.apply_whitening_batch(self.model, np.zeros((1, 11)))
        with pytest.raises(ShapeError):
            ev.apply_whitening_batch(self.model, np.zeros(10))

    def test_batch_matches_single(self):
        # Each row equals the one-descriptor formula: project, re-normalize.
        rng = np.random.default_rng(408)
        batch = rng.normal(size=(5, 10))
        out = ev.apply_whitening_batch(self.model, batch)
        for i in range(5):
            z = self.model.projection @ (batch[i] - self.model.mean)
            np.testing.assert_allclose(out[i], z / np.linalg.norm(z))


class TestRecall:
    def test_perfect_ranking(self):
        descs = np.eye(4)
        recalls = ev.recall_at_k(descs, np.arange(4.0), descs, np.arange(4.0), ks=(1, 2))
        assert recalls == {1: 1.0, 2: 1.0}

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(409)
        q = rng.normal(size=(20, 8))
        g = rng.normal(size=(100, 8))
        recalls = ev.recall_at_k(
            q, rng.uniform(0, 400, 20), g, rng.uniform(0, 400, 100), ks=(1, 5, 10, 50)
        )
        vals = [recalls[k] for k in (1, 5, 10, 50)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_random_descriptors_match_chance_rate(self):
        rng = np.random.default_rng(410)
        rates, recalls = [], []
        for _ in range(30):
            qp = rng.uniform(0, 400, size=16)
            gp = rng.uniform(0, 400, size=150)
            q = rng.normal(size=(16, 8))
            g = rng.normal(size=(150, 8))
            recalls.append(ev.recall_at_k(q, qp, g, gp, ks=(1,))[1])
            rates.append((np.abs(gp[None, :] - qp[:, None]) <= 25.0).mean())
        assert abs(np.mean(recalls) - np.mean(rates)) < 0.05

    def test_rotation_invariance(self):
        rng = np.random.default_rng(411)
        q = rng.normal(size=(12, 16))
        g = rng.normal(size=(80, 16))
        qp = rng.uniform(0, 400, 12)
        gp = rng.uniform(0, 400, 80)
        base = ev.recall_at_k(q, qp, g, gp)
        rot = random_orthogonal(rng, 16)
        rotated = ev.recall_at_k(q @ rot, qp, g @ rot, gp)
        assert base == rotated

    def test_ties_resolve_to_lowest_id(self):
        q = np.array([[1.0, 0.0]])
        g = np.tile([1.0, 0.0], (5, 1))  # all sims equal
        gp = np.array([100.0, 0.0, 100.0, 100.0, 100.0])
        r = ev.recall_at_k(q, np.array([0.0]), g, gp, ks=(1, 2))
        assert r[1] == 0.0  # id 0 ranked first, 100 m away
        assert r[2] == 1.0  # id 1 within radius

    def test_ties_across_the_kth_place(self):
        # Scores 1, 3, 2, 2, 2, 0: rows 2-4 tie across the second place, and
        # only row 3 is within the radius, so it ranks third, not second.
        g = np.array([[1.0], [3.0], [2.0], [2.0], [2.0], [0.0]])
        gp = np.array([100.0, 100.0, 100.0, 0.0, 100.0, 100.0])
        r = ev.recall_at_k(np.ones((1, 1)), np.zeros(1), g, gp, ks=(1, 2, 3, 6))
        assert r == {1: 0.0, 2: 0.0, 3: 1.0, 6: 1.0}

    def test_parameter_errors(self):
        q = np.zeros((2, 3))
        with pytest.raises(ParameterError):
            ev.recall_at_k(q, np.zeros(2), np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ParameterError):
            ev.recall_at_k(q, np.zeros(2), np.zeros((4, 3)), np.zeros(4), ks=(5,))
        with pytest.raises(ShapeError):
            ev.recall_at_k(q, np.zeros(2), np.zeros((4, 2)), np.zeros(4), ks=(1,))


def full_sort_recall(q, qp, g, gp, ks):
    """Recall@k with every gallery row ranked for every query."""
    hits = {k: 0 for k in ks}
    for i, scores in enumerate(similarities(q, g)):
        close = np.abs(gp[ranked(scores, np.arange(len(g)))] - qp[i]) <= ev.DEFAULT_RADIUS_M
        for k in ks:
            hits[k] += bool(close[:k].any())
    return {k: hits[k] / len(q) for k in ks}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_g=st.integers(1, 30), data=st.data())
def test_recall_matches_a_full_sort_on_tied_scores(seed, n_g, data):
    """Small integer descriptors give integer scores, so many gallery rows
    tie, often across the k-th place; k runs up to the gallery size."""
    ks = tuple(data.draw(st.lists(st.integers(1, n_g), min_size=1, max_size=4, unique=True)))
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    q = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), d)).astype(float)
    g = rng.integers(-2, 3, size=(n_g, d)).astype(float)
    qp = rng.integers(0, 80, size=len(q)).astype(float)
    gp = rng.integers(0, 80, size=n_g).astype(float)
    assert ev.recall_at_k(q, qp, g, gp, ks) == full_sort_recall(q, qp, g, gp, ks)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 10), data=st.data())
def test_whitening_invariants(seed, d, data):
    """On correlated, offset data: the raw projection of the fit set has zero
    mean and identity covariance, and rotating every descriptor before the
    fit leaves recall unchanged."""
    out_dim = data.draw(st.integers(1, d))
    n = data.draw(st.integers(3 * d, 6 * d))
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 3.0, size=d)
    x = rng.normal(size=(n, d)) * scales @ random_orthogonal(rng, d) + rng.normal(size=d)
    model = ev.fit_whitening(x, out_dim)
    raw = (x - model.mean) @ model.projection.T
    np.testing.assert_allclose(raw.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(raw.T @ raw / (n - 1), np.eye(out_dim), atol=1e-6)

    q, g = rng.normal(size=(6, d)), rng.normal(size=(20, d))
    qp, gp = rng.uniform(0, 100, 6), rng.uniform(0, 100, 20)
    rot = random_orthogonal(rng, d)
    rotated = ev.fit_whitening(x @ rot, out_dim)

    def recall(m, r):
        qw, gw = (ev.apply_whitening_batch(m, v @ r) for v in (q, g))
        return ev.recall_at_k(qw, qp, gw, gp, ks=(1, 5))

    assert recall(rotated, rot) == recall(model, np.eye(d))


class TestMetricsCsv:
    def test_exact_formatting(self):
        rows = [
            (1, {1: 0.5, 5: 0.75, 10: 1.0}),
            (2, {1: 0.59375, 5: 0.8125, 10: 1.0}),
        ]
        got = ev.format_metrics_csv(rows)
        assert got == (
            "generation,recall1,recall5,recall10\n"
            "1,0.500,0.750,1.000\n"
            "2,0.594,0.812,1.000\n"
        )
