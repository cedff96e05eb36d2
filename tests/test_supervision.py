"""Supervision tests: label layout, loss identities, gradient structure."""

import math

import numpy as np
import pytest

from _oracles import per_positive_soft_labels
from regionsim import autograd as ag
from regionsim import encoder as enc
from regionsim import supervision as sup
from regionsim import vlad
from regionsim.errors import IntegrityError, ParameterError
from regionsim.model import init_model
from regionsim.regions import ALL_REGION_IDS, HALVES_ONLY_IDS


def naive_pairwise_softmax_loss(qp, qns):
    # Log-ratio form evaluated term by term; overflows only for |sims| >> 1.
    total = 0.0
    for qn in qns:
        total += -math.log(math.exp(qp) / (math.exp(qp) + math.exp(qn)))
    return total


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def unit_center_params(d):
    # One center at the origin over 1x1 maps: a map holding x aggregates to
    # x / |x|, so the frozen examples can fix their descriptors.
    return vlad.VladParams(centers=ag.parameter(np.zeros((1, d))))


def one_pixel_maps(descs):
    return [np.asarray(v, dtype=np.float64)[:, None, None] for v in descs]


def region_matrices(params, fms, region_ids=ALL_REGION_IDS):
    """Each map's (R, K*D) region matrix, as the teacher describes a positive."""
    return [vlad.aggregate_regions(params.as_arrays(), fm, region_ids) for fm in fms]


class TestImageSoftLabels:
    """Image-level labels: ``region_soft_labels`` on the full map only."""

    def test_frozen_two_positive_example(self):
        q = np.array([1.0, 0.0])
        fms = one_pixel_maps([[0.9, np.sqrt(1 - 0.81)], [0.7, np.sqrt(1 - 0.49)]])
        mats = region_matrices(unit_center_params(2), fms, (0,))
        rec = sup.region_soft_labels(
            q, [4, 9], mats, tau=0.07, generation=1, query_id=2, region_ids=(0,)
        )
        np.testing.assert_allclose(np.round(rec.weights, 4), [0.9457, 0.0543])
        assert rec.entries == ((4, 0), (9, 0))
        assert rec.generation == 1 and rec.tau == 0.07

    def test_equal_sims_give_uniform(self):
        q = np.array([1.0, 0.0])
        fms = one_pixel_maps([[0.5, 0.3]] * 4)
        mats = region_matrices(unit_center_params(2), fms, (0,))
        rec = sup.region_soft_labels(q, [0, 1, 2, 3], mats, 0.07, 1, region_ids=(0,))
        np.testing.assert_allclose(rec.weights, [0.25] * 4, atol=1e-12)

    def test_single_positive_gets_full_weight(self):
        q = np.ones(3) / np.sqrt(3.0)
        fms = one_pixel_maps([np.ones(3)])
        mats = region_matrices(unit_center_params(3), fms, (0,))
        rec = sup.region_soft_labels(q, [7], mats, 0.05, 2, region_ids=(0,))
        np.testing.assert_allclose(rec.weights, [1.0])
        assert rec.entries == ((7, 0),)

    def test_weights_always_sum_to_one(self):
        rng = np.random.default_rng(201)
        params = vlad.VladParams(centers=ag.parameter(rng.normal(size=(4, 3))), alpha=2.0)
        for _ in range(50):
            k = int(rng.integers(1, 12))
            fms = [rng.normal(size=(3, 2, 4)) for _ in range(k)]
            q = unit_rows(rng, 1, 12)[0]
            mats = region_matrices(params, fms, (0,))
            rec = sup.region_soft_labels(q, list(range(k)), mats, 0.06, 2, region_ids=(0,))
            assert abs(sum(rec.weights) - 1.0) <= 1e-6
            assert rec.entries == tuple((i, 0) for i in range(k))


class TestRegionSoftLabels:
    def make_params(self, seed=0):
        rng = np.random.default_rng(seed)
        return vlad.VladParams(centers=ag.parameter(rng.normal(size=(4, 3))), alpha=2.0)

    def test_constant_positive_is_uniform_over_nine(self):
        params = self.make_params()
        fm = np.tile(np.array([0.4, -0.1, 0.2])[:, None, None], (1, 4, 6))
        q = np.ones(12) / np.sqrt(12.0)
        rec = sup.region_soft_labels(q, [3], region_matrices(params, [fm]), 0.07, 1)
        assert len(rec.entries) == 9
        np.testing.assert_allclose(rec.weights, [1.0 / 9] * 9, atol=1e-9)

    def test_entry_order_is_per_positive_blocks(self):
        params = self.make_params(1)
        rng = np.random.default_rng(202)
        fms = [rng.normal(size=(3, 4, 6)) for _ in range(2)]
        q = unit_rows(rng, 1, 12)[0]
        rec = sup.region_soft_labels(q, [11, 5], region_matrices(params, fms), 0.07, 1)
        assert rec.entries == sup.expected_entries([11, 5], ALL_REGION_IDS)
        assert len(rec.entries) == 18
        sup.validate_record(rec, ALL_REGION_IDS)

    def test_planted_dominant_region_wins(self):
        params = self.make_params(2)
        c = params.centers.data
        v = np.array([0.3, -0.5, 0.8])
        v /= np.linalg.norm(v)
        q_fm = np.tile((c[0] + 0.2 * v)[:, None, None], (1, 2, 4))
        q = vlad.aggregate(params.as_arrays(), q_fm)
        match = np.tile((c[0] + 0.2 * v)[:, None, None], (1, 4, 8))
        clash = np.tile((c[1] - 0.2 * v)[:, None, None], (1, 4, 8))
        # Second positive's top-right quarter carries the matching texture.
        planted = clash.copy()
        planted[:, 0:2, 4:8] = (c[0] + 0.2 * v)[:, None, None]
        mats = region_matrices(params, [clash, planted])
        rec = sup.region_soft_labels(q, [0, 1], mats, 0.07, 1)
        top_entry = rec.entries[int(np.argmax(rec.weights))]
        assert top_entry == (1, 6)

    def test_halves_only_mode(self):
        params = self.make_params(3)
        rng = np.random.default_rng(203)
        fm = rng.normal(size=(3, 4, 6))
        q = unit_rows(rng, 1, 12)[0]
        mats = region_matrices(params, [fm], HALVES_ONLY_IDS)
        rec = sup.region_soft_labels(q, [2], mats, 0.07, 1, region_ids=HALVES_ONLY_IDS)
        assert rec.entries == ((2, 0), (2, 1), (2, 2), (2, 3), (2, 4))
        sup.validate_record(rec, HALVES_ONLY_IDS)

    def test_matches_per_positive_oracle_on_encodings(self):
        rng = np.random.default_rng(218)
        images = rng.uniform(0.0, 1.0, size=(10, 32, 96))
        model = init_model(5, images[:4])
        fms = [enc.encode(model.encoder.as_arrays(), img) for img in images[4:9]]
        q = vlad.aggregate(model.vlad.as_arrays(), enc.encode(model.encoder.as_arrays(), images[9]))
        ids = [4, 1, 8, 0, 6]
        for region_ids in (ALL_REGION_IDS, HALVES_ONLY_IDS, (0,)):
            mats = region_matrices(model.vlad, fms, region_ids)
            got = sup.region_soft_labels(q, ids, mats, 0.06, 2, query_id=3, region_ids=region_ids)
            want = per_positive_soft_labels(
                q, ids, fms, model.vlad, 0.06, 2, query_id=3, region_ids=region_ids
            )
            assert got == want

    def test_matches_per_positive_oracle_on_odd_sizes(self):
        rng = np.random.default_rng(216)
        for _ in range(20):
            params = vlad.VladParams(centers=ag.parameter(rng.normal(size=(3, 5))), alpha=3.0)
            h, w = (int(v) for v in rng.integers(1, 8, size=2))
            fms = [rng.normal(size=(5, h, w)) for _ in range(int(rng.integers(1, 7)))]
            q = unit_rows(rng, 1, 15)[0]
            ids = list(range(len(fms)))
            got = sup.region_soft_labels(q, ids, region_matrices(params, fms), 0.07, 1)
            want = per_positive_soft_labels(q, ids, fms, params, 0.07, 1)
            assert got.entries == want.entries
            np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-15)

    def test_validate_rejects_shuffled_entries(self):
        rec = sup.SoftLabelRecord(
            query_id=0,
            generation=1,
            tau=0.07,
            entries=((5, 1), (5, 0)),
            weights=(0.5, 0.5),
        )
        with pytest.raises(IntegrityError):
            sup.validate_record(rec, (0, 1))


class TestRegionSims:
    def setup(self, seed):
        rng = np.random.default_rng(seed)
        q = ag.parameter(unit_rows(rng, 1, 8)[0])
        mats = {gid: ag.parameter(unit_rows(rng, 5, 8)) for gid in (7, 3)}
        rec = sup.SoftLabelRecord(
            query_id=0,
            generation=1,
            tau=0.07,
            entries=sup.expected_entries([7, 3], HALVES_ONLY_IDS),
            weights=(0.1,) * 10,
        )
        return q, mats, rec

    def test_matches_per_entry_dot_products(self):
        q, mats, rec = self.setup(210)
        sims = sup.region_sims(q, [mats[gid] for gid in rec.positive_ids])
        want = [float(mats[gid].data[rid] @ q.data) for gid, rid in rec.entries]
        assert sims.shape == (10,)
        np.testing.assert_allclose(sims.data, want, rtol=0, atol=1e-15)

    def test_gradients_reach_query_and_regions(self):
        q, mats, rec = self.setup(211)
        wts = np.random.default_rng(212).normal(size=10)

        def fn():
            sims = sup.region_sims(q, [mats[gid] for gid in rec.positive_ids])
            return ag.dot(sims, ag.constant(wts))

        assert ag.grad_check(fn, [q, *mats.values()]) <= 1e-4

    def test_short_region_matrix_is_a_length_mismatch(self):
        q, mats, rec = self.setup(213)
        sims = sup.region_sims(q, [mats[gid][0:4] for gid in rec.positive_ids])
        with pytest.raises(IntegrityError):
            sup.soft_loss(sims, rec)

    def test_arrays_give_the_tensor_bits(self):
        q, mats, rec = self.setup(214)
        arrays = [mats[gid].data for gid in rec.positive_ids]
        got = sup.region_sims(q.data, arrays)
        want = sup.region_sims(q, [mats[gid] for gid in rec.positive_ids])
        assert isinstance(got, np.ndarray) and isinstance(want, ag.Tensor)
        assert np.array_equal(got, want.data)
        # A (P, R, K*D) stack is a sequence of region matrices too.
        assert np.array_equal(sup.region_sims(q.data, np.stack(arrays)), got)

    def test_positive_ids_keep_entry_order(self):
        _, _, rec = self.setup(215)
        assert rec.positive_ids == (7, 3)
        rec = sup.SoftLabelRecord(0, 1, 0.07, ((9, 0), (2, 0), (9, 1), (4, 0)), (0.25,) * 4)
        assert rec.positive_ids == (9, 2, 4)


class TestHardLoss:
    def test_balanced_pairs(self):
        q = ag.constant([1.0, 0.0])
        p = ag.constant([0.5, 0.5])
        negs = [ag.constant([0.5, 0.5]) for _ in range(10)]
        val = sup.hard_loss(q, p, negs).item()
        np.testing.assert_allclose(val, 10.0 * math.log(2.0), atol=1e-12)
        assert round(val, 4) == 6.9315

    def test_unit_margin_single_negative(self):
        q = ag.constant([1.0, 0.0])
        p = ag.constant([1.0, 0.0])
        n = ag.constant([0.0, 1.0])
        val = sup.hard_loss(q, p, [n]).item()
        np.testing.assert_allclose(val, math.log(1.0 + math.exp(-1.0)), atol=1e-12)
        assert round(val, 4) == 0.3133

    def test_large_margin_drives_loss_to_zero(self):
        q = ag.constant(np.eye(2)[0] * 40.0)  # exaggerated scores
        p = ag.constant([1.0, 0.0])
        n = ag.constant([-1.0, 0.0])
        assert sup.hard_loss(q, p, [n]).item() < 1e-9

    def test_matches_log_ratio_oracle(self):
        rng = np.random.default_rng(204)
        for _ in range(200):
            d = 8
            q = unit_rows(rng, 1, d)[0]
            p = unit_rows(rng, 1, d)[0]
            negs = unit_rows(rng, int(rng.integers(1, 12)), d)
            got = sup.hard_loss(
                ag.constant(q), ag.constant(p), [ag.constant(n) for n in negs]
            ).item()
            want = naive_pairwise_softmax_loss(float(q @ p), [float(q @ n) for n in negs])
            assert abs(got - want) <= 1e-9

    def test_monotone_in_positive_similarity(self):
        rng = np.random.default_rng(205)
        q = unit_rows(rng, 1, 4)[0]
        negs = [ag.constant(n) for n in unit_rows(rng, 5, 4)]
        vals = []
        for qp in (-0.5, 0.0, 0.5, 0.9):
            # Positive engineered to have exactly this dot with the query.
            orth = unit_rows(rng, 1, 4)[0]
            orth -= (orth @ q) * q
            orth /= np.linalg.norm(orth)
            p = qp * q + math.sqrt(1 - qp**2) * orth
            vals.append(sup.hard_loss(ag.constant(q), ag.constant(p), negs).item())
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_empty_negatives(self):
        with pytest.raises(ParameterError):
            sup.hard_loss(ag.constant([1.0]), ag.constant([1.0]), [])

    def test_gradients_flow_to_all_descriptors(self):
        rng = np.random.default_rng(206)
        q = ag.parameter(unit_rows(rng, 1, 4)[0])
        p = ag.parameter(unit_rows(rng, 1, 4)[0])
        n = ag.parameter(unit_rows(rng, 1, 4)[0])

        def fn():
            return sup.hard_loss(q, p, [n])

        assert ag.grad_check(fn, [q, p, n]) <= 1e-4


class TestSoftLoss:
    def make_record(self, weights):
        entries = tuple((i, 0) for i in range(len(weights)))
        return sup.SoftLabelRecord(0, 1, 0.07, entries, tuple(weights))

    def test_matching_distribution_gives_entropy(self):
        rng = np.random.default_rng(207)
        target = rng.dirichlet(np.ones(6))
        sims = np.log(target)  # softmax(log p) = p
        rec = self.make_record(target)
        got = sup.soft_loss(ag.constant(sims), rec).item()
        want = float(-(target * np.log(target)).sum())
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_one_hot_target_is_neg_log_prob(self):
        sims = np.array([2.0, 1.0, -1.0])
        rec = self.make_record([0.0, 1.0, 0.0])
        student = ag.softmax_temp(np.array(sims), 1.0)
        got = sup.soft_loss(ag.constant(sims), rec).item()
        np.testing.assert_allclose(got, -math.log(student[1]), atol=1e-12)

    def test_matches_two_step_oracle_on_18_entries(self):
        rng = np.random.default_rng(208)
        for _ in range(100):
            sims = rng.normal(size=18)
            target = rng.dirichlet(np.ones(18))
            rec = self.make_record(target)
            got = sup.soft_loss(ag.constant(sims), rec).item()
            e = np.exp(sims / 1.0)
            student = e / e.sum()
            want = float(-(target * np.log(student)).sum())
            assert abs(got - want) <= 1e-9

    def test_gradient_is_student_minus_target(self):
        rng = np.random.default_rng(209)
        for _ in range(20):
            sims = ag.parameter(rng.normal(size=9))
            target = rng.dirichlet(np.ones(9))
            rec = self.make_record(target)
            out = sup.soft_loss(sims, rec)
            out.backward()
            e = np.exp(sims.data)
            student = e / e.sum()
            np.testing.assert_allclose(sims.grad, student - target, atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(210)
        sims = ag.parameter(rng.normal(size=7))
        target = rng.dirichlet(np.ones(7))
        rec = self.make_record(target)

        def fn():
            return sup.soft_loss(sims, rec)

        assert ag.grad_check(fn, [sims]) <= 1e-4

    def test_rejects_length_mismatch(self):
        rec = self.make_record([0.5, 0.5])
        with pytest.raises(IntegrityError):
            sup.soft_loss(ag.constant(np.zeros(3)), rec)


class TestBatchedForms:
    """The score matrix and the batched losses against per-entry and
    per-tuple forms, with padded positives and padded soft columns."""

    def records(self, rng, widths):
        out = []
        for width in widths:
            weights = rng.dirichlet(np.ones(width))
            out.append(sup.SoftLabelRecord(0, 1, 0.07, tuple((i, 0) for i in range(width)),
                                           tuple(weights)))
        return out

    def test_score_matrix_reads_its_index(self):
        rng = np.random.default_rng(216)
        rows, queries = rng.normal(size=(6, 8)), rng.normal(size=(2, 8))
        index = np.array([[0, 5, 5], [3, 1, 0]])
        got = sup.score_matrix(ag.constant(queries), ag.constant(rows), index)
        want = [[rows[i] @ queries[t] for i in row] for t, row in enumerate(index)]
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-15)
        assert np.array_equal(sup.score_matrix(queries, rows, index), got.data)

    def test_region_sims_are_the_per_matrix_products(self):
        # The teacher's label bits: each positive's R scores are one product
        # against its own region matrix, whatever the other positives.
        rng = np.random.default_rng(217)
        q = rng.normal(size=24)
        for p, r in ((1, 9), (3, 9), (7, 5), (4, 1)):
            mats = [rng.normal(size=(r, 24)) for _ in range(p)]
            want = np.concatenate([m @ q for m in mats])
            assert np.array_equal(sup.region_sims(q, mats), want)

    def test_padded_soft_rows_equal_one_row_losses(self):
        rng = np.random.default_rng(218)
        widths = (6, 4, 2)
        sims = ag.parameter(rng.normal(size=(3, 6)))
        records = self.records(rng, widths)
        out = sup.batch_soft_loss(sims, records)
        want = sum(
            sup.soft_loss(ag.constant(row[:w]), rec).item()
            for row, w, rec in zip(sims.data, widths, records)
        )
        assert abs(out.item() - want) <= 1e-12
        out.backward()
        for row, grad, w, rec in zip(sims.data, sims.grad, widths, records):
            e = np.exp(row[:w] - row[:w].max())
            np.testing.assert_allclose(grad[:w], e / e.sum() - rec.weights, atol=1e-12)
            assert np.all(grad[w:] == 0.0)

    def test_records_must_fit_the_rows(self):
        records = self.records(np.random.default_rng(219), (3, 2))
        for shape in ((2, 2), (3, 3), (1, 3)):
            with pytest.raises(IntegrityError, match="do not fit"):
                sup.batch_soft_loss(ag.constant(np.zeros(shape)), records)

    def test_weighted_hard_loss_equals_per_positive_sums(self):
        rng = np.random.default_rng(220)
        pos = ag.parameter(rng.normal(size=(2, 3)))
        neg = ag.parameter(rng.normal(size=(2, 4)))
        # Tuple 0 has three positives averaged; tuple 1 one, padded to three.
        weights = np.array([[1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0]])
        out = sup.batch_hard_loss(pos, neg, weights)
        want = sum(
            w * naive_pairwise_softmax_loss(float(pos.data[t, p]), neg.data[t].tolist())
            for (t, p), w in np.ndenumerate(weights)
        )
        assert abs(out.item() - want) <= 1e-12
        out.backward()
        assert np.all(pos.grad[1, 1:] == 0.0) and np.all(pos.grad[0] != 0.0)


class TestTotalLoss:
    def test_zero_lambda_is_hard_only(self):
        h, s = ag.constant(3.25), ag.constant(99.0)
        assert sup.total_loss(h, s, lam=0.0).item() == 3.25

    def test_frozen_arithmetic_example(self):
        h = ag.constant(6.9315)
        s = ag.constant(1.3863)
        np.testing.assert_allclose(sup.total_loss(h, s, 0.5).item(), 7.62465, atol=1e-12)
        np.testing.assert_allclose(sup.total_loss(h, s, 0.5).item(), 7.6247, atol=1e-4)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ParameterError):
            sup.total_loss(ag.constant(1.0), ag.constant(1.0), lam=-0.1)


class TestSchedule:
    def test_default_is_decreasing(self):
        assert sup.validate_schedule(sup.DEFAULT_TAUS) == (0.07, 0.06, 0.05)

    def test_rejects_non_decreasing_when_strict(self):
        with pytest.raises(ParameterError):
            sup.validate_schedule((0.07, 0.07, 0.05))
        with pytest.raises(ParameterError):
            sup.validate_schedule((0.05, 0.06))

    def test_constant_allowed_when_relaxed(self):
        assert sup.validate_schedule((0.07, 0.07, 0.07), strict=False)
        with pytest.raises(ParameterError):
            sup.validate_schedule((0.07, 0.08), strict=False)

    def test_rejects_non_positive(self):
        with pytest.raises(ParameterError):
            sup.validate_schedule((0.07, 0.0))


class TestSerialization:
    def test_round_trip_preserves_layout(self):
        rng = np.random.default_rng(211)
        w = rng.dirichlet(np.ones(18))
        entries = sup.expected_entries([4, 7], ALL_REGION_IDS)
        rec = sup.SoftLabelRecord(3, 2, 0.06, entries, tuple(w))
        line = sup.format_record(rec)
        back = sup.parse_record(line)
        assert back.query_id == 3 and back.generation == 2 and back.tau == 0.06
        assert back.entries == rec.entries
        np.testing.assert_allclose(back.weights, rec.weights, atol=1e-8)

    def test_nine_significant_digit_weights(self):
        rec = sup.SoftLabelRecord(0, 1, 0.07, ((1, 0), (2, 0)), (1.0 / 3, 2.0 / 3))
        line = sup.format_record(rec)
        assert "0.333333333" in line and "0.666666667" in line

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(212)
        recs = []
        for q in range(5):
            w = rng.dirichlet(np.ones(9))
            recs.append(
                sup.SoftLabelRecord(q, 1, 0.07, sup.expected_entries([q + 10], ALL_REGION_IDS), tuple(w))
            )
        path = tmp_path / "labels.txt"
        sup.write_label_file(path, recs)
        back = sup.read_label_file(path)
        assert [r.query_id for r in back] == [0, 1, 2, 3, 4]
        assert back[2].entries == recs[2].entries

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(IntegrityError):
            sup.parse_record("1 2")
        with pytest.raises(IntegrityError):
            sup.parse_record("1 2 0.07 5 0")
        with pytest.raises(IntegrityError):
            sup.parse_record("1 2 0.07 5 zero 0.5 6 0 0.5")

    def test_record_rejects_bad_weight_sum(self):
        with pytest.raises(IntegrityError):
            sup.SoftLabelRecord(0, 1, 0.07, ((1, 0), (2, 0)), (0.6, 0.6))
