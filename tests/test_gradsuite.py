"""Gradient suite tests: coverage of every differentiable op, pass threshold."""

import numpy as np

from regionsim import gradsuite

REQUIRED = {
    "encoder",
    "encoder_stack",
    "vlad_aggregate",
    "vlad_regions",
    "vlad_regions_stack",
    "batched_matmul",
    "take",
    "concat",
    "batch_soft_loss",
    "softmax_temp",
    "soft_cross_entropy",
    "hard_loss",
    "total_loss",
}


class TestSuite:
    def test_covers_every_required_op(self):
        assert {name for name, _ in gradsuite.ALL_CHECKS} == REQUIRED

    def test_all_ops_within_threshold(self):
        errors = gradsuite.run_suite(seed=0)
        assert set(errors) == REQUIRED
        for name, err in errors.items():
            assert np.isfinite(err) and err <= gradsuite.PASS_THRESHOLD, name

    def test_cheap_ops_pass_across_seeds(self):
        rng = np.random.default_rng(11)
        checks = dict(gradsuite.ALL_CHECKS)
        for seed in rng.integers(0, 10_000, size=4):
            for name in ("softmax_temp", "soft_cross_entropy", "hard_loss", "batch_soft_loss"):
                assert checks[name](int(seed)) <= gradsuite.PASS_THRESHOLD

    def test_encoder_stack_passes_where_a_first_draw_meets_a_kink(self):
        # At seed 1 the stream's first (2, 8, 16) stack puts a layer-2
        # pre-activation 7e-7 from the ReLU kink, where central differences
        # read a 7e-2 error; the check draws again until it clears.
        assert gradsuite.check_encoder_stack(1) <= gradsuite.PASS_THRESHOLD
