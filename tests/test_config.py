"""Config parsing tests: dotted keys, defaults, ablation implications."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regionsim import config as cfg_mod
from regionsim.config import RunConfig
from regionsim.errors import ConfigError
from regionsim.synthcity import WorldSpec


class TestRunConfigCreate:
    def test_default_lambda_half(self):
        assert RunConfig().lam == 0.5

    def test_default_schedule_is_annealed(self):
        cfg = RunConfig.create()
        assert cfg.generations == 4
        assert cfg.schedule == (0.07, 0.06, 0.05)

    def test_const_tau_repeats_first_temperature(self):
        cfg = RunConfig.create(const_tau=True)
        assert cfg.schedule == (0.07, 0.07, 0.07)

    def test_single_generation_has_empty_schedule(self):
        cfg = RunConfig.create(generations=1)
        assert cfg.schedule == ()

    def test_explicit_schedule_kept(self):
        cfg = RunConfig.create(generations=3, taus=(0.1, 0.02))
        assert cfg.taus == cfg.schedule == (0.1, 0.02)

    def test_schedule_length_must_match(self):
        with pytest.raises(ConfigError):
            RunConfig.create(generations=4, taus=(0.07, 0.06))

    def test_increasing_schedule_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.create(generations=3, taus=(0.05, 0.06))

    def test_constant_schedule_requires_flag(self):
        with pytest.raises(ConfigError):
            RunConfig.create(generations=3, taus=(0.07, 0.07))

    def test_naive_topk_implies_other_ablations(self):
        cfg = RunConfig.create(naive_topk=True)
        assert not cfg.use_soft
        assert not cfg.use_regions
        assert not cfg.use_neg_regions

    def test_no_regions_disables_negative_regions(self):
        cfg = RunConfig.create(use_regions=False)
        assert not cfg.use_neg_regions

    def test_no_neg_regions_keeps_label_regions(self):
        cfg = RunConfig.create(use_neg_regions=False)
        assert cfg.use_regions
        assert not cfg.use_neg_regions

    @pytest.mark.parametrize(
        "kw",
        [
            {"generations": 0},
            {"epochs": 0},
            {"batch_tuples": 0},
            {"lam": -0.1},
            {"lr": 0.0},
            {"momentum": 1.0},
            {"weight_decay": -1e-9},
            {"seed": -1},
            {"eval_out_dim": 0},
        ],
    )
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            RunConfig.create(**kw)


class TestOneConstructionPath:
    """The constructor, ``create`` and ``dataclasses.replace`` all resolve
    the implications and the schedule, and all validate."""

    def test_constructor_resolves_the_schedule(self):
        assert RunConfig().schedule == (0.07, 0.06, 0.05)
        assert RunConfig(generations=2).schedule == (0.07,)
        assert RunConfig(const_tau=True).schedule == (0.07, 0.07, 0.07)
        assert RunConfig() == RunConfig.create()

    def test_constructor_applies_the_implications(self):
        cfg = RunConfig(naive_topk=True)
        assert not (cfg.use_soft or cfg.use_regions or cfg.use_neg_regions)
        assert not RunConfig(use_regions=False).use_neg_regions

    def test_replace_keeps_the_implications(self):
        cfg = replace(RunConfig.create(), naive_topk=True)
        assert not (cfg.use_soft or cfg.use_regions or cfg.use_neg_regions)
        assert cfg == RunConfig.create(naive_topk=True)
        assert not replace(RunConfig.create(), use_regions=False).use_neg_regions

    def test_replace_against_a_stale_schedule_is_rejected(self):
        explicit = RunConfig(taus=(0.07, 0.06, 0.05))
        with pytest.raises(ConfigError, match="schedule needs 1 temperatures, got 3"):
            replace(explicit, generations=2)
        assert replace(explicit, generations=2, taus=()).schedule == (0.07,)

    def test_replace_re_derives_a_default_schedule(self):
        assert RunConfig().taus == ()
        assert replace(RunConfig(), generations=2).schedule == (0.07,)
        assert replace(RunConfig(const_tau=True), const_tau=False).schedule == (0.07, 0.06, 0.05)
        assert replace(RunConfig(), const_tau=True).schedule == (0.07, 0.07, 0.07)
        # The digest reads the resolved schedule, however it was given.
        assert replace(RunConfig(), generations=2) == RunConfig(generations=2)
        assert cfg_mod.config_digest(RunConfig(), "w") == cfg_mod.config_digest(
            RunConfig(taus=(0.07, 0.06, 0.05)), "w"
        )

    def test_constructor_and_replace_validate(self):
        with pytest.raises(ConfigError):
            RunConfig(epochs=0)
        with pytest.raises(ConfigError):
            replace(RunConfig.create(), lr=0.0)


class TestConfigDigest:
    def test_digest_is_stable(self):
        a = cfg_mod.config_digest(RunConfig.create(), "w1")
        b = cfg_mod.config_digest(RunConfig.create(), "w1")
        assert a == b and len(a) == 16

    def test_digest_sees_config_and_world(self):
        base = cfg_mod.config_digest(RunConfig.create(), "w1")
        assert cfg_mod.config_digest(RunConfig.create(seed=1), "w1") != base
        assert cfg_mod.config_digest(RunConfig.create(), "w2") != base

    @pytest.mark.parametrize(
        "kw, digest",
        [
            ({}, "3bdbf7b6c65922a0"),
            ({"naive_topk": True}, "caf7e6e2d8eb0758"),
            ({"use_regions": False}, "6d36498d79bce18f"),
            ({"use_quarters": False}, "8a6799bbbcca3cbe"),
            ({"const_tau": True}, "c01b8133a3234fdf"),
            ({"generations": 1}, "3f295e481c6ddafe"),
        ],
    )
    def test_golden_digests(self, kw, digest):
        # Checkpoints carry this hash, so it must never drift.
        assert cfg_mod.config_digest(RunConfig.create(**kw), "w") == digest

    def test_digest_sees_every_temperature_digit(self):
        def digest(taus):
            return cfg_mod.config_digest(RunConfig.create(generations=3, taus=taus), "w")

        assert digest((0.1, 0.0123456789123)) == "46beb233db5de4e1"
        assert digest((0.1, 0.0123456789124)) == "c11271ede01c98ee"
        assert digest((1.0, 0.5)) == "9ce4d01af0a61398"
        echo = RunConfig.create(generations=3, taus=(1.0, 0.0123456789123)).canonical_lines()
        assert "train.taus = 1.0,0.0123456789123" in echo

    def test_golden_world_lines(self):
        assert cfg_mod.world_canonical_lines(WorldSpec()) == [
            "world.heading_balance = 0.5",
            "world.image_height = 32",
            "world.image_width = 96",
            "world.length_m = 400.0",
            "world.n_test_gallery = 256",
            "world.n_test_queries = 64",
            "world.n_train_gallery = 256",
            "world.n_train_queries = 64",
            "world.noise_sigma_m = 5.0",
            "world.seed = 0",
            "world.window_m = 12.0",
        ]

    def test_worker_count_is_not_part_of_the_digest(self):
        a = cfg_mod.config_digest(RunConfig.create(workers=1), "w")
        b = cfg_mod.config_digest(RunConfig.create(workers=8), "w")
        assert a == b


class TestConfigText:
    def test_parses_dotted_keys_and_comments(self):
        text = """
        # experiment
        train.generations = 2
        train.lambda = 0.25   # loss weight
        train.soft = false
        world.length_m = 250.0
        eval.out_dim = 32
        """
        values = cfg_mod.parse_config_text(text)
        assert values["train.generations"] == 2
        assert values["train.lambda"] == 0.25
        assert values["train.soft"] is False
        assert values["world.length_m"] == 250.0
        assert values["eval.out_dim"] == 32

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            cfg_mod.parse_config_text("train.generaions = 4")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            cfg_mod.parse_config_text("train.generations 4")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            cfg_mod.parse_config_text("train.generations = four")
        with pytest.raises(ConfigError, match="bad value"):
            cfg_mod.parse_config_text("train.soft = maybe")

    def test_tau_list_parses(self):
        values = cfg_mod.parse_config_text("train.taus = 0.1, 0.05")
        assert values["train.taus"] == (0.1, 0.05)

    def test_round_trip_into_run_config(self):
        values = cfg_mod.parse_config_text(
            "train.generations = 3\ntrain.naive_topk = true\ntrain.seed = 7"
        )
        cfg = cfg_mod.run_config_from(values)
        assert cfg.generations == 3
        assert cfg.seed == 7
        assert not cfg.use_soft

    def test_world_spec_from_values(self):
        values = cfg_mod.parse_config_text(
            "world.seed = 5\nworld.length_m = 200\nworld.n_train_queries = 16"
        )
        spec = cfg_mod.world_spec_from(values)
        assert spec.seed == 5
        assert spec.length_m == 200.0
        assert spec.n_train_queries == 16

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            cfg_mod.load_config_file(str(tmp_path / "nope.cfg"))

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("train.epochs = 2\nworld.window_m = 10\n")
        values = cfg_mod.load_config_file(str(p))
        assert values == {"train.epochs": 2, "world.window_m": 10.0}


counts = st.integers(1, 10**6)
finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def run_configs(draw):
    generations = draw(st.integers(1, 6))
    # Any distinct positive finite temperatures, every digit significant.
    taus = draw(st.lists(st.floats(0.0, exclude_min=True, **finite), min_size=generations - 1,
                         max_size=generations - 1, unique=True))
    return RunConfig.create(
        generations=generations,
        taus=tuple(sorted(taus, reverse=True)),
        const_tau=draw(st.booleans()),
        epochs=draw(counts),
        batch_tuples=draw(counts),
        k_positives=draw(counts),
        n_negatives=draw(counts),
        workers=draw(counts),
        eval_out_dim=draw(counts),
        center_init_images=draw(counts),
        lam=draw(st.floats(0.0, 1e6, **finite)),
        lr=draw(st.floats(0.0, 1e6, exclude_min=True, **finite)),
        momentum=draw(st.floats(0.0, 1.0, exclude_max=True)),
        weight_decay=draw(st.floats(0.0, 1e6, **finite)),
        seed=draw(st.integers(0, 2**32)),
        freeze_early=draw(st.booleans()),
        use_regions=draw(st.booleans()),
        use_quarters=draw(st.booleans()),
        use_neg_regions=draw(st.booleans()),
        use_soft=draw(st.booleans()),
        naive_topk=draw(st.booleans()),
    )


@st.composite
def world_specs(draw):
    length = draw(st.floats(1e-3, 1e6, **finite))
    return WorldSpec(
        seed=draw(st.integers(0, 2**32)),
        length_m=length,
        window_m=draw(st.floats(0.0, length, exclude_min=True, exclude_max=True)),
        image_height=draw(st.integers(8, 4096)),
        image_width=draw(st.integers(8, 4096)),
        noise_sigma_m=draw(st.floats(0.0, 1e3, **finite)),
        heading_balance=draw(st.floats(0.0, 1.0)),
        n_train_queries=draw(counts),
        n_train_gallery=draw(counts),
        n_test_queries=draw(counts),
        n_test_gallery=draw(counts),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs(), spec=world_specs())
def test_canonical_lines_parse_back_to_themselves(cfg, spec):
    """The run.json config echo: every field of both dataclasses has a key
    the parser reads back as the same value."""
    lines = cfg_mod.world_canonical_lines(spec) + cfg.canonical_lines()
    values = cfg_mod.parse_config_text("\n".join(lines))
    back = cfg_mod.world_spec_from(values), cfg_mod.run_config_from(values)
    # The echo leaves out the worker count, which changes no result.
    assert back == (spec, replace(cfg, workers=RunConfig.workers))
    assert cfg_mod.world_canonical_lines(back[0]) + back[1].canonical_lines() == lines
