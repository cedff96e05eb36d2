"""Run configuration: typed defaults, dotted-key config files, digests.

Config files are flat ``section.key = value`` lines (``#`` comments). The
schema is the two dataclasses: each field of ``WorldSpec`` is a
``world.<field>`` key and each field of :class:`RunConfig` a
``train.<field>`` key (six are renamed, see ``_KEY_TO_FIELD``), parsed as
the field's declared type and defaulting to its default. Unknown keys are
errors so typos surface immediately. Command-line flags override file
values, and the effective config is hashed into checkpoints and provenance
records.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .supervision import DEFAULT_TAUS, validate_schedule
from .synthcity import WorldSpec

TAU_START = DEFAULT_TAUS[0]
TAU_STEP = 0.01


@dataclass(frozen=True)
class RunConfig:
    generations: int = 4
    epochs: int = 5
    batch_tuples: int = 4
    k_positives: int = 10
    n_negatives: int = 10
    lam: float = 0.5
    taus: tuple[float, ...] = field(default=(), compare=False)  # as given; see schedule
    # Kept small for this network's gradient scale: from 0.001 up, one large
    # first-step gradient of a re-initialized generation, carried on by
    # momentum, moves every local feature by a common offset. All of them
    # then fall into one VLAD cluster, every descriptor becomes the same and
    # the gradients vanish, so that generation never trains.
    lr: float = 0.0003
    momentum: float = 0.9
    weight_decay: float = 0.001
    seed: int = 0
    workers: int = 1
    freeze_early: bool = False
    use_regions: bool = True
    use_quarters: bool = True
    use_neg_regions: bool = True
    use_soft: bool = True
    const_tau: bool = False
    naive_topk: bool = False
    eval_out_dim: int = 64
    center_init_images: int = 16
    # The resolved label temperatures, one per generation from 2 on.
    schedule: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        """Apply the ablation implications, resolve ``schedule`` from the
        given ``taus`` (empty for the default) and validate, whether built by
        ``RunConfig(...)`` or ``dataclasses.replace``, which so re-derives a
        default schedule. Configs compare by ``schedule``, not ``taus``."""
        if self.naive_topk:
            object.__setattr__(self, "use_soft", False)
            object.__setattr__(self, "use_regions", False)
        if not self.use_regions:
            object.__setattr__(self, "use_neg_regions", False)  # no sub-regions anywhere
        n_taus = self.generations - 1
        if self.const_tau:
            schedule = (TAU_START,) * n_taus
        elif self.taus:
            schedule = self.taus
        else:
            schedule = tuple(round(TAU_START - TAU_STEP * i, 10) for i in range(n_taus))
        object.__setattr__(self, "schedule", schedule)
        try:
            if self.generations < 1:
                raise ConfigError(f"generations must be >= 1, got {self.generations}")
            for name in ("epochs", "batch_tuples", "k_positives", "n_negatives", "workers"):
                if getattr(self, name) < 1:
                    raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
            if self.lam < 0:
                raise ConfigError(f"lambda must be >= 0, got {self.lam}")
            if self.lr <= 0:
                raise ConfigError(f"learning rate must be positive, got {self.lr}")
            if not (0.0 <= self.momentum < 1.0):
                raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
            if self.weight_decay < 0:
                raise ConfigError(f"weight decay must be >= 0, got {self.weight_decay}")
            if self.seed < 0:
                raise ConfigError(f"seed must be non-negative, got {self.seed}")
            if self.eval_out_dim < 1:
                raise ConfigError(f"eval out_dim must be >= 1, got {self.eval_out_dim}")
            if self.center_init_images < 1:
                raise ConfigError("center_init_images must be >= 1")
            if len(self.schedule) != self.generations - 1:
                raise ConfigError(
                    f"schedule needs {self.generations - 1} temperatures, got {len(self.schedule)}"
                )
            if self.schedule:
                validate_schedule(self.schedule, strict=not self.const_tau)
        except ConfigError:
            raise
        except Exception as exc:  # schedule errors surface as config errors
            raise ConfigError(str(exc)) from exc

    @classmethod
    def create(cls, **kw) -> "RunConfig":
        """The same as ``RunConfig(**kw)``."""
        return cls(**kw)

    def canonical_lines(self) -> list[str]:
        """Effective config as dotted-key lines the parser accepts back."""
        # workers is an execution detail; results must not depend on it.
        # train.taus echoes the resolved schedule.
        return _canonical_lines(self, "train", skip=("workers",), taus=self.schedule)


def config_digest(cfg: RunConfig, world_key: str = "") -> str:
    payload = "\n".join(cfg.canonical_lines() + [f"world_key = {world_key}"])
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def world_canonical_lines(spec: WorldSpec) -> list[str]:
    """World fields in the same dotted-key form the config parser accepts."""
    return _canonical_lines(spec, "world")


# Dotted-key schema. Each WorldSpec field is ``world.<field>`` and each
# RunConfig field ``train.<field>``, apart from the renames below; a key's
# value is parsed as its field's declared type.

_KEY_TO_FIELD = {
    "train.lambda": "lam",
    "train.regions": "use_regions",
    "train.quarters": "use_quarters",
    "train.neg_regions": "use_neg_regions",
    "train.soft": "use_soft",
    "eval.out_dim": "eval_out_dim",
}

_FIELD_TO_KEY = {f"train.{field}": key for key, field in _KEY_TO_FIELD.items()}


def _schema(cls, section: str) -> dict:
    """Dotted key -> (field name, declared type) for each field of ``cls``,
    in field-name order."""
    types = typing.get_type_hints(cls)
    schema = {}
    for f in sorted((f for f in fields(cls) if f.init), key=lambda f: f.name):
        key = f"{section}.{f.name}"
        schema[_FIELD_TO_KEY.get(key, key)] = (f.name, types[f.name])
    return schema


_SECTIONS = {"world": _schema(WorldSpec, "world"), "train": _schema(RunConfig, "train")}
_KNOWN = {key: kind for schema in _SECTIONS.values() for key, (_, kind) in schema.items()}


def _canonical_lines(obj, section: str, skip: tuple[str, ...] = (), **values) -> list[str]:
    """``key = value`` lines for a config dataclass, in field-name order;
    ``values`` replaces fields' values by name."""
    out = []
    for key, (name, _) in _SECTIONS[section].items():
        if name in skip:
            continue
        v = values.get(name, getattr(obj, name))
        if isinstance(v, tuple):
            v = ",".join(repr(float(x)) for x in v)
        out.append(f"{key} = {v}")
    return out


def _parse_value(key: str, text: str, kind):
    try:
        if kind is bool:
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if typing.get_origin(kind) is tuple:
            return tuple(float(t) for t in text.split(",") if t.strip())
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc


def parse_config_text(text: str) -> dict:
    """Flat dotted keys to typed values; unknown keys are config errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KNOWN:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, val, _KNOWN[key])
    return values


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _pick(values: dict, section: str) -> dict:
    """Field keyword arguments for one section's keys present in ``values``."""
    return {name: values[key] for key, (name, _) in _SECTIONS[section].items() if key in values}


def world_spec_from(values: dict) -> WorldSpec:
    try:
        return WorldSpec(**_pick(values, "world"))
    except Exception as exc:
        raise ConfigError(f"invalid world spec: {exc}") from exc


def run_config_from(values: dict) -> RunConfig:
    return RunConfig(**_pick(values, "train"))
