"""Self-describing checkpoint files: text header + raw float32 payloads.

The header lists version, generation, epoch, seed, config hash, and one
``tensor <name> <dims...>`` line per array (parameters first, then momentum
buffers); payloads follow in header order as little-endian 32-bit floats,
row-major. Everything needed to resume or evaluate is in the file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .atomic import atomic_open
from .encoder import CHANNELS, KERNEL, EncoderParams
from .errors import DatasetError, IntegrityError, SequencingError
from .model import Model
from .vlad import VladParams

MAGIC = "regionsim-checkpoint"
VERSION = 1
STORAGE_DTYPE = "<f4"  # little-endian float32, the payload type of every tensor

PARAM_NAMES = (
    "conv1.weight",
    "conv1.bias",
    "conv2.weight",
    "conv2.bias",
    "conv3.weight",
    "conv3.bias",
    "vlad.centers",
)


@dataclass
class Checkpoint:
    generation: int
    epoch: int
    seed: int
    config_hash: str
    tensors: list[tuple[str, np.ndarray]]  # fixed order, float64 in memory

    def __post_init__(self):
        if self.generation < 1:
            raise SequencingError(f"generation index must be >= 1, got {self.generation}")

    def named(self) -> dict[str, np.ndarray]:
        return dict(self.tensors)


def from_model(
    model: Model,
    velocities: list[np.ndarray],
    generation: int,
    epoch: int,
    seed: int,
    config_hash: str,
) -> Checkpoint:
    params = model.parameters()
    if len(velocities) != len(params):
        raise IntegrityError("one momentum buffer per parameter is required")
    tensors = [(name, p.data.copy()) for name, p in zip(PARAM_NAMES, params)]
    tensors += [(f"mom.{name}", v.copy()) for name, v in zip(PARAM_NAMES, velocities)]
    return Checkpoint(generation, epoch, seed, config_hash, tensors)


def to_model(ckpt: Checkpoint) -> tuple[Model, list[np.ndarray]]:
    """Rebuild a trainable model and momentum buffers from a checkpoint."""
    named = ckpt.named()
    missing = [n for n in PARAM_NAMES if n not in named]
    if missing:
        raise IntegrityError(f"checkpoint is missing tensors: {missing}")
    weights, biases = [], []
    for i, (cin, cout) in enumerate(zip(CHANNELS, CHANNELS[1:]), start=1):
        w = named[f"conv{i}.weight"]
        b = named[f"conv{i}.bias"]
        if w.shape != (cout, cin, KERNEL, KERNEL) or b.shape != (cout,):
            raise IntegrityError(f"conv{i} tensor shapes are inconsistent: {w.shape}")
        weights.append(ag.parameter(w))
        biases.append(ag.parameter(b))
    model = Model(
        encoder=EncoderParams(weights, biases),
        vlad=VladParams(centers=ag.parameter(named["vlad.centers"])),
    )
    velocities = []
    for name, p in zip(PARAM_NAMES, model.parameters()):
        v = named.get(f"mom.{name}")
        if v is None or v.shape != p.data.shape:
            raise IntegrityError(f"momentum buffer for {name} is missing or misshapen")
        velocities.append(v.astype(np.float64).copy())
    return model, velocities


def quantize_checkpoint(ckpt: Checkpoint) -> Checkpoint:
    """Round every tensor through storage precision (:data:`STORAGE_DTYPE`).

    Downstream consumers (label mining, evaluation) always read a previous
    generation at file precision, whether or not it ever hit disk.
    """
    tensors = [(n, a.astype(STORAGE_DTYPE).astype(np.float64)) for n, a in ckpt.tensors]
    return Checkpoint(ckpt.generation, ckpt.epoch, ckpt.seed, ckpt.config_hash, tensors)


def save_checkpoint(ckpt: Checkpoint, path: str):
    lines = [
        f"{MAGIC} {VERSION}",
        f"generation {ckpt.generation}",
        f"epoch {ckpt.epoch}",
        f"seed {ckpt.seed}",
        f"config_hash {ckpt.config_hash}",
    ]
    for name, arr in ckpt.tensors:
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {dims}".rstrip())
    lines.append("end")
    with atomic_open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for _, arr in ckpt.tensors:
            fh.write(np.ascontiguousarray(arr, dtype=STORAGE_DTYPE).tobytes())


def load_checkpoint(path: str) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DatasetError(f"unreadable checkpoint {path}: {exc}") from exc
    sep = raw.find(b"end\n")
    if sep < 0:
        raise DatasetError(f"checkpoint {path} has no header terminator")
    header = raw[:sep].decode("ascii", errors="replace").splitlines()
    payload = raw[sep + 4 :]
    if not header or not header[0].startswith(MAGIC):
        raise DatasetError(f"{path} is not a checkpoint file")
    version = header[0].split()[-1]
    if version != str(VERSION):
        raise DatasetError(f"unsupported checkpoint version {version}")

    fields: dict[str, str] = {}
    specs: list[tuple[str, tuple[int, ...]]] = []
    for line in header[1:]:
        tok = line.split()
        if not tok:
            continue
        if tok[0] == "tensor":
            try:
                specs.append((tok[1], tuple(int(d) for d in tok[2:])))
            except ValueError as exc:
                raise DatasetError(f"bad tensor line in {path}: {line!r}") from exc
        elif len(tok) == 2:
            fields[tok[0]] = tok[1]
        else:
            raise DatasetError(f"bad header line in {path}: {line!r}")
    try:
        generation = int(fields["generation"])
        epoch = int(fields["epoch"])
        seed = int(fields["seed"])
        config_hash = fields["config_hash"]
    except KeyError as exc:
        raise DatasetError(f"checkpoint {path} missing header field {exc}") from exc

    expected = sum(int(np.prod(shape)) for _, shape in specs)
    data = np.frombuffer(payload, dtype=STORAGE_DTYPE)
    if data.size != expected:
        raise DatasetError(
            f"checkpoint {path} payload holds {data.size} floats, header says {expected}"
        )
    tensors = []
    offset = 0
    for name, shape in specs:
        n = int(np.prod(shape))
        tensors.append((name, data[offset : offset + n].astype(np.float64).reshape(shape)))
        offset += n
    return Checkpoint(generation, epoch, seed, config_hash, tensors)
