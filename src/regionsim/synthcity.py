"""Procedural geo-tagged street world with exact view-overlap ground truth.

Cameras sit on a 1-D street and photograph one of two facade texture strips
(one per heading), seeing a fixed-width window rendered at 8 columns per
meter. Reported GPS positions carry Gaussian noise, so geographic "within
10 m" supervision is genuinely weak: close-by reported positions may face
opposite directions or barely overlap. True positions and headings live in
a sidecar used only by verification tooling, never by training.

View overlap has one definition, ``_overlap``, over broadcast arrays of
poses: :func:`region_overlap` applies it to one pair, and
:func:`weak_label_stats` to all of a world's close train pairs at once.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import atomic_open
from .errors import DatasetError, ParameterError
from .mining import POSITIVE_RADIUS_M
from .regions import FIRST_HALF, FULL_REGION, REGION_LAYOUT, SECOND_HALF, WHOLE
from .seeding import derive_rng

SPLITS = ("train-query", "train-gallery", "test-query", "test-gallery")
FORMAT_VERSION = 1


@dataclass(frozen=True)
class WorldSpec:
    seed: int = 0
    length_m: float = 400.0
    window_m: float = 12.0
    image_height: int = 32
    image_width: int = 96
    noise_sigma_m: float = 5.0
    heading_balance: float = 0.5
    n_train_queries: int = 64
    n_train_gallery: int = 256
    n_test_queries: int = 64
    n_test_gallery: int = 256

    def __post_init__(self):
        if self.length_m <= 0:
            raise ParameterError(f"street length must be positive, got {self.length_m}")
        if not (0 < self.window_m < self.length_m):
            raise ParameterError(
                f"window {self.window_m} must be positive and smaller than the street"
            )
        if self.noise_sigma_m < 0:
            raise ParameterError(f"noise sigma must be >= 0, got {self.noise_sigma_m}")
        if not (0.0 <= self.heading_balance <= 1.0):
            raise ParameterError("heading balance must lie in [0, 1]")
        if self.image_height < 8 or self.image_width < 8:
            raise ParameterError("images must be at least 8x8 for the encoder")
        for name in ("n_train_queries", "n_train_gallery", "n_test_queries", "n_test_gallery"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be positive")

    @property
    def cols_per_meter(self) -> float:
        return self.image_width / self.window_m

    def split_counts(self) -> dict[str, int]:
        return {
            "train-query": self.n_train_queries,
            "train-gallery": self.n_train_gallery,
            "test-query": self.n_test_queries,
            "test-gallery": self.n_test_gallery,
        }


def spec_digest(spec: WorldSpec) -> str:
    payload = json.dumps(asdict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


@dataclass
class GeoImage:
    id: int
    # (H, W) float32 in [0, 1], read-only: a rendered image is a view into
    # its world's texture, which every image of that heading shares.
    pixels: np.ndarray
    true_x: float
    reported_x: float
    heading: int
    split: str
    world_key: str


@dataclass
class Dataset:
    spec: WorldSpec
    images: list[GeoImage]
    stats: dict = field(default_factory=dict)

    @property
    def world_key(self) -> str:
        return spec_digest(self.spec)

    def split(self, tag: str) -> list[GeoImage]:
        if tag not in SPLITS:
            raise ParameterError(f"unknown split {tag!r}")
        return [img for img in self.images if img.split == tag]


class World:
    """Seeded facade textures for both headings, ready to crop: each is
    quantized to float32 once and read-only, since views share it."""

    def __init__(self, spec: WorldSpec):
        self.spec = spec
        self.key = spec_digest(spec)
        cols = int(round(spec.length_m * spec.cols_per_meter))
        self.textures = {}
        for heading in (+1, -1):
            texture = _facade_texture(spec, heading, cols).astype(np.float32)
            texture.flags.writeable = False
            self.textures[heading] = texture

    def bounds(self) -> tuple[float, float]:
        half = self.spec.window_m / 2.0
        return half, self.spec.length_m - half


def _facade_texture(spec: WorldSpec, heading: int, cols: int) -> np.ndarray:
    """Stripe bands plus dense glyph blocks, independent per heading.

    Glyphs are the discriminative content: raw (unwhitened) descriptors of
    a freshly initialized network must already carry enough location signal
    for similarity mining to find true neighbors, so glyphs are frequent
    (about two per meter) and full-contrast. Band contrast stays low; the
    stripes repeat along the whole street, so strong bands add a shared
    component to every view that drowns the location-specific signal.
    """
    rng = derive_rng(spec.seed, "texture", heading)
    h = spec.image_height
    x_m = np.arange(cols) / spec.cols_per_meter
    tex = np.zeros((h, cols))
    n_bands = 8
    band_edges = np.linspace(0, h, n_bands + 1).astype(int)
    for b in range(n_bands):
        base = np.zeros(cols)
        for _ in range(3):
            freq = rng.uniform(0.05, 2.0)  # cycles per meter
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave = np.sin(2.0 * np.pi * freq * x_m + phase)
            if rng.random() < 0.5:
                wave = np.sign(wave)
            base += rng.uniform(0.3, 1.0) * wave
        peak = np.abs(base).max()
        if peak > 0:
            base = 0.5 + 0.12 * base / peak
        else:
            base = np.full(cols, 0.5)
        tex[band_edges[b] : band_edges[b + 1]] = base

    n_glyphs = max(1, int(round(2.0 * spec.length_m)))
    for _ in range(n_glyphs):
        gw = int(round(rng.uniform(0.5, 2.0) * spec.cols_per_meter))
        gh = int(rng.integers(h // 4, 3 * h // 4 + 1))
        c0 = int(rng.integers(0, max(1, cols - gw)))
        r0 = int(rng.integers(0, h - gh + 1))
        dark, bright = (0.0, 1.0) if rng.random() < 0.5 else (1.0, 0.0)
        if rng.random() < 0.5:
            block = np.full((gh, gw), dark)
        else:
            rr = (np.arange(gh)[:, None] // 2 + np.arange(gw)[None, :] // 2) % 2
            block = np.where(rr == 0, dark, bright)
        tex[r0 : r0 + gh, c0 : c0 + gw] = block
    return np.clip(tex, 0.0, 1.0)


def render_view(world: World, position: float, heading: int) -> np.ndarray:
    """The window around ``position``: a read-only view into the heading's
    texture, no copy.

    The texture is quantized to float32 once, which gives each crop the
    bits of casting that crop alone, so rendered and disk-loaded images are
    bit-identical.
    """
    if heading not in (+1, -1):
        raise ParameterError(f"heading must be +1 or -1, got {heading}")
    lo, hi = world.bounds()
    if not (lo <= position <= hi):
        raise ParameterError(f"position {position} outside [{lo}, {hi}]")
    spec = world.spec
    start = int(round((position - spec.window_m / 2.0) * spec.cols_per_meter))
    start = min(max(start, 0), world.textures[heading].shape[1] - spec.image_width)
    return world.textures[heading][:, start : start + spec.image_width]


def view_interval(x: float, window_m: float) -> tuple[float, float]:
    return x - window_m / 2.0, x + window_m / 2.0


def region_interval(x: float, window_m: float, region_id: int) -> tuple[float, float]:
    """Facade interval covered by one region of the view at ``x``: the
    region's column part of the window."""
    if region_id not in REGION_LAYOUT:
        raise ParameterError(f"region id must be in 0..8, got {region_id}")
    left, right = view_interval(x, window_m)
    halves = {WHOLE: (left, right), FIRST_HALF: (left, x), SECOND_HALF: (x, right)}
    return halves[REGION_LAYOUT[region_id][1]]


def _overlap(q_x, q_heading, g_x, g_heading, region_id: int, window_m: float) -> np.ndarray:
    """Fraction of each gallery region's facade interval visible to its
    query, over broadcast arrays of true positions and headings; 0 across
    headings."""
    q_lo, q_hi = view_interval(q_x, window_m)
    r_lo, r_hi = region_interval(g_x, window_m, region_id)
    shared = np.maximum(0.0, np.minimum(q_hi, r_hi) - np.maximum(q_lo, r_lo))
    return np.where(q_heading == g_heading, shared / (r_hi - r_lo), 0.0)


def region_overlap(query: GeoImage, gallery: GeoImage, region_id: int, window_m: float) -> float:
    """Fraction of the gallery region's facade interval visible to the query."""
    if query.world_key != gallery.world_key:
        raise DatasetError("cannot compare views from different worlds")
    return float(
        _overlap(query.true_x, query.heading, gallery.true_x, gallery.heading, region_id, window_m)
    )


def generate_dataset(spec: WorldSpec) -> Dataset:
    """Sample cameras, render every view, and measure label noise."""
    world = World(spec)
    lo, hi = world.bounds()
    images: list[GeoImage] = []
    for split in SPLITS:
        n = spec.split_counts()[split]
        cam_rng = derive_rng(spec.seed, "cameras", split)
        gps_rng = derive_rng(spec.seed, "gps", split)
        positions = cam_rng.uniform(lo, hi, size=n)
        headings = np.where(cam_rng.random(n) < spec.heading_balance, 1, -1)
        noise = gps_rng.normal(0.0, spec.noise_sigma_m, size=n)
        reported = np.clip(positions + noise, 0.0, spec.length_m).tolist()
        for true_x, heading, gps_x in zip(positions.tolist(), headings.tolist(), reported):
            pixels = render_view(world, true_x, heading)
            images.append(GeoImage(len(images), pixels, true_x, gps_x, heading, split, world.key))
    ds = Dataset(spec=spec, images=images)
    ds.stats = weak_label_stats(ds)
    return ds


def weak_label_stats(ds: Dataset) -> dict:
    """How noisy the geographic supervision is, per the sidecar truth: the
    train pairs reported within the positive radius, and those of them
    whose views share no facade. Overlap is measured on the close pairs
    only, so no (Q, G) float temporary outlives the radius test."""
    def columns(split):
        return np.array([(i.reported_x, i.true_x, i.heading) for i in ds.split(split)]).T

    q_rep, q_x, q_heading = columns("train-query")
    g_rep, g_x, g_heading = columns("train-gallery")
    q, g = np.nonzero(np.abs(q_rep[:, None] - g_rep) <= POSITIVE_RADIUS_M)
    shared = _overlap(q_x[q], q_heading[q], g_x[g], g_heading[g], FULL_REGION, ds.spec.window_m)
    close_pairs = len(q)
    zero_overlap = int((shared == 0.0).sum())
    return {
        "close_pairs_within_10m": close_pairs,
        "zero_overlap_close_pairs": zero_overlap,
        "noisy_positive_fraction": (zero_overlap / close_pairs) if close_pairs else 0.0,
    }


# Disk layout: manifest.csv, truth.csv, world.json, img_<id>.bin files.

def _image_path(root: str, image_id: int) -> str:
    return os.path.join(root, f"img_{image_id:05d}.bin")


def write_dataset(ds: Dataset, root: str):
    """Write every file of the disk layout whole or not at all."""
    os.makedirs(root, exist_ok=True)
    with atomic_open(os.path.join(root, "manifest.csv"), "w", encoding="ascii") as fh:
        fh.write("id,reported_x,split\n")
        for img in ds.images:
            fh.write(f"{img.id},{img.reported_x!r},{img.split}\n")
    with atomic_open(os.path.join(root, "truth.csv"), "w", encoding="ascii") as fh:
        fh.write("id,true_x,heading\n")
        for img in ds.images:
            fh.write(f"{img.id},{img.true_x!r},{img.heading}\n")
    meta = {
        "format_version": FORMAT_VERSION,
        "world_key": ds.world_key,
        "spec": asdict(ds.spec),
        "stats": ds.stats,
    }
    with atomic_open(os.path.join(root, "world.json"), "w", encoding="ascii") as fh:
        json.dump(meta, fh, sort_keys=True, separators=(",", ": "), indent=1)
        fh.write("\n")
    for img in ds.images:
        h, w = img.pixels.shape
        with atomic_open(_image_path(root, img.id), "wb") as fh:
            fh.write(np.array([h, w], dtype="<u4").tobytes())
            fh.write(np.ascontiguousarray(img.pixels, dtype="<f4").tobytes())


def _read_image(root: str, image_id: int, shape: tuple[int, int]) -> np.ndarray:
    """The image's pixels, read-only over the file's bytes; every image of a
    world has the world's shape."""
    path = _image_path(root, image_id)
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DatasetError(f"missing image file {path}") from exc
    if len(raw) < 8:
        raise DatasetError(f"truncated image header in {path}")
    h, w = (int(v) for v in np.frombuffer(raw[:8], dtype="<u4"))
    if (h, w) != shape:
        raise DatasetError(f"image {path} is {h}x{w}, not the world's {shape[0]}x{shape[1]}")
    if len(raw) != 8 + 4 * h * w:
        raise DatasetError(f"image payload size mismatch in {path}")
    return np.frombuffer(raw, dtype="<f4", offset=8).reshape(h, w)


def _csv_rows(text: str, name: str, types: tuple) -> list[tuple]:
    """Each data line's fields, converted by ``types``; a malformed line
    raises DatasetError. The header and blank lines are skipped."""
    rows = []
    for number, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        try:
            rows.append(tuple(t(f) for t, f in zip(types, line.split(","), strict=True)))
        except ValueError as exc:
            raise DatasetError(f"malformed {name} line {number} {line[:60]!r}: {exc}") from exc
    return rows


def load_dataset(root: str) -> Dataset:
    try:
        meta = json.loads(Path(root, "world.json").read_text(encoding="ascii"))
        manifest = Path(root, "manifest.csv").read_text(encoding="ascii")
        truth = Path(root, "truth.csv").read_text(encoding="ascii")
    except OSError as exc:
        raise DatasetError(f"unreadable dataset directory {root}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"corrupt world.json in {root}") from exc
    if not isinstance(meta, dict):
        raise DatasetError(f"world.json in {root} is not a JSON object")
    if meta.get("format_version") != FORMAT_VERSION:
        raise DatasetError(f"unsupported dataset format version {meta.get('format_version')}")
    try:
        spec = WorldSpec(**meta["spec"])
    except (KeyError, TypeError, ParameterError) as exc:
        raise DatasetError(f"invalid world spec in {root}/world.json: {exc!r}") from exc
    world_key = spec_digest(spec)
    if meta.get("world_key") != world_key:
        raise DatasetError("world.json spec does not match its recorded key")

    truth_rows = {row[0]: row[1:] for row in _csv_rows(truth, "truth.csv", (int, float, int))}
    images = []
    for image_id, reported_x, split in _csv_rows(manifest, "manifest.csv", (int, float, str)):
        if split not in SPLITS:
            raise DatasetError(f"unknown split {split!r} in manifest")
        if image_id not in truth_rows:
            raise DatasetError(f"image {image_id} missing from truth.csv")
        true_x, heading = truth_rows[image_id]
        images.append(
            GeoImage(
                id=image_id,
                pixels=_read_image(root, image_id, (spec.image_height, spec.image_width)),
                true_x=true_x,
                reported_x=reported_x,
                heading=heading,
                split=split,
                world_key=world_key,
            )
        )
    if len(images) != len(truth_rows):
        raise DatasetError("manifest and truth row counts differ")
    images.sort(key=lambda im: im.id)
    return Dataset(spec=spec, images=images, stats=meta.get("stats", {}))
