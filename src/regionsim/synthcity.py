"""Procedural geo-tagged street world with exact view-overlap ground truth.

Cameras sit on a 1-D street and photograph one of two facade texture strips
(one per heading), seeing a fixed-width window rendered at 8 columns per
meter. Reported GPS positions carry Gaussian noise, so geographic "within
10 m" supervision is genuinely weak: close-by reported positions may face
opposite directions or barely overlap. True positions and headings live in
a sidecar used only by verification tooling, never by training.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DatasetError, ParameterError
from .seeding import derive_rng

SPLITS = ("train-query", "train-gallery", "test-query", "test-gallery")
FORMAT_VERSION = 1

# Region ids grouped by the horizontal facade interval they occupy. Top and
# bottom halves span the full window width; quarters follow their column half.
FULL_WIDTH_REGIONS = (0, 3, 4)
LEFT_REGIONS = (1, 5, 7)
RIGHT_REGIONS = (2, 6, 8)


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
    pixels: np.ndarray  # (H, W) float32 in [0, 1]
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
    """Seeded facade textures for both headings, ready to crop."""

    def __init__(self, spec: WorldSpec):
        self.spec = spec
        self.key = spec_digest(spec)
        cols = int(round(spec.length_m * spec.cols_per_meter))
        self.textures = {
            +1: _facade_texture(spec, +1, cols),
            -1: _facade_texture(spec, -1, cols),
        }

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
    """Crop the heading's texture to the window around ``position``.

    Pixels are quantized to float32 so rendered and disk-loaded images are
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
    crop = world.textures[heading][:, start : start + spec.image_width]
    return crop.astype(np.float32)


def view_interval(x: float, window_m: float) -> tuple[float, float]:
    return x - window_m / 2.0, x + window_m / 2.0


def _intersection(a: tuple[float, float], b: tuple[float, float]) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def overlap_fraction(a: GeoImage, b: GeoImage, window_m: float) -> float:
    """Shared fraction of the two facade windows; 0 across headings."""
    if a.world_key != b.world_key:
        raise DatasetError("cannot compare views from different worlds")
    if a.heading != b.heading:
        return 0.0
    ia = view_interval(a.true_x, window_m)
    ib = view_interval(b.true_x, window_m)
    return _intersection(ia, ib) / window_m


def region_interval(x: float, window_m: float, region_id: int) -> tuple[float, float]:
    """Facade interval covered by one region of the view at ``x``."""
    left, right = view_interval(x, window_m)
    if region_id in FULL_WIDTH_REGIONS:
        return left, right
    if region_id in LEFT_REGIONS:
        return left, x
    if region_id in RIGHT_REGIONS:
        return x, right
    raise ParameterError(f"region id must be in 0..8, got {region_id}")


def region_overlap(query: GeoImage, gallery: GeoImage, region_id: int, window_m: float) -> float:
    """Fraction of the gallery region's facade interval visible to the query."""
    if query.world_key != gallery.world_key:
        raise DatasetError("cannot compare views from different worlds")
    if query.heading != gallery.heading:
        return 0.0
    iq = view_interval(query.true_x, window_m)
    ir = region_interval(gallery.true_x, window_m, region_id)
    return _intersection(iq, ir) / (ir[1] - ir[0])


def generate_dataset(spec: WorldSpec) -> Dataset:
    """Sample cameras, render every view, and measure label noise."""
    world = World(spec)
    lo, hi = world.bounds()
    images: list[GeoImage] = []
    next_id = 0
    for split in SPLITS:
        n = spec.split_counts()[split]
        cam_rng = derive_rng(spec.seed, "cameras", split)
        gps_rng = derive_rng(spec.seed, "gps", split)
        positions = cam_rng.uniform(lo, hi, size=n)
        headings = np.where(cam_rng.random(n) < spec.heading_balance, 1, -1)
        noise = gps_rng.normal(0.0, spec.noise_sigma_m, size=n)
        for i in range(n):
            true_x = float(positions[i])
            heading = int(headings[i])
            reported = float(np.clip(true_x + noise[i], 0.0, spec.length_m))
            images.append(
                GeoImage(
                    id=next_id,
                    pixels=render_view(world, true_x, heading),
                    true_x=true_x,
                    reported_x=reported,
                    heading=heading,
                    split=split,
                    world_key=world.key,
                )
            )
            next_id += 1
    ds = Dataset(spec=spec, images=images)
    ds.stats = weak_label_stats(ds)
    return ds


def weak_label_stats(ds: Dataset) -> dict:
    """How noisy the geographic supervision is, per the sidecar truth."""
    queries = ds.split("train-query")
    gallery = ds.split("train-gallery")
    close_pairs = 0
    zero_overlap = 0
    for q in queries:
        for g in gallery:
            if abs(q.reported_x - g.reported_x) <= 10.0:
                close_pairs += 1
                if overlap_fraction(q, g, ds.spec.window_m) == 0.0:
                    zero_overlap += 1
    frac = (zero_overlap / close_pairs) if close_pairs else 0.0
    return {
        "close_pairs_within_10m": close_pairs,
        "zero_overlap_close_pairs": zero_overlap,
        "noisy_positive_fraction": frac,
    }


# Disk layout: manifest.csv, truth.csv, world.json, img_<id>.bin files.

def _image_path(root: str, image_id: int) -> str:
    return os.path.join(root, f"img_{image_id:05d}.bin")


def write_dataset(ds: Dataset, root: str):
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "manifest.csv"), "w", encoding="ascii") as fh:
        fh.write("id,reported_x,split\n")
        for img in ds.images:
            fh.write(f"{img.id},{img.reported_x!r},{img.split}\n")
    with open(os.path.join(root, "truth.csv"), "w", encoding="ascii") as fh:
        fh.write("id,true_x,heading\n")
        for img in ds.images:
            fh.write(f"{img.id},{img.true_x!r},{img.heading}\n")
    meta = {
        "format_version": FORMAT_VERSION,
        "world_key": ds.world_key,
        "spec": asdict(ds.spec),
        "stats": ds.stats,
    }
    with open(os.path.join(root, "world.json"), "w", encoding="ascii") as fh:
        json.dump(meta, fh, sort_keys=True, separators=(",", ": "), indent=1)
        fh.write("\n")
    for img in ds.images:
        h, w = img.pixels.shape
        with open(_image_path(root, img.id), "wb") as fh:
            fh.write(np.array([h, w], dtype="<u4").tobytes())
            fh.write(np.ascontiguousarray(img.pixels, dtype="<f4").tobytes())


def _read_image(root: str, image_id: int) -> np.ndarray:
    path = _image_path(root, image_id)
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DatasetError(f"missing image file {path}") from exc
    if len(raw) < 8:
        raise DatasetError(f"truncated image header in {path}")
    h, w = (int(v) for v in np.frombuffer(raw[:8], dtype="<u4"))
    payload = np.frombuffer(raw[8:], dtype="<f4")
    if payload.size != h * w:
        raise DatasetError(f"image payload size mismatch in {path}")
    return payload.reshape(h, w).copy()


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
    if meta.get("format_version") != FORMAT_VERSION:
        raise DatasetError(f"unsupported dataset format version {meta.get('format_version')}")
    spec = WorldSpec(**meta["spec"])
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
                pixels=_read_image(root, image_id),
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
