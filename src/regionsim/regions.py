"""Fixed spatial decomposition of feature maps into halves and quarters.

:data:`REGION_LAYOUT` is the one table of the layout: it gives each region
id its row part and its column part, each the whole axis or its first or
second half. Ids: 0 full map, 1 left, 2 right, 3 top, 4 bottom, 5 top-left,
6 top-right, 7 bottom-left, 8 bottom-right. For odd extents the two halves
share the middle row/column: the first half takes [0, ceil(n/2)) and the
second [floor(n/2), n), so both always cover at least half the map.

A region is a 0/1 mask over the map's positions, so the regions of a map
share one soft assignment (see :func:`vlad.aggregate_regions`).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError, ShapeError

WHOLE, FIRST_HALF, SECOND_HALF = "whole", "first half", "second half"

# Region id -> (row part, column part).
REGION_LAYOUT = {
    0: (WHOLE, WHOLE),
    1: (WHOLE, FIRST_HALF),
    2: (WHOLE, SECOND_HALF),
    3: (FIRST_HALF, WHOLE),
    4: (SECOND_HALF, WHOLE),
    5: (FIRST_HALF, FIRST_HALF),
    6: (FIRST_HALF, SECOND_HALF),
    7: (SECOND_HALF, FIRST_HALF),
    8: (SECOND_HALF, SECOND_HALF),
}

FULL_REGION = 0
ALL_REGION_IDS = tuple(REGION_LAYOUT)
# The full map and its halves: every region that keeps one axis whole.
HALVES_ONLY_IDS = tuple(rid for rid, parts in REGION_LAYOUT.items() if WHOLE in parts)


def _axis_slice(n: int, part: str) -> slice:
    if part == FIRST_HALF:
        return slice(0, (n + 1) // 2)
    if part == SECOND_HALF:
        return slice(n // 2, n)
    return slice(0, n)


def region_slices(h: int, w: int) -> dict[int, tuple[slice, slice]]:
    """Row/column slices for every region id on an h-by-w grid."""
    if h < 1 or w < 1:
        raise ShapeError(f"grid must be at least 1x1, got {h}x{w}")
    return {
        rid: (_axis_slice(h, row), _axis_slice(w, col))
        for rid, (row, col) in REGION_LAYOUT.items()
    }


@functools.lru_cache(maxsize=64)
def region_mask(h: int, w: int, region_ids: tuple[int, ...]) -> np.ndarray:
    """(h*w, R, 1) 0/1 mask: entry [n, r] is 1 where row-major position n
    lies in region ``region_ids[r]``. Cached and read-only, since every
    caller shares it."""
    if not region_ids or any(r not in ALL_REGION_IDS for r in region_ids):
        raise ParameterError(f"region ids must be a non-empty subset of 0..8, got {region_ids}")
    slices = region_slices(h, w)
    mask = np.zeros((h, w, len(region_ids), 1))
    for r, rid in enumerate(region_ids):
        mask[(*slices[rid], r)] = 1.0
    mask.flags.writeable = False
    return mask.reshape(h * w, len(region_ids), 1)
