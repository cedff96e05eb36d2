"""Fixed spatial decomposition of feature maps into halves and quarters.

Region ids: 0 full map, 1 left, 2 right, 3 top, 4 bottom, 5 top-left,
6 top-right, 7 bottom-left, 8 bottom-right. For odd extents the two halves
share the middle row/column: the first half takes [0, ceil(n/2)) and the
second [floor(n/2), n), so both always cover at least half the map.
"""

from __future__ import annotations

from .errors import ParameterError, ShapeError

FULL_REGION = 0
ALL_REGION_IDS = tuple(range(9))


def _halves(n: int) -> tuple[slice, slice]:
    first = slice(0, (n + 1) // 2)
    second = slice(n // 2, n)
    return first, second


def region_slices(h: int, w: int) -> dict[int, tuple[slice, slice]]:
    """Row/column slices for every region id on an h-by-w grid."""
    if h < 1 or w < 1:
        raise ShapeError(f"grid must be at least 1x1, got {h}x{w}")
    top, bottom = _halves(h)
    left, right = _halves(w)
    full = slice(0, h), slice(0, w)
    return {
        0: full,
        1: (full[0], left),
        2: (full[0], right),
        3: (top, full[1]),
        4: (bottom, full[1]),
        5: (top, left),
        6: (top, right),
        7: (bottom, left),
        8: (bottom, right),
    }


def region_view(fm, region_id: int):
    """Slice a (C, H, W) feature map down to one region, without copying.

    The same code serves a graph tensor (gradients scatter back into the
    full map) and a plain array (a numpy view). Region 0 is ``fm`` itself.
    """
    if region_id not in ALL_REGION_IDS:
        raise ParameterError(f"region id must be in 0..8, got {region_id}")
    if fm.ndim != 3:
        raise ShapeError(f"expected (C, H, W) feature map, got shape {fm.shape}")
    rows, cols = region_slices(fm.shape[1], fm.shape[2])[region_id]
    if region_id == FULL_REGION:
        return fm
    return fm[:, rows, cols]
