"""Binary search of unsigned key columns for plain-int keys."""

from __future__ import annotations

import numpy as np

_MAX_U64 = 2**64 - 1


def key_position(keys, key: int, side: str = "left") -> int:
    """``keys.searchsorted(key, side)`` for a sorted uint64 column and a
    Python int of any size.

    Handing numpy the bare int would compare through float64 (its common
    type for uint64 and a signed scalar) and misplace keys past 2**53; a
    key outside the column's range cannot be converted at all.
    """
    if key < 0:
        return 0
    if key > _MAX_U64:
        return len(keys)
    return int(keys.searchsorted(np.uint64(key), side=side))
