"""Discrete baker maps on square power-of-two lattices.

A map on the 2**n x 2**n lattice is described by an ordered partition of the
side into power-of-two column widths.  Each vertical strip of width 2**q is
stretched horizontally by 2**(n-q) and squashed vertically onto a band of
height 2**q, which permutes the lattice points.  Only partitions whose
prefix sums are each divisible by the width that follows them ("admissible"
partitions) keep every strip aligned to a dyadic grid; those are exactly the
maps with a compact reversible-circuit realisation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class BakerPartition:
    """Ordered partition of 2**n into power-of-two widths."""

    n: int
    qs: tuple[int, ...]  # exponents; widths are 2**q, left to right

    def __post_init__(self):
        object.__setattr__(self, "qs", tuple(int(q) for q in self.qs))
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if not self.qs:
            raise ValueError("partition must have at least one block")
        side = 1 << self.n
        total = 0
        for q in self.qs:
            if not 0 <= q <= self.n:
                raise ValueError(f"block exponent {q} out of range for n={self.n}")
            total += 1 << q
        if total != side:
            raise ValueError(f"widths sum to {total}, expected {side}")

    @property
    def side(self) -> int:
        return 1 << self.n

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(1 << q for q in self.qs)

    def prefix_sums(self) -> tuple[int, ...]:
        """Left strip boundaries N_0 = 0 <= N_1 <= ... <= N_r = 2**n."""
        sums = [0]
        for q in self.qs:
            sums.append(sums[-1] + (1 << q))
        return tuple(sums)

    def is_admissible(self) -> bool:
        """True when every strip starts on a multiple of its own width."""
        start = 0
        for q in self.qs:
            if start % (1 << q):
                return False
            start += 1 << q
        return True

    def __str__(self) -> str:
        return ",".join(str(w) for w in self.widths)


def from_widths(widths: "list[int] | tuple[int, ...]") -> BakerPartition:
    """Build a partition from explicit block widths; side is their sum."""
    widths = tuple(int(w) for w in widths)
    if not widths:
        raise ValueError("empty width list")
    for w in widths:
        if w < 1 or w & (w - 1):
            raise ValueError(f"width {w} is not a power of two")
    total = sum(widths)
    if total & (total - 1):
        raise ValueError(f"widths sum to {total}, not a power of two")
    n = total.bit_length() - 1
    return BakerPartition(n=n, qs=tuple(w.bit_length() - 1 for w in widths))


def parse_widths(text: str) -> BakerPartition:
    """Parse the comma-separated width form, e.g. '16,8,8,32,64,128'.

    Each entry is ASCII digits, optionally with whitespace around them, so
    an empty entry is refused, and so are the sign, underscores and non-ASCII
    digits that int() would take.
    """
    entries = text.split(",")
    if not all(re.fullmatch(r"\s*[0-9]+\s*", e) for e in entries):
        raise ValueError(f"bad partition text {text!r}")
    return from_widths([int(e) for e in entries])


@lru_cache(maxsize=None)
def _rows(n: int) -> np.ndarray:
    """Read-only (n + 1, 2**n) intp table: row low sends y to ((y & (2**low - 1)) << n) | (y >> low)."""
    ys = np.arange(1 << n, dtype=np.intp)
    lows = np.arange(n + 1, dtype=np.intp)[:, None]
    rows = ((ys & ((1 << lows) - 1)) << n) | (ys >> lows)
    rows.flags.writeable = False
    return rows


def _cols(n: int, low: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """cols[..., x] = ((x - x0) << (low + n)) + x0 for column x of a strip starting at x0, in intp."""
    return ((np.arange(1 << n) - x0) << (low + n)) + x0


def strip_layout(n: int, qs: "tuple[int, ...]") -> tuple[np.ndarray, np.ndarray]:
    """Per-column arrays (low, cols) of the partition of 2**n with exponents qs.

    Column x of the strip of width 2**q starting at x0 has low[x] = n - q and
    cols[x] = ((x - x0) << (low + n)) + x0, both intp.
    """
    qs = np.asarray(qs, dtype=np.intp)
    widths = 1 << qs
    low = np.repeat(n - qs, widths)
    return low, _cols(n, low, np.repeat(np.cumsum(widths) - widths, widths))


def strip_layouts(n: int, ranks) -> tuple[np.ndarray, np.ndarray]:
    """strip_layout of every ranked partition at once: (low, cols), each (len(ranks), 2**n) intp.

    Row i is strip_layout(n, unrank(n, ranks[i]).qs), with no Python loop
    over the ranks.  The ranks are unranked a level at a time, from the
    whole side down: a segment of rank 0 is one strip, and any other splits
    into halves ranked as unrank splits it.  Ranks go as Python ints until
    they fit int64.  Every strip of an admissible partition starts on a
    multiple of its width, so each column's strip start follows from its low.
    """
    seg = np.array(ranks, dtype=object).reshape(-1, 1)
    if seg.size and not (seg.min() >= 0 and seg.max() < count_partitions(n)):
        raise ValueError(f"rank out of range for n={n}")
    low = np.empty((len(seg), 1 << n), np.intp)
    for d in range(n + 1):  # seg: rank of each segment of width 2**(n - d), or -1 inside a strip
        if count_partitions(n - d) <= 1 << 63:
            seg = seg.astype(np.int64, copy=False)
        low.reshape(len(seg), 1 << d, 1 << (n - d))[seg == 0] = d
        if d == n:
            break
        half = count_partitions(n - d - 1)
        halves = np.stack([(seg - 1) // half, (seg - 1) % half], axis=2)
        seg = np.where((seg > 0)[:, :, None], halves, -1).reshape(len(seg), 2 << d)
    return low, _cols(n, low, np.arange(1 << n) & -(1 << (n - low)))


def strip_tables(n: int, low: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Tables of the maps whose strip layouts are (low, cols).

    low and cols have shape (..., 2**n); the result has shape (..., 4**n),
    one table per layout, in intp, and is the one full-size array the build
    allocates.
    """
    table = _rows(n)[low]
    table += cols[..., None]
    return table.reshape(low.shape[:-1] + (-1,))


def permutation_table(part: BakerPartition) -> np.ndarray:
    """Whole-lattice permutation over flat indices x * 2**n + y, in intp.

    Entry table[p] is the flat index of the image of point p, so scattering
    values with table realises one application of the map.

    The map is a shuffle of index bits inside each strip: with low = n - q,
    a point of the strip of width 2**q starting at x0 goes to
    x' = ((x - x0) << low) | (y & (2**low - 1)) and y' = x0 + (y >> low).
    That is the wire permutation qcircuit synthesises, and the cipher's
    scrambling stages run the same tables.  The index splits into a part set
    by x (cols[x], through x0 and low) and a part set by y and low, one of
    the n + 1 rows of _rows(n); strip_layout and strip_tables state that
    rule once, for this function and for the stage-2 tables alike.
    """
    return strip_tables(part.n, *strip_layout(part.n, part.qs))


_BIG_COUNT_LIMIT = 64


@lru_cache(maxsize=_BIG_COUNT_LIMIT)
def count_partitions(n: int) -> int:
    """Number of admissible partitions of side 2**n.

    Satisfies C(0) = 1 and C(n) = C(n-1)**2 + 1: a side either stays one
    block or splits into two halves carrying independent admissible
    sub-partitions.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    prev = count_partitions(n - 1)
    return prev * prev + 1


def unrank(n: int, index: int) -> BakerPartition:
    """Return the admissible partition with the given rank.

    Rank 0 is the single full-width block; rank 1 + (a * C(n-1) + b) glues
    the rank-a partition of the left half to the rank-b partition of the
    right half.  The map is a bijection from [0, C(n)) onto the admissible
    partitions, so drawing ranks uniformly draws maps uniformly.
    """
    if not 0 <= index < count_partitions(n):
        raise ValueError(f"rank {index} out of range for n={n}")
    return BakerPartition(n=n, qs=_unrank_qs(n, index))


@lru_cache(maxsize=1 << 12)  # keeps the small sub-lattices, where ranks repeat
def _unrank_qs(n: int, index: int) -> tuple[int, ...]:
    if index == 0:
        return (n,)
    half = count_partitions(n - 1)
    a, b = divmod(index - 1, half)
    return _unrank_qs(n - 1, a) + _unrank_qs(n - 1, b)
