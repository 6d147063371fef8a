"""The paper's point-wise formulas, which the package's vectorised code is checked against.

The package runs only whole-lattice forms: baker.permutation_table for the
baker map, chaos.keystream_grid for the keystream,
qcircuit.simulate_permutation for circuits, and brqmi.recompose's count of
stray padding bits.  The functions here state the same rules one point, one
pixel or one slot at a time, as the paper defines them, so tests can compare
the two statements entry by entry.  stack_of_bits packs a bit tensor into a
stack through brqmi's own codec.
"""

from __future__ import annotations

import math

import numpy as np

from bakermic.baker import BakerPartition
from bakermic.brqmi import MultiImage, _dtype_for_depth, _pack_fibres
from bakermic.chaos import RankPerms, chebyshev
from bakermic.qcircuit import Circuit


# ---------------------------------------------------------------------------
# Baker map, one lattice point at a time


def _region_index(part: BakerPartition, x: int) -> int:
    sums = part.prefix_sums()
    for i in range(len(part.qs)):
        if sums[i] <= x < sums[i + 1]:
            return i
    raise ValueError(f"x={x} outside the lattice")


def apply(part: BakerPartition, point: tuple[int, int]) -> tuple[int, int]:
    """Apply the map to one lattice point (x, y)."""
    x, y = point
    side = part.side
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"point {point} outside the {side}x{side} lattice")
    i = _region_index(part, x)
    start = part.prefix_sums()[i]
    h = 1 << (part.n - part.qs[i])  # horizontal stretch = vertical squash
    xp = (x - start) * h + y % h
    yp = start + (y - y % h) // h
    return xp, yp


def apply_inverse(part: BakerPartition, point: tuple[int, int]) -> tuple[int, int]:
    """Invert the map at one lattice point."""
    xp, yp = point
    side = part.side
    if not (0 <= xp < side and 0 <= yp < side):
        raise ValueError(f"point {point} outside the {side}x{side} lattice")
    sums = part.prefix_sums()
    for i, q in enumerate(part.qs):
        if sums[i] <= yp < sums[i + 1]:
            h = 1 << (part.n - q)
            x = sums[i] + xp // h
            y = (yp - sums[i]) * h + xp % h
            return x, y
    raise ValueError(f"point {point} outside every output band")


def iterate(part: BakerPartition, point: tuple[int, int], rounds: int) -> tuple[int, int]:
    """Apply the map `rounds` times (0 rounds is the identity)."""
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    for _ in range(rounds):
        point = apply(part, point)
    return point


# ---------------------------------------------------------------------------
# Circuits, one basis state at a time


def apply_gates(circuit: Circuit, v: int) -> int:
    """Run one basis state through the gates, checking one control at a time."""
    for g in circuit.gates:
        if all(((v >> w) & 1) == val for w, val in g.controls):
            a, b = g.targets
            if ((v >> a) & 1) != ((v >> b) & 1):
                v ^= (1 << a) | (1 << b)
    return v


# ---------------------------------------------------------------------------
# Keystream, one pixel at a time


def key_int(i: int, j: int, perms: RankPerms, q: int, k: int) -> int:
    """Keystream integer for pixel (i, j), both 1-based, reduced mod 2**(2**k).

    Couples the coordinates crosswise: the x-rank at i picks a Chebyshev
    order applied to a y sample, and vice versa.  The product is scaled by
    10**q and floored before Euclidean reduction, so the result is always
    in [0, 2**(2**k)).
    """
    side = len(perms.s)
    if not (1 <= i <= side and 1 <= j <= side):
        raise ValueError("pixel coordinates are 1-based and bounded by the sample count")
    a = chebyshev(perms.s[i - 1], perms.ys[side - i])
    b = chebyshev(perms.t[j - 1], perms.xs[side - j])
    v = math.floor((a * b) * float(10**q))
    return v % (1 << (1 << k))


def key_bits(i: int, j: int, perms: RankPerms, q: int, k: int) -> np.ndarray:
    """Plane-indexed bit vector of the keystream integer, length 2**k."""
    v = key_int(i, j, perms, q, k)
    return np.array([(v >> l) & 1 for l in range(1 << k)], dtype=np.uint8)


# ---------------------------------------------------------------------------
# Stacks from bit tensors; padding, one (image, plane) slot at a time


def stack_of_bits(bits: np.ndarray) -> MultiImage:
    """The stack (2**k images of 2**k-bit pixels) whose tensor bits[image, plane, x, y] is bits.

    Packed by brqmi's codec; n and k come from the tensor's shape.
    """
    s, _, side, _ = bits.shape
    fibres = bits.reshape(s * s, side * side).T  # fibres[p, i * s + l] = bits[i, l, p]
    pixels = _pack_fibres(fibres.astype(np.uint8), np.empty((s, side * side), _dtype_for_depth(s)))
    return MultiImage(n=side.bit_length() - 1, bit_depth=s, pixels=pixels.reshape(s, side, side))


def padding_mask(side: int, m_prime: int, bit_depth: int) -> np.ndarray:
    """Boolean mask over a stack's side x side (image, plane) slots that carry none of m_prime bit_depth-bit images."""
    mask = np.zeros((side, side), dtype=bool)
    mask[m_prime:, :] = True
    mask[:, bit_depth:] = True
    return mask
