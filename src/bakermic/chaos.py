"""Coupled Chebyshev / Henon-sine dynamics and keystream material.

The diffusion keystream mixes two sources: a sine-wrapped Henon orbit, and
Chebyshev polynomials indexed by rank permutations of that orbit.  The orbit
starts at the seed (x0, y0) that seed_from_sums makes from two exact
whole-set sums, which derive_seed takes from the images and the key carries.
Everything here is deterministic given the seed values.  Chebyshev values
come from two paths that agree bit for bit: chebyshev, one value at 136 bits
through integer mpmath.libmp arithmetic (the seed's order, the appendix
table), and chebyshev_many, a whole vector in numpy double-double arithmetic
(the keystream grids), which hands the few entries near a rounding midpoint
to chebyshev.  Neither calls libm.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .brqmi import MultiImage, _dtype_for_depth, _popcount


# Fixed quadratic and shear coefficients of the sine-wrapped Henon step.
HENON_A = 1.4
HENON_B = 0.3


@dataclass(frozen=True)
class HenonSineParams:
    """Control parameters of the sine-wrapped Henon step.

    The quadratic and shear coefficients are the fixed HENON_A and HENON_B;
    the lambda factors are key material and should exceed 1 to keep the
    orbit chaotic.
    """

    lambda1: float
    lambda2: float

    def check_finite(self) -> None:
        """Refuse a lambda for which 2 * pi * lambda is not finite (nan, inf, or too large).

        From [-1, 1]**2 the step's sine arguments never exceed pi * lambda * 2
        in size, so a finite 2 * pi * lambda keeps every orbit finite.  Any
        other lambda passes, 1.0 included, so the map can be studied there.
        """
        for name, lam in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not math.isfinite(2 * math.pi * lam):
                raise ValueError(f"lambda factors {self.lambda1!r}, {self.lambda2!r}: 2*pi*{name} is not finite")

    def validate(self) -> None:
        """Refuse a lambda that check_finite refuses, or one not above 1."""
        self.check_finite()
        if not (self.lambda1 > 1 and self.lambda2 > 1):
            raise ValueError(f"lambda factors {self.lambda1!r}, {self.lambda2!r} must exceed 1")


def henon_sine_step(x: float, y: float, p: HenonSineParams) -> tuple[float, float]:
    """One step of the sine-wrapped Henon map; output stays in [-1, 1]^2.

    The scalar form that distinct_sequence and `appendix henon` step.
    """
    x2 = math.sin(math.pi * p.lambda1 * (1.0 - HENON_A * x * x + y))
    y2 = math.sin(math.pi * p.lambda2 * (HENON_B * x))
    return x2, y2


# Working precision of the trig form: the 136 bits that mpmath.workdps(40) sets.
_CHEB_PREC = 136


def chebyshev(k: int, x: float) -> float:
    """Chebyshev polynomial T_k(x) on [-1, 1] via the closed trig form.

    Evaluated at 40 working digits and rounded once, so the defining
    identity T_k(cos t) = cos(k t) survives orders up to about 10**6 at
    double precision instead of degrading by k ulps.  The mpmath.libmp calls
    are the ones float(mpmath.cos(k * mpmath.acos(mpmath.mpf(x)))) makes
    under workdps(40), without the wrapper and context overhead.  This is
    the reference: seed_from_sums (whose order is the bit count, up to
    millions) and the appendix table call it directly, and chebyshev_many
    calls it for the entries it cannot round with certainty.  mpmath is
    imported here, on the first value, so that commands that compute none
    do not load it.
    """
    from mpmath.libmp import from_float, mpf_acos, mpf_cos, mpf_mul_int, round_nearest, to_float

    k = int(k)
    if k < 0:
        raise ValueError("order must be nonnegative")
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"argument {x} outside [-1, 1]")
    if k == 0:
        return 1.0
    if k == 1:
        return float(x)
    prec, rnd = _CHEB_PREC, round_nearest
    t = mpf_mul_int(mpf_acos(from_float(x), prec, rnd), k, prec, rnd)
    return to_float(mpf_cos(t, prec, rnd), rnd=rnd)


# ---------------------------------------------------------------------------
# Many Chebyshev values at once, in double-double
#
# A double-double is an unevaluated sum hi + lo of two doubles with
# |lo| <= ulp(hi)/2, about 106 significant bits (Dekker, "A floating-point
# technique for extending the available precision", 1971).  numpy has no fma,
# so the exact product of two doubles comes from Veltkamp splitting: the code
# below uses only binary64 +, - and *, and no libm call.

_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves

# Absolute error band of the ladder: B(k) = 4**bitlen(k) * _BAND_UNIT.
#
# Let the pair (T_j, T_j+1) carry errors d_a, d_b.  The true values lie in
# [-1, 1], so T_2j = 2*a*a - 1 moves by at most 4|d_a| and
# T_2j+1 = 2*a*b - x by at most 2|d_a| + 2|d_b| (to first order): the worst
# error grows at most 4-fold per ladder step.  Each _twice_product_minus on
# operands of size at most 1 + eps adds at most 18 units of 2**-106: the
# dropped 2*al*bl (2**-105), the doubled roundings of the low word
# (2 * (2 * 2**-107 + 2**-106 + 2**-105)) and the rounding of t + 2e (2**-103).
# The first step from the exact (1, x) costs one operation, so after the
# L = bitlen(k) steps the ladder is within 18 * (4**L - 1) / 3 * 2**-106,
# under 6 * 4**L * 2**-106.  The 136-bit reference is itself off T_k(x) by
# under 5k * 2**-134 even if acos, the product by k and cos each miss by two
# ulps at 136 bits (acos x <= pi, so the first two scale with k pi), which is
# under 4**L * 2**-131 (k = 0 and k = 1 are exact).  Both together stay
# under 7 * 4**L * 2**-106, a ninth of B.  A leading zero bit maps (1, x) to
# itself exactly and adds nothing; underflow in the low words adds only
# absolute errors near 2**-1074 per step, far below B.
_BAND_UNIT = 2.0**-100


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_sum(a, b):
    """fl(a + b) and the exact residual a + b - fl(a + b) (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _twice_product_minus(ah, al, bh, bl, c):
    """2*a*b - c as a double-double, for double-doubles a, b and a double c."""
    (a1, a2), (b1, b2) = _split(ah), _split(bh)
    p = ah * bh
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2  # ah*bh - p, exactly (Dekker)
    e = e + (ah * bl + al * bh)
    s, t = _two_sum(2.0 * p, -c)
    return _two_sum(s, t + 2.0 * e)


def chebyshev_many(orders, xs) -> np.ndarray:
    """chebyshev(orders[i], xs[i]) for every i, as a float64 array.

    The result is bit for bit what chebyshev returns, signed zeros included.
    Each T_k(x) is evaluated in double-double by the binary ladder on
    (T_j, T_j+1): T_2j = 2 T_j**2 - 1 and T_2j+1 = 2 T_j T_j+1 - x, walking
    the bits of k from the top from (T_0, T_1) = (1, x).  The double-double
    value v is rounded once to r with an exact residual.  An entry is kept
    only when every value within the band B(k) of v rounds to r too (Ziv,
    "Fast evaluation of elementary mathematical functions with correctly
    rounded last bit", 1991); since the 136-bit reference lies in that
    band, it rounds to r as well.  r = 0 or a subnormal r never passes.
    Every other entry, near a rounding midpoint, is computed by the scalar
    chebyshev.  Orders are nonnegative integers below 2**63.
    """
    k = np.asarray(orders, dtype=np.int64)
    x = np.asarray(xs, dtype=np.float64)
    if k.ndim != 1 or k.shape != x.shape:
        raise ValueError("orders and samples must be 1-D of the same length")
    if (k < 0).any():
        raise ValueError("order must be nonnegative")
    outside = ~((-1.0 <= x) & (x <= 1.0))
    if outside.any():
        raise ValueError(f"argument {x[outside][0]} outside [-1, 1]")
    ah, al, bh, bl = np.ones_like(x), np.zeros_like(x), x, np.zeros_like(x)
    for shift in range(int(k.max(initial=0)).bit_length() - 1, -1, -1):
        bit = ((k >> shift) & 1).astype(bool)
        # T_2j+1 is in the next pair either way; the other member squares
        # T_j (bit 0: T_2j) or T_j+1 (bit 1: T_2j+2).
        ch, cl = np.where(bit, bh, ah), np.where(bit, bl, al)
        oh, ol = _twice_product_minus(ah, al, bh, bl, x)
        qh, ql = _twice_product_minus(ch, cl, ch, cl, 1.0)
        ah, al = np.where(bit, oh, qh), np.where(bit, ol, ql)
        bh, bl = np.where(bit, qh, oh), np.where(bit, ql, ol)
    r, e = _two_sum(ah, al)
    band = np.ldexp(_BAND_UNIT, 2 * np.frexp(k.astype(np.float64))[1])
    # All of [v - B, v + B] rounds to r when it stays inside the half gaps to
    # r's neighbours; at a power of two the gap toward zero is half the other.
    # The comparisons are exact: rounding is monotonic and the half gaps are
    # doubles (or 0, for r = 0 and subnormal r, which then always fail).
    up = np.nextafter(r, np.inf) - r
    down = r - np.nextafter(r, -np.inf)
    near = ~((e + band < 0.5 * up) & (band - e < 0.5 * down))
    for i in np.flatnonzero(near):
        r[i] = chebyshev(int(k[i]), float(x[i]))
    return r


# ---------------------------------------------------------------------------
# Seed material


def seed_from_sums(
    intensity_sum: int, bit_count: int, m_prime: int, bit_depth: int, n: int
) -> tuple[float, float]:
    """The orbit seed (x0, y0) of an image set with these exact sums.

    x0 is the normalised intensity and y0 chains it through a Chebyshev order
    equal to the total set-bit count, so flipping any single plaintext bit
    reseeds both.  Sums the declared geometry cannot hold are refused.
    """
    denom = m_prime * ((1 << bit_depth) - 1) * (1 << (2 * n))
    if not 0 <= intensity_sum <= denom:
        raise ValueError("intensity sum out of range for the declared geometry")
    bits = m_prime * bit_depth * (1 << (2 * n))
    if not 0 <= bit_count <= bits:
        raise ValueError(f"bit_count {bit_count} out of range [0, {bits}] for the declared geometry")
    x0 = intensity_sum / denom
    return x0, chebyshev(bit_count, x0)


def derive_seed(images: MultiImage) -> tuple[int, int]:
    """The exact sums (intensity_sum, bit_count) of an image set, which a key carries."""
    return int(images.pixels.sum()), _popcount(images.pixels)


# ---------------------------------------------------------------------------
# Distinct orbit values and rank permutations


class DegenerateKeyError(RuntimeError):
    """A chaotic orbit gave fewer distinct values than the cipher needs.

    found holds the distinct counts reached on x and on y, iterations the
    steps taken after burn-in, and cycled whether the orbit was seen to
    repeat (otherwise the iteration budget ran out).  image, when known, is
    the stack image whose orbit failed.
    """

    def __init__(
        self, count: int, found: tuple[int, int], iterations: int, cycled: bool, image: int | None = None
    ):
        self.count, self.found, self.iterations, self.cycled, self.image = count, found, iterations, cycled, image
        why = "the orbit entered a cycle" if cycled else "the iteration budget ran out"
        where = "" if image is None else f" for image {image}"
        super().__init__(
            f"orbit produced fewer than {count} distinct values{where}: {found[0]} on x and "
            f"{found[1]} on y after {iterations} iterations, when {why}; parameters look degenerate"
        )


_MAX_ITERATIONS = 10_000_000  # distinct_sequence's backstop behind Brent's test
BURN_IN = 100  # steps every orbit takes from its seed before its first value is read


def henon_walk(state: tuple[float, float], p: HenonSineParams, steps: int) -> tuple[list[float], tuple[float, float]]:
    """The x values of the `steps` states after `state`, and the last of those states.

    henon_sine_step with its constants hoisted (same floats), for the burn-in
    and the schedule; y is kept only as the loop's state.  Chained walks give
    the stepped orbit.
    """
    pl1, pl2, a, b, sin = math.pi * p.lambda1, math.pi * p.lambda2, HENON_A, HENON_B, math.sin
    x, y = state
    xs = [0.0] * steps
    for i in range(steps):
        x, y = sin(pl1 * (1.0 - a * x * x + y)), sin(pl2 * (b * x))
        xs[i] = x
    return xs, (x, y)


def distinct_sequence(seed: tuple[float, float], p: HenonSineParams, count: int) -> tuple[list[float], list[float]]:
    """Collect the first `count` distinct orbit values on each coordinate.

    Steps henon_sine_step from the state after the burn-in and records x and
    y values independently in order of first appearance (value equality, so
    ranks are well defined).  Raises DegenerateKeyError if the orbit fails
    to produce enough distinct values, which flags a degenerate parameter
    choice.  Brent's cycle test on the exact (x, y) state, from the first
    state after burn-in, stops the search as soon as the orbit repeats,
    since no new value can appear after that; _MAX_ITERATIONS is a backstop.
    """
    if count < 1:
        raise ValueError("count must be positive")
    # dicts keep their keys in order of first insertion: the values in order of first appearance
    seen_x: dict[float, None] = {}
    seen_y: dict[float, None] = {}
    _, (x, y) = henon_walk(seed, p, BURN_IN)
    # Brent: compare each state with one saved at the last power-of-two step (NaN: none yet)
    saved_x, saved_y, save_at = math.nan, math.nan, 1
    for it in range(1, _MAX_ITERATIONS + 1):
        x, y = henon_sine_step(x, y, p)
        if len(seen_x) < count:
            seen_x[x] = None
        if len(seen_y) < count:
            seen_y[y] = None
        if len(seen_x) == count and len(seen_y) == count:
            return list(seen_x), list(seen_y)
        if x == saved_x and y == saved_y:
            raise DegenerateKeyError(count, (len(seen_x), len(seen_y)), it, cycled=True)
        if it == save_at:
            saved_x, saved_y, save_at = x, y, 2 * save_at
    raise DegenerateKeyError(count, (len(seen_x), len(seen_y)), _MAX_ITERATIONS, cycled=False)


@dataclass(frozen=True)
class RankPerms:
    """Orbit samples plus their 1-based rank permutations.

    s[i] is the rank of xs[i] among all xs (1 = smallest); t ranks ys.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    s: tuple[int, ...]
    t: tuple[int, ...]


def _ranks(values: list[float]) -> tuple[int, ...]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for r, idx in enumerate(order, start=1):
        ranks[idx] = r
    return tuple(ranks)


def rank_perms(xs: list[float], ys: list[float]) -> RankPerms:
    """Rank the two sample lists; each rank vector is a permutation."""
    if len(xs) != len(ys):
        raise ValueError("sample lists must have equal length")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ValueError("sample values must be distinct")
    return RankPerms(xs=tuple(xs), ys=tuple(ys), s=_ranks(xs), t=_ranks(ys))


# ---------------------------------------------------------------------------
# Keystream integers


def keystream_grids(perms: Sequence[RankPerms], qs: Sequence[int], k: int) -> np.ndarray:
    """All keystream integers of several images, as an (images, side, side) array.

    Image m's entry (i, j), 0-based, is
    floor(T_s[i](ys[-1-i]) * T_t[j](xs[-1-j]) * 10**qs[m]) mod 2**(2**k)
    under perms[m], with every Chebyshev factor of every image computed once,
    by a single chebyshev_many call over all their factor vectors, so the
    factors are the values chebyshev returns.  The array has the narrowest
    unsigned type that holds 2**(2**k) - 1.
    """
    width = 1 << k
    if width > 62:
        raise ValueError("plane count too large for the vectorised keystream")
    if len(perms) != len(qs) or len({len(p.s) for p in perms}) > 1:
        raise ValueError("keystream grids need one q per image and images of one side")
    side = len(perms[0].s) if perms else 0
    orders = [order for p in perms for order in p.s + p.t]
    samples = [x for p in perms for x in p.ys[::-1] + p.xs[::-1]]
    ab = chebyshev_many(orders, samples).reshape(len(perms), 2, side)
    grids = np.empty((len(perms), side, side), _dtype_for_depth(width))
    for grid, (a, b), q in zip(grids, ab, qs):  # one image at a time keeps the float and int64 temporaries small
        v = np.floor(np.outer(a, b) * float(10**q)).astype(np.int64)
        grid[...] = v % np.int64(1 << width)
    return grids


def keystream_grid(perms: RankPerms, q: int, k: int) -> np.ndarray:
    """All keystream integers of one image as a (side, side) array: keystream_grids of that image alone."""
    return keystream_grids([perms], [q], k)[0]


# ---------------------------------------------------------------------------
# CSV emitters


def emit_trajectory(
    p: HenonSineParams, seed: tuple[float, float], count: int
) -> list[str]:
    """CSV rows of the orbit; the first data row is the seed itself.

    Refuses a non-finite seed, lambdas that HenonSineParams.check_finite
    refuses, and a seed whose first step has a sine argument that is not
    finite, before any step.  Later steps start in [-1, 1]**2, where
    check_finite bounds them.  Finite seeds outside [-1, 1] and lambdas at or
    below 1 are accepted for studies of the map.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not all(math.isfinite(c) for c in seed):
        raise ValueError(f"seed {seed[0]!r}, {seed[1]!r} is not finite")
    p.check_finite()
    x, y = seed
    first = (math.pi * p.lambda1 * (1.0 - HENON_A * x * x + y), math.pi * p.lambda2 * (HENON_B * x))
    if not all(math.isfinite(arg) for arg in first):
        raise ValueError(
            f"seed {x!r}, {y!r} with lambda factors {p.lambda1!r}, {p.lambda2!r}: "
            "the first step's sine argument is not finite"
        )
    rows = ["step,x,y"]
    for step in range(count):
        rows.append(f"{step},{x!r},{y!r}")
        x, y = henon_sine_step(x, y, p)
    return rows


def emit_chebyshev_table(k_max: int, xs: list[float]) -> list[str]:
    """CSV rows tabulating T_0..T_k_max over the given sample points."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    rows = [",".join(["x"] + [f"T{k}" for k in range(k_max + 1)])]
    for x in xs:
        rows.append(",".join([repr(float(x))] + [repr(chebyshev(k, x)) for k in range(k_max + 1)]))
    return rows
