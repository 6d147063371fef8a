"""Coupled Chebyshev / Henon-sine dynamics and keystream material.

The diffusion keystream mixes two sources: a sine-wrapped Henon orbit seeded
from exact whole-set image statistics, and Chebyshev polynomials indexed by
rank permutations of that orbit.  Everything here is deterministic given the
seed values; Chebyshev evaluation goes through extended precision so that
large orders stay accurate to well below the tolerances used downstream.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
from mpmath.libmp import from_float, mpf_acos, mpf_cos, mpf_mul_int, round_nearest, to_float

from .brqmi import MultiImage, _dtype_for_depth, _split_planes


@dataclass(frozen=True)
class HenonSineParams:
    """Control parameters of the sine-wrapped Henon step.

    The quadratic and shear coefficients are fixed; the lambda factors are
    key material and should exceed 1 to keep the orbit chaotic.
    """

    lambda1: float
    lambda2: float
    a: float = 1.4
    b: float = 0.3

    def validate(self) -> None:
        """Refuse a lambda not above 1, or so large that the step's sine argument overflows.

        From [-1, 1]**2 the step's sine arguments never exceed pi * lambda * 2
        in size, so a finite 2 * pi * lambda keeps every orbit finite.
        """
        lams = (self.lambda1, self.lambda2)
        if not all(lam > 1 and math.isfinite(2 * math.pi * lam) for lam in lams):
            raise ValueError(
                f"lambda factors {self.lambda1!r}, {self.lambda2!r} must exceed 1 and keep 2*pi*lambda finite"
            )


def henon_sine_step(x: float, y: float, p: HenonSineParams) -> tuple[float, float]:
    """One step of the sine-wrapped Henon map; output stays in [-1, 1]^2."""
    x2 = math.sin(math.pi * p.lambda1 * (1.0 - p.a * x * x + y))
    y2 = math.sin(math.pi * p.lambda2 * (p.b * x))
    return x2, y2


# Working precision of the trig form: the 136 bits that mpmath.workdps(40) sets.
_CHEB_PREC = 136


def chebyshev(k: int, x: float) -> float:
    """Chebyshev polynomial T_k(x) on [-1, 1] via the closed trig form.

    Evaluated at 40 working digits and rounded once, so the defining
    identity T_k(cos t) = cos(k t) survives orders up to about 10**6 at
    double precision instead of degrading by k ulps.  The mpmath.libmp calls
    are the ones float(mpmath.cos(k * mpmath.acos(mpmath.mpf(x)))) makes
    under workdps(40), without the wrapper and context overhead.
    """
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
# Seed material


@dataclass(frozen=True)
class SeedMaterial:
    """Whole-set statistics binding the keystream to the plaintext.

    intensity_sum and bit_count are exact integers; x0 is the normalised
    intensity and y0 chains it through a Chebyshev order equal to the total
    set-bit count, so flipping any single plaintext bit reseeds both.
    """

    intensity_sum: int
    bit_count: int
    x0: float
    y0: float


def seed_from_sums(
    intensity_sum: int, bit_count: int, m_prime: int, bit_depth: int, n: int
) -> SeedMaterial:
    """Rebuild seed values from the stored exact sums."""
    denom = m_prime * ((1 << bit_depth) - 1) * (1 << (2 * n))
    if not 0 <= intensity_sum <= denom:
        raise ValueError("intensity sum out of range for the declared geometry")
    x0 = intensity_sum / denom
    y0 = chebyshev(bit_count, x0)
    return SeedMaterial(intensity_sum=intensity_sum, bit_count=bit_count, x0=x0, y0=y0)


def derive_seed(images: MultiImage) -> SeedMaterial:
    """Exact seed statistics of an image set."""
    intensity = int(images.pixels.sum())
    bits = int(np.count_nonzero(_split_planes(images.pixels, images.bit_depth)))
    return seed_from_sums(intensity, bits, images.m_prime, images.bit_depth, images.n)


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


def distinct_sequence(
    seed: tuple[float, float],
    p: HenonSineParams,
    count: int,
    max_iterations: int = 10_000_000,
) -> tuple[list[float], list[float]]:
    """Collect the first `count` distinct orbit values on each coordinate.

    Runs a 100-step burn-in, then records x and y values independently in
    order of first appearance (value equality, so ranks are well defined).
    Raises DegenerateKeyError if the orbit fails to produce enough distinct
    values, which flags a degenerate parameter choice.  Brent's cycle test
    on the exact (x, y) state stops the search as soon as the orbit repeats,
    since no new value can appear after that; max_iterations is a backstop.
    The step is henon_sine_step with its constants hoisted (same floats).
    """
    if count < 1:
        raise ValueError("count must be positive")
    pl1, pl2, a, b, sin = math.pi * p.lambda1, math.pi * p.lambda2, p.a, p.b, math.sin
    x, y = seed
    for _ in range(100):
        x, y = sin(pl1 * (1.0 - a * x * x + y)), sin(pl2 * (b * x))
    xs: list[float] = []
    ys: list[float] = []
    seen_x: set[float] = set()
    seen_y: set[float] = set()
    # Brent: compare each state with one saved at the last power-of-two step
    saved_x, saved_y, save_at = x, y, 1
    for it in range(1, max_iterations + 1):
        x, y = sin(pl1 * (1.0 - a * x * x + y)), sin(pl2 * (b * x))
        if len(xs) < count and x not in seen_x:
            seen_x.add(x)
            xs.append(x)
        if len(ys) < count and y not in seen_y:
            seen_y.add(y)
            ys.append(y)
        if len(xs) == count and len(ys) == count:
            return xs, ys
        if x == saved_x and y == saved_y:
            raise DegenerateKeyError(count, (len(xs), len(ys)), it, cycled=True)
        if it == save_at:
            saved_x, saved_y, save_at = x, y, 2 * save_at
    raise DegenerateKeyError(count, (len(xs), len(ys)), max_iterations, cycled=False)


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


def keystream_grid(perms: RankPerms, q: int, k: int) -> np.ndarray:
    """All keystream integers of one image as a (side, side) array.

    Entry (i, j), 0-based, is
    floor(T_s[i](ys[-1-i]) * T_t[j](xs[-1-j]) * 10**q) mod 2**(2**k), with
    each Chebyshev factor computed once per row or column.  The array has
    the narrowest unsigned type that holds 2**(2**k) - 1.
    """
    side = len(perms.s)
    width = 1 << k
    if width > 62:
        raise ValueError("plane count too large for the vectorised keystream")
    a = np.array(
        [chebyshev(perms.s[i], perms.ys[side - 1 - i]) for i in range(side)]
    )
    b = np.array(
        [chebyshev(perms.t[j], perms.xs[side - 1 - j]) for j in range(side)]
    )
    v = np.floor(np.outer(a, b) * float(10**q)).astype(np.int64)
    return (v % np.int64(1 << width)).astype(_dtype_for_depth(width))


# ---------------------------------------------------------------------------
# Lyapunov estimation


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    skipped: int  # orbit points with zero derivative, excluded from the mean


def lyapunov_estimate(
    f, dfdx, x0: float, iterations: int, burn_in: int = 100
) -> LyapunovEstimate:
    """Largest Lyapunov exponent of a 1-D map by orbit-averaged log |f'|."""
    if iterations < 1:
        raise ValueError("iterations must be positive")
    x = x0
    for _ in range(burn_in):
        x = f(x)
    total = 0.0
    used = 0
    skipped = 0
    for _ in range(iterations):
        d = dfdx(x)
        if d == 0.0:
            skipped += 1
        else:
            total += math.log(abs(d))
            used += 1
        x = f(x)
    if used == 0:
        raise ValueError("derivative vanished on the whole sampled orbit")
    return LyapunovEstimate(value=total / used, skipped=skipped)


def henon_sine_lyapunov(
    p: HenonSineParams,
    seed: tuple[float, float] = (0.1, 0.1),
    iterations: int = 20000,
    burn_in: int = 100,
) -> float:
    """Largest Lyapunov exponent of the 2-D step by tangent-vector growth."""
    x, y = seed
    for _ in range(burn_in):
        x, y = henon_sine_step(x, y, p)
    vx, vy = 1.0, 0.0
    total = 0.0
    for _ in range(iterations):
        u = 1.0 - p.a * x * x + y
        c1 = math.cos(math.pi * p.lambda1 * u) * math.pi * p.lambda1
        c2 = math.cos(math.pi * p.lambda2 * (p.b * x)) * math.pi * p.lambda2
        jvx = c1 * (-2.0 * p.a * x) * vx + c1 * vy
        jvy = c2 * p.b * vx
        norm = math.hypot(jvx, jvy)
        if norm == 0.0:
            # tangent collapsed; restart the direction without counting growth
            vx, vy = 1.0, 0.0
            x, y = henon_sine_step(x, y, p)
            continue
        total += math.log(norm)
        vx, vy = jvx / norm, jvy / norm
        x, y = henon_sine_step(x, y, p)
    return total / iterations


# ---------------------------------------------------------------------------
# CSV emitters


def emit_trajectory(
    p: HenonSineParams, seed: tuple[float, float], count: int
) -> list[str]:
    """CSV rows of the orbit; the first data row is the seed itself."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "x", "y"])
    x, y = seed
    for step in range(count):
        writer.writerow([step, repr(x), repr(y)])
        x, y = henon_sine_step(x, y, p)
    return buf.getvalue().splitlines()


def emit_chebyshev_table(k_max: int, xs: list[float]) -> list[str]:
    """CSV rows tabulating T_0..T_k_max over the given sample points."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x"] + [f"T{k}" for k in range(k_max + 1)])
    for x in xs:
        writer.writerow([repr(float(x))] + [repr(chebyshev(k, x)) for k in range(k_max + 1)])
    return buf.getvalue().splitlines()
