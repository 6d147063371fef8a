import ast
import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest

from bakermic import chaos
from bakermic.brqmi import MultiImage, _split_planes
from bakermic.chaos import (
    BURN_IN,
    DegenerateKeyError,
    HenonSineParams,
    chebyshev,
    chebyshev_many,
    derive_seed,
    distinct_sequence,
    emit_chebyshev_table,
    emit_trajectory,
    henon_sine_lyapunov,
    henon_sine_step,
    henon_walk,
    keystream_grid,
    keystream_grids,
    lyapunov_estimate,
    rank_perms,
    seed_from_sums,
)
from bakermic.cipher import make_key

from conftest import random_images
from oracles import key_bits, key_int


def test_henon_sine_step_values():
    p = HenonSineParams(1.0, 1.0)
    x, y = henon_sine_step(0.0, 0.0, p)
    assert abs(x) < 1e-15  # sin(pi) up to rounding
    assert y == 0.0
    x, y = henon_sine_step(0.5, 0.1, p)
    assert x == pytest.approx(0.7071067811865476, abs=1e-15)
    assert y == pytest.approx(math.sin(0.15 * math.pi), abs=1e-15)


def test_henon_sine_range():
    rng = np.random.default_rng(3)
    p = HenonSineParams(3.7, 2.2)
    x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
    for _ in range(10000):
        x, y = henon_sine_step(x, y, p)
        assert -1.0 <= x <= 1.0 and -1.0 <= y <= 1.0


def test_params_validation():
    HenonSineParams(1.0, 1.0)  # constructible for direct map studies
    with pytest.raises(ValueError):
        HenonSineParams(1.0, 2.0).validate()
    with pytest.raises(ValueError):
        HenonSineParams(2.0, 0.5).validate()
    # 2*pi*lambda must stay finite, or the step's sine argument overflows
    for huge in (math.inf, 1e308, 2.9e307):
        with pytest.raises(ValueError):
            HenonSineParams(huge, 2.0).validate()
        with pytest.raises(ValueError):
            HenonSineParams(2.0, huge).validate()
    HenonSineParams(2.0, 2.0).validate()
    HenonSineParams(1e300, 1e300).validate()


def test_chebyshev_base_cases():
    assert chebyshev(0, 0.77) == 1.0
    assert chebyshev(1, 0.3) == 0.3
    assert chebyshev(3, 0.8) == pytest.approx(-0.352, abs=1e-12)
    assert chebyshev(2, 0.6) == pytest.approx(-0.28, abs=1e-12)


def test_chebyshev_identity_small():
    theta = 0.7
    assert chebyshev(5, math.cos(theta)) == pytest.approx(math.cos(5 * theta), abs=1e-12)


def test_chebyshev_recurrence_agreement():
    xs = np.linspace(-1.0, 1.0, 101)
    for x in xs:
        x = float(x)
        t_prev, t_cur = 1.0, x
        for k in range(2, 33):
            t_prev, t_cur = t_cur, 2 * x * t_cur - t_prev
            assert chebyshev(k, x) == pytest.approx(t_cur, abs=1e-10)


def workdps_chebyshev(k, x):
    """Reference: the plain mpmath form at 40 working digits."""
    if k == 0:
        return 1.0
    if k == 1:
        return float(x)
    with mpmath.mp.workdps(40):
        return float(mpmath.cos(k * mpmath.acos(mpmath.mpf(x))))


def test_chebyshev_matches_workdps_form():
    rng = np.random.default_rng(2024)
    edges = [(k, x) for k in (0, 1, 2, 3, 10**6) for x in (-1.0, -0.0, 0.0, 1.0)]
    orders = np.concatenate(
        [rng.integers(0, 100, 600), rng.integers(0, 70_000, 600), rng.integers(0, 10**6 + 1, 600)]
    )
    sample = edges + [(int(k), float(x)) for k, x in zip(orders, rng.uniform(-1.0, 1.0, orders.size))]
    for k, x in sample:
        want = workdps_chebyshev(k, x)
        got = chebyshev(k, x)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (k, x)


def test_chebyshev_domain_errors():
    with pytest.raises(ValueError):
        chebyshev(3, 1.0001)
    with pytest.raises(ValueError):
        chebyshev(-1, 0.5)
    assert chebyshev(4, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert chebyshev(4, -1.0) == pytest.approx(1.0, abs=1e-15)


def assert_same_floats(got, want):
    """Equal as doubles, and equal in sign, so -0.0 and 0.0 differ."""
    assert got.dtype == np.float64 and got.shape == want.shape
    same = (got == want) & (np.signbit(got) == np.signbit(want))
    assert same.all(), [(float(g), float(w)) for g, w in zip(got[~same], want[~same])][:5]


def scalar_chebyshev(orders, xs):
    return np.array([chebyshev(int(k), float(x)) for k, x in zip(orders, xs)])


EDGE_SAMPLES = [1.0, -1.0, 0.0, -0.0, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), 5e-324, -5e-324, 1e-300]


def test_chebyshev_many_matches_scalar():
    rng = np.random.default_rng(909)
    edges = [(k, x) for k in (0, 1, 2, 3, 2**10 - 1, 2**10) for x in EDGE_SAMPLES]
    n = 20_000
    orders = rng.integers(0, 2**10 + 1, n)
    xs = rng.uniform(-1.0, 1.0, n)
    near_one = rng.random(n) < 0.1  # within 1e-15 of +-1
    xs[near_one] = np.copysign(1.0 - rng.uniform(0.0, 1e-15, near_one.sum()), xs[near_one])
    at_edge = rng.random(n) < 0.02
    xs[at_edge] = rng.choice(EDGE_SAMPLES, at_edge.sum())
    orders = np.concatenate([[k for k, _ in edges], orders])
    xs = np.concatenate([[x for _, x in edges], xs])
    assert_same_floats(chebyshev_many(orders, xs), scalar_chebyshev(orders, xs))


def test_chebyshev_many_shapes_and_domain():
    assert chebyshev_many([], []).shape == (0,)
    assert chebyshev_many((0, 1), [-0.0, -0.0]).tolist() == [1.0, -0.0]
    with pytest.raises(ValueError):
        chebyshev_many([3], [1.0001])
    with pytest.raises(ValueError):
        chebyshev_many([3], [math.nan])
    with pytest.raises(ValueError):
        chebyshev_many([-1], [0.5])
    with pytest.raises(ValueError):
        chebyshev_many([1, 2], [0.5])


def counting_chebyshev(monkeypatch):
    """Wrap chaos.chebyshev, the fallback of chebyshev_many; returns the call log."""
    calls = []

    def counted(k, x):
        calls.append((k, x))
        return scalar(k, x)

    scalar = chaos.chebyshev
    monkeypatch.setattr(chaos, "chebyshev", counted)
    return calls


def test_chebyshev_many_equal_with_every_entry_falling_back(monkeypatch):
    rng = np.random.default_rng(4)
    orders = np.concatenate([[0, 1, 2, 2**10], rng.integers(0, 2**10 + 1, 300)])
    xs = np.concatenate([[0.5, -0.0, 1.0, -1.0], rng.uniform(-1.0, 1.0, 300)])
    want = scalar_chebyshev(orders, xs)
    monkeypatch.setattr(chaos, "_BAND_UNIT", 1.0)  # a band of at least 1 rounds nothing with certainty
    calls = counting_chebyshev(monkeypatch)
    assert_same_floats(chebyshev_many(orders, xs), want)
    assert len(calls) == orders.size


def test_chebyshev_many_rarely_falls_back_on_real_orbits(monkeypatch):
    """The keystream's own inputs: n=7 rank orders applied to orbit samples."""
    key = make_key(7, 16, 8, random.Random(3))
    rng = random.Random(3)
    orders, xs = [], []
    for ip in key.image_params:
        try:
            ox, oy = distinct_sequence(
                (rng.random(), rng.uniform(-1.0, 1.0)), HenonSineParams(ip.lambda1, ip.lambda2), count=128
            )
        except DegenerateKeyError:
            continue
        perms = rank_perms(ox, oy)
        orders += perms.s + perms.t
        xs += perms.ys[::-1] + perms.xs[::-1]
    assert len(orders) >= 8 * 256
    want = scalar_chebyshev(orders, xs)
    calls = counting_chebyshev(monkeypatch)
    assert_same_floats(chebyshev_many(orders, xs), want)
    assert len(calls) < 0.01 * len(orders)


@pytest.mark.parametrize("depth", [1, 8, 16])
def test_seed_bit_count_equals_the_plane_count(depth):
    # derive_seed counts set bits through a byte table, not through planes
    images = random_images(n=4, count=3, seed=depth, bit_depth=depth)
    want = int(np.count_nonzero(_split_planes(images.pixels, depth)))
    assert derive_seed(images) == (int(images.pixels.sum()), want)


def test_seed_examples():
    zero = MultiImage(n=2, bit_depth=8, pixels=np.zeros((2, 4, 4), dtype=np.uint8))
    assert derive_seed(zero) == (0, 0)
    x0, y0 = seed_from_sums(0, 0, 2, 8, 2)
    assert x0 == 0.0
    assert y0 == 1.0  # order-0 polynomial is constant 1

    full = MultiImage(n=2, bit_depth=8, pixels=np.full((2, 4, 4), 255, dtype=np.uint8))
    x0, _ = seed_from_sums(*derive_seed(full), 2, 8, 2)
    assert x0 == 1.0

    quad = MultiImage(
        n=1, bit_depth=8, pixels=np.array([[[0, 85], [170, 255]]], dtype=np.uint8)
    )
    intensity_sum, bit_count = derive_seed(quad)
    assert intensity_sum == 510
    assert bit_count == 16
    x0, y0 = seed_from_sums(intensity_sum, bit_count, 1, 8, 1)
    assert x0 == 0.5
    assert y0 == pytest.approx(-0.5, abs=1e-15)  # cos(16*pi/3)


def test_seed_from_sums_range():
    with pytest.raises(ValueError):
        seed_from_sums(-1, 0, 1, 8, 1)
    with pytest.raises(ValueError):
        seed_from_sums(1021, 0, 1, 8, 1)  # above 1 * 255 * 4
    x0, _ = seed_from_sums(510, 16, 1, 8, 1)
    assert x0 == 0.5


PINNED_XS = [0.02122549033429831, 0.03579040329061107]
PINNED_YS = [-0.9936718335853805, 0.03999843360242933]


def test_distinct_sequence_regression():
    """Frozen orbit values for the 2x2 seed example at lambda = 2."""
    xs, ys = distinct_sequence((0.5, -0.5), HenonSineParams(2.0, 2.0), count=2)
    assert xs == PINNED_XS
    assert ys == PINNED_YS


def test_distinct_sequence_properties(monkeypatch):
    p = HenonSineParams(3.3, 2.9)
    xs, ys = distinct_sequence((0.2, 0.1), p, count=16)
    assert len(xs) == 16 and len(ys) == 16
    assert len(set(xs)) == 16 and len(set(ys)) == 16
    again = distinct_sequence((0.2, 0.1), p, count=16)
    assert (xs, ys) == again
    with pytest.raises(ValueError):
        distinct_sequence((0.2, 0.1), p, count=0)
    monkeypatch.setattr(chaos, "_MAX_ITERATIONS", 10)
    with pytest.raises(RuntimeError):
        distinct_sequence((0.2, 0.1), p, count=1000)


def stepped_distinct_sequence(seed, p, count):
    """Reference: the same collection driven by henon_sine_step itself."""
    x, y = seed
    for _ in range(100):
        x, y = henon_sine_step(x, y, p)
    xs, ys = [], []
    while len(xs) < count or len(ys) < count:
        x, y = henon_sine_step(x, y, p)
        if len(xs) < count and x not in xs:
            xs.append(x)
        if len(ys) < count and y not in ys:
            ys.append(y)
    return xs, ys


@pytest.mark.parametrize("lambdas", [(2.0, 2.0), (3.3, 2.9), (7.9, 5.1)])
def test_distinct_sequence_hoisted_step_is_exact(lambdas):
    p = HenonSineParams(*lambdas)
    assert distinct_sequence((0.37, -0.81), p, count=128) == stepped_distinct_sequence((0.37, -0.81), p, 128)


def test_degenerate_orbit_fails_at_its_cycle(monkeypatch):
    p = HenonSineParams(1.1, 1.05)  # falls onto a short cycle within a few steps
    with pytest.raises(DegenerateKeyError, match="^orbit produced fewer than 16 distinct values") as info:
        distinct_sequence((0.5, 0.5), p, count=16)
    err = info.value
    assert err.cycled and err.count == 16 and err.image is None
    assert err.found == (2, 2) and err.iterations < 10
    # the budget backstop reports the same shortfall, without a cycle seen
    monkeypatch.setattr(chaos, "_MAX_ITERATIONS", 10)
    with pytest.raises(DegenerateKeyError) as info:
        distinct_sequence((0.2, 0.1), HenonSineParams(3.3, 2.9), count=1000)
    assert not info.value.cycled and info.value.iterations == 10 and info.value.found == (10, 10)


@pytest.mark.parametrize("block", [1, 7, 100])
def test_henon_walk_blocks_join_into_the_stepped_orbit(block):
    p = HenonSineParams(3.3, 2.9)
    x, y = 0.37, -0.81
    for _ in range(100):
        x, y = henon_sine_step(x, y, p)
    stepped = []
    for _ in range(3 * block):
        x, y = henon_sine_step(x, y, p)
        stepped.append(x)
    _, state = henon_walk((0.37, -0.81), p, BURN_IN)
    joined = []
    for _ in range(3):
        xs, state = henon_walk(state, p, block)
        assert len(xs) == block
        joined += xs
    assert joined == stepped
    assert state == (x, y)


def test_only_chaos_names_sin():
    # math.sin is the one platform-dependent function the cipher calls, so it
    # stays behind chaos.henon_walk (and the scalar henon_sine_step)
    offenders = []
    for path in sorted(Path(chaos.__file__).parent.glob("*.py")):
        if path.name == "chaos.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:
                continue
            if "sin" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_rank_perms():
    perms = rank_perms([0.9, 0.1, 0.5], [0.1, 0.2, 0.3])
    assert perms.s == (3, 1, 2)
    assert perms.t == (1, 2, 3)
    assert sorted(perms.s) == [1, 2, 3]
    with pytest.raises(ValueError):
        rank_perms([0.1, 0.1], [0.2, 0.3])
    with pytest.raises(ValueError):
        rank_perms([0.1, 0.2], [0.3])


def test_key_int_positive_example():
    # both Chebyshev factors land on 1.0, so the raw integer is 10**4
    perms = rank_perms([0.5, 1.0], [0.2, 1.0])
    assert perms.s == (1, 2) and perms.t == (1, 2)
    assert key_int(1, 1, perms, q=4, k=3) == 16  # 10000 mod 256
    bits = key_bits(1, 1, perms, q=4, k=3)
    assert bits.tolist() == [0, 0, 0, 0, 1, 0, 0, 0]


def test_key_int_negative_example():
    # product -0.3034 scales to floor(-3033.9999...) = -3034; Euclidean mod
    perms = rank_perms([-0.9, -0.3034], [0.3, 1.0])
    assert perms.s == (1, 2) and perms.t == (1, 2)
    assert key_int(1, 1, perms, q=4, k=3) == 38
    bits = key_bits(1, 1, perms, q=4, k=3)
    assert bits.tolist() == [0, 1, 1, 0, 0, 1, 0, 0]  # 0b00100110


def test_key_int_bounds_and_errors():
    perms = rank_perms([0.5, 1.0], [0.2, 1.0])
    with pytest.raises(ValueError):
        key_int(0, 1, perms, q=4, k=3)
    with pytest.raises(ValueError):
        key_int(1, 3, perms, q=4, k=3)
    for i in (1, 2):
        for j in (1, 2):
            assert 0 <= key_int(i, j, perms, q=5, k=2) < 16


def test_keystream_grid_matches_scalar():
    xs, ys = distinct_sequence((0.3, -0.2), HenonSineParams(2.7, 3.1), count=8)
    perms = rank_perms(xs, ys)
    grid = keystream_grid(perms, q=5, k=3)
    assert grid.shape == (8, 8)
    for i in range(8):
        for j in range(8):
            assert grid[i, j] == key_int(i + 1, j + 1, perms, q=5, k=3)


def test_keystream_grid_matches_scalar_at_side_128():
    xs, ys = distinct_sequence((0.61, -0.35), HenonSineParams(3.3, 5.9), count=128)
    perms = rank_perms(xs, ys)
    grid = keystream_grid(perms, q=7, k=4)
    assert grid.shape == (128, 128) and grid.dtype == np.uint16
    rng = np.random.default_rng(128)
    for i, j in rng.integers(0, 128, (500, 2)):
        assert grid[i, j] == key_int(int(i) + 1, int(j) + 1, perms, q=7, k=4), (i, j)


def orbit_perms(count, images, seed):
    """Rank permutations of `images` orbits of `count` distinct values, with their q values."""
    rng = random.Random(seed)
    perms, qs = [], []
    while len(perms) < images:
        try:
            xs, ys = distinct_sequence(
                (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
                HenonSineParams(rng.uniform(2.0, 8.0), rng.uniform(2.0, 8.0)),
                count=count,
            )
        except DegenerateKeyError:
            continue
        perms.append(rank_perms(xs, ys))
        qs.append(rng.randrange(4, 16))
    return perms, qs


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("images", [1, 3, 16])
def test_keystream_grids_equal_one_grid_at_a_time(k, images):
    perms, qs = orbit_perms(16, images, seed=10 * k + images)
    grids = keystream_grids(perms, qs, k)
    assert grids.shape == (images, 16, 16)
    for grid, p, q in zip(grids, perms, qs):
        alone = keystream_grid(p, q, k)
        assert grid.dtype == alone.dtype == np.min_scalar_type((1 << (1 << k)) - 1)
        assert grid.tobytes() == alone.tobytes()


def test_keystream_grids_equal_one_grid_at_a_time_when_every_factor_falls_back(monkeypatch):
    perms, qs = orbit_perms(4, 3, seed=5)
    want = [keystream_grid(p, q, 3) for p, q in zip(perms, qs)]
    monkeypatch.setattr(chaos, "_BAND_UNIT", 1.0)  # chebyshev_many rounds nothing itself
    calls = counting_chebyshev(monkeypatch)
    grids = keystream_grids(perms, qs, 3)
    assert len(calls) == 3 * 2 * 4
    assert [g.tobytes() for g in grids] == [w.tobytes() for w in want]
    with pytest.raises(ValueError, match="one q per image"):
        keystream_grids(perms, qs[:2], 3)


def test_keystream_bit_balance():
    """Each key bit position is near fair over a full 256x256 grid."""
    xs, ys = distinct_sequence((0.41, 0.17), HenonSineParams(4.3, 3.7), count=256)
    perms = rank_perms(xs, ys)
    grid = keystream_grid(perms, q=5, k=3)
    for l in range(8):
        freq = float(((grid >> l) & 1).mean())
        assert 0.48 <= freq <= 0.52, (l, freq)
    print("keystream bit balance within 0.5 +/- 0.02 on all planes")


def test_lyapunov_logistic():
    est = lyapunov_estimate(
        lambda x: 4.0 * x * (1.0 - x),
        lambda x: 4.0 - 8.0 * x,
        x0=0.3,
        iterations=200_000,
    )
    assert est.value == pytest.approx(math.log(2.0), abs=0.02)


def test_lyapunov_contraction():
    est = lyapunov_estimate(lambda x: x / 2.0, lambda x: 0.5, x0=0.8, iterations=1000)
    assert est.value == pytest.approx(-math.log(2.0), abs=1e-12)
    assert est.skipped == 0


def test_lyapunov_chaotified_exceeds_plain():
    plain = lyapunov_estimate(
        lambda x: 4.0 * x * (1.0 - x),
        lambda x: 4.0 - 8.0 * x,
        x0=0.3,
        iterations=50_000,
    )
    lam = 3.0
    wrapped = lyapunov_estimate(
        lambda x: math.sin(math.pi * lam * 4.0 * x * (1.0 - x)),
        lambda x: math.cos(math.pi * lam * 4.0 * x * (1.0 - x)) * math.pi * lam * (4.0 - 8.0 * x),
        x0=0.3,
        iterations=50_000,
    )
    assert wrapped.value > plain.value


def test_lyapunov_errors():
    with pytest.raises(ValueError):
        lyapunov_estimate(lambda x: x, lambda x: 1.0, x0=0.1, iterations=0)
    with pytest.raises(ValueError):
        lyapunov_estimate(lambda x: 0.0, lambda x: 0.0, x0=0.1, iterations=10)


def test_henon_sine_lyapunov_positive():
    for lam in (2.0, 5.0, 50.0):
        value = henon_sine_lyapunov(HenonSineParams(lam, lam))
        assert value > 0.0, lam


@pytest.mark.parametrize(
    "lam, value", [(2.0, 1.6030933180687348), (5.0, 2.4659631486611118), (50.0, 4.751490907973491)]
)
def test_henon_sine_lyapunov_pinned(lam, value):
    assert henon_sine_lyapunov(HenonSineParams(lam, lam)) == value


def test_emit_trajectory():
    p = HenonSineParams(2.0, 2.0)
    rows = emit_trajectory(p, (0.1, 0.2), count=5)
    assert rows[0] == "step,x,y"
    assert rows[1] == "0,0.1,0.2"
    assert len(rows) == 6
    assert emit_trajectory(p, (0.1, 0.2), count=0) == ["step,x,y"]
    # successive rows follow the map
    x1, y1 = henon_sine_step(0.1, 0.2, p)
    assert rows[2] == f"1,{x1!r},{y1!r}"


def test_emit_chebyshev_table():
    rows = emit_chebyshev_table(2, [0.6])
    assert rows[0] == "x,T0,T1,T2"
    cells = rows[1].split(",")
    assert float(cells[0]) == 0.6
    assert float(cells[1]) == 1.0
    assert float(cells[2]) == 0.6
    assert float(cells[3]) == pytest.approx(-0.28, abs=1e-12)


def test_chebyshev_identity_large_order():
    """Spot check far beyond double-precision recurrence reach."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = int(rng.integers(1, 1_000_001))
        theta = float(rng.uniform(0.0, math.pi))
        x = math.cos(theta)
        with mpmath.mp.workdps(60):
            want = float(mpmath.cos(k * mpmath.acos(mpmath.mpf(x))))
        assert abs(chebyshev(k, x) - want) <= 1e-12, (k, theta)
