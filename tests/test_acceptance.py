"""Whole-artifact acceptance battery.

Each test covers one numbered criterion, prints a single PASS/FAIL line with
its measurements, and then asserts.  Oracles here are deliberately
independent re-derivations (brute-force enumeration, bit-shuffle closed
forms, high-precision references), not calls back into the code under test.
"""

import dataclasses
import math
import random
import time

import mpmath
import numpy as np

from bakermic import analysis, baker, chaos, cipher, qcircuit
from bakermic.brqmi import MultiImage, decompose

import oracles
from conftest import natural_images, random_images

P8 = 1947270476915296449559703445493848930452791205
CHI2_CRIT_255_1PCT = 310.457  # 1% upper critical value, 255 degrees of freedom


def power_compositions(total):
    if total == 0:
        return [()]
    out = []
    w = 1
    while w <= total:
        for rest in power_compositions(total - w):
            out.append((w,) + rest)
        w *= 2
    return out


def aligned(widths):
    start = 0
    for w in widths:
        if start % w:
            return False
        start += w
    return True


def shuffle_form(part, x, y):
    """Independent per-point bit form: block-local q drives a bit shuffle."""
    n = part.n
    for q, start in zip(part.qs, oracles.prefix_sums(part)):
        w = 1 << q
        if start <= x < start + w:
            low = n - q
            xp = ((x & (w - 1)) << low) | (y & ((1 << low) - 1))
            yp = (x & ~(w - 1)) | (y >> low)
            return xp, yp
    raise AssertionError("x outside every block")


def test_criterion_01_partition_counts(announce):
    t0 = time.perf_counter()
    counts_ok = (
        baker.count_partitions(0) == 1
        and baker.count_partitions(3) == 26
        and baker.count_partitions(8) == P8
    )
    brute = {w for w in power_compositions(8) if aligned(w)}
    ranked = {baker.unrank(3, i).widths for i in range(26)}
    enum_ok = ranked == brute and len(brute) == 26
    elapsed = time.perf_counter() - t0
    ok = counts_ok and enum_ok and elapsed < 1.0
    announce(
        f"ACCEPTANCE 01 {'PASS' if ok else 'FAIL'}: counts exact, "
        f"unrank(3) = brute force ({len(brute)} partitions), {elapsed:.3f}s"
    )
    assert counts_ok and enum_ok
    assert elapsed < 1.0


def test_criterion_02_baker_bit_form(announce):
    t0 = time.perf_counter()
    checked = 0
    for n in range(5):
        for i in range(baker.count_partitions(n)):
            part = baker.unrank(n, i)
            side = part.side
            seen = set()
            for x in range(side):
                for y in range(side):
                    out = oracles.apply(part, (x, y))
                    assert out == shuffle_form(part, x, y), (str(part), x, y)
                    seen.add(out)
            assert len(seen) == side * side, str(part)
            checked += 1

    part = baker.from_widths((4, 2, 2))
    for x in range(8):
        for y in range(8):
            if x < 4:  # top region bit clear: the wide block's shuffle
                want = (((x & 3) << 1) | (y & 1), ((x >> 2) << 2) | (y >> 1))
            else:  # top region bit set: both narrow blocks
                want = (((x & 1) << 2) | (y & 3), ((x >> 1) << 1) | (y >> 2))
            assert oracles.apply(part, (x, y)) == want, (x, y)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    announce(
        f"ACCEPTANCE 02 {'PASS' if ok else 'FAIL'}: {checked} partitions (n <= 4) "
        f"bijective + bit form, (4,2,2) table on 64 points, {elapsed:.2f}s"
    )
    assert elapsed < 10.0


def big_partition_oracle():
    """Case table of the (16,8,8,32,64,128) map over all 65536 points."""
    idx = np.arange(1 << 16, dtype=np.int64)
    xs, ys = idx >> 8, idx & 255
    conds = [xs < 16, xs < 32, xs < 64, xs < 128, xs >= 128]
    qs = [4, 3, 5, 6, 7]
    xp = np.select(
        conds,
        [((xs & ((1 << q) - 1)) << (8 - q)) | (ys & ((1 << (8 - q)) - 1)) for q in qs],
    )
    yp = np.select(conds, [(xs & ~((1 << q) - 1)) | (ys >> (8 - q)) for q in qs])
    return (xp << 8) | yp


def test_criterion_03_circuit_soundness(announce):
    t0 = time.perf_counter()
    for i in range(26):
        part = baker.unrank(3, i)
        assert qcircuit.verify(qcircuit.synthesize(part), part), str(part)

    big = baker.from_widths((16, 8, 8, 32, 64, 128))
    big_circuit = qcircuit.synthesize(big)
    perm = qcircuit.simulate_permutation(big_circuit)
    assert np.array_equal(perm, big_partition_oracle())
    assert qcircuit.verify(big_circuit, big)

    rng = random.Random(2718)
    for _ in range(50):
        part = baker.unrank(8, rng.randrange(P8))
        assert qcircuit.verify(qcircuit.synthesize(part), part), str(part)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    announce(
        f"ACCEPTANCE 03 {'PASS' if ok else 'FAIL'}: 26 side-8 circuits, "
        f"side-256 case table over 65536 states, 50 random side-256, {elapsed:.2f}s"
    )
    assert elapsed < 30.0


def test_criterion_04_cipher_invertibility(announce):
    configs = [(1, 1), (1, 3), (1, 8), (2, 1), (2, 3), (2, 8), (3, 1), (3, 3), (3, 8)]
    sets = [(n, m, seed) for seed, (n, m) in enumerate(configs)]
    sets += [(n, m, 100 + seed) for seed, (n, m) in enumerate(configs[:8])]

    count = 0
    for n, m, seed in sets:
        key = cipher.make_key(n=n, m_prime=m, bit_depth=8, rng=random.Random(seed))
        images = random_images(n=n, count=m, seed=seed)
        enc, updated = cipher.encrypt(images, key)
        back, stray = cipher.decrypt(enc, updated)
        assert stray == 0 and np.array_equal(back.pixels, images.pixels), (n, m, seed)
        count += 1

    for fill in (0, 255):  # degenerate constant sets
        images = MultiImage(n=3, bit_depth=8, pixels=np.full((3, 8, 8), fill, dtype=np.uint8))
        key = cipher.make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(200 + fill))
        enc, updated = cipher.encrypt(images, key)
        back, stray = cipher.decrypt(enc, updated)
        assert stray == 0 and np.array_equal(back.pixels, images.pixels), fill
        count += 1

    t0 = time.perf_counter()
    key = cipher.make_key(n=8, m_prime=8, bit_depth=8, rng=random.Random(300))
    images = random_images(n=8, count=8, seed=300)
    enc, updated = cipher.encrypt(images, key)
    back, stray = cipher.decrypt(enc, updated)
    big_elapsed = time.perf_counter() - t0
    assert stray == 0 and np.array_equal(back.pixels, images.pixels)
    count += 1

    ok = count == 20 and big_elapsed < 120.0
    announce(
        f"ACCEPTANCE 04 {'PASS' if ok else 'FAIL'}: {count} key/image sets "
        f"round-trip byte-exact, 256x256x8 in {big_elapsed:.2f}s"
    )
    assert count == 20
    assert big_elapsed < 120.0


def test_criterion_05_diffusion_involution(announce):
    results = []
    for n, m, depth, seed in ((2, 2, 4, 50), (3, 3, 8, 51)):
        key = cipher.make_key(n=n, m_prime=m, bit_depth=depth, rng=random.Random(seed))
        images = random_images(n=n, count=m, seed=seed, bit_depth=depth)
        intensity_sum, bit_count = chaos.derive_seed(images)
        grids = cipher._grids(dataclasses.replace(key, intensity_sum=intensity_sum, bit_count=bit_count))
        stack = decompose(images)
        twice = cipher.diffuse(cipher.diffuse(stack, grids), grids)
        # diffusing a zero stack lays the stacked keystream over all 4**(n+k) sites
        zero = cipher.diffuse(dataclasses.replace(stack, pixels=np.zeros_like(stack.pixels)), grids)
        keystream = np.stack([grids[i % m] for i in range(1 << key.k)])
        results.append(
            np.array_equal(twice.bits, stack.bits)
            and zero.bits.size == 1 << (2 * (key.n + key.k))
            and np.array_equal(zero.pixels, keystream)
        )
    ok = all(results)
    announce(
        f"ACCEPTANCE 05 {'PASS' if ok else 'FAIL'}: diffuse twice = identity, "
        f"keystream laid over every site at both geometries"
    )
    assert ok


def test_criterion_06_chebyshev_consistency(announce):
    max_err_rec = 0.0
    for x in np.linspace(-1.0, 1.0, 1000):
        x = float(x)
        t_prev, t_cur = 1.0, x
        for k in range(2, 65):
            t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
            max_err_rec = max(max_err_rec, abs(chaos.chebyshev(k, x) - t_cur))

    rng = np.random.default_rng(606)
    max_err_id = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 1_000_001))
        theta = float(rng.uniform(0.0, math.pi))
        x = math.cos(theta)
        with mpmath.mp.workdps(60):
            want = float(mpmath.cos(k * mpmath.acos(mpmath.mpf(x))))
        max_err_id = max(max_err_id, abs(chaos.chebyshev(k, x) - want))

    ok = max_err_rec <= 1e-9 and max_err_id <= 1e-12
    announce(
        f"ACCEPTANCE 06 {'PASS' if ok else 'FAIL'}: recurrence gap {max_err_rec:.2e} "
        f"(bar 1e-9), identity gap {max_err_id:.2e} (bar 1e-12)"
    )
    assert max_err_rec <= 1e-9
    assert max_err_id <= 1e-12


def test_criterion_07_chaos_calibration(announce):
    est = oracles.lyapunov_estimate(
        lambda x: 4.0 * x * (1.0 - x),
        lambda x: 4.0 - 8.0 * x,
        x0=0.3,
        iterations=200_000,
    )
    logistic_gap = abs(est.value - math.log(2.0))
    exponents = {
        lam: oracles.henon_sine_lyapunov(chaos.HenonSineParams(lam, lam))
        for lam in (2.0, 5.0, 50.0)
    }
    ok = logistic_gap <= 0.02 and all(v > 0.0 for v in exponents.values())
    detail = ", ".join(f"lambda={lam:g}: {v:+.3f}" for lam, v in exponents.items())
    announce(
        f"ACCEPTANCE 07 {'PASS' if ok else 'FAIL'}: logistic-4 gap {logistic_gap:.4f} "
        f"(bar 0.02); {detail}"
    )
    assert logistic_gap <= 0.02
    assert all(v > 0.0 for v in exponents.values())


def test_criterion_08_avalanche(announce):
    key = cipher.make_key(n=8, m_prime=3, bit_depth=8, rng=random.Random(808))
    images = natural_images(8, 3, seed=808)
    base, _ = cipher.encrypt(images, key)

    rng = np.random.default_rng(808)
    rates = []
    for _ in range(10):
        m = int(rng.integers(3))
        x = int(rng.integers(256))
        y = int(rng.integers(256))
        bit = int(rng.integers(8))
        pixels = images.pixels.copy()
        pixels[m, x, y] ^= 1 << bit
        flipped = MultiImage(n=8, bit_depth=8, pixels=pixels)
        enc, _ = cipher.encrypt(flipped, key)
        rates.append(analysis.bit_difference_rate(base.pixels, enc.pixels, 8))

    ok = all(45.0 <= r <= 55.0 for r in rates)
    announce(
        f"ACCEPTANCE 08 {'PASS' if ok else 'FAIL'}: one-bit avalanche over 10 trials, "
        f"bit difference {min(rates):.2f}%..{max(rates):.2f}% (bar [45, 55])"
    )
    assert ok


def test_criterion_09_statistical_quality(announce):
    passes = 0
    redraws = 0
    details = []
    for run in range(10):
        images = natural_images(8, 3, seed=7000 + run)
        pixels = images.pixels.copy()
        pixels[0, 0, 0] ^= 1
        flipped = MultiImage(n=8, bit_depth=8, pixels=pixels)
        # A key whose chaotic parameters trap either plaintext's orbit in a
        # periodic window makes encryption raise instead of producing a
        # ciphertext; operationally that means drawing a fresh key, so do the
        # same here and keep count.
        for attempt in range(10):
            key = cipher.make_key(
                n=8, m_prime=3, bit_depth=8,
                rng=random.Random(9000 + run + 1000 * attempt),
            )
            try:
                c1, _ = cipher.encrypt(images, key)
                c2, _ = cipher.encrypt(flipped, key)
            except RuntimeError:
                redraws += 1
                continue
            break
        else:
            raise AssertionError(f"run {run}: no usable key in 10 draws")

        npcr, uaci = analysis.npcr_uaci(c1.pixels, c2.pixels, 8)
        max_r = 0.0
        for m in range(c1.m_prime):
            for direction in analysis.DIRECTIONS:
                r = analysis.adjacent_correlation(
                    c1.pixels[m], direction, samples=8192, seed=run * 100 + m
                )
                max_r = max(max_r, 1.0 if r is None else abs(r))
        # the histogram statistic is per emitted image; the run passes when
        # the worst image stays under the critical value
        chi2 = max(
            analysis.histogram_chi2(c1.pixels[m], 8) for m in range(c1.m_prime)
        )

        run_ok = (
            npcr >= 99.0
            and 30.0 <= uaci <= 37.0
            and max_r < 0.05
            and chi2 < CHI2_CRIT_255_1PCT
        )
        passes += run_ok
        details.append(
            f"run {run}: npcr {npcr:.2f} uaci {uaci:.2f} |r| {max_r:.4f} "
            f"max chi2 {chi2:.1f} {'ok' if run_ok else 'MISS'}"
        )

    ok = passes >= 8
    announce(
        f"ACCEPTANCE 09 {'PASS' if ok else 'FAIL'}: {passes}/10 runs inside all bars "
        f"(npcr >= 99, uaci in [30, 37], |r| < 0.05, chi2 < {CHI2_CRIT_255_1PCT}), "
        f"{redraws} degenerate key(s) redrawn"
    )
    for line in details:
        print(line)
    assert ok


def test_criterion_10_robustness_trend(announce):
    key = cipher.make_key(n=8, m_prime=3, bit_depth=8, rng=random.Random(1010))
    plain = natural_images(8, 3, seed=1010)
    enc, key = cipher.encrypt(plain, key)

    fractions = (0.0, 1 / 16, 1 / 4, 1.0)
    means = []
    for f in fractions:
        side = round(256 * math.sqrt(f))
        series = analysis.occlusion_test(enc, key, plain, (0, 0, side, side))
        means.append(float(np.mean(series)))
    monotone = all(a > b for a, b in zip(means, means[1:]))

    clean = analysis.noise_test(enc, key, plain, density=0.0)
    exact = all(math.isinf(v) for v in clean)

    ok = monotone and exact
    shown = ", ".join("inf" if math.isinf(v) else f"{v:.2f}" for v in means)
    announce(
        f"ACCEPTANCE 10 {'PASS' if ok else 'FAIL'}: occlusion PSNR [{shown}] dB "
        f"monotone decreasing; density-0 noise recovers exactly"
    )
    assert monotone
    assert exact
