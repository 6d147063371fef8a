import math
import random

import numpy as np
import pytest

from bakermic.analysis import (
    MetricsReport,
    add_salt_pepper,
    adjacent_correlation,
    bit_difference_rate,
    histogram_chi2,
    npcr_uaci,
    noise_test,
    occlude,
    occlusion_test,
    psnr,
)
from bakermic.brqmi import MultiImage, _split_planes
from bakermic.cipher import encrypt, make_key

from conftest import natural_images, random_images


def test_chi2_uniform_is_zero():
    pixels = np.tile(np.arange(256), 256).reshape(256, 256)
    assert histogram_chi2(pixels, 8) == 0.0


def test_chi2_hand_case():
    # counts (3, 1) against expectation 2 per bin
    pixels = np.array([[0, 0], [0, 1]])
    assert histogram_chi2(pixels, 1) == 1.0


def test_chi2_rejects_overflow_values():
    with pytest.raises(ValueError):
        histogram_chi2(np.array([[0, 4]]), 2)


def test_correlation_directions():
    grad = np.add.outer(np.arange(64), np.arange(64)) % 256
    for direction in ("horizontal", "vertical", "diagonal"):
        r = adjacent_correlation(grad, direction, samples=2048, seed=1)
        assert r is not None and r > 0.9
    flat = np.full((64, 64), 7)
    assert adjacent_correlation(flat, "horizontal") is None
    with pytest.raises(ValueError):
        adjacent_correlation(grad, "antidiagonal")


def test_correlation_without_adjacent_pairs_is_undefined():
    # a 1x1 image (n=0) has no neighbour in any direction
    for direction in ("horizontal", "vertical", "diagonal"):
        assert adjacent_correlation(np.array([[5]]), direction) is None
    # a single row still has horizontal pairs but no vertical or diagonal ones
    row = np.arange(8)[None, :]
    assert adjacent_correlation(row, "horizontal", samples=64) is not None
    assert adjacent_correlation(row, "vertical") is None
    assert adjacent_correlation(row, "diagonal") is None


def test_correlation_deterministic():
    img = natural_images(6, 1, seed=4).pixels[0]
    a = adjacent_correlation(img, "vertical", seed=9)
    b = adjacent_correlation(img, "vertical", seed=9)
    assert a == b


def test_npcr_uaci_extremes():
    a = np.zeros((8, 8), dtype=np.int64)
    assert npcr_uaci(a, a, 8) == (0.0, 0.0)
    b = np.full((8, 8), 255, dtype=np.int64)
    assert npcr_uaci(a, b, 8) == (100.0, 100.0)
    with pytest.raises(ValueError):
        npcr_uaci(a, np.zeros((4, 4)), 8)


def test_npcr_uaci_partial():
    a = np.zeros((2, 2), dtype=np.int64)
    b = np.array([[51, 0], [0, 0]], dtype=np.int64)
    n, u = npcr_uaci(a, b, 8)
    assert n == 25.0
    assert u == pytest.approx(100.0 * 51 / (255 * 4))


def test_bit_difference_rate():
    a = np.zeros((4, 4), dtype=np.int64)
    assert bit_difference_rate(a, a, 8) == 0.0
    assert bit_difference_rate(a, a + 255, 8) == 100.0
    assert bit_difference_rate(a, a + 15, 8) == 50.0
    # only the low bit_depth bits count, for values out of range as well
    assert bit_difference_rate(a, a + 256, 8) == 0.0
    assert bit_difference_rate(a, a - 1, 8) == 100.0


@pytest.mark.parametrize("depth", [1, 8, 16])
def test_bit_difference_rate_equals_the_plane_count(depth):
    # the rate counts set bits of the XOR through a byte table, not through planes
    a, b = (random_images(n=4, count=16, seed=seed, bit_depth=depth).pixels for seed in (depth, depth + 1))
    diff = int(np.count_nonzero(_split_planes(a ^ b, depth)))
    assert bit_difference_rate(a, b, depth) == 100.0 * diff / (a.size * depth)


def test_psnr():
    a = np.zeros((8, 8))
    assert psnr(a, a, 8) == math.inf
    assert psnr(a, a + 255, 8) == 0.0
    # halving the error adds about 6 dB
    d1 = psnr(a, a + 40, 8)
    d2 = psnr(a, a + 20, 8)
    assert d2 - d1 == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_occlude():
    images = random_images(n=3, count=2, seed=20)
    cut = occlude(images, (2, 1, 4, 3))
    assert not cut.pixels[:, 2:6, 1:4].any()
    untouched = np.ones((2, 8, 8), dtype=bool)
    untouched[:, 2:6, 1:4] = False
    assert np.array_equal(cut.pixels[untouched], images.pixels[untouched])
    with pytest.raises(ValueError):
        occlude(images, (6, 0, 4, 1))
    with pytest.raises(ValueError):
        occlude(images, (-1, 0, 2, 2))


def test_salt_pepper():
    images = random_images(n=4, count=2, seed=21)
    same = add_salt_pepper(images, 0.0)
    assert np.array_equal(same.pixels, images.pixels)
    slammed = add_salt_pepper(images, 1.0, seed=5)
    assert set(np.unique(slammed.pixels)) <= {0, 255}
    a = add_salt_pepper(images, 0.3, seed=6)
    b = add_salt_pepper(images, 0.3, seed=6)
    assert np.array_equal(a.pixels, b.pixels)
    with pytest.raises(ValueError):
        add_salt_pepper(images, 1.5)


def test_occlusion_and_noise_probes():
    key = make_key(n=4, m_prime=2, bit_depth=8, rng=random.Random(31))
    plain = natural_images(4, 2, seed=30)
    cipher, key = encrypt(plain, key)

    clean = noise_test(cipher, key, plain, density=0.0)
    assert all(math.isinf(v) for v in clean)  # untouched ciphertext recovers exactly

    occluded = occlusion_test(cipher, key, plain, (0, 0, 8, 8))
    assert occluded.shape == (2,)
    assert all(np.isfinite(occluded))

    noisy = noise_test(cipher, key, plain, density=0.2, seed=3)
    assert all(np.isfinite(noisy))


def test_report_render():
    report = MetricsReport(
        chi2=[251.25],
        correlations={"horizontal": [0.0123456, None]},
        npcr=99.61,
        uaci=33.47,
        bit_diff=50.01,
        psnr_series={"occlusion": [math.inf, 12.5]},
    )
    text = report.render()
    assert text == (
        "chi2[0] = 251.2500\n"
        "correlation[horizontal][0] = +0.012346\n"
        "correlation[horizontal][1] = undefined\n"
        "npcr = 99.6100%\n"
        "uaci = 33.4700%\n"
        "bit_diff = 50.0100%\n"
        "psnr[occlusion] = inf, 12.5000\n"
    )


def test_report_empty():
    assert MetricsReport().render() == "\n"
