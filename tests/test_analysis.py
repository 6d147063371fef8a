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

from conftest import natural_images, peak_bytes, random_images
from oracles import salt_pepper


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


def test_npcr_uaci_counts_every_chunk():
    # 2.5 chunks of pixels: a dropped or doubled chunk changes both counts
    rng = np.random.default_rng(3)
    a, b = (rng.integers(0, 1 << 16, size=(5, 2, 4096), dtype=np.uint16) for _ in range(2))
    b[0, 0, :100] = a[0, 0, :100]
    diff = np.abs(a.astype(np.int64) - b)
    npcr, uaci = npcr_uaci(a, b, 16)
    assert npcr == 100.0 * (np.count_nonzero(diff) / a.size)
    assert uaci == 100.0 * int(diff.sum()) / (a.size * 65535)


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


@pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 1.0])
@pytest.mark.parametrize("n, count, depth", [(0, 1, 8), (6, 5, 8), (6, 7, 16), (7, 2, 12)])
def test_salt_pepper_draws_the_pixels_of_one_whole_set_draw(n, count, depth, density):
    # chunked draws of the same stream: 5 and 7 images of 4096 pixels end
    # inside a chunk, and 2 of 16384 end on a chunk's edge
    images = random_images(n=n, count=count, seed=n + count, bit_depth=depth)
    for seed in (0, 1, 17):
        got = add_salt_pepper(images, density, seed=seed)
        assert got.pixels.dtype == images.pixels.dtype
        assert np.array_equal(got.pixels, salt_pepper(images, density, seed=seed).pixels), seed


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


@pytest.mark.parametrize("n", [7, 9])
def test_measurements_hold_no_whole_set_temporary(n):
    # 16 images of 16-bit pixels, the ciphertext of a k = 4 analyze: every
    # wider temporary is one chunk, and the probe's set-sized arrays are its
    # output and a one-byte hit mask
    rng = np.random.default_rng(n)
    a, b = (rng.integers(0, 1 << 16, size=(16, 1 << n, 1 << n), dtype=np.uint16) for _ in range(2))
    images = MultiImage(n=n, bit_depth=16, pixels=a)
    npcr_uaci(a, b, 16)
    add_salt_pepper(images, 0.05)
    assert peak_bytes(npcr_uaci, a, b, 16) < a.nbytes
    assert peak_bytes(add_salt_pepper, images, 0.05) < 2 * a.nbytes
