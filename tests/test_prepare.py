"""Per-key preparation: prepared passes give the bytes unprepared passes give."""

import dataclasses
import random

import numpy as np
import pytest

from bakermic import analysis, cipher, cli
from bakermic.brqmi import save_multi
from bakermic.cipher import decrypt, encrypt, make_key, prepare, write_key

from conftest import natural_images, random_images


flipped = cli._flip_one_bit  # the bit analyze flips: pixel [0, 0, 0], bit 0


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m_prime", [1, 3, 5])
def test_prepared_passes_match_unprepared(n, m_prime):
    seed = 50 * n + m_prime
    key = make_key(n, m_prime, 8, random.Random(seed))
    images = random_images(n, m_prime, seed=seed)
    prepared = prepare(key)
    c_plain, k_plain = encrypt(images, key)
    c_prep, k_prep = encrypt(images, key, prepared=prepared)
    assert k_prep == k_plain
    assert np.array_equal(c_prep.pixels, c_plain.pixels)
    d_plain, stray_plain = decrypt(c_plain, k_plain)
    d_prep, stray_prep = decrypt(c_prep, k_prep, prepared=prepared)
    assert stray_prep == stray_plain == 0
    assert np.array_equal(d_prep.pixels, d_plain.pixels)
    assert np.array_equal(d_prep.pixels, images.pixels)


def test_prepare_is_lazy_and_checks_the_key(monkeypatch):
    calls = []
    monkeypatch.setattr(cipher, "derive_schedule", lambda key: calls.append(key))
    key = make_key(3, 3, 8, random.Random(3))
    prepared = prepare(key)
    assert calls == [] and prepared.grids == {}
    monkeypatch.undo()

    images = random_images(3, 3, seed=3)
    ciphertext, seeded = encrypt(images, key, prepared=prepared)
    decrypt(ciphertext, seeded, prepared=prepared)  # differs only in the sums: accepted
    other = make_key(3, 3, 8, random.Random(4))
    with pytest.raises(ValueError, match="different key"):
        encrypt(images, other, prepared=prepared)
    with pytest.raises(ValueError, match="different key"):
        decrypt(ciphertext, dataclasses.replace(seeded, r_max2=seeded.r_max2 + 1), prepared=prepared)


def test_one_prepared_keeps_seeds_apart():
    key = make_key(3, 3, 8, random.Random(8))
    images = random_images(3, 3, seed=8)
    prepared = prepare(key)
    c1, k1 = encrypt(images, key, prepared=prepared)
    c2, k2 = encrypt(flipped(images), key, prepared=prepared)
    assert set(prepared.grids) == {(k1.intensity_sum, k1.bit_count), (k2.intensity_sum, k2.bit_count)}
    assert all(len(grids) == 3 for grids in prepared.grids.values())
    for grids in prepared.grids.values():
        assert all(g.dtype == np.uint8 for g in grids.values())  # 2**8 - 1 fits
    assert np.array_equal(c1.pixels, encrypt(images, key)[0].pixels)
    assert np.array_equal(c2.pixels, encrypt(flipped(images), key)[0].pixels)
    assert np.array_equal(decrypt(c2, k2, prepared=prepared)[0].pixels, flipped(images).pixels)
    assert np.array_equal(decrypt(c1, k1, prepared=prepared)[0].pixels, images.pixels)


def test_analyze_equals_unprepared_passes(tmp_path, monkeypatch):
    key = make_key(3, 3, 8, random.Random(21))
    plain = natural_images(3, 3, seed=21)
    key_path, manifest = tmp_path / "k.key", tmp_path / "plain.manifest"
    write_key(key, key_path)
    save_multi(plain, manifest)

    schedules, grids = [], []
    derive, grid = cipher.derive_schedule, cipher.keystream_grid
    monkeypatch.setattr(cipher, "derive_schedule", lambda k: schedules.append(1) or derive(k))
    monkeypatch.setattr(cipher, "keystream_grid", lambda *a: grids.append(1) or grid(*a))
    out = tmp_path / "report.txt"
    argv = ["analyze", "--in", str(manifest), "--key", str(key_path), "--block", "0,0,4,4",
            "--density", "0.05", "--seed", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(schedules) == 1  # one schedule for all four passes
    assert len(grids) == 2 * 3  # one grid per source image per plaintext seed
    monkeypatch.undo()

    c1, k1 = encrypt(plain, key)
    c2, _ = encrypt(flipped(plain), key)
    report = analysis.MetricsReport()
    cli._set_metrics(report, c1, 5)
    report.npcr, report.uaci = analysis.npcr_uaci(c1.pixels, c2.pixels, c1.bit_depth)
    report.bit_diff = analysis.bit_difference_rate(c1.pixels, c2.pixels, c1.bit_depth)
    report.psnr_series["occlusion"] = list(analysis.occlusion_test(c1, k1, plain, (0, 0, 4, 4)))
    report.psnr_series["noise_0.05"] = list(analysis.noise_test(c1, k1, plain, 0.05, seed=5))
    assert out.read_text() == report.render()
