"""Per-key reuse: passes served from cached key material give the bytes fresh passes give."""

import gc
import random
import sys
import threading
import weakref

import numpy as np
import pytest

from bakermic import analysis, cipher, cli
from bakermic.brqmi import MultiImage, save_multi
from bakermic.cipher import decrypt, encrypt, make_key, write_key

from conftest import forget_keys, natural_images, random_images


flipped = cli._flip_one_bit  # the bit analyze flips: pixel [0, 0, 0], bit 0


def count_work(monkeypatch):
    """Count schedule derivations and keystream grids (one per image keystream_grids returns) from here on."""
    counts = {"schedules": 0, "grids": 0}
    derive, grids = cipher.derive_schedule, cipher.keystream_grids

    def counted_derive(key):
        counts["schedules"] += 1
        return derive(key)

    def counted_grids(*args):
        made = grids(*args)
        counts["grids"] += len(made)
        return made

    monkeypatch.setattr(cipher, "derive_schedule", counted_derive)
    monkeypatch.setattr(cipher, "keystream_grids", counted_grids)
    return counts


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m_prime", [1, 3, 5])
def test_prepared_passes_match_unprepared(n, m_prime):
    # Passes served from cached material against passes after a cache clear.
    seed = 50 * n + m_prime
    key = make_key(n, m_prime, 8, random.Random(seed))
    images = random_images(n, m_prime, seed=seed)
    c_fresh, k_fresh = encrypt(images, key)
    forget_keys()
    d_fresh, stray_fresh = decrypt(c_fresh, k_fresh)
    forget_keys()
    c_cached, k_cached = encrypt(images, key)
    d_cached, stray_cached = decrypt(c_cached, k_cached)
    assert cipher._schedule.cache_info()[:2] == (1, 1)  # decrypt hit encrypt's schedule
    assert cipher._grids.cache_info()[:2] == (1, 1)  # decrypt hit encrypt's grids
    assert k_cached == k_fresh
    assert np.array_equal(c_cached.pixels, c_fresh.pixels)
    assert stray_cached == stray_fresh == 0
    assert np.array_equal(d_cached.pixels, d_fresh.pixels)
    assert np.array_equal(d_cached.pixels, images.pixels)


def test_round_trip_derives_once(monkeypatch):
    key = make_key(3, 3, 8, random.Random(3))
    images = random_images(3, 3, seed=3)
    counts = count_work(monkeypatch)
    ciphertext, seeded = encrypt(images, key)
    back, stray = decrypt(ciphertext, seeded)
    assert counts == {"schedules": 1, "grids": 3}
    assert stray == 0 and np.array_equal(back.pixels, images.pixels)


def test_new_key_replaces_the_cached_one(monkeypatch):
    key_a = make_key(3, 3, 8, random.Random(4))
    key_b = make_key(3, 3, 8, random.Random(5))
    images = random_images(3, 3, seed=4)
    encrypt(images, key_a)
    schedule_a = weakref.ref(cipher._schedule(cipher._bare(key_a)))
    assert schedule_a() is not None

    counts = count_work(monkeypatch)
    ciphertext, seeded = encrypt(images, key_b)
    gc.collect()
    assert schedule_a() is None  # B's schedule replaced A's once B's encrypt returned
    assert cipher._schedule.cache_info().currsize == 1
    assert np.array_equal(decrypt(ciphertext, seeded)[0].pixels, images.pixels)
    assert counts["schedules"] == 1  # B's decrypt reused B's schedule


def test_one_prepared_keeps_seeds_apart(monkeypatch):
    # One key serves P and flipped P without mixing their grids, and keeps
    # the grids of the two most recently used plaintext seeds only.
    key = make_key(3, 3, 8, random.Random(8))
    images = random_images(3, 3, seed=8)
    counts = count_work(monkeypatch)
    c1, k1 = encrypt(images, key)
    c2, k2 = encrypt(flipped(images), key)
    assert counts["grids"] == 2 * 3
    for seeded in (k1, k2):
        grids = cipher._grids(seeded)
        assert len(grids) == 3 and all(g.dtype == np.uint8 for g in grids)  # 2**8 - 1 fits
    assert np.array_equal(decrypt(c2, k2)[0].pixels, flipped(images).pixels)
    assert np.array_equal(decrypt(c1, k1)[0].pixels, images.pixels)
    assert counts["grids"] == 2 * 3  # both seeds were still held

    third = random_images(3, 3, seed=9)
    c3, _ = encrypt(third, key)
    assert counts["grids"] == 3 * 3
    encrypt(images, key)
    assert counts["grids"] == 3 * 3  # P, used last before third, is held
    encrypt(flipped(images), key)
    assert counts["grids"] == 4 * 3  # flipped P was evicted
    forget_keys()
    assert np.array_equal(c1.pixels, encrypt(images, key)[0].pixels)
    assert np.array_equal(c2.pixels, encrypt(flipped(images), key)[0].pixels)
    assert np.array_equal(c3.pixels, encrypt(third, key)[0].pixels)


@pytest.mark.parametrize(
    "n, m_prime, depth",
    [
        pytest.param(2, 1, 1, id="k0"),
        pytest.param(2, 2, 2, id="k1"),
        pytest.param(3, 3, 4, id="k2"),
        pytest.param(3, 3, 8, id="k3"),
        pytest.param(3, 16, 8, id="k4"),
    ],
)
def test_analyze_equals_unprepared_passes(tmp_path, monkeypatch, n, m_prime, depth):
    key = make_key(n, m_prime, depth, random.Random(21))
    plain = MultiImage(n=n, bit_depth=depth, pixels=natural_images(n, m_prime, seed=21).pixels >> (8 - depth))
    key_path, manifest = tmp_path / "k.key", tmp_path / "plain.manifest"
    write_key(key, key_path)
    save_multi(plain, manifest)

    counts = count_work(monkeypatch)
    tables = []
    table = cipher.KeySchedule.stage2_table

    def counted_table(self, s, pool):
        tables.append(s)
        return table(self, s, pool)

    monkeypatch.setattr(cipher.KeySchedule, "stage2_table", counted_table)
    out = tmp_path / "report.txt"
    argv = ["analyze", "--in", str(manifest), "--key", str(key_path), "--block", "0,0,4,4",
            "--density", "0.05", "--seed", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    assert counts["schedules"] == 1  # one schedule for all four passes
    assert counts["grids"] == 2 * m_prime  # one grid per source image per plaintext seed
    # the twin encrypts share one pass of each stage and the two probe decrypts
    # another, so each slot's stage-2 table is built twice, not four times
    assert sorted(tables) == sorted(2 * list(range(4**key.k)))
    monkeypatch.undo()

    # The same four passes, each from a cold cache.
    def cold(f, *args, **kwargs):
        forget_keys()
        return f(*args, **kwargs)

    c1, k1 = cold(encrypt, plain, key)
    c2, _ = cold(encrypt, flipped(plain), key)
    report = analysis.MetricsReport()
    cli._set_metrics(report, c1, 5)
    report.npcr, report.uaci = analysis.npcr_uaci(c1.pixels, c2.pixels, c1.bit_depth)
    report.bit_diff = analysis.bit_difference_rate(c1.pixels, c2.pixels, c1.bit_depth)
    report.psnr_series["occlusion"] = list(cold(analysis.occlusion_test, c1, k1, plain, (0, 0, 4, 4)))
    report.psnr_series["noise_0.05"] = list(cold(analysis.noise_test, c1, k1, plain, 0.05, seed=5))
    assert out.read_text() == report.render()


def test_threads_share_the_cache_safely():
    # More threads than cores, switching often, over more plaintexts than one
    # key keeps grids for: every pass must give the single-threaded bytes.
    key = make_key(1, 1, 2, random.Random(31))
    plains = [random_images(1, 1, seed=s, bit_depth=2) for s in range(5)]
    expected = [encrypt(p, key)[0].pixels for p in plains]
    failures, done = [], []

    def work(t):
        try:
            for step in range(100):
                j = (t + step) % len(plains)
                ciphertext, seeded = encrypt(plains[j], key)
                assert np.array_equal(ciphertext.pixels, expected[j])
                assert np.array_equal(decrypt(ciphertext, seeded)[0].pixels, plains[j].pixels)
            done.append(t)
        except Exception as exc:  # reported below with the thread that raised it
            failures.append((t, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and sorted(done) == list(range(6))
