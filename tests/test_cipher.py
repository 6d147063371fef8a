import dataclasses
import hashlib
import math
import os
import random
import tracemalloc

import numpy as np
import pytest

from bakermic import cipher as cipher_module
from bakermic.baker import count_partitions
from bakermic.brqmi import MultiImage, decompose, load_multi, save_multi, write_pgm
from bakermic.chaos import DegenerateKeyError, HenonSineParams, derive_seed, henon_sine_step
from bakermic.cipher import (
    ImageParams,
    KeySchedule,
    ScheduleParams,
    _draws,
    SecretKey,
    decrypt,
    derive_schedule,
    diffuse,
    encrypt,
    float_to_hex,
    hex_to_float,
    image_rank_perms,
    inverse_scramble_images_planes,
    inverse_scramble_positions,
    make_key,
    read_key,
    scramble_images_planes,
    scramble_positions,
    write_key,
)

from conftest import natural_images, random_images
from oracles import key_int


def fixed_small_key(n=2, m_prime=2, bit_depth=4):
    """Deterministic key for unit tests that need stable schedules."""
    k = max(m_prime - 1, bit_depth - 1).bit_length()
    return SecretKey(
        n=n,
        k=k,
        m_prime=m_prime,
        bit_depth=bit_depth,
        image_params=tuple(
            ImageParams(lambda1=2.5 + m, lambda2=3.5 - 0.25 * m, q=5)
            for m in range(m_prime)
        ),
        stage_a=ScheduleParams(2.5, 3.25, 0.2, -0.7),
        stage_b=ScheduleParams(4.75, 2.125, -0.3, 0.6),
        r_max1=3,
        r_max2=3,
    )


def test_make_key_shape():
    key = make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(7))
    assert key.k == 3
    assert len(key.image_params) == 3
    assert key.r_max1 == 6  # 2k default
    assert key.r_max2 == 6  # 2n default
    for ip in key.image_params:
        assert 2.0 <= ip.lambda1 <= 8.0
        assert ip.q == 5
    assert key.intensity_sum is None
    again = make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(7))
    assert again == key


def test_make_key_pins():
    key = make_key(n=2, m_prime=1, bit_depth=8, rng=random.Random(1), lambda1=3.0, lambda2=4.0, q=6)
    assert key.image_params[0].lambda1 == 3.0
    assert key.image_params[0].lambda2 == 4.0
    assert key.image_params[0].q == 6
    tiny = make_key(n=1, m_prime=1, bit_depth=1, rng=random.Random(2))
    assert tiny.k == 0
    assert tiny.r_max1 == 1  # floor of one round even when k = 0


def test_key_validation():
    key = fixed_small_key()
    key.validate()
    with pytest.raises(ValueError):
        dataclasses.replace(key, k=5).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(key, image_params=key.image_params[:1]).validate()
    bad_ip = (ImageParams(0.5, 3.0, 5),) + key.image_params[1:]
    with pytest.raises(ValueError):
        dataclasses.replace(key, image_params=bad_ip).validate()
    bad_q = (ImageParams(2.5, 3.0, 3),) + key.image_params[1:]
    with pytest.raises(ValueError):
        dataclasses.replace(key, image_params=bad_q).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(key, stage_a=ScheduleParams(2.0, 2.0, 1.5, 0.0)).validate()
    for huge in (math.inf, 1e308, 2.9e307):
        huge_ip = (ImageParams(2.5, huge, 5),) + key.image_params[1:]
        with pytest.raises(ValueError, match="image 0 lambda factors"):
            dataclasses.replace(key, image_params=huge_ip).validate()
        with pytest.raises(ValueError, match="stage_b lambda factors"):
            dataclasses.replace(key, stage_b=ScheduleParams(huge, 2.0, 0.5, 0.0)).validate()
    dataclasses.replace(key, stage_b=ScheduleParams(1e300, 1e300, 0.5, 0.0)).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(key, r_max1=0).validate()
    with pytest.raises(ValueError):
        dataclasses.replace(key, intensity_sum=5).validate()  # bit_count missing


def test_float_hex_roundtrip():
    for v in (0.0, -0.0, 1.5, -2.25, 0.1, 3.141592653589793, 5e-324, 1e308):
        assert hex_to_float(float_to_hex(v)) == v
    # the sign of zero survives the trip
    assert float_to_hex(-0.0) != float_to_hex(0.0)
    with pytest.raises(ValueError):
        hex_to_float("abc")


def test_key_file_roundtrip(tmp_path):
    key = make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(42))
    path = tmp_path / "a.key"
    write_key(key, path)
    assert read_key(path) == key

    filled = dataclasses.replace(key, intensity_sum=22061, bit_count=749)
    write_key(filled, path)
    assert read_key(path) == filled


class HalfWriter:
    """A file whose first write stores half its data and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("disk full")


def fail_write(monkeypatch, after=0):
    """Let `after` writes through os.fdopen succeed, then half-write the next."""
    real_fdopen = os.fdopen
    opened = []

    def fdopen(*args, **kwargs):
        fh = real_fdopen(*args, **kwargs)
        opened.append(1)
        return HalfWriter(fh) if len(opened) > after else fh

    monkeypatch.setattr(os, "fdopen", fdopen)


def test_key_write_failure_keeps_old_key(tmp_path, monkeypatch):
    path = tmp_path / "a.key"
    write_key(fixed_small_key(), path)
    before = path.read_bytes()
    fail_write(monkeypatch)
    filled = dataclasses.replace(fixed_small_key(), intensity_sum=22061, bit_count=749)
    with pytest.raises(OSError, match="disk full"):
        write_key(filled, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.key"]


def test_pgm_write_failure_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "a.pgm"
    write_pgm(path, np.zeros((4, 4), dtype=np.uint8), maxval=255)
    before = path.read_bytes()
    fail_write(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        write_pgm(path, np.full((4, 4), 7, dtype=np.uint8), maxval=255)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.pgm"]


@pytest.mark.parametrize("after", [0, 1, 3])  # fail on image 0, image 1, the manifest
def test_save_multi_failure_keeps_old_file(tmp_path, monkeypatch, after):
    manifest = tmp_path / "set.manifest"
    old, new = random_images(n=2, count=3, seed=1), random_images(n=2, count=3, seed=2)
    names = save_multi(old, manifest)
    files = [manifest] + [tmp_path / name for name in names]
    before = {p: p.read_bytes() for p in files}
    fail_write(monkeypatch, after)
    with pytest.raises(OSError, match="disk full"):
        save_multi(new, manifest)
    monkeypatch.undo()
    failed = manifest if after == 3 else tmp_path / names[after]
    assert failed.read_bytes() == before[failed]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in files)
    if after == 3:  # every image was replaced, the manifest was not
        assert np.array_equal(load_multi(manifest).pixels, new.pixels)


def test_key_file_strictness(tmp_path):
    key = fixed_small_key()
    path = tmp_path / "k.key"
    write_key(key, path)
    base = path.read_text()

    bad = tmp_path / "bad.key"
    bad.write_text(base + "mystery = 1\n")
    with pytest.raises(ValueError, match="unknown"):
        read_key(bad)

    lines = base.splitlines()
    bad.write_text("\n".join(line for line in lines if not line.startswith("r_max2")) + "\n")
    with pytest.raises(ValueError, match="missing"):
        read_key(bad)

    bad.write_text(base + lines[1] + "\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_key(bad)

    bad.write_text(base.replace("version = 1", "version = 99"))
    with pytest.raises(ValueError, match="version"):
        read_key(bad)

    bad.write_text("version 1\n")
    with pytest.raises(ValueError):
        read_key(bad)


def test_key_file_comments_ok(tmp_path):
    key = fixed_small_key()
    path = tmp_path / "k.key"
    write_key(key, path)
    decorated = "# stored key\n\n" + path.read_text()
    path.write_text(decorated)
    assert read_key(path) == key


def test_derive_schedule_shape():
    key = fixed_small_key()  # n=2, k=2
    sched = derive_schedule(key)
    assert len(sched.stage1) == 16  # one per pixel
    assert len(sched.stage2) == 16  # one per (image, plane) slot
    for rank, rounds in sched.stage1:
        assert 0 <= rank < count_partitions(key.k)
        assert 1 <= rounds <= key.r_max1
    for rank, rounds in sched.stage2:
        assert 0 <= rank < count_partitions(key.n)
        assert 1 <= rounds <= key.r_max2
    assert derive_schedule(key) == sched


def stepped_draws(params, modulus, r_max, count):
    """Reference: _draws driven by henon_sine_step itself."""
    p = HenonSineParams(params.lambda1, params.lambda2)
    x, y = params.x0, params.y0
    for _ in range(100):
        x, y = henon_sine_step(x, y, p)
    words = (modulus.bit_length() + 64 + 31) // 32
    out = []
    for _ in range(count):
        ws = []
        for _ in range(words + 1):
            x, y = henon_sine_step(x, y, p)
            ws.append(min(int((x + 1.0) * 0.5 * 4294967296.0), 0xFFFFFFFF))
        out.append((int.from_bytes(b"".join(w.to_bytes(4, "big") for w in ws[:-1]), "big") % modulus,
                    ws[-1] % r_max + 1))
    return out


@pytest.mark.parametrize("modulus", [26, 10**40 + 7])
def test_draws_hoisted_step_is_exact(modulus):
    params = ScheduleParams(4.75, 2.125, -0.3, 0.6)
    count = 2 * cipher_module._BLOCK + 37  # two full blocks and a partial one
    assert _draws(params, modulus, 5, count) == stepped_draws(params, modulus, 5, count)


@pytest.mark.parametrize("modulus", [26, 2**31 - 1, 2**31, 2**61 - 1, count_partitions(9), 10**40 + 7])
@pytest.mark.parametrize("r_max", [1, 5])
def test_draws_across_blocks_are_exact(monkeypatch, modulus, r_max):
    # Three full blocks and a partial one.  2**31 is the first modulus reduced
    # on Python ints instead of int64; at 2**61 - 1, int64 would overflow.
    monkeypatch.setattr(cipher_module, "_BLOCK", 16)
    params = ScheduleParams(3.5, 6.25, 0.45, -0.15)
    assert _draws(params, modulus, r_max, 53) == stepped_draws(params, modulus, r_max, 53)


def test_derive_schedule_peak_memory_is_blocked():
    # The 65536 stage-1 pairs at n=8 take about 4 MB; the stream's floats
    # are held a block at a time (all at once, the peak is about 17 MB).
    key = make_key(n=8, m_prime=3, bit_depth=8, rng=random.Random(5))
    tracemalloc.start()
    try:
        derive_schedule(key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_schedule_depends_on_stage_seeds():
    key = fixed_small_key()
    moved = dataclasses.replace(key, stage_a=ScheduleParams(2.5, 3.25, 0.21, -0.7))
    assert derive_schedule(moved).stage1 != derive_schedule(key).stage1


def test_scramble_stage1_roundtrip_and_fibres():
    key = fixed_small_key()
    sched = derive_schedule(key)
    stack = decompose(random_images(n=2, count=2, seed=8, bit_depth=4))
    out = scramble_images_planes(stack, sched)
    # each pixel's fibre is permuted: per-pixel bit counts are conserved
    assert np.array_equal(out.bits.sum(axis=(0, 1)), stack.bits.sum(axis=(0, 1)))
    assert not np.array_equal(out.bits, stack.bits)
    back = inverse_scramble_images_planes(out, sched)
    assert np.array_equal(back.bits, stack.bits)


def test_scramble_stage2_roundtrip_and_slices():
    key = fixed_small_key()
    sched = derive_schedule(key)
    stack = decompose(random_images(n=2, count=2, seed=9, bit_depth=4))
    out = scramble_positions(stack, sched)
    # each (image, plane) slice keeps its bit count
    assert np.array_equal(out.bits.sum(axis=(2, 3)), stack.bits.sum(axis=(2, 3)))
    assert not np.array_equal(out.bits, stack.bits)
    back = inverse_scramble_positions(out, sched)
    assert np.array_equal(back.bits, stack.bits)


def test_zero_rounds_is_identity():
    key = fixed_small_key()
    stack = decompose(random_images(n=2, count=2, seed=10, bit_depth=4))
    idle = KeySchedule(n=2, k=2, stage1=[(1, 0)] * 16, stage2=[(1, 0)] * 16)
    assert np.array_equal(scramble_images_planes(stack, idle).bits, stack.bits)
    assert np.array_equal(scramble_positions(stack, idle).bits, stack.bits)


def test_stage_order_matters():
    key = fixed_small_key()
    sched = derive_schedule(key)
    stack = decompose(random_images(n=2, count=2, seed=11, bit_depth=4))
    ab = scramble_positions(scramble_images_planes(stack, sched), sched)
    ba = scramble_images_planes(scramble_positions(stack, sched), sched)
    assert not np.array_equal(ab.bits, ba.bits)


def test_diffuse_involution_and_count():
    key = fixed_small_key()
    images = random_images(n=2, count=2, seed=12, bit_depth=4)
    seed = derive_seed(images)
    stack = decompose(images)
    stats: dict = {}
    once = diffuse(stack, key, seed, stats=stats)
    assert stats["xor_sites"] == 1 << (2 * (key.n + key.k))
    assert not np.array_equal(once.bits, stack.bits)
    twice = diffuse(once, key, seed)
    assert np.array_equal(twice.bits, stack.bits)


def test_diffuse_matches_scalar_keystream():
    key = fixed_small_key()  # n=2, k=2: padded stack is 4x4 slots
    images = random_images(n=2, count=2, seed=13, bit_depth=4)
    seed = derive_seed(images)
    stack = decompose(images)
    out = diffuse(stack, key, seed)
    side = 1 << key.n
    for m in range(1 << key.k):
        perms = image_rank_perms(key, seed, m)
        q = key.image_params[m % key.m_prime].q
        for l in range(1 << key.k):
            for x in range(side):
                for y in range(side):
                    bit = (key_int(x + 1, y + 1, perms, q, key.k) >> l) & 1
                    assert out.bits[m, l, x, y] == stack.bits[m, l, x, y] ^ bit


def test_encrypt_decrypt_roundtrip():
    key = make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(5))
    images = random_images(n=3, count=3, seed=14)
    cipher, updated = encrypt(images, key)
    assert cipher.m_prime == 8 and cipher.bit_depth == 8
    assert updated.intensity_sum is not None
    back, stray = decrypt(cipher, updated)
    assert stray == 0
    assert back.m_prime == 3 and back.bit_depth == 8
    assert np.array_equal(back.pixels, images.pixels)


def test_encrypt_peak_memory_is_a_few_stacks():
    # Planes are split and joined in the pixels' own dtype; one uint64 copy
    # of the stack alone would take eight stacks.
    images = natural_images(n=8, count=3, seed=5)
    key = make_key(n=8, m_prime=3, bit_depth=8, rng=random.Random(3))
    encrypt(images, key)  # warm: the schedule and grids stay cached for this key
    stack_bytes = decompose(images).bits.nbytes
    tracemalloc.start()
    try:
        encrypt(images, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * stack_bytes, f"peak {peak / 2**20:.1f} MB for a {stack_bytes / 2**20:.1f} MB stack"


def test_degenerate_orbit_fails_fast(monkeypatch):
    # The flipped plaintext reseeds image 0's orbit into a 2-cycle 257 steps
    # after burn-in; the unflipped one encrypts normally.  The orbits are
    # searched before the schedule is derived or anything is scrambled.
    key = make_key(8, 3, 8, random.Random(9001))
    images = natural_images(8, 3, seed=7001)
    pixels = images.pixels.copy()
    pixels[0, 0, 0] ^= 1
    work = []
    for name in ("derive_schedule", "scramble_images_planes", "scramble_positions"):
        monkeypatch.setattr(cipher_module, name, lambda *a, name=name: work.append(name))
    with pytest.raises(DegenerateKeyError, match="^orbit produced fewer than 256 distinct values for image 0") as info:
        encrypt(MultiImage(n=8, bit_depth=8, pixels=pixels), key)
    assert info.value.image == 0 and info.value.cycled
    assert info.value.iterations < 1000  # the whole budget is 10**7
    assert work == []


def test_encrypt_key_not_mutated():
    key = make_key(n=2, m_prime=2, bit_depth=4, rng=random.Random(6))
    images = random_images(n=2, count=2, seed=15, bit_depth=4)
    encrypt(images, key)
    assert key.intensity_sum is None  # a fresh key object is returned instead


def test_encrypt_geometry_mismatch():
    key = make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(7))
    with pytest.raises(ValueError):
        encrypt(random_images(n=2, count=3, seed=1), key)
    with pytest.raises(ValueError):
        encrypt(random_images(n=3, count=2, seed=1), key)


def test_decrypt_needs_statistics():
    key = make_key(n=2, m_prime=2, bit_depth=4, rng=random.Random(8))
    images = random_images(n=2, count=2, seed=16, bit_depth=4)
    cipher, updated = encrypt(images, key)
    with pytest.raises(ValueError):
        decrypt(cipher, key)  # original key never saw the plaintext
    with pytest.raises(ValueError):
        decrypt(images, updated)  # plaintext geometry, not ciphertext


def test_wrong_key_leaves_stray_bits():
    key = make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(9))
    images = random_images(n=3, count=3, seed=17)
    cipher, updated = encrypt(images, key)
    other = make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(10))
    other = dataclasses.replace(
        other, intensity_sum=updated.intensity_sum, bit_count=updated.bit_count
    )
    recovered, stray = decrypt(cipher, other)
    assert stray > 0
    assert not np.array_equal(recovered.pixels, images.pixels)


PLAIN_SHA = "c28809a75cce649a8aeb68a42bec86f4defa4e0fafffe0bc366193698462c672"
CIPHER_SHA = "66ae194b062fc015287ed88c1667049a83cfdb80cc3cc584500a64d4886de3d2"


def test_pipeline_regression():
    """Frozen end-to-end vector; any pipeline change must show up here."""
    key = SecretKey(
        n=3,
        k=3,
        m_prime=3,
        bit_depth=8,
        image_params=(
            ImageParams(2.25, 3.5, 5),
            ImageParams(4.125, 2.75, 5),
            ImageParams(3.0625, 5.5, 5),
        ),
        stage_a=ScheduleParams(2.5, 3.25, 0.123456789, -0.987654321),
        stage_b=ScheduleParams(5.125, 2.0625, -0.5, 0.25),
        r_max1=6,
        r_max2=6,
    )
    pixels = np.random.default_rng(2024).integers(0, 256, size=(3, 8, 8))
    images = MultiImage(n=3, bit_depth=8, pixels=pixels)
    assert hashlib.sha256(images.pixels.tobytes()).hexdigest() == PLAIN_SHA
    cipher, updated = encrypt(images, key)
    assert hashlib.sha256(cipher.pixels.tobytes()).hexdigest() == CIPHER_SHA
    assert (updated.intensity_sum, updated.bit_count) == (22061, 749)
    back, stray = decrypt(cipher, updated)
    assert stray == 0
    assert np.array_equal(back.pixels, images.pixels)
    print("pipeline regression vector holds")
