import dataclasses
import hashlib
import math
import os
import random
import re
import tracemalloc

import numpy as np
import pytest

from bakermic import baker as baker_module
from bakermic import cipher as cipher_module
from bakermic.baker import count_partitions, permutation_table, unrank
from bakermic.brqmi import MultiImage, decompose, load_multi, save_multi, write_pgm
from bakermic.chaos import DegenerateKeyError, derive_seed, distinct_sequence, henon_sine_step, rank_perms, seed_from_sums
from bakermic.cipher import (
    ImageParams,
    KeySchedule,
    ScheduleParams,
    _draws,
    _power,
    SecretKey,
    decrypt,
    decrypt_all,
    derive_schedule,
    diffuse,
    encrypt,
    encrypt_all,
    float_to_hex,
    hex_to_float,
    inverse_scramble_images_planes,
    inverse_scramble_positions,
    make_key,
    read_key,
    scramble_images_planes,
    scramble_positions,
    write_key,
)

from conftest import forget_keys, natural_images, random_images, stage1_array
from oracles import key_int
from test_kat import KAT, kat_case


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
    with pytest.raises(ValueError):
        dataclasses.replace(key, k=5)
    with pytest.raises(ValueError):
        dataclasses.replace(key, image_params=key.image_params[:1])
    bad_ip = (ImageParams(0.5, 3.0, 5),) + key.image_params[1:]
    with pytest.raises(ValueError):
        dataclasses.replace(key, image_params=bad_ip)
    bad_q = (ImageParams(2.5, 3.0, 3),) + key.image_params[1:]
    with pytest.raises(ValueError):
        dataclasses.replace(key, image_params=bad_q)
    with pytest.raises(ValueError):
        dataclasses.replace(key, stage_a=ScheduleParams(2.0, 2.0, 1.5, 0.0))
    for huge in (math.inf, 1e308, 2.9e307):
        huge_ip = (ImageParams(2.5, huge, 5),) + key.image_params[1:]
        with pytest.raises(ValueError, match="image 0 lambda factors"):
            dataclasses.replace(key, image_params=huge_ip)
        with pytest.raises(ValueError, match="stage_b lambda factors"):
            dataclasses.replace(key, stage_b=ScheduleParams(huge, 2.0, 0.5, 0.0))
    dataclasses.replace(key, stage_b=ScheduleParams(1e300, 1e300, 0.5, 0.0))
    with pytest.raises(ValueError):
        dataclasses.replace(key, r_max1=0)
    with pytest.raises(ValueError):
        dataclasses.replace(key, intensity_sum=5)  # bit_count missing


def test_key_refuses_more_than_32_images_or_bits(tmp_path):
    # k=6 would need 64-bit keystream integers, past int64
    for m_prime, depth in ((33, 8), (2, 33)):
        with pytest.raises(ValueError, match=f"{m_prime} images of depth {depth} need k=6: .*at most 32 images of at most 32 bits"):
            make_key(n=2, m_prime=m_prime, bit_depth=depth, rng=random.Random(1))
    path = tmp_path / "k.key"
    key = make_key(n=2, m_prime=32, bit_depth=32, rng=random.Random(1))
    assert key.k == 5
    write_key(key, path)
    assert read_key(path) == key
    text = path.read_text().replace("k = 5\n", "k = 6\n")
    path.write_text(text.replace("depth = 32", "depth = 33"))
    with pytest.raises(ValueError, match="32 images of depth 33 need k=6"):
        read_key(path)
    extra = "lambda1_32 = 4004000000000000\nlambda2_32 = 4004000000000000\nq_32 = 5\n"
    path.write_text(text.replace("images = 32", "images = 33") + extra)
    with pytest.raises(ValueError, match="33 images of depth 32 need k=6"):
        read_key(path)


def test_float_hex_roundtrip():
    for v in (0.0, -0.0, 1.5, -2.25, 0.1, 3.141592653589793, 5e-324, 1e308):
        assert hex_to_float(float_to_hex(v)) == v
    # the sign of zero survives the trip
    assert float_to_hex(-0.0) != float_to_hex(0.0)
    with pytest.raises(ValueError):
        hex_to_float("abc")
    # int(text, 16) would take a sign, underscores or a 0x prefix: none is 16 hex digits
    for bad in ("-000000000000001", "+3ff000000000000", "3ff0_00000000000", "0x3ff000000000000", " 3ff00000000000 "):
        with pytest.raises(ValueError, match="expected 16 hex digits"):
            hex_to_float(bad)
    assert hex_to_float("3FF0000000000000") == hex_to_float("3ff0000000000000") == 1.0


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

    # a field that does not parse is named, after the file; integers take only
    # the form write_key writes, so int()'s signs, underscores, leading zeros
    # and non-ASCII digits are refused
    bad_fields = [("lambda1_0", "-000000000000001", "expected 16 hex digits"), ("r_max1", "ten", "expected a decimal integer")]
    bad_fields += [("r_max1", value, "expected a decimal integer") for value in ("1_0", "+10", "0010", "\u0661\u0660")]
    bad_fields += [("n", "0_3", "expected a decimal integer")]
    for field, value, why in bad_fields:
        bad.write_text(
            "".join((f"{field} = {value}" if line.startswith(f"{field} =") else line) + "\n" for line in lines),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: field '{field}': {why}"):
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
    for rank, rounds in sched.stage1.tolist():
        assert 0 <= rank < count_partitions(key.k)
        assert 1 <= rounds <= key.r_max1
    for rank, rounds in sched.stage2:
        assert 0 <= rank < count_partitions(key.n)
        assert 1 <= rounds <= key.r_max2
    again = derive_schedule(key)
    assert (again.n, again.k, again.stage2) == (sched.n, sched.k, sched.stage2)
    assert np.array_equal(again.stage1, sched.stage1)


def test_schedule_format():
    key = make_key(n=8, m_prime=3, bit_depth=8, rng=random.Random(5))
    sched = derive_schedule(key)
    assert not sched.stage1.flags.writeable
    assert sched.stage1.dtype["rank"] == np.uint8 and sched.stage1.dtype["rounds"] == np.uint8
    codes, tables = sched.stage1_tables
    assert codes.dtype == np.min_scalar_type(len(tables) - 1) == np.uint8
    assert len(set(sched.stage1)) == len(tables)
    assert all(type(rank) is int and type(rounds) is int for rank, rounds in sched.stage2)
    with pytest.raises(ValueError, match="read-only"):
        sched.stage1["rounds"][0] = 1
    # rounds of up to 2**32 take uint64; equal codes still mean equal selections
    wide = derive_schedule(dataclasses.replace(key, n=2, r_max1=2**64 - 1))
    assert wide.stage1.dtype["rounds"] == np.uint64
    pairs, codes = wide.stage1.tolist(), wide.stage1_tables[0].tolist()
    first = {}
    assert all(first.setdefault(code, pair) == pair for pair, code in zip(pairs, codes))
    assert len(first) == len(set(pairs)) == len(wide.stage1_tables[1])


def test_round_caps_past_the_word_range_give_one_schedule():
    # every rounds word is below 2**32, so any cap from 2**32 up draws the same rounds
    key = make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(5), r_max1=2**32)
    at_words, past_words = derive_schedule(key), derive_schedule(dataclasses.replace(key, r_max1=2**40))
    assert at_words.stage1.dtype == past_words.stage1.dtype
    assert at_words.stage1.tolist() == past_words.stage1.tolist()
    assert at_words.stage2 == past_words.stage2


def stepped_draws(params, modulus, r_max, count):
    """Reference: _draws driven by henon_sine_step itself."""
    x, y = params.x0, params.y0
    for _ in range(100):
        x, y = henon_sine_step(x, y, params)
    words = (modulus.bit_length() + 64 + 31) // 32
    out = []
    for _ in range(count):
        ws = []
        for _ in range(words + 1):
            x, y = henon_sine_step(x, y, params)
            ws.append(min(int((x + 1.0) * 0.5 * 4294967296.0), 0xFFFFFFFF))
        out.append((int.from_bytes(b"".join(w.to_bytes(4, "big") for w in ws[:-1]), "big") % modulus,
                    ws[-1] % r_max + 1))
    return out


@pytest.mark.parametrize("modulus", [26, 10**40 + 7])
def test_draws_hoisted_step_is_exact(modulus):
    params = ScheduleParams(4.75, 2.125, -0.3, 0.6)
    count = 2 * cipher_module._BLOCK + 37  # two full blocks and a partial one
    assert _draws(params, modulus, 5, count).tolist() == stepped_draws(params, modulus, 5, count)


@pytest.mark.parametrize("modulus", [26, 2**31 - 1, 2**31, 2**61 - 1, count_partitions(9), 10**40 + 7])
@pytest.mark.parametrize("r_max", [1, 5, 2**64 - 1])
def test_draws_across_blocks_are_exact(monkeypatch, modulus, r_max):
    # Three full blocks and a partial one.  2**31 is the first modulus reduced
    # on Python ints instead of int64; at 2**61 - 1, int64 would overflow.
    monkeypatch.setattr(cipher_module, "_BLOCK", 16)
    params = ScheduleParams(3.5, 6.25, 0.45, -0.15)
    assert _draws(params, modulus, r_max, 53).tolist() == stepped_draws(params, modulus, r_max, 53)


def test_derive_schedule_peak_memory_is_blocked():
    # The 65536 stage-1 selections at n=8 take 128 KB as a uint8 array (4 MB
    # as a list of int tuples); the stream's floats are held a block at a
    # time (all at once, the peak is about 17 MB).
    key = make_key(n=8, m_prime=3, bit_depth=8, rng=random.Random(5))
    tracemalloc.start()
    try:
        derive_schedule(key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, f"peak {peak / 2**20:.2f} MB"


def test_schedule_depends_on_stage_seeds():
    key = fixed_small_key()
    moved = dataclasses.replace(key, stage_a=ScheduleParams(2.5, 3.25, 0.21, -0.7))
    assert not np.array_equal(derive_schedule(moved).stage1, derive_schedule(key).stage1)


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


@pytest.mark.parametrize("chunk", [1, 50])
def test_chunk_size_never_changes_the_bytes(monkeypatch, tmp_path, chunk):
    # chunks only split stage 1's pixel loop (stage 2 goes one slot at a
    # time): every known answer holds when its fibres move a few at a time
    monkeypatch.setattr(cipher_module, "_CHUNK", chunk)
    path = tmp_path / "set.key"
    for case, want in KAT.items():
        key, plain = kat_case(*case)
        cipher, updated = encrypt(plain, key)
        write_key(updated, path)
        got = (
            hashlib.sha256(cipher.pixels.astype("<u4").tobytes()).hexdigest(),
            hashlib.sha256(path.read_bytes()).hexdigest(),
        )
        assert got == want, case
        back, stray = decrypt(cipher, updated)
        assert stray == 0 and np.array_equal(back.pixels, plain.pixels), case


# kat_case digests at the benchmark geometries, which the KATs (n <= 4) do
# not reach: n = 8 with 3 images (oneshot-n8) and n = 7 with 16 (battery-k4,
# k = 4)
BENCHMARK_KAT = {
    (8, 3, 8): (
        "be433695b47cbf2526a4eb21aa12a1f92a7afee043108377bcb4cfd8a4230f65",
        "ab200f765eae512994a8cbe929c3c4fc782d77a593de99b88ac45971a8fe48cc",
    ),
    (7, 16, 8): (
        "99bbf0ce81761e5308ab69f8a376006b520eed7e471cf5e3131dc77f321f4201",
        "b675118ab891603682bc969fd80728555876dd100b4d11f6dde6daf1cc69268f",
    ),
}


@pytest.mark.parametrize("case", sorted(BENCHMARK_KAT))
def test_benchmark_geometries_keep_their_bytes(case, tmp_path):
    key, plain = kat_case(*case)
    cipher, updated = encrypt(plain, key)
    path = tmp_path / "set.key"
    write_key(updated, path)
    got = (
        hashlib.sha256(cipher.pixels.astype("<u4").tobytes()).hexdigest(),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )
    assert got == BENCHMARK_KAT[case]
    back, stray = decrypt(cipher, updated)
    assert stray == 0 and np.array_equal(back.pixels, plain.pixels)


def test_zero_rounds_is_identity():
    key = fixed_small_key()
    stack = decompose(random_images(n=2, count=2, seed=10, bit_depth=4))
    idle = KeySchedule(n=2, k=2, stage1=stage1_array([(1, 0)] * 16), stage2=[(1, 0)] * 16)
    assert np.array_equal(scramble_images_planes(stack, idle).bits, stack.bits)
    assert np.array_equal(scramble_positions(stack, idle).bits, stack.bits)


def scatter(values, table, times=1):
    """values moved `times` times by the forward table: out[table[i]] = values[i]."""
    for _ in range(times):
        moved = np.empty_like(values)
        moved[table] = values
        values = moved
    return values


@pytest.mark.parametrize("chunk", [1, cipher_module._CHUNK])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_tables_match_repeated_scatters(monkeypatch, n, chunk):
    # every rounds value 0..2n+1 in one shuffled schedule, with repeated
    # ranks, as stage-1 tables at k = n; each selection alone must give the
    # same row.  stage1_tables reads no _CHUNK, so the rows
    # hold whatever chunk stage 1's _permute is given
    monkeypatch.setattr(cipher_module, "_CHUNK", chunk)
    rng = random.Random(n)
    rounds = list(range(2 * n + 2)) * 2
    rng.shuffle(rounds)
    ranks = [rng.randrange(count_partitions(n)) for _ in range(3)]
    sels = [(ranks[i % 3], r) for i, r in enumerate(rounds)]
    size = 1 << (2 * n)
    codes, tables = KeySchedule(n=0, k=n, stage1=stage1_array(sels), stage2=[]).stage1_tables
    assert tables.dtype == np.min_scalar_type(size - 1) and tables.shape == (len(set(sels)), size)
    for (rank, r), row in zip(sels, tables[codes]):
        base = permutation_table(unrank(n, rank))
        assert np.array_equal(scatter(np.arange(size), row), scatter(np.arange(size), base, r)), (rank, r)
        _, (alone,) = KeySchedule(n=0, k=n, stage1=stage1_array([(rank, r)]), stage2=[]).stage1_tables
        assert alone.dtype == tables.dtype and np.array_equal(alone, row), (rank, r)


@pytest.mark.parametrize("chunk", [1, cipher_module._CHUNK])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stage2_rows_match_the_slow_path(monkeypatch, n, chunk):
    # every rounds value 0..2n+1 with repeated ranks, one slot at a time;
    # stage 2 reads no _CHUNK, so each table holds at any chunk.  Each is a
    # writable intp array, apart from the layout and baker._rows
    monkeypatch.setattr(cipher_module, "_CHUNK", chunk)
    rng = random.Random(n)
    rounds = list(range(2 * n + 2)) * 2
    rng.shuffle(rounds)
    ranks = [rng.randrange(count_partitions(n)) for _ in range(3)]
    sels = [(ranks[i % 3], r) for i, r in enumerate(rounds)]
    sched = KeySchedule(n=n, k=0, stage1=stage1_array([]), stage2=sels)
    kept = (*sched.stage2_layout, baker_module._rows(n))
    pool = [np.empty(1 << (2 * n), np.intp) for _ in range(2)]
    for s, (rank, r) in enumerate(sels):
        table = sched.stage2_table(s, pool)
        assert table.dtype == np.intp and table.shape == (1 << (2 * n),) and table.flags.writeable
        assert not any(np.shares_memory(table, array) for array in kept), (rank, r)
        assert np.array_equal(table, _power(permutation_table(unrank(n, rank)), r)), (rank, r)
    for array in sched.stage2_layout:
        assert array.shape == (len(sels), 1 << n)
        with pytest.raises(ValueError, match="read-only"):
            array += 1


def test_no_pass_repeats_partition_work(monkeypatch):
    # each slot's partition is unranked once per key, into the schedule's
    # strip layout; later passes under the key build tables from it alone
    calls = {"unrank": 0, "permutation_table": 0}
    for name in calls:
        original = getattr(baker_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(baker_module, name, counted)
    key = make_key(n=4, m_prime=3, bit_depth=8, rng=random.Random(21))
    plain = random_images(n=4, count=3, seed=21, bit_depth=8)
    sched = derive_schedule(key)
    scramble_positions(decompose(plain), sched)
    assert calls == {"unrank": len(sched.stage2), "permutation_table": 0}
    cipher_module._schedule.cache_clear()
    cipher, updated = encrypt(plain, key)
    calls.update(unrank=0, permutation_table=0)
    back, stray = decrypt(cipher, updated)
    assert stray == 0 and np.array_equal(back.pixels, plain.pixels)
    assert calls == {"unrank": 0, "permutation_table": 0}


def test_stage1_tables_are_read_only():
    # the cached tables under the key must come through encrypt and
    # decrypt unchanged
    key = fixed_small_key()
    plain = random_images(n=2, count=2, seed=12, bit_depth=4)
    sched = cipher_module._schedule(cipher_module._bare(key))
    codes, tables = sched.stage1_tables
    before = codes.copy(), tables.copy()
    cipher, updated = encrypt(plain, key)
    back, stray = decrypt(cipher, updated)
    assert stray == 0 and np.array_equal(back.pixels, plain.pixels)
    assert cipher_module._schedule(cipher_module._bare(updated)) is sched
    assert np.array_equal(codes, before[0]) and np.array_equal(tables, before[1])
    for array in (codes, tables):
        with pytest.raises(ValueError, match="read-only"):
            array += 1


def test_stage_order_matters():
    key = fixed_small_key()
    sched = derive_schedule(key)
    stack = decompose(random_images(n=2, count=2, seed=11, bit_depth=4))
    ab = scramble_positions(scramble_images_planes(stack, sched), sched)
    ba = scramble_images_planes(scramble_positions(stack, sched), sched)
    assert not np.array_equal(ab.bits, ba.bits)


def seeded(key, images):
    """key carrying the plaintext sums of images, as encrypt returns it."""
    intensity_sum, bit_count = derive_seed(images)
    return dataclasses.replace(key, intensity_sum=intensity_sum, bit_count=bit_count)


def test_diffuse_involution_and_count():
    key = fixed_small_key()
    images = random_images(n=2, count=2, seed=12, bit_depth=4)
    grids = cipher_module._grids(seeded(key, images))
    stack = decompose(images)
    # a zero stack takes the stacked keystream at every one of the 4**(n+k) sites
    zero = diffuse(dataclasses.replace(stack, pixels=np.zeros_like(stack.pixels)), grids)
    keystream = np.stack([grids[m % key.m_prime] for m in range(1 << key.k)])
    assert zero.bits.size == 1 << (2 * (key.n + key.k))
    assert np.array_equal(zero.pixels, keystream)
    once = diffuse(stack, grids)
    assert not np.array_equal(once.bits, stack.bits)
    twice = diffuse(once, grids)
    assert np.array_equal(twice.bits, stack.bits)
    with pytest.raises(ValueError, match="a stack holds"):
        diffuse(images, grids)


def test_diffuse_matches_scalar_keystream():
    key = fixed_small_key()  # n=2, k=2: padded stack is 4x4 slots
    images = random_images(n=2, count=2, seed=13, bit_depth=4)
    seed = seed_from_sums(*derive_seed(images), key.m_prime, key.bit_depth, key.n)
    stack = decompose(images)
    out = diffuse(stack, cipher_module._grids(seeded(key, images)))
    side = 1 << key.n
    for m in range(1 << key.k):
        perms = rank_perms(*distinct_sequence(seed, key.image_params[m % key.m_prime], 1 << key.n))
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


def test_encrypt_and_decrypt_leave_their_inputs_alone():
    # each returns fresh arrays and writes none of the caller's
    key = make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(6))
    images = random_images(n=3, count=3, seed=15)
    before = images.pixels.copy()
    cipher, updated = encrypt(images, key)
    assert np.array_equal(images.pixels, before) and not np.shares_memory(cipher.pixels, images.pixels)
    held = cipher.pixels.copy()
    back, stray = decrypt(cipher, updated)
    assert stray == 0 and np.array_equal(back.pixels, before)
    assert np.array_equal(cipher.pixels, held) and not np.shares_memory(back.pixels, cipher.pixels)


STAGES = (scramble_images_planes, inverse_scramble_images_planes, scramble_positions, inverse_scramble_positions)


@pytest.mark.parametrize("stage", STAGES, ids=lambda f: f.__name__)
def test_stages_refuse_a_schedule_for_another_geometry(stage):
    stack = decompose(random_images(n=2, count=2, seed=16, bit_depth=4))  # n=2, k=2
    for n, k in ((3, 2), (2, 3), (1, 2), (2, 1)):
        sched = derive_schedule(make_key(n=n, m_prime=1 << k, bit_depth=1 << k, rng=random.Random(n + k)))
        with pytest.raises(ValueError, match=f"schedule is for n={n}, k={k}, but the stack has n=2, k=2"):
            stage(stack, sched)
    # only a stack, 2**k images of 2**k-bit pixels, is taken
    sched = derive_schedule(fixed_small_key())
    for count, depth in ((2, 4), (3, 3)):
        images = random_images(n=2, count=count, seed=16, bit_depth=depth)
        with pytest.raises(ValueError, match="a stack holds 2\\*\\*k images of 2\\*\\*k-bit pixels"):
            stage(images, sched)


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("k", range(5))
def test_a_batched_pass_gives_the_bytes_of_single_passes(monkeypatch, k, count):
    # stacks laid end to end move under one schedule exactly as each moves
    # alone; a small _CHUNK gives stage 1 several chunks at every k
    monkeypatch.setattr(cipher_module, "_CHUNK", 64)
    s = 1 << k
    sched = derive_schedule(make_key(n=3, m_prime=s, bit_depth=s, rng=random.Random(40 + k)))
    stacks = [random_images(n=3, count=s, seed=10 * k + b, bit_depth=s) for b in range(count)]
    batch = MultiImage(n=3, bit_depth=s, pixels=np.concatenate([stack.pixels for stack in stacks]))
    for stage in STAGES:
        expected = np.concatenate([stage(stack, sched).pixels for stack in stacks])
        assert np.array_equal(stage(batch, sched).pixels, expected), stage.__name__


def _flipped(images: MultiImage) -> MultiImage:
    pixels = images.pixels.copy()
    pixels[0, 0, 0] ^= 1
    return MultiImage(n=images.n, bit_depth=images.bit_depth, pixels=pixels)


def test_encrypt_all_and_decrypt_all_give_the_bytes_of_single_calls():
    key = make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(44))
    images = natural_images(3, 3, seed=44)
    sets = [images, _flipped(images)]  # twins with different plaintext sums
    assert derive_seed(sets[0]) != derive_seed(sets[1])
    batched = encrypt_all(sets, key)
    forget_keys()
    singles = [encrypt(images, key) for images in sets]
    assert [seeded for _, seeded in batched] == [seeded for _, seeded in singles]
    for (got, _), (want, _) in zip(batched, singles):
        assert np.array_equal(got.pixels, want.pixels)

    # one clean ciphertext, one damaged, and one under another seed: all three
    # decrypt as they do alone, stray padding bits included
    (c0, k0), (c1, _) = batched
    damaged = c0.pixels.copy()
    damaged[5, 2, 3] ^= 0x41
    ciphertexts = [c0, MultiImage(n=3, bit_depth=8, pixels=damaged), c1]
    forget_keys()
    together = decrypt_all(ciphertexts, k0)
    forget_keys()
    alone = [decrypt(c, k0) for c in ciphertexts]
    assert [stray for _, stray in together] == [stray for _, stray in alone]
    assert together[0][1] == 0 and together[1][1] > 0 and together[2][1] > 0
    for (got, _), (want, _) in zip(together, alone):
        assert np.array_equal(got.pixels, want.pixels)
    assert np.array_equal(together[0][0].pixels, images.pixels)
    assert encrypt_all([], key) == [] and decrypt_all([], k0) == []


def test_encrypt_all_refuses_a_degenerate_twin_before_any_work(monkeypatch):
    # the flipped twin of test_degenerate_orbit_fails_fast's plaintext degenerates:
    # the batch is refused before its schedule is derived or anything is scrambled
    key = make_key(8, 3, 8, random.Random(9001))
    images = natural_images(8, 3, seed=7001)
    work = []
    for name in ("derive_schedule", "scramble_images_planes", "scramble_positions"):
        monkeypatch.setattr(cipher_module, name, lambda *a, name=name: work.append(name))
    with pytest.raises(DegenerateKeyError, match="for image 0"):
        encrypt_all([images, _flipped(images)], key)
    assert work == []


def test_encrypt_peak_memory_is_a_few_stacks():
    # The bound is counted in stacks of one byte per bit, 4**(n+k) bytes
    # (4 MB here); one uint64 copy of such a stack alone would take eight.
    images = natural_images(n=8, count=3, seed=5)
    key = make_key(n=8, m_prime=3, bit_depth=8, rng=random.Random(3))
    encrypt(images, key)  # warm: the schedule and grids stay cached for this key
    stack_bytes = 4 ** (key.n + key.k)
    tracemalloc.start()
    try:
        encrypt(images, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * stack_bytes, f"peak {peak / 2**20:.1f} MB for a {stack_bytes / 2**20:.1f} MB stack"


@pytest.mark.parametrize("direction", ["encrypt", "decrypt"])
def test_warm_pass_peak_memory_is_below_5_mb(direction):
    # The stack is the ciphertext's words, 512 KB at n=8 with three 8-bit
    # images, and each stage holds about two of them and a few table buffers.
    images = natural_images(n=8, count=3, seed=5)
    key = make_key(n=8, m_prime=3, bit_depth=8, rng=random.Random(3))
    ciphertext, seeded = encrypt(images, key)  # warm: the schedule and grids stay cached for this key
    run = {"encrypt": lambda: encrypt(images, key), "decrypt": lambda: decrypt(ciphertext, seeded)}[direction]
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_warm_batched_pass_peak_memory_is_below_10_mb():
    # two sets in one pass of each stage hold at most twice what one set's warm pass does
    images = natural_images(n=8, count=3, seed=5)
    key = make_key(n=8, m_prime=3, bit_depth=8, rng=random.Random(3))
    sets = [images, _flipped(images)]
    encrypt_all(sets, key)  # warm: the schedule and both sets' grids stay cached for this key
    tracemalloc.start()
    try:
        encrypt_all(sets, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20, f"peak {peak / 2**20:.2f} MB"


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
    assert info.value.iterations == 258  # past the first 256-state block; the whole budget is 10**7
    assert work == []
    # a refusal is not cached: the same plaintext is refused again, still before any work
    with pytest.raises(DegenerateKeyError, match="for image 0"):
        encrypt(MultiImage(n=8, bit_depth=8, pixels=pixels), key)
    assert work == []
    monkeypatch.undo()
    ciphertext, seeded = encrypt(images, key)
    back, stray = decrypt(ciphertext, seeded)
    assert stray == 0 and np.array_equal(back.pixels, images.pixels)


def test_encrypt_key_not_mutated():
    key = make_key(n=2, m_prime=2, bit_depth=4, rng=random.Random(6))
    images = random_images(n=2, count=2, seed=15, bit_depth=4)
    encrypt(images, key)
    assert key.intensity_sum is None  # a fresh key object is returned instead


def test_decrypt_refuses_a_bit_count_outside_the_geometry():
    # three 8x8 8-bit images hold at most 3 * 8 * 64 = 1536 set bits
    ciphertext, seeded = encrypt(random_images(n=3, count=3, seed=17), make_key(3, 3, 8, random.Random(17)))
    for bits in (99999999, 1537, -1):
        with pytest.raises(ValueError, match=rf"^bit_count {bits} out of range \[0, 1536\]"):
            decrypt(ciphertext, dataclasses.replace(seeded, bit_count=bits))
    for bits in (0, 1536):  # the bounds themselves are a geometry's extremes, so they are accepted
        decrypt(ciphertext, dataclasses.replace(seeded, bit_count=bits))


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
