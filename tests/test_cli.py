import dataclasses
import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from bakermic.baker import unrank
from bakermic.brqmi import load_multi, save_multi
from bakermic.chaos import DegenerateKeyError
from bakermic.cipher import make_key, read_key, write_key
import bakermic
from bakermic import cli
from bakermic.cli import main

from conftest import natural_images, random_images, temporaries
from test_kat import kat_case


def run(*argv):
    return main(list(argv))


def test_keygen_writes_readable_key(tmp_path, capsys):
    path = tmp_path / "k.key"
    assert run("keygen", "--key", str(path), "--n", "3", "--images", "3", "--seed", "7") == 0
    key = read_key(path)
    assert key.n == 3 and key.m_prime == 3 and key.bit_depth == 8
    assert "wrote key" in capsys.readouterr().out

    other = tmp_path / "k2.key"
    assert run("keygen", "--key", str(other), "--n", "3", "--images", "3", "--seed", "7") == 0
    assert other.read_text() == path.read_text()


def test_keygen_refuses_a_negative_seed(tmp_path, capsys):
    # random.Random seeds from the absolute value of an int, so --seed -5
    # would write the key that --seed 5 writes
    path = tmp_path / "k.key"
    assert run("keygen", "--key", str(path), "--n", "3", "--images", "3", "--seed", "-5") == 1
    assert "--seed must be nonnegative, got -5" in capsys.readouterr().err
    assert not path.exists()
    assert run("keygen", "--key", str(path), "--n", "3", "--images", "3", "--seed", "0") == 0


def test_keygen_options(tmp_path):
    path = tmp_path / "k.key"
    code = run(
        "keygen", "--key", str(path), "--n", "2", "--images", "2", "--depth", "4",
        "--seed", "3", "--qm", "6", "--rmax1", "2", "--rmax2", "5",
        "--lambda1", "3.5", "--lambda2", "2.5",
    )
    assert code == 0
    key = read_key(path)
    assert key.r_max1 == 2 and key.r_max2 == 5
    assert all(ip.q == 6 for ip in key.image_params)
    assert all(ip.lambda1 == 3.5 and ip.lambda2 == 2.5 for ip in key.image_params)


def test_encrypt_decrypt_cycle(tmp_path, capsys):
    images = random_images(n=3, count=3, seed=23)
    plain = tmp_path / "plain" / "set.txt"
    plain.parent.mkdir()
    save_multi(images, plain)
    key = tmp_path / "k.key"
    assert run("keygen", "--key", str(key), "--n", "3", "--images", "3", "--seed", "11") == 0

    cipher = tmp_path / "cipher" / "set.txt"
    cipher.parent.mkdir()
    assert run("encrypt", "--in", str(plain), "--key", str(key), "--out", str(cipher)) == 0
    assert read_key(key).intensity_sum is not None  # key updated in place
    assert load_multi(cipher).m_prime == 8

    out = tmp_path / "out" / "set.txt"
    out.parent.mkdir()
    assert run("decrypt", "--in", str(cipher), "--key", str(key), "--out", str(out)) == 0
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    recovered = load_multi(out)
    assert np.array_equal(recovered.pixels, images.pixels)


def test_decrypt_warns_on_wrong_key(tmp_path, capsys):
    images = random_images(n=2, count=2, seed=24, bit_depth=4)
    plain = tmp_path / "plain.txt"
    save_multi(images, plain)
    key = tmp_path / "k.key"
    run("keygen", "--key", str(key), "--n", "2", "--images", "2", "--depth", "4", "--seed", "1")
    cipher = tmp_path / "c" / "set.txt"
    cipher.parent.mkdir()
    run("encrypt", "--in", str(plain), "--key", str(key), "--out", str(cipher))

    # fresh key with the right geometry but wrong material, stats grafted on
    wrong = tmp_path / "wrong.key"
    run("keygen", "--key", str(wrong), "--n", "2", "--images", "2", "--depth", "4", "--seed", "2")
    good = read_key(key)
    text = wrong.read_text()
    text += f"intensity_sum = {good.intensity_sum}\nbit_count = {good.bit_count}\n"
    wrong.write_text(text)

    out = tmp_path / "o" / "set.txt"
    out.parent.mkdir()
    assert run("decrypt", "--in", str(cipher), "--key", str(wrong), "--out", str(out)) == 0
    assert "warning" in capsys.readouterr().err


def test_encrypt_refuses_a_key_carrying_another_plaintext(tmp_path, capsys, monkeypatch):
    # a second image set under one key file would overwrite the only copy of
    # the first set's sums; re-encrypting the first set stays allowed
    key = tmp_path / "k.key"
    assert run("keygen", "--key", str(key), "--n", "3", "--images", "3", "--seed", "7") == 0
    plains, ciphers = [], []
    for seed in (1, 2):
        plains.append(tmp_path / f"p{seed}" / "set.txt")
        plains[-1].parent.mkdir()
        save_multi(random_images(n=3, count=3, seed=seed), plains[-1])
        ciphers.append(tmp_path / f"c{seed}" / "set.txt")
        ciphers[-1].parent.mkdir()
    assert run("encrypt", "--in", str(plains[0]), "--key", str(key), "--out", str(ciphers[0])) == 0
    before = key.read_bytes()
    first = {p.name: p.read_bytes() for p in ciphers[0].parent.iterdir()}
    assert run("encrypt", "--in", str(plains[0]), "--key", str(key), "--out", str(ciphers[0])) == 0
    assert key.read_bytes() == before
    assert {p.name: p.read_bytes() for p in ciphers[0].parent.iterdir()} == first

    def no_work(*args):
        raise AssertionError("the cipher ran before the refusal")

    monkeypatch.setattr("bakermic.cli.encrypt", no_work)
    capsys.readouterr()
    for out in ciphers:
        assert run("encrypt", "--in", str(plains[1]), "--key", str(key), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "already carries the plaintext sums of another image set" in err and "draw a new key" in err
        assert key.read_bytes() == before
    assert list(ciphers[1].parent.iterdir()) == []
    assert {p.name: p.read_bytes() for p in ciphers[0].parent.iterdir()} == first

    back = tmp_path / "back" / "set.txt"
    back.parent.mkdir()
    assert run("decrypt", "--in", str(ciphers[0]), "--key", str(key), "--out", str(back)) == 0
    assert capsys.readouterr().err == ""
    assert np.array_equal(load_multi(back).pixels, load_multi(plains[0]).pixels)


def test_decrypt_warns_when_the_plaintext_sums_differ(tmp_path, capsys):
    # eight 8-bit images fill the stack, so no padding bit can signal a wrong
    # key or a flipped ciphertext bit; the key's plaintext sums still do
    plain = tmp_path / "plain.txt"
    save_multi(random_images(n=3, count=8, seed=31), plain)
    key = tmp_path / "k.key"
    assert run("keygen", "--key", str(key), "--n", "3", "--images", "8", "--seed", "5") == 0
    cipher = tmp_path / "c" / "set.txt"
    cipher.parent.mkdir()
    assert run("encrypt", "--in", str(plain), "--key", str(key), "--out", str(cipher)) == 0

    flipped = tmp_path / "f" / "set.txt"
    flipped.parent.mkdir()
    damaged = load_multi(cipher)
    pixels = damaged.pixels.copy()
    pixels[0, 0, 0] ^= 1
    save_multi(dataclasses.replace(damaged, pixels=pixels), flipped)

    wrong = tmp_path / "wrong.key"
    assert run("keygen", "--key", str(wrong), "--n", "3", "--images", "8", "--seed", "6") == 0
    good = read_key(key)
    wrong.write_text(wrong.read_text() + f"intensity_sum = {good.intensity_sum}\nbit_count = {good.bit_count}\n")

    for manifest, key_file, warned in ((cipher, key, False), (flipped, key, True), (cipher, wrong, True)):
        out = tmp_path / "o" / "set.txt"
        out.parent.mkdir(exist_ok=True)
        capsys.readouterr()
        assert run("decrypt", "--in", str(manifest), "--key", str(key_file), "--out", str(out)) == 0
        err = capsys.readouterr().err
        if warned:
            assert err == (
                "warning: the recovered images do not have the plaintext sums the key "
                "carries; wrong key or corrupted ciphertext\n"
            )
        else:
            assert err == ""
            assert np.array_equal(load_multi(out).pixels, load_multi(plain).pixels)


def _bad_field_cycle(tmp_path, field, value):
    """Encrypt three 8x8 images, then set one field of the key file to value."""
    plain, key = tmp_path / "plain.txt", tmp_path / "k.key"
    save_multi(random_images(n=3, count=3, seed=28), plain)
    write_key(make_key(3, 3, 8, random.Random(28)), key)
    cipher = tmp_path / "c" / "set.txt"
    cipher.parent.mkdir()
    assert run("encrypt", "--in", str(plain), "--key", str(key), "--out", str(cipher)) == 0
    lines = key.read_text().splitlines()
    key.write_text(
        "".join((f"{field} = {value}" if line.startswith(f"{field} =") else line) + "\n" for line in lines),
        encoding="utf-8",
    )
    return plain, key, cipher


@pytest.mark.parametrize("value", ["-000000000000001", "+3ff000000000000", "3ff0_00000000000"])
def test_malformed_key_real_exits_2(tmp_path, capsys, value):
    plain, key, _ = _bad_field_cycle(tmp_path, "lambda1_0", value)
    capsys.readouterr()
    out = tmp_path / "again" / "set.txt"
    out.parent.mkdir()
    assert run("encrypt", "--in", str(plain), "--key", str(key), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"error: {key}: field 'lambda1_0': expected 16 hex digits, got '{value}'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "bits, why",
    [
        pytest.param("99999999", "bit_count 99999999 out of range [0, 1536]", id="99999999"),
        # a sign never reaches the range check: the key file refuses it first
        pytest.param("-1", "{key}: field 'bit_count': expected a decimal integer", id="-1"),
    ],
)
def test_decrypt_refuses_an_impossible_bit_count(tmp_path, capsys, bits, why):
    _, key, cipher = _bad_field_cycle(tmp_path, "bit_count", bits)
    capsys.readouterr()
    out = tmp_path / "o" / "set.txt"
    out.parent.mkdir()
    assert run("decrypt", "--in", str(cipher), "--key", str(key), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "error: " + why.format(key=key) in err
    assert "warning" not in err and not out.exists()


@pytest.mark.parametrize(
    "field, value", [("r_max1", "1_0"), ("r_max1", "+10"), ("r_max1", "0010"), ("r_max1", "\u0661\u0660"), ("n", "0_3")]
)
def test_noncanonical_key_integer_exits_2(tmp_path, capsys, field, value):
    _, key, cipher = _bad_field_cycle(tmp_path, field, value)
    capsys.readouterr()
    out = tmp_path / "o" / "set.txt"
    out.parent.mkdir()
    assert run("decrypt", "--in", str(cipher), "--key", str(key), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert f"error: {key}: field '{field}': expected a decimal integer" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def test_analyze_pair_mode(tmp_path):
    a = random_images(n=4, count=2, seed=25)
    b = random_images(n=4, count=2, seed=26)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_multi(a, pa)
    save_multi(b, pb)
    report = tmp_path / "report.txt"
    assert run("analyze", "--in", str(pa), "--in2", str(pb), "--out", str(report)) == 0
    text = report.read_text()
    assert "chi2[0] = " in text
    assert "correlation[horizontal][0] = " in text
    assert "npcr = " in text
    assert "bit_diff = " in text


def test_analyze_pair_mode_refuses_sets_of_different_shape(tmp_path, capsys):
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_multi(random_images(n=2, count=2, seed=25), pa)
    save_multi(random_images(n=2, count=3, seed=26), pb)
    report = tmp_path / "report.txt"
    assert run("analyze", "--in", str(pa), "--in2", str(pb), "--out", str(report)) == 2
    assert "the two image sets must share shape and depth" in capsys.readouterr().err
    assert not report.exists()


def test_analyze_full_mode(tmp_path):
    images = natural_images(4, 2, seed=27)
    plain = tmp_path / "plain.txt"
    save_multi(images, plain)
    key = tmp_path / "k.key"
    run("keygen", "--key", str(key), "--n", "4", "--images", "2", "--seed", "5")
    report = tmp_path / "report.txt"
    code = run(
        "analyze", "--in", str(plain), "--key", str(key), "--out", str(report),
        "--block", "0,0,8,8", "--density", "0.1",
    )
    assert code == 0
    text = report.read_text()
    assert "npcr = " in text
    assert "psnr[occlusion] = " in text
    assert "psnr[noise_0.1] = " in text


def test_analyze_pair_mode_on_single_pixel_images(tmp_path):
    # n=0: every image is 1x1, so no direction has an adjacent pair
    plain, key, cipher = tmp_path / "p.txt", tmp_path / "k.key", tmp_path / "c.txt"
    save_multi(random_images(n=0, count=3, seed=29), plain)
    assert run("keygen", "--key", str(key), "--n", "0", "--images", "3", "--seed", "1") == 0
    assert run("encrypt", "--in", str(plain), "--key", str(key), "--out", str(cipher)) == 0
    report = tmp_path / "report.txt"
    assert run("analyze", "--in", str(cipher), "--in2", str(cipher), "--out", str(report)) == 0
    text = report.read_text()
    assert "correlation[horizontal][0] = undefined" in text
    assert "npcr = 0.0000%" in text


# SHA-256 of the analyze --key --block --density report on kat_case(n, M',
# depth) inputs: the report's bytes are pinned as the ciphertext's are
ANALYZE_KAT = {
    (5, 16, 8): ("3,5,10,7", "0.05", "4", "7ec049fa2f3238cbedf1b3263ffa691733288dfea4c2da430d78572cc36479b2"),
    (5, 3, 16): ("0,9,32,4", "0.3", "7", "41f61382cb6546ba23f20a2bef2dbc453fde88e36effc392b6528f86c5351bc0"),
}


@pytest.mark.parametrize("case", sorted(ANALYZE_KAT))
def test_analyze_report_keeps_its_bytes(case, tmp_path):
    block, density, seed, want = ANALYZE_KAT[case]
    key, images = kat_case(*case)
    plain, key_path, report = tmp_path / "p.txt", tmp_path / "k.key", tmp_path / "report.txt"
    save_multi(images, plain)
    write_key(key, key_path)
    assert run(
        "analyze", "--in", str(plain), "--key", str(key_path), "--out", str(report),
        "--block", block, "--density", density, "--seed", seed,
    ) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == want


def test_analyze_checks_options_before_encrypting(tmp_path, capsys, monkeypatch):
    plain = tmp_path / "plain.txt"
    save_multi(natural_images(3, 2, seed=30), plain)  # 8x8 images
    key = tmp_path / "k.key"
    assert run("keygen", "--key", str(key), "--n", "3", "--images", "2", "--seed", "5") == 0

    def no_work(*args):
        raise AssertionError("encrypt ran before the options were checked")

    monkeypatch.setattr("bakermic.cli.encrypt", no_work)
    monkeypatch.setattr("bakermic.cipher.encrypt", no_work)
    capsys.readouterr()
    cases = [
        (("--block", "0,0,8"), 1, "--block wants x,y,width,height"),
        (("--block", "0,0,8,8,1"), 1, "--block wants x,y,width,height"),
        (("--block", "0,0,a,8"), 1, "--block wants x,y,width,height as integers"),
        (("--block", "0,0,8.5,8"), 1, "--block wants x,y,width,height as integers"),
        # int() would take a sign, underscores and other scripts' digits: entries are ASCII digits
        (("--block", "+0,0,1_0,\u0663"), 1, "--block wants x,y,width,height as integers"),
        (("--block", "+0,0,4,4"), 1, "--block wants x,y,width,height as integers"),
        (("--block", "0,0,1_0,4"), 1, "--block wants x,y,width,height as integers"),
        (("--block", "0,0,4,\u0663"), 1, "--block wants x,y,width,height as integers"),
        (("--block=-1,0,4,4",), 2, "block out of range"),
        (("--block", "4,4,5,1"), 2, "block exceeds the image"),
        (("--density", "1.5"), 2, "density must be in [0, 1]"),
        (("--density=-0.1",), 2, "density must be in [0, 1]"),
        (("--block", "0,0,8,8", "--density", "nan"), 2, "density must be in [0, 1]"),
    ]
    for flags, code, message in cases:
        assert run("analyze", "--in", str(plain), "--key", str(key), *flags) == code, flags
        assert message in capsys.readouterr().err, flags


def test_analyze_refuses_unusable_arguments_before_reading_any_file(tmp_path, capsys):
    # no manifest or key exists: reading any of them would exit 2, not 1
    missing = [str(tmp_path / name) for name in ("a.txt", "b.txt", "k.key")]
    pair = ("--in", missing[0], "--in2", missing[1])
    cases = [
        (("--in", missing[0], "--key", missing[2], "--seed", "-1"), "--seed must be nonnegative"),
        ((*pair, "--seed=-1"), "--seed must be nonnegative"),
        ((*pair, "--key", missing[2]), "pair mode (--in2) takes no --key"),
        ((*pair, "--block", "0,0,999,999"), "pair mode (--in2) takes no --block"),
        ((*pair, "--density", "7"), "pair mode (--in2) takes no --density"),
        ((*pair, "--block", "0,0,999,999", "--density", "7", "--key", missing[2]),
         "pair mode (--in2) takes no --key, --block, --density"),
        (("--in", missing[0], "--key", missing[2], "--block", "0,0,x,1"), "--block wants x,y,width,height"),
    ]
    for flags, message in cases:
        assert run("analyze", *flags) == 1, flags
        assert message in capsys.readouterr().err, flags


def test_analyze_requires_a_mode(tmp_path):
    images = random_images(n=2, count=1, seed=28)
    plain = tmp_path / "p.txt"
    save_multi(images, plain)
    assert run("analyze", "--in", str(plain)) == 1


def test_partitions_commands(tmp_path, capsys):
    assert run("partitions", "count", "3") == 0
    assert capsys.readouterr().out.strip() == "26"
    assert run("partitions", "count", "8") == 0
    assert capsys.readouterr().out.strip() == (
        "1947270476915296449559703445493848930452791205"
    )
    assert run("partitions", "unrank", "3", "0") == 0
    assert capsys.readouterr().out.strip() == "8"
    assert run("partitions", "check", "4,2,2") == 0
    assert "admissible" in capsys.readouterr().out
    assert run("partitions", "check", "2,4,2") == 0
    assert "inadmissible" in capsys.readouterr().out
    assert run("partitions", "check", "8,,8") == 2
    assert "bad partition text '8,,8'" in capsys.readouterr().err
    assert run("partitions", "check", "1_6,+16") == 2  # int() would read 16,16
    assert "bad partition text '1_6,+16'" in capsys.readouterr().err
    assert run("partitions", "list", "2") == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert run("partitions", "list", "4") == 2  # capped at n = 3
    assert run("partitions", "unrank", "3", "99") == 2
    # the rank is ASCII digits, with whitespace around them at most: int() would read these as 10
    for index in (" +1_0 ", "+10", "1_0", "\u0661\u0660"):
        assert run("partitions", "unrank", "3", index) == 2
        assert "rank must be ASCII digits" in capsys.readouterr().err
    assert run("partitions", "unrank", "3", " 10 ") == 0
    assert capsys.readouterr().out.strip() == str(unrank(3, 10))


def test_integer_options_take_ascii_digits_only(tmp_path, capsys):
    # int() would read these as 10, 3, 3 and 10: every integer option takes
    # ASCII digits, an optional leading '-' and whitespace around them
    key = tmp_path / "k.key"
    keygen = ("keygen", "--key", str(key), "--n", "2", "--images", "2")
    refused = [
        ("partitions", "count", "+1_0"),
        ("partitions", "count", "\u0663"),
        ("partitions", "list", "+2"),
        ("partitions", "unrank", "1_0", "0"),
        ("keygen", "--key", str(key), "--n", "\u0663", "--images", "+3", "--seed", "1_0"),
        *((*keygen, flag, value)
          for flag in ("--depth", "--seed", "--qm", "--rmax1", "--rmax2")
          for value in ("+3", "1_0", "\u0663")),
        ("analyze", "--in", "a.txt", "--in2", "b.txt", "--seed", "+0"),
        ("appendix", "henon", "--lambda1", "3", "--lambda2", "3", "--count", "1_0"),
        ("appendix", "chebyshev", "--kmax", "+8"),
        ("appendix", "chebyshev", "--points", "\u0663"),
    ]
    for argv in refused:
        assert run(*argv) == 1, argv
        assert "expected an integer in ASCII digits" in capsys.readouterr().err, argv
    assert not key.exists()
    # whitespace and a '-' are taken, and range checks stay where they were
    assert run("partitions", "count", " 3 ") == 0
    assert capsys.readouterr().out.strip() == "26"
    assert run(*keygen, "--seed", "-5", "--depth", " 4") == 1 and not key.exists()
    assert "--seed must be nonnegative, got -5" in capsys.readouterr().err
    assert run(*keygen, "--seed", " 5", "--depth", " 4") == 0 and read_key(key).bit_depth == 4
    assert run("analyze", "--in", "a.txt", "--in2", "b.txt", "--seed", " -1 ") == 1
    assert "--seed must be nonnegative, got -1" in capsys.readouterr().err


# Runs in a fresh interpreter: argv[1] is a directory holding the plaintext p.txt.
MPMATH_PROBE = """
import sys

from bakermic import cli

d = sys.argv[1]
assert cli.main(["keygen", "--key", f"{d}/k.key", "--n", "3", "--images", "3", "--seed", "7"]) == 0
assert cli.main(["circuit", "synth", "4,2,2", "--out", f"{d}/c.txt"]) == 0
assert cli.main(["partitions", "count", "3"]) == 0
loaded = ["mpmath" in sys.modules]
assert cli.main(["encrypt", "--in", f"{d}/p.txt", "--key", f"{d}/k.key", "--out", f"{d}/c/set.txt"]) == 0
loaded.append("mpmath" in sys.modules)
print(loaded)
"""


def test_mpmath_loads_on_the_first_chebyshev_value(tmp_path):
    # keygen, circuits and partitions compute no Chebyshev value, so they do
    # not pay mpmath's import; encrypt's seed is one
    save_multi(random_images(n=3, count=3, seed=2), tmp_path / "p.txt")
    (tmp_path / "c").mkdir()
    src = os.path.dirname(os.path.dirname(bakermic.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", MPMATH_PROBE, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "[False, True]", done.stderr


def test_partitions_refuses_large_n_before_counting(capsys, monkeypatch):
    def no_count(n):
        raise AssertionError("C(n) was computed before the refusal")

    monkeypatch.setattr("bakermic.baker.count_partitions", no_count)
    for argv in (("count", "15"), ("unrank", "40", "0")):
        assert run("partitions", *argv) == 2
        assert "n <= 14" in capsys.readouterr().err


def test_circuit_commands(tmp_path, capsys):
    gates = tmp_path / "circuit.txt"
    assert run("circuit", "synth", "4,2,2", "--out", str(gates)) == 0
    assert gates.read_text().startswith("# n=3 partition=4,2,2")
    assert run("circuit", "verify", "--in", str(gates), "4,2,2") == 0
    assert "PASS" in capsys.readouterr().out
    assert run("circuit", "verify", "--in", str(gates), "2,2,4") == 3
    assert "FAIL" in capsys.readouterr().out
    assert run("circuit", "synth", "2,4,2", "--out", str(gates)) == 2  # inadmissible
    # n=13 has 2**26 states: refused with the limit before any state array
    assert run("circuit", "synth", "8192", "--out", str(gates)) == 0
    capsys.readouterr()
    assert run("circuit", "verify", "--in", str(gates), "8192") == 2
    assert "capped at 2**24 states (n <= 12)" in capsys.readouterr().err


def test_appendix_commands(tmp_path):
    orbit = tmp_path / "orbit.csv"
    code = run(
        "appendix", "henon", "--lambda1", "2", "--lambda2", "2",
        "--count", "4", "--out", str(orbit),
    )
    assert code == 0
    lines = orbit.read_text().splitlines()
    assert lines[0] == "step,x,y"
    assert len(lines) == 5

    table = tmp_path / "cheb.csv"
    assert run("appendix", "chebyshev", "--kmax", "3", "--points", "5", "--out", str(table)) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "x,T0,T1,T2,T3"
    assert len(lines) == 6


def test_appendix_henon_refuses_a_nonfinite_lambda(tmp_path, capsys):
    orbit = tmp_path / "orbit.csv"
    for bad in ("nan", "inf", "1e308"):
        assert run("appendix", "henon", "--lambda1", bad, "--lambda2", "2", "--count", "3", "--out", str(orbit)) == 2
        assert "2*pi*lambda1 is not finite" in capsys.readouterr().err
        assert not orbit.exists()
    assert run("appendix", "henon", "--lambda1", "2", "--lambda2=-inf", "--count", "3", "--out", str(orbit)) == 2
    assert "2*pi*lambda2 is not finite" in capsys.readouterr().err
    # lambda 1.0 stays open for studies of the map
    assert run("appendix", "henon", "--lambda1", "1.0", "--lambda2", "1.0", "--count", "3", "--out", str(orbit)) == 0
    assert len(orbit.read_text().splitlines()) == 4
    orbit.unlink()
    for flag in ("--x0", "--y0"):
        for bad in ("nan", "inf", "-inf"):
            assert run("appendix", "henon", "--lambda1", "2", "--lambda2", "2", f"{flag}={bad}", "--out", str(orbit)) == 2
            assert "is not finite" in capsys.readouterr().err
            assert not orbit.exists()
    # a finite seed outside [-1, 1] is accepted: the first step maps it into the square
    assert run("appendix", "henon", "--lambda1", "2", "--lambda2", "2", "--x0", "5", "--count", "3", "--out", str(orbit)) == 0
    rows = orbit.read_text().splitlines()
    assert rows[1] == "0,5.0,0.1"
    assert all(abs(float(c)) <= 1 for row in rows[2:] for c in row.split(",")[1:])


@pytest.mark.parametrize(
    "lambdas, seed",
    [
        (("3", "3"), ("--x0", "1e154")),
        (("3", "3"), ("--x0", "1e200")),
        (("1e300", "3"), ("--x0", "0.5", "--y0", "1e300")),
        (("0", "3"), ("--x0", "1e200")),  # 0 * -inf: a NaN argument, which math.sin does not refuse
    ],
)
def test_appendix_henon_refuses_a_seed_whose_first_step_overflows(tmp_path, capsys, lambdas, seed):
    orbit = tmp_path / "orbit.csv"
    argv = ("appendix", "henon", "--lambda1", lambdas[0], "--lambda2", lambdas[1]) + seed
    assert run(*argv, "--count", "3", "--out", str(orbit)) == 2
    err = capsys.readouterr().err
    assert f"lambda factors {float(lambdas[0])!r}, {float(lambdas[1])!r}" in err
    assert "the first step's sine argument is not finite" in err
    assert not orbit.exists()


def test_appendix_henon_accepts_a_large_finite_first_step(tmp_path):
    orbit = tmp_path / "orbit.csv"
    assert run("appendix", "henon", "--lambda1", "3", "--lambda2", "3", "--x0", "1e100", "--count", "3", "--out", str(orbit)) == 0
    rows = orbit.read_text().splitlines()
    assert rows[1] == "0,1e+100,0.1"
    assert all(abs(float(c)) <= 1 for row in rows[2:] for c in row.split(",")[1:])


def test_main_dispatches_to_the_handlers_bound_at_the_call(tmp_path, monkeypatch, capsys):
    # perfbench's tracer times each command by replacing a cli.cmd_* attribute,
    # which a parser kept from an earlier main() call would never reach
    cases = [
        ("cmd_partitions", ("partitions", "count", "3")),
        ("cmd_circuit_synth", ("circuit", "synth", "4,2,2", "--out", str(tmp_path / "c.txt"))),
    ]
    for name, argv in cases:
        assert run(*argv) == 0
        calls = []
        monkeypatch.setattr(cli, name, lambda args: calls.append(args.action) or 0)
        assert run(*argv) == 0
        assert calls == [argv[1]], name
    capsys.readouterr()


def test_stdout_output(capsys):
    assert run("circuit", "synth", "1,1") == 0
    assert "# n=1" in capsys.readouterr().out


def test_out_to_a_device(capsys):
    assert run("appendix", "chebyshev", "--kmax", "2", "--points", "3", "--out", "/dev/null") == 0
    assert capsys.readouterr().out == ""
    assert not os.path.isfile("/dev/null")
    assert temporaries("/dev/null") == []


def test_usage_errors(tmp_path, capsys):
    assert run() == 1
    assert run("partitions") == 1
    assert run("keygen", "--n", "3", "--images", "1") == 1  # --key missing
    capsys.readouterr()


def test_io_errors(tmp_path, capsys):
    key = tmp_path / "k.key"
    run("keygen", "--key", str(key), "--n", "2", "--images", "1", "--seed", "1")
    missing = tmp_path / "nope.txt"
    out = tmp_path / "c.txt"
    assert run("encrypt", "--in", str(missing), "--key", str(key), "--out", str(out)) == 2
    assert "error" in capsys.readouterr().err


def test_unsavable_geometry_refused_before_work(tmp_path, capsys, monkeypatch):
    # 17 images need k = 5: 32-bit ciphertext pixels, beyond PGM's 16
    def no_work(*args):
        raise AssertionError("the cipher ran before the refusal")

    monkeypatch.setattr("bakermic.cli.encrypt", no_work)
    monkeypatch.setattr("bakermic.cli.make_key", no_work)
    key = tmp_path / "k.key"
    assert run("keygen", "--key", str(key), "--n", "2", "--images", "17", "--seed", "1") == 2
    assert "at most 16" in capsys.readouterr().err
    assert not key.exists()

    write_key(make_key(2, 17, 8, random.Random(1)), key)
    before = key.read_bytes()
    plain = tmp_path / "plain" / "set.txt"
    plain.parent.mkdir()
    save_multi(random_images(n=2, count=17, seed=3), plain)
    out = tmp_path / "cipher" / "set.txt"
    out.parent.mkdir()
    assert run("encrypt", "--in", str(plain), "--key", str(key), "--out", str(out)) == 2
    assert "at most 16" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []
    assert key.read_bytes() == before


def test_empty_geometry_refused(tmp_path, capsys):
    # no image set has zero images or zero-bit pixels, so no key may claim either
    for flags in (("--images", "0"), ("--images", "1", "--depth", "0")):
        key = tmp_path / "k.key"
        assert run("keygen", "--key", str(key), "--n", "2", *flags, "--seed", "1") == 2
        assert "at least one image of at least one bit" in capsys.readouterr().err
        assert not key.exists()

    key = tmp_path / "k.key"
    write_key(make_key(2, 1, 1, random.Random(1)), key)
    lines = key.read_text().replace("images = 1", "images = 0").splitlines()
    key.write_text("".join(line + "\n" for line in lines if "_0 =" not in line))
    with pytest.raises(ValueError, match="at least one image"):
        read_key(key)


def test_infinite_lambda_refused(tmp_path, capsys):
    key = tmp_path / "k.key"
    write_key(make_key(2, 1, 8, random.Random(1)), key)
    lines = key.read_text().splitlines()
    key.write_text(
        "".join(
            ("stage_a_lambda1 = 7ff0000000000000" if line.startswith("stage_a_lambda1") else line) + "\n"
            for line in lines
        )
    )
    with pytest.raises(ValueError, match="stage_a lambda factors"):
        read_key(key)

    fresh = tmp_path / "fresh.key"
    assert run("keygen", "--key", str(fresh), "--n", "2", "--images", "1", "--lambda1", "inf", "--seed", "1") == 2
    assert "image 0 lambda factors" in capsys.readouterr().err
    assert not fresh.exists()


def test_degenerate_key_asks_for_a_new_one(tmp_path, capsys, monkeypatch):
    def degenerate(images, key):
        raise DegenerateKeyError(16, (2, 16), 40, cycled=True, image=1)

    monkeypatch.setattr("bakermic.cli.encrypt", degenerate)
    key = tmp_path / "k.key"
    assert run("keygen", "--key", str(key), "--n", "2", "--images", "2", "--seed", "1") == 0
    plain = tmp_path / "plain.txt"
    save_multi(random_images(n=2, count=2, seed=3), plain)
    capsys.readouterr()
    assert run("encrypt", "--in", str(plain), "--key", str(key), "--out", str(tmp_path / "c.txt")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: orbit produced fewer than 16 distinct values for image 1")
    assert err.rstrip().endswith("; draw a new key")
