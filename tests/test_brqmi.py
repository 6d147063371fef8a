import ast
import os
from pathlib import Path

import numpy as np
import pytest

from bakermic import brqmi
from bakermic.brqmi import (
    MultiImage,
    _dtype_for_depth,
    decompose,
    load_multi,
    read_pgm,
    recompose,
    save_multi,
    stack_exponent,
    write_atomic,
    write_pgm,
)

from conftest import random_images, temporaries
from oracles import padding_mask, stack_of_bits


def test_stack_exponent_cases():
    # k covers both the image count and the bit depth
    cases = [
        (1, 1, 0),
        (2, 2, 1),
        (3, 8, 3),
        (8, 8, 3),
        (9, 8, 4),
        (1, 8, 3),
        (4, 2, 2),
        (16, 16, 4),
    ]
    for m_prime, depth, want in cases:
        img = MultiImage(
            n=1,
            bit_depth=depth,
            pixels=np.zeros((m_prime, 2, 2), dtype=np.uint16),
        )
        assert stack_exponent(img.m_prime, img.bit_depth) == want, (m_prime, depth)


def test_multi_image_validation():
    with pytest.raises(ValueError):
        MultiImage(n=2, bit_depth=8, pixels=np.zeros((1, 4, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        MultiImage(n=2, bit_depth=8, pixels=np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        MultiImage(n=2, bit_depth=2, pixels=np.full((1, 4, 4), 4, dtype=np.uint8))
    with pytest.raises(ValueError):
        MultiImage(n=-1, bit_depth=8, pixels=np.zeros((1, 1, 1), dtype=np.uint8))
    # a cast would wrap -1 to 255 and truncate 0.7 and 3.9 to 0 and 3
    with pytest.raises(ValueError, match="nonnegative"):
        MultiImage(n=1, bit_depth=8, pixels=[[[-1, 0], [0, 0]]])
    for pixels in ([[[0.7, 3.9], [0, 0]]], np.zeros((1, 2, 2), dtype=np.float32), np.zeros((1, 2, 2), dtype=bool)):
        with pytest.raises(ValueError, match="pixels must be integers"):
            MultiImage(n=1, bit_depth=8, pixels=pixels)
    # an unsigned dtype wider than the depth is still scanned for its maximum
    with pytest.raises(ValueError, match="below 16"):
        MultiImage(n=1, bit_depth=4, pixels=np.full((1, 2, 2), 16, dtype=np.uint16))
    # nonnegative signed integers are taken, and cast to the depth's unsigned dtype
    assert MultiImage(n=1, bit_depth=8, pixels=[[[255, 0], [1, 2]]]).pixels.dtype == np.uint8
    # a single 1x1 image is degenerate but well formed
    assert MultiImage(n=0, bit_depth=8, pixels=np.zeros((1, 1, 1), dtype=np.uint8)).side == 1


def test_decompose_plane_order():
    """Plane 0 carries the least significant bit."""
    img = random_images(n=3, count=3, seed=5)
    stack = decompose(img)
    assert stack.bits.shape == (8, 8, 8, 8)
    for m in range(3):
        for l in range(8):
            expect = (img.pixels[m] >> l) & 1
            assert np.array_equal(stack.bits[m, l], expect)


def test_decompose_padding_zero():
    img = random_images(n=2, count=3, seed=7)
    stack = decompose(img)
    assert stack.m_prime == stack.bit_depth == 8
    # slots at or above the image count and planes at or above the depth stay clear
    assert not stack.bits[3:].any()
    assert not stack.bits[:, 8:].any()
    assert recompose(stack, 3, 8)[1] == 0


def test_padding_mask_counts():
    img = random_images(n=2, count=3, seed=11)
    stack = decompose(img)
    mask = padding_mask(stack.m_prime, img.m_prime, img.bit_depth)
    # one flag per (image, plane) slot
    assert mask.shape == (stack.m_prime, stack.bit_depth)
    # 8x8 grid of slots, 3 images of 8 planes are real
    real = 3 * 8
    assert int(mask.sum()) == 64 - real
    assert not mask[:3, :8].any()


def test_padding_bit_count_matches_mask():
    rng = np.random.default_rng(17)
    for k in (1, 2, 3):
        side = 1 << k
        for m_prime in range(1, side + 1):
            for depth in range(1, side + 1):
                bits = rng.integers(0, 2, size=(side, side, 2, 2), dtype=np.uint8)
                stray = recompose(stack_of_bits(bits), m_prime, depth)[1]
                assert stray == int(bits[padding_mask(side, m_prime, depth)].sum())


def test_stack_packs_the_bits_it_is_given():
    # the stack is 2**k images of 2**k-bit pixels; bits is unpacked from them,
    # read-only, and decompose copies a full stack unchanged
    rng = np.random.default_rng(19)
    for k in range(6):
        side = 1 << k
        bits = rng.integers(0, 2, size=(side, side, 4, 4), dtype=np.uint8)
        stack = stack_of_bits(bits)
        assert stack.m_prime == stack.bit_depth == side
        assert stack.pixels.shape == (side, 4, 4) and stack.pixels.dtype == _dtype_for_depth(side)
        weights = (1 << np.arange(side, dtype=np.int64)).reshape(1, side, 1, 1)
        assert np.array_equal(stack.pixels, (bits.astype(np.int64) * weights).sum(axis=1))
        assert np.array_equal(stack.bits, bits)
        assert not stack.bits.flags.writeable
        copy = decompose(stack)
        assert np.array_equal(copy.pixels, stack.pixels) and not np.shares_memory(copy.pixels, stack.pixels)


def test_padding_bit_count_matches_the_byte_tensor_at_every_k():
    rng = np.random.default_rng(29)
    for k in range(6):
        side = 1 << k
        for m_prime in sorted({1, max(1, side // 2), side}):
            for depth in sorted({1, max(1, side // 2), max(1, side - 1), side}):
                bits = rng.integers(0, 2, size=(side, side, 2, 2), dtype=np.uint8)
                stray = recompose(stack_of_bits(bits), m_prime, depth)[1]
                assert stray == int(bits[padding_mask(side, m_prime, depth)].sum()), (k, m_prime, depth)


def test_recompose_roundtrip():
    for depth in range(1, 17):
        img = random_images(n=3, count=(depth % 7) + 1, seed=depth, bit_depth=depth)
        back, stray = recompose(decompose(img), img.m_prime, img.bit_depth)
        assert stray == 0
        assert back.bit_depth == img.bit_depth
        assert back.pixels.dtype == img.pixels.dtype
        assert np.array_equal(back.pixels, img.pixels)
    print("recompose roundtrip ok at depths 1..16")


def test_recompose_ignores_stray_padding():
    img = random_images(n=2, count=2, seed=3)
    stack = decompose(img)
    bits = stack.bits.copy()
    bits[3, 1, 0, 0] = 1
    back, stray = recompose(stack_of_bits(bits), img.m_prime, img.bit_depth)
    assert np.array_equal(back.pixels, img.pixels)
    assert stray == 1


def test_recompose_refuses_more_than_the_stack_holds():
    stack = stack_of_bits(np.zeros((2, 2, 4, 4), dtype=np.uint8))
    for m_prime, depth in ((3, 2), (0, 2), (2, 3), (2, 0)):
        with pytest.raises(ValueError, match=f"{m_prime} images of {depth} bits do not fit 2 of 2 bits"):
            recompose(stack, m_prime, depth)


def test_decompose_is_the_full_stack():
    img = random_images(n=2, count=3, seed=13)
    stack = decompose(img)
    assert stack.m_prime == stack.bit_depth == 8 and stack.pixels.dtype == np.uint8
    # the first three images are the originals since padding planes are zero
    assert np.array_equal(stack.pixels[:3], img.pixels)
    assert not stack.pixels[3:].any()


def test_recompose_all_joins_a_random_full_stack():
    # k=4, every slot live: the shape of 16-bit ciphertext, which recompose
    # joins whole, with no slot or plane to drop
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=(16, 16, 4, 4), dtype=np.uint8)
    stack = stack_of_bits(bits)
    full, stray = recompose(stack, 16, 16)
    weights = (1 << np.arange(16, dtype=np.int64)).reshape(1, 16, 1, 1)
    assert stray == 0
    assert full.pixels.dtype == np.uint16
    assert np.array_equal(full.pixels, (bits.astype(np.int64) * weights).sum(axis=1))
    assert np.array_equal(decompose(full).bits, bits)


@pytest.mark.parametrize("k", range(6))
def test_fibre_codec_keeps_plane_order(k):
    # slot i * 2**k + l of a pixel's unpacked fibre is bit l of word i, as
    # _split_planes cuts it; packing gives the words back; and the bits that
    # pad a word narrower than a byte (k <= 2) never reach the words
    rng = np.random.default_rng(k)
    depth, count = 1 << k, 37
    words = rng.integers(0, 1 << depth, (depth, count), dtype=np.uint64).astype(_dtype_for_depth(depth))
    fibres = brqmi._unpack_fibres(words[:, ::-1])  # a strided view, as stage 1 passes a chunk's columns
    assert fibres.dtype == np.uint8 and fibres.shape == (count, depth * depth)
    planes = brqmi._split_planes(words[:, ::-1], depth)  # planes[i, l, p]
    assert np.array_equal(fibres.reshape(count, depth, depth), planes.transpose(2, 0, 1))
    out = np.zeros((depth, 2 * count), words.dtype)
    brqmi._pack_fibres(fibres, out[:, ::2])
    assert np.array_equal(out[:, ::2], words[:, ::-1]) and not out[:, 1::2].any()
    noise = rng.integers(0, 2, (count, depth * depth), dtype=np.uint8)
    packed = brqmi._pack_fibres(noise, np.empty((depth, count), words.dtype))
    assert int(packed.max()) < 1 << depth
    assert np.array_equal(brqmi._unpack_fibres(packed), noise)


def test_only_brqmi_packs_or_unpacks_planes():
    # plane order is stated once, in brqmi's codec: no other module packs
    # planes with bitwise_or.reduce or calls packbits or unpackbits, and
    # cipher unpacks none by a right shift
    offenders = []
    for path in sorted(Path(brqmi.__file__).parent.glob("*.py")):
        if path.name == "brqmi.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            value = getattr(node, "value", None)
            packs = isinstance(node, ast.Attribute) and node.attr == "reduce" and (
                getattr(value, "attr", None) == "bitwise_or" or getattr(value, "id", None) == "bitwise_or"
            )
            packs = packs or getattr(node, "attr", getattr(node, "id", None)) in ("packbits", "unpackbits")
            unpacks = path.name == "cipher.py" and isinstance(getattr(node, "op", None), ast.RShift)
            if packs or unpacks:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_pgm_roundtrip_8bit(tmp_path):
    rng = np.random.default_rng(21)
    pixels = rng.integers(0, 256, size=(16, 16)).astype(np.uint16)
    path = tmp_path / "img.pgm"
    write_pgm(path, pixels, maxval=255)
    back, maxval = read_pgm(path)
    assert maxval == 255
    assert np.array_equal(back, pixels)


def test_pgm_roundtrip_16bit(tmp_path):
    rng = np.random.default_rng(22)
    pixels = rng.integers(0, 65536, size=(8, 8)).astype(np.uint16)
    path = tmp_path / "deep.pgm"
    write_pgm(path, pixels, maxval=65535)
    back, maxval = read_pgm(path)
    assert maxval == 65535
    assert np.array_equal(back, pixels)


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    body = b"P5\n# a comment\n2 # trailing\n2\n255\n" + bytes([1, 2, 3, 4])
    path.write_bytes(body)
    pixels, maxval = read_pgm(path)
    assert maxval == 255
    assert pixels.tolist() == [[1, 2], [3, 4]]


def test_manifest_roundtrip(tmp_path):
    img = random_images(n=4, count=3, seed=31)
    manifest = tmp_path / "set.txt"
    names = save_multi(img, manifest)
    assert len(names) == 3
    back = load_multi(manifest)
    assert back.n == img.n
    assert back.bit_depth == img.bit_depth
    assert np.array_equal(back.pixels, img.pixels)


def test_manifest_rejects_mixed_sizes(tmp_path):
    a = random_images(n=2, count=1, seed=1)
    b = random_images(n=3, count=1, seed=2)
    write_pgm(tmp_path / "a.pgm", a.pixels[0], maxval=255)
    write_pgm(tmp_path / "b.pgm", b.pixels[0], maxval=255)
    manifest = tmp_path / "bad.txt"
    manifest.write_text("a.pgm\nb.pgm\n")
    with pytest.raises(ValueError):
        load_multi(manifest)


def test_manifest_rejects_non_square(tmp_path):
    # a 0x0 image is square, but its side 0 is no power of two
    manifest = tmp_path / "bad.txt"
    manifest.write_text("r.pgm\n")
    for shape in ((4, 8), (0, 0)):
        write_pgm(tmp_path / "r.pgm", np.zeros(shape, dtype=np.uint16), maxval=255)
        with pytest.raises(ValueError, match="images must be square with power-of-two side"):
            load_multi(manifest)


def test_write_atomic_follows_symlinks(tmp_path):
    target = tmp_path / "real.txt"
    target.write_bytes(b"old")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_atomic(link, b"new")
    assert link.is_symlink() and target.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


def test_write_atomic_writes_a_device_in_place():
    write_atomic("/dev/null", b"data")
    assert os.path.exists("/dev/null") and not os.path.isfile("/dev/null")
    assert temporaries("/dev/null") == []


def test_write_atomic_follows_a_symlink_to_a_device(tmp_path):
    link = tmp_path / "sink"
    link.symlink_to("/dev/null")
    write_atomic(link, b"data")
    assert link.is_symlink() and os.readlink(link) == "/dev/null"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sink"]
    assert temporaries("/dev/null") == []


@pytest.mark.parametrize(
    "body, message",
    [
        (b"P5\n2 2\n", "truncated header"),
        (b"P2\n2 2\n255\n1 2 3 4\n", "not a binary PGM"),
        (b"P5\n2 x\n255\n" + bytes(4), "malformed header"),
        # int() would read these as 2, 2 and 255: header numbers are ASCII digits only
        (b"P5\n+2 0_2\n25_5\n" + bytes(4), "malformed header"),
        (b"P5\n+2 2\n255\n" + bytes(4), "malformed header"),
        (b"P5\n2 0_2\n255\n" + bytes(4), "malformed header"),
        (b"P5\n2 2\n25_5\n" + bytes(4), "malformed header"),
        (b"P5\n2 2\n65536\n" + bytes(8), "maxval 65536 out of range"),
        (b"P5\n2 2\n255\n" + bytes(3), "truncated pixel data"),
        (b"P5\n2 2\n3\n" + bytes([0, 1, 2, 4]), "sample exceeds declared maxval"),
    ],
)
def test_read_pgm_refusals(tmp_path, body, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(body)
    with pytest.raises(ValueError, match=message):
        read_pgm(path)


@pytest.mark.parametrize(
    "pixels, maxval, message",
    [
        (np.zeros((2, 2), dtype=np.uint8), 0, "maxval 0 out of range for PGM"),
        (np.zeros(4, dtype=np.uint8), 255, "PGM payload must be two-dimensional"),
        (np.full((2, 2), 16, dtype=np.uint8), 15, "sample exceeds maxval"),
    ],
)
def test_write_pgm_refusals(tmp_path, pixels, maxval, message):
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError, match=message):
        write_pgm(path, pixels, maxval)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "maxvals, entries, message",
    [
        ([], "# no images\n\n", "no image entries"),
        ([255, 15], "a.pgm\nb.pgm\n", "images disagree on maxval"),
        ([200], "a.pgm\n", r"maxval 200 is not 2\*\*L - 1"),
    ],
)
def test_load_multi_refusals(tmp_path, maxvals, entries, message):
    for name, maxval in zip("ab", maxvals):
        write_pgm(tmp_path / f"{name}.pgm", np.zeros((2, 2), dtype=np.uint8), maxval)
    manifest = tmp_path / "set.txt"
    manifest.write_text(entries)
    with pytest.raises(ValueError, match=message):
        load_multi(manifest)


def test_save_multi_refuses_depth_above_16(tmp_path):
    images = MultiImage(n=0, bit_depth=17, pixels=np.zeros((1, 1, 1), dtype=np.uint32))
    with pytest.raises(ValueError, match="bit depth too large for PGM output"):
        save_multi(images, tmp_path / "set.txt")
    assert list(tmp_path.iterdir()) == []
