import numpy as np
import pytest

from bakermic.brqmi import (
    BitPlaneStack,
    MultiImage,
    PaddingError,
    decompose,
    load_multi,
    read_pgm,
    recompose,
    recompose_all,
    save_multi,
    stack_exponent,
    write_atomic,
    write_pgm,
)

from conftest import random_images
from oracles import padding_mask


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
    side = stack.stack_side
    assert side == 8
    # slots at or above the image count and planes at or above the depth stay clear
    assert not stack.bits[3:].any()
    assert not stack.bits[:, 8:].any()
    assert stack.padding_bit_count() == 0


def test_padding_mask_counts():
    img = random_images(n=2, count=3, seed=11)
    stack = decompose(img)
    mask = padding_mask(stack)
    # one flag per (image, plane) slot
    assert mask.shape == (stack.stack_side, stack.stack_side)
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
                stack = BitPlaneStack(n=1, k=k, m_prime=m_prime, bit_depth=depth, bits=bits)
                assert stack.padding_bit_count() == int(bits[padding_mask(stack)].sum())


def test_recompose_roundtrip():
    for depth in range(1, 17):
        img = random_images(n=3, count=(depth % 7) + 1, seed=depth, bit_depth=depth)
        back = recompose(decompose(img))
        assert back.bit_depth == img.bit_depth
        assert back.pixels.dtype == img.pixels.dtype
        assert np.array_equal(back.pixels, img.pixels)
    print("recompose roundtrip ok at depths 1..16")


def test_recompose_rejects_stray_padding():
    img = random_images(n=2, count=2, seed=3)
    stack = decompose(img)
    bits = stack.bits.copy()
    bits[3, 1, 0, 0] = 1
    dirty = BitPlaneStack(
        n=stack.n,
        k=stack.k,
        m_prime=stack.m_prime,
        bit_depth=stack.bit_depth,
        bits=bits,
    )
    with pytest.raises(PaddingError):
        recompose(dirty)
    # the escape hatch ignores the stray bit
    back = recompose(dirty, check_padding=False)
    assert np.array_equal(back.pixels, img.pixels)


def test_recompose_all_full_stack():
    img = random_images(n=2, count=3, seed=13)
    stack = decompose(img)
    full = recompose_all(stack)
    assert full.m_prime == stack.stack_side
    assert full.bit_depth == stack.stack_side
    # the first three slots reproduce the originals since padding planes are zero
    assert np.array_equal(full.pixels[:3], img.pixels)
    assert not full.pixels[3:].any()


def test_recompose_all_joins_a_random_full_stack():
    # k=4, every slot live: the shape of 16-bit ciphertext
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=(16, 16, 4, 4), dtype=np.uint8)
    stack = BitPlaneStack(n=2, k=4, m_prime=16, bit_depth=16, bits=bits)
    full = recompose_all(stack)
    weights = (1 << np.arange(16, dtype=np.int64)).reshape(1, 16, 1, 1)
    assert full.pixels.dtype == np.uint16
    assert np.array_equal(full.pixels, (bits.astype(np.int64) * weights).sum(axis=1))
    assert np.array_equal(decompose(full).bits, bits)


def test_bitplane_stack_validation():
    # image count exceeding the stack side
    with pytest.raises(ValueError):
        BitPlaneStack(n=2, k=1, m_prime=3, bit_depth=2, bits=np.zeros((2, 2, 4, 4), dtype=np.uint8))
    # tensor shape disagreeing with n and k
    with pytest.raises(ValueError):
        BitPlaneStack(n=2, k=1, m_prime=2, bit_depth=2, bits=np.zeros((2, 2, 4, 5), dtype=np.uint8))
    bad = np.zeros((2, 2, 4, 4), dtype=np.uint8)
    bad[0, 0, 0, 0] = 2
    with pytest.raises(ValueError):
        BitPlaneStack(n=2, k=1, m_prime=2, bit_depth=2, bits=bad)


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
    pixels = np.zeros((4, 8), dtype=np.uint16)
    write_pgm(tmp_path / "r.pgm", pixels, maxval=255)
    manifest = tmp_path / "bad.txt"
    manifest.write_text("r.pgm\n")
    with pytest.raises(ValueError):
        load_multi(manifest)


def test_write_atomic_follows_symlinks(tmp_path):
    target = tmp_path / "real.txt"
    target.write_bytes(b"old")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_atomic(link, b"new")
    assert link.is_symlink() and target.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]
