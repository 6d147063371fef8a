"""Bit-plane representation of multi-image sets.

A set of M' square grayscale images of side 2**n with L-bit pixels becomes
a stack of (image, plane) slots, where slot (i, l) is bit l of image i's
pixels.  The image and plane axes are padded with zeros up to a common
power of two 2**k so that the (image, plane) pair ranges over a square
lattice of the same shape class as the pixel lattice; that symmetry is what
lets the scrambling stage treat both lattices with the same machinery.  The
padded stack is itself a MultiImage of 2**k images of 2**k-bit pixels, the
shape of the ciphertext: decompose pads a set into one, and recompose cuts
the source images back out.

Plane order (plane l holds bit l) is stated here: _split_planes cuts values
into planes, the fibre codec _unpack_fibres and _pack_fibres moves stage 1's
fibres between words and bytes, _popcount counts set bits, and every other
module calls them; in cipher, stage 2's mask and diffusion's keystream take
plane l as bit l of a pixel without cutting planes.  The codec's byte
order: a word is laid out little-endian, byte j holding bits 8j..8j+7, and
each byte is unpacked low bit first, so bit l of a word is its l-th
unpacked bit.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np


PGM_MAX_DEPTH = 16  # binary PGM samples hold at most 16 bits


def _dtype_for_depth(bit_depth: int) -> np.dtype:
    """The narrowest unsigned dtype that holds bit_depth-bit values."""
    return np.min_scalar_type((1 << bit_depth) - 1)


def stack_exponent(m_prime: int, bit_depth: int) -> int:
    """Shared exponent k with 2**k >= max(m_prime, bit_depth)."""
    return max(m_prime - 1, bit_depth - 1).bit_length()


def _split_planes(values: np.ndarray, depth: int) -> np.ndarray:
    """planes[m, l] = bit l of values[m], for l < depth, in values' dtype, by broadcast shift and mask."""
    shifts = np.arange(depth, dtype=values.dtype).reshape((depth,) + (1,) * (values.ndim - 1))
    planes = values[:, None] >> shifts
    planes &= 1
    return planes


def _unpack_fibres(words: np.ndarray) -> np.ndarray:
    """fibres[p, i * depth + l] = bit l of words[i, p], in uint8, for (depth, pixels) words of depth-bit values.

    The words are copied pixel-major in little-endian byte order and
    unpacked one bit to a byte, low bit first (the byte order in the module
    docstring), so slot i * depth + l of pixel p's fibre is plane l of word
    i.  A word narrower than a byte (depth <= 4) is unpacked to a byte and
    cut to its depth bits.
    """
    depth, count = words.shape
    raw = np.ascontiguousarray(words.T, dtype=words.dtype.newbyteorder("<")).view(np.uint8)
    bits = np.unpackbits(raw.ravel(), bitorder="little").reshape(count, depth, -1)
    return bits[:, :, :depth].reshape(count, depth * depth)


def _pack_fibres(fibres: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inverse of _unpack_fibres into out, the (depth, pixels) words: out[i, p] = OR of fibres[p, i * depth + l] << l.

    A word narrower than a byte is padded to a byte with zero bits before
    packing, so no bit past depth is ever set.
    """
    depth, count = out.shape
    bits = fibres.reshape(count, depth, depth)
    if depth < 8:
        bits = np.concatenate([bits, np.zeros((count, depth, 8 - depth), np.uint8)], axis=2)
    raw = np.packbits(bits.ravel(), bitorder="little")
    out[...] = raw.view(out.dtype.newbyteorder("<")).reshape(count, depth).T
    return out


_POP8 = np.array([bin(b).count("1") for b in range(256)], np.uint8)


def _popcount(values: np.ndarray) -> int:
    """Set bits of an array of nonnegative integers, by a byte table: one byte per byte, not per bit."""
    return int(_POP8[np.ascontiguousarray(values).view(np.uint8)].sum(dtype=np.int64))


@dataclass(frozen=True, eq=False)
class MultiImage:
    """An ordered set of equally sized square grayscale images, checked when built and fixed after.

    The padded stack, and so the ciphertext, is one too: 2**k images of
    2**k-bit pixels, where bit l of image i's pixels is slot (i, l).

    Attributes:
        n: pixel lattices are 2**n x 2**n.
        bit_depth: pixels hold values in [0, 2**bit_depth).
        pixels: integer array of shape (m_prime, 2**n, 2**n), held in the
            narrowest unsigned dtype for bit_depth: a read-only view of the
            array given (cast if its dtype differs), not a copy.
    """

    n: int
    bit_depth: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.bit_depth < 1:
            raise ValueError("bit depth must be at least 1")
        pixels = np.asarray(self.pixels)
        if pixels.ndim != 3:
            raise ValueError("pixels must have shape (images, side, side)")
        side, (count, height, width) = 1 << self.n, pixels.shape
        if count < 1:
            raise ValueError("at least one image is required")
        if (height, width) != (side, side):
            raise ValueError(f"image side must be {side} for n={self.n}, got {height}x{width}")
        # the cast below would wrap negative values and truncate fractions; an
        # unsigned dtype no wider than bit_depth (every stack) needs neither scan
        dtype = pixels.dtype
        if dtype.kind not in "iu":
            raise ValueError(f"pixels must be integers, got dtype {dtype}")
        if dtype.kind == "i" and pixels.size and int(pixels.min()) < 0:
            raise ValueError("pixel values must be nonnegative")
        limit = 1 << self.bit_depth
        if pixels.size and np.iinfo(dtype).max >= limit and int(pixels.max()) >= limit:
            raise ValueError(f"pixel values must be below {limit}")
        pixels = pixels.astype(_dtype_for_depth(self.bit_depth), copy=False).view()
        pixels.flags.writeable = False
        object.__setattr__(self, "pixels", pixels)

    @property
    def m_prime(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def side(self) -> int:
        return 1 << self.n

    @property
    def bits(self) -> np.ndarray:
        """Read-only uint8 tensor bits[image, plane, x, y], unpacked afresh from the pixels on every access."""
        bits = _split_planes(self.pixels, self.bit_depth).astype(np.uint8, copy=False)
        bits.flags.writeable = False
        return bits


def decompose(images: MultiImage) -> MultiImage:
    """The padded stack of images, 2**k images of 2**k-bit pixels: a copy of the pixels, zero in every other slot."""
    s = 1 << stack_exponent(images.m_prime, images.bit_depth)
    pixels = np.zeros((s, images.side, images.side), dtype=_dtype_for_depth(s))
    pixels[: images.m_prime] = images.pixels
    return MultiImage(n=images.n, bit_depth=s, pixels=pixels)


def recompose(stack: MultiImage, m_prime: int, bit_depth: int) -> tuple[MultiImage, int]:
    """The first m_prime images of stack, cut to their low bit_depth planes, and the set bits in every other slot.

    After decryption a nonzero count of such stray bits is a sign of a wrong key.
    """
    if not (1 <= m_prime <= stack.m_prime and 1 <= bit_depth <= stack.bit_depth):
        raise ValueError(f"{m_prime} images of {bit_depth} bits do not fit {stack.m_prime} of {stack.bit_depth} bits")
    live, low = stack.pixels[:m_prime], stack.pixels.dtype.type((1 << bit_depth) - 1)
    stray = _popcount(stack.pixels[m_prime:]) + _popcount(live & ~low)
    images = MultiImage(n=stack.n, bit_depth=bit_depth, pixels=(live & low).astype(_dtype_for_depth(bit_depth)))
    return images, stray


# ---------------------------------------------------------------------------
# PGM and manifest I/O


def write_atomic(path: str | os.PathLike, data: bytes) -> None:
    """Write data to path, all or nothing.

    The bytes go to a temporary file in the same directory (mode 0600, from
    mkstemp), which then replaces path in one step, so a failed write leaves
    any old file intact and no temporary file behind.  Neither the file nor
    its directory is fsynced, so this holds when the process fails, but not
    across a power loss.  A symlink is followed to the file it names; a
    device or pipe (say /dev/null) is written in place, since it cannot be
    replaced.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            fh.write(data)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix="." + os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_pgm(path: str | os.PathLike) -> tuple[np.ndarray, int]:
    """Read a binary (P5) PGM file; returns (array, maxval)."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    if not all(t.isdigit() for t in tokens[1:]):  # bytes.isdigit is ASCII digits only: no sign or underscore
        raise ValueError(f"{path}: malformed header")
    width, height, maxval = (int(t) for t in tokens[1:])
    if not 0 < maxval < 65536:
        raise ValueError(f"{path}: maxval {maxval} out of range")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height
    raw = data[pos : pos + count * dtype.itemsize]
    if len(raw) != count * dtype.itemsize:
        raise ValueError(f"{path}: truncated pixel data")
    arr = np.frombuffer(raw, dtype=dtype).reshape(height, width)
    if arr.size and int(arr.max()) > maxval:
        raise ValueError(f"{path}: sample exceeds declared maxval")
    return arr.astype(_dtype_for_depth(maxval.bit_length())), maxval


def write_pgm(path: str | os.PathLike, pixels: np.ndarray, maxval: int) -> None:
    """Write a binary (P5) PGM file; 2-byte big-endian samples above 255."""
    if not 0 < maxval < 65536:
        raise ValueError(f"maxval {maxval} out of range for PGM")
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError("PGM payload must be two-dimensional")
    if pixels.size and int(pixels.max()) > maxval:
        raise ValueError("sample exceeds maxval")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n{maxval}\n".encode()
    write_atomic(path, header + pixels.astype(dtype).tobytes())


def load_multi(manifest_path: str | os.PathLike) -> MultiImage:
    """Load an image set named by a manifest file.

    The manifest holds one relative PGM path per line; blank lines and lines
    starting with '#' are ignored.  All images must share one power-of-two
    side and one maxval of the form 2**L - 1.
    """
    manifest_path = os.fspath(manifest_path)
    base = os.path.dirname(manifest_path)
    with open(manifest_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    paths = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        paths.append(os.path.join(base, line))
    if not paths:
        raise ValueError(f"{manifest_path}: no image entries")
    arrays = []
    maxvals = set()
    for p in paths:
        arr, maxval = read_pgm(p)
        arrays.append(arr)
        maxvals.add(maxval)
    if len(maxvals) != 1:
        raise ValueError(f"{manifest_path}: images disagree on maxval")
    maxval = maxvals.pop()
    depth = maxval.bit_length()
    if maxval != (1 << depth) - 1:
        raise ValueError(f"{manifest_path}: maxval {maxval} is not 2**L - 1")
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"{manifest_path}: images disagree on size")
    h, w = shapes.pop()
    if h < 1 or h != w or h & (h - 1):
        raise ValueError(f"{manifest_path}: images must be square with power-of-two side")
    n = h.bit_length() - 1
    return MultiImage(n=n, bit_depth=depth, pixels=np.stack(arrays))


def save_multi(images: MultiImage, manifest_path: str | os.PathLike) -> list[str]:
    """Write one PGM per image plus a manifest next to them.

    Files are named after the manifest stem; returns the relative paths
    recorded in the manifest.
    """
    manifest_path = os.fspath(manifest_path)
    base = os.path.dirname(manifest_path) or "."
    stem = os.path.splitext(os.path.basename(manifest_path))[0]
    if images.bit_depth > PGM_MAX_DEPTH:
        raise ValueError("bit depth too large for PGM output")
    maxval = (1 << images.bit_depth) - 1
    names = []
    for m in range(images.m_prime):
        name = f"{stem}_{m:02d}.pgm"
        write_pgm(os.path.join(base, name), images.pixels[m], maxval)
        names.append(name)
    header = f"# {images.m_prime} images, {images.side}x{images.side}, maxval {maxval}\n"
    write_atomic(manifest_path, (header + "".join(name + "\n" for name in names)).encode())
    return names
