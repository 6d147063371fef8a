"""Bit-plane representation of multi-image sets.

A set of M' square grayscale images of side 2**n with L-bit pixels becomes a
four-dimensional binary tensor indexed (image, plane, x, y).  The image and
plane axes are padded with zeros up to a common power of two 2**k so that the
(image, plane) pair ranges over a square lattice of the same shape class as
the pixel lattice; that symmetry is what lets the scrambling stage treat both
lattices with the same machinery.

Plane order (plane l holds bit l) is known here alone: _split_planes and
_join_planes cut values into planes and join them back in the values' own
dtype, and every other module that needs planes or bit counts calls them.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np


PGM_MAX_DEPTH = 16  # binary PGM samples hold at most 16 bits


def _dtype_for_depth(bit_depth: int) -> np.dtype:
    """The narrowest unsigned dtype that holds bit_depth-bit values."""
    return np.min_scalar_type((1 << bit_depth) - 1)


def stack_exponent(m_prime: int, bit_depth: int) -> int:
    """Shared exponent k with 2**k >= max(m_prime, bit_depth)."""
    return max(m_prime - 1, bit_depth - 1).bit_length()


def _split_planes(values: np.ndarray, depth: int) -> np.ndarray:
    """uint8 planes[m, l] = bit l of values[m], for l < depth, by shift and mask."""
    planes = np.empty((values.shape[0], depth) + values.shape[1:], dtype=np.uint8)
    for l in range(depth):
        np.bitwise_and(values >> l, 1, out=planes[:, l], casting="unsafe")
    return planes


def _join_planes(planes: np.ndarray) -> np.ndarray:
    """Inverse of _split_planes: values[m] = OR of planes[m, l] << l, by shift and OR."""
    dtype = _dtype_for_depth(planes.shape[1])
    values = np.zeros((planes.shape[0],) + planes.shape[2:], dtype=dtype)
    for l in range(planes.shape[1]):
        values |= planes[:, l].astype(dtype) << l
    return values


@dataclass
class MultiImage:
    """An ordered set of equally sized square grayscale images.

    Attributes:
        n: pixel lattices are 2**n x 2**n.
        bit_depth: pixels hold values in [0, 2**bit_depth).
        pixels: array of shape (m_prime, 2**n, 2**n).
    """

    n: int
    bit_depth: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.bit_depth < 1:
            raise ValueError("bit depth must be at least 1")
        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim != 3:
            raise ValueError("pixels must have shape (images, side, side)")
        side = 1 << self.n
        count = self.pixels.shape[0]
        if count < 1:
            raise ValueError("at least one image is required")
        if self.pixels.shape[1] != side or self.pixels.shape[2] != side:
            raise ValueError(
                f"image side must be {side} for n={self.n}, "
                f"got {self.pixels.shape[1]}x{self.pixels.shape[2]}"
            )
        limit = 1 << self.bit_depth
        if self.pixels.size and int(self.pixels.max()) >= limit:
            raise ValueError(f"pixel values must be below {limit}")
        self.pixels = self.pixels.astype(_dtype_for_depth(self.bit_depth), copy=False)

    @property
    def m_prime(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def side(self) -> int:
        return 1 << self.n


@dataclass
class BitPlaneStack:
    """Padded binary tensor bits[image, plane, x, y] with equal side 2**k.

    Plane 0 is the least significant bit.  Padded images (m >= m_prime) and
    padded planes (l >= bit_depth) are zero until scrambling moves data into
    them.
    """

    n: int
    k: int
    m_prime: int
    bit_depth: int
    bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        stack_side = 1 << self.k
        side = 1 << self.n
        if self.m_prime < 1 or self.m_prime > stack_side:
            raise ValueError("image count must fit the stack side")
        if self.bit_depth < 1 or self.bit_depth > stack_side:
            raise ValueError("bit depth must fit the stack side")
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        expected = (stack_side, stack_side, side, side)
        if self.bits.shape != expected:
            raise ValueError(f"bit tensor must have shape {expected}")
        if self.bits.size and int(self.bits.max()) > 1:
            raise ValueError("bit tensor entries must be 0 or 1")

    @property
    def stack_side(self) -> int:
        return 1 << self.k

    def padding_bit_count(self) -> int:
        """Number of set bits sitting in padding slots.

        Counted over two disjoint views, the padded images and the padded
        planes of the real ones, so no padding slot is copied.
        """
        padded_images = self.bits[self.m_prime :]
        padded_planes = self.bits[: self.m_prime, self.bit_depth :]
        return int(np.count_nonzero(padded_images)) + int(np.count_nonzero(padded_planes))


def decompose(images: MultiImage) -> BitPlaneStack:
    """Unpack pixel values into the padded bit tensor.

    The plane axis stores binary expansions little-endian, so recombining
    planes with weights 2**l reproduces the pixel values exactly.
    """
    k = stack_exponent(images.m_prime, images.bit_depth)
    stack_side = 1 << k
    side = images.side
    bits = np.zeros((stack_side, stack_side, side, side), dtype=np.uint8)
    bits[: images.m_prime, : images.bit_depth] = _split_planes(images.pixels, images.bit_depth)
    return BitPlaneStack(
        n=images.n,
        k=k,
        m_prime=images.m_prime,
        bit_depth=images.bit_depth,
        bits=bits,
    )


def recompose(stack: BitPlaneStack) -> MultiImage:
    """Rebuild the m_prime source images from their plane slices.

    Padding slots are ignored; stack.padding_bit_count() counts any set bits
    left there (after decryption, a sign of a wrong key).
    """
    pixels = _join_planes(stack.bits[: stack.m_prime, : stack.bit_depth])
    return MultiImage(n=stack.n, bit_depth=stack.bit_depth, pixels=pixels)


def recompose_all(stack: BitPlaneStack) -> MultiImage:
    """Rebuild every stack slot, padding included.

    Produces 2**k images of 2**k-bit pixels; that is the on-disk shape of
    ciphertext, where scrambling has moved live bits into padding slots.
    """
    return MultiImage(n=stack.n, bit_depth=stack.stack_side, pixels=_join_planes(stack.bits))


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
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header") from exc
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
    if h != w or h & (h - 1):
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
