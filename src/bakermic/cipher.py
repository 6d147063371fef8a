"""Key handling, key schedule, the two scrambling stages, and diffusion.

Encryption decomposes the image set into the padded bit tensor, scrambles
the (image, plane) fibre of every pixel with a keyed baker map, scrambles
the pixel lattice of every (image, plane) slice with a second keyed baker
map, XORs a chaotic keystream over every bit site, and recombines all tensor
slots into 2**k ciphertext images.  Each stage is exactly invertible given
the key file, which carries the chaotic parameters, the schedule generator
seeds, and the exact plaintext statistics the keystream was seeded from.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import baker
from .brqmi import BitPlaneStack, MultiImage, decompose, recompose, recompose_all, stack_exponent, write_atomic
from .brqmi import _split_planes
from .chaos import (
    DegenerateKeyError,
    HenonSineParams,
    RankPerms,
    SeedMaterial,
    derive_seed,
    distinct_sequence,
    keystream_grid,
    rank_perms,
    seed_from_sums,
)

KEY_VERSION = 1


@dataclass(frozen=True)
class ImageParams:
    """Per-image chaotic parameters: lambda pair plus the 10**q scale."""

    lambda1: float
    lambda2: float
    q: int


@dataclass(frozen=True)
class ScheduleParams:
    """Generator parameters of one schedule stage: lambda pair and seed."""

    lambda1: float
    lambda2: float
    x0: float
    y0: float


@dataclass(frozen=True)
class SecretKey:
    """Complete key material; everything decryption needs besides ciphertext.

    intensity_sum and bit_count are filled in by encryption (they are exact
    statistics of the plaintext) and must travel with the key.
    """

    n: int
    k: int
    m_prime: int
    bit_depth: int
    image_params: tuple[ImageParams, ...]
    stage_a: ScheduleParams
    stage_b: ScheduleParams
    r_max1: int
    r_max2: int
    intensity_sum: int | None = None
    bit_count: int | None = None

    def validate(self) -> None:
        if self.n < 0 or self.k < 0:
            raise ValueError("lattice exponents must be nonnegative")
        if self.m_prime < 1 or self.bit_depth < 1:
            raise ValueError("a key needs at least one image of at least one bit")
        if self.k != stack_exponent(self.m_prime, self.bit_depth):
            raise ValueError(
                f"stack exponent k={self.k} inconsistent with "
                f"{self.m_prime} images of depth {self.bit_depth}"
            )
        if len(self.image_params) != self.m_prime:
            raise ValueError("one parameter triple per image is required")
        named = [(f"image {m}", ip) for m, ip in enumerate(self.image_params)]
        for name, p in named + [("stage_a", self.stage_a), ("stage_b", self.stage_b)]:
            try:
                HenonSineParams(p.lambda1, p.lambda2).validate()
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None
        if not all(4 <= ip.q <= 15 for ip in self.image_params):
            raise ValueError("q must be in [4, 15]")
        for sp in (self.stage_a, self.stage_b):
            if not (-1 <= sp.x0 <= 1 and -1 <= sp.y0 <= 1):
                raise ValueError("schedule seeds must lie in [-1, 1]")
        if self.r_max1 < 1 or self.r_max2 < 1:
            raise ValueError("round caps must be at least 1")
        if (self.intensity_sum is None) != (self.bit_count is None):
            raise ValueError("intensity_sum and bit_count must be set together")


def make_key(
    n: int,
    m_prime: int,
    bit_depth: int,
    rng,
    q: int = 5,
    r_max1: int | None = None,
    r_max2: int | None = None,
    lambda1: float | None = None,
    lambda2: float | None = None,
) -> SecretKey:
    """Draw a fresh key for the given geometry.

    rng is any object with a random() method (random.Random or SystemRandom).
    Lambda factors default to uniform draws from [2, 8]; passing lambda1 and
    lambda2 pins them for every image.
    """
    k = stack_exponent(m_prime, bit_depth)

    def lam(fixed):
        return fixed if fixed is not None else 2.0 + 6.0 * rng.random()

    def unit():
        return 2.0 * rng.random() - 1.0

    images = tuple(
        ImageParams(lambda1=lam(lambda1), lambda2=lam(lambda2), q=q)
        for _ in range(m_prime)
    )
    stages = tuple(
        ScheduleParams(lambda1=lam(None), lambda2=lam(None), x0=unit(), y0=unit())
        for _ in range(2)
    )
    key = SecretKey(
        n=n,
        k=k,
        m_prime=m_prime,
        bit_depth=bit_depth,
        image_params=images,
        stage_a=stages[0],
        stage_b=stages[1],
        r_max1=r_max1 if r_max1 is not None else max(1, 2 * k),
        r_max2=r_max2 if r_max2 is not None else max(1, 2 * n),
    )
    key.validate()
    return key


# ---------------------------------------------------------------------------
# Key file serialisation


def float_to_hex(v: float) -> str:
    """16 hex digits of the IEEE-754 binary64 bit pattern (bit-exact)."""
    return format(struct.unpack("<Q", struct.pack("<d", v))[0], "016x")


def hex_to_float(text: str) -> float:
    if len(text) != 16:
        raise ValueError(f"expected 16 hex digits, got {text!r}")
    return struct.unpack("<d", struct.pack("<Q", int(text, 16)))[0]


def write_key(key: SecretKey, path) -> None:
    """Write the key file: UTF-8 'field = value' lines, reals as hex bits.

    The write is atomic (brqmi.write_atomic), so a failed write leaves any
    old key intact.
    """
    key.validate()
    lines = [
        f"version = {KEY_VERSION}",
        f"n = {key.n}",
        f"k = {key.k}",
        f"images = {key.m_prime}",
        f"depth = {key.bit_depth}",
    ]
    for m, ip in enumerate(key.image_params):
        lines.append(f"lambda1_{m} = {float_to_hex(ip.lambda1)}")
        lines.append(f"lambda2_{m} = {float_to_hex(ip.lambda2)}")
        lines.append(f"q_{m} = {ip.q}")
    for name, sp in (("stage_a", key.stage_a), ("stage_b", key.stage_b)):
        lines.append(f"{name}_lambda1 = {float_to_hex(sp.lambda1)}")
        lines.append(f"{name}_lambda2 = {float_to_hex(sp.lambda2)}")
        lines.append(f"{name}_x0 = {float_to_hex(sp.x0)}")
        lines.append(f"{name}_y0 = {float_to_hex(sp.y0)}")
    lines.append(f"r_max1 = {key.r_max1}")
    lines.append(f"r_max2 = {key.r_max2}")
    if key.intensity_sum is not None:
        lines.append(f"intensity_sum = {key.intensity_sum}")
        lines.append(f"bit_count = {key.bit_count}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_key(path) -> SecretKey:
    """Parse a key file written by write_key; strict about fields."""
    fields: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'field = value'")
            name, _, value = line.partition("=")
            name = name.strip()
            if name in fields:
                raise ValueError(f"{path}:{lineno}: duplicate field {name!r}")
            fields[name] = value.strip()

    def take(name, parse=int):
        if name not in fields:
            raise ValueError(f"{path}: missing field {name!r}")
        return parse(fields.pop(name))

    version = take("version")
    if version != KEY_VERSION:
        raise ValueError(f"{path}: unsupported key version {version}")
    n = take("n")
    k = take("k")
    m_prime = take("images")
    depth = take("depth")
    images = tuple(
        ImageParams(
            lambda1=take(f"lambda1_{m}", hex_to_float),
            lambda2=take(f"lambda2_{m}", hex_to_float),
            q=take(f"q_{m}"),
        )
        for m in range(m_prime)
    )
    stages = []
    for name in ("stage_a", "stage_b"):
        stages.append(
            ScheduleParams(
                lambda1=take(f"{name}_lambda1", hex_to_float),
                lambda2=take(f"{name}_lambda2", hex_to_float),
                x0=take(f"{name}_x0", hex_to_float),
                y0=take(f"{name}_y0", hex_to_float),
            )
        )
    r_max1 = take("r_max1")
    r_max2 = take("r_max2")
    intensity = bits = None
    if "intensity_sum" in fields or "bit_count" in fields:
        intensity = take("intensity_sum")
        bits = take("bit_count")
    if fields:
        raise ValueError(f"{path}: unknown fields {sorted(fields)}")
    key = SecretKey(
        n=n,
        k=k,
        m_prime=m_prime,
        bit_depth=depth,
        image_params=images,
        stage_a=stages[0],
        stage_b=stages[1],
        r_max1=r_max1,
        r_max2=r_max2,
        intensity_sum=intensity,
        bit_count=bits,
    )
    key.validate()
    return key


# ---------------------------------------------------------------------------
# Key schedule


@dataclass
class KeySchedule:
    """Per-site baker selections for both scrambling stages.

    stage1 has one (partition rank, rounds) pair per pixel in row-major
    order; its partitions live on the 2**k (image, plane) lattice.  stage2
    has one pair per (image, plane) slot in row-major order; its partitions
    live on the 2**n pixel lattice.
    """

    n: int
    k: int
    stage1: list[tuple[int, int]]
    stage2: list[tuple[int, int]]

    @functools.cached_property
    def stage1_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, tables): pixel p moves its fibre by tables[codes[p]].

        One powered table per distinct selection, built on first use and
        kept for every later stage-1 pass under this schedule.
        """
        index: dict = {}
        codes = np.fromiter(
            (index.setdefault(sel, len(index)) for sel in self.stage1),
            dtype=np.intp,
            count=len(self.stage1),
        )
        return codes, _tables(self.k, list(index))


_BLOCK = 1024  # draws per block: the recurrence fills one block of floats, numpy reduces it


def _draws(params: ScheduleParams, modulus: int, r_max: int, count: int):
    """Raw generator draws: (value mod modulus, rounds in [1, r_max]) pairs.

    Each draw takes enough 32-bit words for 64 guard bits beyond the modulus
    width, so the reduction bias is far below observability, and one more
    word for its rounds.  Only the recurrence runs in Python: it is
    chaos.henon_sine_step with its constants hoisted (same floats), and it
    fills a block of draws at a time.  numpy turns each block into words
    with the same IEEE operations and reduces them by Horner's rule with
    2**32 % modulus, in int64 when no intermediate can overflow it and on
    Python ints otherwise.
    """
    p = HenonSineParams(params.lambda1, params.lambda2)
    pl1, pl2, a, b, sin = math.pi * p.lambda1, math.pi * p.lambda2, p.a, p.b, math.sin
    x, y = params.x0, params.y0
    for _ in range(100):
        t = sin(pl2 * (b * x))
        x = sin(pl1 * (1.0 - a * x * x + y))
        y = t
    words = (modulus.bit_length() + 64 + 31) // 32
    stride = words + 1
    mult = (1 << 32) % modulus
    dtype = np.int64 if max(modulus, r_max) < 1 << 31 else object
    xs = [0.0] * (min(count, _BLOCK) * stride)
    out = []
    for c0 in range(0, count, _BLOCK):
        steps = min(_BLOCK, count - c0) * stride
        for i in range(steps):
            t = sin(pl2 * (b * x))
            x = sin(pl1 * (1.0 - a * x * x + y))
            y = t
            xs[i] = x
        # scaled is >= 0, so int64 truncation is int(); x = 1.0 clamps to the top word
        scaled = (np.fromiter(xs, np.float64, steps) + 1.0) * 0.5 * 4294967296.0
        w = np.minimum(scaled, 4294967295.0).astype(np.int64).astype(dtype, copy=False).reshape(-1, stride)
        acc = np.zeros(len(w), dtype=dtype)
        for j in range(words):
            acc = (acc * mult + w[:, j]) % modulus
        out.extend(zip(acc.tolist(), (w[:, words] % r_max + 1).tolist()))
    return out


def derive_schedule(key: SecretKey) -> KeySchedule:
    """Expand the key into per-site baker selections.

    Stage A drives the per-pixel fibre maps, stage B the per-slice pixel
    maps; both consume one continuous generator stream in row-major site
    order, so the schedule is reproducible from the key alone.
    """
    key.validate()
    stage1 = _draws(
        key.stage_a,
        baker.count_partitions(key.k),
        key.r_max1,
        1 << (2 * key.n),
    )
    stage2 = _draws(
        key.stage_b,
        baker.count_partitions(key.n),
        key.r_max2,
        1 << (2 * key.k),
    )
    return KeySchedule(n=key.n, k=key.k, stage1=stage1, stage2=stage2)


# ---------------------------------------------------------------------------
# Scrambling stages


_CHUNK = 1 << 15  # entries per index temporary: 256 KiB of intp, so gathers stay in cache


def _power(base: np.ndarray, rounds: int) -> np.ndarray:
    """Every row of base, a stack of forward tables, applied `rounds` times.

    Repeated squaring on the flattened stack: adding each row's offset makes
    every entry a flat index into the stack, so one 1-D gather composes all
    rows at once.  Powers of one map commute, so the order is free.
    """
    rows, size = base.shape
    offsets = np.arange(0, rows * size, size, dtype=np.intp)[:, None]
    power = (base + offsets).ravel()
    out = np.arange(rows * size, dtype=np.intp)
    while rounds:
        if rounds & 1:
            out = power[out]
        rounds >>= 1
        if rounds:
            power = power[power]
    return out.reshape(rows, size) - offsets


def _tables(n: int, sels: list[tuple[int, int]]) -> np.ndarray:
    """Forward tables, row i being unrank(n, rank_i) applied rounds_i times.

    Rows sharing a rounds value are powered together, a chunk at a time.
    The result uses the narrowest unsigned type that holds a lattice index.
    """
    ranks = dict.fromkeys(rank for rank, _ in sels)
    bases = {rank: baker.permutation_table(baker.unrank(n, rank)) for rank in ranks}
    size = 1 << (2 * n)
    out = np.empty((len(sels), size), dtype=np.min_scalar_type(size - 1))
    rounds = np.array([r for _, r in sels], dtype=np.int64)
    step = max(1, _CHUNK // size)
    for r in np.unique(rounds):
        same = np.flatnonzero(rounds == r)
        for c0 in range(0, same.size, step):
            rows = same[c0 : c0 + step]
            out[rows] = _power(np.stack([bases[sels[i][0]] for i in rows]), int(r))
    return out


def _permute(flat: np.ndarray, tables: np.ndarray, codes: np.ndarray, inverse: bool, axis: int) -> np.ndarray:
    """Permute the C-contiguous 2-D array flat along `axis`, lane by lane.

    Each index along the other axis is a lane; lane j moves by the forward
    table tables[codes[j]].  The forward direction scatters with it
    (out[t[i]] = lane[i]), the inverse gathers (out[i] = lane[t[i]]).  Lanes
    go in chunks of about _CHUNK index entries, and at least one lane.
    """
    size, lanes = flat.shape[axis], flat.shape[1 - axis]
    pos_stride, lane_stride = (lanes, 1) if axis == 0 else (1, size)
    src = flat.ravel()
    out = np.empty_like(flat)
    dst = out.ravel()
    step = max(1, _CHUNK // size)
    for c0 in range(0, lanes, step):
        c1 = min(c0 + step, lanes)
        lin = np.multiply(tables[codes[c0:c1]], pos_stride, dtype=np.intp)
        lin += np.arange(c0 * lane_stride, c1 * lane_stride, lane_stride)[:, None]
        if axis == 0:
            lin, block = lin.T, (slice(None), slice(c0, c1))
        else:
            block = slice(c0, c1)
        if inverse:
            out[block] = src[lin]
        else:
            dst[lin] = flat[block]
    return out


def _fibres(stack: BitPlaneStack, sched: KeySchedule, inverse: bool) -> BitPlaneStack:
    """Stage 1 in either direction: one map per pixel over its (image, plane) fibre."""
    codes, tables = sched.stage1_tables
    flat = stack.bits.reshape(stack.stack_side**2, -1)
    out = _permute(flat, tables, codes, inverse, axis=0)
    return dataclasses.replace(stack, bits=out.reshape(stack.bits.shape))


def _slices(stack: BitPlaneStack, sched: KeySchedule, inverse: bool) -> BitPlaneStack:
    """Stage 2 in either direction: one map per (image, plane) slice of pixels.

    Tables are built a chunk of slices at a time, since all of them together
    would take several times the memory of the stack.
    """
    flat = stack.bits.reshape(stack.stack_side**2, -1)
    out = np.empty_like(flat)
    step = max(1, _CHUNK // flat.shape[1])
    for c0 in range(0, len(flat), step):
        sels = sched.stage2[c0 : c0 + step]
        codes = np.arange(len(sels))
        out[c0 : c0 + step] = _permute(flat[c0 : c0 + step], _tables(stack.n, sels), codes, inverse, axis=1)
    return dataclasses.replace(stack, bits=out.reshape(stack.bits.shape))


def scramble_images_planes(stack: BitPlaneStack, sched: KeySchedule) -> BitPlaneStack:
    """Stage 1: permute each pixel's (image, plane) fibre with its own map.

    A rounds value of 0 leaves the fibre untouched (test hook).
    """
    return _fibres(stack, sched, inverse=False)


def inverse_scramble_images_planes(stack: BitPlaneStack, sched: KeySchedule) -> BitPlaneStack:
    return _fibres(stack, sched, inverse=True)


def scramble_positions(stack: BitPlaneStack, sched: KeySchedule) -> BitPlaneStack:
    """Stage 2: permute the pixel lattice of each (image, plane) slice."""
    return _slices(stack, sched, inverse=False)


def inverse_scramble_positions(stack: BitPlaneStack, sched: KeySchedule) -> BitPlaneStack:
    return _slices(stack, sched, inverse=True)


# ---------------------------------------------------------------------------
# Diffusion


def image_rank_perms(key: SecretKey, seed: SeedMaterial, m: int) -> RankPerms:
    """Rank permutations for stack image m; padded images reuse m mod M'."""
    ip = key.image_params[m % key.m_prime]
    try:
        xs, ys = distinct_sequence(
            (seed.x0, seed.y0),
            HenonSineParams(ip.lambda1, ip.lambda2),
            count=1 << key.n,
        )
    except DegenerateKeyError as exc:
        raise DegenerateKeyError(exc.count, exc.found, exc.iterations, exc.cycled, image=m) from None
    return rank_perms(xs, ys)


def diffuse(stack: BitPlaneStack, key: SecretKey, seed: SeedMaterial, stats: dict | None = None) -> BitPlaneStack:
    """XOR the keystream over every bit site; self-inverse by construction.

    The keystream integers at (image, x, y) are split into 2**k bit planes
    like pixels, and every (image, plane, x, y) site is XORed exactly once
    with its keystream bit.  Padded images take the grid of image m mod M',
    so all 2**k images get live keystream.  When stats is given,
    stats['xor_sites'] receives the number of sites actually touched.
    """
    grids = _material(key).grids(seed)
    s = stack.stack_side
    bits = _split_planes(np.stack([grids[m % key.m_prime] for m in range(s)]), s)
    np.bitwise_xor(bits, stack.bits, out=bits)
    if stats is not None:
        stats["xor_sites"] = bits.size
    return dataclasses.replace(stack, bits=bits)


# ---------------------------------------------------------------------------
# Whole-pipeline entry points


class _KeyMaterial:
    """What one key determines, built on first use and shared by its passes.

    Holds the key schedule (whose stage-1 tables are built on first use)
    and the keystream grids of the two most recent plaintext seeds, which
    is what analyze's pairs of P and flipped P need.  Stage-2 tables are not
    kept: at n=9 they would take 67 MB.
    """

    def __init__(self, key: SecretKey):
        self.key = key
        self._grids: dict[tuple[int, int], list[np.ndarray]] = {}
        self._lock = threading.Lock()  # passes in several threads share one entry

    @functools.cached_property
    def schedule(self) -> KeySchedule:
        return derive_schedule(self.key)

    def grids(self, seed: SeedMaterial) -> list[np.ndarray]:
        """Keystream grid of each source image 0..M'-1, in that order."""
        tag = (seed.intensity_sum, seed.bit_count)
        with self._lock:
            grids = self._grids.pop(tag, None)
            if grids is None:
                key = self.key
                grids = [
                    keystream_grid(image_rank_perms(key, seed, m), key.image_params[m].q, key.k)
                    for m in range(key.m_prime)
                ]
            self._grids[tag] = grids
            if len(self._grids) > 2:
                del self._grids[next(iter(self._grids))]
        return grids


# One entry: a new key's material replaces the last key's before any of it
# is derived, so two schedules never sit in memory together.
_materials = functools.lru_cache(maxsize=1)(_KeyMaterial)


def _material(key: SecretKey) -> _KeyMaterial:
    """The cached material of key; the plaintext sums play no part in it."""
    return _materials(dataclasses.replace(key, intensity_sum=None, bit_count=None))


def encrypt(images: MultiImage, key: SecretKey) -> tuple[MultiImage, SecretKey]:
    """Encrypt an image set.

    Returns the ciphertext (2**k images of 2**k-bit pixels) and the key
    updated with the exact plaintext statistics; the updated key must be
    stored, since decryption reseeds the keystream from it.  A key whose
    orbits degenerate for this plaintext is refused before any scrambling.
    """
    key.validate()
    if images.n != key.n or images.m_prime != key.m_prime or images.bit_depth != key.bit_depth:
        raise ValueError("key geometry does not match the image set")
    seed = derive_seed(images)
    key = dataclasses.replace(key, intensity_sum=seed.intensity_sum, bit_count=seed.bit_count)
    material = _material(key)
    material.grids(seed)  # orbits first: a degenerate key is refused before any scrambling
    stack = decompose(images)
    stack = scramble_images_planes(stack, material.schedule)
    stack = scramble_positions(stack, material.schedule)
    stack = diffuse(stack, key, seed)
    return recompose_all(stack), key


def decrypt(cipher: MultiImage, key: SecretKey) -> tuple[MultiImage, int]:
    """Invert the pipeline; returns (images, stray_padding_bits).

    stray_padding_bits counts set bits left in padding slots after
    inversion.  Zero means clean recovery; anything else signals a wrong
    key or corrupted ciphertext, but the recovered images are still
    returned for inspection.
    """
    key.validate()
    if key.intensity_sum is None:
        raise ValueError("key carries no plaintext statistics; encrypt first")
    s = 1 << key.k
    if cipher.n != key.n or cipher.m_prime != s or cipher.bit_depth != s:
        raise ValueError("ciphertext geometry does not match the key")
    seed = seed_from_sums(key.intensity_sum, key.bit_count, key.m_prime, key.bit_depth, key.n)
    stack = diffuse(decompose(cipher), key, seed)
    sched = _material(key).schedule
    stack = inverse_scramble_positions(stack, sched)
    stack = inverse_scramble_images_planes(stack, sched)
    stack = dataclasses.replace(stack, m_prime=key.m_prime, bit_depth=key.bit_depth)
    return recompose(stack, check_padding=False), stack.padding_bit_count()
