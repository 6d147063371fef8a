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
import re
import struct
from dataclasses import dataclass

import numpy as np

from . import baker
from .brqmi import BitPlaneStack, MultiImage, decompose, recompose, recompose_all, stack_exponent, write_atomic
from .brqmi import _split_planes
from .chaos import (
    DegenerateKeyError,
    HenonSineParams,
    RankPerms,
    derive_seed,
    distinct_sequence,
    henon_orbit,
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
    statistics of the plaintext) and must travel with the key.  A key checks
    itself when it is built, so every SecretKey the program holds is valid.
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

    def __post_init__(self) -> None:
        self.validate()

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
        if self.k > 5:
            # the keystream's 2**k-bit integers would pass int64
            raise ValueError(
                f"{self.m_prime} images of depth {self.bit_depth} need k={self.k}: "
                "a key holds at most 32 images of at most 32 bits"
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
    return SecretKey(
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


# ---------------------------------------------------------------------------
# Key file serialisation


def float_to_hex(v: float) -> str:
    """16 hex digits of the IEEE-754 binary64 bit pattern (bit-exact)."""
    return format(struct.unpack("<Q", struct.pack("<d", v))[0], "016x")


def hex_to_float(text: str) -> float:
    if not re.fullmatch("[0-9a-fA-F]{16}", text):
        raise ValueError(f"expected 16 hex digits, got {text!r}")
    return struct.unpack("<d", struct.pack("<Q", int(text, 16)))[0]


def decimal_to_int(text: str) -> int:
    """The integer write_key wrote: ASCII digits, no sign, underscore or leading zero."""
    if not re.fullmatch("0|[1-9][0-9]*", text):
        raise ValueError(f"expected a decimal integer without sign, underscore or leading zero, got {text!r}")
    return int(text)


def write_key(key: SecretKey, path) -> None:
    """Write the key file: UTF-8 'field = value' lines, reals as hex bits.

    The write is atomic (brqmi.write_atomic), so a failed write leaves any
    old key intact.
    """
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

    def take(name, parse=decimal_to_int):
        if name not in fields:
            raise ValueError(f"{path}: missing field {name!r}")
        try:
            return parse(fields.pop(name))
        except ValueError as exc:
            raise ValueError(f"{path}: field {name!r}: {exc}") from None

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
    return SecretKey(
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


# ---------------------------------------------------------------------------
# Key schedule


@dataclass
class KeySchedule:
    """Per-site baker selections for both scrambling stages.

    Sites go in row-major order.  stage1 is _draws' read-only (partition rank,
    rounds) array, one entry per pixel (2 bytes each at k=3: 512 KB at n=9),
    with partitions on the 2**k (image, plane) lattice.  stage2 has one pair of
    ints per (image, plane) slot, with partitions on the 2**n pixel lattice.

    _permute asks for a stage's forward tables a lane chunk at a time, through
    stage1_rows (pixels) or stage2_rows (slots); those two methods alone
    decide which tables are kept and which are rebuilt.  Each returns a
    fresh array, which _permute may overwrite.  stage1_rows gathers from the
    cached, read-only stage1_tables.  stage2_rows builds intp tables for the
    call from the cached, read-only stage2_layout, so no pass repeats a
    slot's partition work.
    """

    n: int
    k: int
    stage1: np.ndarray
    stage2: list[tuple[int, int]]

    @functools.cached_property
    def stage1_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, tables): pixel p moves its fibre by tables[codes[p]].

        One powered table per distinct selection, built on first use and
        kept, read-only, for every later stage-1 pass under this schedule.
        Both arrays use the narrowest unsigned type that holds their values.
        """
        rank, rounds = self.stage1["rank"], self.stage1["rounds"]
        span = int(rounds.max()) + 1
        # rank < C(5) = 458330 (k <= 5) and span <= 2**32 + 1, so keys stay below 2**51
        keys, codes = np.unique(rank.astype(np.int64) * span + rounds.astype(np.int64), return_inverse=True)
        sels = [divmod(key, span) for key in keys.tolist()]
        codes = codes.astype(np.min_scalar_type(len(keys) - 1))
        tables = _tables(self.k, sels, np.min_scalar_type((1 << (2 * self.k)) - 1))
        codes.flags.writeable = tables.flags.writeable = False
        return codes, tables

    def stage1_rows(self, c0: int, c1: int) -> np.ndarray:
        """Forward tables of pixels c0..c1-1, rows of stage1_tables."""
        codes, tables = self.stage1_tables
        return tables[codes[c0:c1]]

    @functools.cached_property
    def stage2_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """(low, cols): slot s's base table is baker.strip_tables(n, low[s], cols[s]).

        Each slot's strip layout (baker.strip_layout), built once from its
        rank and kept, read-only, for every later stage-2 pass: low in uint8
        and cols in intp, each of shape (slots, 2**n).  That is 147 KB at
        n=8 with 3 images and 295 KB at n=7 with 16 or at n=9 with 3.
        """
        low = np.empty((len(self.stage2), 1 << self.n), np.uint8)
        cols = np.empty(low.shape, np.intp)
        for s, (rank, _) in enumerate(self.stage2):
            low[s], cols[s] = baker.strip_layout(self.n, baker.unrank(self.n, rank).qs)
        low.flags.writeable = cols.flags.writeable = False
        return low, cols

    def stage2_rows(self, c0: int, c1: int) -> np.ndarray:
        """Forward tables of slots c0..c1-1, built afresh in intp on every call.

        Each base table is one gather and one add from stage2_layout, with
        one full-size allocation.  A single slot (one lane per chunk, from
        n = 8) returns its powered table itself, with no copy into a fresh
        array, so _power can free the base once it has squared it; several
        are powered row by row in place.
        """
        low, cols = self.stage2_layout
        if c1 - c0 == 1:
            return _power(baker.strip_tables(self.n, low[c0], cols[c0]), self.stage2[c0][1])[None]
        out = baker.strip_tables(self.n, low[c0:c1], cols[c0:c1])
        for row, (_, r) in zip(out, self.stage2[c0:c1]):
            row[:] = _power(row, r)
        return out


_BLOCK = 1024  # draws per block: the recurrence fills one block of floats, numpy reduces it


def _draws(params: ScheduleParams, modulus: int, r_max: int, count: int):
    """Raw generator draws: a read-only array of (rank, rounds) records.

    Each draw's rank (value mod modulus) takes enough 32-bit words for 64
    guard bits beyond the modulus width, so the reduction bias is far below
    observability, and its rounds one more word (mod r_max, plus 1, so at
    most 2**32).  Each field has the narrowest dtype that holds it, object
    past 64 bits.  Only the recurrence runs in Python, in chaos.henon_orbit,
    which fills a block of draws at a time.  numpy turns each block into words
    with the same IEEE operations and reduces them by Horner's rule with
    2**32 % modulus, in int64 when no intermediate can overflow it and on
    Python ints otherwise.
    """
    words = (modulus.bit_length() + 64 + 31) // 32
    stride = words + 1
    mult = (1 << 32) % modulus
    dtype = np.int64 if max(modulus, r_max) < 1 << 31 else object
    p = HenonSineParams(params.lambda1, params.lambda2)
    orbit = henon_orbit((params.x0, params.y0), p, min(count, _BLOCK) * stride)
    fields = [("rank", np.min_scalar_type(modulus - 1)), ("rounds", np.min_scalar_type(min(r_max, 1 << 32)))]
    out = np.empty(count, fields)
    for c0 in range(0, count, _BLOCK):
        steps = min(_BLOCK, count - c0) * stride
        xs, _ = next(orbit)
        # scaled is >= 0, so int64 truncation is int(); x = 1.0 clamps to the top word
        scaled = (np.fromiter(xs, np.float64, steps) + 1.0) * 0.5 * 4294967296.0
        w = np.minimum(scaled, 4294967295.0).astype(np.int64).astype(dtype, copy=False).reshape(-1, stride)
        acc = np.zeros(len(w), dtype=dtype)
        for j in range(words):
            acc = (acc * mult + w[:, j]) % modulus
        out["rank"][c0 : c0 + len(w)] = acc
        out["rounds"][c0 : c0 + len(w)] = w[:, words] % r_max + 1
    out.flags.writeable = False
    return out


def derive_schedule(key: SecretKey) -> KeySchedule:
    """Expand the key into per-site baker selections.

    Stage A drives the per-pixel fibre maps, stage B the per-slice pixel
    maps; both consume one continuous generator stream in row-major site
    order, so the schedule is reproducible from the key alone.
    """
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
    ).tolist()
    return KeySchedule(n=key.n, k=key.k, stage1=stage1, stage2=stage2)


# ---------------------------------------------------------------------------
# Scrambling stages


_CHUNK = 1 << 15  # entries per index temporary: 256 KiB of intp, so gathers stay in cache


def _power(table: np.ndarray, rounds: int) -> np.ndarray:
    """table, a 1-D intp forward table, applied `rounds` times.

    Repeated squaring starts from table itself at the lowest set bit of
    rounds, so no identity is composed; rounds 0 gives the identity.  Powers
    of one map commute, so the order is free.  table is never written, and
    the result may be table itself.
    """
    if not rounds:
        return np.arange(table.size, dtype=np.intp)
    while not rounds & 1:
        table = table[table]
        rounds >>= 1
    out = table
    rounds >>= 1
    while rounds:
        table = table[table]
        if rounds & 1:
            out = table[out]
        rounds >>= 1
    return out


def _tables(n: int, sels: list[tuple[int, int]], dtype) -> np.ndarray:
    """Stage-1 forward tables, row i being unrank(n, rank_i) applied rounds_i times.

    One base table is built per distinct rank, and each row is powered on its
    own and stored as dtype, the narrowest unsigned type for the stage-1
    tables a schedule keeps.
    """
    bases = {rank: baker.permutation_table(baker.unrank(n, rank)) for rank in dict.fromkeys(r for r, _ in sels)}
    out = np.empty((len(sels), 1 << (2 * n)), dtype=dtype)
    for row, (rank, r) in zip(out, sels):
        row[:] = _power(bases[rank], r)
    return out


def _permute(stack: BitPlaneStack, rows, inverse: bool, axis: int) -> BitPlaneStack:
    """Permute the bit tensor, viewed as (slot, pixel), along `axis`, lane by lane.

    Axis 0 moves each pixel's fibre (stage 1), axis 1 each slot's pixels
    (stage 2).  Each index along the other axis is a lane, and rows(c0, c1)
    returns the forward tables of lanes c0..c1-1 as a fresh array, which
    _permute may overwrite: along axis 1 it adds the lane offsets in place,
    so those tables must be intp.  Each chunk's tables become one flat,
    C-ordered intp index into the whole tensor, laid out like the chunk's
    block, so numpy takes its fast 1-D path.  The forward direction
    scatters with a lane's table (out[t[i]] = lane[i]), the inverse gathers
    (out[i] = lane[t[i]]).  Lanes go in chunks of about _CHUNK index
    entries, and at least one lane.
    """
    flat = stack.bits.reshape(stack.stack_side**2, -1)
    size, lanes = flat.shape[axis], flat.shape[1 - axis]
    src = flat.ravel()
    out = np.empty_like(flat)
    dst = out.ravel()
    step = max(1, _CHUNK // size)
    for c0 in range(0, lanes, step):
        c1 = min(c0 + step, lanes)
        lin = rows(c0, c1)
        if axis == 0:
            # without order="C" the transposed copy keeps F order, and ravel copies it again
            lin = lin.T.astype(np.intp, order="C")
            lin *= lanes
            lin += np.arange(c0, c1)
            block = (slice(None), slice(c0, c1))
        else:
            lin += np.arange(c0 * size, c1 * size, size)[:, None]
            block = slice(c0, c1)
        if inverse:
            out[block] = src[lin.ravel()].reshape(lin.shape)
        else:
            dst[lin.ravel()] = flat[block].ravel()
    return dataclasses.replace(stack, bits=out.reshape(stack.bits.shape))


def scramble_images_planes(stack: BitPlaneStack, sched: KeySchedule) -> BitPlaneStack:
    """Stage 1: permute each pixel's (image, plane) fibre with its own map.

    A rounds value of 0 leaves the fibre untouched (test hook).
    """
    return _permute(stack, sched.stage1_rows, inverse=False, axis=0)


def inverse_scramble_images_planes(stack: BitPlaneStack, sched: KeySchedule) -> BitPlaneStack:
    return _permute(stack, sched.stage1_rows, inverse=True, axis=0)


def scramble_positions(stack: BitPlaneStack, sched: KeySchedule) -> BitPlaneStack:
    """Stage 2: permute the pixel lattice of each (image, plane) slice."""
    return _permute(stack, sched.stage2_rows, inverse=False, axis=1)


def inverse_scramble_positions(stack: BitPlaneStack, sched: KeySchedule) -> BitPlaneStack:
    return _permute(stack, sched.stage2_rows, inverse=True, axis=1)


# ---------------------------------------------------------------------------
# Diffusion


def image_rank_perms(key: SecretKey, seed: tuple[float, float], m: int) -> RankPerms:
    """Rank permutations for stack image m from the orbit seed (x0, y0); padded images reuse m mod M'."""
    ip = key.image_params[m % key.m_prime]
    try:
        xs, ys = distinct_sequence(seed, HenonSineParams(ip.lambda1, ip.lambda2), count=1 << key.n)
    except DegenerateKeyError as exc:
        raise DegenerateKeyError(exc.count, exc.found, exc.iterations, exc.cycled, image=m) from None
    return rank_perms(xs, ys)


def diffuse(stack: BitPlaneStack, grids: tuple[np.ndarray, ...], stats: dict | None = None) -> BitPlaneStack:
    """XOR the keystream grids over every bit site; self-inverse by construction.

    grids holds one keystream grid per source image, as _grids(key) returns
    them.  The keystream integers at (image, x, y) are split into 2**k bit
    planes like pixels, and every (image, plane, x, y) site is XORed exactly
    once with its keystream bit.  Padded image m takes grids[m % len(grids)],
    so all 2**k images get live keystream.  When stats is given,
    stats['xor_sites'] receives the number of sites actually touched.
    """
    s = stack.stack_side
    bits = _split_planes(np.stack([grids[m % len(grids)] for m in range(s)]), s)
    np.bitwise_xor(bits, stack.bits, out=bits)
    if stats is not None:
        stats["xor_sites"] = bits.size
    return dataclasses.replace(stack, bits=bits)


# ---------------------------------------------------------------------------
# Whole-pipeline entry points


def _bare(key: SecretKey) -> SecretKey:
    """key without its plaintext sums, which play no part in its schedule."""
    return dataclasses.replace(key, intensity_sum=None, bit_count=None)


# Passes under one key share what it determines.  The most recent key's
# schedule is kept with its stage-1 tables (built on first use); a new key's
# schedule replaces it once derived.  The keystream grids of the two most
# recent seeded keys are kept, so a decrypt after its encrypt recomputes
# neither the seed nor the grids.  The schedule also keeps each stage-2
# slot's strip layout (at most 295 KB at the benchmark geometries), but not
# the stage-2 tables, which are built from it a lane chunk at a time on every
# pass: all of them would take 8 MB even in uint16 at n=7 with 16 images or
# at n=8 with 3, and 67 MB at n=9.
# Threads may share both caches: lru_cache keeps its entries consistent, but
# threads that miss together each derive the material.


@functools.lru_cache(maxsize=1)
def _schedule(key: SecretKey) -> KeySchedule:
    return derive_schedule(key)


@functools.lru_cache(maxsize=2)  # analyze alternates P and flipped P
def _grids(key: SecretKey) -> tuple[np.ndarray, ...]:
    """Keystream grid of each source image 0..M'-1, in that order, under a seeded key.

    The orbits start at the seed that seed_from_sums makes from the key's
    plaintext sums; a key without them is refused.
    """
    if key.intensity_sum is None:
        raise ValueError("key carries no plaintext statistics; encrypt first")
    seed = seed_from_sums(key.intensity_sum, key.bit_count, key.m_prime, key.bit_depth, key.n)
    return tuple(
        keystream_grid(image_rank_perms(key, seed, m), key.image_params[m].q, key.k) for m in range(key.m_prime)
    )


def encrypt(images: MultiImage, key: SecretKey) -> tuple[MultiImage, SecretKey]:
    """Encrypt an image set.

    Returns the ciphertext (2**k images of 2**k-bit pixels) and the key
    updated with the exact plaintext statistics; the updated key must be
    stored, since decryption reseeds the keystream from it.  A key whose
    orbits degenerate for this plaintext is refused before any scrambling.
    """
    if images.n != key.n or images.m_prime != key.m_prime or images.bit_depth != key.bit_depth:
        raise ValueError("key geometry does not match the image set")
    intensity_sum, bit_count = derive_seed(images)
    key = dataclasses.replace(key, intensity_sum=intensity_sum, bit_count=bit_count)
    grids = _grids(key)  # orbits first: a degenerate key is refused before any scrambling
    sched = _schedule(_bare(key))
    stack = decompose(images)
    stack = scramble_images_planes(stack, sched)
    stack = scramble_positions(stack, sched)
    stack = diffuse(stack, grids)
    return recompose_all(stack), key


def decrypt(cipher: MultiImage, key: SecretKey) -> tuple[MultiImage, int]:
    """Invert the pipeline; returns (images, stray_padding_bits).

    stray_padding_bits counts set bits left in padding slots after
    inversion.  Zero means clean recovery; anything else signals a wrong
    key or corrupted ciphertext, but the recovered images are still
    returned for inspection.
    """
    s = 1 << key.k
    if cipher.n != key.n or cipher.m_prime != s or cipher.bit_depth != s:
        raise ValueError("ciphertext geometry does not match the key")
    grids = _grids(key)
    stack = diffuse(decompose(cipher), grids)
    sched = _schedule(_bare(key))
    stack = inverse_scramble_positions(stack, sched)
    stack = inverse_scramble_images_planes(stack, sched)
    stack = dataclasses.replace(stack, m_prime=key.m_prime, bit_depth=key.bit_depth)
    return recompose(stack), stack.padding_bit_count()
