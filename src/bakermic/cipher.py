"""Key handling, key schedule, the two scrambling stages, and diffusion.

Encryption pads the image set into the bit-plane stack (brqmi.decompose: 2**k
images of 2**k-bit pixels), scrambles the (image, plane) fibre of every pixel
with a keyed baker map, scrambles the pixel lattice of every slice with a
second keyed baker map, and XORs a chaotic keystream over every bit site;
the stack that comes out is the ciphertext.  Each stage is exactly invertible given
the key file, which carries the chaotic parameters, the schedule generator
seeds, and the exact plaintext statistics the keystream was seeded from.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import baker, brqmi
from .brqmi import MultiImage, decompose, recompose, stack_exponent, write_atomic
from .chaos import (
    BURN_IN,
    DegenerateKeyError,
    HenonSineParams,
    derive_seed,
    distinct_sequence,
    henon_walk,
    keystream_grid,
    rank_perms,
    seed_from_sums,
)

KEY_VERSION = 1


@dataclass(frozen=True)
class ImageParams(HenonSineParams):
    """Per-image chaotic parameters: the orbit's lambda pair plus the 10**q scale."""

    q: int


@dataclass(frozen=True)
class ScheduleParams(HenonSineParams):
    """Generator parameters of one schedule stage: the orbit's lambda pair and seed."""

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
                p.validate()
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


@dataclass(frozen=True, eq=False)
class KeySchedule:
    """Per-site baker selections for both scrambling stages.

    Sites go in row-major order.  stage1 is _draws' read-only (partition rank,
    rounds) array, one entry per pixel (2 bytes each at k=3: 512 KB at n=9),
    with partitions on the 2**k (image, plane) lattice.  stage2 is a tuple of one
    pair of Python ints per (image, plane) slot, on the 2**n pixel lattice.

    stage1_tables holds every stage-1 forward table, built on first use and
    kept, read-only.  stage2_table powers one slot's forward table into the
    caller's pool from the cached, read-only stage2_layout, so no pass repeats
    a slot's partition work.  The schedule is frozen, so both caches hold.
    """

    n: int
    k: int
    stage1: np.ndarray
    stage2: tuple[tuple[int, int], ...]

    @functools.cached_property
    def stage1_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, tables): pixel p moves its fibre by tables[codes[p]].

        One table per distinct selection (rank, rounds): the base table of
        each distinct rank is built once, and each row is that base powered
        on its own.  Built on first use and kept, read-only, for every later
        stage-1 pass under this schedule.  Both arrays use the narrowest
        unsigned type that holds their values.
        """
        rank, rounds = self.stage1["rank"], self.stage1["rounds"]
        span = int(rounds.max()) + 1
        # rank < C(5) = 458330 (k <= 5) and span <= 2**32 + 1, so keys stay below 2**51
        keys, codes = np.unique(rank.astype(np.int64) * span + rounds.astype(np.int64), return_inverse=True)
        sels = [divmod(key, span) for key in keys.tolist()]
        codes = codes.astype(np.min_scalar_type(len(keys) - 1))
        bases = {r: baker.permutation_table(baker.unrank(self.k, r)) for r in dict.fromkeys(r for r, _ in sels)}
        tables = np.empty((len(sels), 1 << (2 * self.k)), np.min_scalar_type((1 << (2 * self.k)) - 1))
        for row, (r, times) in zip(tables, sels):
            row[:] = _power(bases[r], times)
        codes.flags.writeable = tables.flags.writeable = False
        return codes, tables

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

    def stage2_table(self, s: int, pool: list) -> np.ndarray:
        """Slot s's intp forward table from stage2_layout, powered in pool (see _power): valid until pool's next use."""
        low, cols = self.stage2_layout
        return _power(baker.strip_tables(self.n, low[s], cols[s]), self.stage2[s][1], pool)


_BLOCK = 1024  # draws per block: the recurrence fills one block of floats, numpy reduces it


def _draws(params: ScheduleParams, modulus: int, r_max: int, count: int):
    """Raw generator draws: a read-only array of (rank, rounds) records.

    Each draw's rank (value mod modulus) takes enough 32-bit words for 64
    guard bits beyond the modulus width, so the reduction bias is far below
    observability, and its rounds one more word (mod r_max, plus 1, so at
    most 2**32).  Each field has the narrowest dtype that holds it, object
    past 64 bits.  Only the recurrence runs in Python, in chaos.henon_walk,
    which walks a block of draws at a time.  numpy turns each block into words
    with the same IEEE operations and reduces them by Horner's rule with
    2**32 % modulus, in int64 when no intermediate can overflow it (modulus
    below 2**31) and on Python ints otherwise.
    """
    r_max = min(r_max, 1 << 32)  # every word is below 2**32, so a larger cap gives the same rounds
    words = (modulus.bit_length() + 64 + 31) // 32
    stride = words + 1
    mult = (1 << 32) % modulus
    dtype = np.int64 if modulus < 1 << 31 else object
    _, state = henon_walk((params.x0, params.y0), params, BURN_IN)
    fields = [("rank", np.min_scalar_type(modulus - 1)), ("rounds", np.min_scalar_type(r_max))]
    out = np.empty(count, fields)
    for c0 in range(0, count, _BLOCK):
        xs, state = henon_walk(state, params, min(_BLOCK, count - c0) * stride)
        # scaled is >= 0, so int64 truncation is int(); x = 1.0 clamps to the top word
        scaled = (np.array(xs, np.float64) + 1.0) * 0.5 * 4294967296.0
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
    )
    return KeySchedule(n=key.n, k=key.k, stage1=stage1, stage2=tuple(stage2.tolist()))


# ---------------------------------------------------------------------------
# Scrambling stages


_CHUNK = 1 << 15  # entries per index temporary: 256 KiB of intp, so gathers stay in cache


def _power(table: np.ndarray, rounds: int, pool: list | None = None) -> np.ndarray:
    """table, a 1-D intp forward table, applied `rounds` times.

    Powering goes from the top set bit of rounds down, starting from table
    itself, so no identity is composed; each lower bit squares the power
    and, when set, composes table once more.  rounds 0 gives the identity.
    Each composition is a fresh array or, given pool (two intp arrays of
    table's size), goes into the one not holding the power, so a pass that
    shares a pool refetches no freed pages.  table is never written.
    """
    if not rounds:
        return np.arange(table.size, dtype=np.intp)

    def compose(a, b):
        return a[b] if pool is None else np.take(a, b, out=pool[b is pool[0]], mode="clip")

    out = table
    for bit in bin(rounds)[3:]:
        out = compose(out, out)
        if bit == "1":
            out = compose(table, out)
    return out


def _words(stack: MultiImage, sched: KeySchedule | None = None) -> np.ndarray:
    """The stack as (B, 2**k, 4**n) words, row [b, i] image i of stack b.

    A stack is 2**k images of 2**k-bit pixels, and B >= 1 of them may lie
    end to end in one MultiImage (B * 2**k images), which every stage moves
    under one schedule; this is the one place that counts them.  Refuses
    anything else, or a schedule for another n or k.
    """
    s, k = stack.bit_depth, stack.bit_depth.bit_length() - 1
    if s != 1 << k or stack.m_prime % s:
        raise ValueError(
            f"a stack holds 2**k images of 2**k-bit pixels (or several such stacks end to end), "
            f"not {stack.m_prime} of {s} bits"
        )
    if sched is not None and (sched.n, sched.k) != (stack.n, k):
        raise ValueError(f"the schedule is for n={sched.n}, k={sched.k}, but the stack has n={stack.n}, k={k}")
    return stack.pixels.reshape(-1, s, 1 << (2 * stack.n))


def _permute(stack: MultiImage, sched: KeySchedule, inverse: bool) -> MultiImage:
    """Stage 1's kernel: permute each pixel's (image, plane) fibre, pixels in chunks.

    Slot (i, l) of pixel p's fibre in stack b is plane l of _words[b, i, p].
    Pixels go in chunks of about _CHUNK index entries, and at least one
    pixel; the chunk's rows of stage1_tables become one flat, C-ordered intp
    index, built once per chunk and used for every stack, so numpy takes its
    fast 1-D path.  Each stack's chunk is unpacked by brqmi's codec
    (_split_planes, then _join_planes) into a (slot, pixel) block.  Forward
    scatters with a pixel's table (moved[t[i]] = fibre[i]), the inverse
    gathers (moved[i] = fibre[t[i]]).
    """
    words = _words(stack, sched)
    out = np.empty_like(words)
    _, s, pixels = words.shape
    codes, tables = sched.stage1_tables
    step = max(1, _CHUNK // s**2)
    for c0 in range(0, pixels, step):
        c1 = min(c0 + step, pixels)
        # without order="C" the product of the transposed rows keeps F order, and ravel copies it
        lin = np.multiply(tables[codes[c0:c1]].T, c1 - c0, dtype=np.intp, order="C")
        lin += np.arange(c1 - c0)
        lin = lin.ravel()
        for src, dst in zip(words, out):  # one stack at a time
            fibres = brqmi._split_planes(src[:, c0:c1], s)
            if inverse:
                moved = fibres.ravel()[lin].reshape(fibres.shape)
            else:
                moved = np.empty_like(fibres)
                moved.ravel()[lin] = fibres.ravel()
            brqmi._join_planes(moved, dst[:, c0:c1])
    return dataclasses.replace(stack, pixels=out.reshape(stack.pixels.shape))


def _permute_slices(stack: MultiImage, sched: KeySchedule, inverse: bool) -> MultiImage:
    """Stage 2's kernel: permute each (image, plane) slice's pixels, one slot at a time.

    Slice (i, l) of stack b, bit l of _words[b, i] (brqmi's plane order),
    moves by sched.stage2_table(i * 2**k + l), built once per slot for
    every stack: forward scatters row i (moved[t[p]] = row[p]), the inverse
    gathers it (moved[p] = row[t[p]]), and moved, masked to bit l, is ORed
    into row i of the output.
    """
    words = _words(stack, sched)
    s = words.shape[1]
    out = np.zeros_like(words)
    moved = np.empty_like(words[0, 0])
    pool = [np.empty(words.shape[2], np.intp) for _ in range(2)]
    for i, l in np.ndindex(s, s):
        bit = words.dtype.type(1 << l)
        table = sched.stage2_table(i * s + l, pool)
        for src, dst in zip(words, out):  # one stack at a time
            if inverse:
                np.take(src[i], table, out=moved, mode="clip")
            else:
                moved[table] = src[i]
            moved &= bit
            dst[i] |= moved
    return dataclasses.replace(stack, pixels=out.reshape(stack.pixels.shape))


def scramble_images_planes(stack: MultiImage, sched: KeySchedule) -> MultiImage:
    """Stage 1: permute each pixel's (image, plane) fibre with its own map.

    A rounds value of 0 leaves the fibre untouched (test hook).
    """
    return _permute(stack, sched, inverse=False)


def inverse_scramble_images_planes(stack: MultiImage, sched: KeySchedule) -> MultiImage:
    return _permute(stack, sched, inverse=True)


def scramble_positions(stack: MultiImage, sched: KeySchedule) -> MultiImage:
    """Stage 2: permute the pixel lattice of each (image, plane) slice."""
    return _permute_slices(stack, sched, inverse=False)


def inverse_scramble_positions(stack: MultiImage, sched: KeySchedule) -> MultiImage:
    return _permute_slices(stack, sched, inverse=True)


# ---------------------------------------------------------------------------
# Diffusion


def diffuse(stack: MultiImage, grids: tuple[np.ndarray, ...]) -> MultiImage:
    """XOR the keystream grids over every bit site of the stack; self-inverse by construction.

    grids holds one keystream grid per source image, as _grids(key) returns
    them, in the stack's pixel dtype.  Bit l of the keystream integer at
    (image, x, y) is the keystream bit of site (image, plane l, x, y), in
    brqmi's plane order, so XORing image m with its grid XORs each of the
    4**(n+k) sites exactly once.  Padded image m takes grids[m % len(grids)],
    so all 2**k images get live keystream; stacks laid end to end (see
    _words) each take the same grids.
    """
    words = _words(stack)
    keystream = np.stack([grids[m % len(grids)].ravel() for m in range(words.shape[1])])
    return dataclasses.replace(stack, pixels=(words ^ keystream).reshape(stack.pixels.shape))


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
# slot's strip layout, but no stage-2 table: all of them would take 8 MB
# even in uint16 at n=8 with 3 images, and 67 MB at n=9.  Passes that run
# together share a table without keeping it: encrypt_all and decrypt_all
# move every set through one pass of each stage, which builds each stage-1
# chunk index and each stage-2 table once for all of them.  So analyze's
# twin encrypts share one pass of each stage and its two probe decrypts
# another: 2 * 4**k stage-2 table builds per analyze, not 4 * 4**k.
# Threads may share both caches: lru_cache keeps its entries consistent, but
# threads that miss together each derive the material.


@functools.lru_cache(maxsize=1)
def _schedule(key: SecretKey) -> KeySchedule:
    return derive_schedule(key)


@functools.lru_cache(maxsize=2)  # analyze alternates P and flipped P
def _grids(key: SecretKey) -> tuple[np.ndarray, ...]:
    """Keystream grid of each source image 0..M'-1, in that order, under a seeded key.

    Every image's orbit starts at the seed that seed_from_sums makes from
    the key's plaintext sums; a key without them is refused, and an orbit
    that degenerates is refused with its image named.
    """
    if key.intensity_sum is None:
        raise ValueError("key carries no plaintext statistics; encrypt first")
    seed = seed_from_sums(key.intensity_sum, key.bit_count, key.m_prime, key.bit_depth, key.n)
    grids = []
    for m, ip in enumerate(key.image_params):
        try:
            xs, ys = distinct_sequence(seed, ip, count=1 << key.n)
        except DegenerateKeyError as exc:
            raise DegenerateKeyError(exc.count, exc.found, exc.iterations, exc.cycled, image=m) from None
        grids.append(keystream_grid(rank_perms(xs, ys), ip.q, key.k))
    return tuple(grids)


def _join(stacks: Sequence[MultiImage]) -> MultiImage:
    """stacks laid end to end in one MultiImage (see _words); a single stack is returned as it is, uncopied."""
    if len(stacks) == 1:
        return stacks[0]
    return dataclasses.replace(stacks[0], pixels=np.concatenate([stack.pixels for stack in stacks]))


def _split(stack: MultiImage, count: int) -> list[MultiImage]:
    """The count stacks laid end to end in stack, each a view of its pixels."""
    return [dataclasses.replace(stack, pixels=part) for part in np.split(stack.pixels, count)]


def encrypt_all(sets: Sequence[MultiImage], key: SecretKey) -> list[tuple[MultiImage, SecretKey]]:
    """Encrypt image sets under one key, all of them in one pass of each stage.

    Returns, for each set in turn, what encrypt(images, key) returns for it,
    byte for byte.  Each set is diffused with the grids seeded from its own
    sums, but each stage-1 chunk index and each stage-2 table is built once
    for all of them.  Every set's orbits are walked before any scrambling,
    so a key that degenerates for any of the sets is refused first.
    """
    if not sets:
        return []
    keys = []
    for images in sets:
        if images.n != key.n or images.m_prime != key.m_prime or images.bit_depth != key.bit_depth:
            raise ValueError("key geometry does not match the image set")
        intensity_sum, bit_count = derive_seed(images)
        keys.append(dataclasses.replace(key, intensity_sum=intensity_sum, bit_count=bit_count))
    grids = [_grids(seeded) for seeded in keys]  # orbits first: a degenerate key is refused before any scrambling
    sched = _schedule(_bare(key))
    # nested calls: no name holds a finished stage's stack while the next stage runs
    stack = scramble_positions(scramble_images_planes(_join([decompose(images) for images in sets]), sched), sched)
    return [(diffuse(part, g), seeded) for part, g, seeded in zip(_split(stack, len(sets)), grids, keys)]


def decrypt_all(ciphertexts: Sequence[MultiImage], key: SecretKey) -> list[tuple[MultiImage, int]]:
    """Decrypt ciphertexts under one seeded key, all of them in one pass of each stage.

    Returns, for each ciphertext in turn, what decrypt(cipher, key) returns
    for it, byte for byte, with each stage-1 chunk index and each stage-2
    table built once for all of them.
    """
    if not ciphertexts:
        return []
    for cipher in ciphertexts:
        if (cipher.n, cipher.m_prime, cipher.bit_depth) != (key.n, 1 << key.k, 1 << key.k):
            raise ValueError("ciphertext geometry does not match the key")
    grids = _grids(key)
    sched = _schedule(_bare(key))
    stack = inverse_scramble_images_planes(inverse_scramble_positions(diffuse(_join(ciphertexts), grids), sched), sched)
    return [recompose(part, key.m_prime, key.bit_depth) for part in _split(stack, len(ciphertexts))]


def encrypt(images: MultiImage, key: SecretKey) -> tuple[MultiImage, SecretKey]:
    """Encrypt an image set: encrypt_all of the one set.

    Returns the ciphertext (2**k images of 2**k-bit pixels) and the key
    updated with the exact plaintext statistics; the updated key must be
    stored, since decryption reseeds the keystream from it.  A key whose
    orbits degenerate for this plaintext is refused before any scrambling.
    """
    return encrypt_all([images], key)[0]


def decrypt(cipher: MultiImage, key: SecretKey) -> tuple[MultiImage, int]:
    """Invert the pipeline (decrypt_all of the one ciphertext); returns (images, stray_padding_bits).

    stray_padding_bits counts set bits left in padding slots after
    inversion.  Zero means clean recovery; anything else signals a wrong
    key or corrupted ciphertext, but the recovered images are still
    returned for inspection.
    """
    return decrypt_all([cipher], key)[0]
