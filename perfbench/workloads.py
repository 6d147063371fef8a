"""Inputs, operations and output checks of the benchmark workloads.

Every operation goes through ``bakermic.cli.main`` in-process, exactly as a
command line would, with stdout and stderr captured.  Inputs are made from
the benchmark seed alone: smooth synthetic images written as PGM files and
key files drawn with ``keygen --seed``.  Checks compare the program's outputs
with properties or with values this file computes itself, never with stored
outputs.

Run as a script, this module builds the input pool of one workload; the
benchmark times that child process as its set-up:

    python3 perfbench/workloads.py <workload> <seed> <pool-dir>
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The README's remedy for a degenerate key: draw the next key and try again.
DEGENERATE = re.compile(r"orbit produced fewer than \d+ distinct values")
MAX_KEYS_PER_OP = 8


class OpFailed(Exception):
    """The program refused, warned, or produced output that fails a check."""


def load_program():
    """Import bakermic from the checkout's src/ and return its cli module."""
    if not (SRC / "bakermic" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import bakermic.cli

    if Path(bakermic.__file__).resolve().parent != SRC / "bakermic":
        raise SystemExit(f"perfbench: imported bakermic from {bakermic.__file__}, not {SRC}")
    return bakermic.cli


def call(cli, argv) -> tuple[int, str, str]:
    """Run one command line in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Images and PGM files


def natural_pixels(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth 8-bit images: sums of sine products and Gaussian bumps."""
    side = 1 << n
    coords = np.arange(side) / side
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    images = []
    for _ in range(count):
        img = np.zeros((side, side))
        for _ in range(4):
            fx, fy = rng.uniform(0.5, 3.0, size=2)
            px, py = rng.uniform(0, 2 * np.pi, size=2)
            img += rng.uniform(0.3, 1.0) * np.sin(2 * np.pi * fx * xx + px) * np.sin(
                2 * np.pi * fy * yy + py
            )
        for _ in range(3):
            cx, cy = rng.uniform(0, 1, size=2)
            width = rng.uniform(0.05, 0.3)
            img += rng.uniform(0.5, 1.5) * np.exp(
                -(((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * width * width))
            )
        img -= img.min()
        img /= img.max()
        images.append(np.round(img * 255).astype(np.uint8))
    return np.stack(images)


def write_pgm(path: Path, pixels: np.ndarray) -> None:
    """8-bit binary PGM with the canonical header 'P5\\n<w> <h>\\n255\\n'."""
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode() + pixels.astype(np.uint8).tobytes())


def read_pgm(path: Path) -> tuple[np.ndarray, int]:
    """Read a binary PGM with a comment-free three-line header."""
    magic, size, maxval, payload = path.read_bytes().split(b"\n", 3)
    if magic != b"P5":
        raise OpFailed(f"{path.name}: not a binary PGM")
    w, h = (int(v) for v in size.split())
    maxval = int(maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    if len(payload) != w * h * dtype.itemsize:
        raise OpFailed(f"{path.name}: {len(payload)} payload bytes for {w}x{h}")
    return np.frombuffer(payload, dtype=dtype).reshape(h, w), maxval


def manifest_files(manifest: Path) -> list[Path]:
    lines = manifest.read_text(encoding="utf-8").splitlines()
    return [manifest.parent / s.strip() for s in lines if s.strip() and not s.startswith("#")]


def key_field(path: Path, name: str) -> int:
    for line in path.read_text(encoding="utf-8").splitlines():
        field, _, value = line.partition("=")
        if field.strip() == name:
            return int(value)
    raise OpFailed(f"{path.name}: no field {name}")


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One kind of operation over a pool of fresh inputs made from a seed.

    Input set i belongs to operation i and is never reused.  ``pool_ops``
    sets are built at set-up; later ones are built between operations.
    """

    name = ""
    pool_ops = 0

    def __init__(self, pool: Path, seed: int, cli):
        self.pool = pool
        self.seed = seed
        self.cli = cli
        self.redraws = 0

    def build(self, i: int) -> None:
        """Make the inputs of operation i (idempotent)."""

    def run_op(self, i: int, out: Path) -> dict:
        """Do operation i, writing into out; returns what the checks need."""
        raise NotImplementedError

    def check(self, i: int, out: Path, ctx: dict, full: bool) -> None:
        """Raise OpFailed if the outputs of operation i are wrong."""

    def run(self, argv) -> tuple[int, str, str]:
        return call(self.cli, argv)


class CipherWorkload(Workload):
    """Shared machinery of the two cipher workloads: image sets and keys."""

    n = 0
    images = 0
    key_reserve = 8

    def __init__(self, pool: Path, seed: int, cli):
        super().__init__(pool, seed, cli)
        self.next_key_index = 0

    def plain_dir(self, i: int) -> Path:
        return self.pool / f"plain_{i:05d}"

    def key_path(self, j: int) -> Path:
        return self.pool / f"key_{j:05d}.key"

    def build(self, i: int) -> None:
        manifest = self.plain_dir(i) / "plain.manifest"
        if not manifest.exists():
            manifest.parent.mkdir()
            pixels = natural_pixels(self.n, self.images, np.random.default_rng([self.seed, 1, i]))
            names = [f"plain_{m:02d}.pgm" for m in range(self.images)]
            for name, img in zip(names, pixels):
                write_pgm(manifest.parent / name, img)
            manifest.write_text("\n".join(names) + "\n", encoding="utf-8")
        # keys run ahead of the image sets, so a degenerate key has a spare
        for j in range(i, i + self.key_reserve):
            self.make_key(j)

    def make_key(self, j: int) -> Path:
        path = self.key_path(j)
        if not path.exists():
            code, _, err = self.run(
                ["keygen", "--key", path, "--n", self.n, "--images", self.images,
                 "--seed", self.seed * 1_000_003 + j]
            )
            if code:
                raise OpFailed(f"keygen exit {code}: {err.strip()}")
        return path

    def with_fresh_key(self, argv_for) -> Path:
        """Run a keyed command, taking the next pool key after each degenerate refusal."""
        for _ in range(MAX_KEYS_PER_OP):
            key = self.make_key(self.next_key_index)
            self.next_key_index += 1
            code, _, err = self.run(argv_for(key))
            if code == 2 and DEGENERATE.search(err):
                self.redraws += 1
                continue
            if code or err:
                raise OpFailed(f"{argv_for(key)[0]} exit {code}: {err.strip()}")
            return key
        raise OpFailed(f"{MAX_KEYS_PER_OP} keys in a row were degenerate")

    def plain_pixels(self, i: int) -> np.ndarray:
        return np.stack([read_pgm(p)[0] for p in manifest_files(self.plain_dir(i) / "plain.manifest")])


class OneShot(CipherWorkload):
    """encrypt then decrypt of a fresh image set under a fresh key."""

    name = "oneshot-n8"
    n = 8
    images = 3
    pool_ops = 4

    def run_op(self, i: int, out: Path) -> dict:
        plain = self.plain_dir(i) / "plain.manifest"
        key = self.with_fresh_key(
            lambda key: ["encrypt", "--in", plain, "--key", key, "--out", out / "cipher.manifest"]
        )
        code, _, err = self.run(
            ["decrypt", "--in", out / "cipher.manifest", "--key", key, "--out", out / "back.manifest"]
        )
        if code or err:  # a stray-bit warning arrives on stderr with exit 0
            raise OpFailed(f"decrypt exit {code}: {err.strip()}")
        return {"key": key}

    def check(self, i: int, out: Path, ctx: dict, full: bool) -> None:
        plain = manifest_files(self.plain_dir(i) / "plain.manifest")
        back = manifest_files(out / "back.manifest")
        if len(back) != len(plain):
            raise OpFailed(f"decrypt wrote {len(back)} images, expected {len(plain)}")
        for p, b in zip(plain, back):
            if p.read_bytes() != b.read_bytes():
                raise OpFailed(f"{b.name} differs from {p.name}")
        k = max(self.images - 1, 8 - 1).bit_length()
        cipher = manifest_files(out / "cipher.manifest")
        if len(cipher) != 1 << k:
            raise OpFailed(f"ciphertext has {len(cipher)} images, expected {1 << k}")
        for c in cipher:
            pixels, maxval = read_pgm(c)
            if maxval != (1 << (1 << k)) - 1 or pixels.shape != (1 << self.n, 1 << self.n):
                raise OpFailed(f"{c.name}: maxval {maxval}, shape {pixels.shape}")
        pix = self.plain_pixels(i)
        want = {
            "intensity_sum": int(pix.sum(dtype=np.uint64)),
            "bit_count": int(np.bitwise_count(pix).sum(dtype=np.uint64)),
        }
        for field, value in want.items():
            got = key_field(ctx["key"], field)
            if got != value:
                raise OpFailed(f"key {field} = {got}, plaintext gives {value}")


class Battery(CipherWorkload):
    """analyze --key --block --density on a fresh image set under a fresh key."""

    name = "battery-k4"
    n = 7
    images = 16
    pool_ops = 4

    def run_op(self, i: int, out: Path) -> dict:
        side = 1 << self.n
        block = f"0,0,{side // 4},{side // 4}"
        key = self.with_fresh_key(
            lambda key: ["analyze", "--in", self.plain_dir(i) / "plain.manifest", "--key", key,
                         "--block", block, "--density", "0.05", "--out", out / "report.txt"]
        )
        return {"key": key}

    def check(self, i: int, out: Path, ctx: dict, full: bool) -> None:
        lines = (out / "report.txt").read_text().splitlines()
        report = {name: value for name, _, value in (line.partition(" = ") for line in lines)}
        for field in ("npcr", "uaci", "bit_diff", "psnr[occlusion]", "psnr[noise_0.05]"):
            if field not in report:
                raise OpFailed(f"report has no {field} line")
        if not full:
            return
        from bakermic import cipher
        from bakermic.brqmi import MultiImage

        pixels = self.plain_pixels(i)
        flipped = pixels.copy()
        flipped[0, 0, 0] ^= 1
        key = cipher.read_key(ctx["key"])
        a = cipher.encrypt(MultiImage(n=self.n, bit_depth=8, pixels=pixels), key)[0]
        b = cipher.encrypt(MultiImage(n=self.n, bit_depth=8, pixels=flipped), key)[0]
        a, b, depth = a.pixels.astype(np.int64), b.pixels.astype(np.int64), a.bit_depth
        diff_bits = np.bitwise_count(a ^ b).sum()
        want = {
            "npcr": 100.0 * np.count_nonzero(a != b) / a.size,
            "uaci": 100.0 * np.abs(a - b).sum() / (a.size * ((1 << depth) - 1)),
            "bit_diff": 100.0 * diff_bits / (a.size * depth),
        }
        for field, value in want.items():
            got = float(report[field].rstrip("%"))
            if abs(got - value) > 1e-4:
                raise OpFailed(f"reported {field} {got}, recomputed {value:.6f}")
        if want["npcr"] < 99.0 or not 45.0 <= want["bit_diff"] <= 55.0:
            raise OpFailed(f"npcr {want['npcr']:.4f}%, bit difference {want['bit_diff']:.4f}%")


class Circuits(Workload):
    """circuit synth then circuit verify for a partition drawn from the pool."""

    name = "circuits-n9"
    n = 9
    pool_ops = 16

    def partition_path(self, i: int) -> Path:
        return self.pool / f"partition_{i:05d}.txt"

    def build(self, i: int) -> None:
        path = self.partition_path(i)
        if not path.exists():
            from bakermic import baker

            rank = random.Random(self.seed * 1_000_003 + i).randrange(baker.count_partitions(self.n))
            path.write_text(str(baker.unrank(self.n, rank)), encoding="utf-8")

    def run_op(self, i: int, out: Path) -> dict:
        part = self.partition_path(i).read_text(encoding="utf-8")
        gates = out / "circuit.gates"
        code, _, err = self.run(["circuit", "synth", part, "--out", gates])
        if code or err:
            raise OpFailed(f"circuit synth exit {code}: {err.strip()}")
        code, text, err = self.run(["circuit", "verify", "--in", gates, part])
        if code or err or not text.startswith("PASS"):
            raise OpFailed(f"circuit verify exit {code}: {(text + err).strip()}")
        return {"partition": part, "gates": gates}

    def check(self, i: int, out: Path, ctx: dict, full: bool) -> None:
        if not full:
            return
        lines = ctx["gates"].read_text(encoding="utf-8").splitlines()
        widths = [int(w) for w in ctx["partition"].split(",")]
        if not np.array_equal(simulate_gates(self.n, lines), shuffle_form(self.n, widths)):
            raise OpFailed("simulated circuit differs from the partition's bit shuffle")
        gate_lines = [k for k, line in enumerate(lines) if line and not line.startswith("#")]
        if gate_lines:
            dropped = out / "dropped.gates"
            del lines[gate_lines[len(gate_lines) // 2]]
            dropped.write_text("\n".join(lines) + "\n", encoding="utf-8")
            code, text, _ = self.run(["circuit", "verify", "--in", dropped, ctx["partition"]])
            if code != 3 or not text.startswith("FAIL"):
                raise OpFailed(f"circuit with a gate dropped: exit {code}, {text.strip()}")


def shuffle_form(n: int, widths: list[int]) -> np.ndarray:
    """Whole-lattice baker map as per-block bit shuffles, over flat x * 2**n + y.

    A point in the block of width w = 2**q starting at x0 goes to
    x' = (x mod w) * 2**(n-q) + (y mod 2**(n-q)) and y' = x0 + y // 2**(n-q).
    """
    idx = np.arange(1 << (2 * n), dtype=np.int64)
    xs, ys = idx >> n, idx & ((1 << n) - 1)
    out = np.full(idx.shape, -1, dtype=np.int64)
    start = 0
    for w in widths:
        low = n - (w.bit_length() - 1)
        sel = (xs >= start) & (xs < start + w)
        xp = ((xs[sel] & (w - 1)) << low) | (ys[sel] & ((1 << low) - 1))
        yp = start + (ys[sel] >> low)
        out[sel] = (xp << n) | yp
        start += w
    return out


def simulate_gates(n: int, lines: list[str]) -> np.ndarray:
    """Basis-state permutation of a gate list in the text form, over 2n wires.

    Wire j < n is bit j of y ('yj'); wire n + j is bit j of x ('xj').  A
    CSWAP fires where every '+w' control bit is 1 and every '-w' one is 0.
    """

    def wire(name: str) -> int:
        return int(name[1:]) + (n if name[0] == "x" else 0)

    v = np.arange(1 << (2 * n), dtype=np.int64)
    for line in lines:
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        fire = np.ones(v.shape, dtype=bool)
        if tokens[0] == "CSWAP":
            for ctl in tokens[1].strip("[]").split(","):
                fire &= ((v >> wire(ctl[1:])) & 1) == (ctl[0] == "+")
        a, b = wire(tokens[-2]), wire(tokens[-1])
        fire &= ((v >> a) & 1) != ((v >> b) & 1)
        v = np.where(fire, v ^ ((1 << a) | (1 << b)), v)
    return v


WORKLOADS = {w.name: w for w in (OneShot, Battery, Circuits)}


def build_pool(workload: Workload) -> None:
    for i in range(workload.pool_ops):
        workload.build(i)


if __name__ == "__main__":
    name, seed, pool_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    shutil.rmtree(pool_dir, ignore_errors=True)
    pool_dir.mkdir(parents=True)
    build_pool(WORKLOADS[name](pool_dir, seed, load_program()))
