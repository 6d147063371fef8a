"""Command-line interface.

One binary with subcommands for key generation, encryption, decryption,
statistical analysis, partition queries, circuit synthesis/verification,
and CSV emitters for the chaotic building blocks.

Exit codes: 0 success, 1 usage error, 2 data or format error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import random
import re
import sys

import numpy as np

from . import analysis, baker, chaos, qcircuit
from .brqmi import PGM_MAX_DEPTH, MultiImage, load_multi, save_multi, stack_exponent, write_atomic
from .chaos import DegenerateKeyError
from .cipher import decrypt, encrypt, encrypt_all, make_key, read_key, write_key


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _integer(text: str) -> int:
    """ASCII digits, an optional leading '-' and surrounding whitespace; int() also takes '+', '_' and other digits."""
    if not re.fullmatch(r"\s*-?[0-9]+\s*", text):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        write_atomic(path, text.encode("utf-8"))


def _check_savable(k: int) -> None:
    """Refuse a geometry whose 2**k-bit ciphertext pixels PGM cannot hold."""
    if 1 << k > PGM_MAX_DEPTH:
        raise ValueError(
            f"ciphertext would need {1 << k}-bit pixels, but PGM output holds at most "
            f"{PGM_MAX_DEPTH}; use at most {PGM_MAX_DEPTH} images of at most "
            f"{PGM_MAX_DEPTH} bits"
        )


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_keygen(args) -> int:
    # random.Random seeds from the absolute value of an int, so -5 would draw the key of 5
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    _check_savable(stack_exponent(args.images, args.depth))
    rng = random.Random(args.seed) if args.seed is not None else random.SystemRandom()
    key = make_key(
        n=args.n,
        m_prime=args.images,
        bit_depth=args.depth,
        rng=rng,
        q=args.qm,
        r_max1=args.rmax1,
        r_max2=args.rmax2,
        lambda1=args.lambda1,
        lambda2=args.lambda2,
    )
    write_key(key, args.key)
    print(f"wrote key for {args.images} images of side {1 << args.n} to {args.key}")
    return 0


def cmd_encrypt(args) -> int:
    key = read_key(args.key)
    _check_savable(key.k)
    images = load_multi(args.inp)
    # the key file holds the only copy of the sums its earlier ciphertext needs
    if key.intensity_sum is not None and (key.intensity_sum, key.bit_count) != chaos.derive_seed(images):
        raise ValueError(
            f"{args.key} already carries the plaintext sums of another image set, and "
            "overwriting them would leave its ciphertext undecryptable; encrypt with a "
            "copy of the key made before its first encrypt, or draw a new key"
        )
    cipher, updated = encrypt(images, key)
    save_multi(cipher, args.out)
    write_key(updated, args.key)
    print(
        f"encrypted {images.m_prime} images into {cipher.m_prime} ciphertext "
        f"images; key file updated with plaintext statistics"
    )
    return 0


def cmd_decrypt(args) -> int:
    key = read_key(args.key)
    cipher = load_multi(args.inp)
    images, stray = decrypt(cipher, key)
    if stray:
        print(
            f"warning: {stray} set bits left in padding slots; "
            "wrong key or corrupted ciphertext",
            file=sys.stderr,
        )
    if chaos.derive_seed(images) != (key.intensity_sum, key.bit_count):
        print(
            "warning: the recovered images do not have the plaintext sums the key "
            "carries; wrong key or corrupted ciphertext",
            file=sys.stderr,
        )
    save_multi(images, args.out)
    print(f"recovered {images.m_prime} images to {args.out}")
    return 0


def _flip_one_bit(images: MultiImage) -> MultiImage:
    pixels = images.pixels.copy()
    pixels[0, 0, 0] ^= 1
    return MultiImage(n=images.n, bit_depth=images.bit_depth, pixels=pixels)


def _set_metrics(report: analysis.MetricsReport, images: MultiImage, seed: int) -> None:
    report.chi2 = [
        analysis.histogram_chi2(images.pixels[m], images.bit_depth)
        for m in range(images.m_prime)
    ]
    report.correlations = {
        direction: [
            analysis.adjacent_correlation(images.pixels[m], direction, seed=seed + m)
            for m in range(images.m_prime)
        ]
        for direction in analysis.DIRECTIONS
    }


def cmd_analyze(args) -> int:
    # every refusal that needs no input file comes before any is read
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    if args.inp2 is not None:
        unused = [flag for flag in ("key", "block", "density") if getattr(args, flag) is not None]
        if unused:
            raise UsageError(f"pair mode (--in2) takes no {', '.join('--' + f for f in unused)}")
    elif args.key is None:
        raise UsageError("analyze needs --in2 for pair mode or --key for full mode")
    block = None
    if args.block is not None:
        try:
            block = tuple(map(_integer, args.block.split(",")))
        except argparse.ArgumentTypeError:
            block = ()
        if len(block) != 4:
            raise UsageError(f"--block wants x,y,width,height as integers, got {args.block!r}")
    if args.density is not None:
        analysis.check_density(args.density)
    report = analysis.MetricsReport()
    if args.inp2 is not None:
        a = load_multi(args.inp)
        b = load_multi(args.inp2)
        if a.pixels.shape != b.pixels.shape or a.bit_depth != b.bit_depth:
            raise ValueError("the two image sets must share shape and depth")
    else:
        key = read_key(args.key)
        plain = load_multi(args.inp)
        if block is not None:
            analysis.check_block(block, plain.side)
        # the twins share one pass of each stage, and so do the probes below
        (a, key1), (b, _) = encrypt_all([plain, _flip_one_bit(plain)], key)
    _set_metrics(report, a, args.seed)
    report.npcr, report.uaci = analysis.npcr_uaci(a.pixels, b.pixels, a.bit_depth)
    report.bit_diff = analysis.bit_difference_rate(a.pixels, b.pixels, a.bit_depth)
    probes = {}
    if block is not None:
        probes["occlusion"] = analysis.occlude(a, block)
    if args.density is not None:
        probes[f"noise_{args.density:g}"] = analysis.add_salt_pepper(a, args.density, seed=args.seed)
    if probes:
        for label, series in zip(probes, analysis.recovery_psnr(list(probes.values()), key1, plain)):
            report.psnr_series[label] = list(series)
    _write_text(args.out, report.render())
    return 0


# C(n) doubles its digit count with each step of n: C(15) has about 5,800
# digits, past Python's int-to-text limit, and C(40) would not fit in memory.
_PARTITIONS_MAX_N = 14


def cmd_partitions(args) -> int:
    if args.action in ("count", "unrank") and args.n > _PARTITIONS_MAX_N:
        raise ValueError(
            f"n = {args.n} is too large: count and unrank handle n <= {_PARTITIONS_MAX_N} "
            f"(C(15) already has about 5,800 digits)"
        )
    if args.action == "count":
        print(baker.count_partitions(args.n))
    elif args.action == "unrank":
        if not re.fullmatch(r"\s*[0-9]+\s*", args.index):
            raise ValueError(f"rank must be ASCII digits, got {args.index!r}")
        print(baker.unrank(args.n, int(args.index)))
    elif args.action == "check":
        part = baker.parse_widths(args.widths)
        verdict = "admissible" if part.is_admissible() else "inadmissible"
        print(f"{part} (n={part.n}): {verdict}")
    elif args.action == "list":
        if args.n > 3:
            raise ValueError("list is capped at n = 3 (26 partitions); use unrank beyond that")
        for rank in range(baker.count_partitions(args.n)):
            print(baker.unrank(args.n, rank))
    return 0


def cmd_circuit_synth(args) -> int:
    part = baker.parse_widths(args.partition)
    circuit = qcircuit.synthesize(part)
    _write_text(args.out, qcircuit.emit_text(circuit, part))
    return 0


def cmd_circuit_verify(args) -> int:
    with open(args.inp, "r", encoding="utf-8") as fh:
        circuit = qcircuit.parse_text(fh.read())
    part = baker.parse_widths(args.partition)
    if qcircuit.verify(circuit, part):
        print(f"PASS: circuit matches {part} on all {1 << (2 * part.n)} states")
        return 0
    print(f"FAIL: circuit does not realise {part}")
    return 3


def cmd_appendix_henon(args) -> int:
    p = chaos.HenonSineParams(args.lambda1, args.lambda2)
    rows = chaos.emit_trajectory(p, (args.x0, args.y0), args.count)
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_appendix_chebyshev(args) -> int:
    xs = np.linspace(-1.0, 1.0, args.points)
    rows = chaos.emit_chebyshev_table(args.kmax, list(xs))
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bakermic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="draw a fresh key file")
    p.add_argument("--key", required=True, help="output key file")
    p.add_argument("--n", type=_integer, required=True, help="images are 2**n x 2**n")
    p.add_argument("--images", type=_integer, required=True, help="number of images M'")
    p.add_argument("--depth", type=_integer, default=8, help="bit depth L (default 8)")
    p.add_argument("--seed", type=_integer, default=None, help="deterministic draw seed")
    p.add_argument("--qm", type=_integer, default=5, help="keystream scale exponent q")
    p.add_argument("--rmax1", type=_integer, default=None, help="stage-1 round cap")
    p.add_argument("--rmax2", type=_integer, default=None, help="stage-2 round cap")
    p.add_argument("--lambda1", type=float, default=None, help="pin lambda1 for all images")
    p.add_argument("--lambda2", type=float, default=None, help="pin lambda2 for all images")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt an image set")
    p.add_argument("--in", dest="inp", required=True, help="plaintext manifest")
    p.add_argument("--key", required=True, help="key file (updated in place)")
    p.add_argument("--out", required=True, help="ciphertext manifest to write")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext set")
    p.add_argument("--in", dest="inp", required=True, help="ciphertext manifest")
    p.add_argument("--key", required=True, help="key file")
    p.add_argument("--out", required=True, help="plaintext manifest to write")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("analyze", help="statistical and robustness measurements")
    p.add_argument("--in", dest="inp", required=True, help="image set manifest")
    p.add_argument("--in2", dest="inp2", default=None, help="second set: compare directly")
    p.add_argument("--key", default=None, help="key file: run the full battery")
    p.add_argument("--out", default=None, help="report file (default stdout)")
    p.add_argument("--seed", type=_integer, default=0, help="sampler seed")
    p.add_argument("--block", default=None, help="occlusion block as x,y,width,height")
    p.add_argument("--density", type=float, default=None, help="salt-and-pepper density")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("partitions", help="admissible-partition queries")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("count", help="number of admissible partitions")
    q.add_argument("n", type=_integer)
    q.set_defaults(func=cmd_partitions)
    q = ps.add_parser("unrank", help="partition with a given rank")
    q.add_argument("n", type=_integer)
    q.add_argument("index", help="rank (arbitrary precision)")
    q.set_defaults(func=cmd_partitions)
    q = ps.add_parser("check", help="report admissibility of a width list")
    q.add_argument("widths")
    q.set_defaults(func=cmd_partitions)
    q = ps.add_parser("list", help="enumerate all admissible partitions (n <= 3)")
    q.add_argument("n", type=_integer)
    q.set_defaults(func=cmd_partitions)

    p = sub.add_parser("circuit", help="SWAP-circuit synthesis and verification")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("synth", help="synthesise a circuit for a partition")
    q.add_argument("partition", help="comma-separated widths, e.g. 4,2,2")
    q.add_argument("--out", default=None, help="gate list file (default stdout)")
    q.set_defaults(func=cmd_circuit_synth)
    q = ps.add_parser("verify", help="check a gate list against a partition")
    q.add_argument("--in", dest="inp", required=True, help="gate list file")
    q.add_argument("partition", help="comma-separated widths")
    q.set_defaults(func=cmd_circuit_verify)

    p = sub.add_parser("appendix", help="CSV emitters for the chaotic maps")
    ps = p.add_subparsers(dest="action", required=True)
    q = ps.add_parser("henon", help="orbit trajectory table")
    q.add_argument("--lambda1", type=float, required=True)
    q.add_argument("--lambda2", type=float, required=True)
    q.add_argument("--x0", type=float, default=0.1)
    q.add_argument("--y0", type=float, default=0.1)
    q.add_argument("--count", type=_integer, default=100)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_appendix_henon)
    q = ps.add_parser("chebyshev", help="polynomial value table")
    q.add_argument("--kmax", type=_integer, default=8)
    q.add_argument("--points", type=_integer, default=41)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_appendix_chebyshev)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DegenerateKeyError as exc:
        print(f"error: {exc}; draw a new key", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
