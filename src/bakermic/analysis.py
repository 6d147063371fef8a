"""Statistical and robustness measurements for cipher evaluation.

Histogram flatness, adjacent-pixel correlation, differential rates between
ciphertext pairs, and recovery quality under ciphertext occlusion or noise.
All samplers are seeded, so reported numbers are reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .brqmi import MultiImage, _popcount
from .cipher import SecretKey, decrypt_all

DIRECTIONS = {
    "horizontal": (0, 1),
    "vertical": (1, 0),
    "diagonal": (1, 1),
}


def histogram_chi2(pixels: np.ndarray, bit_depth: int) -> float:
    """Chi-square of the value histogram against the uniform expectation."""
    bins = 1 << bit_depth
    counts = np.bincount(np.asarray(pixels, dtype=np.int64).ravel(), minlength=bins)
    if counts.size > bins:
        raise ValueError("pixel value outside the declared depth")
    expected = pixels.size / bins
    return float(((counts - expected) ** 2 / expected).sum())


def adjacent_correlation(
    pixels: np.ndarray,
    direction: str,
    samples: int = 4096,
    seed: int = 0,
) -> float | None:
    """Pearson correlation of sampled adjacent pixel pairs.

    Returns None when the image has no pair in that direction or either
    marginal is constant (correlation undefined, e.g. a flat image).  The
    pair sample is drawn with a seeded generator.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    dx, dy = DIRECTIONS[direction]
    pixels = np.asarray(pixels)
    h, w = pixels.shape
    if h - dx < 1 or w - dy < 1:
        return None
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, h - dx, size=samples)
    ys = rng.integers(0, w - dy, size=samples)
    a = pixels[xs, ys].astype(np.float64)
    b = pixels[xs + dx, ys + dy].astype(np.float64)
    if a.std() == 0.0 or b.std() == 0.0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


def npcr_uaci(a: np.ndarray, b: np.ndarray, bit_depth: int) -> tuple[float, float]:
    """Pixel change rate and mean absolute intensity change, in percent."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError("arrays must have identical shape")
    npcr = 100.0 * float((a != b).mean())
    uaci = 100.0 * float((np.abs(a - b) / ((1 << bit_depth) - 1)).mean())
    return npcr, uaci


def bit_difference_rate(a: np.ndarray, b: np.ndarray, bit_depth: int) -> float:
    """Percent of differing bits among the low bit_depth bits of two equally shaped pixel arrays."""
    x = np.bitwise_xor(a, b)
    if bit_depth < 8 * x.itemsize:
        x &= (1 << bit_depth) - 1  # bits at or above bit_depth are not pixel bits
    return 100.0 * _popcount(x) / (x.size * bit_depth)


def psnr(a: np.ndarray, b: np.ndarray, bit_depth: int) -> float:
    """Peak signal-to-noise ratio in dB; infinite for identical arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mse = float(((a - b) ** 2).mean())
    if mse == 0.0:
        return math.inf
    peak = (1 << bit_depth) - 1
    return 10.0 * math.log10(peak * peak / mse)


# ---------------------------------------------------------------------------
# Robustness probes


def check_block(block: tuple[int, int, int, int], side: int) -> None:
    """Refuse a block (x, y, width, height) that leaves a side x side image."""
    x, y, w, h = block
    if not (0 <= x <= side and 0 <= y <= side and w >= 0 and h >= 0):
        raise ValueError("block out of range")
    if x + w > side or y + h > side:
        raise ValueError("block exceeds the image")


def check_density(density: float) -> None:
    """Refuse a salt-and-pepper density outside [0, 1]."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")


def occlude(images: MultiImage, block: tuple[int, int, int, int]) -> MultiImage:
    """Zero the block (x, y, width, height) in every image."""
    check_block(block, images.side)
    x, y, w, h = block
    pixels = images.pixels.copy()
    pixels[:, x : x + w, y : y + h] = 0
    return MultiImage(n=images.n, bit_depth=images.bit_depth, pixels=pixels)


def add_salt_pepper(images: MultiImage, density: float, seed: int = 0) -> MultiImage:
    """Flip a seeded random fraction of pixels to full black or white."""
    check_density(density)
    pixels = images.pixels.copy()
    if density > 0.0:
        rng = np.random.default_rng(seed)
        hits = rng.random(pixels.shape) < density
        polarity = rng.random(pixels.shape) < 0.5
        top = (1 << images.bit_depth) - 1
        pixels[hits & polarity] = top
        pixels[hits & ~polarity] = 0
    return MultiImage(n=images.n, bit_depth=images.bit_depth, pixels=pixels)


def recovery_psnr(damaged: Sequence[MultiImage], key: SecretKey, plain: MultiImage) -> list[np.ndarray]:
    """Per-image PSNR against the plaintext of each damaged ciphertext, all decrypted together by decrypt_all."""
    return [
        np.array([psnr(recovered.pixels[m], plain.pixels[m], plain.bit_depth) for m in range(plain.m_prime)])
        for recovered, _ in decrypt_all(damaged, key)
    ]


def occlusion_test(
    cipher: MultiImage,
    key: SecretKey,
    plain: MultiImage,
    block: tuple[int, int, int, int],
) -> np.ndarray:
    """Per-image PSNR of decryption after zeroing a ciphertext block."""
    return recovery_psnr([occlude(cipher, block)], key, plain)[0]


def noise_test(
    cipher: MultiImage,
    key: SecretKey,
    plain: MultiImage,
    density: float,
    seed: int = 0,
) -> np.ndarray:
    """Per-image PSNR of decryption after salt-and-pepper ciphertext noise."""
    return recovery_psnr([add_salt_pepper(cipher, density, seed=seed)], key, plain)[0]


# ---------------------------------------------------------------------------
# Report


@dataclass
class MetricsReport:
    """Collected measurements with a deterministic text rendering."""

    chi2: list[float] = field(default_factory=list)
    correlations: dict[str, list[float | None]] = field(default_factory=dict)
    npcr: float | None = None
    uaci: float | None = None
    bit_diff: float | None = None
    psnr_series: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        lines = []
        for m, value in enumerate(self.chi2):
            lines.append(f"chi2[{m}] = {value:.4f}")
        for direction in sorted(self.correlations):
            for m, value in enumerate(self.correlations[direction]):
                text = "undefined" if value is None else f"{value:+.6f}"
                lines.append(f"correlation[{direction}][{m}] = {text}")
        if self.npcr is not None:
            lines.append(f"npcr = {self.npcr:.4f}%")
        if self.uaci is not None:
            lines.append(f"uaci = {self.uaci:.4f}%")
        if self.bit_diff is not None:
            lines.append(f"bit_diff = {self.bit_diff:.4f}%")
        for label in sorted(self.psnr_series):
            series = ", ".join(
                "inf" if math.isinf(v) else f"{v:.4f}" for v in self.psnr_series[label]
            )
            lines.append(f"psnr[{label}] = {series}")
        return "\n".join(lines) + "\n"
