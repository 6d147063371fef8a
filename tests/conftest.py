import random

import numpy as np
import pytest

from bakermic import cipher
from bakermic.brqmi import MultiImage
from bakermic.cipher import make_key


def natural_pixels(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Smooth synthetic grayscale images with strong adjacent correlation."""
    side = 1 << n
    rng = np.random.default_rng(seed)
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


def natural_images(n: int, count: int, seed: int = 0) -> MultiImage:
    return MultiImage(n=n, bit_depth=8, pixels=natural_pixels(n, count, seed))


def random_images(n: int, count: int, seed: int = 0, bit_depth: int = 8) -> MultiImage:
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 1 << bit_depth, size=(count, 1 << n, 1 << n))
    return MultiImage(n=n, bit_depth=bit_depth, pixels=pixels)


@pytest.fixture(autouse=True)
def fresh_key_material():
    """Start every test with no cached key material, so counts do not depend on test order."""
    cipher._materials.cache_clear()
    yield
    cipher._materials.cache_clear()


@pytest.fixture
def announce(capfd):
    """Print a line on the real stdout, past pytest's capture."""

    def _announce(line: str) -> None:
        with capfd.disabled():
            print(line, flush=True)

    return _announce


@pytest.fixture
def small_key():
    return make_key(n=3, m_prime=3, bit_depth=8, rng=random.Random(1234))


@pytest.fixture
def small_images():
    return random_images(n=3, count=3, seed=99)
