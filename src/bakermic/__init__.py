"""Multi-image encryption built on baker-map scrambling and chaotic diffusion.

The pipeline packs a set of equally sized grayscale images into one padded
bit-plane stack (the ciphertext's words), scrambles it with discrete baker
maps realised as reversible SWAP/controlled-SWAP circuits, and diffuses the
result with a keystream derived from coupled Chebyshev and Henon-sine dynamics.
"""

__version__ = "0.1.0"

from .brqmi import BitPlaneStack, MultiImage, decompose, recompose, recompose_all
from .baker import BakerPartition, count_partitions, unrank
from .cipher import SecretKey, decrypt, encrypt

__all__ = [
    "BitPlaneStack",
    "MultiImage",
    "decompose",
    "recompose",
    "recompose_all",
    "BakerPartition",
    "count_partitions",
    "unrank",
    "SecretKey",
    "encrypt",
    "decrypt",
]
