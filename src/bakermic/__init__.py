"""Multi-image encryption built on baker-map scrambling and chaotic diffusion.

The pipeline pads a set of equally sized grayscale images into one bit-plane
stack (itself an image set: 2**k images of 2**k-bit pixels), scrambles it
with discrete baker maps realised as reversible SWAP/controlled-SWAP
circuits, and diffuses the result with a keystream derived from coupled
Chebyshev and Henon-sine dynamics; the stack that comes out is the ciphertext.
"""

__version__ = "0.1.0"

from .brqmi import MultiImage, decompose, recompose
from .baker import BakerPartition, count_partitions, unrank
from .cipher import SecretKey, decrypt, encrypt

__all__ = [
    "MultiImage",
    "decompose",
    "recompose",
    "BakerPartition",
    "count_partitions",
    "unrank",
    "SecretKey",
    "encrypt",
    "decrypt",
]
