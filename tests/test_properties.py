"""Property tests: encrypt/decrypt round trips over small geometries, rounds 0 as the identity, and
the vector Chebyshev values equal to the scalar ones."""

import random

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from bakermic.baker import count_partitions
from bakermic.brqmi import MultiImage, decompose
from bakermic.chaos import DegenerateKeyError, chebyshev, chebyshev_many
from bakermic.cipher import (
    KeySchedule,
    decrypt,
    encrypt,
    inverse_scramble_images_planes,
    inverse_scramble_positions,
    make_key,
    scramble_images_planes,
    scramble_positions,
)

from conftest import stage1_array

# Every example draws a new key, so these also cycle the per-key cache.
SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def image_sets(draw):
    """(images, key seed): n <= 4, 1..5 images, depth 1..8, seeded pixels."""
    n = draw(st.integers(0, 4))
    m_prime = draw(st.integers(1, 5))
    depth = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pixels = rng.integers(0, 1 << depth, size=(m_prime, 1 << n, 1 << n))
    return MultiImage(n=n, bit_depth=depth, pixels=pixels), draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(image_sets())
def test_round_trip(case):
    images, key_seed = case
    key = make_key(images.n, images.m_prime, images.bit_depth, random.Random(key_seed))
    try:
        ciphertext, seeded = encrypt(images, key)
    except DegenerateKeyError:
        reject()  # refused keys are covered in test_cipher
    s = 1 << key.k
    assert ciphertext.m_prime == s and ciphertext.bit_depth == s
    back, stray = decrypt(ciphertext, seeded)
    assert stray == 0
    assert back.bit_depth == images.bit_depth
    assert np.array_equal(back.pixels, images.pixels)


@SETTINGS
@given(image_sets())
def test_zero_rounds_leave_both_stages_the_identity(case):
    images, rank_seed = case
    stack = decompose(images)
    n, k = stack.n, stack.k
    rng = random.Random(rank_seed)
    sched = KeySchedule(
        n=n,
        k=k,
        stage1=stage1_array([(rng.randrange(count_partitions(k)), 0) for _ in range(1 << 2 * n)]),
        stage2=[(rng.randrange(count_partitions(n)), 0) for _ in range(1 << 2 * k)],
    )
    for stage in (scramble_images_planes, inverse_scramble_images_planes, scramble_positions, inverse_scramble_positions):
        assert np.array_equal(stage(stack, sched).bits, stack.bits)


@SETTINGS
@given(st.lists(st.tuples(st.integers(0, 2**10), st.floats(-1.0, 1.0)), max_size=16))
def test_chebyshev_many_is_the_scalar_chebyshev(pairs):
    got = chebyshev_many([k for k, _ in pairs], [x for _, x in pairs])
    want = np.array([chebyshev(k, x) for k, x in pairs])
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
