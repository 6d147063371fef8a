"""Known-answer vectors: the ciphertext bytes and updated key files are pinned.

Each case draws a key with make_key(n, M', depth, Random(seed)) and uniform
random pixels from numpy's default_rng(seed), seed = 1000 n + 100 M' + depth,
encrypts, and compares SHA-256 digests of the ciphertext pixels (as
little-endian uint32) and of the key file written after encryption.  A
change to either digest changes the cipher and needs a KEY_VERSION bump.

The stage tests check both scrambling stages against the scalar oracle
oracles.iterate at every rounds value from 0 to the key's round cap.
"""

import hashlib
import random

import numpy as np
import pytest

from bakermic import baker
from bakermic.brqmi import BitPlaneStack, MultiImage
from bakermic.cipher import (
    KeySchedule,
    decrypt,
    encrypt,
    inverse_scramble_images_planes,
    inverse_scramble_positions,
    make_key,
    scramble_images_planes,
    scramble_positions,
    write_key,
)

from conftest import stage1_array
from oracles import iterate

# (n, M', depth): (ciphertext sha256, key file sha256)
KAT = {
    (2, 1, 1): ('aaa365e3c986c06fd9e4b6c547df13023d1b93085a5b1a33b169efffa563ff37', '6c49cfe4bdb53b3aabd2ad2dff6c90d0192ee34cb7df52e90834da9d56b108d5'),
    (2, 1, 8): ('4771763dc570955557d1103da97b4b569ec5c6ca01cf7324d04e369f3203ddc2', '91d4ab67161067488474ea79f32d3212dd7443b8259bbcb32d9f3adf64164634'),
    (2, 1, 16): ('77f0438fb480d944a2386b850b7f0f8e2a6989a0da20209790751f60b13d1b16', 'b2b9f64ac5db73208834aa8c3fd1d9169f4ef8e43007f063b91425b51e284f4b'),
    (2, 3, 1): ('e8a4699d46c8622d00eee1ae72caf66ac554a977f7943a5c954864e98ea9968b', '952d7af561ae60dbc4365c5ef31b055e29c297ad25c5559ac3d2e26094c6b9a5'),
    (2, 3, 8): ('33857fcbc89d97e24f3eb51df66f8e9037bd1021d140ef8b4f2dd57edb1fc5c8', 'ec93d82344ca10c60b1e05c116f03bc25ab5432508238679a7b06b55b7638431'),
    (2, 3, 16): ('7c5d0e24029613f5920ef9f7cffdf9819365660b22bdcd0572aeb67dd626f151', '4a4e980a2da26f180d6cd25786645d5eb0232a3360a388a17c9625e261a4f2f1'),
    (2, 5, 1): ('617a74ab767aa4c2b3807b5f138c0528dda48fac5918f204efe7a88c879e8140', 'cb27ad2f8103af627bfefa5f6a728a43423d06986c92c8d45850d710ea492490'),
    (2, 5, 8): ('4a96047370c72c52695227ac53df5947d0c416172cb5fccd89d11fd50727698f', '124ca82282c6ed8585cfb6ea8edfd1a76c5709a1b58d999d0d3ae055b86301e2'),
    (2, 5, 16): ('4c833ffd0526544e06ab79370253b0c3a2723bd66320743dec9cba27cc3cbe41', '874f6d2d40331f4797e1b7412c90bb1bd52bcd53ea2bc637c307dbba760cbc9e'),
    (3, 1, 1): ('49b5f287bc9b617d11ad483457eb8a9fd7272023cfb09e9701b84cecd7e4be9e', '0d2993c5cf42cee50f6ed392340c9fa3a89ad7cb16f7681628dddebb599de942'),
    (3, 1, 8): ('34f8a58cac705f48b4f7660cb764efc44e8a3a6557807680436b2a7c9ca0beba', '7e03483d3ef4f51c10df2cdadea4ede87e1d403e8d937efe154e1b635ab0bb31'),
    (3, 1, 16): ('551cae8e7e71fe2d602cc86538f57e79ac79dc0a4bc507b482467c7378f237f8', 'd05bc75f1b86f9aa3acfd7e19671980e628fcfb0959e9625c4e7b634ccae4a4e'),
    (3, 3, 1): ('8f1ec8092105832d2f80182638b32eb4d724f86f8b9ab1117b8056c4611e5339', '18f279d9e14238752eb94a42dec77236dfdd1e4d93b43935f0e8d62c71842a03'),
    (3, 3, 8): ('90b034f870d37cdc447ec95fea3d971d3d267ab181945be9bc35b64c26c1429e', 'a4361061fc5a4f1a7838165520ab076a361bdd8e7ac4fbe8496b6ec64b812afe'),
    (3, 3, 16): ('82cca7c8404c10e9d6d28fbe877672d68a9109aa42e01ed3168565671f41d75d', '3342c85d1a743e5fa1ee34890246efa133504fb7f312995b9b5be8e53646e0af'),
    (3, 5, 1): ('f830fbd5bc80d8cc7295d8e78110697f450c88512dd0a83db85684a0abb1f22f', 'd42b39d42dc0bfe8b66061a3a150f37b6107073a85d667239c556bc9f1c752c6'),
    (3, 5, 8): ('30e05ff7d307a7c91b40f1f2bb1ee8a6cc1c56fb6e80be3f13b1b8aa6755262f', 'bbeca7d25eaadc88e17a377a2b94f8c62fc21a936ac15f9c7e0c6a147d30a3cc'),
    (3, 5, 16): ('d2cb10e4d5ca23177fd78935d9c3be4ba057747c3c2acd82b20c883691dce5c6', '28d83661751e057729eb10339403a51429a38ee562c5e77bb942aa16ecc1b5fe'),
    (4, 1, 1): ('21001aa597b5f8af2b6ae417ff2c111b30fa1037a3f4f808c66f15c1583262ac', '56a133a3740e2b95edb09117753e3a324f9d613d901ccb4f6b5a7472f9a24268'),
    (4, 1, 8): ('360fb55b65b9be36baea1bf8c56ecd3d2c2912e17148751eedc79ba580d7a0b8', 'c1dd76425b8d1a1e650ca9a1ddaccd937ca725946fe89636ef6dd46f6e4580d0'),
    (4, 1, 16): ('b096a0f064d1b5bcf6c31955f5f64d61b736de69dcbdde87a573192895b4d848', 'f2b201f39c0ca60139e153c1d4bc39b5e66bc45985ba763b0c1698ead43885af'),
    (4, 3, 1): ('dea32d9d462100c83cd8be387c98d3a50d90028cf0fcceab11c1aa3ff9296f7f', '6e99f4b8bc98c76daa03ef9552993dc7bcaabfe935710e5b34a10dc09967d2f1'),
    (4, 3, 8): ('7c86891d5ff267d0a25fd2ca4be7b73e74a36e303a2417579999cf25a0f09d20', 'eeea71d5bdd3ddd1c44d9cac69119246dcc144d147688e98fa72ca86beb495f1'),
    (4, 3, 16): ('e1f0979b67707c0c4f96bbff0908fb325dd898f781b98d84d6041142b17e25d8', '8fa08b3d4e7c158a83ac883a2cc494930796f17d79608a0b1c90b97855081d7a'),
    (4, 5, 1): ('e22ff3586e4f7d448b4db4d2f10ddd5bfd1dcfebcf7ad6e706b1b0c612d54ed7', '77926742ecd8f75fa46a0fb59e80f3bc4ddfd59ae6ccdb8dbab38755fc986409'),
    (4, 5, 8): ('618564f5e7ed5d4c2448e98409bda6fbc1861daf9504cf12d0edfdd0cba0a6bf', '8c41ed4dfa02fa82e805b9afcf9bd828059750883b9877cd8239425b7b9d7a8c'),
    (4, 5, 16): ('32434a819a3ece7111cfede1bcd9be0141413be8fe0642177cf3f703785d1a5a', '3c231c0a2ab2a4c2381c0c86fa0a2d0061765fba6830cf8dfc4e22d97fb5a74b'),
}


def kat_case(n, m_prime, depth):
    seed = 1000 * n + 100 * m_prime + depth
    key = make_key(n, m_prime, depth, random.Random(seed))
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 1 << depth, size=(m_prime, 1 << n, 1 << n))
    return key, MultiImage(n=n, bit_depth=depth, pixels=pixels)


@pytest.mark.parametrize("case", sorted(KAT))
def test_known_answer(case, tmp_path):
    key, plain = kat_case(*case)
    cipher, updated = encrypt(plain, key)
    path = tmp_path / "set.key"
    write_key(updated, path)
    digests = (
        hashlib.sha256(cipher.pixels.astype("<u4").tobytes()).hexdigest(),
        hashlib.sha256(path.read_bytes()).hexdigest(),
    )
    assert digests == KAT[case]
    back, stray = decrypt(cipher, updated)
    assert stray == 0
    assert np.array_equal(back.pixels, plain.pixels)


def random_stack(n, k, rng):
    s = 1 << k
    bits = rng.integers(0, 2, size=(s, s, 1 << n, 1 << n), dtype=np.uint8)
    return BitPlaneStack(n=n, k=k, m_prime=s, bit_depth=s, bits=bits)


def selections(lattice_n, count, r_max, rng):
    """One (rank, rounds) pair per site; rounds cycle through 0..r_max."""
    ranks = rng.integers(0, baker.count_partitions(lattice_n), size=count)
    return [(int(rank), i % (r_max + 1)) for i, rank in enumerate(ranks)]


def moved(lattice_n, rank, rounds):
    """Scalar oracle: flat target index of every lattice point."""
    part = baker.unrank(lattice_n, rank)
    side = 1 << lattice_n
    return [
        x * side + y
        for x, y in (iterate(part, (p // side, p % side), rounds) for p in range(side * side))
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_stages_match_scalar_oracle(n, k):
    rng = np.random.default_rng(10 * n + k)
    s, side = 1 << k, 1 << n
    r_max1, r_max2 = max(1, 2 * k), 2 * n
    sched = KeySchedule(
        n=n,
        k=k,
        stage1=stage1_array(selections(k, side * side, r_max1, rng)),
        stage2=selections(n, s * s, r_max2, rng),
    )
    stack = random_stack(n, k, rng)

    fibres = stack.bits.reshape(s * s, side * side)
    want1 = np.empty_like(fibres)
    for p, (rank, rounds) in enumerate(sched.stage1.tolist()):
        want1[moved(k, rank, rounds), p] = fibres[:, p]
    out1 = scramble_images_planes(stack, sched)
    assert np.array_equal(out1.bits.reshape(s * s, side * side), want1)
    assert np.array_equal(inverse_scramble_images_planes(out1, sched).bits, stack.bits)

    slices = stack.bits.reshape(s * s, side * side)
    want2 = np.empty_like(slices)
    for c, (rank, rounds) in enumerate(sched.stage2):
        want2[c, moved(n, rank, rounds)] = slices[c]
    out2 = scramble_positions(stack, sched)
    assert np.array_equal(out2.bits.reshape(s * s, side * side), want2)
    assert np.array_equal(inverse_scramble_positions(out2, sched).bits, stack.bits)
