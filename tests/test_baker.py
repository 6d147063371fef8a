import random
import re
import tracemalloc

import numpy as np
import pytest

from bakermic.baker import (
    BakerPartition,
    count_partitions,
    from_widths,
    parse_widths,
    permutation_table,
    strip_layout,
    strip_layouts,
    unrank,
)

from oracles import apply, apply_inverse, iterate

P8 = 1947270476915296449559703445493848930452791205


def all_power_compositions(total):
    """Every ordered list of power-of-two blocks summing to total."""
    if total == 0:
        return [()]
    out = []
    w = 1
    while w <= total:
        for rest in all_power_compositions(total - w):
            out.append((w,) + rest)
        w *= 2
    return out


def aligned(widths):
    # independent admissibility check: each block starts on its own grid
    start = 0
    for w in widths:
        if start % w:
            return False
        start += w
    return True


def test_partition_counts():
    assert count_partitions(0) == 1
    assert count_partitions(1) == 2
    assert count_partitions(2) == 5
    assert count_partitions(3) == 26
    assert count_partitions(8) == P8
    with pytest.raises(ValueError):
        count_partitions(-1)


def test_unrank_matches_brute_force():
    for n in range(4):
        brute = {w for w in all_power_compositions(1 << n) if aligned(w)}
        assert len(brute) == count_partitions(n)
        ranked = {unrank(n, i).widths for i in range(count_partitions(n))}
        assert ranked == brute
    print("unrank sweep equals brute-force enumeration for n <= 3")


def test_unrank_structure():
    assert unrank(3, 0).widths == (8,)
    assert unrank(0, 0).widths == (1,)
    for i in range(count_partitions(3)):
        assert unrank(3, i).is_admissible()
    with pytest.raises(ValueError):
        unrank(3, 26)
    with pytest.raises(ValueError):
        unrank(3, -1)


def test_partition_validation():
    assert BakerPartition(n=3, qs=(2, 2)).widths == (4, 4)
    with pytest.raises(ValueError):
        BakerPartition(n=3, qs=(2, 1))  # widths sum to 6, not 8
    with pytest.raises(ValueError):
        BakerPartition(n=2, qs=())
    with pytest.raises(ValueError):
        BakerPartition(n=2, qs=(3,))


def test_admissibility_cases():
    assert from_widths((4, 2, 2)).is_admissible()
    assert from_widths((2, 2, 4)).is_admissible()
    assert not from_widths((2, 4, 2)).is_admissible()
    assert from_widths((1, 1, 2)).is_admissible()
    assert not from_widths((1, 2, 1)).is_admissible()
    assert from_widths((8,)).is_admissible()


def test_width_parsing():
    part = parse_widths("16,8,8,32,64,128")
    assert part.n == 8
    assert part.widths == (16, 8, 8, 32, 64, 128)
    assert str(part) == "16,8,8,32,64,128"
    with pytest.raises(ValueError):
        parse_widths("")
    with pytest.raises(ValueError):
        parse_widths("4,3,1")
    for text in ("4,x", "4,,4", "8,8,", ",8,8", "8, ,8", "1_6,+16", "\u0661\u0666,16"):
        with pytest.raises(ValueError, match=re.escape(f"bad partition text {text!r}")):
            parse_widths(text)
    assert parse_widths(" 8 ,8") == parse_widths("8,8")
    with pytest.raises(ValueError):
        from_widths((4, 2, 1))  # sums to 7


def test_prefix_sums():
    part = from_widths((4, 2, 2))
    assert part.prefix_sums() == (0, 4, 6, 8)


def test_apply_case_table_422():
    """Branch form of the (4,2,2) map over every lattice point."""
    part = from_widths((4, 2, 2))
    for x in range(8):
        for y in range(8):
            if x < 4:
                want = (((x & 3) << 1) | (y & 1), ((x >> 2) << 2) | (y >> 1))
            else:
                want = (((x & 1) << 2) | (y & 3), ((x >> 1) << 1) | (y >> 2))
            assert apply(part, (x, y)) == want, (x, y)


def test_apply_bijective_and_invertible():
    for n in range(5):
        for i in range(count_partitions(n)):
            part = unrank(n, i)
            side = part.side
            images = set()
            for x in range(side):
                for y in range(side):
                    out = apply(part, (x, y))
                    images.add(out)
                    assert apply_inverse(part, out) == (x, y)
            assert len(images) == side * side


def test_apply_range_errors():
    part = from_widths((2, 2))
    with pytest.raises(ValueError):
        apply(part, (4, 0))
    with pytest.raises(ValueError):
        apply(part, (0, -1))
    with pytest.raises(ValueError):
        apply_inverse(part, (0, 4))


def test_iterate():
    part = from_widths((4, 2, 2))
    pt = (3, 5)
    assert iterate(part, pt, 0) == pt
    assert iterate(part, pt, 1) == apply(part, pt)
    assert iterate(part, pt, 3) == apply(part, apply(part, apply(part, pt)))
    with pytest.raises(ValueError):
        iterate(part, pt, -1)


def test_permutation_table_allocates_one_full_size_array():
    # the table is the build's one full-size array: the y-part rows are kept
    # after the first call, and each per-column array is 2**n entries
    part = unrank(8, 123456789)
    permutation_table(part)
    tracemalloc.start()
    try:
        table = permutation_table(part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes, f"peak {peak / table.nbytes:.2f}x the table"


@pytest.mark.parametrize("n", range(10))
def test_strip_layouts_match_strip_layout_row_by_row(n):
    # the whole-array unranking against unrank and strip_layout, one rank at
    # a time: random ranks (Python ints past int64 from n = 7) and both ends
    rng = random.Random(n)
    count = count_partitions(n)
    ranks = [0, count - 1] + [rng.randrange(count) for _ in range(40)]
    low, cols = strip_layouts(n, ranks)
    assert low.shape == cols.shape == (len(ranks), 1 << n)
    assert low.dtype == cols.dtype == np.intp
    for rank, row_low, row_cols in zip(ranks, low, cols):
        want_low, want_cols = strip_layout(n, unrank(n, rank).qs)
        assert np.array_equal(row_low, want_low) and np.array_equal(row_cols, want_cols), rank
    assert strip_layouts(n, [])[0].shape == (0, 1 << n)
    for bad in (-1, count):
        with pytest.raises(ValueError, match="out of range"):
            strip_layouts(n, [0, bad])


def test_permutation_table_matches_scalar():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            part = unrank(n, int(rng.integers(count_partitions(n))))
            table = permutation_table(part)
            assert sorted(table.tolist()) == list(range(part.side ** 2))
            for x in range(part.side):
                for y in range(part.side):
                    xp, yp = apply(part, (x, y))
                    assert table[(x << n) | y] == (xp << n) | yp
    print("permutation tables agree with pointwise application")
