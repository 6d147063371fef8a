import dataclasses

import numpy as np
import pytest

from bakermic.baker import count_partitions, from_widths, permutation_table, unrank
from bakermic.qcircuit import (
    Circuit,
    Gate,
    emit_text,
    parse_text,
    parse_wire,
    simulate_permutation,
    stats,
    synthesize,
    verify,
    wire_name,
)

from conftest import peak_bytes
from oracles import apply_gates, iterate


def test_wire_names():
    assert wire_name(3, 0) == "y0"
    assert wire_name(3, 2) == "y2"
    assert wire_name(3, 3) == "x0"
    assert wire_name(3, 5) == "x2"
    assert parse_wire(3, "y0") == 0
    assert parse_wire(3, "x2") == 5
    with pytest.raises(ValueError):
        wire_name(3, 6)
    with pytest.raises(ValueError):
        parse_wire(3, "x3")
    with pytest.raises(ValueError):
        parse_wire(3, "z1")


def test_gate_canonical_form():
    g = Gate(targets=(5, 2), controls=((1, True), (4, False)))
    assert g.targets == (2, 5)
    assert g.controls == ((4, False), (1, True))
    with pytest.raises(ValueError):
        Gate(targets=(3, 3))
    with pytest.raises(ValueError):
        Gate(targets=(0, 1), controls=((2, True), (2, False)))
    with pytest.raises(ValueError):
        Gate(targets=(0, 1), controls=((1, True),))
    with pytest.raises(ValueError, match="nonnegative"):
        Gate(targets=(-1, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        Gate(targets=(0, 1), controls=((-1, True),))


def test_circuit_wire_bounds():
    Circuit(n=2, gates=[Gate(targets=(0, 3))])
    with pytest.raises(ValueError):
        Circuit(n=2, gates=[Gate(targets=(0, 4))])


def test_simulate_identity_and_single_swap():
    assert np.array_equal(simulate_permutation(Circuit(n=2)), np.arange(16))
    # swapping x0 and y0 on n=1 exchanges indices 1 and 2
    circ = Circuit(n=1, gates=[Gate(targets=(0, 1))])
    assert simulate_permutation(circ).tolist() == [0, 2, 1, 3]


def test_simulate_controlled_swap():
    # swap y0,y1 only when x1 is set
    circ = Circuit(n=2, gates=[Gate(targets=(0, 1), controls=((3, True),))])
    perm = simulate_permutation(circ)
    for v in range(16):
        if v & 8:
            y = v & 3
            swapped = ((y & 1) << 1) | (y >> 1)
            assert perm[v] == (v & ~3) | swapped
        else:
            assert perm[v] == v  # unmet control leaves the state alone


def test_simulate_is_always_a_bijection():
    # n = 0 is the empty circuit; a third of the gates with any free wire
    # take every one of them as a control, leaving a block of one state.
    rng = np.random.default_rng(7)
    for n in [*range(7)] * 3:
        gates = []
        for _ in range(int(rng.integers(0, 41)) if n else 0):
            a, b = rng.choice(2 * n, size=2, replace=False)
            free = [w for w in range(2 * n) if w not in (a, b)]
            kind = int(rng.integers(3))
            size = (0, int(rng.integers(0, len(free) + 1)), len(free))[kind]
            picks = rng.choice(free, size=size, replace=False) if free else []
            ctl = tuple((int(w), bool(rng.integers(2))) for w in picks)
            gates.append(Gate(targets=(int(a), int(b)), controls=ctl))
        circ = Circuit(n=n, gates=gates)
        perm = simulate_permutation(circ)
        assert perm.dtype == np.int64
        assert sorted(perm.tolist()) == list(range(1 << (2 * n)))
        assert perm.tolist() == [apply_gates(circ, v) for v in range(1 << (2 * n))]


def test_simulate_refuses_a_wire_added_out_of_range():
    # Circuit checks its wires when built, and its gates are a tuple, so no
    # out-of-range wire can reach simulate_permutation or verify afterwards
    with pytest.raises(ValueError, match="wire 5"):
        Circuit(n=1, gates=[Gate(targets=(0, 5))])
    circ = Circuit(n=1)
    assert circ.gates == ()
    with pytest.raises(AttributeError):
        circ.gates.append(Gate(targets=(0, 5)))
    with pytest.raises(ValueError, match="wire 5"):
        dataclasses.replace(circ, gates=(Gate(targets=(0, 5)),))


def simulate_peak(circ):
    simulate_permutation(circ)
    return peak_bytes(simulate_permutation, circ)


def test_simulate_peak_memory_is_below_twice_the_states():
    # The states are one int64 array of 2**20 entries (8 MB); a gate's swap
    # holds one quarter-size copy of it, the block it moves out of the way.
    peak = simulate_peak(synthesize(unrank(10, 12345)))
    assert peak < 2 * (8 << 20), f"peak {peak / (8 << 20):.2f}x the state array"


@pytest.mark.parametrize("circ", [Circuit(n=10, gates=[Gate(targets=(0, 10))]), synthesize(unrank(10, 12345))])
def test_simulate_makes_no_second_block_copy(circ):
    # A gate with no controls swaps two quarter-size blocks through one held
    # copy (1.25x the states); the other block is written through a ufunc, so
    # numpy makes no copy of its own for the two interleaved views.  The bound
    # rests on numpy's overlap check for ufunc out=, measured on numpy 2.4.
    peak = simulate_peak(circ)
    assert peak < 1.3 * (8 << 20), f"peak {peak / (8 << 20):.2f}x the state array"


def test_simulate_refuses_more_than_2_24_states():
    with pytest.raises(ValueError, match=r"2\*\*24 states \(n <= 12\)"):
        simulate_permutation(Circuit(n=13))
    with pytest.raises(ValueError, match=r"2\*\*24 states"):
        verify(Circuit(n=13), from_widths((1 << 13,)))
    perm = simulate_permutation(Circuit(n=12))
    assert perm.dtype == np.int64
    assert np.array_equal(perm, np.arange(1 << 24))


def test_synthesize_trivial_partitions():
    # the single full block is the identity map: no gates at all
    assert synthesize(from_widths((8,))).gates == ()
    # unit blocks exchange the x and y registers wire by wire
    circ = synthesize(from_widths((1,) * 8))
    assert len(circ.gates) == 3
    assert all(not g.controls for g in circ.gates)
    assert {g.targets for g in circ.gates} == {(0, 3), (1, 4), (2, 5)}
    assert verify(circ, from_widths((1,) * 8))


def test_stats_counts():
    empty = stats(Circuit(n=2))
    assert (empty.gate_count, empty.controlled_count, empty.max_control_arity) == (0, 0, 0)
    circ = synthesize(from_widths((4, 2, 2)))
    s = stats(circ)
    assert s.gate_count == len(circ.gates)
    assert s.controlled_count == sum(1 for g in circ.gates if g.controls)
    assert s.max_control_arity == max(len(g.controls) for g in circ.gates)


def test_synthesize_422_case_split():
    """Corrections for (4,2,2) trigger exactly on the top x bit."""
    part = from_widths((4, 2, 2))
    circ = synthesize(part)
    assert verify(circ, part)
    controlled = [g for g in circ.gates if g.controls]
    assert controlled
    for g in controlled:
        assert g.controls == ((2, True),)  # post-shuffle carrier of the region bit


def test_synthesize_all_n3():
    for i in range(count_partitions(3)):
        part = unrank(3, i)
        assert verify(synthesize(part), part), str(part)
    print("all 26 side-8 circuits verify")


def test_synthesize_rejects_inadmissible():
    with pytest.raises(ValueError):
        synthesize(from_widths((2, 4, 2)))


def test_verify_detects_mutations():
    part = from_widths((4, 2, 2))
    circ = synthesize(part)
    clipped = Circuit(n=circ.n, gates=circ.gates[:-1])
    assert not verify(clipped, part)
    assert not verify(circ, from_widths((2, 2, 4)))
    assert not verify(Circuit(n=2), part)  # wrong width


def test_iterated_circuit_matches_iterated_map():
    part = from_widths((2, 2, 4))
    perm = simulate_permutation(synthesize(part))
    n = part.n
    for r in range(4):
        table = np.arange(perm.size)
        for _ in range(r):
            table = perm[table]
        for x in range(part.side):
            for y in range(part.side):
                xp, yp = iterate(part, (x, y), r)
                assert table[(x << n) | y] == (xp << n) | yp


def test_big_partition_verifies():
    part = from_widths((16, 8, 8, 32, 64, 128))
    circ = synthesize(part)
    assert verify(circ, part)
    s = stats(circ)
    assert s.max_control_arity <= part.n - 1
    print(f"side-256 circuit: {s.gate_count} gates, {s.controlled_count} controlled")


def test_emit_text_format():
    text = emit_text(Circuit(n=3, gates=[Gate(targets=(0, 5))]))
    assert text.splitlines() == ["# n=3", "SWAP x2 y0"]
    gate = Gate(targets=(1, 4), controls=((7, True), (6, False), (5, False)))
    text = emit_text(Circuit(n=4, gates=[gate]))
    assert text.splitlines()[1] == "CSWAP [+x3,-x2,-x1] x0 y1"


def test_text_roundtrip():
    for widths in ((4, 2, 2), (2, 2, 4), (1, 1, 2, 4), (16, 8, 8, 32, 64, 128)):
        part = from_widths(widths)
        circ = synthesize(part)
        back = parse_text(emit_text(circ, part))
        assert back.n == circ.n
        assert back.gates == circ.gates


def test_parse_text_errors():
    with pytest.raises(ValueError):
        parse_text("SWAP x0 y0\n")  # no header
    with pytest.raises(ValueError):
        parse_text("# n=2\nFLIP x0 y0\n")
    with pytest.raises(ValueError):
        parse_text("# n=2\nCSWAP x1 x0 y0\n")
    with pytest.raises(ValueError):
        parse_text("# n=2\nCSWAP [x1] x0 y0\n")  # missing polarity sign
    with pytest.raises(ValueError):
        parse_text("# comment only\n")
    with pytest.raises(ValueError):
        parse_text("# n=\u0662\nSWAP y1 x0\n")  # ARABIC-INDIC DIGIT TWO in the header
    with pytest.raises(ValueError, match="bad wire name"):
        parse_text("# n=2\nSWAP y\u0661 x0\n")  # ARABIC-INDIC DIGIT ONE in a wire


def test_parse_text_tolerates_comments_and_order():
    text = "# preamble\n# n=2 partition=2,1,1\n\nSWAP y0 x1\n# middle\nCSWAP [-x1] y1 y0\n"
    circ = parse_text(text)
    assert circ.n == 2
    assert circ.gates[0] == Gate(targets=(0, 3))
    assert circ.gates[1] == Gate(targets=(0, 1), controls=((3, False),))
