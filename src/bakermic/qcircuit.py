"""Reversible SWAP/controlled-SWAP circuits for admissible baker maps.

State is a basis index v = x * 2**n + y over 2n wires.  Wire j < n carries
bit j of y and wire n + j carries bit j of x; wires are named y0..y{n-1} and
x0..x{n-1}.  Gates apply left to right, so later gates address wires as
rearranged by earlier ones.

Synthesis emits the first strip's map as plain SWAPs, then walks the
partition's dyadic nesting and emits one controlled correction per nested
scope.  A scope of width 2**w at lattice offset A * 2**w is selected by the
prefix bits of x sitting (after the leading SWAP stage) on wires w..n-1;
the correction composes the scope's own strip map with the inverse of its
parent's, and that composition provably never touches the control wires.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .baker import BakerPartition, permutation_table


def wire_name(n: int, wire: int) -> str:
    if not 0 <= wire < 2 * n:
        raise ValueError(f"wire {wire} out of range for n={n}")
    return f"y{wire}" if wire < n else f"x{wire - n}"


def parse_wire(n: int, name: str) -> int:
    m = re.fullmatch(r"([xy])([0-9]+)", name)
    if not m:
        raise ValueError(f"bad wire name {name!r}")
    j = int(m.group(2))
    if j >= n:
        raise ValueError(f"wire {name!r} out of range for n={n}")
    return j + n if m.group(1) == "x" else j


@dataclass(frozen=True)
class Gate:
    """One SWAP of two target wires, optionally under polarity controls.

    Controls are (wire, value) pairs: the swap fires only when every control
    wire holds its stated value.  Control wires must be disjoint from the
    targets.
    """

    targets: tuple[int, int]
    controls: tuple[tuple[int, bool], ...] = ()

    def __post_init__(self):
        a, b = self.targets
        if a == b:
            raise ValueError("targets must be distinct")
        object.__setattr__(self, "targets", (min(a, b), max(a, b)))
        ctl = tuple(sorted(((int(w), bool(v)) for w, v in self.controls), key=lambda c: -c[0]))
        object.__setattr__(self, "controls", ctl)
        wires = [w for w, _ in ctl]
        if min(self.targets + tuple(wires)) < 0:
            raise ValueError("wires must be nonnegative")
        if len(set(wires)) != len(wires):
            raise ValueError("duplicate control wire")
        if set(wires) & set(self.targets):
            raise ValueError("control wires must be disjoint from targets")


@dataclass(frozen=True)
class Circuit:
    """A gate sequence on 2n wires, checked when built: a tuple of gates, each on wires in [0, 2n)."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for w in g.targets + tuple(w for w, _ in g.controls):
                if not 0 <= w < 2 * self.n:
                    raise ValueError(f"gate uses wire {w}, but the circuit has {2 * self.n} wires")


# ---------------------------------------------------------------------------
# Wire permutations of single-strip maps


def _strip_wire_perm(n: int, s: int) -> list[int]:
    """Wire permutation of the full-lattice map with one strip exponent s.

    Entry perm[w] is the wire the bit on w moves to.  s = n is the identity
    and s = 0 exchanges the x and y registers.
    """
    perm = list(range(2 * n))
    for t in range(n):
        perm[n + t] = 2 * n - s + t if t < s else t
    for u in range(n):
        perm[u] = n + u if u < n - s else u - (n - s)
    return perm


def _invert(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for w, img in enumerate(perm):
        inv[img] = w
    return inv


def _compose(first: list[int], second: list[int]) -> list[int]:
    """Permutation acting as `first` then `second`."""
    return [second[w] for w in first]


def _transpositions(perm: list[int]) -> list[tuple[int, int]]:
    """Decompose into SWAP pairs whose left-to-right application realises perm."""
    pairs = []
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        w = perm[start]
        while w != start:
            cycle.append(w)
            seen[w] = True
            w = perm[w]
        for other in cycle[1:]:
            pairs.append((cycle[0], other))
    return pairs


# ---------------------------------------------------------------------------
# Synthesis


def synthesize(part: BakerPartition) -> Circuit:
    """Build the SWAP/controlled-SWAP realisation of an admissible map.

    The leading strip's map is emitted uncontrolled; every nested scope then
    contributes one correction block of controlled SWAPs keyed on the scope's
    dyadic prefix.  Raises ValueError for inadmissible partitions.

    Args:
        part: admissible partition describing the map.

    Returns:
        Circuit realising exactly one application of the map.
    """
    if not part.is_admissible():
        raise ValueError(f"partition {part} is not admissible")
    n = part.n
    gates: list[Gate] = []
    for pair in _transpositions(_strip_wire_perm(n, part.qs[0])):
        gates.append(Gate(targets=pair))
    _cascade(n, list(part.qs), 0, n, gates)
    return Circuit(n=n, gates=gates)


def _cascade(n: int, qlist: list[int], base: int, width: int, gates: list[Gate]) -> None:
    parent_g = qlist[0]
    scopes = []
    i = 1
    for level in range(parent_g, width):
        sub: list[int] = []
        total = 0
        while total < (1 << level):
            sub.append(qlist[i])
            total += 1 << qlist[i]
            i += 1
        scopes.append((sub, base + (1 << level), level))
    for sub, child_base, level in reversed(scopes):
        _emit_correction(n, sub[0], parent_g, child_base, level, gates)
        _cascade(n, sub, child_base, level, gates)


def _emit_correction(
    n: int, child_g: int, parent_g: int, base: int, width: int, gates: list[Gate]
) -> None:
    corr = _compose(_invert(_strip_wire_perm(n, parent_g)), _strip_wire_perm(n, child_g))
    if all(corr[w] == w for w in range(2 * n)):
        return
    prefix = base >> width
    controls = []
    for w in range(width, n):
        # the correction never displaces a control wire; soundness depends on it
        assert corr[w] == w
        controls.append((w, bool((prefix >> (w - width)) & 1)))
    for pair in _transpositions(corr):
        gates.append(Gate(targets=pair, controls=tuple(controls)))


# ---------------------------------------------------------------------------
# Simulation and verification


def simulate_permutation(circuit: Circuit) -> np.ndarray:
    """Exact basis-state permutation computed by the circuit.

    Returns an int64 array P with P[v] = output state for input v over all
    2**(2n) basis states.  P is viewed as a cube with one axis of length 2
    per wire (axis 2n - 1 - j holds bit j), and the gates are walked last to
    first, each composed on the right: P becomes P o g.  A gate fixes its
    control axes, then swaps the block where its targets read (1, 0) with
    the block where they read (0, 1), so it touches only the 2**(2n - c - 1)
    states it can move.  Refuses circuits wider than 24 wires (2**24 states,
    a 128 MB array) before allocating.
    """
    n = circuit.n
    if 2 * n > 24:
        raise ValueError(f"n={n}: simulation is capped at 2**24 states (n <= 12)")
    perm = np.arange(1 << (2 * n), dtype=np.int64)
    cube = perm.reshape((2,) * (2 * n))  # axis 2n - 1 - j holds bit j
    for g in reversed(circuit.gates):
        idx: list = [slice(None)] * (2 * n)
        for w, val in g.controls:
            idx[2 * n - 1 - w] = int(val)
        a, b = (2 * n - 1 - t for t in g.targets)
        idx[a], idx[b] = 1, 0
        one = cube[(*idx, ...)]  # the trailing ... keeps a fully fixed block a writable view
        idx[a], idx[b] = 0, 1
        other = cube[(*idx, ...)]
        held = one.copy()
        np.positive(other, out=one)  # a ufunc writes through; `one[...] = other` would copy other first
        other[...] = held
        del held  # freed before the next gate's copy is made
    return perm


def verify(circuit: Circuit, part: BakerPartition) -> bool:
    """Check the circuit against the map's whole-lattice permutation.

    Compares simulate_permutation's array with permutation_table's, so it
    raises ValueError where that does: above 2**24 states (n > 12).
    """
    if circuit.n != part.n:
        return False
    return bool(np.array_equal(simulate_permutation(circuit), permutation_table(part)))


# ---------------------------------------------------------------------------
# Text format


def emit_text(circuit: Circuit, partition: BakerPartition | None = None) -> str:
    """Render as text: a header comment, then one gate per line."""
    n = circuit.n
    header = f"# n={n}"
    if partition is not None:
        header += f" partition={partition}"
    lines = [header]
    for g in circuit.gates:
        a, b = sorted(g.targets, reverse=True)
        targets = f"{wire_name(n, a)} {wire_name(n, b)}"
        if g.controls:
            ctl = ",".join(
                ("+" if val else "-") + wire_name(n, w) for w, val in g.controls
            )
            lines.append(f"CSWAP [{ctl}] {targets}")
        else:
            lines.append(f"SWAP {targets}")
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> Circuit:
    """Parse the gate-list text form; inverse of emit_text."""
    n = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if n is None:
                m = re.search(r"\bn=([0-9]+)\b", line)
                if m:
                    n = int(m.group(1))
            continue
        if n is None:
            raise ValueError(f"line {lineno}: gate before '# n=<n>' header")
        tokens = line.split()
        if tokens[0] == "SWAP" and len(tokens) == 3:
            gates.append(Gate(targets=(parse_wire(n, tokens[1]), parse_wire(n, tokens[2]))))
        elif tokens[0] == "CSWAP" and len(tokens) == 4:
            body = tokens[1]
            if not (body.startswith("[") and body.endswith("]")):
                raise ValueError(f"line {lineno}: malformed control list")
            controls = []
            for item in body[1:-1].split(","):
                item = item.strip()
                if len(item) < 2 or item[0] not in "+-":
                    raise ValueError(f"line {lineno}: bad control {item!r}")
                controls.append((parse_wire(n, item[1:]), item[0] == "+"))
            gates.append(
                Gate(
                    targets=(parse_wire(n, tokens[2]), parse_wire(n, tokens[3])),
                    controls=tuple(controls),
                )
            )
        else:
            raise ValueError(f"line {lineno}: unrecognised gate {line!r}")
    if n is None:
        raise ValueError("missing '# n=<n>' header")
    return Circuit(n=n, gates=gates)
