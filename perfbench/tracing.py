"""Outside-in layer tracing for the benchmark's traced runs.

The tracer replaces public functions of the bakermic modules with timing
wrappers, from the benchmark's side: nothing under src/ changes.  A name
bound by ``from module import name`` elsewhere in the package is replaced
too, since the wrapper goes in wherever the original function object sits.
Each wrapped call is a span; a span's self time is its duration minus the
wrapped spans inside it.  A time metric built from several functions counts
only outermost spans, so nested calls are not counted twice.

A function that no longer exists leaves its metrics absent instead of
failing the run, and so does a counter whose arguments no longer have the
expected shape.  Untraced runs never create a Tracer.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _stage1_groups(args, result):
    return len(set(args[1].stage1))


def _stage2_rounds(args, result):
    return sum(rounds for _, rounds in args[1].stage2)


def _xor_sites(args, result):
    return args[0].bits.size


def _grid_source(args, result):
    perms, q, k = args[:3]
    return perms.xs, perms.ys, q, k


def _bytes_written(args, result):
    base = os.path.dirname(os.fspath(args[1]))
    return os.path.getsize(args[1]) + sum(os.path.getsize(os.path.join(base, f)) for f in result)


def _gates(args, result):
    return len(result.gates)


def _states(args, result):
    return 1 << (2 * args[0].n)


STAGE1 = ("cipher.scramble_images_planes", "cipher.inverse_scramble_images_planes")
STAGE2 = ("cipher.scramble_positions", "cipher.inverse_scramble_positions")

# name -> (unit, kind, wrapped functions, counter)
#   time: summed duration of outermost spans      self: summed self time
#   calls: number of calls                        sum: total of counter(args, result)
#   distinct: number of distinct counter values
METRICS = {
    "cli.encrypt_s": ("s", "time", ("cli.cmd_encrypt",), None),
    "cli.decrypt_s": ("s", "time", ("cli.cmd_decrypt",), None),
    "cli.analyze_s": ("s", "time", ("cli.cmd_analyze",), None),
    "cli.circuit_synth_s": ("s", "time", ("cli.cmd_circuit_synth",), None),
    "cli.circuit_verify_s": ("s", "time", ("cli.cmd_circuit_verify",), None),
    "brqmi.load_multi_s": ("s", "time", ("brqmi.load_multi",), None),
    "brqmi.save_multi_s": ("s", "time", ("brqmi.save_multi",), None),
    "brqmi.decompose_s": ("s", "time", ("brqmi.decompose",), None),
    "brqmi.recompose_s": ("s", "time", ("brqmi.recompose", "brqmi.recompose_all"), None),
    "brqmi.bytes_written": ("bytes", "sum", ("brqmi.save_multi",), _bytes_written),
    "cipher.key_io_s": ("s", "time", ("cipher.read_key", "cipher.write_key"), None),
    "cipher.derive_schedule_s": ("s", "time", ("cipher.derive_schedule",), None),
    "cipher.derive_schedule_calls": ("count", "calls", ("cipher.derive_schedule",), None),
    "cipher.stage1_s": ("s", "time", STAGE1, None),
    "cipher.stage1_groups": ("count", "sum", STAGE1, _stage1_groups),
    "cipher.stage2_s": ("s", "time", STAGE2, None),
    "cipher.stage2_rounds": ("count", "sum", STAGE2, _stage2_rounds),
    "cipher.diffuse_s": ("s", "self", ("cipher.diffuse",), None),
    "cipher.xor_sites": ("count", "sum", ("cipher.diffuse",), _xor_sites),
    "chaos.derive_seed_s": ("s", "time", ("chaos.derive_seed", "chaos.seed_from_sums"), None),
    "chaos.distinct_sequence_s": ("s", "time", ("chaos.distinct_sequence",), None),
    "chaos.distinct_sequence_calls": ("count", "calls", ("chaos.distinct_sequence",), None),
    "chaos.keystream_grid_calls": ("count", "calls", ("chaos.keystream_grid",), None),
    "chaos.keystream_grid_sources": ("count", "distinct", ("chaos.keystream_grid",), _grid_source),
    "chaos.chebyshev_calls": ("count", "calls", ("chaos.chebyshev",), None),
    "chaos.chebyshev_s": ("s", "time", ("chaos.chebyshev",), None),
    "baker.unrank_s": ("s", "time", ("baker.unrank",), None),
    "baker.unrank_calls": ("count", "calls", ("baker.unrank",), None),
    "baker.permutation_table_s": ("s", "time", ("baker.permutation_table",), None),
    "baker.permutation_table_calls": ("count", "calls", ("baker.permutation_table",), None),
    "qcircuit.synthesize_s": ("s", "time", ("qcircuit.synthesize",), None),
    "qcircuit.emit_text_s": ("s", "time", ("qcircuit.emit_text",), None),
    "qcircuit.parse_text_s": ("s", "time", ("qcircuit.parse_text",), None),
    "qcircuit.verify_s": ("s", "time", ("qcircuit.verify",), None),
    "qcircuit.gates": ("count", "sum", ("qcircuit.synthesize",), _gates),
    "qcircuit.states_checked": ("count", "sum", ("qcircuit.verify",), _states),
    "analysis.metrics_s": (
        "s",
        "time",
        (
            "analysis.histogram_chi2",
            "analysis.adjacent_correlation",
            "analysis.npcr_uaci",
            "analysis.bit_difference_rate",
        ),
        None,
    ),
    # probes without their decrypts: decrypt is wrapped only to be subtracted
    "analysis.probes_s": ("s", "self", ("analysis.occlusion_test", "analysis.noise_test"), None),
}
EXTRA_SPANS = ("cipher.encrypt", "cipher.decrypt")


class Tracer:
    """Wraps the functions METRICS names; accumulates while ``active``."""

    def __init__(self, metrics: dict = METRICS, extra_spans=EXTRA_SPANS):
        self.metrics = metrics
        self.active = False
        self.missing: list[str] = []
        self.broken: dict[str, str] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._time: Counter = Counter()
        self._self: Counter = Counter()
        self._calls: Counter = Counter()
        self._sums: Counter = Counter()
        self._distinct: dict[str, set] = defaultdict(set)
        self._time_metrics: dict[str, list[str]] = defaultdict(list)
        self._counters: dict[str, list] = defaultdict(list)
        for name, (_, kind, funcs, counter) in metrics.items():
            for f in funcs:
                if kind == "time":
                    self._time_metrics[f].append(name)
                if counter is not None:
                    self._counters[f].append((name, kind, counter))
        self._functions = sorted({f for _, _, fs, _ in metrics.values() for f in fs} | set(extra_spans))

    def install(self, package: str = "bakermic") -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for qual in self._functions:
            mod = sys.modules.get(f"{package}.{qual.split('.')[0]}")
            original = getattr(mod, qual.split(".")[1], None)
            if not callable(original):
                self.missing.append(qual)
                continue
            wrapper = self._wrap(qual, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, qual, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [qual, 0.0]
            stack.append(frame)
            result, ok = None, False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self._account(qual, elapsed, frame[1], args, result, ok)
                if stack:  # the parent's self time excludes this span and its counting
                    stack[-1][1] += perf_counter() - t0

        return traced

    def _account(self, qual, elapsed, children, args, result, ok) -> None:
        self._calls[qual] += 1
        self._self[qual] += elapsed - children
        for name in self._time_metrics.get(qual, ()):
            if not any(f[0] in self.metrics[name][2] for f in self._stack):
                self._time[name] += elapsed
        if not ok:
            return
        for name, kind, counter in self._counters.get(qual, ()):
            if name in self.broken:
                continue
            try:
                value = counter(args, result)
            except Exception as exc:  # the function's signature or result changed
                self.broken[name] = f"{qual}: {exc!r}"
                continue
            if kind == "sum":
                self._sums[name] += value
            else:
                self._distinct[name].add(value)

    def results(self, ops: int) -> tuple[dict, list[str]]:
        """Per-operation metric values, and notes on the metrics left absent."""
        values, notes = {}, []
        for name, (unit, kind, funcs, _) in self.metrics.items():
            gone = [f for f in funcs if f in self.missing]
            if len(gone) == len(funcs) or name in self.broken:
                notes.append(f"{name} absent: {self.broken.get(name) or ', '.join(gone) + ' not found'}")
                continue
            if kind == "time":
                total = self._time[name]
            elif kind == "self":
                total = sum(self._self[f] for f in funcs)
            elif kind == "calls":
                total = sum(self._calls[f] for f in funcs)
            elif kind == "sum":
                total = self._sums[name]
            else:
                total = len(self._distinct[name])
            values[name] = {"value": total / ops, "unit": unit}
        return values, notes
