"""Smoke test of the benchmark: every workload at a tiny size, checks on.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = workloads.load_program()
from bakermic import chaos, cipher  # noqa: E402


class TinyOneShot(workloads.OneShot):
    n = 4


class TinyBattery(workloads.Battery):
    n = 4


class TinyCircuits(workloads.Circuits):
    n = 4


TINY = [TinyOneShot, TinyBattery, TinyCircuits]
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(cls, tmp_path, seed=3):
    pool = tmp_path / "pool"
    pool.mkdir()
    workload = cls(pool, seed, CLI)
    workloads.build_pool(workload)
    return workload


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_untraced_run_checks_every_operation(cls, tmp_path):
    result = run.measure(tiny(cls, tmp_path), tmp_path, 0.0, False, [0.5])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_OPS[cls.name]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert not hasattr(cipher.encrypt, "__wrapped__")  # untraced runs install no wrappers


@pytest.mark.parametrize("cls", TINY, ids=lambda c: c.name)
def test_traced_run_emits_every_layer_metric(cls, tmp_path):
    runs = []
    for part in ("a", "b"):
        (tmp_path / part).mkdir()
        runs.append(run.measure(tiny(cls, tmp_path / part), tmp_path / part, 0.0, True, [0.5]))
    first, second = runs
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name, metric in first["metrics"].items():
        if metric["unit"] != "s":  # counts repeat exactly for one seed
            assert metric == second["metrics"][name], name
    assert not hasattr(cipher.encrypt, "__wrapped__")


def test_missing_function_leaves_its_metric_absent(tmp_path):
    metrics = dict(tracing.METRICS)
    metrics["cipher.gone_s"] = ("s", "time", ("cipher.no_such_function",), None)
    metrics["cipher.odd_count"] = ("count", "sum", ("cipher.diffuse",), lambda args, result: args[9])
    tracer = tracing.Tracer(metrics)
    tracer.install()
    try:
        result = run.run_ops(tiny(TinyOneShot, tmp_path), tmp_path, 0.0, 1, 1, tracer)
    finally:
        tracer.uninstall()
    values, notes = tracer.results(1)
    assert result["correct"] and result["failed"] == 0
    assert "cipher.gone_s" not in values and "cipher.odd_count" not in values
    assert len(notes) == 2 and values["cipher.stage1_s"]["value"] > 0


def test_degenerate_key_is_redrawn(tmp_path, monkeypatch):
    real = chaos.distinct_sequence
    calls = []

    def refuse_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("orbit produced fewer than 16 distinct values within 1 iterations")
        return real(*args, **kwargs)

    monkeypatch.setattr(cipher, "distinct_sequence", refuse_first)
    workload = tiny(TinyOneShot, tmp_path)
    result = run.run_ops(workload, tmp_path, 0.0, 2, 2)
    assert result["correct"] and result["failed"] == 0
    assert workload.redraws == 1 and workload.next_key_index == 3


def flip_last_byte(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))


def edit(path: Path, old: str, new: str) -> None:
    path.write_text(path.read_text().replace(old, new, 1))


@pytest.mark.parametrize(
    "cls, damage",
    [
        (TinyOneShot, lambda out: flip_last_byte(out / "back_01.pgm")),
        (TinyBattery, lambda out: edit(out / "report.txt", "npcr = ", "npcr = 1")),
        (TinyCircuits, lambda out: edit(out / "circuit.gates", "\n", "\nSWAP y1 y0\n")),
    ],
    ids=["oneshot", "battery", "circuits"],
)
def test_checks_reject_damaged_output(cls, damage, tmp_path):
    workload = tiny(cls, tmp_path)
    out = tmp_path / "op"
    out.mkdir()
    ctx = workload.run_op(0, out)
    workload.check(0, out, ctx, full=True)
    damage(out)
    with pytest.raises(workloads.OpFailed):
        workload.check(0, out, ctx, full=True)


def test_refuses_without_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        BENCHMARK["command"] + ["--workload", "oneshot-n8", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout
