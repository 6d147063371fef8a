"""bakermic benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload oneshot-n8 --seed 1 --seconds 30 --trace 0

Set-up is a child process that imports bakermic and builds the workload's
input pool; it runs SETUP_REPS times and setup_s is the median.  The
benchmark then imports bakermic from src/ itself and runs operations
back to back, in-process through ``bakermic.cli.main``:

* ``--trace 0`` runs operations until ``--seconds`` have passed, and at
  least MIN_OPS[workload] of them, and reports the end-to-end metrics: the
  median operation time, peak resident memory and set-up time.
* ``--trace 1`` wraps the package's public functions (see tracing.py) and
  runs exactly TRACED_OPS[workload] operations, so that every count it
  reports repeats exactly for a given seed.  It reports per-operation layer
  metrics.

The last line of standard output is the JSON result; notes go before it.
Exits non-zero, printing no result, when the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
TRACED_OPS = {"oneshot-n8": 8, "battery-k4": 6, "circuits-n9": 16}
# An untraced run goes on past --seconds until it has attempted this many
# operations: a degenerate-key retry costs 6-12 s, and the median of a run
# that retries left with two or three operations says nothing.
MIN_OPS = {"oneshot-n8": 8, "battery-k4": 6, "circuits-n9": 12}


def set_up(name: str, seed: int, work: Path) -> tuple[Path, list[float]]:
    """Build the input pool SETUP_REPS times in fresh interpreters; keep the last."""
    times = []
    for rep in range(SETUP_REPS):
        pool = work / f"pool{rep}"
        t0 = perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
        subprocess.run([sys.executable, str(HERE / "workloads.py"), name, str(seed), str(pool)], check=True)
        times.append(perf_counter() - t0)
        if rep:
            shutil.rmtree(work / f"pool{rep - 1}")
    return pool, times


def run_ops(workload, work: Path, seconds: float, least: int, most: int | None, tracer=None) -> dict:
    """Run at least `least` and at most `most` operations, and more until
    `seconds` have passed; check each one.

    Only the operation itself is timed (and traced); building later inputs
    and checking outputs happen between operations.
    """
    times, failed, wrong, checked = [], 0, 0, False
    start = perf_counter()
    i = 0
    while (most is None or i < most) and (i < least or perf_counter() - start < seconds):
        workload.build(i)
        out = work / f"op{i:05d}"
        out.mkdir()
        try:
            if tracer:
                tracer.active = True
            t0 = perf_counter()
            try:
                ctx = workload.run_op(i, out)
            finally:
                elapsed = perf_counter() - t0
                if tracer:
                    tracer.active = False
            try:
                workload.check(i, out, ctx, full=checked == 0)
            except workloads.OpFailed:
                wrong += 1
                raise
            checked = True
            times.append(elapsed)
        except workloads.OpFailed as exc:
            failed += 1
            print(f"operation {i} failed: {exc}", file=sys.stderr)
        except Exception:  # a crash in one operation must not end the run
            failed += 1
            print(f"operation {i} crashed:\n{traceback.format_exc()}", file=sys.stderr)
        shutil.rmtree(out)
        i += 1
    return {"times": times, "attempted": i, "failed": failed, "correct": checked and not wrong}


def measure(workload, work: Path, seconds: float, trace: bool, setup_times: list[float]) -> dict:
    """Run the workload's operations; returns the result object to print."""
    if trace:
        ops = TRACED_OPS[workload.name]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            res = run_ops(workload, work, 0.0, ops, ops, tracer)
        finally:
            tracer.uninstall()
        metrics, notes = tracer.results(ops)
        for note in notes:
            print(note)
        metrics["cipher.key_redraws"] = {"value": workload.redraws / ops, "unit": "count"}
        if res["times"]:
            metrics["trace.op_s.p50"] = {"value": statistics.median(res["times"]), "unit": "s"}
    else:
        res = run_ops(workload, work, seconds, MIN_OPS[workload.name], None)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        if res["times"]:
            metrics["op_s.p50"] = {"value": statistics.median(res["times"]), "unit": "s"}
    print(
        f"{workload.name} seed {workload.seed}: {len(res['times'])} of {res['attempted']} "
        f"operations ok, {workload.redraws} degenerate-key redraws, set-up runs "
        + ", ".join(f"{t:.3f}" for t in setup_times) + " s"
    )
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = workloads.load_program()
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
    try:
        pool, setup_times = set_up(args.workload, args.seed, work)
        workload = workloads.WORKLOADS[args.workload](pool, args.seed, cli)
        result = measure(workload, work, args.seconds, bool(args.trace), setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
