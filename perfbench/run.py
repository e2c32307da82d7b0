"""Benchmark of the zerosum engine: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs only the standard library.
Every pass runs in a fresh interpreter (`passrun.py`) at parallel width 1;
load comes from that one process.

Times are normalized to the speed of the machine at the moment they were
taken: `passrun.py` runs a fixed calibration loop after set-up and after
every op, and reports each time as t * REF_S / (calibration time next to
it), the time on a machine where the loop takes REF_S = 0.02 s.  On a shared
VM the speed of a process switches between levels about 2x apart, for
seconds to minutes, and a whole run can fall on one level; the ratio stays
put (see README.md).

--trace 0 runs a fixed number of untraced passes, int(S / pass_s) with the
workload's nominal pass time pass_s from `workloads`, so that every commit
takes its statistics over the same count; the run takes about S seconds at
the commit that introduced the benchmark.  It reports the end-to-end metrics:
  wall_s       the sum over ops of each op's median normalized time over
               the passes;
  setup_s      interpreter start to ready: `import zerosum` plus building the
               inputs, normalized (median over at least five interpreters);
  peak_rss_mb  ru_maxrss of the pass process (median over passes).
--trace 1 alternates untraced and traced passes, max(2, round(S / (2 pass_s)))
of each, then profiles one pass under cProfile.  It reports the per-layer
metrics of `tracing`: each time is normalized like the op it ran in, and is
the median over the traced passes; the tracing overhead is wall_s of the
traced passes minus wall_s of the untraced ones.  Before that, a tiny pass
checks that every wrapper is reached.
Either mode makes fewer passes only when the next would not end within
RUN_LIMIT_S; it then says so on standard error and in the result.

The seed only rotates the order of the ops within a pass.  Every answer is
checked (`workloads`, `oracle`); failed ops are reported as `failed` out of
`attempted`.  Each run also checks that s(C4^2) gives byte-identical
certificates at width 1 and 2, records the node count of every op and a
digest of all certificates, the Python version, the CPU count, the
quartiles of the calibration samples and the raw, unnormalized times.  The full result goes to
perfbench/out/<workload>-seed<N>-trace<0|1>.json; `report.py` prints and
diffs those files.  The last line of standard output is the summary JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every run must end well within 180 s
SAFETY_RESERVE_S = 15  # set-up samples, or the profile pass of a traced run


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, scratch: Path, started: float) -> None:
        self.workload = workload
        self.scratch = scratch
        self.started = started
        self.n = 0

    def child(self, mode: str, seed: int = 0) -> dict:
        self.n += 1
        out = self.scratch / f"{self.n}-{mode}.json"
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before a pass could start")
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "passrun.py"), mode, self.workload,
               "--seed", str(seed), "--t0", repr(t0), "--scratch", str(self.scratch),
               "--out", str(out)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
            raise BenchError(f"{mode} pass exceeded the run's time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(out.read_text(encoding="utf-8"))


def _env(passes: list) -> dict:
    calibration = [p["setup_cal_s"] for p in passes] + [r["cal_s"] for p in passes for r in p["ops"]]
    q1, q2, q3 = statistics.quantiles(calibration, n=4)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "calibration_s": {"min": min(calibration), "q1": q1, "median": q2, "q3": q3,
                          "max": max(calibration), "samples": len(calibration)},
    }


def _op_times(passes: list[dict], stat=statistics.median, key: str = "norm_s") -> dict:
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for rec in p["ops"]:
            per_op.setdefault(rec["op"], []).append(rec[key])
    return {op: stat(v) for op, v in per_op.items()}


def _determinism(p: dict) -> dict:
    return {
        "digest": p["digest"],
        "nodes": {r["op"]: r["nodes"] for r in sorted(p["ops"], key=lambda r: r["index"])},
        "seed_nodes": {r["op"]: r["seed_nodes"] for r in sorted(p["ops"], key=lambda r: r["index"])},
    }


def _wall(passes: list, key: str = "norm_s") -> float:
    """wall_s: the sum over ops of each op's median normalized time over the passes."""
    return sum(_op_times(passes, key=key).values())


def _make_passes(runner: Runner, count: int, make) -> bool:
    """Call make(i) for i < count, each making one or more passes; stop early only
    when the next round would not fit in the run's time limit.  True if cut."""
    slowest = 0.0
    for i in range(count):
        elapsed = time.monotonic() - runner.started
        if i and elapsed + slowest + SAFETY_RESERVE_S > RUN_LIMIT_S:
            print(f"warning: {count - i} of {count} pass rounds left out to end within "
                  f"{RUN_LIMIT_S} s; statistics are over fewer passes", file=sys.stderr)
            return True
        t0 = time.monotonic()
        make(i)
        slowest = max(slowest, time.monotonic() - t0)
    return False


def bench(name: str, seed: int, seconds: int, trace: bool, scratch: Path) -> tuple[dict, dict]:
    started = time.monotonic()
    workload = workloads.WORKLOADS[name]
    runner = Runner(name, scratch, started)
    runner.child("setup")  # warm-up: byte-compiles the sources once; not a sample
    selfcheck = runner.child("selfcheck")
    checks = [("width 1 = width 2 certificates", selfcheck["identical"])]
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "selfcheck": selfcheck}
    plain: list = []
    if not trace:
        planned = max(1, int(seconds / workload.pass_s))
        cut = _make_passes(runner, planned, lambda i: plain.append(runner.child("plain", seed + i)))
        passes = plain
        setups = list(passes)
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(runner.child("setup"))
        metrics = {
            "wall_s": (_wall(passes), "s"),
            "setup_s": (statistics.median(p["setup_norm_s"] for p in setups), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
        result.update({
            "raw_wall_s": _wall(passes, "wall_s"),
            "raw_setup_s": statistics.median(p["setup_s"] for p in setups),
            "setup_samples_s": [p["setup_norm_s"] for p in setups],
        })
    else:
        coverage = runner.child("coverage")
        checks.append(("every wrapper reached by the self-test pass", not coverage["missed"]))
        traced: list = []

        def pair(i: int) -> None:
            plain.append(runner.child("plain", seed + i))
            traced.append(runner.child("traced", seed + i))

        planned = max(2, round(seconds / (2 * workload.pass_s)))
        cut = _make_passes(runner, planned, pair)
        passes = plain + traced
        checks.append(("every expected wrapper reached by every traced pass",
                       not any(t["missed"] for t in traced)))
        layers, counts_agree = tracing.combine([t["layers"] for t in traced])
        checks.append(("every traced pass gives the same counts", counts_agree))
        layers["trace.overhead_s"] = _wall(traced) - _wall(plain)
        metrics = {m: (layers[m], unit) for m, unit in tracing.LAYER_METRICS}
        profile = runner.child("profile", seed)
        result.update({
            "coverage_missed": coverage["missed"],
            "traced_missed": sorted({m for t in traced for m in t["missed"]}),
            "untraced_wall_s": _wall(plain),
            "traced_wall_s": _wall(traced),
            "traced_op_wall_s": _op_times(traced),
            "calls": traced[0]["calls"],
            "profile": profile,
        })
    checks.append(("every pass gives the same certificates", len({p["digest"] for p in passes}) == 1))
    attempted = sum(len(p["ops"]) for p in passes) + len(checks)
    failed = sum(p["failed"] for p in passes) + sum(not ok for _, ok in checks)
    result.update({
        "env": _env(passes),
        "checks": dict(checks),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "pass_rounds": {"planned": planned, "cut": cut},
        "passes": [{"wall_s": p["wall_s"], "setup_s": p["setup_s"], "peak_rss_mb": p["peak_rss_mb"],
                    "mode": p["mode"]} for p in passes],
        "op_wall_s": _op_times(plain),
        "op_samples_s": _op_times(plain, list),
        "op_raw_samples_s": _op_times(plain, list, "wall_s"),
        "failures": [{"op": r["op"], "problems": r["problems"]}
                     for p in passes for r in p["ops"] if not r["ok"]],
        "determinism": _determinism(passes[0]),
        "attempted": attempted,
        "failed": failed,
        "run_s": time.monotonic() - started,
    })
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }
    return result, summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "zerosum" / "__init__.py").is_file():
        print(f"error: no zerosum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        result, summary = bench(args.workload, args.seed, args.seconds, bool(args.trace), scratch)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"result written to {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
