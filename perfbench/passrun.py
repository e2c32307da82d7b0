"""One pass of one workload in a fresh interpreter; `run.py` starts it.

    python3 perfbench/passrun.py MODE WORKLOAD --seed N --t0 T --scratch DIR --out FILE

MODE is one of
  setup      import zerosum and build the inputs, nothing else;
  plain      an untraced pass: every op once, timed, then checked;
  traced     the same pass with the wrappers of `tracing` installed;
  profile    the pass under cProfile, for its top-15 self-time table;
  coverage   the tiny self-test pass under the wrappers: every wrapped
             function must be reached, so that a missed patch fails loudly;
  selfcheck  s(C4^2) at width 1 and at width 2 must give identical
             certificates (not timed).
T is the CLOCK_MONOTONIC reading taken by the parent just before it started
this interpreter, so set-up time covers interpreter start, `import zerosum`
and building the inputs.  The result is written as JSON to FILE.

Every time is also given normalized to the speed of the machine at that
moment: a fixed calibration loop runs after set-up and after every op, and a
time t next to calibration samples c reads t * REF_S / mean(c), the time on a
machine where the loop takes REF_S.  On a shared VM whose speed switches
between levels for seconds to minutes, that ratio is what stays put.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import zerosum  # noqa: E402  (set-up time includes this import)

import workloads  # noqa: E402


REF_S = 0.02
# Tables of the calibration loop: twelve affine permutations of 64 points.
_PERMS = [tuple((i * k + j) % 64 for i in range(64)) for k in (1, 3, 5, 7, 9, 11) for j in (0, 5)]


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop, about REF_S on a 2-CPU VM.

    It does what the search spends its time on: sorting short lists, indexing
    permutation tables, building sets and dicts.  A loop of integer
    arithmetic alone slowed down more than the search on the slow levels of
    the VM this was written on, and so over-corrected.
    """
    start = time.perf_counter()
    for r in range(400):
        seq = [(r * 7 + i * 13) % 64 for i in range(12)]
        best = sorted(seq)
        for perm in _PERMS:
            image = sorted([perm[x] for x in seq])
            if image < best:
                best = image
        sums = {(a + b) % 64 for a in seq for b in best}
        counts = {x: len(sums) for x in sums}
        sum(counts.values())
    return time.perf_counter() - start


def _rotated(ops: list, seed: int) -> list:
    k = seed % len(ops)
    return ops[k:] + ops[:k]


def _digest(records: list) -> str:
    """One digest over every op's canonical payload, in the workload's own op order."""
    h = hashlib.sha256()
    for rec in sorted(records, key=lambda r: r["index"]):
        h.update(f"{rec['op']}\t{rec['payload_sha256']}\n".encode())
    return h.hexdigest()


def run_pass(ops: list, seed: int, cal_before: float, tracer=None) -> dict:
    """Every op once, timed and then checked; cal_before is a calibration
    sample taken just before the first op."""
    records = []
    for index, op in _rotated(list(enumerate(ops)), seed):
        if tracer is not None:
            tracer.op_id = index
            tracer.active = True
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a failing op is scored, and the pass goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        cal_after = calibration_s()
        cal = (cal_before + cal_after) / 2
        cal_before = cal_after
        if error is None:
            try:
                problems = op.check(result)
                payload = op.payload(result)
                nodes = op.nodes(result)
            except Exception as exc:
                problems, payload, nodes = [f"check raised {type(exc).__name__}: {exc}"], "", None
        else:
            problems, payload, nodes = [error], "", None
        del result
        records.append({
            "index": index,
            "op": op.name,
            "wall_s": wall,
            "cal_s": cal,
            "norm_s": wall * REF_S / cal,
            "nodes": nodes,
            "seed_nodes": op.seed_nodes,
            "ok": not problems,
            "problems": problems,
            "source": op.source,
            "payload_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        })
    return {
        "wall_s": sum(r["wall_s"] for r in records),
        "norm_s": sum(r["norm_s"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
        "failed": sum(not r["ok"] for r in records),
        "digest": _digest(records),
    }


def _profile_pass(ops: list, seed: int) -> dict:
    import cProfile
    import pstats

    prof = cProfile.Profile()
    for _, op in _rotated(list(enumerate(ops)), seed):
        prof.enable()
        try:
            op.run()
        finally:
            prof.disable()
    stats = pstats.Stats(prof).stats
    rows = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:15]
    table = []
    for (path, line, func), (_cc, ncalls, tottime, cumtime, _callers) in rows:
        try:
            path = str(Path(path).resolve().relative_to(ROOT))
        except ValueError:
            pass
        table.append({"function": f"{path}:{line}({func})", "ncalls": ncalls,
                      "self_s": tottime, "cum_s": cumtime})
    return {"total_s": sum(row[2] for row in stats.values()), "top15_self": table}


def _selfcheck() -> dict:
    from zerosum import SearchConfig, make_group, search

    group = make_group((4, 4))
    one = search.invariant_value(group, "s", SearchConfig(parallel_width=1))[1].to_json()
    two = search.invariant_value(group, "s", SearchConfig(parallel_width=2))[1].to_json()
    return {"identical": one == two, "sha256": hashlib.sha256(one.encode()).hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "plain", "traced", "profile", "coverage", "selfcheck"))
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    tracer = None
    if args.mode in ("traced", "coverage"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "coverage":
        ops = workloads.selftest_ops(args.scratch)
    else:
        ops = workload.build(args.scratch)
    setup_s = time.monotonic() - args.t0
    cal = calibration_s()
    out = {"mode": args.mode, "setup_s": setup_s, "setup_norm_s": setup_s * REF_S / cal,
           "setup_cal_s": cal, "zerosum": zerosum.__version__}

    if args.mode in ("plain", "traced", "coverage"):
        out.update(run_pass(ops, args.seed, cal, tracer))
    elif args.mode == "profile":
        out.update(_profile_pass(ops, args.seed))
    elif args.mode == "selfcheck":
        out.update(_selfcheck())
    if tracer is not None:
        out["layers"] = tracer.metrics({r["index"]: REF_S / r["cal_s"] for r in out["ops"]})
        out["calls"] = dict(tracer.calls)
        expected = [name for name, *_ in tracing.TARGETS if name != "cli.main"]
        expected += ["cli.main.cold", "cli.main.warm"]
        if args.mode == "traced":
            expected = list(workload.expect_called)
        out["missed"] = [name for name in expected if tracer.calls[name] == 0]
    args.out.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
