"""Print benchmark results, or diff two sets of them.

    python3 perfbench/report.py [PATH ...]          # default: perfbench/out
    python3 perfbench/report.py --diff BASE NEW     # each a result file or a directory

A PATH is a result file written by run.py or a directory of them.  Results
of one workload and trace mode are combined by taking the median of each
metric over the files.  The report prints the end-to-end metrics with one
row per workload, every per-layer metric by name and unit, the median time
of each op, node counts against the reference counts, failures and the
cProfile table of a traced run.

The diff compares medians.  It flags an end-to-end metric that got worse
by more than its bound in BENCHMARK.json, a per-layer time of at least
MIN_S that moved by more than MOVED (a share of the base value; the tracing
overhead, a difference of two noisy sums, is shown but not flagged), any
change in a count, any
change in an op's node count, any change in the certificate digest and
any rise in the share of attempted checks that failed.  It exits with 1
when anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Between four traced runs per workload at the commit that introduced the
# benchmark, the spread (inter-quartile range over median) of each layer time
# of at least MIN_S was at most 20%; the overhead's was 24-420%.
MOVED = 0.25
MIN_S = 0.05


def load(paths: list[Path]) -> dict:
    """(workload, trace) -> list of result dicts."""
    groups: dict = {}
    for path in paths:
        files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
        for f in files:
            r = json.loads(f.read_text(encoding="utf-8"))
            groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return groups


def medians(results: list) -> dict:
    """metric -> (median value, unit)."""
    names = results[0]["metrics"]
    return {
        name: (statistics.median(r["metrics"][name]["value"] for r in results), m["unit"])
        for name, m in names.items()
    }


def _fmt(v) -> str:
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer() and abs(v) >= 1):
        return f"{int(v):,}"
    return f"{v:.4g}"


def report(groups: dict) -> None:
    e2e = {w: rs for (w, t), rs in sorted(groups.items()) if t == 0}
    if e2e:
        names = list(next(iter(e2e.values()))[0]["metrics"])
        units = next(iter(e2e.values()))[0]["metrics"]
        head = ["workload", "runs"] + [f"{n} [{units[n]['unit']}]" for n in names] + ["failed/attempted", "digest"]
        print("end-to-end (medians over runs)")
        rows = []
        for w, rs in e2e.items():
            med = medians(rs)
            digests = {r["determinism"]["digest"][:12] for r in rs}
            fails = sum(r["failed"] for r in rs)
            attempted = sum(r["attempted"] for r in rs)
            rows.append([w, str(len(rs))] + [_fmt(med[n][0]) for n in names]
                        + [f"{fails}/{attempted}", ",".join(sorted(digests))])
        _table(head, rows)
    traced = {w: rs for (w, t), rs in sorted(groups.items()) if t == 1}
    if traced:
        print("\nper-layer (traced runs; medians over runs)")
        workloads = list(traced)
        meds = {w: medians(rs) for w, rs in traced.items()}
        first = meds[workloads[0]]
        _table(["metric [unit]"] + workloads,
               [[f"{n} [{first[n][1]}]"] + [_fmt(meds[w][n][0]) for w in workloads] for n in first])
    for (w, t), rs in sorted(groups.items()):
        print(f"\n{w} trace={t}: {len(rs)} run(s), seeds {sorted(r['seed'] for r in rs)}")
        env = rs[0]["env"]
        cal = env["calibration_s"]
        print(f"  python {env['python']}, nproc {env['nproc']}, calibration loop "
              f"q1/median/q3 = {cal['q1']:.4f}/{cal['median']:.4f}/{cal['q3']:.4f} s")
        ops = {op: statistics.median(r["op_wall_s"][op] for r in rs if op in r["op_wall_s"])
               for op in rs[0]["op_wall_s"]}
        nodes = rs[0]["determinism"]["nodes"]
        ref = rs[0]["determinism"]["seed_nodes"]
        print("  median normalized op time over passes, node count, op")
        for op in nodes:
            flag = "" if ref.get(op) in (None, nodes[op]) else f"  NODES DIFFER from reference {ref[op]:,}"
            n = "" if nodes[op] is None else f"{nodes[op]:>9,} nodes"
            print(f"  {ops.get(op, float('nan')):9.3f} s {n:>15}  {op}{flag}")
        for r in rs:
            for f in r["failures"]:
                print(f"  FAILED (seed {r['seed']}) {f['op']}: {'; '.join(f['problems'])}")
            for check, ok in r["checks"].items():
                if not ok:
                    print(f"  FAILED (seed {r['seed']}) self-check: {check}")
        if t == 1:
            r = rs[0]
            print(f"  tracing overhead: traced wall_s {r['traced_wall_s']:.3f} s - untraced "
                  f"{r['untraced_wall_s']:.3f} s = {r['traced_wall_s'] - r['untraced_wall_s']:.3f} s")
            prof = r["profile"]
            total = prof["total_s"]
            print(f"  cProfile top-15 self time (seed {r['seed']}, one pass, {total:.3f} s profiled):")
            for row in prof["top15_self"]:
                print(f"    {row['self_s']:8.3f} s self {row['cum_s']:8.3f} s cum ({row['cum_s'] / total:4.0%})"
                      f" {row['ncalls']:>10,}  {row['function']}")


def _table(head: list, rows: list) -> None:
    widths = [max(len(str(x)) for x in col) for col in zip(head, *rows)]
    for row in [head] + rows:
        print("  ".join(str(x).ljust(wd) if i == 0 else str(x).rjust(wd)
                        for i, (x, wd) in enumerate(zip(row, widths))))


def _bounds() -> dict:
    spec = HERE.parent / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    data = json.loads(spec.read_text(encoding="utf-8"))
    return {m["name"]: (m["bound"], m["better"]) for m in data["end_to_end"]}


def _fail_frac(results: list) -> float:
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def diff(base: dict, new: dict) -> int:
    """Print the comparison; return the number of flagged changes."""
    bounds = _bounds()
    flagged = 0
    for key in sorted(set(base) & set(new)):
        w, t = key
        b, n = medians(base[key]), medians(new[key])
        print(f"{w} trace={t}: base {len(base[key])} run(s), new {len(new[key])} run(s)")
        for name in b:
            if name not in n:
                continue
            bv, unit = b[name]
            nv = n[name][0]
            rel = (nv - bv) / bv if bv else (0.0 if nv == bv else float("inf"))
            flag = ""
            if t == 0 and name in bounds:
                bound, better = bounds[name]
                worse = rel if better == "lower" else -rel
                if worse > bound:
                    flag = f"WORSE beyond bound {bound:.0%}"
            elif unit in ("count",) and nv != bv:
                flag = "COUNT CHANGED"
            elif unit != "count" and name != "trace.overhead_s" and abs(rel) > MOVED \
                    and (unit != "s" or max(bv, nv) >= MIN_S):
                flag = "MOVED"
            flagged += bool(flag)
            print(f"  {name:<44} {_fmt(bv):>14} -> {_fmt(nv):>14} {unit:<6} {rel:+8.1%}  {flag}")
        bf, nf = _fail_frac(base[key]), _fail_frac(new[key])
        if nf > bf:
            flagged += 1
            print(f"  FAILURES ROSE {bf:.2%} -> {nf:.2%} of attempted")
        bd, nd = base[key][0]["determinism"], new[key][0]["determinism"]
        if bd["digest"] != nd["digest"]:
            flagged += 1
            print(f"  CERTIFICATE DIGEST CHANGED {bd['digest'][:16]} -> {nd['digest'][:16]}")
        for op, bn in bd["nodes"].items():
            nn = nd["nodes"].get(op)
            if nn != bn:
                flagged += 1
                print(f"  NODES CHANGED {op}: {bn} -> {nn}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]} trace={key[1]}: only in {'base' if key in base else 'new'}")
    print(f"{flagged} flagged change(s)")
    return flagged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="*", type=Path)
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    if args.diff:
        return 1 if diff(load([args.diff[0]]), load([args.diff[1]])) else 0
    groups = load(args.paths or [HERE / "out"])
    if not groups:
        print("no results found", file=sys.stderr)
        return 1
    report(groups)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
