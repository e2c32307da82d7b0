"""The benchmark's workloads: fixed exact problems with independently checked answers.

Every op is an exact problem without randomness.  Its inputs are built at
set-up time and bound into `Op.run`, the only timed call.  `Op.check`
decides whether the answer is right using `oracle` (which shares no code
with the library) and the expected values written here with their sources.
The `seed_nodes` figures are the node counts the search reported at the
commit that introduced this benchmark; a difference is reported, not failed,
because a pruning change may alter the tree on purpose.

Why these four workloads: each puts the cost in a different layer.  The
shares below are inclusive times under cProfile over one pass at the
commit that introduced this benchmark (cProfile inflates cheap, frequent
calls, so they show the split, not exact costs).  `exact_c3_3` spends about
55% in the canonicity test (11 non-identity symmetries) and 16% in state
push; `exact_mixed` spends about 14% in the canonicity test and 34% in
state push, its largest private cost (C3+C6 and C2+C6 have one non-identity
symmetry); `large_budgeted` spends about 78% building the per-root-job
context tables and closing the symmetries; `verify_persist` runs almost no
search and spends about two thirds building `subsum.ReachTable` rows for
`constructions`, the rest in `catalog` and the cache paths of the CLI,
which the three search workloads barely touch.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

STATUS_PROVED = "proved_exhaustive"
STATUS_REFUTED = "refuted_with_witness"
STATUS_EXHAUSTED = "budget_exhausted"

# Families of `zerosum construct`; build_family refuses the ones that do not
# apply to a given (n, r), and those are skipped.
FAMILY_NAMES = (
    "zero-block", "slide", "pivot", "braid", "span-carve-block",
    "span-carve-axes", "span-carve-axes-x", "span-carve-mixed", "lift",
)


@dataclass
class Op:
    """One timed call, its answer check and its determinism record."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]  # problems with the answer; empty means correct
    nodes: Callable[[object], int | None] = lambda result: None  # search_nodes for a search
    payload: Callable[[object], str] = lambda result: ""
    source: str = ""  # where the expected answer comes from
    seed_nodes: int | None = None


@dataclass
class Workload:
    name: str
    build: Callable[[Path], list]  # scratch dir -> ops
    # Nominal seconds of run time per untraced pass at the commit that
    # introduced this benchmark, the run's fixed checks included.  run.py
    # sets a run's pass count from it and --seconds alone, not from the speed
    # of the code under test, so every commit takes its statistics over the
    # same count.
    pass_s: float
    expect_called: tuple = ()  # wrapped functions a traced pass must see


def _moduli_name(moduli) -> str:
    if len(set(moduli)) == 1:
        return f"C{moduli[0]}^{len(moduli)}"
    return "+".join(f"C{m}" for m in moduli)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def search_nodes(result) -> int:
    """The node count of one search call's result, each search counted once.

    (value, certificate) from max_extremal_length or invariant_value: the
    certificate's count.  (members, {t: certificate}) from compute_c0_at or
    compute_c0: every certificate of one sweep carries the sweep's total,
    and constructions carry 0, so the maximum.  An enumeration report or a
    property certificate: its own count.
    """
    if isinstance(result, tuple):
        found = result[1]
        if isinstance(found, dict):
            return max((c.nodes for c in found.values()), default=0)
        return found.nodes
    return result.nodes


# -- op builders ------------------------------------------------------------------


def invariant_op(moduli, kind, *, expected=None, source="", budget=0, seed_nodes=None) -> Op:
    """invariant_value(G, kind).  With a node budget, budget_exhausted passes when
    the reported lower bound does not exceed the published value."""
    from zerosum import SearchConfig, make_group, search
    from zerosum.sequence import write_sequence

    group = make_group(moduli)
    cfg = SearchConfig(node_budget=budget)

    def check(result) -> list:
        value, cert = result
        problems = []
        allowed = (STATUS_PROVED,) if not budget else (STATUS_PROVED, STATUS_EXHAUSTED)
        if cert.status not in allowed:
            problems.append(f"status {cert.status}")
        if expected is not None:
            if cert.status == STATUS_PROVED and value != expected:
                problems.append(f"value {value}, published {expected}")
            if cert.status == STATUS_EXHAUSTED and value > expected:
                problems.append(f"lower bound {value} exceeds published {expected}")
        if value - 1 > 0:
            if cert.witness is None:
                problems.append("no witness")
            else:
                problems += oracle.extremal_witness_problems(
                    kind, write_sequence(cert.witness), tuple(moduli), value - 1
                )
        return problems

    label = f"{kind} {_moduli_name(moduli)}" + (f" budget={budget}" if budget else "")
    return Op(
        name=label,
        run=lambda: search.invariant_value(group, kind, cfg),
        check=check,
        nodes=search_nodes,
        payload=lambda result: result[1].to_json(),
        source=source or "no published value: status and witness only",
        seed_nodes=seed_nodes,
    )


def _c0_problems(moduli, targets, result, expected_members) -> list:
    from zerosum.sequence import write_sequence

    members, certs = result
    problems = []
    if sorted(certs) != sorted(targets):
        problems.append(f"certificates for {sorted(certs)}, asked {sorted(targets)}")
    for t, cert in sorted(certs.items()):
        if cert.status == STATUS_REFUTED:
            if cert.witness is None:
                problems.append(f"t={t}: refuted without a witness")
            else:
                problems += [
                    f"t={t}: {p}"
                    for p in oracle.zero_sum_short_free_problems(
                        write_sequence(cert.witness), tuple(moduli), t
                    )
                ]
        elif cert.status != STATUS_PROVED:
            problems.append(f"t={t}: status {cert.status}")
    if expected_members is not None and list(members) != list(expected_members):
        problems.append(f"members {members}, expected {list(expected_members)}")
    return problems


def _c0_payload(result) -> str:
    members, certs = result
    return _canonical({"members": members, "certs": {str(t): certs[t].payload() for t in sorted(certs)}})


def c0_at_op(moduli, targets, *, expected_members=None, source="", seed_nodes=None) -> Op:
    from zerosum import SearchConfig, make_group, search

    group = make_group(moduli)
    cfg = SearchConfig()
    targets = list(targets)
    return Op(
        name=f"compute_c0_at {_moduli_name(moduli)} t={targets[0]}..{targets[-1]}",
        run=lambda: search.compute_c0_at(group, targets, cfg),
        check=lambda result: _c0_problems(moduli, targets, result, expected_members),
        nodes=search_nodes,
        payload=_c0_payload,
        source=source or "no published value: status and witness only",
        seed_nodes=seed_nodes,
    )


def c0_op(moduli, d_value, eta_value, *, expected_members=None, source="", seed_nodes=None) -> Op:
    from zerosum import SearchConfig, compute_c0, make_group

    group = make_group(moduli)
    cfg = SearchConfig()
    targets = list(range(d_value + 1, eta_value))
    return Op(
        name=f"compute_c0 {_moduli_name(moduli)}",
        run=lambda: compute_c0(group, cfg, d_value=d_value, eta_value=eta_value),
        check=lambda result: _c0_problems(moduli, targets, result, expected_members),
        nodes=search_nodes,
        payload=_c0_payload,
        source=source or "no published value: status and witness only",
        seed_nodes=seed_nodes,
    )


def d0_op(moduli, c, *, source, seed_nodes=None) -> Op:
    from zerosum import SearchConfig, make_group, search

    group = make_group(moduli)
    cfg = SearchConfig()

    def check(cert) -> list:
        if cert.status == STATUS_PROVED and cert.claim.get("holds") is True:
            return []
        return [f"status {cert.status}, holds {cert.claim.get('holds')}; published: holds"]

    return Op(
        name=f"check_property_D0 {_moduli_name(moduli)} c={c}",
        run=lambda: search.check_property_D0(group, c, cfg),
        check=check,
        nodes=search_nodes,
        payload=lambda cert: cert.to_json(),
        source=source,
        seed_nodes=seed_nodes,
    )


def enumerate_op(moduli, length, *, expected_count, source, seed_nodes=None) -> Op:
    from zerosum import SearchConfig, make_group, search
    from zerosum.sequence import write_sequence

    group = make_group(moduli)
    cfg = SearchConfig()

    def check(report) -> list:
        problems = []
        if report.status != STATUS_PROVED:
            problems.append(f"status {report.status}")
        if report.count != expected_count:
            problems.append(f"{report.count} representatives, expected {expected_count}")
        if report.violations.get("sum_zero"):
            problems.append(f"{len(report.violations['sum_zero'])} with a nonzero sum")
        return problems

    def payload(report) -> str:
        return _canonical({
            "count": report.count,
            "nodes": report.nodes,
            "status": report.status,
            "violations": {k: [write_sequence(s) for s in v] for k, v in sorted(report.violations.items())},
        })

    return Op(
        name=f"enumerate_short_free {_moduli_name(moduli)} len={length}",
        run=lambda: search.enumerate_short_free(group, length, cfg, checks=("sum_zero",)),
        check=check,
        nodes=search_nodes,
        payload=payload,
        source=source,
        seed_nodes=seed_nodes,
    )


def families_op(n, r) -> Op:
    """build_family plus verify_family for every family that applies to C_n^r."""
    from zerosum import constructions
    from zerosum.sequence import write_sequence

    def run():
        out = {}
        for name in FAMILY_NAMES:
            try:
                spec = constructions.build_family(name, n, r)
            except ValueError:
                continue
            out[name] = (spec, constructions.verify_family(spec))
        return out

    def check(result) -> list:
        problems = []
        if not result:
            problems.append("no family applies")
        for name, (spec, lengths) in result.items():
            if spec.claimed_lengths is not None:
                lo, hi = spec.claimed_lengths
                if lengths != set(range(lo, hi + 1)):
                    problems.append(f"{name}: lengths {sorted(lengths)} != claimed [{lo}, {hi}]")
            members = list(spec.members())
            # re-check the first member always and the last one on small groups,
            # where the exhaustive sum enumeration stays cheap
            sample = members[:1] + (members[-1:] if n ** r <= 125 and len(members) > 1 else [])
            for seq in sample:
                text = write_sequence(seq)
                terms = oracle.parse_terms(text, (n,) * r)
                if not oracle.is_zero_sum(terms, (n,) * r):
                    problems.append(f"{name}: member of length {len(terms)} is not zero-sum")
                if not oracle.short_free(terms, (n,) * r):
                    problems.append(f"{name}: member of length {len(terms)} is not short free")
        return problems

    return Op(
        name=f"verify_family C{n}^{r}",
        run=run,
        check=check,
        payload=lambda result: _canonical({k: sorted(v[1]) for k, v in sorted(result.items())}),
        source="each family's claimed length window; members re-checked by the oracle",
    )


def catalog_subjects() -> list:
    """About 580 presentations: cubes C_n^r (n <= 64, r <= 5) and C_m + C_n with m | n."""
    subjects = {(n,) * r for n in range(2, 65) for r in range(1, 6)}
    subjects |= {(m, n) for n in range(3, 97) for m in range(2, n) if n % m == 0}
    return sorted(subjects)


def _prime_of_power(m: int) -> int | None:
    p = next(d for d in range(2, m + 1) if m % d == 0)
    while m % p == 0:
        m //= p
    return p if m == 1 else None


def _olson_d(moduli) -> int | None:
    """D(G) = 1 + sum(n_i - 1) for p-groups and for rank <= 2 [Olson 1969; van Emde Boas 1969]."""
    ranked = len(moduli) <= 2 and all(b % a == 0 for a, b in zip(moduli, moduli[1:]))
    primes = {_prime_of_power(m) for m in moduli}
    if ranked or (len(primes) == 1 and None not in primes):
        return 1 + sum(m - 1 for m in moduli)
    return None


def catalog_op(scratch: Path, subjects=None) -> Op:
    """instantiate_for over the subjects, infer, consistency_check, save and load."""
    from zerosum import catalog

    subjects = catalog_subjects() if subjects is None else subjects

    def run():
        store = catalog.FactStore()
        store.add_all(catalog.builtin_facts())
        for subject in subjects:
            store.add_all(catalog.instantiate_for(subject))
        derived = catalog.infer(store)
        report = catalog.consistency_check(store)
        path = Path(tempfile.mkdtemp(dir=scratch)) / "facts.jsonl"
        store.save(path)
        loaded = catalog.FactStore.load(path)
        return store, derived, report, loaded

    def check(result) -> list:
        store, derived, report, loaded = result
        problems = [f"violation: {v}" for v in report.violations]
        if not derived:
            problems.append("inference derived nothing")
        if sorted(loaded.facts) != sorted(store.facts):
            problems.append("save/load round trip changed the fact set")
        for subject in subjects:
            want = _olson_d(subject)
            have = store.invariant_value(subject, "D")
            if want is not None and have is not None and have != want:
                problems.append(f"D{subject} = {have}, published {want}")
        checks = {((3, 3, 3), "eta"): 17, ((3, 3, 3, 3), "eta"): 39, ((5, 5, 5), "eta"): 33}
        for (subject, name), want in checks.items():
            if subject in subjects and store.invariant_value(subject, name) != want:
                problems.append(f"{name}{subject} = {store.invariant_value(subject, name)}, published {want}")
        return problems

    return Op(
        name=f"catalog {len(subjects)} subjects",
        run=run,
        check=check,
        payload=lambda result: _canonical({"facts": sorted(result[0].facts), "derived": len(result[1])}),
        source="D of p-groups and rank 2 [Olson 1969; van Emde Boas 1969]; eta(C3^3)=17 [Kemnitz 1983]; "
        "eta(C3^4)=39 [Edel et al. 2007]; eta(C5^3)=33 [8n-7 for n=5]; no consistency violation",
    )


# Each command runs cold, then warm, in one fresh cache directory.  The
# certify commands read the certificates the first two commands wrote.
CLI_COMMANDS = (
    ("invariant", ["invariant", "C4^2", "eta", "--json", "{dir}/eta.json"], 0, "eta(C4^2) = 10"),
    ("c0", ["c0", "C3^4", "--t", "36", "--json", "{dir}/c0.json"], 1, "t=36 NOT in C0"),
    ("certify-proved", ["certify", "{dir}/eta.json"], 0, "replay: IDENTICAL"),
    ("certify-refuted", ["certify", "{dir}/c0.json"], 0, "witness re-validation: VALID"),
)


def cli_op(scratch: Path) -> Op:
    """cli.main cold then warm for each command in a fresh ZEROSUM_CACHE_DIR."""
    from zerosum import cli

    def run():
        cache = tempfile.mkdtemp(dir=scratch)
        saved = os.environ.get("ZEROSUM_CACHE_DIR")
        os.environ["ZEROSUM_CACHE_DIR"] = cache
        out = []
        try:
            for name, argv, _, _ in CLI_COMMANDS:
                argv = [a.replace("{dir}", cache) for a in argv]
                for phase in ("cold", "warm"):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                        code = cli.main(argv)
                    out.append((name, phase, code, buf.getvalue()))
        finally:
            if saved is None:
                os.environ.pop("ZEROSUM_CACHE_DIR", None)
            else:
                os.environ["ZEROSUM_CACHE_DIR"] = saved
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(Path(cache).glob("*.json"))}
        return out, files

    def check(result) -> list:
        runs, files = result
        problems = []
        want = {name: (code, text) for name, _, code, text in CLI_COMMANDS}
        for name, phase, code, stdout in runs:
            if code != want[name][0]:
                problems.append(f"{name} {phase}: exit {code}, expected {want[name][0]}")
            if want[name][1] not in stdout:
                problems.append(f"{name} {phase}: output lacks {want[name][1]!r}")
            if name == "invariant" and phase == "warm" and "(cached)" not in stdout:
                problems.append("warm invariant did not read the cache")
        cert = json.loads(files.get("c0.json", "{}"))
        if cert.get("witness"):
            problems += oracle.zero_sum_short_free_problems(cert["witness"], (3, 3, 3, 3), 36)
        else:
            problems.append("c0 wrote no witness")
        return problems

    return Op(
        name="cli cold+warm",
        run=run,
        check=check,
        # exit codes and the certificate files; stdout carries wall times
        payload=lambda result: _canonical({
            "codes": [(n, p, c) for n, p, c, _ in result[0]],
            "files": result[1],
        }),
        source="eta(C4^2)=10 [Geroldinger-Halter-Koch 2006]; [30,36] outside C0(C3^4) (paper Prop. 4.10)",
    )


# -- workloads --------------------------------------------------------------------
#
# Ops are kept to about a second or less, so that a run of 28 s repeats
# every op several times.  On a shared 2-CPU VM the speed of one process
# switches between levels for seconds at a time, so a single 10 s search
# lands in a different mix of them on every run, while a short op stays
# next to the calibration sample that normalizes it (see passrun.py).  Searches that take longer (s(C3^3), the
# C0 sweep of C3^3 over [13, 15], the length-16 enumeration, s(C3+C6),
# eta(C6^3)) are left out for that reason; each layer they load is loaded
# by a shorter op below.

_C33 = (3, 3, 3)
_D0_SOURCE = "C3^3 has Property D0 with c = 9 (cited as [FGZ] by the source paper)"


def _exact_c3_3(scratch: Path) -> list:
    return [
        invariant_op(_C33, "D", expected=7, source="D(C_p^r)=1+r(p-1) [Olson 1969]", seed_nodes=3509),
        invariant_op(_C33, "eta", expected=17, source="eta(C3^3)=17 [Kemnitz 1983]", seed_nodes=5575),
        invariant_op(_C33, "g", seed_nodes=2180),
        # settled by a construction, without search: it keeps the C0 entry point
        # and known_witnesses in this workload at about 1 ms
        c0_at_op(_C33, [16], expected_members=[], seed_nodes=0,
                 source="16 is outside C0(C3^3) (source paper): the doubled 8-cap"),
        d0_op(_C33, 9, source=_D0_SOURCE, seed_nodes=7601),
        enumerate_op(_C33, 18, expected_count=0, seed_nodes=2720,
                     source="eta(C3^3)=17 [Kemnitz 1983]: no short-free sequence of length 18"),
    ]


def _rank2(m, n):
    """Published rank-2 values for m | n [Olson 1969; Geroldinger-Halter-Koch 2006, Thm 5.8.3]."""
    return {"D": m + n - 1, "eta": 2 * m + n - 2, "s": 2 * m + 2 * n - 3}


_RANK2_SOURCE = "rank 2, m | n [Olson 1969; Geroldinger-Halter-Koch 2006, Thm 5.8.3]"


def _exact_mixed(scratch: Path) -> list:
    seed_nodes = {
        ((3, 6), "D"): 1346, ((3, 6), "eta"): 1138, ((3, 6), "f"): 189, ((3, 6), "g"): 3048,
        ((2, 6), "s"): 6189,
        ((4, 4), "D"): 342, ((4, 4), "eta"): 352, ((4, 4), "s"): 4725,
        ((4, 4), "f"): 39, ((4, 4), "g"): 178,
        ((2, 2, 2, 2), "D"): 28, ((2, 2, 2, 2), "eta"): 5, ((2, 2, 2, 2), "s"): 6,
        ((2, 2, 2, 2), "f"): 5, ((2, 2, 2, 2), "g"): 6,
    }
    published = {
        (3, 6): _rank2(3, 6), (2, 6): _rank2(2, 6), (4, 4): _rank2(4, 4),
        (2, 2, 2, 2): {"D": 5, "eta": 16, "s": 17},
    }
    sources = {(2, 2, 2, 2): "D=r+1 [Olson 1969], eta=2^r, s=2^r+1 for C2^r"}
    ops = [
        invariant_op(moduli, kind, expected=published[moduli].get(kind),
                     source=sources.get(moduli, _RANK2_SOURCE) if kind in published[moduli] else "",
                     seed_nodes=nodes)
        for (moduli, kind), nodes in seed_nodes.items()
    ]
    ops.append(c0_op((3, 6), 8, 10, seed_nodes=1451))
    ops.append(c0_op((4, 4), 7, 10, expected_members=[8, 9], seed_nodes=745,
                     source="C0(C4^2)={8,9}: [2q,3q-2] lies in C0(C_q^2) (paper Thm B)"))
    return ops


def _large_budgeted(scratch: Path) -> list:
    return [
        invariant_op((3, 3, 3, 3), "eta", budget=20, expected=39, seed_nodes=290,
                     source="eta(C3^4)=39 [Edel et al. 2007]"),
        invariant_op((4, 4, 4), "s", budget=20, seed_nodes=724),
        invariant_op((5, 5, 5), "f", budget=20, seed_nodes=181),
        invariant_op((2,) * 7, "eta", expected=128, seed_nodes=8, source="eta(C2^r)=2^r"),
    ]


def _verify_persist(scratch: Path) -> list:
    ops = [families_op(n, 3) for n in range(3, 8)]
    ops.append(families_op(3, 4))
    ops.append(c0_at_op((3, 3, 3, 3), range(30, 37), expected_members=[], seed_nodes=0,
                        source="[30,36] is outside C0(C3^4), by constructions (paper Prop. 4.10)"))
    ops.append(catalog_op(scratch))
    ops.append(cli_op(scratch))
    return ops


_SEARCH = ("search.max_extremal_length", "group.symmetries", "group.close_symmetries",
           "group.AbelianGroup.index_of", "group.AbelianGroup.coords_of")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact_c3_3", _exact_c3_3, 5.5,
                 _SEARCH + ("search.compute_c0_at", "search.enumerate_short_free",
                            "search.check_property_D0", "constructions.known_witnesses")),
        Workload("exact_mixed", _exact_mixed, 2.0, _SEARCH + ("search.compute_c0_at",)),
        Workload("large_budgeted", _large_budgeted, 4.0, _SEARCH),
        Workload("verify_persist", _verify_persist, 3.1,
                 ("constructions.verify_family", "constructions.build_family",
                  "subsum.ReachTable", "subsum.find_short_zero_sum", "catalog.instantiate_for",
                  "catalog.infer", "catalog.consistency_check", "catalog.FactStore.load",
                  "catalog.FactStore.save", "cli.main.cold", "cli.main.warm",
                  "search.Certificate.to_json", "search.Certificate.from_json")),
    )
}


def selftest_ops(scratch: Path) -> list:
    """A tiny pass that reaches every wrapped function, for the coverage check.

    Answers are not checked here; the workloads check them.
    """
    from zerosum import SearchConfig, make_group, search, subsum
    from zerosum.sequence import Sequence

    g33 = make_group((3, 3))
    cfg = SearchConfig()
    seq = Sequence.from_items(g33, [(1, 2), (3, 2)])
    ops = [
        invariant_op((2, 2, 2), "D"),
        # t=5 is settled by a construction, t=6 by search
        c0_at_op((3, 3), [5, 6]),
        enumerate_op((3, 3), 4, expected_count=None, source=""),
        # fails, so search re-checks the counterexample through subsum
        Op("check_property_D0 C3^2 c=3", lambda: search.check_property_D0(g33, 3, cfg), check=_unchecked),
        Op("subsum", lambda: (subsum.find_nonempty_zero_sum(seq),
                              subsum.find_zero_sum_exact_length(seq, 3)), check=_unchecked),
        families_op(3, 3),
        catalog_op(scratch, [(3, 3, 3), (2, 4), (5, 5)]),
        cli_op(scratch),
    ]
    for op in ops:
        op.check = _unchecked
    return ops


def _unchecked(result) -> list:
    return []
