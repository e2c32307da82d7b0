"""Command-line front end: run computations, verify constructions, manage facts.

Exit codes: 0 = proved/ok, 1 = refuted (witness emitted) or failed check,
2 = budget exhausted, 3 = usage error.  Every verb is deterministic.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

from . import catalog, constructions, search
from .group import SYMMETRY_LEVELS, AbelianGroup, parse_group_spec
from .sequence import Sequence, write_sequence
from .search import (
    Certificate,
    SearchConfig,
    STATUS_EXHAUSTED,
    STATUS_PROVED,
    STATUS_REFUTED,
    TOOL_VERSION,
    status_exit_code,
)

USAGE_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def cache_dir() -> Path:
    return Path(os.environ.get("ZEROSUM_CACHE_DIR") or Path.home() / ".cache" / "zerosum")


def _cache_key(verb: str, group_spec: str, cfg: SearchConfig, extra: str = "") -> str:
    """The entry's name: the config enters as the fields its certificate records."""
    blob = "|".join([TOOL_VERSION, verb, group_spec, *map(str, cfg.recorded().values()), extra])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _cache_load(path: Path, group_spec: str | None = None) -> Certificate | None:
    """The invariant certificate cached at path, or None if it does not load
    (another format included), a claim field has the wrong type, its group is
    not written canonically or is not group_spec (if one is given), or its
    witness does not hold (checked when the extremal length is positive)."""
    try:
        cert = Certificate.from_json(path.read_text(encoding="utf-8"))
        claim = cert.claim
        types = [type(claim[key]) for key in ("invariant", "value", "extremal_length")]
        ok = (claim["type"] == "invariant" and types == [str, int, int]
              and cert.group_spec == parse_group_spec(cert.group_spec).spec()
              and group_spec in (None, cert.group_spec)
              and (claim["extremal_length"] <= 0 or search.witness_valid(cert)))
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return cert if ok else None


def _cache_read(key: str, kind: str, group_spec: str) -> Certificate | None:
    """The cached certificate of invariant kind of the group, or None (a miss)."""
    cert = _cache_load(cache_dir() / f"{key}.json", group_spec)
    return cert if cert is not None and cert.claim["invariant"] == kind else None


def _cached_facts(group_spec: str | None = None) -> list[catalog.Fact]:
    """The facts of the cache entries _cache_load accepts (about the group, if
    one is given), in fact-id order.  An entry is named <16 hex digits>.json,
    as _cache_write names it: a certificate written there with --json is none."""
    paths = cache_dir().glob("[0-9a-f]" * 16 + ".json")
    certs = [cert for cert in (_cache_load(p, group_spec) for p in paths) if cert is not None]
    facts = [fact for fact in map(catalog.fact_from_certificate, certs) if fact is not None]
    return sorted(facts, key=lambda fact: fact.fact_id)


def _cache_write(key: str, cert: Certificate) -> None:
    """Cache the certificate as <key>.json, unless its fact contradicts a
    cited fact or a cache entry's fact about its group: FactConflictError,
    and nothing is written.  The check and the write hold an exclusive flock
    on cache.lock in the cache directory, so that of two runs whose facts
    contradict each other only the first is cached."""
    d = cache_dir()
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "cache.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        fact = catalog.fact_from_certificate(cert)
        if fact is not None:
            catalog.FactStore().add_all(
                [*catalog.instantiate_for(fact.subject), *_cached_facts(cert.group_spec), fact]
            )
        catalog.write_atomic(d / f"{key}.json", cert.to_json())


def _config_from_args(args) -> SearchConfig:
    return SearchConfig(
        node_budget=args.budget_nodes,
        time_budget=args.budget_secs,
        symmetry_level=args.symmetry,
        parallel_width=args.width,
    )


def _emit(cert: Certificate, args) -> None:
    if args.json:
        Path(args.json).write_text(cert.to_json(), encoding="utf-8")
    if cert.witness is not None and cert.status == STATUS_REFUTED:
        print("witness:")
        print(write_sequence(cert.witness), end="")


def _known_values(group: AbelianGroup) -> dict[str, int]:
    """Catalog-backed invariant values for the group, if any."""
    out: dict[str, int] = {}
    for fact in catalog.instantiate_for(group.moduli):
        if fact.kind == catalog.KIND_INVARIANT:
            out.setdefault(fact.detail[0], fact.detail[1])
    return out


# -- verbs ----------------------------------------------------------------------


def _cmd_invariant(args) -> int:
    group = parse_group_spec(args.group)
    cfg = _config_from_args(args)
    key = _cache_key("invariant", group.spec(), cfg, args.kind)
    cert = None if args.no_cache else _cache_read(key, args.kind, group.spec())
    cached = cert is not None
    if cert is None:
        _, cert = search.invariant_value(group, args.kind, cfg)
    # a claim that contradicts a cited catalog fact raises FactConflictError
    # here, cached or not, before anything is written (_cache_write checks it
    # against the cache entries too)
    fact = catalog.fact_from_certificate(cert)
    if fact is not None:
        catalog.FactStore().add_all([*catalog.instantiate_for(fact.subject), fact])
    if not cached and not args.no_cache:
        _cache_write(key, cert)
    value = cert.claim["value"]
    suffix = " (cached)" if cached else f" nodes={cert.nodes} time={cert.wall_time_s:.1f}s"
    qualifier = "" if cert.status == STATUS_PROVED else " (lower bound)"
    print(f"{args.kind}({group.spec()}) = {value}{qualifier} [{cert.status}]{suffix}")
    _emit(cert, args)
    return status_exit_code(cert.status)


def _cmd_c0(args) -> int:
    group = parse_group_spec(args.group)
    cfg = _config_from_args(args)
    known = _known_values(group)
    try:
        lo, hi, targets = search.c0_targets(group, cfg, known, None if args.t is None else [args.t])
    except RuntimeError as exc:
        print(exc)
        return 2
    members, certs = search.compute_c0_at(group, targets, cfg)
    if args.t is not None:
        cert = certs[args.t]
        member = cert.claim["member"]
        verdict = {True: "in C0", False: "NOT in C0", None: "undecided"}[member]
        print(
            f"t={args.t} {verdict} ({group.spec()}) [{cert.status}] nodes={cert.nodes}"
        )
        _emit(cert, args)
        return status_exit_code(cert.status)
    if lo > hi:
        print(f"C0({group.spec()}) = {{}} (empty range: D+1={lo} > eta-1={hi})")
    else:
        print(f"C0({group.spec()}) = {{{', '.join(map(str, members))}}}  range [{lo}, {hi}]")
    for t in sorted(certs):
        cert = certs[t]
        extra = f" witness length {cert.witness.length}" if cert.witness else ""
        print(f"  t={t}: {cert.status} nodes={cert.nodes}{extra}")
    if args.json:
        payload = {
            "format": "zerosum.c0/2",
            "tool_version": TOOL_VERSION,
            "group": group.spec(),
            "range": [lo, hi],
            "members": members,
            "certificates": {str(t): certs[t].payload() for t in sorted(certs)},
        }
        Path(args.json).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    statuses = {cert.status for cert in certs.values()}
    if STATUS_EXHAUSTED in statuses:
        return 2
    return 0


def _cmd_enumerate(args) -> int:
    group = parse_group_spec(args.group)
    cfg = _config_from_args(args)
    report = search.enumerate_short_free(group, args.len, cfg, collect=bool(args.dump))
    print(
        f"short-free sequences of length {args.len} over {group.spec()}: "
        f"{report.count} representative(s) [{report.status}] nodes={report.nodes}"
    )
    if args.dump:
        text = "\n".join(write_sequence(s) for s in report.items)
        Path(args.dump).write_text(text, encoding="utf-8")
    return 0 if report.status == STATUS_PROVED else 2


def _check_property(
    group: AbelianGroup, prop: str, c: int | None, cfg: SearchConfig
) -> Certificate:
    """The property's certificate as check-property makes it and certify replays
    it: C and D read the catalog's values."""
    if prop == "D0":
        return search.check_property_D0(group, c, cfg)
    return search.check_power_property(group, prop, cfg, _known_values(group))


def _cmd_check_property(args) -> int:
    group = parse_group_spec(args.group)
    cfg = _config_from_args(args)
    if (args.property == "D0") != (args.c is not None):
        need = "requires" if args.property == "D0" else "takes no"
        print(f"check-property {args.property} {need} --c", file=sys.stderr)
        return USAGE_ERROR
    cert = _check_property(group, args.property, args.c, cfg)
    holds = cert.claim["holds"]
    verdict = {True: "holds", False: "fails", None: "undecided"}[holds]
    c_text = f" (c = {cert.claim['c']})" if cert.claim.get("c") is not None else ""
    print(
        f"Property {args.property}{c_text} {verdict} for {group.spec()} "
        f"[{cert.status}] nodes={cert.nodes}"
    )
    _emit(cert, args)
    return status_exit_code(cert.status)


def _given_flags(args, name: str, flags, keys) -> dict:
    """{flag: value} of the flags given a value; ValueError naming each one
    outside keys, the flags that the construction or table name reads."""
    given = {key: getattr(args, key) for key in flags}
    given = {key: value for key, value in given.items() if value is not None}
    extra = [f"--{key}" for key in given if key not in keys]
    if extra:
        raise ValueError(f"unrecognized arguments for {name}: {' '.join(extra)}")
    return given


_CONSTRUCT_DEFAULTS = {"n": 3, "r": 3, "axis": None, "m": None}


def _construction_params(args) -> dict:
    """The construction's params from its flags; a flag it does not take, or
    a missing --axis or --m, is a ValueError.  --n and --r default to 3."""
    keys = constructions.CONSTRUCTIONS[args.name][0]
    given = _given_flags(args, args.name, _CONSTRUCT_DEFAULTS, keys)
    params = {key: given.get(key, _CONSTRUCT_DEFAULTS[key]) for key in keys}
    missing = [f"--{key}" for key, value in params.items() if value is None]
    if missing:
        raise ValueError(f"{args.name} requires {' and '.join(missing)}")
    return params


def _verified_construction(
    name: str, params: dict, cfg: SearchConfig
) -> tuple[list[Sequence], Certificate]:
    """The construction's outputs, checked by verify_construction, and the
    certificate that construct --verify writes and certify replays.
    ValueError for a name that is no construction, or unless params are
    exactly the construction's own, all ints."""
    if name not in constructions.CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}")
    keys, build, _ = constructions.CONSTRUCTIONS[name]
    if sorted(params) != sorted(keys) or any(type(v) is not int for v in params.values()):
        raise ValueError(f"construction {name!r} takes the int params {list(keys)}, not {params}")
    outputs = build(**params)
    constructions.verify_construction(name, outputs, params)
    claim = {"type": "construction", "name": name, "params": params,
             "members": len(outputs), "verified": True}
    return outputs, Certificate(
        claim=claim, status=STATUS_PROVED, group_spec=outputs[0].group.spec(), witness=None,
        nodes=0, config=cfg,
    )


def _cmd_construct(args) -> int:
    params = _construction_params(args)
    if args.verify:
        outputs, cert = _verified_construction(args.name, params, SearchConfig())
        print(f"construct {args.name}: {len(outputs)} member(s), all claims verified")
        _emit(cert, args)
    else:
        outputs = constructions.CONSTRUCTIONS[args.name][1](**params)
    text = "\n".join(write_sequence(s) for s in outputs)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    elif not args.verify:
        print(text, end="")
    else:
        lengths = sorted({s.length for s in outputs})
        print(f"lengths: {lengths}")
    return 0


def _claim_field(claim, key: str, kind: type):
    """claim[key]; ValueError if it is missing or not of type kind (a bool is
    not an int here)."""
    if not isinstance(claim, dict) or type(claim.get(key)) is not kind:
        raise ValueError(f"claim field {key!r} is missing or not of type {kind.__name__}")
    return claim[key]


def _cmd_certify(args) -> int:
    try:
        text = Path(args.certificate).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read certificate: {exc}") from None
    cert = Certificate.from_json(text)
    claim = cert.claim
    kind = _claim_field(claim, "type", str)
    if cert.status == STATUS_REFUTED:
        if cert.witness is None:
            print("refuted certificate carries no sequence witness; nothing to re-check")
            return 0
        try:
            ok = search.witness_valid(cert)
        except KeyError as exc:
            raise ValueError(f"claim field {exc} is missing") from None
        print(f"witness re-validation: {'VALID' if ok else 'INVALID'}")
        return 0 if ok else 1
    if cert.status == STATUS_PROVED:
        group = parse_group_spec(cert.group_spec)
        cfg = cert.config
        if kind == "invariant":
            _, fresh = search.invariant_value(group, _claim_field(claim, "invariant", str), cfg)
        elif kind == "c0_membership":
            t = _claim_field(claim, "t", int)
            search.c0_targets(group, cfg, _known_values(group), [t])  # the verb's range check
            fresh = search.compute_c0_at(group, [t], cfg)[1][t]
        elif kind == "property":
            prop = _claim_field(claim, "property", str)
            c = None if prop in ("C", "D") else _claim_field(claim, "c", int)
            fresh = _check_property(group, prop, c, cfg)
        elif kind == "construction":
            name, params = _claim_field(claim, "name", str), _claim_field(claim, "params", dict)
            _, fresh = _verified_construction(name, params, cfg)
        else:
            print(f"cannot replay claims of type {kind!r}")
            return 1
        same = fresh.to_json() == cert.to_json()
        print(f"replay: {'IDENTICAL' if same else 'MISMATCH'}")
        return 0 if same else 1
    print("budget-exhausted certificate: nothing to validate")
    return 2


def _cmd_facts(args) -> int:
    store = catalog.FactStore()
    store.add_all(catalog.builtin_facts())
    subject = None
    if args.group:
        subject = parse_group_spec(args.group).moduli
        store.add_all(catalog.instantiate_for(subject))
    if not args.no_cache:
        store.add_all(_cached_facts())
    if args.infer:
        derived = catalog.infer(store)
        print(f"derived {len(derived)} new fact(s) in {derived.rounds} round(s), to a fixpoint")
        print("  subjects read per round: " + ", ".join(map(str, derived.scanned)))
        print("  per rule: " + ", ".join(f"{r} {n}" for r, n in derived.by_rule.items()))
    report = catalog.consistency_check(store)
    shown = 0
    for fid in sorted(store.facts):
        fact = store.facts[fid]
        if (args.provenance and fact.provenance.source != args.provenance
                or subject not in (None, fact.subject)):
            continue
        name = "C" + "xC".join(map(str, fact.subject)) if fact.subject else "?"
        print(
            f"{fid}  {name:>14}  {fact.kind:<18} {str(fact.detail):<24} "
            f"{fact.provenance.source}:{fact.provenance.reference}"
        )
        shown += 1
    print(f"{shown} fact(s); consistency: {'ok' if report.ok else 'VIOLATIONS'}")
    for v in report.violations:
        print(f"  violation: {v}")
    return 0 if report.ok else 1


# -- repro tables -----------------------------------------------------------------


def _row(name: str, ok: bool, detail: str, t0: float) -> bool:
    status = "pass" if ok else "FAIL"
    print(f"{name:<28} {status}  {detail}  ({time.monotonic() - t0:.1f}s)")
    return ok


def _repro_c0(
    spec: str, targets: list[int] | None, references: list[str], args, cfg
) -> bool:
    """Sweep C0 of the group (--group, else spec) at the targets, or over its
    whole range if None, and add the sweep's facts to the group's inferred
    catalog store.  A sweep that contradicts a fact on file fails, as does one
    that runs out of budget, a group whose D or eta is not established, and a
    row named in references that gives the group no fact."""
    spec = args.group or spec
    t0 = time.monotonic()
    group = parse_group_spec(spec)
    name = f"C0({spec})"
    facts = catalog.instantiate_for(group.moduli)
    missing = set(references) - {fact.provenance.reference for fact in facts}
    if missing:
        return _row(name, False, f"no catalog fact from {sorted(missing)}", t0)
    store = catalog.FactStore()
    store.add_all(facts)
    catalog.infer(store)
    try:
        *_, targets = search.c0_targets(group, cfg, _known_values(group), targets)
    except RuntimeError as exc:
        return _row(name, False, str(exc), t0)
    members, certs = search.compute_c0_at(group, targets, cfg)
    if any(cert.status == STATUS_EXHAUSTED for cert in certs.values()):
        return _row(name, False, f"search {members} with budget_exhausted targets", t0)
    try:
        store.add_all(filter(None, map(catalog.fact_from_certificate, certs.values())))
    except catalog.FactConflictError as exc:
        return _row(name, False, str(exc), t0)
    determined = store.of_kind(group.moduli, catalog.KIND_EQUALS)
    cataloged = sorted(determined[0].detail) if determined else "no determination"
    swept = f"t in [{targets[0]}, {targets[-1]}]" if targets else "empty range"
    return _row(name, True, f"search {members}, catalog {cataloged}; {swept}", t0)


def _repro_lemma47(args, cfg) -> bool:
    t0 = time.monotonic()
    group = parse_group_spec("C3^3")
    report = search.enumerate_short_free(group, 16, cfg, checks=("sum_zero",))
    ok = report.status == STATUS_PROVED and not report.violations["sum_zero"]
    return _row(
        "extremal sums vanish",
        ok,
        f"{report.count} representatives, {len(report.violations['sum_zero'])} nonzero",
        t0,
    )


def _repro_propertyC(args, cfg) -> bool:
    spec = args.group or "C3^3"
    t0 = time.monotonic()
    group = parse_group_spec(spec)
    cert = _check_property(group, "C", None, cfg)
    return _row(f"property C ({spec})", cert.status == STATUS_PROVED, cert.status, t0)


# table -> (run(args, cfg), the --group flag if it reads it).  A C0 row names
# its group, its targets (None: the whole range) and the catalog rows its
# sweep is checked against.
_REPRO_TABLES = {
    "thmA": (partial(_repro_c0, "C3^3", [14], ["length-14 zero-sum theorem"]), ()),
    "thmB": (partial(_repro_c0, "C3^2", None,
                     ["rank-2 determination", "prime-power square theorem"]), ()),
    "thm13": (partial(_repro_c0, "C2^3", None, []), ("group",)),
    "lemma47": (_repro_lemma47, ()),
    "prop410": (partial(_repro_c0, "C3^4", list(range(30, 37)),
                        ["rank-4 ternary determination"]), ()),
    "propertyC": (_repro_propertyC, ("group",)),
}


def _cmd_repro(args) -> int:
    run, keys = _REPRO_TABLES[args.table]
    _given_flags(args, args.table, ("group",), keys)
    return 0 if run(args, _config_from_args(args)) else 1


# -- parser ------------------------------------------------------------------------


def _add_search(p) -> None:
    p.add_argument("--budget-nodes", type=int, default=0, help="node budget per subtree")
    p.add_argument("--budget-secs", type=float, default=0.0, help="time budget per subtree")
    p.add_argument("--symmetry", choices=SYMMETRY_LEVELS, default="coord_perms+scalar",
                   help="symmetry reduction level")
    p.add_argument("--width", type=int, default=1, help="parallel width (never changes results)")


def _add_json(p) -> None:
    p.add_argument("--json", metavar="PATH", help="write the certificate as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zerosum", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("invariant", help="compute D, eta, s, f or g by exhaustive search")
    p.add_argument("group")
    p.add_argument("kind", choices=search.INVARIANT_KINDS)
    _add_search(p)
    _add_json(p)
    p.add_argument("--no-cache", action="store_true", help="skip the certificate cache")
    p.set_defaults(fn=_cmd_invariant)

    p = sub.add_parser("c0", help="decide C0 membership with certificates")
    p.add_argument("group")
    p.add_argument("--t", type=int, default=None, help="one length (default: the whole range)")
    _add_search(p)
    _add_json(p)
    p.set_defaults(fn=_cmd_c0)

    p = sub.add_parser("enumerate", help="enumerate short-free sequences up to symmetry")
    p.add_argument("group")
    p.add_argument("--kind", required=True, choices=("short-free",))
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--dump", metavar="PATH", help="write representatives to a file")
    _add_search(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("check-property", help="check Property C, D or D0")
    p.add_argument("group")
    p.add_argument("property", choices=("C", "D", "D0"))
    p.add_argument("--c", type=int, default=None)
    _add_search(p)
    _add_json(p)
    p.set_defaults(fn=_cmd_check_property)

    p = sub.add_parser("construct", help="emit a named construction, optionally verified")
    p.add_argument("name", choices=tuple(constructions.CONSTRUCTIONS))
    for key in _CONSTRUCT_DEFAULTS:  # each refused by a construction that does not take it
        p.add_argument(f"--{key}", type=int, default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", metavar="PATH")
    _add_json(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("certify", help="re-validate a witness or replay an exhaustive run")
    p.add_argument("certificate")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("facts", help="list, filter and infer facts")
    p.add_argument("--infer", action="store_true")
    p.add_argument("--provenance", choices=("cited", "paper", "search", "rule"))
    p.add_argument("--group", default=None)
    p.add_argument("--no-cache", action="store_true")
    p.set_defaults(fn=_cmd_facts)

    p = sub.add_parser("repro", help="run a named reproduction job")
    p.add_argument("table", choices=sorted(_REPRO_TABLES))
    p.add_argument("--group", default=None)  # refused by a table that does not read it
    _add_search(p)
    p.set_defaults(fn=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.fn(args)
    except (ValueError, catalog.FactConflictError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
