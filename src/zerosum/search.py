"""Extremal-sequence search with pruning and symmetry reduction.

The engine enumerates multisets over a group in nondecreasing element-index
order, choosing each element's multiplicity at first visit.  Pruning rules:

* per-element multiplicity bounds (v_g <= ord(g)-1 for short-free and
  zero-sum-free predicates, v_g <= exp(G)-1 for exact-length predicates);
* incremental feasibility: a partial state stores the sums of subsequences
  by exact count, so "appending g creates a forbidden zero-sum" is one set
  lookup;
* a remaining-potential bound folding {g, -g} conflicts;
* orderly generation: a node is explored only when its multiset is
  lexicographically minimal over the closed symmetry group, which is sound
  because extensions only append indices >= the current maximum.  A
  multiset is carried as the integer sum of mult[x] << k*(order-1-x), with
  k bits per digit enough for the largest multiplicity; on sorted tuples of
  equal length lex order is reversed integer order.  The DFS carries this
  code and the code of its image under every permutation, so the test of a
  child is one add and one compare per permutation.  Goal and potential
  cuts run first, and the scan over the next element stops at the first
  one whose potential, counting the element itself, cannot reach the goal.

The context (tables and closed symmetries) is built once per run, and once
per worker process at width > 1.  Parallel runs split the root's children
over workers; branches never share state, so node counts, outcomes and
witnesses are byte-identical at any width.  Budgets bound each top-level
subtree.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import gcd, lcm

from . import constructions
from .group import AbelianGroup, close_symmetries, make_group, symmetries
from .sequence import Sequence, read_sequence, write_sequence
from .subsum import find_short_zero_sum, find_zero_sum_exact_length

TOOL_VERSION = "0.1.0"

STATUS_PROVED = "proved_exhaustive"
STATUS_REFUTED = "refuted_with_witness"
STATUS_EXHAUSTED = "budget_exhausted"

INVARIANT_KINDS = ("D", "eta", "s", "f", "g")

#: Search builds a full index-addition table; keep it bounded.
SEARCH_ORDER_CAP = 2048

_EXIT_BY_STATUS = {STATUS_PROVED: 0, STATUS_REFUTED: 1, STATUS_EXHAUSTED: 2}


def status_exit_code(status: str) -> int:
    return _EXIT_BY_STATUS[status]


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and symmetry settings for one search.

    node_budget bounds each top-level subtree (not the global sum) so that
    results are identical at any parallel width; 0 means unlimited.
    time_budget is wall-clock seconds per subtree (0 = unlimited); when it
    triggers, the run is reported budget_exhausted and node counts are not
    reproducible.  parallel_width only maps subtrees onto processes and
    never changes any result.
    """

    node_budget: int = 0
    time_budget: float = 0.0
    symmetry_level: str = "coord_perms+scalar"
    parallel_width: int = 1
    record_witnesses: bool = True

    def __post_init__(self) -> None:
        if self.node_budget < 0 or self.time_budget < 0:
            raise ValueError("budgets must be >= 0")
        if self.parallel_width < 1:
            raise ValueError("parallel_width must be >= 1")


@dataclass
class Certificate:
    """Machine-checkable outcome of a search or verification."""

    claim: dict
    status: str
    group_spec: str
    witness: Sequence | None
    nodes: int
    symmetry_level: str
    config: SearchConfig
    wall_time_s: float = 0.0  # display only; excluded from the canonical payload

    def payload(self) -> dict:
        return {
            "format": "zerosum.certificate/1",
            "tool_version": TOOL_VERSION,
            "claim": self.claim,
            "status": self.status,
            "group": self.group_spec,
            "witness": None if self.witness is None else write_sequence(self.witness),
            "stats": {"nodes": self.nodes, "symmetry_level": self.symmetry_level},
            "config": {
                "node_budget": self.config.node_budget,
                "time_budget": self.config.time_budget,
                "symmetry_level": self.config.symmetry_level,
                "record_witnesses": self.config.record_witnesses,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"

    def cert_id(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    @classmethod
    def from_json(cls, text: str) -> Certificate:
        data = json.loads(text)
        cfg = data.get("config", {})
        witness = data.get("witness")
        return cls(
            claim=data["claim"],
            status=data["status"],
            group_spec=data["group"],
            witness=None if witness is None else read_sequence(witness),
            nodes=data.get("stats", {}).get("nodes", 0),
            symmetry_level=data.get("stats", {}).get("symmetry_level", "none"),
            config=SearchConfig(
                node_budget=cfg.get("node_budget", 0),
                time_budget=cfg.get("time_budget", 0.0),
                symmetry_level=cfg.get("symmetry_level", "coord_perms+scalar"),
                record_witnesses=cfg.get("record_witnesses", True),
            ),
        )


# -- context and predicates -----------------------------------------------------

_PRED_SHORT_FREE = "short_free"
_PRED_ZERO_SUM_FREE = "zero_sum_free"
_PRED_NO_EXACT_EXP = "no_exact_exp"

_KIND_TO_PRED = {
    "D": (_PRED_ZERO_SUM_FREE, False),
    "eta": (_PRED_SHORT_FREE, False),
    "s": (_PRED_NO_EXACT_EXP, False),
    "f": (_PRED_SHORT_FREE, True),
    "g": (_PRED_NO_EXACT_EXP, True),
}


class _Ctx:
    """Per-run tables: addition, negation, multiplicity bounds, symmetry perms,
    and the digit units of the multiset code for multiplicities up to max(bound).

    Immutable once built: one instance is shared by every root job of a run.
    """

    __slots__ = ("group", "order", "exp", "add", "neg", "bound", "perms", "unit")

    def __init__(
        self, group: AbelianGroup, pred_name: str, squarefree: bool, level: str
    ) -> None:
        if group.order > SEARCH_ORDER_CAP:
            raise ValueError(
                f"group order {group.order} exceeds the search cap {SEARCH_ORDER_CAP}"
            )
        self.group = group
        order = self.order = group.order
        self.exp = group.exponent
        coords = [group.coords_of(i) for i in range(order)]
        moduli = group.moduli
        self.add = tuple(
            tuple(
                group.index_of(a + b for a, b in zip(coords[i], coords[j]))
                for j in range(order)
            )
            for i in range(order)
        )
        self.neg = tuple(group.index_of(-c for c in coords[i]) for i in range(order))
        if pred_name == _PRED_NO_EXACT_EXP:
            bounds = [self.exp - 1] * order
        else:
            bounds = []
            for i in range(order):
                o = lcm(*(m // gcd(c, m) for c, m in zip(coords[i], moduli)))
                bounds.append(o - 1)
        if squarefree:
            bounds = [min(b, 1) for b in bounds]
        self.bound = tuple(bounds)
        actions = symmetries(group, level)
        closed = close_symmetries(actions)
        identity = tuple(range(order))
        self.perms = tuple(p for p in closed if p != identity)
        self.unit = _units(order, max(bounds))


_ctx_memo: dict[tuple, _Ctx] = {}


def _context(group: AbelianGroup, pred_name: str, squarefree: bool, level: str) -> _Ctx:
    """The context for these arguments, kept until another one is asked for.

    The tables are a function of the key alone and never mutated, so every
    root job of a run, and every run in a process, may share one instance.
    """
    key = (group.moduli, pred_name, squarefree, level)
    ctx = _ctx_memo.get(key)
    if ctx is None:
        _ctx_memo.clear()
        ctx = _ctx_memo[key] = _Ctx(group, pred_name, squarefree, level)
    return ctx


def _units(order: int, top: int) -> tuple[int, ...]:
    """unit[x] = 1 << k*(order-1-x), with k bits enough for a multiplicity of top.

    A multiset's code is sum(mult[x] * unit[x]); no digit carries, so on sorted
    tuples of equal length a lex-smaller tuple has a larger code.
    """
    k = max(1, top.bit_length())
    return tuple(1 << k * (order - 1 - x) for x in range(order))


def _extend(enc: int, imgs, perms, unit, g: int, m: int) -> tuple[int, list[int]] | None:
    """Add g^m to a multiset with code enc and image codes imgs (one per perm).

    Returns the new code and image codes, or None as soon as an image code
    exceeds the new code: the extension is then not canonical.
    """
    enc += m * unit[g]
    out = []
    for img, p in zip(imgs, perms):
        img += m * unit[p[g]]
        if img > enc:
            return None
        out.append(img)
    return enc, out


class _ShortFree:
    """State: sums by exact count 1..exp-1 plus their union."""

    __slots__ = ("ctx", "k")

    def __init__(self, ctx: _Ctx) -> None:
        self.ctx = ctx
        self.k = max(1, ctx.exp - 1)

    def initial(self):
        return tuple(set() for _ in range(self.k)) + (set(),)

    def forbid(self, state, g: int) -> bool:
        return g == 0 or self.ctx.neg[g] in state[-1]

    def push(self, state, g: int):
        row = self.ctx.add[g]
        levels = state[:-1]
        new = []
        prev = _ZERO_LEVEL
        for level in levels:
            new.append(level | {row[x] for x in prev})
            prev = level
        union = state[-1].union(*new)
        return (*new, union)

    def potential(self, state, start: int) -> int:
        return _pair_potential(self.ctx, state[-1], start)


_ZERO_LEVEL = frozenset([0])


class _ZeroSumFree:
    """State: the full subsequence-sum set."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: _Ctx) -> None:
        self.ctx = ctx

    def initial(self):
        return set()

    def forbid(self, state, g: int) -> bool:
        return g == 0 or self.ctx.neg[g] in state

    def push(self, state, g: int):
        row = self.ctx.add[g]
        return state | {row[x] for x in state} | {g}

    def potential(self, state, start: int) -> int:
        return _pair_potential(self.ctx, state, start)


class _NoExactExp:
    """State: sums by exact count 1..exp-1; forbids completing a length-exp zero-sum."""

    __slots__ = ("ctx", "k")

    def __init__(self, ctx: _Ctx) -> None:
        self.ctx = ctx
        self.k = max(1, ctx.exp - 1)

    def initial(self):
        return tuple(set() for _ in range(self.k))

    def forbid(self, state, g: int) -> bool:
        return self.ctx.neg[g] in state[-1]

    def push(self, state, g: int):
        row = self.ctx.add[g]
        new = []
        prev = _ZERO_LEVEL
        for level in state:
            new.append(level | {row[x] for x in prev})
            prev = level
        return tuple(new)

    def potential(self, state, start: int) -> int:
        ctx = self.ctx
        last = state[-1]
        neg = ctx.neg
        bound = ctx.bound
        pot = 0
        for h in range(start, ctx.order):
            if bound[h] > 0 and neg[h] not in last:
                pot += bound[h]
        return pot


def _pair_potential(ctx: _Ctx, forbidden_union, start: int) -> int:
    """Upper bound on addable length from indices >= start, folding {g, -g} pairs."""
    neg = ctx.neg
    bound = ctx.bound
    pot = 0
    for h in range(max(start, 1), ctx.order):
        bh = bound[h]
        if bh <= 0 or neg[h] in forbidden_union:
            continue
        nh = neg[h]
        partner = nh >= start and nh != h and bound[nh] > 0 and h not in forbidden_union
        if partner and nh < h:
            continue  # counted at the smaller pair member
        pot += max(bh, bound[nh]) if partner else bh
    return pot


def _make_pred(ctx: _Ctx, pred_name: str):
    if pred_name == _PRED_SHORT_FREE:
        return _ShortFree(ctx)
    if pred_name == _PRED_ZERO_SUM_FREE:
        return _ZeroSumFree(ctx)
    if pred_name == _PRED_NO_EXACT_EXP:
        return _NoExactExp(ctx)
    raise ValueError(f"unknown predicate {pred_name!r}")


# -- goals ----------------------------------------------------------------------


class _MaxGoal:
    """Track the longest sequence seen; needs() asks for strictly longer ones."""

    __slots__ = ("best", "witness")

    def __init__(self, lb: int, witness: tuple[int, ...] | None) -> None:
        self.best = lb
        self.witness = witness

    def visit(self, seq: list[int], sigma: int) -> None:
        if len(seq) > self.best:
            self.best = len(seq)
            self.witness = tuple(seq)

    def needs(self):
        return self.best + 1, None

    def to_payload(self) -> dict:
        return {"best": self.best, "witness": self.witness}


class _LengthsGoal:
    """Find a zero-sum sequence at each target length (the C0 sweep)."""

    __slots__ = ("und", "witnesses")

    def __init__(self, lengths) -> None:
        self.und = set(lengths)
        self.witnesses: dict[int, tuple[int, ...]] = {}

    def visit(self, seq: list[int], sigma: int) -> None:
        n = len(seq)
        if sigma == 0 and n in self.und:
            self.witnesses[n] = tuple(seq)
            self.und.discard(n)

    def needs(self):
        if not self.und:
            return None, -1
        return min(self.und), max(self.und)

    def to_payload(self) -> dict:
        return {"witnesses": {str(k): v for k, v in self.witnesses.items()}}


class _EnumGoal:
    """Visit every sequence of one exact length; optionally test named checks."""

    __slots__ = ("length", "checks", "per_element", "count", "violations", "collect", "items")

    def __init__(self, length: int, checks: tuple[str, ...], per_element: int, collect: bool) -> None:
        self.length = length
        self.checks = checks
        self.per_element = per_element  # expected multiplicity for power_form
        self.count = 0
        self.violations: dict[str, list[tuple[int, ...]]] = {c: [] for c in checks}
        self.collect = collect
        self.items: list[tuple[int, ...]] = []

    def visit(self, seq: list[int], sigma: int) -> None:
        if len(seq) != self.length:
            return
        self.count += 1
        if self.collect:
            self.items.append(tuple(seq))
        for check in self.checks:
            if check == "sum_zero":
                if sigma != 0:
                    self.violations[check].append(tuple(seq))
            elif check == "power_form":
                mults: dict[int, int] = {}
                for i in seq:
                    mults[i] = mults.get(i, 0) + 1
                if any(v != self.per_element for v in mults.values()):
                    self.violations[check].append(tuple(seq))
            else:
                raise ValueError(f"unknown enumeration check {check!r}")

    def needs(self):
        return self.length, self.length

    def to_payload(self) -> dict:
        return {
            "count": self.count,
            "violations": {k: v for k, v in self.violations.items()},
            "items": self.items,
        }


def _goal_from_spec(spec: dict):
    kind = spec["kind"]
    if kind == "max":
        return _MaxGoal(spec["lb"], None)
    if kind == "lengths":
        return _LengthsGoal(spec["lengths"])
    if kind == "enum":
        return _EnumGoal(
            spec["length"], tuple(spec["checks"]), spec["per_element"], spec["collect"]
        )
    raise ValueError(f"unknown goal {kind!r}")


# -- DFS core ----------------------------------------------------------------


class _Stats:
    __slots__ = ("nodes", "node_budget", "deadline", "exhausted", "stopped", "tick")

    def __init__(self, node_budget: int, time_budget: float) -> None:
        self.nodes = 0
        self.node_budget = node_budget
        self.deadline = time.monotonic() + time_budget if time_budget else None
        self.exhausted = False
        self.stopped = False
        self.tick = 0

    def should_stop(self) -> bool:
        if self.stopped:
            return True
        if self.node_budget and self.nodes >= self.node_budget:
            self.exhausted = self.stopped = True
            return True
        self.tick += 1
        if self.deadline is not None and (self.tick & 255) == 0:
            if time.monotonic() > self.deadline:
                self.exhausted = self.stopped = True
                return True
        return False


def _dfs(
    ctx: _Ctx, pred, goal, seq: list[int], state, sigma: int, last: int, stats: _Stats,
    enc: int, imgs: list[int],
) -> None:
    """Visit seq, then its canonical feasible children; enc is the code of seq
    and imgs[i] the code of its image under ctx.perms[i]."""
    if stats.should_stop():
        return
    stats.nodes += 1
    goal.visit(seq, sigma)
    length = len(seq)
    lo, hi = goal.needs()
    if hi is not None and length >= hi:
        return
    order = ctx.order
    bound = ctx.bound
    perms = ctx.perms
    add = ctx.add
    unit = ctx.unit
    for g in range(last + 1, order):
        b = bound[g]
        if b <= 0:
            continue
        max_m = b if hi is None else min(b, hi - length)
        if max_m <= 0:
            break
        # potential(state, g) bounds the length any child with elements >= g
        # can add; it does not grow with g and lo does not shrink, so no later
        # element can reach lo either
        if lo is not None and length + pred.potential(state, g) < lo:
            break
        chain = []
        st, sg = state, sigma
        row = add[g]
        for _ in range(max_m):
            if pred.forbid(st, g):
                break
            st = pred.push(st, g)
            sg = row[sg]
            chain.append((st, sg))
        for m in range(len(chain), 0, -1):
            lo, hi = goal.needs()
            if hi is not None and length + m > hi:
                continue
            st_m, sg_m = chain[m - 1]
            if lo is not None and length + m + pred.potential(st_m, g + 1) < lo:
                continue
            child = _extend(enc, imgs, perms, unit, g, m)
            if child is None:
                continue
            _dfs(ctx, pred, goal, seq + [g] * m, st_m, sg_m, g, stats, *child)
            if stats.stopped:
                return
        lo, hi = goal.needs()
        if hi is not None and length >= hi:
            return


# -- Property D0 driver -------------------------------------------------------


class _D0Result:
    __slots__ = ("counterexample", "nodes", "exhausted")

    def __init__(self) -> None:
        self.counterexample: tuple[int, ...] | None = None
        self.nodes = 0
        self.exhausted = False


def _d0_push_block(ctx: _Ctx, levels, g: int, copies: int):
    """Push `copies` copies of g through exact-count levels 1..exp; None if a
    zero-sum of length exactly exp appears (that branch satisfies the property)."""
    row = ctx.add[g]
    for _ in range(copies):
        new = []
        prev = _ZERO_LEVEL
        for level in levels:
            new.append(level | {row[x] for x in prev})
            prev = level
        levels = tuple(new)
        if 0 in levels[-1]:
            return None
    return levels


def _d0_dfs(
    ctx: _Ctx, c: int, gs: list[int], levels, last: int, stats: _Stats, res: _D0Result,
    unit: tuple[int, ...], enc: int, imgs: list[int],
) -> None:
    """Extend the g_i multiset gs (code enc, image codes imgs over digit units
    sized for c repeats) by one element >= last at a time."""
    if res.counterexample is not None or stats.should_stop():
        return
    stats.nodes += 1
    if len(gs) == c:
        res.counterexample = tuple(gs)
        return
    n = ctx.exp
    perms = ctx.perms
    for g in range(last, ctx.order):
        child = _extend(enc, imgs, perms, unit, g, 1)
        if child is None:
            continue
        nxt = _d0_push_block(ctx, levels, g, n - 1)
        if nxt is None:
            continue
        _d0_dfs(ctx, c, gs + [g], nxt, g, stats, res, unit, *child)
        if res.counterexample is not None or stats.stopped:
            return


# -- branch workers -----------------------------------------------------------


def _branch_worker(payload: dict) -> dict:
    group = make_group(payload["moduli"])
    ctx = _context(group, payload["pred"], payload["squarefree"], payload["level"])
    stats = _Stats(payload["node_budget"], payload["time_budget"])
    goal_spec = payload["goal"]
    if goal_spec["kind"] == "d0":
        res = _D0Result()
        levels = tuple(set() for _ in range(ctx.exp))
        levels = _d0_push_block(ctx, levels, 0, 1)  # the translated extra term g = 0
        start = payload["root"]
        nxt = _d0_push_block(ctx, levels, start, ctx.exp - 1)
        if nxt is not None:
            c = goal_spec["c"]
            unit = _units(ctx.order, c)
            root = _extend(0, [0] * len(ctx.perms), ctx.perms, unit, start, 1)
            _d0_dfs(ctx, c, [start], nxt, start, stats, res, unit, *root)
        return {
            "counterexample": res.counterexample,
            "nodes": stats.nodes,
            "exhausted": stats.exhausted,
        }
    pred = _make_pred(ctx, payload["pred"])
    goal = _goal_from_spec(goal_spec)
    g, m = payload["root"]
    state, sigma = pred.initial(), 0
    seq: list[int] = []
    for _ in range(m):
        if pred.forbid(state, g):
            raise AssertionError(f"root job {g}^{m} is infeasible")
        state = pred.push(state, g)
        sigma = ctx.add[g][sigma]
        seq.append(g)
    root = _extend(0, [0] * len(ctx.perms), ctx.perms, ctx.unit, g, m)
    _dfs(ctx, pred, goal, seq, state, sigma, g, stats, *root)
    out = goal.to_payload()
    out["nodes"] = stats.nodes
    out["exhausted"] = stats.exhausted
    return out


def _root_jobs(ctx: _Ctx, pred, goal_needs_hi) -> list[tuple[int, int]]:
    """Canonical, feasible (element, multiplicity) children of the empty root."""
    jobs = []
    for g in range(ctx.order):
        b = ctx.bound[g]
        if b <= 0:
            continue
        st = pred.initial()
        chain = 0
        for _ in range(b):
            if pred.forbid(st, g):
                break
            st = pred.push(st, g)
            chain += 1
        for m in range(chain, 0, -1):
            if goal_needs_hi is not None and m > goal_needs_hi:
                continue
            if _extend(0, [0] * len(ctx.perms), ctx.perms, ctx.unit, g, m) is not None:
                jobs.append((g, m))
    return jobs


def _run_branches(payloads: list[dict], width: int) -> list[dict]:
    if width <= 1 or len(payloads) <= 1:
        return [_branch_worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=width) as pool:
        return list(pool.map(_branch_worker, payloads, chunksize=1))


def _base_payload(group: AbelianGroup, pred_name: str, squarefree: bool, cfg: SearchConfig) -> dict:
    return {
        "moduli": group.moduli,
        "pred": pred_name,
        "squarefree": squarefree,
        "level": cfg.symmetry_level,
        "node_budget": cfg.node_budget,
        "time_budget": cfg.time_budget,
    }


# -- public operations ----------------------------------------------------------


def _greedy_lb(ctx: _Ctx, pred) -> tuple[int, tuple[int, ...] | None]:
    state = pred.initial()
    seq: list[int] = []
    for g in range(ctx.order):
        for _ in range(ctx.bound[g]):
            if pred.forbid(state, g):
                break
            state = pred.push(state, g)
            seq.append(g)
    return len(seq), tuple(seq) if seq else None


def _sequence_from_indices(group: AbelianGroup, indices) -> Sequence:
    return Sequence.from_items(group, ((i, 1) for i in indices))


def max_extremal_length(
    group: AbelianGroup, kind: str, cfg: SearchConfig
) -> tuple[int, Certificate]:
    """Maximum length of a sequence avoiding the kind's forbidden pattern.

    The invariant value is the returned length plus one.  Status is
    proved_exhaustive only when the full canonical tree was closed.
    """
    if kind not in INVARIANT_KINDS:
        raise ValueError(f"unknown invariant kind {kind!r}")
    pred_name, squarefree = _KIND_TO_PRED[kind]
    ctx = _context(group, pred_name, squarefree, cfg.symmetry_level)
    pred = _make_pred(ctx, pred_name)
    t0 = time.monotonic()
    lb, lb_witness = _greedy_lb(ctx, pred)
    base = _base_payload(group, pred_name, squarefree, cfg)
    payloads = [
        {**base, "goal": {"kind": "max", "lb": lb}, "root": job}
        for job in _root_jobs(ctx, pred, None)
    ]
    results = _run_branches(payloads, cfg.parallel_width)
    best = lb
    witness = lb_witness
    nodes = 1  # the empty root
    exhausted = False
    for res in results:
        nodes += res["nodes"]
        exhausted = exhausted or res["exhausted"]
        if res["best"] > best or (
            res["best"] == best
            and res["witness"] is not None
            and (witness is None or tuple(res["witness"]) < witness)
        ):
            best = res["best"]
            witness = tuple(res["witness"]) if res["witness"] is not None else witness
    wit_seq = (
        _sequence_from_indices(group, witness)
        if (witness is not None and cfg.record_witnesses)
        else None
    )
    status = STATUS_EXHAUSTED if exhausted else STATUS_PROVED
    cert = Certificate(
        claim={
            "type": "invariant",
            "invariant": kind,
            "group": group.spec(),
            "extremal_length": best,
            "value": best + 1,
            "exact": not exhausted,
        },
        status=status,
        group_spec=group.spec(),
        witness=wit_seq,
        nodes=nodes,
        symmetry_level=cfg.symmetry_level,
        config=cfg,
        wall_time_s=time.monotonic() - t0,
    )
    return best, cert


def invariant_value(group: AbelianGroup, kind: str, cfg: SearchConfig) -> tuple[int, Certificate]:
    best, cert = max_extremal_length(group, kind, cfg)
    return best + 1, cert


def _validated_zero_sum_short_free(seq: Sequence, t: int) -> bool:
    return seq.length == t and seq.is_zero_sum() and find_short_zero_sum(seq) is None


def _c0_claim(group: AbelianGroup, t: int, member: bool | None) -> dict:
    return {"type": "c0_membership", "group": group.spec(), "t": t, "member": member}


def _c0_range(
    group: AbelianGroup,
    cfg: SearchConfig,
    d_value: int | None,
    eta_value: int | None,
) -> tuple[int, int, dict[str, Certificate]]:
    side_certs: dict[str, Certificate] = {}
    if d_value is None:
        d_value, cert = invariant_value(group, "D", cfg)
        if cert.status != STATUS_PROVED:
            raise RuntimeError("could not establish D(G) within budget")
        side_certs["D"] = cert
    if eta_value is None:
        eta_value, cert = invariant_value(group, "eta", cfg)
        if cert.status != STATUS_PROVED:
            raise RuntimeError("could not establish eta(G) within budget")
        side_certs["eta"] = cert
    return d_value, eta_value, side_certs


def compute_c0_at(
    group: AbelianGroup, targets: list[int], cfg: SearchConfig
) -> tuple[list[int], dict[int, Certificate]]:
    """Decide zero-sum short-free existence at the given exact lengths.

    Construction-derived witnesses (re-validated) settle a target without any
    search; the rest are answered by one shared canonical sweep.  Returns
    (sorted proved members, per-target certificates).
    """
    t0 = time.monotonic()
    certs: dict[int, Certificate] = {}
    remaining: list[int] = []
    for t in sorted(set(targets)):
        hint = None
        for candidate in constructions.known_witnesses(group, t):
            if _validated_zero_sum_short_free(candidate, t):
                hint = candidate
                break
        if hint is not None:
            certs[t] = Certificate(
                claim=_c0_claim(group, t, False),
                status=STATUS_REFUTED,
                group_spec=group.spec(),
                witness=hint,
                nodes=0,
                symmetry_level=cfg.symmetry_level,
                config=cfg,
            )
        else:
            remaining.append(t)
    if remaining:
        ctx = _context(group, _PRED_SHORT_FREE, False, cfg.symmetry_level)
        pred = _make_pred(ctx, _PRED_SHORT_FREE)
        base = _base_payload(group, _PRED_SHORT_FREE, False, cfg)
        payloads = [
            {**base, "goal": {"kind": "lengths", "lengths": remaining}, "root": job}
            for job in _root_jobs(ctx, pred, max(remaining))
        ]
        results = _run_branches(payloads, cfg.parallel_width)
        nodes = 1
        exhausted = False
        found: dict[int, tuple[int, ...]] = {}
        for res in results:
            nodes += res["nodes"]
            exhausted = exhausted or res["exhausted"]
            for key, items in res["witnesses"].items():
                tt = int(key)
                items = tuple(items)
                if tt not in found or items < found[tt]:
                    found[tt] = items
        wall = time.monotonic() - t0
        for t in remaining:
            if t in found:
                witness = _sequence_from_indices(group, found[t])
                if not _validated_zero_sum_short_free(witness, t):
                    raise AssertionError("search produced an invalid witness")
                certs[t] = Certificate(
                    claim=_c0_claim(group, t, False),
                    status=STATUS_REFUTED,
                    group_spec=group.spec(),
                    witness=witness,
                    nodes=nodes,
                    symmetry_level=cfg.symmetry_level,
                    config=cfg,
                    wall_time_s=wall,
                )
            else:
                certs[t] = Certificate(
                    claim=_c0_claim(group, t, None if exhausted else True),
                    status=STATUS_EXHAUSTED if exhausted else STATUS_PROVED,
                    group_spec=group.spec(),
                    witness=None,
                    nodes=nodes,
                    symmetry_level=cfg.symmetry_level,
                    config=cfg,
                    wall_time_s=wall,
                )
    members = sorted(t for t, cert in certs.items() if cert.status == STATUS_PROVED)
    return members, certs


def compute_c0(
    group: AbelianGroup,
    cfg: SearchConfig,
    *,
    d_value: int | None = None,
    eta_value: int | None = None,
) -> tuple[list[int], dict[int, Certificate]]:
    """Decide membership for every t in [D(G)+1, eta(G)-1].

    Returns (sorted members, per-t certificates).  An empty range yields no
    certificates and an empty member list.
    """
    d_value, eta_value, _ = _c0_range(group, cfg, d_value, eta_value)
    lo, hi = d_value + 1, eta_value - 1
    if lo > hi:
        return [], {}
    return compute_c0_at(group, list(range(lo, hi + 1)), cfg)


def c0_contains(
    group: AbelianGroup,
    t: int,
    cfg: SearchConfig,
    *,
    d_value: int | None = None,
    eta_value: int | None = None,
) -> Certificate:
    """Decide whether t is in C0(G); errors if t is outside [D(G)+1, eta(G)-1]."""
    d_value, eta_value, _ = _c0_range(group, cfg, d_value, eta_value)
    if not d_value + 1 <= t <= eta_value - 1:
        raise ValueError(
            f"t={t} outside [D(G)+1, eta(G)-1] = [{d_value + 1}, {eta_value - 1}]"
        )
    _, certs = compute_c0_at(group, [t], cfg)
    return certs[t]


@dataclass
class EnumerationReport:
    group_spec: str
    length: int
    count: int
    nodes: int
    status: str
    symmetry_level: str
    violations: dict[str, list[Sequence]] = field(default_factory=dict)
    items: list[Sequence] = field(default_factory=list)
    wall_time_s: float = 0.0


def enumerate_short_free(
    group: AbelianGroup,
    length: int,
    cfg: SearchConfig,
    visitor=None,
    *,
    checks: tuple[str, ...] = (),
    collect: bool = False,
    per_element: int = 0,
) -> EnumerationReport:
    """Visit every short-free sequence of the given length once up to symmetry.

    With a visitor, representatives are collected and replayed in canonical
    order after the (possibly parallel) walk completes.
    """
    t0 = time.monotonic()
    do_collect = collect or visitor is not None
    ctx = _context(group, _PRED_SHORT_FREE, False, cfg.symmetry_level)
    pred = _make_pred(ctx, _PRED_SHORT_FREE)
    base = _base_payload(group, _PRED_SHORT_FREE, False, cfg)
    goal = {
        "kind": "enum",
        "length": length,
        "checks": list(checks),
        "per_element": per_element,
        "collect": do_collect,
    }
    payloads = [
        {**base, "goal": goal, "root": job} for job in _root_jobs(ctx, pred, length)
    ]
    results = _run_branches(payloads, cfg.parallel_width)
    count = 0
    nodes = 1
    exhausted = False
    violations: dict[str, list[Sequence]] = {c: [] for c in checks}
    items: list[Sequence] = []
    for res in results:
        count += res["count"]
        nodes += res["nodes"]
        exhausted = exhausted or res["exhausted"]
        for check, seqs in res["violations"].items():
            violations[check].extend(_sequence_from_indices(group, s) for s in seqs)
        if do_collect:
            items.extend(_sequence_from_indices(group, s) for s in res["items"])
    if visitor is not None:
        for seq in items:
            visitor(seq)
    return EnumerationReport(
        group_spec=group.spec(),
        length=length,
        count=count,
        nodes=nodes,
        status=STATUS_EXHAUSTED if exhausted else STATUS_PROVED,
        symmetry_level=cfg.symmetry_level,
        violations=violations,
        items=items if collect else [],
        wall_time_s=time.monotonic() - t0,
    )


def _property_cert(
    group: AbelianGroup,
    cfg: SearchConfig,
    prop: str,
    c: int | None,
    holds: bool | None,
    status: str,
    witness: Sequence | None,
    nodes: int,
    reason: str | None = None,
    wall: float = 0.0,
) -> Certificate:
    claim = {
        "type": "property",
        "property": prop,
        "group": group.spec(),
        "c": c,
        "holds": holds,
    }
    if reason:
        claim["reason"] = reason
    return Certificate(
        claim=claim,
        status=status,
        group_spec=group.spec(),
        witness=witness,
        nodes=nodes,
        symmetry_level=cfg.symmetry_level,
        config=cfg,
        wall_time_s=wall,
    )


def _require_cube(group: AbelianGroup) -> tuple[int, int]:
    if len(set(group.moduli)) != 1:
        raise ValueError("property checks are defined for groups C_n^r only")
    return group.moduli[0], group.rank


def check_property_C(
    group: AbelianGroup, cfg: SearchConfig, *, eta_value: int | None = None
) -> Certificate:
    """Every extremal short-free sequence is a product of c distinct (n-1)-powers."""
    t0 = time.monotonic()
    n, _ = _require_cube(group)
    nodes = 0
    if eta_value is None:
        eta_minus, cert = max_extremal_length(group, "eta", cfg)
        nodes += cert.nodes
        if cert.status != STATUS_PROVED:
            return _property_cert(
                group, cfg, "C", None, None, STATUS_EXHAUSTED, None, nodes,
                reason="eta(G) not established within budget",
                wall=time.monotonic() - t0,
            )
        eta_value = eta_minus + 1
    if (eta_value - 1) % (n - 1):
        return _property_cert(
            group, cfg, "C", None, False, STATUS_REFUTED, None, nodes,
            reason=f"eta(G)-1 = {eta_value - 1} is not a multiple of n-1",
            wall=time.monotonic() - t0,
        )
    c = (eta_value - 1) // (n - 1)
    report = enumerate_short_free(
        group, eta_value - 1, cfg, checks=("power_form",), per_element=n - 1
    )
    nodes += report.nodes
    bad = report.violations["power_form"]
    wall = time.monotonic() - t0
    if report.status != STATUS_PROVED and not bad:
        return _property_cert(
            group, cfg, "C", c, None, STATUS_EXHAUSTED, None, nodes, wall=wall
        )
    if bad:
        witness = min(bad, key=lambda s: s.items)
        if find_short_zero_sum(witness) is not None:
            raise AssertionError("property C violation witness is not short free")
        return _property_cert(
            group, cfg, "C", c, False, STATUS_REFUTED, witness, nodes, wall=wall
        )
    return _property_cert(group, cfg, "C", c, True, STATUS_PROVED, None, nodes, wall=wall)


def check_property_D(
    group: AbelianGroup, cfg: SearchConfig, *, s_value: int | None = None
) -> Certificate:
    """Every extremal sequence without length-exp zero-sums is a product of (n-1)-powers."""
    t0 = time.monotonic()
    n, _ = _require_cube(group)
    nodes = 0
    if s_value is None:
        s_minus, cert = max_extremal_length(group, "s", cfg)
        nodes += cert.nodes
        if cert.status != STATUS_PROVED:
            return _property_cert(
                group, cfg, "D", None, None, STATUS_EXHAUSTED, None, nodes,
                reason="s(G) not established within budget",
                wall=time.monotonic() - t0,
            )
        s_value = s_minus + 1
    if (s_value - 1) % (n - 1):
        return _property_cert(
            group, cfg, "D", None, False, STATUS_REFUTED, None, nodes,
            reason=f"s(G)-1 = {s_value - 1} is not a multiple of n-1",
            wall=time.monotonic() - t0,
        )
    c = (s_value - 1) // (n - 1)
    length = s_value - 1
    ctx = _context(group, _PRED_NO_EXACT_EXP, False, cfg.symmetry_level)
    pred = _make_pred(ctx, _PRED_NO_EXACT_EXP)
    base = _base_payload(group, _PRED_NO_EXACT_EXP, False, cfg)
    goal = {
        "kind": "enum",
        "length": length,
        "checks": ["power_form"],
        "per_element": n - 1,
        "collect": False,
    }
    payloads = [
        {**base, "goal": goal, "root": job} for job in _root_jobs(ctx, pred, length)
    ]
    results = _run_branches(payloads, cfg.parallel_width)
    exhausted = False
    bad_items: list[tuple[int, ...]] = []
    for res in results:
        nodes += res["nodes"]
        exhausted = exhausted or res["exhausted"]
        bad_items.extend(tuple(s) for s in res["violations"]["power_form"])
    nodes += 1
    wall = time.monotonic() - t0
    if bad_items:
        witness = _sequence_from_indices(group, min(bad_items))
        if find_zero_sum_exact_length(witness, n) is not None:
            raise AssertionError("property D violation witness has a length-n zero-sum")
        return _property_cert(
            group, cfg, "D", c, False, STATUS_REFUTED, witness, nodes, wall=wall
        )
    if exhausted:
        return _property_cert(
            group, cfg, "D", c, None, STATUS_EXHAUSTED, None, nodes, wall=wall
        )
    return _property_cert(group, cfg, "D", c, True, STATUS_PROVED, None, nodes, wall=wall)


def check_property_D0(group: AbelianGroup, c: int, cfg: SearchConfig) -> Certificate:
    """Every g * prod_{i<=c} g_i^(n-1) has a zero-sum subsequence of length exactly n.

    The leading term is fixed to 0 by translation invariance; the g_i multiset
    is reduced by the configured symmetry.
    """
    t0 = time.monotonic()
    n, _ = _require_cube(group)
    if c < 1:
        raise ValueError("c must be >= 1")
    ctx = _context(group, _PRED_NO_EXACT_EXP, False, cfg.symmetry_level)
    unit = _units(ctx.order, c)
    base = _base_payload(group, _PRED_NO_EXACT_EXP, False, cfg)
    payloads = []
    levels0 = _d0_push_block(ctx, tuple(set() for _ in range(n)), 0, 1)
    for g in range(ctx.order):
        if _extend(0, [0] * len(ctx.perms), ctx.perms, unit, g, 1) is None:
            continue
        if _d0_push_block(ctx, levels0, g, n - 1) is None:
            continue
        payloads.append({**base, "goal": {"kind": "d0", "c": c}, "root": g})
    results = _run_branches(payloads, cfg.parallel_width)
    nodes = 1
    exhausted = False
    counterexamples = []
    for res in results:
        nodes += res["nodes"]
        exhausted = exhausted or res["exhausted"]
        if res["counterexample"] is not None:
            counterexamples.append(tuple(res["counterexample"]))
    wall = time.monotonic() - t0
    if counterexamples:
        gs = min(counterexamples)
        items = [(0, 1)]
        witness = Sequence.from_items(
            group, items + [(g, n - 1) for g in gs]
        )
        if find_zero_sum_exact_length(witness, n) is not None:
            raise AssertionError("D0 counterexample has a length-n zero-sum")
        return _property_cert(
            group, cfg, "D0", c, False, STATUS_REFUTED, witness, nodes, wall=wall
        )
    if exhausted:
        return _property_cert(group, cfg, "D0", c, None, STATUS_EXHAUSTED, None, nodes, wall=wall)
    return _property_cert(group, cfg, "D0", c, True, STATUS_PROVED, None, nodes, wall=wall)
