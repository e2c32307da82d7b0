"""Extremal-sequence search with pruning and symmetry reduction.

The engine enumerates multisets over a group in nondecreasing element-index
order, choosing each element's multiplicity at first visit.  Pruning rules:

* per-element multiplicity bounds (v_g <= ord(g)-1 for short-free and
  zero-sum-free predicates, v_g <= exp(G)-1 for exact-length predicates);
* incremental feasibility: a partial state stores the sums of subsequences
  by count as bitmask layers packed in one int, advanced by the same
  subsum.add_term step as subsum.ReachTable, so "appending g creates a
  forbidden zero-sum" is one bit test.  The no_exact_exp layers count exactly
  c terms; the short_free layers are cumulative (at most c terms), so the top
  one is the whole set of sums of at most exp-1 terms;
* a remaining-potential bound folding {g, -g} conflicts, a few popcounts
  over masks built once per context;
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

Every search (an invariant, the C0 sweep, an enumeration, Properties C, D
and D0) goes through one run loop, _run: it builds the context (tables and
closed symmetries; once per run, and once per worker process at width > 1),
makes one branch per canonical, feasible child of the empty root and runs
the branches at the configured width.  Branches never share state, so node
counts, outcomes and witnesses are byte-identical at any width.  Budgets
bound each top-level subtree.  Property C is an enumeration under the
short_free predicate and Property D one under no_exact_exp; D0 pushes n-1
copies of each g_i onto the same no_exact_exp state, and a forbidden push
is a zero-sum of length exactly n.  Every witness is re-checked by
witness_valid before it is returned.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import gcd, lcm

from . import constructions
from .group import (
    SYMMETRY_LEVELS, AbelianGroup, close_symmetries, make_group, parse_group_spec, shift_bits,
    shift_steps, symmetries,
)
from .sequence import Sequence, read_sequence, write_sequence
from .subsum import (
    add_term, find_nonempty_zero_sum, find_short_zero_sum, find_zero_sum_exact_length,
    repeated_steps,
)

TOOL_VERSION = "0.1.0"
_CERT_FORMAT = "zerosum.certificate/1"

STATUS_PROVED = "proved_exhaustive"
STATUS_REFUTED = "refuted_with_witness"
STATUS_EXHAUSTED = "budget_exhausted"

INVARIANT_KINDS = ("D", "eta", "s", "f", "g")

#: Search keeps per-element tables (negation, shift steps, bounds, digit units)
#: and states of order-bit masks; keep the order bounded.
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
        if self.symmetry_level not in SYMMETRY_LEVELS:
            raise ValueError(f"unknown symmetry level {self.symmetry_level!r}")


# the SearchConfig fields a certificate records (parallel_width changes no result)
_CONFIG_KEYS = ("node_budget", "time_budget", "symmetry_level", "record_witnesses")


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
            "format": _CERT_FORMAT,
            "tool_version": TOOL_VERSION,
            "claim": self.claim,
            "status": self.status,
            "group": self.group_spec,
            "witness": None if self.witness is None else write_sequence(self.witness),
            "stats": {"nodes": self.nodes, "symmetry_level": self.symmetry_level},
            "config": {key: getattr(self.config, key) for key in _CONFIG_KEYS},
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"

    def cert_id(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    @classmethod
    def from_json(cls, text: str) -> Certificate:
        """Parse what to_json wrote; ValueError on another format or tool
        version, an unknown status or a missing field, never a default."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a certificate is a JSON object")
        for key, want in (("format", _CERT_FORMAT), ("tool_version", TOOL_VERSION)):
            if data.get(key) != want:
                raise ValueError(f"certificate {key} {data.get(key)!r} is not {want!r}")
        try:
            if data["status"] not in _EXIT_BY_STATUS:
                raise ValueError(f"unknown certificate status {data['status']!r}")
            stats, cfg, witness = data["stats"], data["config"], data["witness"]
            return cls(
                claim=data["claim"],
                status=data["status"],
                group_spec=data["group"],
                witness=None if witness is None else read_sequence(witness),
                nodes=stats["nodes"],
                symmetry_level=stats["symmetry_level"],
                config=SearchConfig(**{key: cfg[key] for key in _CONFIG_KEYS}),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate field: {exc}") from None


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
    """Per-run tables: negation, the shift steps that add each element to a
    bitmask of element indices, multiplicity bounds, symmetry perms, the
    digit units of the multiset code for multiplicities up to max(bound), the
    masks of the popcount potentials (see _PairPred) and of _negated, and for
    the layered states the steps repeated in every layer (lsteps), the offset
    of the top layer, the mask of all layers and the int with bit 0 set in
    every layer (see subsum.add_term).

    Immutable once built: one instance is shared by every root job of a run.
    """

    __slots__ = ("group", "order", "exp", "neg", "steps", "bound", "perms", "unit",
                 "ge", "nge", "weights", "less", "nbytes", "pad", "one", "lsteps", "top",
                 "full", "rep")

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
        neg = self.neg = tuple(group.index_of(-c for c in coords[i]) for i in range(order))
        self.steps = tuple(shift_steps(moduli, g) for g in range(order))
        # count layers 0..max(1, exp-1); the zero-sum-free state has none
        layers = max(2, self.exp)
        self.top = (layers - 1) * order
        self.full = (1 << layers * order) - 1
        self.rep = self.full // ((1 << order) - 1)
        self.lsteps = () if pred_name == _PRED_ZERO_SUM_FREE else tuple(
            repeated_steps(steps, self.rep) for steps in self.steps
        )
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
        # ge[s]: the indices >= s with a positive bound; nge[s]: their negations.
        # bound[h] == bound[-h], so one mask per distinct bound weighs both.
        ge, nge = [0] * (order + 1), [0] * (order + 1)
        weights: dict[int, int] = {}
        for h in range(order - 1, -1, -1):
            ge[h], nge[h] = ge[h + 1], nge[h + 1]
            if bounds[h] > 0:
                ge[h] |= 1 << h
                nge[h] |= 1 << neg[h]
                weights[bounds[h]] = weights.get(bounds[h], 0) | 1 << h
        self.ge, self.nge = tuple(ge), tuple(nge)
        self.weights = tuple(sorted(weights.items()))
        self.less = sum(1 << h for h in range(order) if neg[h] < h)
        self.nbytes = (order + 7) // 8
        self.pad = 8 * self.nbytes - order
        self.one = shift_steps(moduli, group.index_of([1] * group.rank))
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


#: _BIT_REVERSED[b] is the byte b with its bit order reversed.
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _negated(ctx: _Ctx, mask: int) -> int:
    """The index set {-x : x in mask}.

    Reversing the order bits maps index x to order-1-x, whose digits are
    m_i-1-c_i; adding (1, ..., 1) then gives -c_i in every coordinate.
    """
    rev = mask.to_bytes(ctx.nbytes, "little").translate(_BIT_REVERSED)
    return shift_bits(int.from_bytes(rev, "big") >> ctx.pad, ctx.one)


class _Pred:
    __slots__ = ("ctx",)

    def __init__(self, ctx: _Ctx) -> None:
        self.ctx = ctx


class _PairPred(_Pred):
    """State ends with (F, -F): F the sums g must not negate, -F its negation.

    The potential weighs the h >= start with -h not in F; when -h >= start
    counts too (h not in F), the pair {h, -h} counts once, at its smaller member.
    """

    __slots__ = ()

    def forbid(self, state, g: int) -> bool:
        return g == 0 or state[-1] >> g & 1

    def potential(self, state, start: int) -> int:
        ctx = self.ctx
        counted = ~state[-1] & ctx.ge[start] & ~(~state[-2] & ctx.nge[start] & ctx.less)
        pot = 0
        for b, mask in ctx.weights:
            pot += b * (counted & mask).bit_count()
        return pot


class _ShortFree(_PairPred):
    """State: (cumulative layers 0..exp-1, the top layer F, -F).

    Layer c holds the sums of at most c terms, so F is every sum of at most
    exp-1 terms, 0 included.  0 in F is harmless: bound[0] == 0 keeps it out
    of ge and nge, and forbid rejects g == 0 on its own.
    """

    __slots__ = ()

    def initial(self):
        return self.ctx.rep, 1, 1

    def push(self, state, g: int):
        ctx = self.ctx
        layers = add_term(state[0], ctx.lsteps[g], ctx.order, ctx.full)
        frame = layers >> ctx.top
        return layers, frame, _negated(ctx, frame)


class _ZeroSumFree(_PairPred):
    """State: (the mask F of all nonempty subsequence sums, -F)."""

    __slots__ = ()

    def initial(self):
        return 0, 0

    def push(self, state, g: int):
        # F' = F | (F | {0}) + g, so -F' = -F | (-F | {0}) - g
        sums, negs = state
        steps = self.ctx.steps
        return (sums | shift_bits(sums | 1, steps[g]),
                negs | shift_bits(negs | 1, steps[self.ctx.neg[g]]))


class _NoExactExp(_Pred):
    """State: exact-count layers 0..exp-1; forbids completing a length-exp
    zero-sum, that is pushing g while -g is a sum of exactly exp-1 terms."""

    __slots__ = ()

    def initial(self):
        return 1

    def forbid(self, state, g: int) -> bool:
        ctx = self.ctx
        return state >> (ctx.top + ctx.neg[g]) & 1

    def push(self, state, g: int):
        ctx = self.ctx
        return add_term(state, ctx.lsteps[g], ctx.order, ctx.full)

    def potential(self, state, start: int) -> int:
        """The bounds of the h >= start with -h not a sum of exp-1 terms,
        counted over the negations -h: popcount does not see the negation,
        and bound[h] == bound[-h]."""
        ctx = self.ctx
        free = ~(state >> ctx.top) & ctx.nge[start]
        pot = 0
        for b, mask in ctx.weights:
            pot += b * (free & mask).bit_count()
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
        if sigma == 1 and n in self.und:
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
                if sigma != 1:
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


def _chain(pred, state, g: int, copies: int) -> list:
    """The states after 1, 2, ... copies of g, at most `copies` of them,
    stopping before the first forbidden push."""
    out = []
    for _ in range(copies):
        if pred.forbid(state, g):
            break
        state = pred.push(state, g)
        out.append(state)
    return out


def _dfs(
    ctx: _Ctx, pred, goal, seq: list[int], state, sigma: int, last: int, stats: _Stats,
    enc: int, imgs: list[int],
) -> None:
    """Visit seq, then its canonical feasible children; sigma is the one-bit
    mask of the sum of seq, enc the code of seq and imgs[i] the code of its
    image under ctx.perms[i]."""
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
    steps = ctx.steps
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
        chain = _chain(pred, state, g, max_m)
        for m in range(len(chain), 0, -1):
            lo, hi = goal.needs()
            if hi is not None and length + m > hi:
                continue
            st_m = chain[m - 1]
            if lo is not None and length + m + pred.potential(st_m, g + 1) < lo:
                continue
            child = _extend(enc, imgs, perms, unit, g, m)
            if child is None:
                continue
            sg = sigma
            for _ in range(m):
                sg = shift_bits(sg, steps[g])
            _dfs(ctx, pred, goal, seq + [g] * m, st_m, sg, g, stats, *child)
            if stats.stopped:
                return
        lo, hi = goal.needs()
        if hi is not None and length >= hi:
            return


# -- Property D0 ----------------------------------------------------------------


def _push_copies(pred, state, g: int, copies: int):
    """The state after `copies` (>= 1) copies of g, or None if one is forbidden."""
    chain = _chain(pred, state, g, copies)
    return chain[-1] if len(chain) == copies else None


def _d0_dfs(
    ctx: _Ctx, pred, c: int, gs: list[int], state, stats: _Stats, found: list,
    unit: tuple[int, ...], enc: int, imgs: list[int],
) -> None:
    """Extend the g_i multiset gs (code enc, image codes imgs over digit units
    sized for c repeats, so each g_i counts once) by one element >= gs[-1].

    Each g_i pushes n-1 copies onto the no_exact_exp state; a forbidden push
    is a zero-sum of length exactly n, so that branch has the property.  A
    multiset of c elements that survives is a counterexample, put in found.
    """
    if found or stats.should_stop():
        return
    stats.nodes += 1
    if len(gs) == c:
        found.append(tuple(gs))
        return
    for g in range(gs[-1], ctx.order):
        child = _extend(enc, imgs, ctx.perms, unit, g, 1)
        if child is None:
            continue
        nxt = _push_copies(pred, state, g, ctx.exp - 1)
        if nxt is None:
            continue
        _d0_dfs(ctx, pred, c, gs + [g], nxt, stats, found, unit, *child)
        if found or stats.stopped:
            return


# -- the run loop ---------------------------------------------------------------


def _branch_worker(payload: dict) -> dict:
    """Search the subtree below one root job of a run (see _run)."""
    group = make_group(payload["moduli"])
    ctx = _context(group, payload["pred"], payload["squarefree"], payload["level"])
    pred = _make_pred(ctx, payload["pred"])
    stats = _Stats(payload["node_budget"], payload["time_budget"])
    goal_spec = payload["goal"]
    d0 = goal_spec["kind"] == "d0"
    if d0:  # the translated extra term 0, then n-1 copies of the first g_i
        g, m, unit = payload["root"], 1, _units(ctx.order, goal_spec["c"])
        state = _push_copies(pred, _push_copies(pred, pred.initial(), 0, 1), g, ctx.exp - 1)
    else:
        (g, m), unit = payload["root"], ctx.unit
        state = _push_copies(pred, pred.initial(), g, m)
    if state is None:
        raise AssertionError(f"root job {payload['root']} is infeasible")
    root = _extend(0, [0] * len(ctx.perms), ctx.perms, unit, g, m)
    if d0:
        found: list[tuple[int, ...]] = []
        _d0_dfs(ctx, pred, goal_spec["c"], [g], state, stats, found, unit, *root)
        out = {"counterexample": found[0] if found else None}
    else:
        goal = _goal_from_spec(goal_spec)
        _dfs(ctx, pred, goal, [g] * m, state, 1 << group.index_scalar(m, g), g, stats, *root)
        out = goal.to_payload()
    out["nodes"] = stats.nodes
    out["exhausted"] = stats.exhausted
    return out


def _root_jobs(ctx: _Ctx, pred, goal: dict) -> list:
    """Canonical, feasible children of the empty root: (element, multiplicity)
    pairs within the goal's length cap, or for D0 the first g_i."""
    empty = [0] * len(ctx.perms)
    if goal["kind"] == "d0":
        unit = _units(ctx.order, goal["c"])
        start = _push_copies(pred, pred.initial(), 0, 1)
        return [
            g for g in range(ctx.order)
            if _extend(0, empty, ctx.perms, unit, g, 1) is not None
            and _push_copies(pred, start, g, ctx.exp - 1) is not None
        ]
    hi = _goal_from_spec(goal).needs()[1]
    jobs = []
    for g in range(ctx.order):
        for m in range(len(_chain(pred, pred.initial(), g, ctx.bound[g])), 0, -1):
            if hi is not None and m > hi:
                continue
            if _extend(0, empty, ctx.perms, ctx.unit, g, m) is not None:
                jobs.append((g, m))
    return jobs


def _run(
    group: AbelianGroup, pred_name: str, squarefree: bool, cfg: SearchConfig, goal: dict
) -> tuple[list[dict], int, bool]:
    """Run one search: each root job is a branch, and branches run at
    cfg.parallel_width.

    Returns the branch results in root-job order, the node count (the empty
    root included) and whether a budget cut any branch.
    """
    ctx = _context(group, pred_name, squarefree, cfg.symmetry_level)
    base = {
        "moduli": group.moduli,
        "pred": pred_name,
        "squarefree": squarefree,
        "level": cfg.symmetry_level,
        "node_budget": cfg.node_budget,
        "time_budget": cfg.time_budget,
        "goal": goal,
    }
    payloads = [{**base, "root": job} for job in _root_jobs(ctx, _make_pred(ctx, pred_name), goal)]
    if cfg.parallel_width <= 1 or len(payloads) <= 1:
        results = [_branch_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=cfg.parallel_width) as pool:
            results = list(pool.map(_branch_worker, payloads, chunksize=1))
    nodes = 1 + sum(res["nodes"] for res in results)
    return results, nodes, any(res["exhausted"] for res in results)


# -- public operations ----------------------------------------------------------


def _greedy_lb(ctx: _Ctx, pred) -> tuple[int, tuple[int, ...] | None]:
    state = pred.initial()
    seq: list[int] = []
    for g in range(ctx.order):
        chain = _chain(pred, state, g, ctx.bound[g])
        if chain:
            state = chain[-1]
            seq += [g] * len(chain)
    return len(seq), tuple(seq) if seq else None


def _sequence_from_indices(group: AbelianGroup, indices) -> Sequence:
    return Sequence.from_items(group, ((i, 1) for i in indices))


def witness_valid(cert: Certificate) -> bool:
    """Re-check that the certificate's witness has the property its claim
    says, using the subsum routines rather than the search."""
    claim = cert.claim
    witness = cert.witness
    if witness is None or witness.group.moduli != parse_group_spec(cert.group_spec).moduli:
        return False
    n = witness.group.exponent

    def no_zero_sum_of_length_n() -> bool:
        return witness.length < n or find_zero_sum_exact_length(witness, n) is None

    if claim["type"] == "c0_membership":
        return (
            witness.length == claim["t"]
            and witness.is_zero_sum()
            and find_short_zero_sum(witness) is None
        )
    if claim["type"] == "invariant":
        kind = claim["invariant"]
        if witness.length != claim["extremal_length"]:
            return False
        if kind in ("f", "g") and not witness.is_squarefree():
            return False
        if kind == "D":
            return find_nonempty_zero_sum(witness) is None
        if kind in ("eta", "f"):
            return find_short_zero_sum(witness) is None
        return no_zero_sum_of_length_n()
    if claim["type"] == "property":
        # C, D: c*(n-1) terms, not c distinct (n-1)-powers; D0: one term more
        c = claim["c"]
        if not isinstance(c, int) or witness.length != c * (n - 1) + (claim["property"] == "D0"):
            return False
        if claim["property"] != "D0" and all(v == n - 1 for _, v in witness.items):
            return False
        if claim["property"] == "C":
            return find_short_zero_sum(witness) is None
        return no_zero_sum_of_length_n()
    return False


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
    t0 = time.monotonic()
    best, witness = _greedy_lb(ctx, _make_pred(ctx, pred_name))
    results, nodes, exhausted = _run(
        group, pred_name, squarefree, cfg, {"kind": "max", "lb": best}
    )
    for res in results:
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

    def c0_cert(t, status, witness=None, nodes=0, wall=0.0):
        member = {STATUS_PROVED: True, STATUS_REFUTED: False}.get(status)
        return Certificate(
            claim={"type": "c0_membership", "group": group.spec(), "t": t, "member": member},
            status=status,
            group_spec=group.spec(),
            witness=witness,
            nodes=nodes,
            symmetry_level=cfg.symmetry_level,
            config=cfg,
            wall_time_s=wall,
        )

    certs: dict[int, Certificate] = {}
    remaining: list[int] = []
    for t in sorted(set(targets)):
        for candidate in constructions.known_witnesses(group, t):
            cert = c0_cert(t, STATUS_REFUTED, candidate)
            if witness_valid(cert):
                certs[t] = cert
                break
        else:
            remaining.append(t)
    if remaining:
        results, nodes, exhausted = _run(
            group, _PRED_SHORT_FREE, False, cfg, {"kind": "lengths", "lengths": remaining}
        )
        found: dict[int, tuple[int, ...]] = {}
        for res in results:
            for key, items in res["witnesses"].items():
                tt = int(key)
                items = tuple(items)
                if tt not in found or items < found[tt]:
                    found[tt] = items
        wall = time.monotonic() - t0
        for t in remaining:
            if t in found:
                witness = _sequence_from_indices(group, found[t])
                certs[t] = c0_cert(t, STATUS_REFUTED, witness, nodes, wall)
                if not witness_valid(certs[t]):
                    raise AssertionError("search produced an invalid witness")
            else:
                status = STATUS_EXHAUSTED if exhausted else STATUS_PROVED
                certs[t] = c0_cert(t, status, None, nodes, wall)
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


def _enumerate(
    group: AbelianGroup, pred_name: str, length: int, cfg: SearchConfig,
    checks: tuple[str, ...], per_element: int, collect: bool,
) -> tuple[int, dict[str, list[tuple[int, ...]]], list[tuple[int, ...]], int, bool]:
    """Visit every sequence of one length under the predicate once up to symmetry.

    Returns (count, violations by check, collected items, nodes, exhausted),
    sequences as sorted index tuples in canonical order.
    """
    goal = {
        "kind": "enum",
        "length": length,
        "checks": list(checks),
        "per_element": per_element,
        "collect": collect,
    }
    results, nodes, exhausted = _run(group, pred_name, False, cfg, goal)
    violations = {c: [tuple(s) for res in results for s in res["violations"][c]] for c in checks}
    items = [tuple(s) for res in results for s in res["items"]]
    return sum(res["count"] for res in results), violations, items, nodes, exhausted


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
    count, violations, items, nodes, exhausted = _enumerate(
        group, _PRED_SHORT_FREE, length, cfg, checks, per_element, collect or visitor is not None
    )
    seqs = [_sequence_from_indices(group, s) for s in items]
    if visitor is not None:
        for seq in seqs:
            visitor(seq)
    return EnumerationReport(
        group_spec=group.spec(),
        length=length,
        count=count,
        nodes=nodes,
        status=STATUS_EXHAUSTED if exhausted else STATUS_PROVED,
        symmetry_level=cfg.symmetry_level,
        violations={
            c: [_sequence_from_indices(group, s) for s in bad] for c, bad in violations.items()
        },
        items=seqs if collect else [],
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
    cert = Certificate(
        claim=claim,
        status=status,
        group_spec=group.spec(),
        witness=witness,
        nodes=nodes,
        symmetry_level=cfg.symmetry_level,
        config=cfg,
        wall_time_s=wall,
    )
    if witness is not None and not witness_valid(cert):
        raise AssertionError(f"property {prop} counterexample is invalid")
    return cert


def _require_cube(group: AbelianGroup) -> tuple[int, int]:
    if len(set(group.moduli)) != 1:
        raise ValueError("property checks are defined for groups C_n^r only")
    return group.moduli[0], group.rank


# Property C and D: the invariant whose extremal sequences are enumerated, and
# the predicate that enumerates them
_POWER_PROPERTIES = {"C": ("eta", _PRED_SHORT_FREE), "D": ("s", _PRED_NO_EXACT_EXP)}


def _check_power_property(
    group: AbelianGroup, cfg: SearchConfig, prop: str, value: int | None
) -> Certificate:
    """Every sequence of length value-1 (value the property's invariant, found
    by search if None) that avoids the predicate's zero-sums is a product of
    c distinct (n-1)-powers.  A violation's witness is the least index tuple.
    """
    t0 = time.monotonic()
    n, _ = _require_cube(group)
    kind, pred_name = _POWER_PROPERTIES[prop]
    nodes = 0

    def cert(c, holds, status, witness=None, reason=None):
        return _property_cert(
            group, cfg, prop, c, holds, status, witness, nodes, reason, time.monotonic() - t0
        )

    if value is None:
        extremal, inv_cert = max_extremal_length(group, kind, cfg)
        nodes = inv_cert.nodes
        if inv_cert.status != STATUS_PROVED:
            reason = f"{kind}(G) not established within budget"
            return cert(None, None, STATUS_EXHAUSTED, reason=reason)
        value = extremal + 1
    length = value - 1
    if length % (n - 1):
        return cert(
            None, False, STATUS_REFUTED,
            reason=f"{kind}(G)-1 = {length} is not a multiple of n-1",
        )
    c = length // (n - 1)
    _, violations, _, run_nodes, exhausted = _enumerate(
        group, pred_name, length, cfg, ("power_form",), n - 1, False
    )
    nodes += run_nodes
    bad = violations["power_form"]
    if bad:
        return cert(c, False, STATUS_REFUTED, _sequence_from_indices(group, min(bad)))
    if exhausted:
        return cert(c, None, STATUS_EXHAUSTED)
    return cert(c, True, STATUS_PROVED)


def check_property_C(
    group: AbelianGroup, cfg: SearchConfig, *, eta_value: int | None = None
) -> Certificate:
    """Every extremal short-free sequence is a product of c distinct (n-1)-powers."""
    return _check_power_property(group, cfg, "C", eta_value)


def check_property_D(
    group: AbelianGroup, cfg: SearchConfig, *, s_value: int | None = None
) -> Certificate:
    """Every extremal sequence without length-exp zero-sums is a product of (n-1)-powers."""
    return _check_power_property(group, cfg, "D", s_value)


def check_property_D0(group: AbelianGroup, c: int, cfg: SearchConfig) -> Certificate:
    """Every g * prod_{i<=c} g_i^(n-1) has a zero-sum subsequence of length exactly n.

    The leading term is fixed to 0 by translation invariance; the g_i multiset
    is reduced by the configured symmetry.
    """
    t0 = time.monotonic()
    n, _ = _require_cube(group)
    if c < 1:
        raise ValueError("c must be >= 1")
    results, nodes, exhausted = _run(group, _PRED_NO_EXACT_EXP, False, cfg, {"kind": "d0", "c": c})
    found = [tuple(res["counterexample"]) for res in results if res["counterexample"] is not None]
    wall = time.monotonic() - t0
    if found:
        witness = Sequence.from_items(group, [(0, 1)] + [(g, n - 1) for g in min(found)])
        return _property_cert(group, cfg, "D0", c, False, STATUS_REFUTED, witness, nodes, wall=wall)
    if exhausted:
        return _property_cert(group, cfg, "D0", c, None, STATUS_EXHAUSTED, None, nodes, wall=wall)
    return _property_cert(group, cfg, "D0", c, True, STATUS_PROVED, None, nodes, wall=wall)
