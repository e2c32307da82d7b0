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
  one is the whole set of sums of at most exp-1 terms, and beside them the
  short_free state carries those of the negated terms, whose top one is -F.
  Each predicate's chain(state, g, copies) is the one push path: it reads
  the context tables once and returns the states after 1, 2, ... copies of
  g, the bit test before each push, stopping at the first forbidden one;
* a remaining-potential bound folding {g, -g} conflicts, a few popcounts
  over masks built once per context;
* orderly generation: a node is explored only when its multiset is
  lexicographically minimal over the closed symmetry group, which is sound
  because extensions only append indices >= the current maximum.  A
  multiset's code is the integer sum of mult[x] << k*(order-1-x), with k
  bits per digit enough for the largest multiplicity; on sorted tuples of
  equal length lex order is reversed integer order.  The DFS carries one
  packed int per node, a field per permutation holding the node's code
  minus the code of its image plus a guard bit (see group.PackedCodes), so
  a test is one big-int add and one mask.  It has two stages: the head,
  over the first perms, and then the full test where there are more.  A
  root job g^m is canonical iff g is the least element of its orbit.  The
  scan over the next element skips one whose first push the predicate's
  frame forbids, and stops at the first one whose potential, counting the
  element itself, cannot reach the goal.  Below the root the head test then
  runs before any push: the largest multiplicity of g falls to the largest
  that passes it, and g is skipped if none does; then each g^m meets the
  goal and potential cuts, the head test and the full test.  At a root job
  the cuts and pushes run first, so a root whose children are all cut
  closes nothing;
* translation, for the exact-length goals (s, g, Property D): a length-exp
  zero-sum does not move under T -> T + a, so an element of largest
  multiplicity m may be put at 0.  Their root jobs are (0, m) alone, each
  branch capping every bound and potential weight at m.  Automorphisms fix
  0 and keep multiplicities, so lex-min canonicity below the root stays
  sound; dropping the last element's copies keeps 0 at multiplicity m, so
  orderly generation stays complete.  D, eta, f, C0 and D0 (whose 0 is
  fixed already) keep their roots at the orbit minima.

Every search (an invariant, the C0 sweep, an enumeration, Properties C, D
and D0) goes through one run loop, _run: it builds the context (tables and
symmetry generators; once per run, and once per worker process at width >
1), makes one branch per canonical, feasible child of the empty root and
runs the branches at the configured width.  Each branch makes its own goal
from the run's goal factory, searches with it and returns it, and the caller
reads the goals' fields.  The closed symmetry group and its packed codes are
built at the first child test, so a search whose children are all cut
before the test never closes the group and never meets its cap.  At width >
1 the run closes the group once before the workers start; a closure past
its cap is kept as its error, raised only where a child is tested.
Branches never share state, so node counts, outcomes and witnesses are
byte-identical at any width.  Budgets bound each top-level subtree.
Property C is an enumeration under the short_free predicate and Property D
one under no_exact_exp.  Property D0 is a goal over sets of g_i, each one
unit of n-1 copies pushed onto a no_exact_exp state that starts with the
translated 0, so a forbidden push is a zero-sum of length exactly n; it
runs on the squarefree context of g, as a second unit of g_i would hold
2(n-1) >= n copies and n*g_i = 0 in C_n^r.  Its goal asks for exactly c
units, so it meets the potential cut at length c.  The running sum is carried
only for goals that read it.  One builder, _certificate, makes every
search certificate and re-checks its witness by witness_valid, and so by
subsum.witnesses, before it is returned.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import partial
from math import gcd, lcm

from . import constructions
from .group import (
    SYMMETRY_LEVELS, AbelianGroup, PackedCodes, close_symmetries, parse_group_spec,
    shift_bits, shift_steps, symmetries,
)
from .sequence import Sequence, read_sequence, write_sequence
from .subsum import add_term, repeated_steps, witnesses

TOOL_VERSION = "0.1.0"
_CERT_FORMAT = "zerosum.certificate/2"

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

    def __post_init__(self) -> None:
        if self.node_budget < 0 or self.time_budget < 0:
            raise ValueError("budgets must be >= 0")
        if self.parallel_width < 1:
            raise ValueError("parallel_width must be >= 1")
        if self.symmetry_level not in SYMMETRY_LEVELS:
            raise ValueError(f"unknown symmetry level {self.symmetry_level!r}")

    def recorded(self) -> dict:
        """The fields a certificate records, on which a result depends:
        parallel_width changes none."""
        return {key: getattr(self, key) for key in _CONFIG_KEYS}


_CONFIG_KEYS = ("node_budget", "time_budget", "symmetry_level")


@dataclass
class Certificate:
    """Machine-checkable outcome of a search or verification."""

    claim: dict
    status: str
    group_spec: str
    witness: Sequence | None
    nodes: int
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
            "stats": {"nodes": self.nodes},
            "config": self.config.recorded(),
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"

    def cert_id(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    @classmethod
    def from_json(cls, text: str) -> Certificate:
        """Parse what to_json wrote; ValueError on another format or tool
        version, an unknown status, a missing field, never a default, a group
        that is not a str or a witness that is neither null nor a str, and on
        JSON nested too deeply to decode."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("certificate JSON is nested too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("a certificate is a JSON object")
        for key, want in (("format", _CERT_FORMAT), ("tool_version", TOOL_VERSION)):
            if data.get(key) != want:
                raise ValueError(f"certificate {key} {data.get(key)!r} is not {want!r}")
        try:
            if data["status"] not in _EXIT_BY_STATUS:
                raise ValueError(f"unknown certificate status {data['status']!r}")
            stats, cfg, witness = data["stats"], data["config"], data["witness"]
            if not isinstance(data["group"], str) or not isinstance(witness, (str, type(None))):
                raise ValueError("certificate group is not a str, or witness not null or a str")
            return cls(
                claim=data["claim"],
                status=data["status"],
                group_spec=data["group"],
                witness=None if witness is None else read_sequence(witness),
                nodes=stats["nodes"],
                config=SearchConfig(**{key: cfg[key] for key in _CONFIG_KEYS}),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed certificate field: {exc}") from None


# -- context and predicates -----------------------------------------------------

_PRED_SHORT_FREE = "short_free"
_PRED_ZERO_SUM_FREE = "zero_sum_free"
_PRED_NO_EXACT_EXP = "no_exact_exp"
_PRED_D0 = "d0_units"  # Property D0's units, on the no_exact_exp tables

_KIND_TO_PRED = {
    "D": (_PRED_ZERO_SUM_FREE, False),
    "eta": (_PRED_SHORT_FREE, False),
    "s": (_PRED_NO_EXACT_EXP, False),
    "f": (_PRED_SHORT_FREE, True),
    "g": (_PRED_NO_EXACT_EXP, True),
}


class _Ctx:
    """Per-run tables: negation, the shift steps that add each element to a
    bitmask of element indices, multiplicity bounds, the generator perms of
    the symmetry group (gens) and the least element of each orbit (minima),
    the masks of the popcount potentials (see _PairPred), and for the layered
    states the steps repeated in every layer (lsteps), the offset of the top
    layer, the mask of all layers and the int with bit 0 set in every layer
    (see subsum.add_term).  perms, the non-identity perms of the closed
    symmetry group, generators first, is closed on first use or by close()
    (a closure past its cap is kept as its ValueError, raised at every
    read); codes, the packed image codes for multiplicities up to
    max(bound), are built on first use over perms, with their head over the
    first perms.  _dfs first reads them at a root job's first child test, so
    a tree that tests no child closes nothing.

    One instance is shared by every root job of a run.  Once built, only
    perms, codes and the deltas of codes and its head fill in, with values
    that are a function of the context's key alone.
    """

    __slots__ = ("group", "order", "exp", "neg", "steps", "bound", "gens", "minima",
                 "_perms", "_codes", "ge", "nge", "weights", "less", "lsteps", "top",
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
        else:  # ord(g) - 1
            bounds = [lcm(*(m // gcd(c, m) for c, m in zip(x, moduli))) - 1 for x in coords]
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
        self.gens = tuple(symmetries(group, level))
        self.minima = _orbit_minima(self.gens, order)
        self._perms = self._codes = None

    def close(self) -> None:
        """Close the symmetry group once: _perms keeps the non-identity perms,
        or the ValueError of a closure past its cap."""
        if self._perms is None:
            try:  # the identity comes first, then the generators
                self._perms = tuple(close_symmetries(self.group, self.gens)[1:])
            except ValueError as exc:
                self._perms = exc

    @property
    def perms(self) -> tuple[tuple[int, ...], ...]:
        """The non-identity perms of the closed symmetry group, closed on
        first use: ValueError here, at every read, if the closure exceeds
        its cap."""
        self.close()
        if isinstance(self._perms, ValueError):
            raise ValueError(*self._perms.args)
        return self._perms

    @property
    def codes(self) -> PackedCodes:
        """The packed image codes for multiplicities up to max(bound)."""
        if self._codes is None:
            self._codes = PackedCodes(self.perms, self.order, max(1, max(self.bound).bit_length()))
        return self._codes


_ctx_memo: dict[tuple, _Ctx] = {}


def _context(group: AbelianGroup, pred_name: str, squarefree: bool, level: str) -> _Ctx:
    """The context for these arguments, kept with every other context of its
    group until one of another group is asked for: a process builds each
    context once, whatever the order of its searches.

    The tables are a function of the key alone, and so is every delta the
    packed codes fill in later, so every root job of a run, and every run in
    a process, may share one instance.
    """
    if pred_name == _PRED_D0:
        pred_name = _PRED_NO_EXACT_EXP
    key = (group.moduli, pred_name, squarefree, level)
    ctx = _ctx_memo.get(key)
    if ctx is None:
        if any(moduli != group.moduli for moduli, *_ in _ctx_memo):
            _ctx_memo.clear()
        ctx = _ctx_memo[key] = _Ctx(group, pred_name, squarefree, level)
    return ctx


def _orbit_minima(gens, order: int) -> tuple[int, ...]:
    """The least element of each orbit of the group the generator perms
    generate, in increasing order."""
    seen: set[int] = set()
    minima = []
    for x in range(order):
        if x in seen:
            continue
        minima.append(x)  # the orbits of all smaller elements are seen
        seen.add(x)
        orbit = [x]
        for y in orbit:  # the list grows while it is read
            for p in gens:
                if p[y] not in seen:
                    seen.add(p[y])
                    orbit.append(p[y])
    return tuple(minima)


class _Pred:
    """A predicate over ctx, with its branch's bounds and potential weights."""

    __slots__ = ("ctx", "bound", "weights")
    translates = False  # roots at 0^m, each bound capped at m: see the module docstring

    def __init__(self, ctx: _Ctx) -> None:
        self.ctx, self.bound, self.weights = ctx, ctx.bound, ctx.weights

    def cap(self, m: int) -> None:
        """Cap every bound, and so every weight, at m."""
        self.bound = tuple(min(b, m) for b in self.ctx.bound)
        self.weights = tuple((min(b, m), mask) for b, mask in self.ctx.weights)


class _PairPred(_Pred):
    """State ends with (F, -F): F the sums g must not negate, -F its negation.

    The potential weighs the h >= start with -h not in F; when -h >= start
    counts too (h not in F), the pair {h, -h} counts once, at its smaller member.
    """

    __slots__ = ()

    def frame(self, state) -> int:
        """F: one push of g is forbidden iff -g is in F."""
        return state[-2]

    def potential(self, state, start: int) -> int:
        ctx = self.ctx
        counted = ~state[-1] & ctx.ge[start] & ~(~state[-2] & ctx.nge[start] & ctx.less)
        pot = 0
        for b, mask in self.weights:
            pot += b * (counted & mask).bit_count()
        return pot


class _ShortFree(_PairPred):
    """State: (cumulative layers 0..exp-1 of seq, the same of -seq, the top
    layer F, -F).

    Layer c holds the sums of at most c terms, so F is every sum of at most
    exp-1 terms, 0 included, and -F is the top layer of -seq.  0 in F is
    harmless: bound[0] == 0 keeps it out of ge and nge, and 0 in -F makes
    chain refuse g == 0.
    """

    __slots__ = ()

    def initial(self):
        rep = self.ctx.rep
        return rep, rep, 1, 1

    def chain(self, state, g: int, copies: int) -> list:
        """The states after 1, 2, ... copies of g, at most `copies` of them,
        stopping before the first forbidden push: one with g in -F."""
        ctx = self.ctx
        order, full, top = ctx.order, ctx.full, ctx.top
        steps, nsteps = ctx.lsteps[g], ctx.lsteps[ctx.neg[g]]
        layers, negs, _, nf = state
        out = []
        for _ in range(copies):
            if nf >> g & 1:
                break
            layers = add_term(layers, steps, order, full)
            negs = add_term(negs, nsteps, order, full)
            nf = negs >> top
            out.append((layers, negs, layers >> top, nf))
        return out


class _ZeroSumFree(_PairPred):
    """State: (the mask F of all nonempty subsequence sums, -F)."""

    __slots__ = ()

    def initial(self):
        return 0, 0

    def frame(self, state) -> int:
        return state[-2] | 1  # g == 0 is refused too

    def chain(self, state, g: int, copies: int) -> list:
        """As _ShortFree.chain.  F' = F | (F | {0}) + g, so
        -F' = -F | (-F | {0}) - g."""
        if g == 0:
            return []
        steps = self.ctx.steps
        gsteps, nsteps = steps[g], steps[self.ctx.neg[g]]
        sums, negs = state
        out = []
        for _ in range(copies):
            if negs >> g & 1:
                break
            sums |= shift_bits(sums | 1, gsteps)
            negs |= shift_bits(negs | 1, nsteps)
            out.append((sums, negs))
        return out


class _NoExactExp(_Pred):
    """State: exact-count layers 0..exp-1; forbids completing a length-exp
    zero-sum, that is pushing g while -g is a sum of exactly exp-1 terms."""

    __slots__ = ()
    translates = True

    def initial(self):
        return 1

    def frame(self, state) -> int:
        """The top layer: one push of g is forbidden iff -g is in it."""
        return state >> self.ctx.top

    def chain(self, state, g: int, copies: int) -> list:
        """The states after 1, 2, ... copies of g, at most `copies` of them,
        stopping before the first forbidden push."""
        ctx = self.ctx
        order, full, steps = ctx.order, ctx.full, ctx.lsteps[g]
        bit = ctx.top + ctx.neg[g]
        out = []
        for _ in range(copies):
            if state >> bit & 1:
                break
            state = add_term(state, steps, order, full)
            out.append(state)
        return out

    def potential(self, state, start: int) -> int:
        """The bounds of the h >= start with -h not a sum of exp-1 terms,
        counted over the negations -h: popcount does not see the negation,
        and bound[h] == bound[-h]."""
        ctx = self.ctx
        free = ~(state >> ctx.top) & ctx.nge[start]
        pot = 0
        for b, mask in self.weights:
            pot += b * (free & mask).bit_count()
        return pot


class _D0Units(_NoExactExp):
    """Property D0's predicate (see the module docstring): the state starts
    after the translated term 0, and a unit of g is n-1 copies of it."""

    __slots__ = ()
    translates = False  # the translated 0 is already fixed

    def initial(self):
        return 1 | 1 << self.ctx.order  # the sums of none and of one term: 0

    def chain(self, state, g: int, copies: int) -> list:
        """The states after 1, 2, ... whole units of g, at most `copies` of
        them, stopping before the unit that holds the first forbidden push."""
        unit = self.ctx.exp - 1
        return _NoExactExp.chain(self, state, g, copies * unit)[unit - 1::unit]


_PREDS = {_PRED_SHORT_FREE: _ShortFree, _PRED_ZERO_SUM_FREE: _ZeroSumFree,
          _PRED_NO_EXACT_EXP: _NoExactExp, _PRED_D0: _D0Units}


# -- goals ----------------------------------------------------------------------
# A run makes one goal per branch from a factory (a class, or a partial of
# one), and the branch returns it after its search: the caller reads its
# fields.  Goals and their factories pickle, so they cross to and from the
# workers at width > 1 as they are.


class _MaxGoal:
    """Track the longest sequence seen; needs() asks for strictly longer ones."""

    __slots__ = ("best", "witness")
    reads_sum = False

    def __init__(self, lb: int) -> None:
        self.best = lb
        self.witness: tuple[int, ...] | None = None

    def visit(self, seq: list[int], sigma: int) -> None:
        if len(seq) > self.best:
            self.best = len(seq)
            self.witness = tuple(seq)

    def needs(self):
        return self.best + 1, None


class _LengthsGoal:
    """Find a zero-sum sequence at each target length (the C0 sweep)."""

    __slots__ = ("und", "witnesses")
    reads_sum = True

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


class _EnumGoal:
    """Visit every sequence of one exact length, at least 1; optionally test
    the named checks, sum_zero and power_form (another length or name is a
    ValueError here, before the search starts)."""

    __slots__ = ("length", "checks", "per_element", "count", "violations", "collect", "items",
                 "reads_sum")

    def __init__(
        self, length: int, checks: tuple[str, ...], per_element: int, collect: bool
    ) -> None:
        if length < 1:
            raise ValueError(f"enumeration length must be >= 1, got {length}")
        for check in checks:
            if check not in ("sum_zero", "power_form"):
                raise ValueError(f"unknown enumeration check {check!r}")
        self.length = length
        self.checks = checks
        self.reads_sum = "sum_zero" in checks
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
            else:  # power_form
                mults: dict[int, int] = {}
                for i in seq:
                    mults[i] = mults.get(i, 0) + 1
                if any(v != self.per_element for v in mults.values()):
                    self.violations[check].append(tuple(seq))

    def needs(self):
        return self.length, self.length


class _D0Goal:
    """Find the first set of c units, a counterexample to Property D0.
    needs() asks for exactly c, so the potential cut applies (an element
    blocked once stays blocked, so no cut branch holds a witness); once one
    is found it caps every length at -1, so the run stops."""

    __slots__ = ("c", "witness")
    reads_sum = False

    def __init__(self, c: int) -> None:
        self.c, self.witness = c, None

    def visit(self, seq: list[int], sigma: int) -> None:
        if len(seq) == self.c:
            self.witness = tuple(seq)

    def needs(self):
        return (self.c, self.c) if self.witness is None else (None, -1)


# -- DFS core ----------------------------------------------------------------


# room in _dfs when the goal caps no length
_NO_CAP = 1 << 62


class _Stats:
    __slots__ = ("nodes", "node_budget", "deadline", "exhausted")

    def __init__(self, node_budget: int, time_budget: float) -> None:
        self.nodes = 0
        self.node_budget = node_budget
        self.deadline = time.monotonic() + time_budget if time_budget else None
        self.exhausted = False

    def should_stop(self) -> bool:
        """Whether a budget is spent; the clock is read every 256 nodes."""
        if self.exhausted:
            return True
        if self.node_budget and self.nodes >= self.node_budget:
            self.exhausted = True
        elif self.deadline is not None and (self.nodes & 255) == 0:
            self.exhausted = time.monotonic() > self.deadline
        return self.exhausted


def _dfs(
    ctx: _Ctx, pred, goal, seq: list[int], state, sigma: int, last: int, stats: _Stats,
    q: int | None,
) -> None:
    """Visit seq, then its canonical feasible children; sigma is the one-bit
    mask of the sum of seq, or 0 when the goal does not read the sum, and q
    the packed image codes of seq in ctx.codes, or None at a root job: that
    q is made at the first child test, from a delta built but not kept, as
    no node below adds the root element again.
    """
    if stats.should_stop():
        return
    stats.nodes += 1
    goal.visit(seq, sigma)
    length = len(seq)
    # the goal changes only in visit, so lo and hi are read again only after
    # a child returns; room is how many terms a child may add
    needs, potential, chain = goal.needs, pred.potential, pred.chain
    lo, hi = needs()
    room = _NO_CAP if hi is None else hi - length
    if room <= 0:
        return
    bound, neg, steps = pred.bound, ctx.neg, ctx.steps
    frame = pred.frame(state)
    if q is not None:  # a tested child, so the codes are built
        codes = ctx._codes
        head = codes.head
        heads, hguard = head.deltas, head.guard
        qh = q if head is codes else q & head.mask  # no copy of q per frame
    for g in range(last + 1, ctx.order):
        if frame >> neg[g] & 1:  # not one copy of g can be pushed
            continue
        # potential(state, g) bounds the length any child with elements >= g
        # can add; it does not grow with g and lo does not shrink, so no later
        # element can reach lo either (nor could the blocked ones skipped above)
        if lo is not None and length + potential(state, g) < lo:
            break
        b = bound[g]  # >= 1, as g > last >= 0 and only the element 0 has bound 0
        max_m = b if b < room else room
        if q is not None:  # before any push: the largest m that passes the head test
            dh = heads[g]
            if dh is None:
                dh = head.delta(g)
            while max_m and (qh + max_m * dh) & hguard != hguard:
                max_m -= 1
            if not max_m:
                continue
        states = chain(state, g, max_m)
        for m in range(len(states), 0, -1):
            if m > room:  # hi fell when an earlier child returned
                continue
            st_m = states[m - 1]
            if lo is not None and length + m + potential(st_m, g + 1) < lo:
                continue
            if q is None:  # the root job last^length: its first child test
                codes = ctx.codes
                head = codes.head
                q = codes.guard + length * codes.build(last)
                heads, hguard = head.deltas, head.guard
                qh = q if head is codes else q & head.mask
                dh = head.delta(g)
            child = qh + m * dh
            if child & hguard != hguard:
                continue
            if head is not codes:  # 1 * delta would copy a delta of up to 1.5 MB
                delta = codes.delta(g)
                child = q + (delta if m == 1 else m * delta)
                if child & codes.guard != codes.guard:
                    continue
            sg = sigma
            if sg:
                for _ in range(m):
                    sg = shift_bits(sg, steps[g])
            _dfs(ctx, pred, goal, seq + [g] * m, st_m, sg, g, stats, child)
            if stats.exhausted:
                return
            lo, hi = needs()
            room = _NO_CAP if hi is None else hi - length
            if room <= 0:
                return


# -- the run loop ---------------------------------------------------------------


def _branch_worker(job: tuple) -> tuple:
    """Search the subtree below one root job of a run (see _run).  Returns
    the branch's goal after the search, its node count and whether a budget
    cut it."""
    group, pred_name, squarefree, cfg, make_goal, (g, m) = job
    ctx = _context(group, pred_name, squarefree, cfg.symmetry_level)
    pred = _PREDS[pred_name](ctx)
    if pred.translates:
        pred.cap(m)
    stats = _Stats(cfg.node_budget, cfg.time_budget)
    goal = make_goal()
    states = pred.chain(pred.initial(), g, m)
    if len(states) != m:
        raise AssertionError(f"root job {(g, m)} is infeasible")
    sigma = 1 << group.index_scalar(m, g) if goal.reads_sum else 0
    _dfs(ctx, pred, goal, [g] * m, states[-1], sigma, g, stats, None)
    return goal, stats.nodes, stats.exhausted


def _root_jobs(ctx: _Ctx, pred, make_goal) -> list:
    """Canonical, feasible children of the empty root: (element, multiplicity)
    pairs within the length cap of a fresh goal.

    g^m is canonical iff no perm maps g below itself, that is iff g is the
    least element of its orbit; a translating predicate roots at 0 alone.
    """
    hi = make_goal().needs()[1]
    jobs = []
    for g in (0,) if pred.translates else ctx.minima:
        for m in range(len(pred.chain(pred.initial(), g, ctx.bound[g])), 0, -1):
            if hi is None or m <= hi:
                jobs.append((g, m))
    return jobs


def _run(
    group: AbelianGroup, pred_name: str, squarefree: bool, cfg: SearchConfig, make_goal
) -> tuple[list, int, bool]:
    """Run one search: each root job is a branch with its own goal from
    make_goal, and branches run at cfg.parallel_width.

    Returns the branches' goals in root-job order, the node count (the empty
    root included) and whether a budget cut any branch.
    """
    ctx = _context(group, pred_name, squarefree, cfg.symmetry_level)
    jobs = [(group, pred_name, squarefree, cfg, make_goal, root)
            for root in _root_jobs(ctx, _PREDS[pred_name](ctx), make_goal)]
    if cfg.parallel_width <= 1 or len(jobs) <= 1:
        results = [_branch_worker(job) for job in jobs]
    else:
        # imported here: the pool module loads multiprocessing, which width 1 never uses
        from concurrent.futures import ProcessPoolExecutor

        # close once, before the workers fork: each inherits the group, or its
        # cap error, which it raises only at its first child test
        ctx.close()
        with ProcessPoolExecutor(max_workers=cfg.parallel_width) as pool:
            results = list(pool.map(_branch_worker, jobs, chunksize=1))
    nodes = 1 + sum(branch_nodes for _, branch_nodes, _ in results)
    return [goal for goal, _, _ in results], nodes, any(cut for _, _, cut in results)


# -- public operations ----------------------------------------------------------


def _greedy_lb(ctx: _Ctx, pred) -> tuple[int, tuple[int, ...] | None]:
    state = pred.initial()
    seq: list[int] = []
    for g in range(ctx.order):
        chain = pred.chain(state, g, ctx.bound[g])
        if chain:
            state = chain[-1]
            seq += [g] * len(chain)
    return len(seq), tuple(seq) if seq else None


def _sequence_from_indices(group: AbelianGroup, indices) -> Sequence:
    return Sequence.from_items(group, ((i, 1) for i in indices))


def witness_valid(cert: Certificate) -> bool:
    """Re-check that the certificate carries a witness in its own group that
    has the property its claim says, by subsum.witnesses rather than the
    search."""
    witness = cert.witness
    if witness is None or witness.group.moduli != parse_group_spec(cert.group_spec).moduli:
        return False
    return witnesses(cert.claim, witness)


def _certificate(
    group: AbelianGroup, cfg: SearchConfig, claim: dict, status: str,
    witness: Sequence | None, nodes: int, t0: float,
) -> Certificate:
    """The certificate of a search begun at time.monotonic() t0.  A witness
    that witness_valid rejects raises AssertionError, naming the invariant,
    the property or the C0 length."""
    cert = Certificate(
        claim=claim, status=status, group_spec=group.spec(), witness=witness, nodes=nodes,
        config=cfg, wall_time_s=time.monotonic() - t0,
    )
    if witness is not None and not witness_valid(cert):
        what = claim.get("invariant") or f"{claim['type']} {claim.get('property', claim.get('t'))}"
        raise AssertionError(f"search produced an invalid {what} witness")
    return cert


def max_extremal_length(
    group: AbelianGroup, kind: str, cfg: SearchConfig
) -> tuple[int, Certificate]:
    """Maximum length of a sequence avoiding the kind's forbidden pattern.

    The invariant value is the returned length plus one.  Status is
    proved_exhaustive only when the full canonical tree was closed.  A
    witness that witness_valid rejects raises AssertionError.
    """
    if kind not in INVARIANT_KINDS:
        raise ValueError(f"unknown invariant kind {kind!r}")
    pred_name, squarefree = _KIND_TO_PRED[kind]
    ctx = _context(group, pred_name, squarefree, cfg.symmetry_level)
    t0 = time.monotonic()
    best, witness = _greedy_lb(ctx, _PREDS[pred_name](ctx))
    goals, nodes, exhausted = _run(group, pred_name, squarefree, cfg, partial(_MaxGoal, best))
    # a branch has a witness only when it beats lb: the longest wins, then the least
    found = [(-goal.best, goal.witness) for goal in goals if goal.witness is not None]
    if found:
        neg_best, witness = min(found)
        best = -neg_best
    claim = {"type": "invariant", "invariant": kind, "extremal_length": best, "value": best + 1}
    wit_seq = None if witness is None else _sequence_from_indices(group, witness)
    status = STATUS_EXHAUSTED if exhausted else STATUS_PROVED
    return best, _certificate(group, cfg, claim, status, wit_seq, nodes, t0)


def invariant_value(group: AbelianGroup, kind: str, cfg: SearchConfig) -> tuple[int, Certificate]:
    best, cert = max_extremal_length(group, kind, cfg)
    return best + 1, cert


def c0_targets(
    group: AbelianGroup, cfg: SearchConfig, known: dict, targets: list[int] | None = None
) -> tuple[int, int, list[int]]:
    """(D(G)+1, eta(G)-1), the C0 range, and the lengths to decide in it: the
    targets, or the whole range if None.  D and eta are known's values, and
    only one that known lacks (or gives as None) is proved by search
    (RuntimeError if that search ends without a proof).  A target outside
    the range is a ValueError."""
    values = []
    for kind in ("D", "eta"):
        value = known.get(kind)
        if value is None:
            value, cert = invariant_value(group, kind, cfg)
            if cert.status != STATUS_PROVED:
                raise RuntimeError(f"could not establish {kind}(G) within budget")
        values.append(value)
    lo, hi = values[0] + 1, values[1] - 1
    for t in targets or ():
        if not lo <= t <= hi:
            raise ValueError(f"t={t} outside [D(G)+1, eta(G)-1] = [{lo}, {hi}]")
    return lo, hi, list(range(lo, hi + 1) if targets is None else targets)


def compute_c0_at(
    group: AbelianGroup, targets: list[int], cfg: SearchConfig
) -> tuple[list[int], dict[int, Certificate]]:
    """Decide zero-sum short-free existence at the given exact lengths.

    The first construction-derived witness of a target settles it without
    any search; _certificate re-checks it, and a candidate that fails raises
    AssertionError.  The rest are answered by one shared canonical sweep.
    Returns (sorted proved members, per-target certificates).
    """
    t0 = time.monotonic()

    def c0_claim(t: int, status: str) -> dict:
        member = {STATUS_PROVED: True, STATUS_REFUTED: False}.get(status)
        return {"type": "c0_membership", "t": t, "member": member}

    certs: dict[int, Certificate] = {}
    remaining: list[int] = []
    for t in sorted(set(targets)):
        claim = c0_claim(t, STATUS_REFUTED)
        known = next(constructions.known_witnesses(group, t), None)
        if known is None:
            remaining.append(t)
        else:
            certs[t] = _certificate(group, cfg, claim, STATUS_REFUTED, known, 0, t0)
    if remaining:
        goals, nodes, exhausted = _run(
            group, _PRED_SHORT_FREE, False, cfg, partial(_LengthsGoal, remaining)
        )
        found: dict[int, tuple[int, ...]] = {}
        for goal in goals:
            for t, items in goal.witnesses.items():
                found[t] = min(found.get(t, items), items)
        for t in remaining:
            if t in found:
                status, witness = STATUS_REFUTED, _sequence_from_indices(group, found[t])
            else:
                status, witness = STATUS_EXHAUSTED if exhausted else STATUS_PROVED, None
            certs[t] = _certificate(group, cfg, c0_claim(t, status), status, witness, nodes, t0)
    members = sorted(t for t, cert in certs.items() if cert.status == STATUS_PROVED)
    return members, certs


def compute_c0(
    group: AbelianGroup,
    cfg: SearchConfig,
    *,
    d_value: int | None = None,
    eta_value: int | None = None,
) -> tuple[list[int], dict[int, Certificate]]:
    """Decide membership for every t in [D(G)+1, eta(G)-1], with D(G) and
    eta(G) given or proved by search (see c0_targets).

    Returns (sorted members, per-t certificates).  An empty range yields no
    certificates and an empty member list.
    """
    targets = c0_targets(group, cfg, {"D": d_value, "eta": eta_value})[2]
    return compute_c0_at(group, targets, cfg)


@dataclass
class EnumerationReport:
    count: int
    nodes: int
    status: str
    violations: dict[str, list[Sequence]]
    items: list[Sequence]


def enumerate_short_free(
    group: AbelianGroup,
    length: int,
    cfg: SearchConfig,
    *,
    checks: tuple[str, ...] = (),
    collect: bool = False,
) -> EnumerationReport:
    """Visit every short-free sequence of the given length once up to symmetry;
    with collect, the report lists the representatives in canonical order.
    The check power_form asks every term to have multiplicity exp(G)-1."""
    make_goal = partial(_EnumGoal, length, checks, group.exponent - 1, collect)
    goals, nodes, exhausted = _run(group, _PRED_SHORT_FREE, False, cfg, make_goal)
    return EnumerationReport(
        count=sum(goal.count for goal in goals),
        nodes=nodes,
        status=STATUS_EXHAUSTED if exhausted else STATUS_PROVED,
        violations={
            c: [_sequence_from_indices(group, s) for goal in goals for s in goal.violations[c]]
            for c in checks
        },
        items=[_sequence_from_indices(group, s) for goal in goals for s in goal.items],
    )


def _require_cube(group: AbelianGroup) -> tuple[int, int]:
    if len(set(group.moduli)) != 1:
        raise ValueError("property checks are defined for groups C_n^r only")
    return group.moduli[0], group.rank


# Property C and D: the invariant whose extremal sequences are enumerated, and
# the predicate that enumerates them
_POWER_PROPERTIES = {"C": ("eta", _PRED_SHORT_FREE), "D": ("s", _PRED_NO_EXACT_EXP)}


def check_power_property(
    group: AbelianGroup, prop: str, cfg: SearchConfig, known: dict
) -> Certificate:
    """Property C or D: every sequence of length value-1 that avoids the
    predicate's zero-sums is a product of c distinct (n-1)-powers, value the
    property's invariant (eta for C, s for D) as known gives it, or found by
    search if known has none.  A violation's witness is the least index tuple.
    A known value below D*(G) = 1 + r(n-1), a lower bound of both invariants,
    or another property, is a ValueError.
    """
    t0 = time.monotonic()
    n, r = _require_cube(group)
    if prop not in _POWER_PROPERTIES:
        raise ValueError(f"unknown power property {prop!r}")
    kind, pred_name = _POWER_PROPERTIES[prop]
    value = known.get(kind)
    if value is not None and value < 1 + r * (n - 1):
        raise ValueError(f"{kind}(G) = {value} is below D*(G) = {1 + r * (n - 1)}")
    nodes = 0

    def cert(c, holds, status, witness=None, reason=None):
        claim = {"type": "property", "property": prop, "c": c, "holds": holds}
        if reason:
            claim["reason"] = reason
        return _certificate(group, cfg, claim, status, witness, nodes, t0)

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
    goals, run_nodes, exhausted = _run(
        group, pred_name, False, cfg, partial(_EnumGoal, length, ("power_form",), n - 1, False)
    )
    nodes += run_nodes
    bad = [s for goal in goals for s in goal.violations["power_form"]]
    if bad:
        return cert(c, False, STATUS_REFUTED, _sequence_from_indices(group, min(bad)))
    if exhausted:
        return cert(c, None, STATUS_EXHAUSTED)
    return cert(c, True, STATUS_PROVED)


def check_property_D0(group: AbelianGroup, c: int, cfg: SearchConfig) -> Certificate:
    """Every g * prod_{i<=c} g_i^(n-1) has a zero-sum subsequence of length exactly n.

    The leading term is fixed to 0 by translation invariance; the g_i, each
    one unit of _D0Units (see the module docstring), form a set reduced by
    the configured symmetry.
    """
    t0 = time.monotonic()
    n, _ = _require_cube(group)
    if c < 1:
        raise ValueError("c must be >= 1")
    goals, nodes, exhausted = _run(group, _PRED_D0, True, cfg, partial(_D0Goal, c))
    found = [goal.witness for goal in goals if goal.witness is not None]
    witness = None
    if found:
        witness = Sequence.from_items(group, [(0, 1)] + [(g, n - 1) for g in min(found)])
        holds, status = False, STATUS_REFUTED
    else:
        holds, status = (None, STATUS_EXHAUSTED) if exhausted else (True, STATUS_PROVED)
    claim = {"type": "property", "property": "D0", "c": c, "holds": holds}
    return _certificate(group, cfg, claim, status, witness, nodes, t0)
