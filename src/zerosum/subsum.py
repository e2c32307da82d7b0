"""Decision kernel: subsequence-sum reachability with bounded length.

The dynamic program keeps, for each count c in [0, cap], the bitmask of the
sums of exactly c terms (bit x for the element of index x), all of them
packed in one int with layer c at bits [c*order, (c+1)*order).  Adding a
term is one `add_term` step, a single translation over every layer, which
the search's layered states use too.  Terms are processed in deterministic
order (sorted by element index, multiplicities expanded), and the bits each
term adds first are recorded, so walking back through them rebuilds the same
witness for the same input every time.  Each of the three finders is one
such table, capped at the longest length it asks about and read from its
shortest up, so each returns a shortest witness.  witnesses decides with them
whether a sequence witnesses a claim, for the search's re-checks, certify,
cache reads and the construction checks alike.
"""

from __future__ import annotations

from .group import shift_steps
from .sequence import Sequence


def repeated_steps(steps, rep: int):
    """A term's `shift_steps` acting on every layer of a packed int: rep has
    bit c*order set for each layer c, so each `low` mask repeats per layer."""
    return tuple((low * rep, up, down) for low, up, down in steps)


def add_term(packed: int, steps, order: int, full: int) -> int:
    """The layers after one more term, given that term's `repeated_steps`.

    A sum of c terms either skips the new term or adds it to a sum of c-1, so
    layer c gains layer c-1 translated by the term.  A translation moves bits
    only within one layer's block, so one pass of the `shift_bits` loop,
    inlined here, moves every layer and a shift by order lifts each to the
    next; full masks off the layer above the top one.  The step is the same
    for cumulative layers (sums of at most c terms).
    """
    moved = packed
    for low, up, down in steps:
        stay = moved & low
        moved = (stay << up) | ((moved ^ stay) >> down)
    return (packed | moved << order) & full


class ReachTable:
    """Exact-count reachability of subsequence sums, one bitmask per count.

    fresh[c] lists, in term order, the (term position, mask) pairs of the bits
    that first entered reach[c] when that term was added.
    """

    def __init__(self, seq: Sequence, cap: int) -> None:
        if cap < 1:
            raise ValueError("cap must be >= 1")
        seq.group.require_table_capacity()
        self.group = seq.group
        self.seq = seq
        self.cap = cap = min(cap, seq.length) if seq.length else 0
        self.terms = seq.term_indices()
        self.fresh: list[list[tuple[int, int]]] = [[] for _ in range(cap + 1)]
        fresh = self.fresh
        order = self.group.order
        layer = (1 << order) - 1
        full = (1 << (cap + 1) * order) - 1
        rep = full // layer  # bit c*order for c in [0, cap]
        reach, prev = 1, None
        for pos, g in enumerate(self.terms):
            if g != prev:
                steps, prev = repeated_steps(shift_steps(self.group.moduli, g), rep), g
            old, reach = reach, add_term(reach, steps, order, full)
            # layer 0 never changes, and the layers above pos + 1 are still 0
            new, c = (reach ^ old) >> order, 1
            while new:
                bits = new & layer
                if bits:
                    fresh[c].append((pos, bits))
                new >>= order
                c += 1
        self.reach: tuple[int, ...] = tuple(reach >> c * order & layer for c in range(cap + 1))

    def witness(self, x_index: int, count: int) -> Sequence:
        """Reconstruct one subsequence of exactly `count` terms summing to x:
        at each count, from `count` down, the first term whose fresh bits hold
        x, then x minus that term."""
        if not (0 < count <= self.cap and self.reach[count] >> x_index & 1):
            raise ValueError(f"state (count={count}, x={x_index}) is not reachable")
        group, terms, x, picked = self.group, self.terms, x_index, []
        for c in range(count, 0, -1):
            g = terms[next(p for p, new in self.fresh[c] if new >> x & 1)]
            picked.append(g)
            x = group.index_add(x, group.index_neg(g))
        witness = Sequence.from_items(group, ((g, 1) for g in picked))
        # independent of the walk back: re-check the three defining properties
        if witness.length != count or witness.sum.index != x_index or not witness.divides(self.seq):
            raise AssertionError(f"invalid witness for (count={count}, x={x_index})")
        return witness


def _least_zero_sum(seq: Sequence, lo: int, hi: int) -> Sequence | None:
    """A shortest zero-sum subsequence of length in [lo, hi], or None: one
    table capped at hi, read from layer lo up."""
    table = ReachTable(seq, hi)
    for c in range(lo, table.cap + 1):
        if table.reach[c] & 1:
            return table.witness(0, c)
    return None


def find_short_zero_sum(seq: Sequence) -> Sequence | None:
    """A shortest zero-sum subsequence of length in [1, exp(G)], or None if
    seq is short free."""
    return _least_zero_sum(seq, 1, seq.group.exponent)


def find_zero_sum_exact_length(seq: Sequence, n: int) -> Sequence | None:
    """A zero-sum subsequence of length exactly n, or None.

    The table is capped at n, keeping memory O(order * n).
    """
    if not 1 <= n <= seq.length:
        raise ValueError(f"n must lie in [1, {seq.length}]")
    return _least_zero_sum(seq, n, n)


def find_nonempty_zero_sum(seq: Sequence) -> Sequence | None:
    """A shortest nonempty zero-sum subsequence, or None if seq is zero-sum
    free.  A minimal zero-sum subsequence has at most D(G) <= |G| terms, so
    the layers up to min(|G|, |S|) decide it."""
    return _least_zero_sum(seq, 1, seq.group.order)


def witnesses(claim: dict, seq: Sequence) -> bool:
    """Whether seq witnesses the claim, decided by the DP above, not by
    whatever built seq.

    c0_membership: zero-sum and short free, of length t.  invariant: of the
    extremal length, without the zero-sums the kind forbids (D any, eta and f
    short ones, s and g those of length exp(G)), and a set for f and g.
    property: a counterexample to Property C, D or D0.  A claim of any other
    type has no witness.
    """
    n = seq.group.exponent

    def no_zero_sum_of_length_n() -> bool:
        return seq.length < n or find_zero_sum_exact_length(seq, n) is None

    if claim["type"] == "c0_membership":
        return seq.length == claim["t"] and seq.is_zero_sum() and find_short_zero_sum(seq) is None
    if claim["type"] == "invariant":
        kind = claim["invariant"]
        if seq.length != claim["extremal_length"]:
            return False
        if kind in ("f", "g") and not seq.is_squarefree():
            return False
        if kind == "D":
            return find_nonempty_zero_sum(seq) is None
        if kind in ("eta", "f"):
            return find_short_zero_sum(seq) is None
        return no_zero_sum_of_length_n()
    if claim["type"] == "property":
        # C, D: c*(n-1) terms, not c distinct (n-1)-powers; D0: one term more
        c = claim["c"]
        if not isinstance(c, int) or seq.length != c * (n - 1) + (claim["property"] == "D0"):
            return False
        if claim["property"] != "D0" and all(v == n - 1 for _, v in seq.items):
            return False
        if claim["property"] == "C":
            return find_short_zero_sum(seq) is None
        return no_zero_sum_of_length_n()
    return False
