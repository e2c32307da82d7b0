"""Decision kernel: subsequence-sum reachability with bounded length.

The dynamic program keeps, for each count c in [0, cap], the bitmask of the
sums of exactly c terms (bit x for the element of index x), all of them
packed in one int with layer c at bits [c*order, (c+1)*order).  Adding a
term is one `add_term` step, a single translation over every layer, which
the search's layered states use too.  Terms are processed in deterministic
order (sorted by element index, multiplicities expanded), and the bits each
term adds first are recorded, so walking back through them rebuilds the same
witness for the same input every time.  witnesses decides with these
routines whether a sequence witnesses a claim, for the search's re-checks,
certify, cache reads and the construction checks alike.
"""

from __future__ import annotations

from .group import AbelianGroup, shift_bits, shift_steps
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
        """Reconstruct one subsequence of exactly `count` terms summing to x."""
        if not (0 < count <= self.cap and self.reach[count] >> x_index & 1):
            raise ValueError(f"state (count={count}, x={x_index}) is not reachable")
        positions = []
        x = x_index
        for c in range(count, 0, -1):
            pos, x = _step_back(self.group, self.terms, self.fresh[c], x)
            positions.append(pos)
        witness = Sequence.from_items(
            self.group, ((self.terms[p], 1) for p in positions)
        )
        _validate_witness(witness, self.seq, x_index, count)
        return witness


def _step_back(
    group: AbelianGroup, terms: tuple[int, ...], fresh: list[tuple[int, int]], x: int
) -> tuple[int, int]:
    """The term position whose fresh bits hold x, and x minus that term."""
    pos = next(p for p, new in fresh if new >> x & 1)
    return pos, group.index_add(x, group.index_neg(terms[pos]))


def _validate_witness(witness: Sequence, seq: Sequence, x_index: int, count: int) -> None:
    # independent of the walk back: re-check the three defining properties
    if witness.length != count:
        raise AssertionError("witness length mismatch")
    if witness.sum.index != x_index:
        raise AssertionError("witness sum mismatch")
    if not witness.divides(seq):
        raise AssertionError("witness is not a subsequence")


def find_short_zero_sum(seq: Sequence) -> Sequence | None:
    """A zero-sum subsequence of length in [1, exp(G)], or None if short free."""
    if seq.length == 0:
        return None
    cap = min(seq.group.exponent, seq.length)
    table = ReachTable(seq, cap)
    for c in range(1, cap + 1):
        if table.reach[c] & 1:
            return table.witness(0, c)
    return None


def find_zero_sum_exact_length(seq: Sequence, n: int) -> Sequence | None:
    """A zero-sum subsequence of length exactly n, or None.

    The table is capped at n, keeping memory O(order * n).
    """
    if not 1 <= n <= seq.length:
        raise ValueError(f"n must lie in [1, {seq.length}]")
    table = ReachTable(seq, n)
    if table.reach[n] & 1:
        return table.witness(0, n)
    return None


def find_nonempty_zero_sum(seq: Sequence) -> Sequence | None:
    """A nonempty zero-sum subsequence, or None if seq is zero-sum free."""
    if seq.length == 0:
        return None
    group = seq.group
    group.require_table_capacity()
    terms = seq.term_indices()
    reach, prev = 0, None  # sums of nonempty subsequences of the terms so far
    fresh: list[tuple[int, int]] = []
    for pos, g in enumerate(terms):
        if g != prev:
            steps, prev = shift_steps(group.moduli, g), g
        # 0 is not reachable yet, so bit g of the new bits is the term alone
        new = (shift_bits(reach, steps) | 1 << g) & ~reach
        if new:
            reach |= new
            fresh.append((pos, new))
        if reach & 1:
            break
    else:
        return None
    # the walk ends at the term that started the sum on its own (x - g = 0)
    pos, x = _step_back(group, terms, fresh, 0)
    positions = [pos]
    while x:
        pos, x = _step_back(group, terms, fresh, x)
        positions.append(pos)
    witness = Sequence.from_items(group, ((terms[p], 1) for p in positions))
    if witness.sum.index != 0 or witness.length == 0 or not witness.divides(seq):
        raise AssertionError("invalid zero-sum witness")
    return witness


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
