"""Shared brute-force oracles, kept independent of the library's DP and search."""

from __future__ import annotations

import itertools

import pytest

from zerosum.group import AbelianGroup, SymmetryAction, make_group, shift_bits, shift_steps
from zerosum.sequence import Sequence


_ADD_TABLES: dict[tuple[int, ...], list[list[int]]] = {}


def _add_table(group: AbelianGroup) -> list[list[int]]:
    table = _ADD_TABLES.get(group.moduli)
    if table is None:
        table = [
            [group.index_add(i, j) for j in range(group.order)]
            for i in range(group.order)
        ]
        _ADD_TABLES[group.moduli] = table
    return table


def naive_profile(seq: Sequence) -> dict[int, set[int]]:
    """Sums of all nonempty subsequences, grouped by exact length.

    Enumerates every subset of the expanded term list directly; usable for
    |S| <= ~14.
    """
    table = _add_table(seq.group)
    terms = seq.term_indices()
    n = len(terms)
    sums = [0] * (1 << n)
    sizes = [0] * (1 << n)
    profile: dict[int, set[int]] = {}
    for mask in range(1, 1 << n):
        low = mask & (-mask)
        rest = mask ^ low
        i = low.bit_length() - 1
        s = table[sums[rest]][terms[i]]
        sums[mask] = s
        size = sizes[rest] + 1
        sizes[mask] = size
        profile.setdefault(size, set()).add(s)
    return profile


def naive_bounded_sums(seq: Sequence, r: int) -> set[int]:
    profile = naive_profile(seq)
    out: set[int] = set()
    for c in range(1, r + 1):
        out |= profile.get(c, set())
    return out


def naive_has_zero_sum_in(seq: Sequence, a: int, b: int) -> bool:
    profile = naive_profile(seq)
    return any(0 in profile.get(c, set()) for c in range(a, b + 1))


def naive_is_short_free(seq: Sequence) -> bool:
    if seq.length == 0:
        return True
    return not naive_has_zero_sum_in(seq, 1, min(seq.group.exponent, seq.length))


def naive_is_zero_sum_free(seq: Sequence) -> bool:
    if seq.length == 0:
        return True
    return not naive_has_zero_sum_in(seq, 1, seq.length)


def multisets_of_length(group: AbelianGroup, length: int):
    """All multisets of the given length over the whole element set."""
    for combo in itertools.combinations_with_replacement(range(group.order), length):
        yield Sequence.from_items(group, ((i, 1) for i in combo))


def brute_max_length(group: AbelianGroup, upper: int, keep) -> int:
    """Largest length <= upper admitting a multiset with property `keep`."""
    for length in range(upper, 0, -1):
        for seq in multisets_of_length(group, length):
            if keep(seq):
                return length
    return 0


def is_orbit_minimal(seq: list[int], perms) -> bool:
    """Sort-based canonicity: the sorted index list is lex-least among its images."""
    seq = sorted(seq)
    return all(sorted(p[i] for i in seq) >= seq for p in perms)


def layers_by_count(group: AbelianGroup, terms, top: int) -> list[set[int]]:
    """layers[c] is the set of sums of exactly c of the terms, c in [0, top]."""
    layers = [{0}] + [set() for _ in range(top)]
    for t in terms:
        for c in range(top, 0, -1):
            layers[c] |= {group.index_add(x, t) for x in layers[c - 1]}
    return layers


def tuple_add_term(layers: tuple[int, ...], steps) -> tuple[int, ...]:
    """The tuple kernel subsum.add_term used to be: one shift_bits per layer,
    layer c of the result being layer c or layer c-1 translated by the term."""
    return (1, *(cur | shift_bits(prev, steps) for prev, cur in zip(layers, layers[1:])))


def loop_reach_table(seq: Sequence, cap: int):
    """(reach, fresh) the way subsum.ReachTable built them with tuple_add_term,
    on the live layers only: cap is the table's own cap, min(cap, length)."""
    fresh: list[list[tuple[int, int]]] = [[] for _ in range(cap + 1)]
    reach, prev = (1,), None
    for pos, g in enumerate(seq.term_indices()):
        if g != prev:
            steps, prev = shift_steps(seq.group.moduli, g), g
        old = reach if pos >= cap else reach + (0,)
        reach = tuple_add_term(old, steps)
        for c in range(1, len(reach)):
            new = reach[c] & ~old[c]
            if new:
                fresh[c].append((pos, new))
    return reach, fresh


def loop_pair_potential(neg, bound, forbidden_union: int, start: int) -> int:
    """The per-element loop the search used for the short-free and
    zero-sum-free potential: the bounds of the indices >= start whose
    negation is not a forbidden sum, counting a {g, -g} pair once."""
    pot = 0
    for h in range(max(start, 1), len(bound)):
        bh = bound[h]
        nh = neg[h]
        if bh <= 0 or forbidden_union >> nh & 1:
            continue
        partner = nh >= start and nh != h and bound[nh] > 0 and not forbidden_union >> h & 1
        if partner and nh < h:
            continue  # counted at the smaller pair member
        pot += max(bh, bound[nh]) if partner else bh
    return pot


def loop_no_exact_exp_potential(neg, bound, last: int, start: int) -> int:
    """The per-element loop the search used for the no-exact-exp potential:
    the bounds of the indices >= start whose negation is not a sum of
    exactly exp-1 terms."""
    pot = 0
    for h in range(start, len(bound)):
        if bound[h] > 0 and not last >> neg[h] & 1:
            pot += bound[h]
    return pot


def loop_close_symmetries(actions, cap: int) -> list[tuple[int, ...]]:
    """Breadth-first closure composing one element at a time, the way
    group.close_symmetries used to."""
    gens = [a.perm for a in actions]
    if not gens:
        return []
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    if len(seen) >= cap:
                        raise ValueError(
                            f"symmetry closure exceeds the cap of {cap} permutations"
                        )
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def pairwise_sum_index(group: AbelianGroup, items) -> int:
    """The index of sum(v * g) over (g, v) items, one index_add per item."""
    total = 0
    for idx, v in items:
        total = group.index_add(total, group.index_scalar(v, idx))
    return total


def inverse(action: SymmetryAction) -> SymmetryAction:
    """The action undoing `action`."""
    inv = [0] * len(action.perm)
    for i, j in enumerate(action.perm):
        inv[j] = i
    return SymmetryAction(action.group, action.kind, f"inv({action.name})", tuple(inv))


@pytest.fixture(scope="session")
def c33():
    return make_group([3, 3, 3])


@pytest.fixture(scope="session")
def c32():
    return make_group([3, 3])
