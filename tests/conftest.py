"""Shared brute-force oracles, kept independent of the library's DP and search."""

from __future__ import annotations

import itertools
import math

import pytest

from zerosum import catalog, search
from zerosum.group import AbelianGroup, GroupElement, make_group, shift_bits, shift_steps
from zerosum.sequence import Sequence
from zerosum.subsum import ReachTable


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


def element_order(g: GroupElement) -> int:
    """Least k >= 1 with k*g = 0; the lcm of the coordinate orders."""
    orders = (
        m // math.gcd(c, m) for c, m in zip(g.coords, g.group.moduli)
    )
    return math.lcm(*orders)


def elements(group: AbelianGroup) -> list[GroupElement]:
    """Every element of group, in index order."""
    return [group.element_by_index(i) for i in range(group.order)]


def terms(seq: Sequence) -> list[GroupElement]:
    """The terms of seq, each repeated by its multiplicity, in index order."""
    return [seq.group.element_by_index(idx) for idx, v in seq.items for _ in range(v)]


def multiplicity(seq: Sequence, g: GroupElement) -> int:
    """How many times g occurs in seq."""
    return dict(seq.items).get(g.index, 0)


def support(seq: Sequence) -> tuple[GroupElement, ...]:
    """The distinct terms of seq, in index order."""
    return tuple(seq.group.element_by_index(idx) for idx, _ in seq.items)


def bounded_sums(seq: Sequence, r: int) -> set:
    """The set of sums over nonempty subsequences of length at most r, read
    off subsum.ReachTable."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if seq.length == 0:
        return set()
    mask = 0
    for layer in ReachTable(seq, min(r, seq.length)).reach[1:]:
        mask |= layer
    bits = bin(mask)[:1:-1]  # bit i of mask is bits[i]
    return {seq.group.element_by_index(i) for i, bit in enumerate(bits) if bit == "1"}


def has_zero_sum_with_length_in(seq: Sequence, a: int, b: int) -> bool:
    """True iff some zero-sum subsequence has length in [a, b], read off
    subsum.ReachTable."""
    if not 1 <= a <= b:
        raise ValueError("need 1 <= a <= b")
    if seq.length == 0 or a > seq.length:
        return False
    table = ReachTable(seq, min(b, seq.length))
    return any(layer & 1 for layer in table.reach[a:])


def property_holds(store, subject, name, c=None) -> bool | None:
    """The verdict of the first property fact on file for subject (for D0,
    with constant c when c is given), or None."""
    for f in store.of_kind(subject, catalog.KIND_PROPERTY):
        if f.detail[0] == name:
            if name == "D0" and c is not None and f.detail[2] != c:
                continue
            return f.detail[1]
    return None


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


def loop_units(order: int, top: int) -> tuple[int, ...]:
    """unit[x] = 1 << k*(order-1-x), with k bits enough for a multiplicity of
    top: the digit units of the search's multiset code."""
    k = max(1, top.bit_length())
    return tuple(1 << k * (order - 1 - x) for x in range(order))


def loop_extend(enc: int, imgs, perms, unit, g: int, m: int) -> tuple[int, list[int]] | None:
    """Add g^m to a multiset with code enc and image codes imgs (one per perm),
    one add and one compare per permutation, the way search._extend did.

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


def loop_chain(pred, state, g: int, copies: int) -> list:
    """The states after 1, 2, ... copies of g, at most `copies` of them,
    stopping before the first forbidden push: the loop search._chain ran over
    the forbid and push of each predicate, with the layered push as one
    shift_bits over every layer, the way subsum.add_term did it.  Property
    D0's predicate pushes single copies here, as no_exact_exp does."""
    ctx = pred.ctx

    def layered(packed: int, h: int) -> int:
        return (packed | shift_bits(packed, ctx.lsteps[h]) << ctx.order) & ctx.full

    def forbid(state) -> bool:
        if isinstance(pred, search._NoExactExp):
            return bool(state >> (ctx.top + ctx.neg[g]) & 1)
        return g == 0 or bool(state[-1] >> g & 1)

    def push(state):
        if isinstance(pred, search._NoExactExp):
            return layered(state, g)
        if isinstance(pred, search._ShortFree):
            layers, negs = layered(state[0], g), layered(state[1], ctx.neg[g])
            return layers, negs, layers >> ctx.top, negs >> ctx.top
        sums, negs = state
        return (sums | shift_bits(sums | 1, ctx.steps[g]),
                negs | shift_bits(negs | 1, ctx.steps[ctx.neg[g]]))

    out = []
    for _ in range(copies):
        if forbid(state):
            break
        state = push(state)
        out.append(state)
    return out


def loop_root_jobs(ctx, pred, make_goal) -> list:
    """search._root_jobs the way it tested each root job with loop_extend.

    no_exact_exp roots at (0, m) alone: a length-exp zero-sum does not move
    under T -> T + a, so an element of largest multiplicity m is translated
    to 0, which every automorphism fixes."""
    empty = [0] * len(ctx.perms)
    unit = loop_units(ctx.order, max(ctx.bound))
    goal = make_goal()
    if isinstance(goal, search._D0Goal):  # the translated 0, then exp-1 single pushes of g_1
        start = loop_chain(pred, 1, 0, 1)[0]
        return [
            (g, 1) for g in range(ctx.order)
            if len(loop_chain(pred, start, g, ctx.exp - 1)) == ctx.exp - 1
            and loop_extend(0, empty, ctx.perms, unit, g, 1) is not None
        ]
    hi = goal.needs()[1]
    translated = type(pred) is search._NoExactExp
    jobs = []
    for g in (0,) if translated else range(ctx.order):
        for m in range(len(loop_chain(pred, pred.initial(), g, ctx.bound[g])), 0, -1):
            if hi is not None and m > hi:
                continue
            if loop_extend(0, empty, ctx.perms, unit, g, m) is not None:
                jobs.append((g, m))
    return jobs


def layers_by_count(group: AbelianGroup, terms, top: int) -> list[set[int]]:
    """layers[c] is the set of sums of exactly c of the terms, c in [0, top]."""
    add = _add_table(group)
    layers = [{0}] + [set() for _ in range(top)]
    for t in terms:
        row = add[t]
        for c in range(top, 0, -1):
            layers[c] |= {row[x] for x in layers[c - 1]}
    return layers


def d0_blocked(group: AbelianGroup, units) -> bool:
    """Whether 0 * prod g^(n-1) over the units g, n = exp(G), has no zero-sum
    subsequence of length exactly n: a counterexample to Property D0."""
    n = group.exponent
    terms = [0] + [g for g in units for _ in range(n - 1)]
    return 0 not in layers_by_count(group, terms, n)[n]


def d0_counterexample(group: AbelianGroup, c: int) -> tuple[int, ...] | None:
    """The lex-least set of c distinct element indices that d0_blocked
    accepts, by trying every set, or None if Property D0 holds with c."""
    return next((units for units in itertools.combinations(range(group.order), c)
                 if d0_blocked(group, units)), None)


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


def loop_close_symmetries(gens, cap: int) -> list[tuple[int, ...]]:
    """Breadth-first closure composing one element at a time, the way
    group.close_symmetries used to."""
    gens = list(gens)
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


def inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation undoing perm."""
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


# (new fact's kind, existing fact's kind) -> (clash, why) for each row of
# catalog._CONFLICT_RULES, in both directions, built apart from catalog._PARTNERS
_CONFLICTS = {(other, kind): (lambda a, b, clash=clash: clash(b, a), why)
              for kind, other, clash, why in catalog._CONFLICT_RULES}
_CONFLICTS.update({(kind, other): (clash, why)
                   for kind, other, clash, why in catalog._CONFLICT_RULES})


def scan_conflicts(facts, fact) -> list:
    """The facts, all about fact's subject, that fact contradicts, each with
    the reason: the check FactStore.add used to run, one _CONFLICTS lookup per
    fact of the subject."""
    out = []
    for other in facts:
        rule = _CONFLICTS.get((fact.kind, other.kind))
        if rule is not None and rule[0](fact.detail, other.detail):
            out.append((other, rule[1]))
    return out


def all_pairs_uniform_products(store):
    """catalog._uniform_products the way it used to pair every uniform subject
    with every other, across ranks too, with the R5 bound and the eta ratio
    the two factors share, or None."""
    uniforms = [
        (s, s[0], len(s), catalog._invariant_fact(store, s, "eta"))
        for s in store.subjects() if catalog._uniform(s)
    ]
    by_key = {(n, r): (s, eta) for s, n, r, eta in uniforms}
    for s1, m, r, eta1 in uniforms:
        if eta1 is None:
            continue
        for s2, n, r2, eta2 in uniforms:
            if r2 != r or eta2 is None:
                continue
            target = by_key.get((m * n, r))
            if target is not None:
                c = catalog._ratio(eta1[0], m)
                shared = c if c is not None and c == catalog._ratio(eta2[0], n) else None
                yield (s1, m, eta1, s2, n, eta2, *target, (eta1[0] - 1) * n + eta2[0], shared)


def naive_infer(store):
    """catalog.infer as it ran before its rounds were scoped: every rule of
    catalog._RULES over every subject and every product on file, in every
    round."""
    added = catalog.Inference()
    while True:
        added.rounds += 1
        before = len(added)
        subjects = store.subjects()
        added.scanned.append(len(subjects))
        items = {"subject": subjects, "product": list(catalog._uniform_products(store))}
        found = []
        for rule, reads, apply in catalog._RULES:
            statements = []
            for item in items[reads]:
                statements.extend(apply(store, item))
            found.append((rule, statements))
        for rule, statements in found:
            start = len(added)
            for subject, kind, detail, premises in statements:
                if not store.has_statement(subject, kind, detail):
                    fact = catalog.Fact(subject, kind, detail,
                                        catalog.Provenance("rule", rule, premises))
                    store.add(fact)
                    added.append(fact)
            added.by_rule[rule] += len(added) - start
        if len(added) == before:
            return added


@pytest.fixture(scope="session")
def c33():
    return make_group([3, 3, 3])


@pytest.fixture(scope="session")
def c32():
    return make_group([3, 3])
