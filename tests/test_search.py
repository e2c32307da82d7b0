import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_max_length,
    is_orbit_minimal,
    layers_by_count,
    loop_no_exact_exp_potential,
    loop_pair_potential,
    multisets_of_length,
    naive_is_short_free,
    naive_is_zero_sum_free,
    naive_profile,
)
from zerosum import search
from zerosum.group import SYMMETRY_LEVELS, element_order, make_group
from zerosum.search import (
    STATUS_EXHAUSTED,
    STATUS_PROVED,
    STATUS_REFUTED,
    Certificate,
    SearchConfig,
    c0_contains,
    check_property_C,
    check_property_D,
    check_property_D0,
    compute_c0,
    compute_c0_at,
    enumerate_short_free,
    invariant_value,
    max_extremal_length,
)
from zerosum.sequence import Sequence
from zerosum.subsum import find_short_zero_sum, find_zero_sum_exact_length

CFG = SearchConfig()

TINY = {
    "C3^2": [3, 3],
    "C2+C4": [2, 4],
    "C2^3": [2, 2, 2],
}


@pytest.mark.parametrize("spec", sorted(TINY))
def test_davenport_matches_brute_force(spec):
    group = make_group(TINY[spec])
    value, cert = invariant_value(group, "D", CFG)
    assert cert.status == STATUS_PROVED
    oracle = brute_max_length(group, group.order, naive_is_zero_sum_free) + 1
    assert value == oracle


@pytest.mark.parametrize("spec", sorted(TINY))
def test_eta_matches_brute_force(spec):
    group = make_group(TINY[spec])
    value, cert = invariant_value(group, "eta", CFG)
    assert cert.status == STATUS_PROVED
    upper = sum(element_order(g) - 1 for g in group.elements())
    oracle = brute_max_length(group, min(upper, 9), naive_is_short_free) + 1
    assert value == oracle


def test_invariants_independent_of_symmetry_level():
    for spec, want in [("C3^2", (5, 7)), ("C2+C4", (5, 6)), ("C2^3", (4, 8))]:
        group = make_group(TINY[spec])
        for level in SYMMETRY_LEVELS:
            cfg = SearchConfig(symmetry_level=level)
            assert invariant_value(group, "D", cfg)[0] == want[0]
            assert invariant_value(group, "eta", cfg)[0] == want[1]


def test_invariants_independent_of_width():
    group = make_group([3, 3])
    base = invariant_value(group, "eta", SearchConfig(parallel_width=1))[1]
    wide = invariant_value(group, "eta", SearchConfig(parallel_width=3))[1]
    assert base.to_json() == wide.to_json()


def test_extremal_witness_is_valid():
    group = make_group([3, 3])
    best, cert = max_extremal_length(group, "eta", CFG)
    assert best == 6
    assert cert.witness is not None and cert.witness.length == 6
    assert find_short_zero_sum(cert.witness) is None


def test_f_and_g_small():
    group = make_group([3, 3])
    # f: square-free short-free; brute force over subsets
    def best_subset(pred):
        top = 0
        for size in range(1, group.order + 1):
            hit = False
            for combo in itertools.combinations(range(group.order), size):
                seq_items = [(i, 1) for i in combo]
                from zerosum.sequence import Sequence

                seq = Sequence.from_items(group, seq_items)
                if pred(seq):
                    hit = True
                    break
            if hit:
                top = size
        return top

    f_val, cert = invariant_value(group, "f", CFG)
    assert cert.status == STATUS_PROVED
    assert f_val == best_subset(naive_is_short_free) + 1
    g_val, cert = invariant_value(group, "g", CFG)
    assert cert.status == STATUS_PROVED
    no3 = lambda s: 0 not in naive_profile(s).get(3, set())
    assert g_val == best_subset(no3) + 1


def test_c0_small_groups():
    members, certs = compute_c0(make_group([3, 3]), CFG)
    assert members == [6]
    assert certs[6].status == STATUS_PROVED

    members, certs = compute_c0(make_group([2, 4]), CFG)
    assert members == [] and certs == {}

    members, certs = compute_c0(make_group([2, 6]), CFG)
    assert members == [] and certs == {}

    members, _ = compute_c0(make_group([2, 2, 2]), CFG)
    assert members == [5, 6]

    members, _ = compute_c0(make_group([4, 4]), CFG)
    assert members == [8, 9]


def test_c0_members_against_brute_force():
    # enumerate all multisets of each candidate length directly
    group = make_group([3, 3])
    d, eta = 5, 7
    for t in range(d + 1, eta):
        exists = any(
            seq.is_zero_sum() and naive_is_short_free(seq)
            for seq in multisets_of_length(group, t)
        )
        cert = c0_contains(group, t, CFG, d_value=d, eta_value=eta)
        assert (cert.status == STATUS_REFUTED) == exists


def test_c0_range_validation():
    group = make_group([3, 3])
    with pytest.raises(ValueError):
        c0_contains(group, 3, CFG, d_value=5, eta_value=7)
    with pytest.raises(ValueError):
        c0_contains(group, 7, CFG, d_value=5, eta_value=7)


def test_c0_witnesses_are_validated():
    group = make_group([4, 4])
    members, certs = compute_c0(group, CFG)
    for t, cert in certs.items():
        if cert.status == STATUS_REFUTED:
            w = cert.witness
            assert w.length == t and w.is_zero_sum()
            assert find_short_zero_sum(w) is None


def test_enumerate_short_free_counts():
    group = make_group([2, 2])
    rep = enumerate_short_free(group, 2, SearchConfig(symmetry_level="full_small"))
    assert rep.count == 1 and rep.status == STATUS_PROVED
    # without symmetry, all three 2-subsets of the involutions appear
    rep = enumerate_short_free(group, 2, SearchConfig(symmetry_level="none"))
    assert rep.count == 3


def test_enumerate_respects_multiplicity_bound():
    group = make_group([4, 4])
    rep = enumerate_short_free(group, 6, SearchConfig(), collect=True)
    assert rep.status == STATUS_PROVED
    for seq in rep.items:
        for g in seq.support():
            assert seq.multiplicity(g) <= element_order(g) - 1


def test_property_c_small():
    cert = check_property_C(make_group([3, 3]), CFG)
    assert cert.status == STATUS_PROVED and cert.claim["c"] == 3
    cert = check_property_C(make_group([2, 2]), CFG)
    assert cert.status == STATUS_PROVED


def test_property_d_small():
    cert = check_property_D(make_group([2, 2]), CFG)
    assert cert.status == STATUS_PROVED
    cert = check_property_D(make_group([3, 3]), CFG)
    assert cert.status == STATUS_PROVED and cert.claim["c"] == 4


def test_property_d_rank3_ternary():
    cert = check_property_D(make_group([3, 3, 3]), CFG, s_value=19)
    assert cert.status == STATUS_PROVED and cert.claim["c"] == 9


def test_enumerate_above_eta_is_empty():
    rep = enumerate_short_free(make_group([3, 3, 3]), 17, CFG)
    assert rep.count == 0 and rep.status == STATUS_PROVED


def test_property_d0_tiny_cases():
    # c = 1 over C2^2: g * g1 has no zero-sum pair when g + g1 != 0
    cert = check_property_D0(make_group([2, 2]), 1, CFG)
    assert cert.status == STATUS_REFUTED
    w = cert.witness
    assert find_zero_sum_exact_length(w, 2) is None

    # c = 2 over C3^2: 0 * e1^2 * e2^2 has no zero-sum triple
    cert = check_property_D0(make_group([3, 3]), 2, CFG)
    assert cert.status == STATUS_REFUTED
    assert find_zero_sum_exact_length(cert.witness, 3) is None

    # c = 4 over C2^2 forces a repeated g_i, hence a zero-sum pair
    cert = check_property_D0(make_group([2, 2]), 4, CFG)
    assert cert.status == STATUS_PROVED


def test_property_d0_brute_force_cross_check():
    # exhaustive oracle over all (g, g1, g2) for C3^2 with c = 2
    group = make_group([3, 3])
    from zerosum.sequence import Sequence

    def has_triple(g, g1, g2):
        seq = Sequence.from_items(group, [(g, 1), (g1, 2), (g2, 2)])
        return 0 in naive_profile(seq).get(3, set())

    all_hold = all(
        has_triple(g, g1, g2)
        for g in range(9)
        for g1 in range(9)
        for g2 in range(g1, 9)
    )
    cert = check_property_D0(group, 2, CFG)
    assert (cert.status == STATUS_PROVED) == all_hold


def test_budget_exhaustion_is_honest():
    group = make_group([3, 3, 3])
    cfg = SearchConfig(node_budget=50)
    value, cert = invariant_value(group, "eta", cfg)
    assert cert.status == STATUS_EXHAUSTED
    assert value <= 17  # a lower bound, never an overclaim
    w = cert.witness
    assert w is not None and find_short_zero_sum(w) is None


def test_certificate_json_round_trip():
    group = make_group([3, 3])
    _, cert = invariant_value(group, "eta", CFG)
    text = cert.to_json()
    again = Certificate.from_json(text)
    assert again.to_json() == text


def test_compute_c0_at_handles_construction_hints():
    group = make_group([3, 3, 3, 3])
    members, certs = compute_c0_at(group, list(range(30, 37)), CFG)
    assert members == []
    assert all(c.status == STATUS_REFUTED and c.nodes == 0 for c in certs.values())


# The search tree and certificate bytes of the default configuration; a
# change to either is a change of behaviour and must update these on purpose.
PINNED_SEARCHES = [
    ("D", (3, 3, 3), 3509, "fd21010b24993d22"),
    ("eta", (3, 3, 3), 5575, "600497b480f9f429"),
    ("g", (3, 3, 3), 2180, "3c9f7d9124bd661a"),
    ("s", (4, 4), 4725, "1fe61f10f7a70fee"),
    ("s", (2, 6), 6189, "7003abb1fe947d76"),
    ("eta", (2,) * 7, 8, "cf2f5c4b4037911e"),
]


@pytest.mark.parametrize("kind,moduli,nodes,cert_id", PINNED_SEARCHES)
def test_search_tree_is_pinned(kind, moduli, nodes, cert_id):
    _, cert = max_extremal_length(make_group(moduli), kind, CFG)
    assert (cert.nodes, cert.cert_id()) == (nodes, cert_id)


_C44 = make_group((4, 4))
_BUDGET30 = SearchConfig(node_budget=30)
_BUDGET20 = SearchConfig(node_budget=20)

# Property, C0 and D0 certificates, pinned the same way.
PINNED_CERTS = [
    ("C C4^2", lambda: check_property_C(_C44, CFG), 846, "623ddb63e0f1b135"),
    ("D C4^2", lambda: check_property_D(_C44, CFG), 10997, "7f50b983ff788297"),
    ("D C4^2 b30", lambda: check_property_D(_C44, _BUDGET30), 464, "e0ea6f38e9fc966d"),
    ("C C3^3 b30", lambda: check_property_C(make_group((3, 3, 3)), _BUDGET30),
     229, "d7483f90b5a3438d"),
    ("c0 C4^2 t=8", lambda: compute_c0(_C44, CFG)[1][8], 745, "36547184e24c55f0"),
    ("c0 C4^2 t=9", lambda: compute_c0(_C44, CFG)[1][9], 745, "ae6c245a4c1893bc"),
    ("D0 C3^2 c=2", lambda: check_property_D0(make_group((3, 3)), 2, CFG), 6, "8a3cb99a35c78f22"),
    ("D0 C3^3 c=9 w2", lambda: check_property_D0(
        make_group((3, 3, 3)), 9, SearchConfig(parallel_width=2)), 7601, "20465f1eb6a11b0c"),
    # the node-budgeted searches of groups above order 64
    ("eta C3^4 b20", lambda: max_extremal_length(make_group((3,) * 4), "eta", _BUDGET20)[1],
     290, "e2b4ff9e7100396c"),
    ("s C4^3 b20", lambda: max_extremal_length(make_group((4,) * 3), "s", _BUDGET20)[1],
     724, "8c2e218cf7afa415"),
    ("f C5^3 b20", lambda: max_extremal_length(make_group((5,) * 3), "f", _BUDGET20)[1],
     181, "c76240fa91c74482"),
]


@pytest.mark.parametrize("run,nodes,cert_id", [p[1:] for p in PINNED_CERTS],
                         ids=[p[0] for p in PINNED_CERTS])
def test_certificate_is_pinned(run, nodes, cert_id):
    cert = run()
    assert (cert.nodes, cert.cert_id()) == (nodes, cert_id)


def test_d0_and_enumeration_trees_are_pinned(c33):
    cert = check_property_D0(c33, 9, CFG)
    assert (cert.nodes, cert.cert_id()) == (7601, "20465f1eb6a11b0c")
    rep = enumerate_short_free(c33, 18, CFG)
    assert (rep.nodes, rep.count, rep.status) == (2720, 0, STATUS_PROVED)


CANON_GROUPS = {"C3^3": (3, 3, 3), "C3+C6": (3, 6), "C4^2": (4, 4), "C2^4": (2, 2, 2, 2)}
CANON_LEVELS = ("none", "coord_perms+scalar", "full_small")
_CANON_CTX: dict = {}


def _canon_ctx(spec: str, pred: str, level: str):
    key = (spec, pred, level)
    if key not in _CANON_CTX:
        _CANON_CTX[key] = search._Ctx(make_group(CANON_GROUPS[spec]), pred, False, level)
    return _CANON_CTX[key]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_encoded_canonicity_matches_sort_oracle(data):
    spec = data.draw(st.sampled_from(sorted(CANON_GROUPS)))
    pred = data.draw(st.sampled_from(("short_free", "no_exact_exp")))
    level = data.draw(st.sampled_from(CANON_LEVELS))
    ctx = _canon_ctx(spec, pred, level)
    if data.draw(st.booleans()):  # D0-style: any element repeated up to c times
        c = data.draw(st.integers(1, 12))
        unit, caps = search._units(ctx.order, c), [c] * ctx.order
    else:
        unit, caps = ctx.unit, ctx.bound
    support = data.draw(st.sets(st.integers(0, ctx.order - 1), max_size=6))
    # the DFS extends canonical multisets only, so the walk stops at the first
    # prefix that is not canonical
    code, seq = (0, [0] * len(ctx.perms)), []
    for g in sorted(support):
        if caps[g] <= 0:
            continue
        m = data.draw(st.integers(1, caps[g]))
        code = search._extend(*code, ctx.perms, unit, g, m)
        seq += [g] * m
        assert (code is not None) == is_orbit_minimal(seq, ctx.perms), seq
        if code is None:
            break


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_potential_does_not_grow_with_start(data):
    # _dfs stops scanning elements at the first g whose potential misses the
    # goal, which is sound only because of this monotonicity
    spec = data.draw(st.sampled_from(sorted(CANON_GROUPS)))
    pred_name = data.draw(st.sampled_from(("short_free", "zero_sum_free", "no_exact_exp")))
    ctx = _canon_ctx(spec, pred_name, "none")
    pred = search._make_pred(ctx, pred_name)
    state = pred.initial()
    for g in sorted(data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=8))):
        if not pred.forbid(state, g):
            state = pred.push(state, g)
    pots = [pred.potential(state, g) for g in range(ctx.order + 1)]
    assert pots == sorted(pots, reverse=True)


# C4^3 and C3^4 make masks of 64 and 81 bits, wider than one machine word
POTENTIAL_GROUPS = {**CANON_GROUPS, "C4^3": (4, 4, 4), "C3^4": (3, 3, 3, 3)}
_POTENTIAL_CTX: dict = {}


def _reachable_state(data):
    """A state the search can reach (pushes neither forbidden nor over bound),
    with its context, predicate name, pushed terms and the bounds used."""
    spec = data.draw(st.sampled_from(sorted(POTENTIAL_GROUPS)))
    pred_name = data.draw(st.sampled_from(("short_free", "zero_sum_free", "no_exact_exp")))
    squarefree = data.draw(st.booleans())
    key = (spec, pred_name, squarefree)
    if key not in _POTENTIAL_CTX:
        group = make_group(POTENTIAL_GROUPS[spec])
        _POTENTIAL_CTX[key] = search._Ctx(group, pred_name, squarefree, "none")
    ctx = _POTENTIAL_CTX[key]
    group, order, exp = ctx.group, ctx.order, ctx.exp
    if pred_name == "no_exact_exp":
        bound = [exp - 1] * order
    else:
        bound = [element_order(group.element_by_index(x)) - 1 for x in range(order)]
    if squarefree:
        bound = [min(b, 1) for b in bound]
    pred = search._make_pred(ctx, pred_name)
    state, terms = pred.initial(), []
    for g in data.draw(st.lists(st.integers(0, order - 1), max_size=16)):
        if terms.count(g) < bound[g] and not pred.forbid(state, g):
            state = pred.push(state, g)
            terms.append(g)
    return ctx, pred_name, pred, state, terms, bound


def _mask(indices) -> int:
    return sum(1 << x for x in indices)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_potentials_match_loop_oracle(data):
    # the potential at every start, against the per-element loops
    ctx, pred_name, pred, state, terms, bound = _reachable_state(data)
    group, order, exp = ctx.group, ctx.order, ctx.exp
    neg = [group.index_neg(x) for x in range(order)]
    top = len(terms) if pred_name == "zero_sum_free" else max(1, exp - 1)
    layers = [_mask(layer) for layer in layers_by_count(group, terms, top)]
    for start in range(order + 1):
        if pred_name == "no_exact_exp":
            want = loop_no_exact_exp_potential(neg, bound, layers[-1], start)
        else:
            union = 0
            for layer in layers[1:]:
                union |= layer
            want = loop_pair_potential(neg, bound, union, start)
        assert pred.potential(state, start) == want, (terms, start)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_search_states_match_layer_oracle(data):
    ctx, pred_name, pred, state, terms, bound = _reachable_state(data)
    group, order = ctx.group, ctx.order
    top = len(terms) if pred_name == "zero_sum_free" else max(1, ctx.exp - 1)
    exact = layers_by_count(group, terms, top)
    if pred_name == "no_exact_exp":
        assert state == sum(_mask(layer) << c * order for c, layer in enumerate(exact)), terms
        return
    frame = _mask(set().union(*exact[1:]))
    if pred_name == "short_free":
        # the layers are cumulative: layer c holds the sums of at most c terms,
        # the empty sum 0 among them, so 0 is in the frame from the start;
        # harmless, as bound[0] == 0 keeps index 0 out of every potential
        # mask and forbid rejects g == 0 on its own
        frame |= 1
        cumulative = [set().union(*exact[:c + 1]) for c in range(top + 1)]
        assert state[0] == sum(_mask(layer) << c * order for c, layer in enumerate(cumulative))
    assert state[-2] == frame, terms
    assert state[-1] == _mask(group.index_neg(x) for x in range(order) if frame >> x & 1), terms


# which lengths of zero-sum each predicate forbids, given the group's exponent
_FORBIDDEN_LENGTHS = {
    "short_free": lambda exp, n: range(1, exp + 1),
    "zero_sum_free": lambda exp, n: range(1, n + 1),
    "no_exact_exp": lambda exp, n: (exp,),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_predicate_states_match_naive_profile(data):
    # forbid(state, g) must say exactly whether appending g to the pushed terms
    # creates a zero-sum of a forbidden length; forbidden terms are not pushed
    spec = data.draw(st.sampled_from(sorted(CANON_GROUPS)))
    pred_name = data.draw(st.sampled_from(sorted(_FORBIDDEN_LENGTHS)))
    ctx = _canon_ctx(spec, pred_name, "none")
    group = ctx.group
    pred = search._make_pred(ctx, pred_name)
    state, terms = pred.initial(), []
    for g in data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=8)):
        profile = naive_profile(Sequence.from_items(group, ((i, 1) for i in terms + [g])))
        lengths = _FORBIDDEN_LENGTHS[pred_name](group.exponent, len(terms) + 1)
        creates = any(0 in profile.get(c, ()) for c in lengths)
        assert pred.forbid(state, g) == creates, (terms, g)
        if not creates:
            state = pred.push(state, g)
            terms.append(g)
