import functools
import itertools
import multiprocessing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_max_length,
    d0_counterexample,
    element_order,
    is_orbit_minimal,
    layers_by_count,
    loop_chain,
    loop_extend,
    loop_no_exact_exp_potential,
    loop_pair_potential,
    loop_root_jobs,
    loop_units,
    multiplicity,
    multisets_of_length,
    naive_is_short_free,
    naive_profile,
    support,
)
from zerosum import catalog, constructions, search
from zerosum.group import (
    _HEAD, SYMMETRY_LEVELS, PackedCodes, close_symmetries, make_group, symmetries,
)
from zerosum.search import (
    STATUS_EXHAUSTED,
    STATUS_PROVED,
    STATUS_REFUTED,
    Certificate,
    SearchConfig,
    c0_targets,
    check_power_property,
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


# D, eta, s and g against brute force: each kind on every TINY group and on the
# smallest groups beside them where brute force stays under about 1.5 s (C8
# s, C4^2 g, C2+C6 s and C2^4 g take 8 to over 30 s)
BRUTE_FORCE_GROUPS = {
    **TINY, "C2^2": [2, 2], "C4": [4], "C5": [5], "C6": [6], "C7": [7], "C8": [8],
    "C2+C6": [2, 6],
}
BRUTE_FORCE = {
    "D": [*TINY, "C7", "C8"],
    "eta": [*TINY, "C7", "C8"],
    "s": [*TINY, "C2^2", "C4", "C5", "C6", "C7"],
    "g": [*TINY, "C2^2", "C4", "C5", "C6", "C7", "C8", "C2+C6"],
}


def _keep(group, kind: str):
    """keep for brute_max_length: no zero-sum subsequence of a length the
    kind forbids (D any, eta 1 to exp(G), s and g exactly exp(G)), by the set
    layers of sums of exactly c terms.  For s a multiplicity of exp(G) or more
    is refused before any sum (exp(G) copies of one term sum to 0), and for g
    one above 1."""
    n = group.exponent
    top = {"s": n - 1, "g": 1}.get(kind)

    def keep(seq) -> bool:
        if top is not None and any(v > top for _, v in seq.items):
            return False
        lengths = {"D": range(1, seq.length + 1), "eta": range(1, n + 1)}.get(kind, [n])
        layers = layers_by_count(group, seq.term_indices(), max(lengths, default=0))
        return all(0 not in layers[c] for c in lengths)

    return keep


def _brute_force_disagrees(spec: str, kind: str) -> str | None:
    """What differs between the search's proved value of the kind for the
    group and brute force, or None.  The search runs twice, the second time
    with a greedy lower bound of 0: on most of these groups the greedy
    sequence is already extremal, so only the tree alone shows a prune that
    drops every longest sequence.  brute_max_length scans down from the
    search's value, so it confirms that no sequence of that length avoids the
    forbidden zero-sums (nor, by heredity, any longer one) and that one of
    the length below does."""
    group = make_group(BRUTE_FORCE_GROUPS[spec])
    value, cert = invariant_value(group, kind, CFG)
    if cert.status != STATUS_PROVED:
        return f"{kind}({spec}): status {cert.status}"
    with mock.patch.object(search, "_greedy_lb", lambda ctx, pred: (0, None)):
        tree_value = invariant_value(group, kind, CFG)[0]
    if tree_value != value:
        return f"{kind}({spec}): search {value}, from a greedy bound of 0 {tree_value}"
    longest = brute_max_length(group, value, _keep(group, kind))
    if longest != value - 1:
        return f"{kind}({spec}): search {value}, brute force's longest {longest}"
    return None


@pytest.mark.parametrize("spec", BRUTE_FORCE["D"])
def test_davenport_matches_brute_force(spec):
    assert _brute_force_disagrees(spec, "D") is None


@pytest.mark.parametrize("spec", BRUTE_FORCE["eta"])
def test_eta_matches_brute_force(spec):
    assert _brute_force_disagrees(spec, "eta") is None


@pytest.mark.parametrize("spec, kind",
                         [(spec, kind) for kind in "sg" for spec in BRUTE_FORCE[kind]])
def test_s_and_g_match_brute_force(spec, kind):
    assert _brute_force_disagrees(spec, kind) is None


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


def test_goal_objects_cross_to_width_2_workers_unchanged():
    # each branch's goal is made from its factory in the worker and pickled
    # back: the C0 sweep (proofs on C4^2, witnesses found by search on
    # C2^2+C4), the enumeration and Properties C and D give equal
    # certificates and reports at widths 1 and 2
    def runs(cfg):
        c44, c224, c33 = make_group((4, 4)), make_group((2, 2, 4)), make_group((3, 3))
        rep = enumerate_short_free(c33, 5, cfg, checks=("sum_zero",), collect=True)
        return (
            [(t, c.to_json()) for t, c in compute_c0_at(c44, [8, 9], cfg)[1].items()],
            [(t, c.to_json()) for t, c in compute_c0_at(c224, [5, 6], cfg)[1].items()],
            (rep.count, rep.nodes, rep.status, rep.violations, rep.items),
            check_power_property(c33, "C", cfg, {}).to_json(),
            check_power_property(c33, "D", cfg, {}).to_json(),
        )

    assert runs(SearchConfig(parallel_width=1)) == runs(SearchConfig(parallel_width=2))


def test_extremal_witness_is_valid():
    group = make_group([3, 3])
    best, cert = max_extremal_length(group, "eta", CFG)
    assert best == 6
    assert cert.witness is not None and cert.witness.length == 6
    assert find_short_zero_sum(cert.witness) is None


def test_an_invalid_extremal_witness_raises(monkeypatch):
    # a greedy bound of 20 zeros over C3^2, which no branch beats: the search
    # would return it as the eta witness, and 0 alone is a short zero-sum
    monkeypatch.setattr(search, "_greedy_lb", lambda ctx, pred: (20, (0,) * 20))
    with pytest.raises(AssertionError, match="invalid eta witness"):
        max_extremal_length(make_group([3, 3]), "eta", CFG)


@pytest.mark.parametrize("run, what", [
    (lambda: compute_c0_at(make_group((2, 2, 4)), [5], CFG), "c0_membership 5"),
    (lambda: check_property_D0(make_group((3, 3, 3)), 8, CFG), "property D0"),
], ids=["c0", "D0"])
def test_a_search_witness_the_recheck_rejects_raises(monkeypatch, run, what):
    # the one certificate builder re-checks a C0 or property witness too
    monkeypatch.setattr(search, "witnesses", lambda claim, seq: False)
    with pytest.raises(AssertionError, match=f"invalid {what} witness"):
        run()


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


@pytest.mark.parametrize("known, searched", [
    ({"D": 5, "eta": 7}, []), ({"D": 5}, ["eta"]), ({"eta": 7, "s": 9}, ["D"]),
    ({}, ["D", "eta"]),
])
def test_c0_targets_searches_only_what_known_lacks(known, searched, monkeypatch):
    calls = []

    def logged(group, kind, cfg):
        calls.append(kind)
        return {"D": 5, "eta": 7}[kind], search.Certificate(
            {}, STATUS_PROVED, group.spec(), None, 0, cfg)

    monkeypatch.setattr(search, "invariant_value", logged)
    group = make_group([3, 3])
    assert c0_targets(group, CFG, known) == (6, 6, [6])
    assert c0_targets(group, CFG, known, [6]) == (6, 6, [6])
    assert calls == searched * 2
    with pytest.raises(ValueError, match=r"t=7 outside \[D\(G\)\+1, eta\(G\)-1\] = \[6, 6\]"):
        c0_targets(group, CFG, known, [7])


def test_c0_members_against_brute_force():
    # enumerate all multisets of each candidate length directly
    group = make_group([3, 3])
    d, eta = 5, 7
    for t in range(d + 1, eta):
        exists = any(
            seq.is_zero_sum() and naive_is_short_free(seq)
            for seq in multisets_of_length(group, t)
        )
        cert = compute_c0_at(group, [t], CFG)[1][t]
        assert (cert.status == STATUS_REFUTED) == exists


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


@pytest.mark.parametrize("length", [2, 20])
def test_unknown_enumeration_check_fails_before_the_search(length, monkeypatch):
    # no short-free sequence over C3^2 has length 20 (eta - 1 = 6), so no
    # visit ever reaches the checks: the name must be refused before any node
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(search, "_dfs", no_search)
    with pytest.raises(ValueError, match="unknown enumeration check 'bogus'"):
        enumerate_short_free(make_group([3, 3]), length, CFG, checks=("bogus",))


@pytest.mark.parametrize("length", [0, -3])
def test_enumeration_length_below_one_fails_before_the_search(length, monkeypatch):
    # the empty sequence is short-free, so a proved count of 0 at length 0
    # would be false: the length is refused before any node
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(search, "_dfs", no_search)
    with pytest.raises(ValueError, match=f"enumeration length must be >= 1, got {length}"):
        enumerate_short_free(make_group([3, 3]), length, CFG)


def test_enumerate_respects_multiplicity_bound():
    group = make_group([4, 4])
    rep = enumerate_short_free(group, 6, SearchConfig(), collect=True)
    assert rep.status == STATUS_PROVED
    for seq in rep.items:
        for g in support(seq):
            assert multiplicity(seq, g) <= element_order(g) - 1


def test_property_c_small():
    cert = check_power_property(make_group([3, 3]), "C", CFG, {})
    assert cert.status == STATUS_PROVED and cert.claim["c"] == 3
    cert = check_power_property(make_group([2, 2]), "C", CFG, {})
    assert cert.status == STATUS_PROVED


def test_property_d_small():
    cert = check_power_property(make_group([2, 2]), "D", CFG, {})
    assert cert.status == STATUS_PROVED
    cert = check_power_property(make_group([3, 3]), "D", CFG, {})
    assert cert.status == STATUS_PROVED and cert.claim["c"] == 4


def test_property_d_rank3_ternary():
    cert = check_power_property(make_group([3, 3, 3]), "D", CFG, {"s": 19})
    assert cert.status == STATUS_PROVED and cert.claim["c"] == 9


def test_power_property_refuses_a_value_below_d_star():
    # eta and s are both >= D(G) >= D*(G) = 7 on C3^3; a smaller given value
    # would refute the property with no witness to check
    c33 = make_group([3, 3, 3])
    with pytest.raises(ValueError, match="below D"):
        check_power_property(c33, "D", CFG, {"s": 2})
    with pytest.raises(ValueError, match="below D"):
        check_power_property(c33, "C", CFG, {"eta": 0})


def test_power_property_reads_its_invariant_from_known():
    # Property C reads eta and Property D reads s: the other invariant in
    # known is ignored, and a given eta runs no eta search
    c33 = make_group([3, 3, 3])
    cert = check_power_property(c33, "C", CFG, {"eta": 17, "s": 2})
    assert (cert.status, cert.claim["c"], cert.cert_id()) == (
        STATUS_PROVED, 8, "545320be175df7a9")
    with pytest.raises(ValueError, match="unknown power property 'D0'"):
        check_power_property(c33, "D0", CFG, {})


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
    # and every verdict and witness for c in 1..9 on three groups, and c = 8
    # and 9 on C3^3, against the unreduced search: the least counterexample is
    # the least of its orbit, so the reduced search finds the same one
    for moduli, cs in (((3, 3), range(1, 10)), ((2, 2, 2), range(1, 10)),
                       ((2, 2, 2, 2), range(1, 10)), ((3, 3, 3), (8, 9))):
        group = make_group(moduli)
        want = {}
        for level in ("none", "coord_perms+scalar", "full_small"):
            cfg = SearchConfig(symmetry_level=level)
            for c in cs:
                cert = check_property_D0(group, c, cfg)
                got = want.setdefault(c, (cert.claim, cert.witness))
                assert (cert.claim, cert.witness) == got, (moduli, c, level)


# Property D0 against brute force over every set of c elements
# (conftest.d0_counterexample), which fixes the leading term at 0 as the
# search does: about 0.3 s
D0_BRUTE_FORCE = {(3, 3): range(1, 10), (2, 2, 2): range(1, 8), (4, 4): range(1, 6)}


def _d0_brute_force_disagrees() -> list[str]:
    """Each case of D0_BRUTE_FORCE where check_property_D0 differs from brute
    force: in its verdict, or in a witness other than 0 * prod g_i^(n-1) over
    the least counterexample."""
    problems = []
    for moduli, cs in D0_BRUTE_FORCE.items():
        group = make_group(moduli)
        n = group.exponent
        for c in cs:
            cert = check_property_D0(group, c, CFG)
            least = d0_counterexample(group, c)
            where = f"D0 {group.spec()} c={c}"
            if cert.claim["holds"] is not (least is None):
                problems.append(f"{where}: holds {cert.claim['holds']}, brute force {least}")
            elif least is not None and cert.witness.items != ((0, 1), *((g, n - 1) for g in least)):
                problems.append(f"{where}: witness {cert.witness.items}, brute force {least}")
    return problems


def test_property_d0_matches_brute_force():
    assert _d0_brute_force_disagrees() == []


def test_d0_brute_force_catches_a_goal_one_above_c(monkeypatch):
    # asking the potential for c+1 units cuts every branch that reaches exactly
    # c, so a counterexample is missed and D0 reads as holding
    monkeypatch.setattr(search._D0Goal, "needs", lambda goal: (
        (goal.c + 1, goal.c) if goal.witness is None else (None, -1)))
    assert _d0_brute_force_disagrees()


def test_budget_exhaustion_is_honest():
    group = make_group([3, 3, 3])
    cfg = SearchConfig(node_budget=50)
    value, cert = invariant_value(group, "eta", cfg)
    assert cert.status == STATUS_EXHAUSTED
    assert value <= 17  # a lower bound, never an overclaim
    w = cert.witness
    assert w is not None and find_short_zero_sum(w) is None


def test_a_time_budget_reads_the_clock_every_256_nodes():
    stats = search._Stats(0, 60.0)
    stats.deadline -= 120.0  # passed, but read only when nodes & 255 == 0
    stats.nodes = 1
    assert not stats.should_stop()
    stats.nodes = 256
    assert stats.should_stop() and stats.exhausted
    stats.nodes = 257
    assert stats.should_stop()  # a spent budget stays spent
    stats = search._Stats(10, 0.0)
    stats.nodes = 9
    assert not stats.should_stop()
    stats.nodes = 10
    assert stats.should_stop() and stats.exhausted


def test_a_spent_time_budget_cuts_the_search_honestly():
    value, cert = invariant_value(make_group([3, 3, 3]), "eta", SearchConfig(time_budget=1e-9))
    assert cert.status == STATUS_EXHAUSTED
    assert value <= 17 and find_short_zero_sum(cert.witness) is None


def test_certificate_json_round_trip():
    group = make_group([3, 3])
    _, cert = invariant_value(group, "eta", CFG)
    text = cert.to_json()
    again = Certificate.from_json(text)
    assert again.to_json() == text


def test_a_construction_candidate_that_is_no_witness_raises(monkeypatch):
    # the first construction candidate of a length settles it, re-checked by
    # the one certificate builder: a bad candidate is not skipped for the next
    group = make_group([3, 3, 3, 3])
    bad = Sequence.from_items(group, [(0, 30)])  # 0 is a short zero-sum
    real = constructions.known_witnesses
    monkeypatch.setattr(constructions, "known_witnesses", lambda g, t: iter([bad, *real(g, t)]))
    with pytest.raises(AssertionError, match="invalid c0_membership 30 witness"):
        compute_c0_at(group, [30], CFG)


def test_compute_c0_at_handles_construction_hints():
    group = make_group([3, 3, 3, 3])
    members, certs = compute_c0_at(group, list(range(30, 37)), CFG)
    assert members == []
    assert all(c.status == STATUS_REFUTED and c.nodes == 0 for c in certs.values())


# The search tree and certificate bytes of the default configuration; a
# change to either is a change of behaviour and must update these on purpose.
PINNED_SEARCHES = [
    ("D", (3, 3, 3), 3509, "8712ab90e6139f55"),
    ("eta", (3, 3, 3), 5575, "49172867ff21b435"),
    ("g", (3, 3, 3), 599, "9df29784c4501db2"),
    ("s", (4, 4), 462, "3302ae9724fac36c"),
    ("s", (2, 6), 444, "ca76802e33e3cd9e"),
    ("eta", (2,) * 7, 8, "813b0cf1199404c0"),
    ("eta", (2,) * 8, 9, "be7baa14b8329bba"),
]


@pytest.mark.parametrize("kind,moduli,nodes,cert_id", PINNED_SEARCHES,
                         ids=[f"{p[0]} {make_group(p[1]).spec()}" for p in PINNED_SEARCHES])
def test_search_tree_is_pinned(kind, moduli, nodes, cert_id):
    _, cert = max_extremal_length(make_group(moduli), kind, CFG)
    assert (cert.nodes, cert.cert_id()) == (nodes, cert_id)


def test_eta_of_c2_9_is_proved_past_the_closure_cap():
    # the coordinate perms of C2^9 close to 9! > CLOSURE_CAP perms, but every
    # root's children are cut by the potential, so no child is tested
    group = make_group((2,) * 9)
    value, cert = invariant_value(group, "eta", CFG)
    assert (value, cert.status, cert.nodes, cert.cert_id()) == (
        512, STATUS_PROVED, 10, "4e8788c411e2affa")
    assert invariant_value(group, "eta", SearchConfig(symmetry_level="none"))[0] == 512
    cited = {f.detail[1] for f in catalog.instantiate_for(group.moduli)
             if f.kind == catalog.KIND_INVARIANT and f.detail[0] == "eta"}
    assert cited == {2**9}


def test_the_closure_is_built_at_the_first_child_test(monkeypatch, c33):
    # with a closure cap of 5, eta(C2^7) and D0 of C3^3 with c=1 (no child
    # tested) still return their certificates, and D(C3^3) and D0 with c=2
    # (11 perms, tested at the first child) raise
    d0_c1 = check_property_D0(c33, 1, CFG)
    assert d0_c1.status == STATUS_REFUTED
    monkeypatch.setattr(search, "close_symmetries", functools.partial(close_symmetries, cap=5))
    monkeypatch.setattr(search, "_ctx_memo", {})
    assert invariant_value(make_group((2,) * 7), "eta", CFG)[0] == 128
    assert check_property_D0(c33, 1, CFG).to_json() == d0_c1.to_json()
    with pytest.raises(ValueError, match="cap of 5 permutations"):
        invariant_value(c33, "D", CFG)
    with pytest.raises(ValueError, match="cap of 5 permutations"):
        check_property_D0(c33, 2, CFG)


def test_contexts_are_built_once_per_group_in_any_order(monkeypatch, c33):
    # the searches of the exact_c3_3 benchmark workload, in two orders, build
    # the same contexts; alternating levels on one group builds each context
    # once, and a search of another group drops the first group's contexts
    built = []

    def counted(group, level):
        built.append((group.moduli, level))
        return symmetries(group, level)

    monkeypatch.setattr(search, "symmetries", counted)
    runs = [
        lambda: invariant_value(c33, "D", CFG), lambda: invariant_value(c33, "eta", CFG),
        lambda: invariant_value(c33, "g", CFG), lambda: check_property_D0(c33, 9, CFG),
        lambda: enumerate_short_free(c33, 18, CFG),
    ]
    counts = []
    for k in (0, 3):
        monkeypatch.setattr(search, "_ctx_memo", {})
        built.clear()
        for run in runs[k:] + runs[:k]:
            run()
        counts.append(len(built))
    assert counts[0] == counts[1]
    built.clear()
    c24 = make_group((2, 2, 2, 2))
    for level in ("none", "full_small") * 3:
        check_property_D0(c24, 2, SearchConfig(symmetry_level=level))
    assert built == [(c24.moduli, "none"), (c24.moduli, "full_small")]
    check_property_D0(make_group((3, 3)), 2, CFG)
    assert {key[0] for key in search._ctx_memo} == {(3, 3)}


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers inherit the patched closure only when forked")
def test_a_closure_past_its_cap_is_built_once_at_width_2(monkeypatch, tmp_path):
    # the run closes the group before its workers fork: they inherit the cap
    # error and raise it at their first child test without closing again, and
    # eta(C2^7), which tests no child, still proves its value at width 2
    log = tmp_path / "closures"

    def logged(group, gens):
        with open(log, "a") as f:
            f.write("closed\n")
        return close_symmetries(group, gens, cap=5)

    monkeypatch.setattr(search, "close_symmetries", logged)
    monkeypatch.setattr(search, "_ctx_memo", {})
    width2 = SearchConfig(parallel_width=2)
    with pytest.raises(ValueError, match="cap of 5 permutations"):
        invariant_value(make_group((3, 3, 3)), "D", width2)
    assert log.read_text() == "closed\n"
    assert invariant_value(make_group((2,) * 7), "eta", width2)[0] == 128
    assert log.read_text() == "closed\n" * 2


_C44 = make_group((4, 4))
_BUDGET30 = SearchConfig(node_budget=30)
_BUDGET20 = SearchConfig(node_budget=20)
_FULL = SearchConfig(symmetry_level="full_small")

# Property, C0 and D0 certificates, pinned the same way.
PINNED_CERTS = [
    ("C C4^2", lambda: check_power_property(_C44, "C", CFG, {}), 846, "e38eccea770add14"),
    ("D C4^2", lambda: check_power_property(_C44, "D", CFG, {}), 1093, "298bc4828aeb64fa"),
    ("D C4^2 b30", lambda: check_power_property(_C44, "D", _BUDGET30, {}),
     68, "046028ee3e29f990"),
    ("C C3^3 b30", lambda: check_power_property(make_group((3, 3, 3)), "C", _BUDGET30, {}),
     229, "15a874d6bc1d3273"),
    ("c0 C4^2 t=8", lambda: compute_c0(_C44, CFG)[1][8], 745, "c44aeb1f8f225189"),
    ("c0 C4^2 t=9", lambda: compute_c0(_C44, CFG)[1][9], 745, "b71a484bdebf8a87"),
    ("D0 C3^2 c=2", lambda: check_property_D0(make_group((3, 3)), 2, CFG), 6, "a9fc4c4804eac19d"),
    ("D0 C3^3 c=9 w2", lambda: check_property_D0(
        make_group((3, 3, 3)), 9, SearchConfig(parallel_width=2)), 595, "17f7281cfee76ace"),
    # the node-budgeted searches of groups above order 64
    ("eta C3^4 b20", lambda: max_extremal_length(make_group((3,) * 4), "eta", _BUDGET20)[1],
     290, "7ffd0a777f9c22b0"),
    ("s C4^3 b20", lambda: max_extremal_length(make_group((4,) * 3), "s", _BUDGET20)[1],
     61, "f4ae01042fe2a61e"),
    ("f C5^3 b20", lambda: max_extremal_length(make_group((5,) * 3), "f", _BUDGET20)[1],
     181, "f2b202d5b0779d64"),
    # the full automorphism group: 11,231 non-identity permutations on C3^3
    ("s C3^3 full", lambda: max_extremal_length(make_group((3, 3, 3)), "s", _FULL)[1],
     86, "974c8e799e6b7b3d"),
    ("D C3^3 s=19 full", lambda: check_power_property(make_group((3, 3, 3)), "D", _FULL, {"s": 19}),
     108, "45ddfb2b8b9101f4"),
    # both stages of the canonicity test: 95 non-identity perms on C4^2
    ("s C4^2 full", lambda: max_extremal_length(_C44, "s", _FULL)[1], 74, "49b9647cde95325a"),
    ("D0 C3^3 c=9 full", lambda: check_property_D0(make_group((3, 3, 3)), 9, _FULL),
     13, "3e874f2f008c4e45"),
    # D0 trees cut by a budget, and a refutation with the full automorphism group
    ("D0 C3^3 c=9 b50", lambda: check_property_D0(
        make_group((3, 3, 3)), 9, SearchConfig(node_budget=50)), 133, "67c2512df25b12f6"),
    ("D0 C3^3 c=8 b50", lambda: check_property_D0(
        make_group((3, 3, 3)), 8, SearchConfig(node_budget=50)), 105, "9f60b5a1ac147470"),
    ("D0 C3^3 c=8 full", lambda: check_property_D0(make_group((3, 3, 3)), 8, _FULL),
     11, "6799d788fb475794"),
]


@pytest.mark.parametrize("run,nodes,cert_id", [p[1:] for p in PINNED_CERTS],
                         ids=[p[0] for p in PINNED_CERTS])
def test_certificate_is_pinned(run, nodes, cert_id):
    cert = run()
    assert (cert.nodes, cert.cert_id()) == (nodes, cert_id)


def test_d0_and_enumeration_trees_are_pinned(c33):
    cert = check_property_D0(c33, 9, CFG)
    assert (cert.nodes, cert.cert_id()) == (595, "17f7281cfee76ace")
    rep = enumerate_short_free(c33, 18, CFG)
    assert (rep.nodes, rep.count, rep.status) == (2720, 0, STATUS_PROVED)


@pytest.mark.parametrize("width", [1, 2])
def test_refuted_d0_certificate_is_pinned(c33, width):
    # a counterexample found deep in the tree: every root branch still runs to
    # its end, so the node count and the least counterexample hold at any width
    cert = check_property_D0(c33, 8, SearchConfig(parallel_width=width))
    assert (cert.status, cert.nodes, cert.cert_id()) == (STATUS_REFUTED, 105, "00cb229157179b75")
    assert cert.witness.items == (
        (0, 1), (1, 2), (3, 2), (4, 2), (9, 2), (10, 2), (14, 2), (17, 2), (23, 2)
    )


def test_c0_search_witness_is_pinned():
    # no construction settles t=9 on C2^4, so the sweep's running sum finds it
    group = make_group((2, 2, 2, 2))
    cert = compute_c0_at(group, list(range(6, 16)), CFG)[1][9]
    assert (cert.status, cert.nodes, cert.cert_id()) == (STATUS_REFUTED, 558, "89b64582edff95fe")
    assert cert.witness.items == (
        (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (8, 1), (10, 1), (12, 1), (15, 1)
    )


CANON_GROUPS = {"C3^3": (3, 3, 3), "C3+C6": (3, 6), "C4^2": (4, 4), "C2^4": (2, 2, 2, 2)}
CANON_LEVELS = ("none", "coord_perms+scalar", "full_small")
_CANON_CTX: dict = {}


def _canon_ctx(spec: str, pred: str, level: str):
    key = (spec, pred, level)
    if key not in _CANON_CTX:
        # Property D0's units read the squarefree no_exact_exp tables
        args = ("no_exact_exp", True) if pred == "d0_units" else (pred, False)
        _CANON_CTX[key] = search._Ctx(make_group(CANON_GROUPS[spec]), *args, level)
    return _CANON_CTX[key]


def _head_extend(codes, q: int, g: int, m: int) -> bool:
    """Whether the multiset with packed int q plus g^m passes the head test."""
    head = codes.head
    return (q & head.mask) + m * head.delta(g) & head.guard == head.guard


def _packed_extend(codes, q: int, g: int, m: int) -> int | None:
    """The packed image codes after adding g^m, or None if not canonical:
    the steps _dfs takes, the head test and then the full one."""
    if not _head_extend(codes, q, g, m):
        return None
    q += m * codes.delta(g)
    return q if q & codes.guard == codes.guard else None


_CODES: dict = {}


def _draw_codes(data, ctx, head=None):
    """The packed codes and per-element multiplicity caps of a search on ctx,
    or ones for any element repeated up to c times.  With head, the codes
    are built with zerosum.group._HEAD patched to it, so their first stage
    covers that many perms."""
    if data.draw(st.booleans()):
        c = data.draw(st.integers(1, 12))
        top, caps = c, [c] * ctx.order
    else:
        top, caps = max(ctx.bound), ctx.bound
    k = max(1, top.bit_length())
    key = (id(ctx), k, head)
    if key not in _CODES:
        with mock.patch("zerosum.group._HEAD", _HEAD if head is None else head):
            _CODES[key] = PackedCodes(ctx.perms, ctx.order, k)
    return _CODES[key], top, caps


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_encoded_canonicity_matches_sort_oracle(data):
    # with a head of 4 perms, C3^3 and C2^4 at the default level and C4^2 at
    # full_small split into two stages; with the module's own head, C4^2,
    # C2^4 and C3^3 at full_small do.  Each stage's verdict is checked
    # against the sort oracle over its own perms
    spec = data.draw(st.sampled_from(sorted(CANON_GROUPS)))
    pred = data.draw(st.sampled_from(("short_free", "no_exact_exp")))
    level = data.draw(st.sampled_from(CANON_LEVELS))
    ctx = _canon_ctx(spec, pred, level)
    head = data.draw(st.sampled_from((None, 4)))
    codes, _, caps = _draw_codes(data, ctx, head)
    size = _HEAD if head is None else head
    assert codes.head.perms == ctx.perms[:size]
    assert (codes.head is codes) == (len(ctx.perms) <= size)
    support = data.draw(st.sets(st.integers(0, ctx.order - 1), max_size=6))
    # the DFS extends canonical multisets only, so the walk stops at the first
    # prefix that is not canonical
    code, seq = codes.guard, []
    for g in sorted(support):
        if caps[g] <= 0:
            continue
        m = data.draw(st.integers(1, caps[g]))
        head_ok = _head_extend(codes, code, g, m)
        code = _packed_extend(codes, code, g, m)
        seq += [g] * m
        assert head_ok == is_orbit_minimal(seq, codes.head.perms), seq
        assert (code is not None) == is_orbit_minimal(seq, ctx.perms), seq
        if code is None:
            break


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_packed_codes_match_loop_oracle(data):
    # the verdict, and every field 2^F + enc - img of the packed int, against
    # the per-permutation loop on digit units built here
    spec = data.draw(st.sampled_from(sorted(CANON_GROUPS)))
    pred = data.draw(st.sampled_from(("short_free", "no_exact_exp")))
    level = data.draw(st.sampled_from(CANON_LEVELS))
    ctx = _canon_ctx(spec, pred, level)
    codes, top, caps = _draw_codes(data, ctx)
    unit = loop_units(ctx.order, top)
    assert codes.unit == unit
    bias = unit[0] << max(1, top.bit_length())  # 2^F, F = order*k
    width = 8 * len(codes.fields[0])
    assert width > bias.bit_length()
    enc, imgs = 0, [0] * len(ctx.perms)
    q = codes.guard
    for g in sorted(data.draw(st.sets(st.integers(0, ctx.order - 1), max_size=6))):
        if caps[g] <= 0:
            continue
        m = data.draw(st.integers(1, caps[g]))
        want = loop_extend(enc, imgs, ctx.perms, unit, g, m)
        q = _packed_extend(codes, q, g, m)
        assert (q is None) == (want is None), g
        if want is None:
            break
        enc, imgs = want
        fields = [q >> i * width & (1 << width) - 1 for i in range(len(imgs) + 1)]
        assert fields == [bias + enc - img for img in imgs] + [0]


@pytest.mark.parametrize("level", SYMMETRY_LEVELS)
def test_root_jobs_are_the_orbit_minima(level):
    # root jobs by orbit minimum, against the per-permutation test of each
    # root's code, with and without a length cap, and D0's (g, 1) at two caps;
    # no_exact_exp alone is translated to (0, m), so D, eta, f, C0 and D0 keep
    # a root at every nonzero orbit minimum
    partial = functools.partial
    goals = [partial(search._MaxGoal, 0), partial(search._EnumGoal, 2, (), 0, False)]
    d0_goals = [partial(search._D0Goal, 1), partial(search._D0Goal, 9)]
    for spec in sorted(CANON_GROUPS):
        for pred_name in ("short_free", "zero_sum_free", "no_exact_exp", "d0_units"):
            ctx = _canon_ctx(spec, pred_name, level)
            pred = search._PREDS[pred_name](ctx)
            minima = {g for g in range(ctx.order) if is_orbit_minimal([g], ctx.perms)}
            for make_goal in d0_goals if pred_name == "d0_units" else goals:
                jobs = search._root_jobs(ctx, pred, make_goal)
                where = (spec, pred_name, make_goal.func.__name__, make_goal.args)
                assert jobs == loop_root_jobs(ctx, pred, make_goal), where
                roots = {g for g, _ in jobs}
                # the others have one root at each nonzero orbit minimum:
                # 0 has bound 0, and a unit of D0's 0 completes a zero-sum
                assert roots == ({0} if pred_name == "no_exact_exp" else minima - {0}), where


def test_s_and_g_brute_force_catches_a_cap_one_below_the_root(monkeypatch):
    # capping each bound one below the root's multiplicity m drops every
    # sequence with two elements of largest multiplicity: the sweep must see it
    cap = search._Pred.cap
    monkeypatch.setattr(search._Pred, "cap", lambda pred, m: cap(pred, m - 1))
    assert any(_brute_force_disagrees(spec, kind) for kind in "sg" for spec in BRUTE_FORCE[kind])


@pytest.mark.parametrize("pred, kinds", [(search._PairPred, ("D", "eta")),
                                         (search._NoExactExp, ("s", "g"))],
                         ids=["pair", "no_exact_exp"])
def test_brute_force_catches_a_potential_one_below(monkeypatch, pred, kinds):
    # a potential one short cuts a branch that could still reach the goal
    potential = pred.potential
    monkeypatch.setattr(pred, "potential", lambda self, state, g: potential(self, state, g) - 1)
    assert any(_brute_force_disagrees(spec, kind) for kind in kinds for spec in BRUTE_FORCE[kind])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_potential_does_not_grow_with_start(data):
    # _dfs stops scanning elements at the first g whose potential misses the
    # goal, which is sound only because of this monotonicity
    spec = data.draw(st.sampled_from(sorted(CANON_GROUPS)))
    pred_name = data.draw(st.sampled_from(("short_free", "zero_sum_free", "no_exact_exp")))
    ctx = _canon_ctx(spec, pred_name, "none")
    pred = search._PREDS[pred_name](ctx)
    state = pred.initial()
    for g in sorted(data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=8))):
        pushed = pred.chain(state, g, 1)
        if pushed:
            state = pushed[0]
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
    pred = search._PREDS[pred_name](ctx)
    state, terms = pred.initial(), []
    for g in data.draw(st.lists(st.integers(0, order - 1), max_size=16)):
        pushed = pred.chain(state, g, 1) if terms.count(g) < bound[g] else []
        if pushed:
            state = pushed[0]
            terms.append(g)
    return ctx, pred_name, pred, state, terms, bound


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chain_matches_the_forbid_push_loop(data):
    # every g, 0 included, at a reachable state, for 1 to bound + 1 copies:
    # one more than bound pushes past the search's cap and meets a forbidden
    # push where the bound is exp - 1
    ctx, pred_name, pred, state, terms, bound = _reachable_state(data)
    frame = pred.frame(state)
    for g in range(ctx.order):
        copies = data.draw(st.integers(1, bound[g] + 1))
        assert pred.chain(state, g, copies) == loop_chain(pred, state, g, copies), (terms, g)
        # _dfs skips g on the frame alone
        assert bool(frame >> ctx.neg[g] & 1) == (not loop_chain(pred, state, g, 1)), (terms, g)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_d0_units_are_runs_of_n_minus_1_copies(data):
    # Property D0's predicate: the state after the translated 0, and a unit of
    # g is exp-1 single pushes, each one forbidden where the loop forbids it
    spec = data.draw(st.sampled_from(sorted(CANON_GROUPS)))
    ctx = _canon_ctx(spec, "d0_units", "none")
    pred = search._PREDS["d0_units"](ctx)
    unit = ctx.exp - 1
    state = pred.initial()
    assert [state] == loop_chain(pred, 1, 0, 1)
    for g in data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=6)):
        for h in range(ctx.order):
            copies = data.draw(st.integers(1, 3))
            want = loop_chain(pred, state, h, copies * unit)[unit - 1::unit]
            assert pred.chain(state, h, copies) == want, (g, h, copies)
            if pred.frame(state) >> ctx.neg[h] & 1:
                assert not want, (g, h)
        pushed = pred.chain(state, g, 1)
        if pushed:
            state = pushed[0]


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
        # mask, and 0 in -F makes chain refuse g == 0
        frame |= 1
        def packed_cumulative(terms):
            exact = layers_by_count(group, terms, top)
            cumulative = [set().union(*exact[:c + 1]) for c in range(top + 1)]
            return sum(_mask(layer) << c * order for c, layer in enumerate(cumulative))

        assert state[0] == packed_cumulative(terms), terms
        assert state[1] == packed_cumulative([group.index_neg(x) for x in terms]), terms
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
    # chain(state, g, 1) must be empty exactly when appending g to the pushed
    # terms creates a zero-sum of a forbidden length; forbidden terms are not pushed
    spec = data.draw(st.sampled_from(sorted(CANON_GROUPS)))
    pred_name = data.draw(st.sampled_from(sorted(_FORBIDDEN_LENGTHS)))
    ctx = _canon_ctx(spec, pred_name, "none")
    group = ctx.group
    pred = search._PREDS[pred_name](ctx)
    state, terms = pred.initial(), []
    for g in data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=8)):
        profile = naive_profile(Sequence.from_items(group, ((i, 1) for i in terms + [g])))
        lengths = _FORBIDDEN_LENGTHS[pred_name](group.exponent, len(terms) + 1)
        creates = any(0 in profile.get(c, ()) for c in lengths)
        pushed = pred.chain(state, g, 1)
        assert (not pushed) == creates, (terms, g)
        if not creates:
            state = pushed[0]
            terms.append(g)
