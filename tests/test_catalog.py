import errno
import hashlib
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_pairs_uniform_products, naive_infer, property_holds, scan_conflicts
from zerosum import catalog
from zerosum.catalog import (
    Fact,
    FactConflictError,
    FactStore,
    KIND_EQUALS,
    KIND_FULL_RANGE,
    KIND_INVARIANT,
    KIND_LOWER,
    KIND_MEMBER,
    KIND_NOT_MEMBER,
    KIND_PROPERTY,
    KIND_SUBSET,
    KIND_SUBSET_SET,
    KIND_UPPER,
    Provenance,
    _factor,
    _smooth_splits,
    _uniform_products,
    builtin_facts,
    consistency_check,
    fact_from_certificate,
    infer,
    instantiate_for,
)
from zerosum.group import make_group
from zerosum.search import SearchConfig, invariant_value


def fresh_store() -> FactStore:
    store = FactStore()
    store.add_all(builtin_facts())
    return store


def test_builtin_values():
    store = fresh_store()
    assert store.invariant_value((5, 5, 5), "eta") == 33
    assert store.invariant_value((2, 4), "D") == 5
    assert store.invariant_value((3, 3, 3, 3), "eta") == 39
    assert store.invariant_value((3, 3, 3), "eta") == 17
    assert property_holds(store, (3, 3, 3), "C") is True
    assert property_holds(store, (5, 5, 5), "D0", c=9) is True


def _row_details(subject, kind, reference=None) -> set:
    """The details of the subject's builtin facts of kind, from the _CLAIMS
    row of reference if one is given."""
    return {f.detail for f in instantiate_for(subject)
            if f.kind == kind and reference in (None, f.provenance.reference)}


def _inferred(subject, kind, rule) -> set:
    """The details of kind that rule adds about subject when the builtin facts
    are inferred."""
    store = fresh_store()
    infer(store)
    return {f.detail for f in store.of_kind(subject, kind) if f.provenance.reference == rule}


def test_formula_rows_give_known_values():
    assert _row_details((3, 3, 3), KIND_INVARIANT, "p-group Davenport constant [Olson]") == {
        ("D", 7)}
    assert _row_details((4, 4, 4), KIND_INVARIANT, "eta for two-power cubes [Harborth]") == {
        ("eta", 22)}
    assert _row_details((3, 6), KIND_INVARIANT) == {("D", 8), ("eta", 10)}
    assert _row_details((6, 6, 6), KIND_INVARIANT) == {("eta", 36)}
    assert _row_details((5, 5, 5), KIND_LOWER) == {("D", 13), ("eta", 33)}
    assert _row_details((3, 3, 3, 3), KIND_LOWER) == {("eta", 39)}
    # R3: C0(C3^4) lies in [(2^4 - 1)(3 - 1) - alpha_4(3) + 1, eta - 1] = [30, 38]
    assert _inferred((3, 3, 3, 3), KIND_SUBSET, "R3") == {(30, 38)}


def test_factor_multiplies_back_with_increasing_prime_keys():
    top = 5000
    sieve = [False, False] + [True] * (top - 1)
    for p in range(2, top + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    for n in range(1, top + 1):
        factors = _factor(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        assert list(factors) == sorted(factors)
        assert all(sieve[p] and e >= 1 for p, e in factors.items())
    assert [_factor(n) for n in (-6, -1, 0, 1)] == [{}] * 4


def test_formula_rows_hold_back_outside_their_hypotheses():
    # 3 does not divide 7: no rank-2 fact
    assert not [f for f in instantiate_for((3, 7)) if "rank-2" in f.provenance.reference]
    # C6^3 is no p-group, and 6 is even: no p-group D, no odd-n eta lower bound
    assert _row_details((6, 6, 6), KIND_INVARIANT, "p-group Davenport constant [Olson]") == set()
    assert _row_details((6, 6, 6), KIND_LOWER) == {("D", 16)}
    # alpha_3(4) = 0: R3 gives C4^3 its two-length set, not an interval
    assert _inferred((4, 4, 4), KIND_SUBSET, "R3") == set()
    assert _inferred((4, 4, 4), KIND_SUBSET_SET, "R3") == {(17, 18)}
    # R8's threshold is read only for odd n >= 65
    splits = [(k, m, n) for k in range(2, 3000) for m, n in _smooth_splits(k)]
    assert splits and all(m * n == k and n >= 65 and n % 2 for k, m, n in splits)


def test_rule_r1_on_two_power_cube():
    store = fresh_store()
    infer(store)
    members = store.member_ids((8, 8, 8))
    # eta(C8^3) = 7*7+1 = 50, c = 7 <= 8, Property C  =>  49 in C0
    assert 49 in members
    derived = [
        f
        for f in store
        if f.subject == (8, 8, 8) and f.kind == KIND_MEMBER and f.detail == (49,)
    ]
    assert any(f.provenance.reference == "R1" for f in derived)


def test_rule_r4_closes_rank2():
    store = fresh_store()
    infer(store)
    members = store.member_ids((3, 6))
    assert sorted(members) == [9]
    r4 = [f for f in store if f.subject == (3, 6) and f.provenance.reference == "R4"]
    assert r4, "R4 should fire on D=8, eta=10, 2exp+1=13"


def test_rule_r3_windows():
    store = fresh_store()
    infer(store)
    subs = [f for f in store if f.subject == (3, 3, 3) and f.kind == KIND_SUBSET]
    assert any(f.detail == (13, 16) for f in subs)


def _c15_cube_store() -> FactStore:
    store = fresh_store()
    store.add_all(instantiate_for((15, 15, 15)))
    return store


def _r8_chain_store() -> FactStore:
    m = 3**66
    store = fresh_store()
    store.add_all(instantiate_for((m // 3 * 65,) * 3))
    store.add_all(instantiate_for((m * 65,) * 3))
    return store


def test_rules_r5_r6_r7_compose():
    store = _c15_cube_store()
    infer(store)
    # ratios are 8 for both C3^3 and C5^3; the odd-cube lower bound meets the
    # product upper bound, pinning eta(C15^3) = 8*15-7 = 113
    assert store.invariant_value((15, 15, 15), "eta") == 113
    assert property_holds(store, (15, 15, 15), "C") is True


def test_rule_r8_and_transfer_chain():
    m = 3**66
    k1 = m // 3 * 65
    k2 = m * 65
    store = _r8_chain_store()
    infer(store)
    assert store.invariant_value((k1,) * 3, "s") == 9 * k1 - 8
    assert store.invariant_value((k1,) * 3, "eta") == 8 * k1 - 7
    assert store.invariant_value((k2,) * 3, "eta") == 8 * k2 - 7
    members = store.member_ids((k2,) * 3)
    assert 8 * k2 - 9 in members  # eta - 2


def _full_catalog_store() -> FactStore:
    """The builtin facts and those of the 583 presentations, before infer."""
    store = fresh_store()
    for subject in _catalog_subjects():
        store.add_all(instantiate_for(subject))
    return store


def _catalog_sub_store(keep) -> FactStore:
    """The facts of the catalog presentations that keep accepts, alone."""
    store = FactStore()
    for subject in filter(keep, _catalog_subjects()):
        store.add_all(instantiate_for(subject))
    return store


def _agrees_with_naive_infer(make) -> bool:
    """infer on make()'s store gives the facts, in the order, the rounds and
    the yield of each rule that naive_infer gives on a second copy."""
    derived, oracle = infer(make()), naive_infer(make())
    return ([f.fact_id for f in derived], derived.rounds, derived.by_rule) == (
        [f.fact_id for f in oracle], oracle.rounds, oracle.by_rule)


def test_rule_r8_threshold_is_sharp():
    # one power of 3 less fails the exact rational threshold
    k = 3**64 * 65
    store = fresh_store()
    store.add_all(instantiate_for((k,) * 3))
    assert infer(store).rounds == 2
    assert store.invariant_value((k,) * 3, "s") is None


@pytest.mark.parametrize("make", [
    fresh_store, _c15_cube_store, _r8_chain_store, _full_catalog_store,
    lambda: _catalog_sub_store(lambda s: len(set(s)) == 1),
    lambda: _catalog_sub_store(lambda s: len(s) == 2),
], ids=["builtin", "C15^3", "R8-chain", "catalog", "catalog-cubes", "catalog-rank-2"])
def test_infer_runs_to_its_fixpoint_on_subjects_on_file(make):
    store = make()
    on_file = set(store.subjects())
    derived = infer(store)
    assert derived and {f.subject for f in derived} <= on_file
    again = infer(store)
    assert (len(again), again.rounds) == (0, 1)
    # scoped rounds give what reading every subject in every round gives
    assert _agrees_with_naive_infer(make)


def test_naive_oracle_catches_a_scope_without_the_multiples(monkeypatch):
    # rounds that read only the subjects the last round touched miss the
    # products reached through a factor, and the oracle comparison fails
    monkeypatch.setattr(catalog, "_scope", lambda store, touched: set(touched))
    derived = infer(_full_catalog_store())
    assert (len(derived), derived.rounds) == (2956, 4)
    assert not _agrees_with_naive_infer(_full_catalog_store)


def test_r2_condition_implies_r9_condition(full_store):
    # c(m-1)n + c(n-1) + 1 = c(mn-1) + 1: equal ratios c, which R6 reads,
    # give the equality eta_t = (eta1 - 1) n + eta2 that R2 tests
    store, _ = full_store
    ratios, equality = [], []
    for s1, m, eta1, s2, n, eta2, target, eta_t, bound, ratio in _uniform_products(store):
        if eta_t is None:
            continue
        c = catalog._ratio(eta1[0], m)
        if c is not None and c == catalog._ratio(eta2[0], n) == catalog._ratio(eta_t[0], m * n):
            ratios.append((s1, s2))
            assert (ratio, bound) == (c, eta_t[0])
        if eta_t[0] == (eta1[0] - 1) * n + eta2[0]:
            equality.append((s1, s2))
    assert set(ratios) <= set(equality)
    # on this store both match the same tuples
    assert ratios == equality and len(ratios) == 238


def test_rule_r9_derives_a_member_that_r2_does_not():
    # values chosen to exercise the rule, not cited: eta(C2^3) = 8 and
    # eta(C3^3) = 17 have ratios 7 and 8, which differ, while eta(C6^3) =
    # (8 - 1) * 3 + 17 = 38 meets the equality that R2 tests: R2, which
    # holds R9 as well, derives the member
    store = FactStore()
    store.add_all([
        Fact((2, 2, 2), KIND_INVARIANT, ("eta", 8), Provenance("cited", "t")),
        Fact((3, 3, 3), KIND_INVARIANT, ("eta", 17), Provenance("cited", "t")),
        Fact((3, 3, 3), KIND_PROPERTY, ("C", True), Provenance("cited", "t")),
        Fact((3, 3, 3), KIND_MEMBER, (15,), Provenance("cited", "t")),
        Fact((6, 6, 6), KIND_INVARIANT, ("eta", 38), Provenance("cited", "t")),
    ])
    derived = infer(store)
    assert "R9" not in derived.by_rule
    [r2] = [f for f in derived if f.provenance.reference == "R2"]
    assert (r2.subject, r2.kind, r2.detail) == ((6, 6, 6), KIND_MEMBER, (36,))


def test_provenance_chains_resolve():
    store = fresh_store()
    infer(store)
    for fact in store:
        for premise in fact.provenance.premises:
            assert premise in store.facts
    # acyclic by construction: premises always point at earlier facts
    def depth(fid, seen=()):
        assert fid not in seen
        fact = store.facts[fid]
        return 1 + max(
            (depth(p, seen + (fid,)) for p in fact.provenance.premises), default=0
        )

    for fid in store.facts:
        assert depth(fid) < 30


def test_contradiction_is_hard_error():
    store = fresh_store()
    with pytest.raises(FactConflictError):
        store.add(Fact((3, 3, 3), KIND_INVARIANT, ("eta", 18), Provenance("cited", "x")))
    with pytest.raises(FactConflictError):
        store.add(Fact((2, 2, 2), KIND_MEMBER, (4,), Provenance("cited", "x")))


# one case per conflict rule: (kind, detail) of two facts that contradict each
# other, and a nearby second fact that does not contradict the first
_CONFLICTS = {
    "invariant/invariant": (
        (KIND_INVARIANT, ("eta", 17)), (KIND_INVARIANT, ("eta", 18)), (KIND_INVARIANT, ("D", 18))),
    "invariant/lower": (
        (KIND_INVARIANT, ("eta", 17)), (KIND_LOWER, ("eta", 18)), (KIND_LOWER, ("eta", 17))),
    "invariant/upper": (
        (KIND_INVARIANT, ("eta", 17)), (KIND_UPPER, ("eta", 16)), (KIND_UPPER, ("eta", 17))),
    "lower/upper": (
        (KIND_LOWER, ("eta", 18)), (KIND_UPPER, ("eta", 17)), (KIND_UPPER, ("eta", 18))),
    "member/not-member": (
        (KIND_MEMBER, (14,)), (KIND_NOT_MEMBER, (14,)), (KIND_NOT_MEMBER, (15,))),
    "member/subset": (
        (KIND_MEMBER, (12,)), (KIND_SUBSET, (13, 16)), (KIND_SUBSET, (12, 16))),
    "member/subset-set": (
        (KIND_MEMBER, (12,)), (KIND_SUBSET_SET, (13, 14)), (KIND_SUBSET_SET, (12, 14))),
    "member/equals": (
        (KIND_MEMBER, (12,)), (KIND_EQUALS, (13, 14)), (KIND_EQUALS, (12, 13))),
    "not-member/equals": (
        (KIND_NOT_MEMBER, (13,)), (KIND_EQUALS, (13, 14)), (KIND_EQUALS, (14, 15))),
    "equals/equals": (
        (KIND_EQUALS, (13, 14)), (KIND_EQUALS, (13, 15)), (KIND_EQUALS, (13, 14))),
    "property/property": (
        (KIND_PROPERTY, ("C", True)), (KIND_PROPERTY, ("C", False)), (KIND_PROPERTY, ("D", False))),
    "property/property D0": (
        (KIND_PROPERTY, ("D0", True, 9)), (KIND_PROPERTY, ("D0", False, 9)),
        (KIND_PROPERTY, ("D0", False, 7))),
}


@pytest.mark.parametrize("rule", sorted(_CONFLICTS))
def test_every_conflict_rule_holds_in_both_orders(rule):
    first, clash, fine = (
        Fact((3, 3, 3), kind, detail, Provenance("cited", ref))
        for (kind, detail), ref in zip(_CONFLICTS[rule], ("a", "b", "c"))
    )
    for a, b in ((first, clash), (clash, first)):
        store = FactStore()
        store.add(a)
        with pytest.raises(FactConflictError) as err:
            store.add(b)
        # the error names both facts
        assert a.text() in str(err.value) and b.text() in str(err.value)
    for a, b in ((first, fine), (fine, first)):
        store = FactStore()
        store.add_all([a, b])
        assert len(store) == 2


_BOUND = st.tuples(st.sampled_from(("D", "eta")), st.integers(10, 13))
_LENGTHS = st.lists(st.integers(10, 13), max_size=3).map(tuple)
# small detail ranges, so that most lists hold facts that clash, often with
# more than one earlier fact
_DETAILS = {
    KIND_INVARIANT: _BOUND,
    KIND_LOWER: _BOUND,
    KIND_UPPER: _BOUND,
    KIND_MEMBER: st.tuples(st.integers(10, 13)),
    KIND_NOT_MEMBER: st.tuples(st.integers(10, 13)),
    KIND_SUBSET: st.tuples(st.integers(10, 13), st.integers(10, 13)),
    KIND_SUBSET_SET: _LENGTHS,
    KIND_EQUALS: _LENGTHS,
    KIND_FULL_RANGE: st.just(()),
    KIND_PROPERTY: st.one_of(
        st.tuples(st.sampled_from(("C", "D")), st.booleans()),
        st.tuples(st.just("D0"), st.booleans(), st.sampled_from((7, 9))),
    ),
    # a kind that no conflict row names
    "unlisted_kind": st.tuples(st.booleans()),
}
_FACTS = st.sampled_from(sorted(_DETAILS)).flatmap(
    lambda kind: st.builds(
        lambda detail, ref: Fact((3, 3, 3), kind, detail, Provenance("cited", ref)),
        _DETAILS[kind], st.sampled_from("ab"),
    )
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FACTS, max_size=14))
def test_conflict_check_matches_the_all_facts_scan(facts):
    store, kept = FactStore(), []
    for fact in facts:
        if fact in kept:  # a fact already on file is not checked again
            assert store.add(fact) == fact.fact_id
            continue
        clashes = scan_conflicts(kept, fact)
        if not clashes:
            store.add(fact)
            kept.append(fact)
            continue
        with pytest.raises(FactConflictError) as err:
            store.add(fact)
        # the error names the new fact, one fact it contradicts and the reason
        message = str(err.value)
        assert fact.text() in message
        assert any(other.text() in message and message.endswith(why)
                   for other, why in clashes)
    assert list(store) == kept
    statements = {(f.subject, f.kind, f.detail) for f in kept}
    assert all(store.has_statement(f.subject, f.kind, f.detail)
               == ((f.subject, f.kind, f.detail) in statements) for f in facts)
    # readers of one kind still take the first match in the order added
    for name in ("D", "eta"):
        first = next((f.detail[1] for f in kept
                      if f.kind == KIND_INVARIANT and f.detail[0] == name), None)
        assert store.invariant_value((3, 3, 3), name) == first


# builtin facts plus these presentations make R2, R5, R6 and R7 all fire
_PINNED_INFERENCE_SUBJECTS = (
    (15, 15, 15), (9, 9, 9), (6, 6, 6), (12, 12, 12), (16, 16, 16),
    (10, 10), (3, 9), (2, 8), (4, 4, 4, 4),
)


def test_inferred_fact_ids_are_pinned():
    store = fresh_store()
    for subject in _PINNED_INFERENCE_SUBJECTS:
        store.add_all(instantiate_for(subject))
    derived = infer(store)
    fired = {f.provenance.reference for f in derived}
    assert {"R2", "R5", "R6", "R7"} <= fired
    assert (len(store), len(derived)) == (142, 33)
    digest = hashlib.sha256("\n".join(sorted(store.facts)).encode()).hexdigest()[:16]
    assert digest == "de6e440aefd74b94"


def _sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _catalog_subjects() -> list:
    """583 presentations: cubes C_n^r (n <= 64, r <= 5) and C_m + C_n with m | n, n < 97."""
    subjects = {(n,) * r for n in range(2, 65) for r in range(1, 6)}
    subjects |= {(m, n) for n in range(3, 97) for m in range(2, n) if n % m == 0}
    return sorted(subjects)


@pytest.mark.parametrize("claim", catalog._CLAIMS, ids=lambda claim: claim[0].reference)
def test_every_claim_fires_on_a_catalog_subject(claim):
    provenance, kind, when, _ = claim
    fired = [s for s in _catalog_subjects() if when(catalog._shape(s))]
    assert fired
    facts = [f for s in fired for f in instantiate_for(s) if f.provenance == provenance]
    assert facts and {f.kind for f in facts} == {kind}
    # one row per reference
    assert [c[0].reference for c in catalog._CLAIMS].count(provenance.reference) == 1


@pytest.fixture(scope="module")
def full_store():
    """The builtin facts and those of the 583 presentations, inferred: the
    store of the benchmark's catalog op.  Returns (store, derived facts)."""
    store = _full_catalog_store()
    return store, infer(store)


def test_full_store_bytes_and_derived_ids_are_pinned(full_store, tmp_path):
    store, derived = full_store
    assert (len(store), len(derived), derived.rounds) == (5018, 2980, 5)
    assert _sha16("\n".join(f.fact_id for f in derived).encode()) == "0e7be6e23e090788"
    path, again = tmp_path / "facts.jsonl", tmp_path / "again.jsonl"
    store.save(path)
    assert _sha16(path.read_bytes()) == "01df6d11d9c62fc5"
    FactStore.load(path).save(again)
    assert again.read_bytes() == path.read_bytes()


def test_infer_reaches_its_fixpoint_on_the_full_store(full_store):
    # the fourth round adds the last facts, two R1 members; the fifth adds none
    store, derived = full_store
    assert derived.rounds == 5
    # 485 of the 583 presentations have facts on file; each later round reads
    # the subjects the last one touched and the cubes their moduli divide
    assert derived.scanned == [485, 351, 29, 15, 3]
    # every derived fact is about a subject that had a fact before infer ran
    assert all(any(g.provenance.source != "rule" for g in store.for_subject(f.subject))
               for f in derived)
    assert sum(derived.by_rule.values()) == len(derived) == 2980
    assert {rule for rule, n in derived.by_rule.items() if n} == {
        "R1", "R2", "R3", "R4", "R5", "R6", "R7", "range-close"}
    assert [(f.subject, f.detail, f.provenance.reference) for f in derived[-2:]] == [
        ((27, 27, 27), (208,), "R1"), ((45, 45, 45), (352,), "R1")]
    again = infer(store)
    assert (len(again), again.rounds) == (0, 1)
    store = fresh_store()
    derived = infer(store)
    assert (len(derived), derived.rounds) == (12, 2)


def test_infer_lists_the_products_once_per_round(monkeypatch):
    # the five product rules read one list of products per round, not one scan
    # of the cubes on file each
    calls = []

    def counted(store, scope=None):
        calls.append(len(scope))
        return _uniform_products(store, scope)

    monkeypatch.setattr(catalog, "_uniform_products", counted)
    derived = infer(_full_catalog_store())
    assert derived.rounds == 5
    assert calls == derived.scanned == [485, 351, 29, 15, 3]


def test_instantiate_for_emission_order_is_pinned():
    # FactStore.of_kind and the rules read the first fact of a kind, so the
    # order instantiate_for emits facts in picks premise ids; save sorts by
    # id, so the store pins above do not see it
    subjects = {(n,) * r for n in range(2, 130) for r in range(1, 7)}
    subjects |= {(m, n) for n in range(2, 200) for m in range(2, n + 1) if n % m == 0}
    subjects |= {(2, 4, 8), (3, 9, 9), (4, 8, 8), (2, 2, 4), (5, 25), (3, 5), (2, 3), (6, 4)}
    ids = [f.fact_id for s in sorted(subjects) for f in instantiate_for(s)]
    assert (len(subjects), len(ids)) == (1534, 8306)
    assert _sha16("\n".join(ids).encode()) == "dcb86db5f0cbeeab"


def test_builtin_store_bytes_are_pinned(tmp_path):
    store = fresh_store()
    infer(store)
    path = tmp_path / "facts.jsonl"
    store.save(path)
    assert len(store) == 96
    assert _sha16(path.read_bytes()) == "3101479ac65569dd"


# strings with what JSON escapes: quotes, backslashes, control characters and
# non-ASCII (one astral, written as a surrogate pair)
_json_strings = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters(),
), max_size=12)
_json_details = st.lists(st.recursive(
    st.one_of(_json_strings, st.booleans(), st.integers(-(10**30), 10**30)),
    lambda inner: st.lists(inner, max_size=4), max_leaves=10,
), max_size=4)
_fact_payloads = st.fixed_dictionaries({
    "subject": st.lists(st.integers(2, 10**20), max_size=4),
    "kind": _json_strings,
    "detail": _json_details,
    "provenance": st.fixed_dictionaries({
        "source": _json_strings, "reference": _json_strings,
        "premises": st.lists(_json_strings, max_size=3),
    }),
})


@settings(max_examples=200, deadline=None)
@given(payload=_fact_payloads)
def test_canonical_encoder_matches_json_dumps(tmp_path_factory, payload):
    text = json.dumps(payload, sort_keys=True)
    assert catalog._canonical(payload) == text
    fact = Fact.from_payload(payload)
    assert fact.text() == text
    assert fact.fact_id == _sha16(text.encode())
    # the line save writes for a store of this one fact
    store, path = FactStore(), tmp_path_factory.getbasetemp() / "one-fact.jsonl"
    store.add(fact)
    store.save(path)
    assert path.read_text(encoding="utf-8") == _fact_line(payload) + "\n"


def test_fact_ids_and_bytes_are_the_same_without_the_c_encoder(tmp_path, monkeypatch):
    store = fresh_store()
    infer(store)
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    fallback = catalog._make_canonical()
    assert fallback.__func__ is json.JSONEncoder.encode
    monkeypatch.setattr(catalog, "_canonical", fallback)
    monkeypatch.setattr(catalog, "_string", json.encoder.py_encode_basestring_ascii)
    again = fresh_store()
    infer(again)
    assert list(again.facts) == list(store.facts)
    path = tmp_path / "facts.jsonl"
    again.save(path)
    assert _sha16(path.read_bytes()) == "3101479ac65569dd"


def test_load_interns_the_strings_facts_share(tmp_path):
    store = fresh_store()
    infer(store)
    path = tmp_path / "facts.jsonl"
    store.save(path)
    loaded = {(f.subject, f.provenance.reference): f
              for f in FactStore.load(path) if f.provenance.source == "rule"}
    # two R3 windows share their kind, source and reference
    a, b = loaded[(3, 3, 3), "R3"], loaded[(5, 5, 5), "R3"]
    assert a.kind is b.kind
    assert a.provenance.source is b.provenance.source
    assert a.provenance.reference is b.provenance.reference
    # R1's member of C8^3 and its R3 window share the premise eta(C8^3) = 50
    r1, r3 = loaded[(8, 8, 8), "R1"].provenance, loaded[(8, 8, 8), "R3"].provenance
    assert r1.premises[0] is r3.premises[0]


def test_uniform_products_match_the_all_pairs_oracle(full_store):
    store, _ = full_store
    pairs = list(_uniform_products(store))
    assert len(pairs) > 100
    assert pairs == list(all_pairs_uniform_products(store))


def test_consistency_examples():
    store = FactStore()
    store.add(Fact((3, 3), KIND_INVARIANT, ("eta", 7), Provenance("cited", "t")))
    store.add(Fact((3, 3), KIND_INVARIANT, ("D", 5), Provenance("cited", "t")))
    store.add(Fact((3, 3), KIND_MEMBER, (6,), Provenance("cited", "t")))
    assert consistency_check(store).ok

    bad = FactStore()
    bad.add(Fact((3, 3, 3), KIND_INVARIANT, ("eta", 11), Provenance("cited", "t")))
    bad.add(Fact((3, 3, 3), KIND_EQUALS, (6, 7, 8, 9, 10), Provenance("cited", "t")))
    report = consistency_check(bad)
    assert any("consecutive" in v for v in report.violations)

    binary = FactStore()
    r = 4
    binary.add(Fact((2,) * r, KIND_INVARIANT, ("eta", 2**r), Provenance("cited", "t")))
    binary.add(
        Fact((2,) * r, KIND_EQUALS, (2**r - 3, 2**r - 2), Provenance("cited", "t"))
    )
    assert consistency_check(binary).ok


def test_search_facts_cross_validate_cited():
    store = fresh_store()
    group = make_group([3, 3])
    for kind in ("D", "eta"):
        _, cert = invariant_value(group, kind, SearchConfig())
        fact = fact_from_certificate(cert)
        store.add(fact)  # would raise on any disagreement with cited values
    assert store.invariant_value((3, 3), "eta") == 7


def test_budget_certificate_becomes_lower_bound():
    group = make_group([3, 3, 3])
    _, cert = invariant_value(group, "eta", SearchConfig(node_budget=40))
    fact = fact_from_certificate(cert)
    assert fact.kind == KIND_LOWER


def test_store_persistence_round_trip(tmp_path):
    store = fresh_store()
    infer(store)
    path = tmp_path / "facts.jsonl"
    store.save(path)
    loaded = FactStore.load(path)
    assert set(loaded.facts) == set(store.facts)
    # ids are content hashes, so equality of id sets implies equality of facts
    for fid, fact in loaded.facts.items():
        assert fact.fact_id == fid


def _edited_fact_lines(tmp_path, edit):
    """facts.jsonl of an inferred store with one rule-derived C0 determination
    edited; returns the path and the 1-based number of the edited line."""
    store = fresh_store()
    infer(store)
    path = tmp_path / "facts.jsonl"
    store.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    number, data = next(
        (i, d) for i, d in enumerate(map(json.loads, lines), 1)
        if d["kind"] == KIND_EQUALS and d["provenance"]["source"] == "rule"
    )
    edit(data)
    lines[number - 1] = json.dumps(data, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, number


def _upgrade_to_cited(data):
    data["provenance"].update(source="cited", premises=[])


@pytest.mark.parametrize(
    "edit", [_upgrade_to_cited, lambda data: data.pop("id")], ids=["upgraded", "no-id"]
)
def test_load_rejects_a_line_whose_id_is_not_its_fact(tmp_path, edit):
    # a derived claim edited to "cited" would otherwise load under a new id
    path, number = _edited_fact_lines(tmp_path, edit)
    with pytest.raises(ValueError, match=f"line {number}:"):
        FactStore.load(path)


def _fact_line(payload) -> str:
    """A facts.jsonl line holding payload under its correctly computed id."""
    fid = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
    return json.dumps({"id": fid, **payload}, sort_keys=True)


def _cited_payload(**changes) -> dict:
    payload = {
        "subject": [3, 3], "kind": KIND_INVARIANT, "detail": ["D", 5],
        "provenance": {"source": "cited", "reference": "Olson", "premises": []},
    }
    payload.update(changes)
    return payload


def _nested_detail_line(depth: int) -> str:
    """A fact line whose detail holds an array nested depth deep."""
    payload = json.dumps(_cited_payload(detail="NEST"), sort_keys=True)
    return payload.replace('"NEST"', "[" * depth + "]" * depth)


@pytest.mark.parametrize("line", [
    "[1]", '{"id": "x"}', "not json",
    pytest.param(_nested_detail_line(5000), id="nested-5000"),
    pytest.param(_nested_detail_line(700), id="nested-700"),
])
def test_load_rejects_a_malformed_line(tmp_path, line):
    # nested 5,000 deep, json.loads gives up; 700 deep, it decodes, and the
    # detail is too deep to turn into tuples: each is a malformed line, not a
    # RecursionError
    path = tmp_path / "facts.jsonl"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: malformed fact"):
        FactStore.load(path)


def test_load_accepts_a_line_written_by_hand(tmp_path):
    path = tmp_path / "facts.jsonl"
    path.write_text(_fact_line(_cited_payload(detail=["D", [5, [True, "x"]]])) + "\n")
    [fact] = FactStore.load(path)
    assert fact.detail == ("D", (5, (True, "x")))


def test_infer_never_reads_a_subject_with_modulus_one(tmp_path):
    # eta(C1^3) = 1 and Property C would reach a rule dividing by n-1 = 0: a
    # saved store holding them is refused by load, before infer can read it
    cited = Provenance("cited", "x")
    facts = [Fact((1, 1, 1), KIND_INVARIANT, ("eta", 1), cited),
             Fact((1, 1, 1), KIND_PROPERTY, ("C", True), cited)]
    path = tmp_path / "facts.jsonl"
    path.write_text("".join(_fact_line(json.loads(f.text())) + "\n" for f in facts))
    with pytest.raises(ValueError, match="line 1: .*modulus below 2"):
        infer(FactStore.load(path))


@pytest.mark.parametrize("changes", [
    {"detail": ["D", {"value": 5}]},
    {"detail": ["D", [5, {"value": 5}]]},
    {"detail": ["D", 5.0]},
    {"detail": "D5"},
    {"kind": 7},
    {"subject": ["3", 3]},
    {"provenance": {"source": "cited", "reference": ["Olson"], "premises": []}},
    {"provenance": {"source": "rule", "reference": "R1", "premises": "abc"}},
    {"subject": [True, 3]},
    {"subject": [3.0, 3]},
    {"provenance": {"source": "rule", "reference": "R1", "premises": [5]}},
    {"subject": {"3": 3}},
], ids=["object", "nested-object", "float", "str-detail", "kind", "subject", "reference",
        "premises", "true-modulus", "float-modulus", "int-premise", "object-subject"])
def test_load_rejects_a_field_of_the_wrong_type(tmp_path, changes):
    # the stored id is right, so only the type check can stop the line
    path = tmp_path / "facts.jsonl"
    path.write_text(_fact_line(_cited_payload(**changes)) + "\n")
    with pytest.raises(ValueError, match="line 1: malformed fact"):
        FactStore.load(path)


class _DiskFull:
    """Stands in for an open file: keeps half of what it is given, then raises."""

    def __init__(self, fh) -> None:
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()

    def write(self, text: str) -> None:
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_replace(src, dst):
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fail", ["write", "replace"])
def test_save_that_fails_partway_keeps_the_old_file(tmp_path, monkeypatch, fail):
    path = tmp_path / "facts.jsonl"
    fresh_store().save(path)
    before = path.read_bytes()
    store = fresh_store()
    infer(store)
    if fail == "write":
        real_fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda *args, **kw: _DiskFull(real_fdopen(*args, **kw)))
    else:
        monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError):
        store.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["facts.jsonl"]


def test_default_subjects_consistent():
    store = fresh_store()
    infer(store)
    report = consistency_check(store)
    assert report.ok, report.violations


def test_d0_premise_for_ternary_cube_can_come_from_search():
    from zerosum.search import check_property_D0

    cert = check_property_D0(make_group([3, 3, 3]), 9, SearchConfig())
    fact = fact_from_certificate(cert)
    assert fact.kind == KIND_PROPERTY and fact.detail == ("D0", True, 9)
    store = fresh_store()
    store.add(fact)
    assert property_holds(store, (3, 3, 3), "D0", c=9) is True
