import hashlib
import json

import pytest

from zerosum.catalog import (
    DEFAULT_SUBJECTS,
    Fact,
    FactConflictError,
    FactStore,
    KIND_EQUALS,
    KIND_EXTREMAL_NONZERO,
    KIND_INVARIANT,
    KIND_LOWER,
    KIND_MEMBER,
    KIND_NOT_MEMBER,
    KIND_PROPERTY,
    KIND_SUBSET,
    KIND_SUBSET_SET,
    KIND_UPPER,
    Provenance,
    builtin_facts,
    consistency_check,
    eval_formula,
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
    assert store.property_holds((3, 3, 3), "C") is True
    assert store.property_holds((5, 5, 5), "D0", c=9) is True


def test_eval_formula_examples():
    assert eval_formula("davenport_p_group", p=3, exponents=(1, 1, 1)) == 7
    assert eval_formula("eta_two_power", t=2, r=3) == 22
    assert eval_formula("excluded_interval_start", n=3, r=4) == 30
    assert eval_formula("davenport_rank2", n1=3, n2=6) == 8
    assert eval_formula("eta_rank2", n1=3, n2=6) == 10
    assert eval_formula("s_lower_from_eta", eta=17, exp=3) == 19


def test_eval_formula_hypotheses():
    with pytest.raises(ValueError):
        eval_formula("davenport_rank2", n1=3, n2=7)
    with pytest.raises(ValueError):
        eval_formula("davenport_p_group", p=6, exponents=(1,))
    with pytest.raises(ValueError):
        eval_formula("excluded_interval_start", n=4, r=3)  # alpha = 0
    with pytest.raises(ValueError):
        eval_formula("egz_threshold", n=64)
    with pytest.raises(ValueError):
        eval_formula("no_such_formula")


def test_rule_r1_on_two_power_cube():
    store = fresh_store()
    infer(store)
    members, _ = store.membership((8, 8, 8))
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
    members, _ = store.membership((3, 6))
    assert sorted(members) == [9]
    r4 = [f for f in store if f.subject == (3, 6) and f.provenance.reference == "R4"]
    assert r4, "R4 should fire on D=8, eta=10, 2exp+1=13"


def test_rule_r3_windows():
    store = fresh_store()
    infer(store)
    subs = [f for f in store if f.subject == (3, 3, 3) and f.kind == KIND_SUBSET]
    assert any(f.detail == (13, 16) for f in subs)


def test_rules_r5_r6_r7_compose():
    store = fresh_store()
    store.add_all(instantiate_for((15, 15, 15)))
    infer(store)
    # ratios are 8 for both C3^3 and C5^3; the odd-cube lower bound meets the
    # product upper bound, pinning eta(C15^3) = 8*15-7 = 113
    assert store.invariant_value((15, 15, 15), "eta") == 113
    assert store.property_holds((15, 15, 15), "C") is True


def test_rule_r8_and_transfer_chain():
    m = 3**66
    k1 = m // 3 * 65
    k2 = m * 65
    store = fresh_store()
    store.add_all(instantiate_for((k1,) * 3))
    store.add_all(instantiate_for((k2,) * 3))
    infer(store, max_rounds=4)
    assert store.invariant_value((k1,) * 3, "s") == 9 * k1 - 8
    assert store.invariant_value((k1,) * 3, "eta") == 8 * k1 - 7
    assert store.invariant_value((k2,) * 3, "eta") == 8 * k2 - 7
    members, _ = store.membership((k2,) * 3)
    assert 8 * k2 - 9 in members  # eta - 2


def test_rule_r8_threshold_is_sharp():
    # one power of 3 less fails the exact rational threshold
    k = 3**64 * 65
    store = fresh_store()
    store.add_all(instantiate_for((k,) * 3))
    infer(store, max_rounds=3)
    assert store.invariant_value((k,) * 3, "s") is None


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
        assert str(a.payload()) in str(err.value) and str(b.payload()) in str(err.value)
    for a, b in ((first, fine), (fine, first)):
        store = FactStore()
        store.add_all([a, b])
        assert len(store) == 2


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


def test_rule_r10_flags_inconsistency():
    store = FactStore()
    store.add(Fact((3, 3, 3), KIND_INVARIANT, ("eta", 17), Provenance("cited", "t")))
    store.add(Fact((3, 3, 3), KIND_MEMBER, (15,), Provenance("cited", "t")))
    store.add(Fact((3, 3, 3), KIND_MEMBER, (14,), Provenance("cited", "t")))
    store.add(Fact((3, 3, 3), KIND_EXTREMAL_NONZERO, (True,), Provenance("cited", "t")))
    with pytest.raises(FactConflictError):
        infer(store, rules=("R10",))
    report = consistency_check(store)
    assert not report.ok


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


@pytest.mark.parametrize("line", ["[1]", '{"id": "x"}', "not json"])
def test_load_rejects_a_malformed_line(tmp_path, line):
    path = tmp_path / "facts.jsonl"
    path.write_text("\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: malformed fact"):
        FactStore.load(path)


def test_default_subjects_consistent():
    store = fresh_store()
    infer(store)
    report = consistency_check(store)
    assert report.ok, report.violations
    assert report.checked_subjects >= len(DEFAULT_SUBJECTS)


def test_d0_premise_for_ternary_cube_can_come_from_search():
    from zerosum.search import check_property_D0

    cert = check_property_D0(make_group([3, 3, 3]), 9, SearchConfig())
    fact = fact_from_certificate(cert)
    assert fact.kind == KIND_PROPERTY and fact.detail == ("D0", True, 9)
    store = fresh_store()
    store.add(fact)
    assert store.property_holds((3, 3, 3), "D0", c=9) is True
