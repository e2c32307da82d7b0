"""Acceptance suite: one test per criterion, each printing a pass line.

Expensive shared results (the rank-3 ternary searches and the independent
cap-support oracle) are computed once per session.  Every stated wall-clock
budget is asserted.
"""

import itertools
import json
import random
import time

import pytest

from conftest import bounded_sums, has_zero_sum_with_length_in, naive_profile
from zerosum.catalog import (
    Fact,
    FactStore,
    Provenance,
    builtin_facts,
    consistency_check,
    fact_from_certificate,
)
from zerosum.group import make_group
from zerosum.search import (
    STATUS_PROVED,
    STATUS_REFUTED,
    SearchConfig,
    check_power_property,
    check_property_D0,
    compute_c0,
    compute_c0_at,
    enumerate_short_free,
    invariant_value,
    max_extremal_length,
)
from zerosum.sequence import Sequence
from zerosum.subsum import (
    find_short_zero_sum,
    find_zero_sum_exact_length,
    find_nonempty_zero_sum,
)
from zerosum import constructions

CFG = SearchConfig()


def _passline(criterion: str, detail: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}  ({elapsed:.1f}s)")


@pytest.fixture(scope="session")
def c33_group():
    return make_group([3, 3, 3])


@pytest.fixture(scope="session")
def c33_eta(c33_group):
    t0 = time.monotonic()
    value, cert = invariant_value(c33_group, "eta", CFG)
    return value, cert, time.monotonic() - t0


@pytest.fixture(scope="session")
def c33_c0(c33_group):
    t0 = time.monotonic()
    members, certs = compute_c0(c33_group, CFG, d_value=7, eta_value=17)
    return members, certs, time.monotonic() - t0


@pytest.fixture(scope="session")
def cap_support_oracle():
    """Independent route: short-free multisets over C3^3 are exactly supports
    with no zero term, no opposite pair and no vanishing triple, carrying
    multiplicities 1 or 2.  Enumerates every support directly."""
    group = make_group([3, 3, 3])
    order = group.order
    add = [[group.index_add(i, j) for j in range(order)] for i in range(order)]
    neg = [group.index_neg(i) for i in range(order)]
    supports: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], forbidden: frozenset, start: int) -> None:
        supports.append(prefix)
        for g in range(start, order):
            if g in forbidden:
                continue
            extra = {neg[g]} | {neg[add[g][x]] for x in prefix}
            extend(prefix + (g,), forbidden | extra, g + 1)

    extend((), frozenset({0}), 1)
    return group, add, supports


def _oracle_zero_sum_short_free_lengths(group, add, supports) -> set[int]:
    """All lengths of zero-sum short-free multisets, via the support oracle."""
    lengths: set[int] = set()
    for support in supports:
        k = len(support)
        if k == 0:
            continue
        for doubles in range(0, k + 1):
            if k + doubles in lengths:
                continue
            for combo in itertools.combinations(range(k), doubles):
                s = 0
                chosen = set(combo)
                for pos, g in enumerate(support):
                    s = add[s][add[g][g] if pos in chosen else g]
                if s == 0:
                    lengths.add(k + doubles)
                    break
    return lengths


def test_criterion_1_invariants():
    t0 = time.monotonic()
    expected = {
        "C3^2": ([3, 3], 5, 7),
        "C2+C4": ([2, 4], 5, 6),
        "C2^3": ([2, 2, 2], 4, 8),
    }
    for spec, (moduli, d_want, eta_want) in expected.items():
        each0 = time.monotonic()
        group = make_group(moduli)
        d, d_cert = invariant_value(group, "D", CFG)
        eta, e_cert = invariant_value(group, "eta", CFG)
        assert d_cert.status == STATUS_PROVED and e_cert.status == STATUS_PROVED
        assert (d, eta) == (d_want, eta_want)
        assert time.monotonic() - each0 < 60
    _passline("criterion 1 (small groups)", "D/eta match formulas", time.monotonic() - t0)


def test_criterion_1_c33(c33_eta):
    t0 = time.monotonic()
    group = make_group([3, 3, 3])
    d, d_cert = invariant_value(group, "D", CFG)
    assert d_cert.status == STATUS_PROVED and d == 7
    assert time.monotonic() - t0 < 60
    eta, e_cert, elapsed = c33_eta
    assert e_cert.status == STATUS_PROVED and eta == 17
    assert e_cert.config.symmetry_level == "coord_perms+scalar"
    assert elapsed < 600
    _passline("criterion 1 (C3^3)", f"D=7, eta=17 in {elapsed:.1f}s", time.monotonic() - t0)


def test_criterion_2_length14(c33_group):
    t0 = time.monotonic()
    cert = compute_c0_at(c33_group, [14], CFG)[1][14]
    elapsed = time.monotonic() - t0
    assert cert.status == STATUS_PROVED
    assert elapsed < 600
    _passline("criterion 2", "every zero-sum 14-sequence has a short zero-sum", elapsed)


def test_criterion_3_c0_of_c33(c33_c0, cap_support_oracle):
    members, certs, elapsed = c33_c0
    assert elapsed < 1800
    assert {14, 15} <= set(members)
    # the endpoints 13 and 16 are decided with certificates either way
    assert certs[13].status in (STATUS_PROVED, STATUS_REFUTED)
    assert certs[16].status in (STATUS_PROVED, STATUS_REFUTED)
    assert certs[16].status == STATUS_REFUTED  # the doubled 8-cap has sum zero

    # independent oracle: derive the full membership set from cap supports
    group, add, supports = cap_support_oracle
    witness_lengths = _oracle_zero_sum_short_free_lengths(group, add, supports)
    oracle_members = [t for t in range(8, 17) if t not in witness_lengths]
    assert members == oracle_members
    _passline(
        "criterion 3",
        f"C0(C3^3) = {members}, endpoints decided (13 {'in' if 13 in members else 'out'}, 16 out)",
        elapsed,
    )


def test_criterion_4_extremal_structure(cap_support_oracle):
    t0 = time.monotonic()
    group = make_group([3, 3, 3])
    report = enumerate_short_free(group, 16, CFG, checks=("sum_zero", "power_form"))
    elapsed = time.monotonic() - t0
    assert report.status == STATUS_PROVED
    assert report.count > 0
    assert not report.violations["sum_zero"]       # every extremal sequence sums to zero
    assert not report.violations["power_form"]     # and is a doubled 8-element set
    cert = check_power_property(group, "C", CFG, {"eta": 17})
    assert cert.status == STATUS_PROVED and cert.claim["c"] == 8
    # oracle: supports never exceed 8 elements and all 8-supports sum to zero
    g, add, supports = cap_support_oracle
    largest = max(len(s) for s in supports)
    assert largest == 8
    for s in supports:
        if len(s) == 8:
            total = 0
            for x in s:
                total = add[total][x]
            assert total == 0
    assert time.monotonic() - t0 < 1800
    _passline("criterion 4", f"{report.count} extremal representatives, property C holds", elapsed)


@pytest.mark.parametrize("q,budget", [(3, 60), (4, 1200)])
def test_criterion_5_square_window(q, budget):
    t0 = time.monotonic()
    group = make_group([q, q])
    d, d_cert = invariant_value(group, "D", CFG)
    eta, e_cert = invariant_value(group, "eta", CFG)
    assert d_cert.status == STATUS_PROVED and e_cert.status == STATUS_PROVED
    assert d == 3 * q - 2 - q + 1 and eta == 3 * q - 2
    window = list(range(2 * q, 3 * q - 1))
    targets = [t for t in window if d + 1 <= t <= eta - 1]
    members, certs = compute_c0_at(group, targets, CFG)
    assert all(certs[t].status == STATUS_PROVED for t in targets)
    assert all(t >= eta for t in window if t not in targets)
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _passline(f"criterion 5 (q={q})", f"window [{2*q},{3*q-2}] all contained", elapsed)


def test_criterion_6_rank2_determinations():
    t0 = time.monotonic()
    members, certs = compute_c0(make_group([3, 3]), CFG)
    assert members == [6] and certs[6].status == STATUS_PROVED

    members, certs = compute_c0(make_group([4, 4]), CFG)
    assert members == [8, 9]
    assert all(certs[t].status == STATUS_PROVED for t in (8, 9))

    group = make_group([2, 6])
    d, _ = invariant_value(group, "D", CFG)
    eta, _ = invariant_value(group, "eta", CFG)
    assert d + 1 > eta - 1  # empty range
    members, certs = compute_c0(group, CFG, d_value=d, eta_value=eta)
    assert members == [] and certs == {}
    elapsed = time.monotonic() - t0
    assert elapsed < 1800
    _passline("criterion 6", "C3^2 -> {6}, C4^2 -> [8,9], C2+C6 -> empty range", elapsed)


def test_criterion_7_binary_cubes():
    t0 = time.monotonic()
    members, _ = compute_c0(make_group([2, 2, 2]), CFG)
    assert members == [5, 6]
    assert time.monotonic() - t0 < 60
    t1 = time.monotonic()
    members, certs = compute_c0(make_group([2, 2, 2, 2]), CFG)
    assert members == [13, 14]
    assert all(c.status in (STATUS_PROVED, STATUS_REFUTED) for c in certs.values())
    elapsed4 = time.monotonic() - t1
    assert elapsed4 < 3600

    # subset oracle: over a binary cube short-free means distinct nonzero
    for r in (3, 4):
        group = make_group([2] * r)
        nonzero = list(range(1, group.order))
        reachable = set()
        for size in range(1, len(nonzero) + 1):
            for combo in itertools.combinations(nonzero, size):
                total = 0
                for x in combo:
                    total = group.index_add(total, x)
                if total == 0:
                    reachable.add(size)
        d, eta = r + 1, 2**r
        oracle = [t for t in range(d + 1, eta) if t not in reachable]
        got, _ = compute_c0(group, CFG, d_value=d, eta_value=eta)
        assert got == oracle == [2**r - 3, 2**r - 2]
    _passline("criterion 7", "binary cubes r=3,4 match the subset oracle", time.monotonic() - t0)


def test_criterion_8_constructions():
    t0 = time.monotonic()
    for n, r in [(2, 3), (3, 3), (3, 4), (4, 3), (5, 3)]:
        seq = constructions.build_span_sequence(n, r)
        assert seq.length == (2**r - 1) * (n - 1)
        alpha = constructions.alpha_r(n, r)
        assert seq.sum == alpha * seq.group.element([1] * r)
        assert find_short_zero_sum(seq) is None
    for n, r in [(3, 3), (5, 3)]:
        for axis in range(1, r + 1):
            for m in range(1, n):
                seq = constructions.build_span_merged(n, r, axis, m)
                assert find_short_zero_sum(seq) is None
    from test_constructions import EXPECTED_WINDOWS

    for (n, r), windows in EXPECTED_WINDOWS.items():
        for name, window in windows.items():
            fam = constructions.build_family(name, n, r)
            assert constructions.verify_family(fam) == set(
                range(window[0], window[1] + 1)
            )
    cap4 = constructions.ternary_cap_rank4()
    assert find_zero_sum_exact_length(cap4, 3) is None
    members, certs = compute_c0_at(make_group([3, 3, 3, 3]), list(range(30, 37)), CFG)
    assert members == []
    assert all(c.status == STATUS_REFUTED for c in certs.values())
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _passline("criterion 8", "all constructions verified; [30,36] excluded for C3^4", elapsed)


def test_criterion_9_consistency(c33_c0):
    t0 = time.monotonic()
    store = FactStore()
    store.add_all(builtin_facts())
    _, certs33, _ = c33_c0
    batches = [certs33.values()]
    for moduli in ([3, 3], [4, 4], [2, 2, 2], [2, 2, 2, 2]):
        _, certs = compute_c0(make_group(moduli), CFG)
        batches.append(certs.values())
    added = 0
    for batch in batches:
        for cert in batch:
            fact = fact_from_certificate(cert)
            if fact is not None:
                store.add(fact)  # any clash with cited facts raises here
                added += 1
    report = consistency_check(store)
    assert report.ok, report.violations
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _passline("criterion 9", f"{added} search facts consistent with the window laws", elapsed)


ORACLE_GROUPS = ([3, 3], [3, 3, 3], [2, 4], [4, 4])


def test_criterion_10_oracle_suite():
    t0 = time.monotonic()
    rng = random.Random(20260810)
    per_group = 250
    for moduli in ORACLE_GROUPS:
        group = make_group(moduli)
        exp = group.exponent
        for _ in range(per_group):
            length = rng.randrange(1, 13)
            seq = Sequence.from_items(
                group, ((rng.randrange(group.order), 1) for _ in range(length))
            )
            profile = naive_profile(seq)
            r = rng.randrange(1, length + 1)
            naive_r = set()
            for c in range(1, r + 1):
                naive_r |= profile.get(c, set())
            assert {e.index for e in bounded_sums(seq, r)} == naive_r
            short = find_short_zero_sum(seq)
            naive_short = any(
                0 in profile.get(c, set()) for c in range(1, min(exp, length) + 1)
            )
            assert (short is not None) == naive_short
            exact_n = rng.randrange(1, length + 1)
            w = find_zero_sum_exact_length(seq, exact_n)
            assert (w is not None) == (0 in profile.get(exact_n, set()))
            nonempty = find_nonempty_zero_sum(seq)
            assert (nonempty is not None) == any(
                0 in sums for sums in profile.values()
            )
            a = rng.randrange(1, length + 1)
            b = rng.randrange(a, length + 1)
            assert has_zero_sum_with_length_in(seq, a, b) == any(
                0 in profile.get(c, set()) for c in range(a, b + 1)
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _passline("criterion 10", "1000 random sequences match naive enumeration", elapsed)


def test_criterion_11_determinism(c33_eta, c33_c0):
    t0 = time.monotonic()
    group33 = make_group([3, 3, 3])
    jobs = [
        (make_group([3, 3]), "D"),
        (make_group([3, 3]), "eta"),
        (make_group([2, 4]), "D"),
        (make_group([2, 4]), "eta"),
        (make_group([2, 2, 2]), "D"),
        (make_group([2, 2, 2]), "eta"),
        (group33, "D"),
    ]
    for group, kind in jobs:
        outputs = set()
        for width in (1, 4, 8):
            cfg = SearchConfig(parallel_width=width)
            _, cert = invariant_value(group, kind, cfg)
            outputs.add(cert.to_json())
        assert len(outputs) == 1, f"width-dependent certificate for {kind}({group.spec()})"
    # eta(C3^3), the length-14 run and the full C0 sweep across widths
    baseline_eta = c33_eta[1].to_json()
    baseline_14 = compute_c0_at(group33, [14], SearchConfig(parallel_width=1))[1][14].to_json()
    _, baseline_c0, _ = c33_c0
    baseline_sweep = {t: c.to_json() for t, c in baseline_c0.items()}
    for width in (4, 8):
        cfg = SearchConfig(parallel_width=width)
        _, cert = invariant_value(group33, "eta", cfg)
        assert cert.to_json() == baseline_eta
        assert compute_c0_at(group33, [14], cfg)[1][14].to_json() == baseline_14
        _, certs = compute_c0(group33, cfg, d_value=7, eta_value=17)
        assert {t: c.to_json() for t, c in certs.items()} == baseline_sweep
    _passline("criterion 11", "byte-identical certificates at widths 1, 4, 8",
              time.monotonic() - t0)


def test_criterion_12_stretch(c33_group, c33_eta):
    t0 = time.monotonic()
    d0 = check_property_D0(c33_group, 9, CFG)
    assert d0.status in (STATUS_PROVED, "budget_exhausted")
    assert d0.status == STATUS_PROVED  # closes quickly in practice

    best, cert = max_extremal_length(c33_group, "s", CFG)
    lower = c33_eta[0] + 3 - 1  # s >= eta + exp(G) - 1
    if cert.status == STATUS_PROVED:
        assert best + 1 == 19
    else:
        assert best + 1 <= 19  # an honest lower bound, never an overclaim
    assert lower == 19
    assert cert.status == STATUS_PROVED and best + 1 == lower
    elapsed = time.monotonic() - t0
    assert elapsed < 12 * 3600
    _passline("criterion 12", "D0(C3^3, 9) proved; s(C3^3) = 19 by search and bound", elapsed)
