import hashlib
import json

import pytest

from conftest import support
from zerosum.constructions import (
    alpha_r,
    build_family,
    build_span_merged,
    build_span_sequence,
    excluded_window_witnesses,
    known_witnesses,
    length_swatch,
    ternary_cap_rank3,
    ternary_cap_rank4,
    verify_construction,
    verify_family,
)
from zerosum.group import make_group
from zerosum.sequence import Sequence
from zerosum.subsum import find_short_zero_sum, find_zero_sum_exact_length


def test_alpha_examples():
    assert alpha_r(3, 3) == (-4) % 3 == 2
    assert alpha_r(5, 3) == (-4) % 5 == 1
    # zero exactly for n = 2^k with k <= r-1
    assert alpha_r(4, 3) == 0
    assert alpha_r(2, 3) == 0
    assert alpha_r(8, 3) != 0
    assert alpha_r(4, 2) != 0


@pytest.mark.parametrize(
    "n,r",
    [(2, 3), (3, 3), (3, 4), (4, 3), (5, 3)],
)
def test_span_sequence_claims(n, r):
    seq = build_span_sequence(n, r)
    assert seq.length == (2**r - 1) * (n - 1)
    alpha = alpha_r(n, r)
    assert seq.sum == alpha * seq.group.element([1] * r)
    assert find_short_zero_sum(seq) is None


def test_span_sequence_specific_sums():
    assert build_span_sequence(3, 3).sum.coords == (2, 2, 2)
    s34 = build_span_sequence(3, 4)
    assert s34.length == 30 and s34.sum.coords == (1, 1, 1, 1)
    s23 = build_span_sequence(2, 3)
    assert s23.length == 7 and s23.is_zero_sum()


def test_span_recursion_decomposition():
    # span(n, r+1) = span(n, r) * (span(n, r) + e_{r+1}) * e_{r+1}^{n-1}
    for n, r in [(3, 2), (3, 3), (4, 2)]:
        big = build_span_sequence(n, r + 1)
        small = build_span_sequence(n, r)
        g = big.group
        embed = Sequence.from_items(
            g,
            ((g.index_of(small.group.coords_of(i) + (0,)), v) for i, v in small.items),
        )
        er = g.basis(r)
        rebuilt = embed.concat(embed.translate(er)).concat(
            Sequence.from_items(g, [(er.index, n - 1)])
        )
        assert rebuilt == big


def test_span_merged_claims():
    m13 = build_span_merged(3, 3, 3, 2)
    assert m13.length == 13 and find_short_zero_sum(m13) is None
    assert build_span_merged(3, 3, 1, 1) == build_span_sequence(3, 3)
    m53 = build_span_merged(5, 3, 2, 4)
    assert m53.length == (2**3 - 1) * 4 - 4 + 1 == 25
    assert find_short_zero_sum(m53) is None


def test_span_merged_full_grid():
    for n, r in [(3, 3), (5, 3)]:
        for axis in range(1, r + 1):
            for m in range(1, n):
                seq = build_span_merged(n, r, axis, m)
                assert seq.length == (2**r - 1) * (n - 1) - m + 1
                assert find_short_zero_sum(seq) is None


def test_span_merged_rejects_bad_params():
    with pytest.raises(ValueError):
        build_span_merged(3, 3, 4, 1)
    with pytest.raises(ValueError):
        build_span_merged(3, 3, 1, 3)


EXPECTED_WINDOWS = {
    (3, 3): {
        "zero-block": (4, 5),
        "slide": (6, 7),
        "pivot": (8, 8),
        "braid": (9, 9),
        "span-carve-block": (6, 8),
        "span-carve-axes": (9, 10),
        "span-carve-axes-x": (8, 8),
        "span-carve-mixed": (8, 12),
    },
    (4, 3): {
        "zero-block": (5, 7),
        "slide": (8, 10),
        "pivot": (11, 11),
        "braid": (12, 13),
        "span-carve-block": (12, 16),
    },
    (5, 3): {
        "zero-block": (6, 9),
        "slide": (10, 13),
        "pivot": (14, 14),
        "braid": (15, 17),
        "span-carve-block": (15, 21),
        "span-carve-axes": (23, 26),
        "span-carve-axes-x": (22, 22),
        "span-carve-mixed": (25, 27),
    },
}


@pytest.mark.parametrize("nr", sorted(EXPECTED_WINDOWS))
def test_family_windows_verified(nr):
    n, r = nr
    for name, window in EXPECTED_WINDOWS[nr].items():
        fam = build_family(name, n, r)
        assert fam.claimed_lengths == window
        lengths = verify_family(fam)
        assert lengths == set(range(window[0], window[1] + 1))


def test_alpha_zero_families_refused():
    for name in ("span-carve-axes", "span-carve-axes-x", "span-carve-mixed"):
        with pytest.raises(ValueError):
            build_family(name, 4, 3)
    with pytest.raises(ValueError):
        build_family("pivot", 2, 3)
    with pytest.raises(ValueError):
        build_family("lift", 3, 3)
    with pytest.raises(ValueError):
        build_family("no-such-family", 3, 3)


def test_family_union_covers_low_range():
    # the combined windows reach from n+1 all the way to |span| - alpha
    for n, r in [(3, 3), (5, 3)]:
        span_len = (2**r - 1) * (n - 1)
        alpha = alpha_r(n, r)
        covered = set(length_swatch(n, r))
        assert set(range(n + 1, span_len - alpha + 1)) <= covered


def test_lift_members_verified_by_sampling():
    fam = build_family("lift", 3, 4)
    count = 0
    for pos, member in enumerate(fam.members()):
        if pos % 7 == 0:  # deterministic sample
            assert member.is_zero_sum()
            assert find_short_zero_sum(member) is None
            count += 1
    assert count >= 10


def test_cap_tables():
    verify_construction("cap3", [ternary_cap_rank3()], {})
    verify_construction("cap4", [ternary_cap_rank4()], {})
    cap3 = ternary_cap_rank3()
    assert cap3.length == 8 and cap3.is_squarefree()
    assert find_short_zero_sum(cap3) is None
    cap4 = ternary_cap_rank4()
    assert cap4.sum.coords == (2, 2, 2, 2)
    minus_sigma = -cap4.sum
    assert minus_sigma.coords == (1, 1, 1, 1)
    assert minus_sigma not in set(support(cap4))
    assert find_zero_sum_exact_length(cap4, 3) is None


def test_verify_construction_checks_the_family_members_it_is_given():
    # construct <family> --verify checks the members it emits against the
    # window build_family claims, not a rebuilt copy of the family
    members = list(build_family("slide", 3, 3).members())
    assert [s.length for s in members] == [6, 7]
    verify_construction("slide", members, {"n": 3, "r": 3})
    group = members[0].group
    not_zero_sum = members[0].concat(Sequence.from_terms(group, [group.basis(0)]))
    for bad in (members[:1], [members[0], not_zero_sum]):
        with pytest.raises(AssertionError):
            verify_construction("slide", bad, {"n": 3, "r": 3})
    with pytest.raises(ValueError):
        verify_construction("no-such-construction", members, {})


def test_excluded_window_witnesses():
    witnesses = excluded_window_witnesses()
    assert [seq.length for seq in witnesses] == list(range(36, 29, -1))
    for seq in witnesses:
        assert seq.is_zero_sum()
        assert find_short_zero_sum(seq) is None


def test_known_witnesses_are_usable():
    g = make_group([3, 3, 3])
    found = next(iter(known_witnesses(g, 16)))
    assert found.length == 16 and found.is_zero_sum()
    assert find_short_zero_sum(found) is None
    g4 = make_group([3, 3, 3, 3])
    for t in range(30, 37):
        w = next(iter(known_witnesses(g4, t)))
        assert w.length == t and w.is_zero_sum()


def test_build_family_accepts_refuses_and_claims_as_pinned():
    # which (name, n, r) build_family refuses, and the window it claims for
    # each one it accepts: a change to the family table that moves either
    # fails here
    names = (
        "zero-block", "slide", "pivot", "braid", "span-carve-block", "span-carve-axes",
        "span-carve-axes-x", "span-carve-mixed", "lift", "no-such-family",
    )
    table = {}
    for name in names:
        for n in range(2, 9):
            for r in range(1, 6):
                try:
                    table[f"{name} {n} {r}"] = build_family(name, n, r).claimed_lengths
                except ValueError:
                    table[f"{name} {n} {r}"] = "refused"
    assert sum(v != "refused" for v in table.values()) == 153
    assert sum(v is None for v in table.values()) == 7 * 2  # lift, at r = 4 and 5
    blob = json.dumps(sorted(table.items())).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == "2feb2411fbcbee18"
