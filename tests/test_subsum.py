import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    bounded_sums,
    has_zero_sum_with_length_in,
    loop_reach_table,
    naive_bounded_sums,
    naive_has_zero_sum_in,
    naive_is_short_free,
    naive_is_zero_sum_free,
    naive_profile,
    terms,
    tuple_add_term,
)
from zerosum.constructions import (
    build_family,
    build_span_sequence,
    ternary_cap_rank3,
    ternary_cap_rank4,
)
from zerosum.group import make_group, shift_steps
from zerosum.sequence import Sequence, write_sequence
from zerosum.subsum import (
    ReachTable,
    add_term,
    find_nonempty_zero_sum,
    find_short_zero_sum,
    find_zero_sum_exact_length,
    repeated_steps,
    witnesses,
)


def _random_sequence(group, rng, max_len=12, min_len=1):
    n = rng.randrange(min_len, max_len + 1)
    return Sequence.from_items(
        group, ((rng.randrange(group.order), 1) for _ in range(n))
    )


def test_bounded_sums_examples():
    doubled_cap = ternary_cap_rank3().power(2)
    g = doubled_cap.group
    sums = bounded_sums(doubled_cap, 2)
    assert sums == {g.element_by_index(i) for i in range(1, 27)}
    assert len(sums) == 26

    g2 = make_group([3, 3])
    e1, e2 = g2.basis(0), g2.basis(1)
    assert bounded_sums(Sequence.from_terms(g2, [e1]), 1) == {e1}
    assert bounded_sums(Sequence.from_terms(g2, [e1, e2]), 2) == {e1, e2, e1 + e2}


def test_find_short_zero_sum_examples():
    span = build_span_sequence(3, 3)
    assert span.length == 14
    assert find_short_zero_sum(span) is None

    g = make_group([3, 3])
    e1 = g.basis(0)
    pair = Sequence.from_terms(g, [e1, -e1])
    w = find_short_zero_sum(pair)
    assert w is not None and w.is_zero_sum() and 1 <= w.length <= g.exponent

    s = Sequence.from_items(g, [(g.element([1, 0]).index, 2), (g.element([2, 0]).index, 2), (g.element([0, 1]).index, 1)])
    assert not naive_is_short_free(s)  # oracle first: a witness must exist
    w = find_short_zero_sum(s)
    assert w is not None and w.divides(s) and w.is_zero_sum() and w.length <= 3


def test_find_zero_sum_exact_length_examples():
    cap4 = ternary_cap_rank4()
    assert find_zero_sum_exact_length(cap4, 3) is None

    g = make_group([3, 3])
    zeros = Sequence.from_items(g, [(0, 3)])
    w = find_zero_sum_exact_length(zeros, 3)
    assert w is not None and w.length == 3

    # every zero-sum sequence of length 3n-2 = 7 over C3^2 has a zero-sum of
    # length exactly 3 or exactly 6
    rng = random.Random(2024)
    for _ in range(50):
        prefix = [rng.randrange(9) for _ in range(6)]
        g9 = make_group([3, 3])
        balance = g9.element_by_index(0)
        for i in prefix:
            balance = balance - g9.element_by_index(i)
        seq = Sequence.from_items(g9, [(i, 1) for i in prefix] + [(balance.index, 1)])
        assert seq.is_zero_sum() and seq.length == 7
        assert (
            find_zero_sum_exact_length(seq, 3) is not None
            or find_zero_sum_exact_length(seq, 6) is not None
        )


def test_find_nonempty_zero_sum_examples():
    g = make_group([3, 3, 3])
    rng = random.Random(99)
    for _ in range(200):
        seq = _random_sequence(g, rng, max_len=7, min_len=7)
        assert find_nonempty_zero_sum(seq) is not None  # length D(C3^3) forces one

    g2 = make_group([3, 3])
    e1 = g2.basis(0)
    assert find_nonempty_zero_sum(Sequence.from_items(g2, [(e1.index, 2)])) is None

    # over C2^2 the only zero-sum of (e1, e2, e1+e2) is all three terms,
    # longer than exp(G) = 2: the table reaches past the short finder's cap
    c22 = make_group([2, 2])
    f1, f2 = c22.basis(0), c22.basis(1)
    triangle = Sequence.from_terms(c22, [f1, f2, f1 + f2])
    assert find_short_zero_sum(triangle) is None
    w = find_nonempty_zero_sum(triangle)
    assert w is not None and w.length == 3 and w == triangle

    for moduli in ([3, 3], [2, 4]):
        gg = make_group(moduli)
        extremal = Sequence.from_items(
            gg,
            [
                (gg.basis(0).index, moduli[0] - 1),
                (gg.basis(1).index, moduli[1] - 1),
            ],
        )
        assert naive_is_zero_sum_free(extremal)
        assert find_nonempty_zero_sum(extremal) is None


def test_has_zero_sum_with_length_in_examples():
    g = make_group([3, 3])
    e1 = g.basis(0)
    s = Sequence.from_items(g, [(e1.index, 3)])
    assert has_zero_sum_with_length_in(s, 3, 3)
    assert has_zero_sum_with_length_in(s, 1, g.exponent) == (find_short_zero_sum(s) is not None)

    fam = build_family("span-carve-block", 3, 3)
    for member in fam.members():
        assert member.is_zero_sum()
        assert not has_zero_sum_with_length_in(member, 1, 3)


def test_witnesses_are_revalidated_subsequences():
    g = make_group([4, 4])
    rng = random.Random(5)
    for _ in range(100):
        seq = _random_sequence(g, rng, max_len=9)
        w = find_short_zero_sum(seq)
        if w is not None:
            assert w.divides(seq) and w.is_zero_sum() and w.length <= g.exponent
        w = find_nonempty_zero_sum(seq)
        if w is not None:
            assert w.divides(seq) and w.is_zero_sum() and w.length >= 1


def test_witness_reconstruction_is_deterministic():
    g = make_group([3, 3])
    rng = random.Random(11)
    for _ in range(30):
        seq = _random_sequence(g, rng, max_len=9)
        first = find_short_zero_sum(seq)
        again = find_short_zero_sum(seq)
        assert first == again


def test_reach_table_against_brute_force():
    rng = random.Random(31337)
    for moduli in ([3, 3], [3, 3, 3], [2, 4], [2, 6], [3, 6], [4, 4], [2, 2, 2, 2], [7]):
        g = make_group(moduli)
        for _ in range(40):
            seq = _random_sequence(g, rng, max_len=10)
            table = ReachTable(seq, seq.length)
            profile = naive_profile(seq)
            for c in range(1, seq.length + 1):
                reached = {x for x in range(g.order) if table.reach[c] >> x & 1}
                assert reached == profile.get(c, set())


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([(3, 3), (2, 4), (2, 6), (3, 6), (4, 4), (2, 2, 2, 2), (7,)]),
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=9),
    st.integers(min_value=1, max_value=9),
)
def test_dp_matches_oracle_property(moduli, idxs, r):
    g = make_group(list(moduli))
    seq = Sequence.from_items(g, ((i % g.order, 1) for i in idxs))
    dp = {e.index for e in bounded_sums(seq, r)}
    assert dp == naive_bounded_sums(seq, r)
    assert (find_short_zero_sum(seq) is None) == naive_is_short_free(seq)
    assert (find_nonempty_zero_sum(seq) is None) == naive_is_zero_sum_free(seq)
    profile = naive_profile(seq)
    w = find_nonempty_zero_sum(seq)
    if w is not None:
        # a shortest one, like the other two finders'
        assert w.length == min(c for c, sums in profile.items() if 0 in sums)
    n = min(r, seq.length)
    assert (find_zero_sum_exact_length(seq, n) is not None) == (0 in profile.get(n, set()))
    assert has_zero_sum_with_length_in(seq, 1, n) == naive_has_zero_sum_in(seq, 1, n)


# the benchmark's search groups and the paper's rank-2 and elementary
# examples: exponents 2 to 6, masks of 16 to 128 bits per layer
KERNEL_GROUPS = [(3, 3, 3), (3, 6), (2, 6), (4, 4), (5, 5, 5), (2,) * 7]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_add_term_matches_tuple_oracle(data):
    moduli = data.draw(st.sampled_from(KERNEL_GROUPS))
    group = make_group(moduli)
    count = data.draw(st.integers(2, group.exponent + 1))
    # exact-count layers start from the empty sequence; cumulative ones (sums
    # of at most c terms, the short-free search state) have 0 in every layer
    if data.draw(st.booleans()):
        want = (1,) * count
    else:
        want = (1,) + (0,) * (count - 1)
    order = group.order
    layer = (1 << order) - 1
    full = (1 << count * order) - 1
    got = sum(mask << c * order for c, mask in enumerate(want))
    for g in data.draw(st.lists(st.integers(0, order - 1), max_size=12)):
        steps = shift_steps(moduli, g)
        want = tuple_add_term(want, steps)
        got = add_term(got, repeated_steps(steps, full // layer), order, full)
        # nothing of the top layer's translate may survive above it
        assert got >> count * order == 0, g
        assert tuple(got >> c * order & layer for c in range(count)) == want, g


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(KERNEL_GROUPS),
    st.lists(st.integers(0, 127), max_size=14),
    st.integers(1, 16),
)
@example((3, 3, 3), [1, 2, 3, 4, 5], 1)
@example((3, 6), [5, 5, 5, 7, 7, 11, 2], 16)
@example((2, 6), [], 3)
def test_reach_table_matches_loop_oracle(moduli, idxs, cap):
    group = make_group(moduli)
    seq = Sequence.from_items(group, ((i % group.order, 1) for i in idxs))
    table = ReachTable(seq, cap)
    assert (table.reach, table.fresh) == loop_reach_table(seq, table.cap)


def test_witnesses_match_pinned_digest():
    # the short and exact finders' witnesses keep the digest of the set-and-row
    # DP this kernel replaced: every one must stay byte-identical.  The
    # nonempty finder's, shortest zero-sums, have their own digest
    rng = random.Random(20261018)
    short_exact, nonempty = [], []

    def text(w):
        return "none\n" if w is None else write_sequence(w)

    for moduli in ([3, 3], [3, 3, 3], [2, 4], [2, 6], [3, 6], [4, 4], [2, 2, 2, 2], [7], [3, 3, 3, 3]):
        g = make_group(moduli)
        for _ in range(25):
            seq = _random_sequence(g, rng, max_len=14)
            k = rng.randrange(1, seq.length + 1)
            short_exact += [text(find_short_zero_sum(seq)), text(find_zero_sum_exact_length(seq, k))]
            nonempty.append(text(find_nonempty_zero_sum(seq)))

    def digest(texts):
        return hashlib.sha256("".join(texts).encode()).hexdigest()

    assert digest(short_exact) == "25fc6cc792147601f39e4257cb2f2d005a9d47455c12e213b9e528101fb3291c"
    assert digest(nonempty) == "e66364cf7cf74477ae331e24810c9cccf0f6031e9ef5374028ce840874a0578c"


def test_bounded_sums_monotone():
    g = make_group([3, 3])
    rng = random.Random(8)
    for _ in range(50):
        seq = _random_sequence(g, rng, max_len=8)
        prev = set()
        for r in range(1, seq.length + 1):
            cur = bounded_sums(seq, r)
            assert prev <= cur
            prev = cur


def test_translation_preserves_exact_exponent_detection():
    for moduli in ([3, 3], [4, 4]):
        g = make_group(moduli)
        rng = random.Random(moduli[0] * 17)
        exp = g.exponent
        for _ in range(60):
            seq = _random_sequence(g, rng, max_len=8, min_len=exp)
            a = g.element_by_index(rng.randrange(g.order))
            before = find_zero_sum_exact_length(seq, exp) is not None
            after = find_zero_sum_exact_length(seq.translate(a), exp) is not None
            assert before == after


def test_projection_kernel_criterion():
    # a coordinatewise projection sends S to a zero-sum sequence exactly when
    # sigma(S) lies in the kernel
    g = make_group([6, 6])
    quotient = make_group([3, 3])

    def project(e):
        return quotient.element(c % 3 for c in e.coords)

    rng = random.Random(4)
    for _ in range(50):
        seq = _random_sequence(g, rng, max_len=6)
        image = Sequence.from_terms(quotient, [project(t) for t in terms(seq)])
        assert image.is_zero_sum() == (project(seq.sum) == quotient.element_by_index(0))


def test_cap_errors():
    g = make_group([3, 3])
    with pytest.raises(ValueError):
        bounded_sums(Sequence.from_items(g, [(1, 1)]), 0)
    with pytest.raises(ValueError):
        find_zero_sum_exact_length(Sequence.from_items(g, [(1, 1)]), 5)


# Searched witnesses that 17 to 20 are not in C0(C4^3), as (coords, copies):
# five of the nonzero 0/1 vectors three times each, and a few other terms
# (19 and 20 from one compute_c0_at over [19, 20] at full_small: 21,089 nodes)
_C4_CUBE_C0_MISSES = {
    17: [((0, 0, 1), 3), ((0, 1, 0), 3), ((0, 1, 1), 3), ((1, 0, 0), 3), ((1, 0, 1), 3),
         ((1, 1, 0), 1), ((1, 1, 3), 1)],
    18: [((0, 0, 1), 3), ((0, 1, 0), 3), ((0, 1, 1), 3), ((1, 0, 0), 3), ((1, 0, 1), 3),
         ((1, 3, 0), 1), ((2, 2, 2), 1), ((3, 1, 1), 1)],
    19: [((0, 0, 1), 3), ((0, 1, 0), 3), ((0, 1, 1), 3), ((1, 0, 0), 3), ((1, 0, 1), 3),
         ((1, 3, 0), 1), ((3, 1, 1), 3)],
    20: [((0, 0, 1), 3), ((0, 1, 0), 3), ((0, 1, 1), 3), ((1, 0, 0), 3), ((1, 0, 1), 3),
         ((1, 3, 0), 1), ((1, 3, 1), 3), ((2, 2, 0), 1)],
}


def _zero_sum_lengths_by_sets(terms, n: int, cap: int) -> list[int]:
    """The lengths c <= cap at which some c of the terms sum to zero mod n,
    from the set of sums of each length; nothing here comes from zerosum."""
    zero = (0,) * len(terms[0])
    sums = [{zero}] + [set() for _ in range(cap)]
    for term in terms:
        for c in range(cap, 0, -1):
            sums[c] |= {tuple((a + b) % n for a, b in zip(s, term)) for s in sums[c - 1]}
    return [c for c in range(1, cap + 1) if zero in sums[c]]


@pytest.mark.parametrize("t", sorted(_C4_CUBE_C0_MISSES))
def test_pinned_witnesses_refute_c0_membership_of_c4_cubed(t):
    terms = [coords for coords, copies in _C4_CUBE_C0_MISSES[t] for _ in range(copies)]
    assert len(terms) == t
    # by sets: the whole sequence sums to zero, and no 1 to 4 of its terms do
    assert all(sum(column) % 4 == 0 for column in zip(*terms))
    assert _zero_sum_lengths_by_sets(terms, 4, 4) == []
    group = make_group((4, 4, 4))
    seq = Sequence.from_terms(group, [group.element(coords) for coords in terms])
    claim = {"type": "c0_membership", "t": t, "member": False}
    assert witnesses(claim, seq)
    assert not witnesses({**claim, "t": t + 1}, seq)
