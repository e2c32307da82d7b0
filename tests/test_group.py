import pytest
from hypothesis import given, strategies as st

from conftest import element_order, inverse, loop_close_symmetries
from zerosum.group import (
    CLOSURE_CAP,
    SYMMETRY_LEVELS,
    GroupMismatchError,
    close_symmetries,
    format_group_spec,
    make_group,
    parse_group_spec,
    shift_bits,
    shift_steps,
    symmetries,
)
from zerosum.sequence import Sequence


def test_make_group_examples():
    g = make_group([3, 3, 3])
    assert g.order == 27 and g.exponent == 3
    g = make_group([3, 6])
    assert g.order == 18 and g.exponent == 6
    g = make_group([2, 4])
    assert g.order == 8 and g.exponent == 4


def test_make_group_rejects_bad_moduli():
    with pytest.raises(ValueError):
        make_group([1, 3])
    with pytest.raises(ValueError):
        make_group([])


def test_moduli_not_normalized():
    assert make_group([3, 6]).moduli == (3, 6)
    assert make_group([6, 3]).moduli == (6, 3)


def test_element_arithmetic_examples():
    g = make_group([3, 3])
    assert (g.element([1, 2]) + g.element([2, 2])).coords == (0, 1)
    g3 = make_group([3, 3, 3])
    assert (-g3.element_by_index(0)) == g3.element_by_index(0)
    assert (2 * g3.basis(0)).coords == (2, 0, 0)


def test_group_mismatch_rejected():
    a = make_group([3, 3])
    b = make_group([2, 4])
    with pytest.raises(GroupMismatchError):
        a.basis(0) + b.basis(0)
    with pytest.raises(GroupMismatchError):
        Sequence.from_terms(a, [b.basis(0)])


def test_element_order_examples():
    g = make_group([3, 3])
    assert element_order(g.element_by_index(0)) == 1
    assert element_order(g.basis(0)) == 3
    h = make_group([2, 4])
    # lcm of the coordinate orders: (1,2) has order lcm(2,2) = 2, (1,1) order 4
    assert element_order(h.element([1, 2])) == 2
    assert element_order(h.element([1, 1])) == 4


@given(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=4))
def test_index_codec_bijective(moduli):
    g = make_group(moduli)
    for i in range(g.order):
        assert g.index_of(g.coords_of(i)) == i


@given(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3), st.data())
def test_exponent_annihilates(moduli, data):
    g = make_group(moduli)
    i = data.draw(st.integers(min_value=0, max_value=g.order - 1))
    assert g.exponent * g.element_by_index(i) == g.element_by_index(0)


@pytest.mark.parametrize("moduli", [(7,), (2, 6), (3, 6), (4, 4), (3, 3, 3), (2, 2, 2, 2)])
def test_shift_bits_matches_index_add(moduli):
    # every element translated alone, and all of them at once, by every g
    g = make_group(moduli)
    for a in range(g.order):
        steps = shift_steps(moduli, a)
        for x in range(g.order):
            assert shift_bits(1 << x, steps) == 1 << g.index_add(x, a)
        assert shift_bits((1 << g.order) - 1, steps) == (1 << g.order) - 1


def _perm(group, fn):
    """The permutation of element indices that the coordinate map fn induces."""
    return tuple(group.index_of(fn(group.coords_of(x))) for x in range(group.order))


def test_symmetry_generator_counts():
    # a swap and a 3-cycle of the coordinates, then the unit 2, which
    # generates the units mod 3 and mod 5
    for n in (3, 5):
        g = make_group([n, n, n])
        assert symmetries(g, "coord_perms+scalar") == [
            _perm(g, lambda c: (c[1], c[0], c[2])),
            _perm(g, lambda c: (c[2], c[0], c[1])),
            _perm(g, lambda c: [2 * x for x in c]),
        ]


def test_scalar_generators_oracle():
    # independent check: the multiplicative order of 2 mod 5 equals phi(5)
    order = 1
    x = 2
    while x != 1:
        x = (x * 2) % 5
        order += 1
    assert order == 4


def test_actions_are_permutations_and_invertible():
    for moduli in ([3, 3], [2, 4], [2, 2, 2], [3, 3, 3]):
        g = make_group(moduli)
        for perm in symmetries(g, "coord_perms+scalar"):
            assert sorted(perm) == list(range(g.order))
            inv = inverse(perm)
            assert all(inv[perm[i]] == i for i in range(g.order))


def test_full_small_closure_sizes():
    # Aut(C2^2) is the symmetric group on the three involutions
    g = make_group([2, 2])
    perms = close_symmetries(g, symmetries(g, "full_small"))
    assert len(perms) == 6
    # Aut(C3^2) = GL(2,3) has order 48
    g = make_group([3, 3])
    perms = close_symmetries(g, symmetries(g, "full_small"))
    assert len(perms) == 48


@pytest.mark.parametrize(
    "moduli", [(3,), (7,), (2, 2), (3, 3), (3, 6), (4, 4), (2, 2, 2, 2), (3, 3, 3), (2,) * 7]
)
def test_closure_matches_loop_oracle(moduli):
    # the same permutations at every level, full_small on C4^2 and on the
    # mixed moduli of C3+C6 among them; the closure keys a permutation by its
    # basis images, a bare item at rank 1 (C3, C7).  C2^7 stops short of
    # full_small, whose closure GL(7,2) is far past the cap; its coordinate
    # permutations give 5,040.  The identity and the distinct generators come
    # first, in order, and the rest sorted
    g = make_group(moduli)
    for level in SYMMETRY_LEVELS:
        if level == "full_small" and g.order > 64:
            continue
        gens = symmetries(g, level)
        closed = close_symmetries(g, gens)
        assert sorted(closed) == loop_close_symmetries(gens, CLOSURE_CAP), level
        first = list(dict.fromkeys([tuple(range(g.order))] + gens)) if gens else []
        assert closed[:len(first)] == first, level
        assert closed[len(first):] == sorted(closed[len(first):]), level
    if moduli == (2,) * 7:
        assert len(close_symmetries(g, symmetries(g, "coord_perms+scalar"))) == 5040


def test_closure_cap_is_exact():
    g = make_group([3, 3, 3])
    gens = symmetries(g, "coord_perms+scalar")
    size = len(loop_close_symmetries(gens, CLOSURE_CAP))
    assert len(close_symmetries(g, gens, cap=size)) == size
    with pytest.raises(ValueError, match=f"exceeds the cap of {size - 1} permutations"):
        close_symmetries(g, gens, cap=size - 1)
    with pytest.raises(ValueError, match="exceeds the cap of 5 permutations"):
        close_symmetries(g, gens, cap=5)


def test_full_small_cap():
    with pytest.raises(ValueError):
        symmetries(make_group([3] * 6), "full_small")


def test_coord_perm_requires_equal_moduli():
    # no coordinate swap: the one generator is the unit 3 mod 4
    g = make_group([2, 4])
    assert symmetries(g, "coord_perms+scalar") == [_perm(g, lambda c: [3 * x for x in c])]


def test_group_spec_grammar():
    assert parse_group_spec("C3^3").moduli == (3, 3, 3)
    assert parse_group_spec("C5").moduli == (5,)
    assert parse_group_spec("3,6").moduli == (3, 6)
    assert format_group_spec(make_group([3, 3, 3])) == "C3^3"
    assert format_group_spec(make_group([3, 6])) == "3,6"
    for spec in ("C3^3", "2,4", "C2^4"):
        assert format_group_spec(parse_group_spec(spec)) == spec.replace("C2^4", "C2^4")
    with pytest.raises(ValueError):
        parse_group_spec("D4")

