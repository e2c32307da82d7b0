import pytest
from hypothesis import given, settings, strategies as st

from conftest import pairwise_sum_index, support
from zerosum.group import make_group
from zerosum.sequence import Sequence, read_sequence, write_sequence
from zerosum.constructions import ternary_cap_rank3, ternary_cap_rank4, build_span_sequence


def seq_strategy(moduli=(3, 3), max_len=8):
    group = make_group(list(moduli))
    return st.lists(
        st.integers(min_value=0, max_value=group.order - 1), max_size=max_len
    ).map(lambda idxs: Sequence.from_items(group, ((i, 1) for i in idxs)))


def test_from_terms_examples():
    g = make_group([3, 3])
    s = Sequence.from_terms(g, [g.element([1, 0]), g.element([2, 0])])
    assert s.length == 2 and s.sum == g.element_by_index(0)
    cap = ternary_cap_rank3()
    assert cap.length == 8
    assert cap.sum.coords == (0, 0, 0)  # recomputed from the stored vectors
    assert Sequence.from_terms(g, []).length == 0
    assert Sequence.from_terms(g, []).sum == g.element_by_index(0)


def test_remove_examples():
    g = make_group([3, 3])
    e1 = g.basis(0)
    s = Sequence.from_terms(g, [e1, e1, e1])
    t = Sequence.from_terms(g, [e1])
    left = s.remove(t)
    assert left.length == 2 and left.sum == 2 * e1
    assert s.remove(s).length == 0
    with pytest.raises(ValueError):
        t.remove(s)


def test_remove_reinsert_matches_span_variant():
    span = build_span_sequence(3, 3)
    g = span.group
    e1 = g.basis(0)
    modified = span.remove(Sequence.from_items(g, [(e1.index, 2)])).concat(
        Sequence.from_terms(g, [2 * e1])
    )
    assert modified.length == span.length - 2 + 1 == 13


def test_concat_power_translate_examples():
    cap = ternary_cap_rank3()
    doubled = cap.power(2)
    assert doubled.length == 16
    g = cap.group
    assert cap.translate(g.element_by_index(0)) == cap
    assert cap.concat(Sequence.empty(g)) == cap


def test_squarefree_and_support():
    assert ternary_cap_rank4().is_squarefree()
    g = make_group([3, 3])
    e1, e2 = g.basis(0), g.basis(1)
    s = Sequence.from_terms(g, [e1, e1, e2])
    assert not s.is_squarefree()
    assert set(support(s)) == {e1, e2}


@settings(max_examples=200)
@given(
    moduli=st.sampled_from([(2,), (7,), (3, 3), (2, 4), (3, 6), (4, 4, 4), (2, 2, 2, 2)]),
    data=st.data(),
)
def test_sum_index_matches_pairwise_formula(moduli, data):
    g = make_group(moduli)
    mult = data.draw(st.dictionaries(st.integers(0, g.order - 1), st.integers(1, 40), max_size=8))
    items = tuple(sorted(mult.items()))
    assert Sequence(g, items)._sum_index == pairwise_sum_index(g, items)


@settings(max_examples=60)
@given(seq_strategy(), seq_strategy())
def test_sum_algebra(a, b):
    assert a.concat(b).sum == a.sum + b.sum
    assert a.power(3).sum == 3 * a.sum
    g = a.group.basis(0)
    assert a.translate(g).length == a.length
    assert a.translate(g).sum == a.sum + a.length * g


@settings(max_examples=60)
@given(seq_strategy(), seq_strategy())
def test_remove_concat_roundtrip(a, b):
    assert a.concat(b).remove(b) == a


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=8), max_size=8), st.randoms())
def test_canonical_key_is_order_free(idxs, rng):
    g = make_group([3, 3])
    shuffled = list(idxs)
    rng.shuffle(shuffled)
    a = Sequence.from_items(g, ((i, 1) for i in idxs))
    b = Sequence.from_items(g, ((i, 1) for i in shuffled))
    assert a.items == b.items and a == b and hash(a) == hash(b)


def test_text_format_round_trip_examples():
    cap = ternary_cap_rank3()
    text = write_sequence(cap)
    assert text.splitlines()[0] == "group: C3^3"
    assert read_sequence(text) == cap
    assert write_sequence(read_sequence(text)) == text


@settings(max_examples=60)
@given(seq_strategy(moduli=(2, 4), max_len=10))
def test_text_format_round_trip_random(seq):
    text = write_sequence(seq)
    again = read_sequence(text)
    assert again == seq
    assert write_sequence(again) == text


def test_text_format_rejects_missing_header():
    with pytest.raises(ValueError):
        read_sequence("(1,0) x 2\n")
