"""Generators for explicit extremal sequences and zero-sum short-free families.

Two tables name every construction.  _FAMILIES maps a family name to its
member generator over C_n^r, the length window its members claim to fill and
the (n, r) it applies to; build_family instantiates one.  CONSTRUCTIONS maps
each name `zerosum construct` accepts (the span, its merge, the two caps, the
cap4 trims and every family) to its parameter keys, its build function and
the claim its outputs witness.  verify_family and verify_construction check
that claim with subsum.witnesses instead of trusting the construction, so a
transcription or generation bug fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .group import AbelianGroup, GroupElement, make_group
from .sequence import Sequence
from .subsum import witnesses


def alpha_r(n: int, r: int) -> int:
    """Residue of -2^(r-1) modulo n, normalized to [0, n-1]."""
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    return (-(2 ** (r - 1))) % n


def _cube_group(n: int, r: int) -> AbelianGroup:
    group = make_group([n] * r)
    group.require_table_capacity()
    return group


def _basis_sum(group: AbelianGroup, positions: Iterable[int]) -> GroupElement:
    coords = [0] * group.rank
    for p in positions:
        coords[p] = 1
    return group.element(coords)


def build_span_sequence(n: int, r: int) -> Sequence:
    """All nonzero 0/1-combinations of the basis, each with multiplicity n-1.

    Length (2^r - 1)(n - 1); sum alpha_r * (e_1 + ... + e_r); short free.
    """
    group = _cube_group(n, r)
    items = []
    for mask in range(1, 2**r):
        coords = [(mask >> (r - 1 - i)) & 1 for i in range(r)]
        items.append((group.index_of(coords), n - 1))
    return Sequence.from_items(group, items)


def build_span_merged(n: int, r: int, axis: int, m: int) -> Sequence:
    """Span sequence with m copies of basis vector `axis` (1-based) merged into m*e_axis."""
    if not 1 <= axis <= r:
        raise ValueError(f"axis must lie in [1, {r}]")
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must lie in [1, {n - 1}]")
    seq = build_span_sequence(n, r)
    e = seq.group.basis(axis - 1)
    return seq.remove(Sequence.from_items(seq.group, [(e.index, m)])).concat(
        Sequence.from_terms(seq.group, [m * e])
    )


# -- the two cap tables -------------------------------------------------------

_CAP_RANK3 = (
    (0, 1, 0),
    (0, 0, 1),
    (0, 1, 1),
    (1, 0, 0),
    (1, 2, 0),
    (1, 1, 1),
    (1, 1, 2),
    (2, 0, 1),
)

_CAP_RANK4 = (
    (0, 0, 0, 0),
    (2, 0, 0, 0),
    (0, 2, 0, 0),
    (2, 2, 0, 0),
    (1, 0, 2, 0),
    (0, 1, 2, 0),
    (1, 2, 2, 0),
    (2, 1, 2, 0),
    (1, 1, 1, 0),
    (1, 1, 0, 1),
    (0, 0, 2, 2),
    (2, 0, 2, 2),
    (0, 2, 2, 2),
    (2, 2, 2, 2),
    (1, 0, 0, 2),
    (0, 1, 0, 2),
    (1, 2, 0, 2),
    (2, 1, 0, 2),
    (1, 1, 1, 2),
    (1, 1, 2, 1),
)


def ternary_cap_rank3() -> Sequence:
    """Square-free short-free 8-term sequence over C3^3 (an 8-cap avoiding 0)."""
    group = make_group([3, 3, 3])
    return Sequence.from_terms(group, [group.element(c) for c in _CAP_RANK3])


def ternary_cap_rank4() -> Sequence:
    """Square-free 20-term sequence over C3^4 with no zero-sum of length 3."""
    group = make_group([3, 3, 3, 3])
    return Sequence.from_terms(group, [group.element(c) for c in _CAP_RANK4])


_RANK4_TRIMS = {
    2: ((2, 2, 2, 2), (2, 2, 2, 2)),
    3: ((2, 2, 0, 0), (0, 0, 2, 2), (2, 2, 2, 2)),
    4: ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 2), (2, 2, 2, 2)),
    5: ((2, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 2), (0, 2, 2, 2)),
    6: ((0, 2, 0, 0), (2, 2, 2, 2), (2, 2, 2, 2), (0, 1, 0, 2), (1, 2, 0, 2), (2, 1, 0, 2)),
    7: (
        (2, 0, 0, 0),
        (0, 2, 0, 0),
        (1, 0, 2, 0),
        (0, 1, 2, 0),
        (1, 2, 2, 0),
        (0, 0, 2, 2),
        (0, 2, 2, 2),
    ),
    8: (
        (2, 0, 0, 0),
        (0, 2, 0, 0),
        (0, 2, 0, 0),
        (1, 0, 2, 0),
        (0, 1, 2, 0),
        (1, 2, 2, 0),
        (0, 0, 2, 2),
        (0, 0, 2, 2),
    ),
}


def excluded_window_witnesses() -> list[Sequence]:
    """Zero-sum short-free sequences over C3^4 of every length in [30, 36].

    Built by doubling the 20-term cap, dropping the two zero terms, and
    trimming one of seven fixed blocks of 2 to 8 terms: lengths 36 down to 30.
    """
    cap = ternary_cap_rank4()
    group = cap.group
    base = cap.power(2).remove(Sequence.from_items(group, [(0, 2)]))
    return [
        base.remove(Sequence.from_terms(group, [group.element(c) for c in _RANK4_TRIMS[i]]))
        for i in sorted(_RANK4_TRIMS)
    ]


# -- families -------------------------------------------------------------------


@dataclass
class FamilySpec:
    """A named family of zero-sum short-free sequences with a claimed length window."""

    name: str
    group: AbelianGroup
    member_factory: Callable[[], Iterator[Sequence]] = field(repr=False)
    claimed_lengths: tuple[int, int] | None = None  # inclusive window, None for lift

    def members(self) -> Iterator[Sequence]:
        return self.member_factory()


def _zero_block_members(n: int, r: int, group: AbelianGroup) -> Iterator[Sequence]:
    e1, e2 = group.basis(0), group.basis(1)
    e12 = e1 + e2
    for c in range(1, n):
        yield Sequence.from_items(
            group, [(e1.index, n - c), (e2.index, n - c), (e12.index, c)]
        )


def _slide_members(n: int, r: int, group: AbelianGroup) -> Iterator[Sequence]:
    e1, e2, e3 = group.basis(0), group.basis(1), group.basis(2)
    for m in range(1, n):
        yield Sequence.from_items(
            group,
            [
                ((e1 + e3).index, n - m),
                (e1.index, m - 1),
                (e2.index, n - 1),
                ((e1 + e2).index, 1),
                (e3.index, m),
            ],
        )


def _pivot_members(n: int, r: int, group: AbelianGroup) -> Iterator[Sequence]:
    e1, e2, e3 = group.basis(0), group.basis(1), group.basis(2)
    yield Sequence.from_items(
        group,
        [
            ((e1 + e2).index, 2),
            ((e1 + e3).index, n - 1),
            (e1.index, n - 1),
            (e2.index, n - 2),
            (e3.index, 1),
        ],
    )


def _braid_members(n: int, r: int, group: AbelianGroup) -> Iterator[Sequence]:
    e1, e2, e3 = group.basis(0), group.basis(1), group.basis(2)
    for m in range(2, n):
        yield Sequence.from_items(
            group,
            [
                ((e1 + e2 + e3).index, 1),
                ((e1 + e2).index, n - 1),
                ((e1 + e3).index, n - m),
                ((e2 + e3).index, 1),
                (e1.index, m),
                (e2.index, n - 1),
                (e3.index, m - 2),
            ],
        )


def _carve_block_members(n: int, r: int, group: AbelianGroup) -> Iterator[Sequence]:
    span = build_span_sequence(n, r)
    alpha = alpha_r(n, r)
    all_ones = _basis_sum(group, range(r))
    e1, e2, e3 = group.basis(0), group.basis(1), group.basis(2)
    e12 = e1 + e2
    for c in range(1, n):
        for m in range(1, n):
            removal = Sequence.from_items(
                group,
                [
                    (all_ones.index, alpha),
                    (e1.index, n - c),
                    (e2.index, n - c),
                    (e12.index, c),
                    (e3.index, m),
                ],
            )
            yield span.remove(removal).concat(Sequence.from_terms(group, [m * e3]))


def _carve_axes_members(n: int, r: int, group: AbelianGroup) -> Iterator[Sequence]:
    span = build_span_sequence(n, r)
    alpha = alpha_r(n, r)
    e1 = group.basis(0)
    diag = [( (group.basis(0) + group.basis(1)).index, alpha)]
    diag += [(group.basis(i).index, alpha) for i in range(2, r)]
    for m in range(1, n):
        removal = Sequence.from_items(group, diag + [(e1.index, m)])
        yield span.remove(removal).concat(Sequence.from_terms(group, [m * e1]))


def _carve_axes_extra_members(n: int, r: int, group: AbelianGroup) -> Iterator[Sequence]:
    span = build_span_sequence(n, r)
    alpha = alpha_r(n, r)
    e1, e3 = group.basis(0), group.basis(2)
    items = [((group.basis(0) + group.basis(1)).index, alpha)]
    items.append(((e1 + e3).index, 1))
    items.append((e3.index, alpha - 1))
    items += [(group.basis(i).index, alpha) for i in range(3, r)]
    items.append((e1.index, n - 1))
    yield span.remove(Sequence.from_items(group, items))


def _carve_mixed_members(n: int, r: int, group: AbelianGroup) -> Iterator[Sequence]:
    span = build_span_sequence(n, r)
    alpha = alpha_r(n, r)
    all_ones = _basis_sum(group, range(r))
    for k2 in range(0, alpha):
        k1 = alpha - 1 - k2
        for k3 in range(1, r + 1):
            items = [(all_ones.index, k1)]
            items += [(group.basis(i).index, k2) for i in range(r)]
            items.append((_basis_sum(group, range(k3)).index, 1))
            items += [(group.basis(i).index, 1) for i in range(k3, r)]
            yield span.remove(Sequence.from_items(group, items))


def _lift_members(n: int, r: int, group: AbelianGroup) -> Iterator[Sequence]:
    swatch = length_swatch(n, r - 1)
    er = group.basis(r - 1)

    def embed(seq: Sequence) -> Sequence:
        return Sequence.from_items(
            group,
            (
                (group.index_of(seq.group.coords_of(idx) + (0,)), v)
                for idx, v in seq.items
            ),
        )

    for a in sorted(swatch):
        w1 = embed(swatch[a])
        ell = (-a) % n
        shifted = w1.translate(er)
        tail = shifted.concat(Sequence.from_items(group, [(er.index, ell)]))
        for b in sorted(swatch):
            yield embed(swatch[b]).concat(tail)


# name -> (members(n, r, group), window(n, r, span, alpha) or None, least n,
# least r, needs alpha_r(n, r) != 0).  window gives the inclusive length window
# the members fill, from span = (2^r - 1)(n - 1), the span's length, and alpha
# = alpha_r(n, r); lift claims none.  _candidates reads the families in this
# order.
_FAMILIES = {
    "zero-block": (_zero_block_members, lambda n, r, s, a: (n + 1, 2 * n - 1), 2, 2, False),
    "slide": (_slide_members, lambda n, r, s, a: (2 * n, 3 * n - 2), 3, 3, False),
    "pivot": (_pivot_members, lambda n, r, s, a: (3 * n - 1, 3 * n - 1), 3, 3, False),
    "braid": (_braid_members, lambda n, r, s, a: (3 * n, 4 * n - 3), 3, 3, False),
    "span-carve-block": (
        _carve_block_members, lambda n, r, s, a: (s - (3 * n - 3) - a, s - (n + 1) - a), 3, 3, False
    ),
    "span-carve-axes": (
        _carve_axes_members,
        lambda n, r, s, a: (s - (r - 1) * a - n + 2, s - (r - 1) * a),
        3, 3, True,
    ),
    "span-carve-axes-x": (
        _carve_axes_extra_members, lambda n, r, s, a: (s - (r - 1) * a - n + 1,) * 2, 3, 3, True
    ),
    "span-carve-mixed": (_carve_mixed_members, lambda n, r, s, a: (s - r * a, s - a), 3, 3, True),
    "lift": (_lift_members, None, 2, 4, False),
}


def build_family(name: str, n: int, r: int) -> FamilySpec:
    """Instantiate a named family over C_n^r, refusing out-of-context parameters."""
    alpha = alpha_r(n, r)
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: {', '.join(_FAMILIES)}")
    members, window, min_n, min_r, needs_alpha = _FAMILIES[name]
    if n < min_n:
        raise ValueError(f"family {name!r} requires n >= {min_n}")
    if r < min_r:
        raise ValueError(f"family {name!r} requires r >= {min_r}")
    if needs_alpha and alpha == 0:
        raise ValueError(f"family {name!r} requires alpha_r(n, r) != 0")
    group = _cube_group(n, r)
    claimed = None if window is None else window(n, r, (2**r - 1) * (n - 1), alpha)
    return FamilySpec(name, group, lambda: members(n, r, group), claimed)


def verify_family(spec: FamilySpec) -> set[int]:
    """Check that every member witnesses C0 membership at its own length and
    that the lengths fill the claimed window; returns the realized lengths.

    Raises AssertionError on any violation.
    """
    lengths: set[int] = set()
    for member in spec.members():
        lengths.add(member.length)
        if not witnesses({"type": "c0_membership", "t": member.length}, member):
            raise AssertionError(f"{spec.name} member {member!r} is not zero-sum short-free")
    if spec.claimed_lengths is not None:
        lo, hi = spec.claimed_lengths
        if lengths != set(range(lo, hi + 1)):
            raise AssertionError(
                f"{spec.name} realized lengths {sorted(lengths)} != claimed [{lo}, {hi}]"
            )
    return lengths


def verify_construction(name: str, outputs: list[Sequence], params: dict) -> None:
    """Re-check, by subsum.witnesses, the claim that the CONSTRUCTIONS row
    of name states for outputs built with params: the first output is an
    extremal sequence of the claimed invariant and length, or, for a "c0"
    claim, verify_family holds of the outputs and the window.  The span must
    also sum to alpha_r * (e_1 + ... + e_r).  Raises AssertionError on the
    first claim that fails, ValueError on a name that is no construction.
    """
    if name not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}")
    kind, claimed = CONSTRUCTIONS[name][2](**params)
    if kind == "c0":
        verify_family(FamilySpec(name, outputs[0].group, lambda: iter(outputs), claimed))
        return
    seq = outputs[0]
    if not witnesses({"type": "invariant", "invariant": kind, "extremal_length": claimed}, seq):
        raise AssertionError(f"{name}: not an extremal {kind} sequence of length {claimed}")
    if name == "span" and seq.sum != alpha_r(**params) * seq.group.element([1] * params["r"]):
        raise AssertionError(f"{name}: wrong sum")


# name -> (param keys, build(**params) -> outputs, claim(**params)): what
# `zerosum construct` emits, the params its certificates record, and the claim
# its outputs witness: (invariant, extremal length) for the first output, or
# ("c0", window) for C0 membership of every output at its own length, with
# lengths that fill the inclusive window (None for lift, which claims none).
CONSTRUCTIONS: dict[str, tuple[tuple[str, ...], Callable[..., list[Sequence]], Callable]] = {
    "span": (("n", "r"), lambda n, r: [build_span_sequence(n, r)],
             lambda n, r: ("eta", (2**r - 1) * (n - 1))),
    "span-merge": (("n", "r", "axis", "m"), lambda **params: [build_span_merged(**params)],
                   lambda n, r, axis, m: ("eta", (2**r - 1) * (n - 1) - (m - 1))),
    "cap3": ((), lambda: [ternary_cap_rank3()], lambda: ("f", 8)),
    "cap4": ((), lambda: [ternary_cap_rank4()], lambda: ("g", 20)),
    "cap4-trims": ((), excluded_window_witnesses, lambda: ("c0", (30, 36))),
    **{
        name: (("n", "r"), lambda n, r, name=name: list(build_family(name, n, r).members()),
               lambda n, r, name=name: ("c0", build_family(name, n, r).claimed_lengths))
        for name in _FAMILIES
    },
}


def _candidates(n: int, r: int, t: int | None = None) -> Iterator[Sequence]:
    """The members of each family that applies to C_n^r, in _FAMILIES order,
    then the span when it sums to zero.  Given t, a family whose claimed
    window misses t is skipped (lift claims none, so it is always read)."""
    for name in _FAMILIES:
        try:
            fam = build_family(name, n, r)
        except ValueError:
            continue
        window = fam.claimed_lengths
        if t is None or window is None or window[0] <= t <= window[1]:
            yield from fam.members()
    span = build_span_sequence(n, r)
    if span.is_zero_sum():
        yield span


def length_swatch(n: int, r: int) -> dict[int, Sequence]:
    """One zero-sum short-free sequence per length, the first _candidates gives."""
    out: dict[int, Sequence] = {}
    for member in _candidates(n, r):
        out.setdefault(member.length, member)
    return out


def known_witnesses(group: AbelianGroup, t: int) -> Iterator[Sequence]:
    """Construction-derived candidates for a zero-sum short-free sequence of length t.

    Candidates are generated cheaply and must be re-validated by the caller.
    """
    if len(set(group.moduli)) != 1:
        return
    n, r = group.moduli[0], group.rank
    if (n, r) == (3, 3) and t == 16:
        yield ternary_cap_rank3().power(2)
    if (n, r) == (3, 4):
        yield from (w for w in excluded_window_witnesses() if w.length == t)
    if r >= 2:
        yield from (w for w in _candidates(n, r, t) if w.length == t)
