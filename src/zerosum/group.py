"""Finite abelian groups presented by cyclic moduli: element codecs, arithmetic, symmetries."""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable

#: Largest group order for which per-element tables may be allocated.
ENUMERATION_CAP = 10**6

#: Largest group order for which full_small symmetry generators are available.
AUTOMORPHISM_CAP = 3**5

#: Largest closed symmetry group materialized for orbit-exact pruning.
CLOSURE_CAP = 250_000

#: Guard against nonsensical presentations long before memory becomes an issue.
ORDER_OVERFLOW = 10**18

SYMMETRY_LEVELS = ("none", "coord_perms+scalar", "full_small")


class GroupMismatchError(ValueError):
    """Raised when elements or sequences of different groups are combined."""


@dataclass(frozen=True)
class AbelianGroup:
    """Direct sum of cyclic groups, kept in the given (unnormalized) presentation.

    Elements are addressed either by a coordinate tuple or by a dense index in
    [0, order): the big-endian mixed-radix encoding of the coordinates.  The
    fixed, documented index layout keeps serialized witnesses portable.
    """

    moduli: tuple[int, ...]
    order: int
    exponent: int

    @property
    def rank(self) -> int:
        return len(self.moduli)

    # -- codec ------------------------------------------------------------

    def index_of(self, coords: Iterable[int]) -> int:
        idx = 0
        for c, m in zip(coords, self.moduli):
            idx = idx * m + (c % m)
        return idx

    def coords_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range [0, {self.order})")
        coords = []
        for m in reversed(self.moduli):
            index, c = divmod(index, m)
            coords.append(c)
        return tuple(reversed(coords))

    # -- element construction ----------------------------------------------

    def element(self, coords: Iterable[int]) -> GroupElement:
        raw = tuple(coords)
        if len(raw) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} coordinates, got {len(raw)}"
            )
        reduced = tuple(c % m for c, m in zip(raw, self.moduli))
        return GroupElement(self, reduced, self.index_of(reduced))

    def element_by_index(self, index: int) -> GroupElement:
        return GroupElement(self, self.coords_of(index), index)

    def basis(self, i: int) -> GroupElement:
        """The i-th standard generator e_i (0-based coordinate position)."""
        coords = [0] * len(self.moduli)
        coords[i] = 1
        return self.element(coords)

    def require_table_capacity(self) -> None:
        if self.order > ENUMERATION_CAP:
            raise ValueError(
                f"group order {self.order} exceeds the enumeration cap {ENUMERATION_CAP}"
            )

    # -- index arithmetic ---------------------------------------------------

    def index_add(self, i: int, j: int) -> int:
        a = self.coords_of(i)
        b = self.coords_of(j)
        return self.index_of(x + y for x, y in zip(a, b))

    def index_neg(self, i: int) -> int:
        return self.index_of(-c for c in self.coords_of(i))

    def index_scalar(self, k: int, i: int) -> int:
        return self.index_of(k * c for c in self.coords_of(i))

    def spec(self) -> str:
        return format_group_spec(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AbelianGroup({self.spec()})"


@dataclass(frozen=True)
class GroupElement:
    """A residue vector together with its dense index."""

    group: AbelianGroup
    coords: tuple[int, ...]
    index: int

    def _check(self, other: GroupElement) -> None:
        if self.group.moduli != other.group.moduli:
            raise GroupMismatchError(
                f"elements of {self.group.spec()} and {other.group.spec()} cannot be combined"
            )

    def __add__(self, other: GroupElement) -> GroupElement:
        self._check(other)
        return self.group.element(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: GroupElement) -> GroupElement:
        self._check(other)
        return self.group.element(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> GroupElement:
        return self.group.element(-c for c in self.coords)

    def __rmul__(self, k: int) -> GroupElement:
        return self.group.element(k * c for c in self.coords)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group.moduli == other.group.moduli
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((self.group.moduli, self.index))

    def __repr__(self) -> str:
        return format_element(self)


def make_group(moduli: Iterable[int]) -> AbelianGroup:
    """Build a group from a list of cyclic moduli (each >= 2), kept verbatim."""
    mods = tuple(int(m) for m in moduli)
    if not mods:
        raise ValueError("at least one modulus is required")
    for m in mods:
        if m < 2:
            raise ValueError(f"modulus {m} < 2")
    order = math.prod(mods)
    if order > ORDER_OVERFLOW:
        raise ValueError(f"group order {order} overflows the supported range")
    return AbelianGroup(mods, order, math.lcm(*mods))


# -- element sets as bitmasks ------------------------------------------------


@functools.lru_cache(maxsize=1024)
def shift_steps(moduli: tuple[int, ...], g_index: int) -> tuple[tuple[int, int, int], ...]:
    """How `shift_bits` adds the element of index g to a set of element indices.

    Bit x of a set stands for the element of index x.  For each nonzero digit
    b = g_i, the indices whose i-th digit is below m_i - b (set in `low`) move
    up by b * stride_i and the others wrap down by (m_i - b) * stride_i.
    """
    order = stride = math.prod(moduli)
    full = (1 << order) - 1
    steps = []
    for m in moduli:
        stride //= m
        b = g_index // stride % m
        if b:
            block_starts = full // ((1 << (m * stride)) - 1)
            low = ((1 << ((m - b) * stride)) - 1) * block_starts
            steps.append((low, b * stride, (m - b) * stride))
    return tuple(steps)


def shift_bits(mask: int, steps: tuple[tuple[int, int, int], ...]) -> int:
    """The index set `mask` translated by the element whose `shift_steps` are given."""
    for low, up, down in steps:
        stay = mask & low
        mask = (stay << up) | ((mask ^ stay) >> down)
    return mask


# -- group spec grammar -----------------------------------------------------

_POWER_RE = re.compile(r"^C(\d+)(?:\^(\d+))?$")


def parse_group_spec(spec: str) -> AbelianGroup:
    """Parse `C{n}^{r}` (e.g. C3^3) or a comma list `n1,n2,...` (e.g. 3,6)."""
    text = spec.strip().replace(" ", "")
    if not text:
        raise ValueError("empty group spec")
    m = _POWER_RE.match(text)
    if m:
        n = int(m.group(1))
        r = int(m.group(2)) if m.group(2) else 1
        if r < 1:
            raise ValueError(f"invalid rank in group spec {spec!r}")
        return make_group([n] * r)
    if re.fullmatch(r"\d+(,\d+)*", text):
        return make_group(int(part) for part in text.split(","))
    raise ValueError(f"unrecognized group spec {spec!r}")


def format_group_spec(group: AbelianGroup) -> str:
    mods = group.moduli
    if len(set(mods)) == 1:
        n = mods[0]
        return f"C{n}" if len(mods) == 1 else f"C{n}^{len(mods)}"
    return ",".join(str(m) for m in mods)


def format_element(g: GroupElement) -> str:
    return "(" + ",".join(str(c) for c in g.coords) + ")"


_ELEMENT_RE = re.compile(r"^\((-?\d+(?:,-?\d+)*)\)$")


def parse_element(group: AbelianGroup, text: str) -> GroupElement:
    m = _ELEMENT_RE.match(text.strip().replace(" ", ""))
    if not m:
        raise ValueError(f"unrecognized element literal {text!r}")
    coords = [int(part) for part in m.group(1).split(",")]
    if len(coords) != len(group.moduli):
        raise ValueError(
            f"element {text!r} has {len(coords)} coordinates, expected {len(group.moduli)}"
        )
    return group.element(coords)


# -- symmetries ---------------------------------------------------------------
#
# A symmetry is a permutation of the element indices: a tuple p, p[x] the
# index of the image of the element of index x.


def _unit_generators(m: int) -> list[int]:
    """A small deterministic generating set of the units modulo m."""
    if m <= 2:
        return []
    target = sum(1 for u in range(1, m) if math.gcd(u, m) == 1)
    gens: list[int] = []
    generated = {1}
    for u in range(2, m):
        if math.gcd(u, m) != 1 or u in generated:
            continue
        gens.append(u)
        frontier = [1]
        sub = {1}
        while frontier:
            fresh = []
            for v in frontier:
                for g in gens:
                    w = (v * g) % m
                    if w not in sub:
                        sub.add(w)
                        fresh.append(w)
            frontier = fresh
        generated = sub
        if len(generated) == target:
            break
    return gens


def _equal_modulus_blocks(group: AbelianGroup) -> list[list[int]]:
    blocks: dict[int, list[int]] = {}
    for pos, m in enumerate(group.moduli):
        blocks.setdefault(m, []).append(pos)
    return [blocks[m] for m in sorted(blocks)]


def _coord_move(mapping: dict[int, int]) -> Callable[[tuple[int, ...]], list[int]]:
    """The coordinate map moving position src to position dst, for each src: dst."""

    def fn(coords: tuple[int, ...]) -> list[int]:
        out = list(coords)
        for src, dst in mapping.items():
            out[dst] = coords[src]
        return out

    return fn


def _transvection(i: int, j: int) -> Callable[[tuple[int, ...]], list[int]]:
    """The coordinate map of the automorphism e_i -> e_i + e_j."""

    def fn(coords: tuple[int, ...]) -> list[int]:
        out = list(coords)
        out[j] += coords[i]
        return out

    return fn


def symmetries(group: AbelianGroup, level: str) -> list[tuple[int, ...]]:
    """Generator permutations of the requested symmetry group, in deterministic order.

    Levels: none; coord_perms+scalar, the permutations of coordinate
    positions of equal modulus and the multiplications by units; full_small,
    which adds the transvections e_i -> e_i + e_j with moduli[j] | moduli[i]
    (the full automorphism group for equal-modulus presentations) and
    requires order <= AUTOMORPHISM_CAP.  Each generator is a group
    automorphism, so it keeps every zero-sum property.
    """
    if level not in SYMMETRY_LEVELS:
        raise ValueError(f"unknown symmetry level {level!r}")
    if level == "none":
        return []
    if level == "full_small" and group.order > AUTOMORPHISM_CAP:
        raise ValueError(
            f"full_small requires order <= {AUTOMORPHISM_CAP}, got {group.order}"
        )
    maps: list[Callable[[tuple[int, ...]], Iterable[int]]] = []
    for block in _equal_modulus_blocks(group):
        if len(block) >= 2:
            maps.append(_coord_move({block[0]: block[1], block[1]: block[0]}))
        if len(block) >= 3:
            maps.append(_coord_move(dict(zip(block, block[1:] + block[:1]))))
    for u in _unit_generators(group.exponent):
        maps.append(lambda coords, u=u: (u * c for c in coords))
    if level == "full_small":
        for i in range(group.rank):
            for j in range(group.rank):
                if i != j and group.moduli[i] % group.moduli[j] == 0:
                    maps.append(_transvection(i, j))
    group.require_table_capacity()
    coords = [group.coords_of(x) for x in range(group.order)]
    return [tuple(group.index_of(fn(c)) for c in coords) for fn in maps]


def close_symmetries(
    group: AbelianGroup, gens: Iterable[tuple[int, ...]], *, cap: int = CLOSURE_CAP
) -> list[tuple[int, ...]]:
    """Close generator permutations of the group's elements into the full
    permutation group, composing on the right, q[x] = p[g[x]], with one
    itemgetter per generator: the identity, then the distinct non-identity
    generators in their given order, then the rest sorted.  Most multisets
    that are not canonical are mapped below themselves by a generator, so
    the first stage of the canonicity test sees them first (see PackedCodes).

    Every generator must be an automorphism.  Each composite is then one too,
    and the images of the standard basis determine it, so the closure dedupes
    on those images: the key of q is p read at the basis images of g, and q
    is built only when its key is new.
    """
    gens = list(gens)
    if not gens:
        return []
    basis = [group.basis(i).index for i in range(group.rank)]
    # at rank 1 an itemgetter returns a bare item; every key comes from one, so they agree
    key = operator.itemgetter(*basis)
    steps = [
        (operator.itemgetter(*g), operator.itemgetter(*(g[b] for b in basis)))
        for g in gens
    ]
    identity = tuple(range(group.order))
    seen = {key(identity)}
    closed = [identity]
    frontier = [identity]
    first = 0  # the length of the identity and the generators, after the first round
    while frontier:
        nxt = []
        for p in frontier:
            for compose, image_key in steps:
                k = image_key(p)
                if k not in seen:
                    if len(seen) >= cap:
                        raise ValueError(
                            f"symmetry closure exceeds the cap of {cap} permutations"
                        )
                    seen.add(k)
                    nxt.append(compose(p))
        closed += nxt
        frontier = nxt
        first = first or len(closed)
    return closed[:first] + sorted(closed[first:])


# -- packed image codes ---------------------------------------------------------

#: The perms of the first stage of the canonicity test (see PackedCodes).
_HEAD = 64


class PackedCodes:
    """Packed image codes for digit units of k bits, over the perms p_0, p_1, ...

    A multiset's code is enc = sum(mult[x] * unit[x]), unit[x] =
    1 << k*(order-1-x); no digit carries, so on sorted tuples of equal length
    a lex-smaller tuple has a larger code, and every code is below 2^F,
    F = order*k.  Field i of a node's packed int, F // 8 + 1 bytes wide,
    holds 2^F + enc - img_i, img_i the code of the multiset's image under
    p_i.  It lies in (0, 2^(F+1)), so no field borrows from the next, and the
    multiset is canonical iff every guard bit 2^F is set.  Adding g^m adds
    m * delta(g), whose field i is unit[g] - unit[p_i[g]].

    The test has two stages.  head is the codes over the first _HEAD perms,
    or self when there are no more; its packed int is the node's int & its
    mask (set on a head only), and its deltas are short, so a multiset that
    fails the head test costs no full delta and no full add.  The verdict is
    the head test and then the full one.
    """

    __slots__ = ("perms", "unit", "fields", "rep", "guard", "deltas", "head", "mask")

    def __init__(self, perms: tuple[tuple[int, ...], ...], order: int, k: int) -> None:
        self.perms = perms
        self.unit = tuple(1 << k * (order - 1 - x) for x in range(order))
        nbytes = order * k // 8 + 1
        self.fields = tuple(u.to_bytes(nbytes, "little") for u in self.unit)
        self.rep = int.from_bytes(b"\x01".ljust(nbytes, b"\0") * len(perms), "little")
        self.guard = self.rep << order * k  # also the packed int of the empty multiset
        self.deltas: list[int | None] = [None] * order
        if len(perms) > _HEAD:
            self.head = PackedCodes(perms[:_HEAD], order, k)
        else:  # the guard bit of the last field is the top bit of a packed int
            self.head, self.mask = self, (1 << self.guard.bit_length()) - 1

    def build(self, g: int) -> int:
        """delta(g), one field per perm, not cached."""
        fields = self.fields
        images = int.from_bytes(b"".join([fields[p[g]] for p in self.perms]), "little")
        return self.unit[g] * self.rep - images

    def delta(self, g: int) -> int:
        """delta(g), built on first use and kept."""
        d = self.deltas[g]
        if d is None:
            d = self.deltas[g] = self.build(g)
        return d
