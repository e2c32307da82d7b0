"""Finite abelian groups presented by cyclic moduli: element codecs, arithmetic, symmetries."""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

#: Largest group order for which per-element tables may be allocated.
ENUMERATION_CAP = 10**6

#: Largest group order for which full_small symmetry generators are available.
AUTOMORPHISM_CAP = 3**5

#: Largest closed symmetry group materialized for orbit-exact pruning.
CLOSURE_CAP = 250_000

#: Guard against nonsensical presentations long before memory becomes an issue.
ORDER_OVERFLOW = 10**18

SYMMETRY_LEVELS = (
    "none",
    "coord_perms",
    "scalar",
    "coord_perms+scalar",
    "full_small",
)


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

    def zero(self) -> GroupElement:
        return GroupElement(self, (0,) * len(self.moduli), 0)

    def basis(self, i: int) -> GroupElement:
        """The i-th standard generator e_i (0-based coordinate position)."""
        coords = [0] * len(self.moduli)
        coords[i] = 1
        return self.element(coords)

    def elements(self) -> Iterator[GroupElement]:
        self.require_table_capacity()
        for i in range(self.order):
            yield self.element_by_index(i)

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

    def is_zero(self) -> bool:
        return self.index == 0

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


def scalar_mul(k: int, g: GroupElement) -> GroupElement:
    return k * g


def element_order(g: GroupElement) -> int:
    """Least k >= 1 with k*g = 0; the lcm of the coordinate orders."""
    orders = (
        m // math.gcd(c, m) for c, m in zip(g.coords, g.group.moduli)
    )
    return math.lcm(*orders)


def invariant_factors(group: AbelianGroup) -> tuple[int, ...]:
    """Canonical invariant-factor presentation, for equality testing only."""
    by_prime: dict[int, list[int]] = {}
    for m in group.moduli:
        n = m
        p = 2
        while p * p <= n:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                by_prime.setdefault(p, []).append(p**e)
            p += 1
        if n > 1:
            by_prime.setdefault(n, []).append(n)
    for powers in by_prime.values():
        powers.sort(reverse=True)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for powers in by_prime.values():
            if i < len(powers):
                f *= powers[i]
        factors.append(f)
    # invariant factors listed with divisibility ascending
    return tuple(sorted(factors))


def isomorphic(a: AbelianGroup, b: AbelianGroup) -> bool:
    return invariant_factors(a) == invariant_factors(b)


def coordinate_projection(
    group: AbelianGroup, target_moduli: Iterable[int]
) -> tuple[AbelianGroup, Callable[[GroupElement], GroupElement]]:
    """Coordinatewise reduction C_{m_i} -> C_{d_i} with d_i | m_i.

    Returns the quotient presentation and the projection homomorphism.
    """
    target = tuple(int(d) for d in target_moduli)
    if len(target) != len(group.moduli):
        raise ValueError("target moduli must match the group rank")
    for d, m in zip(target, group.moduli):
        if d < 2 or m % d != 0:
            raise ValueError(f"{d} does not divide modulus {m}")
    quotient = make_group(target)

    def project(g: GroupElement) -> GroupElement:
        return quotient.element(c % d for c, d in zip(g.coords, target))

    return quotient, project


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


@dataclass(frozen=True)
class SymmetryAction:
    """A permutation of the element set arising from a declared symmetry.

    kind is one of: coord_perm, scalar, transvection.  The stored
    permutation maps element indices to element indices.
    """

    group: AbelianGroup
    kind: str
    name: str
    perm: tuple[int, ...]

    def apply_index(self, i: int) -> int:
        return self.perm[i]


def _perm_from_coord_map(
    group: AbelianGroup, fn: Callable[[tuple[int, ...]], Iterable[int]]
) -> tuple[int, ...]:
    group.require_table_capacity()
    return tuple(
        group.index_of(fn(group.coords_of(i))) for i in range(group.order)
    )


def coord_perm_action(group: AbelianGroup, mapping: dict[int, int]) -> SymmetryAction:
    """Permute coordinate positions; only positions with equal moduli may move."""
    for src, dst in mapping.items():
        if group.moduli[src] != group.moduli[dst]:
            raise ValueError("coordinate permutation mixes unequal moduli")

    def fn(coords: tuple[int, ...]) -> list[int]:
        out = list(coords)
        for src, dst in mapping.items():
            out[dst] = coords[src]
        return out

    name = "p" + "".join(f"{s}>{d}" for s, d in sorted(mapping.items()))
    return SymmetryAction(group, "coord_perm", name, _perm_from_coord_map(group, fn))


def scalar_action(group: AbelianGroup, u: int) -> SymmetryAction:
    if math.gcd(u, group.exponent) != 1:
        raise ValueError(f"scalar {u} is not a unit modulo exponent {group.exponent}")
    perm = _perm_from_coord_map(group, lambda c: (u * x for x in c))
    return SymmetryAction(group, "scalar", f"x{u}", perm)


def transvection_action(group: AbelianGroup, i: int, j: int) -> SymmetryAction:
    """The automorphism e_i -> e_i + e_j (requires moduli[j] | moduli[i])."""
    if i == j:
        raise ValueError("transvection requires distinct coordinates")
    if group.moduli[i] % group.moduli[j] != 0:
        raise ValueError("transvection target modulus must divide source modulus")

    def fn(coords: tuple[int, ...]) -> list[int]:
        out = list(coords)
        out[j] = coords[j] + coords[i]
        return out

    return SymmetryAction(group, "transvection", f"e{i}+e{j}", _perm_from_coord_map(group, fn))


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


def symmetries(group: AbelianGroup, level: str) -> list[SymmetryAction]:
    """Generators of the requested symmetry group, in deterministic order.

    Levels: none, coord_perms, scalar, coord_perms+scalar, full_small.  Each
    generator is a group automorphism, so it keeps every zero-sum property.
    full_small adds transvections (the full automorphism group for
    equal-modulus presentations) and requires order <= AUTOMORPHISM_CAP.
    """
    if level not in SYMMETRY_LEVELS:
        raise ValueError(f"unknown symmetry level {level!r}")
    if level == "none":
        return []

    actions: list[SymmetryAction] = []
    if level in ("coord_perms", "coord_perms+scalar", "full_small"):
        for block in _equal_modulus_blocks(group):
            if len(block) >= 2:
                a, b = block[0], block[1]
                actions.append(coord_perm_action(group, {a: b, b: a}))
            if len(block) >= 3:
                cycle = {block[k]: block[(k + 1) % len(block)] for k in range(len(block))}
                actions.append(coord_perm_action(group, cycle))
    if level in ("scalar", "coord_perms+scalar", "full_small"):
        for u in _unit_generators(group.exponent):
            actions.append(scalar_action(group, u))
    if level == "full_small":
        if group.order > AUTOMORPHISM_CAP:
            raise ValueError(
                f"full_small requires order <= {AUTOMORPHISM_CAP}, got {group.order}"
            )
        for i in range(group.rank):
            for j in range(group.rank):
                if i != j and group.moduli[i] % group.moduli[j] == 0:
                    actions.append(transvection_action(group, i, j))
    return actions


def close_symmetries(
    actions: Iterable[SymmetryAction], *, cap: int = CLOSURE_CAP
) -> list[tuple[int, ...]]:
    """Close a generator set into the full permutation group (identity included),
    composing on the right, q[x] = p[g[x]], with one itemgetter per generator.

    Every generator must be an automorphism.  Each composite is then one too,
    and the images of the standard basis determine it, so the closure dedupes
    on those images: the key of q is p read at the basis images of g, and q
    is built only when its key is new.
    """
    actions = list(actions)
    if not actions:
        return []
    group = actions[0].group
    basis = [group.basis(i).index for i in range(group.rank)]
    # at rank 1 an itemgetter returns a bare item; every key comes from one, so they agree
    key = operator.itemgetter(*basis)
    gens = [
        (operator.itemgetter(*a.perm), operator.itemgetter(*(a.perm[b] for b in basis)))
        for a in actions
    ]
    identity = tuple(range(len(actions[0].perm)))
    seen = {key(identity)}
    closed = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for compose, image_key in gens:
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
    return sorted(closed)
