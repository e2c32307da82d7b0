"""Multiset sequences over a finite abelian group and their algebra.

A sequence is an unordered multiset of group elements with cached length and
sum.  All values are immutable; every operation returns a new sequence.
"""

from __future__ import annotations

from typing import Iterable

from .group import (
    AbelianGroup,
    GroupElement,
    GroupMismatchError,
    format_element,
    format_group_spec,
    parse_element,
    parse_group_spec,
)

#: (element index, multiplicity) pairs sorted by index; the plain canonical key.
CanonicalKey = tuple[tuple[int, int], ...]


class Sequence:
    """A finite multiset of elements of one group."""

    __slots__ = ("group", "items", "length", "_sum_index")

    def __init__(self, group: AbelianGroup, items: CanonicalKey) -> None:
        self.group = group
        self.items = items
        self.length = sum(v for _, v in items)
        total = [0] * group.rank
        for idx, v in items:
            for i, c in enumerate(group.coords_of(idx)):
                total[i] += v * c
        self._sum_index = group.index_of(total)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_terms(cls, group: AbelianGroup, terms: Iterable[GroupElement]) -> Sequence:
        mult: dict[int, int] = {}
        for t in terms:
            if t.group.moduli != group.moduli:
                raise GroupMismatchError(
                    f"term over {t.group.spec()} in a sequence over {group.spec()}"
                )
            mult[t.index] = mult.get(t.index, 0) + 1
        return cls(group, tuple(sorted(mult.items())))

    @classmethod
    def from_items(cls, group: AbelianGroup, items: Iterable[tuple[int, int]]) -> Sequence:
        mult: dict[int, int] = {}
        for idx, v in items:
            if v < 0:
                raise ValueError("negative multiplicity")
            if v == 0:
                continue
            if not 0 <= idx < group.order:
                raise ValueError(f"element index {idx} out of range")
            mult[idx] = mult.get(idx, 0) + v
        return cls(group, tuple(sorted(mult.items())))

    @classmethod
    def empty(cls, group: AbelianGroup) -> Sequence:
        return cls(group, ())

    # -- accessors ------------------------------------------------------------

    @property
    def sum(self) -> GroupElement:
        return self.group.element_by_index(self._sum_index)

    def is_squarefree(self) -> bool:
        return all(v <= 1 for _, v in self.items)

    def is_zero_sum(self) -> bool:
        return self._sum_index == 0

    def term_indices(self) -> tuple[int, ...]:
        out: list[int] = []
        for idx, v in self.items:
            out.extend([idx] * v)
        return tuple(out)

    def divides(self, other: Sequence) -> bool:
        """Subsequence test: every multiplicity of self fits inside other."""
        self._check_group(other)
        theirs = dict(other.items)
        return all(v <= theirs.get(idx, 0) for idx, v in self.items)

    # -- algebra -----------------------------------------------------------

    def concat(self, other: Sequence) -> Sequence:
        self._check_group(other)
        mult = dict(self.items)
        for idx, v in other.items:
            mult[idx] = mult.get(idx, 0) + v
        return Sequence(self.group, tuple(sorted(mult.items())))

    def remove(self, other: Sequence) -> Sequence:
        """Multiset difference; requires other to be a subsequence."""
        self._check_group(other)
        mult = dict(self.items)
        for idx, v in other.items:
            have = mult.get(idx, 0)
            if v > have:
                raise ValueError(
                    f"cannot remove {v} copies of index {idx}; only {have} present"
                )
            if v == have:
                del mult[idx]
            else:
                mult[idx] = have - v
        return Sequence(self.group, tuple(sorted(mult.items())))

    def power(self, k: int) -> Sequence:
        if k < 0:
            raise ValueError("power requires k >= 0")
        if k == 0:
            return Sequence.empty(self.group)
        return Sequence(self.group, tuple((idx, v * k) for idx, v in self.items))

    def translate(self, g: GroupElement) -> Sequence:
        """Shift every term by g (multiplicities preserved)."""
        self._check_group_of(g)
        shifted = sorted(
            (self.group.index_add(idx, g.index), v) for idx, v in self.items
        )
        return Sequence(self.group, tuple(shifted))

    # -- plumbing ------------------------------------------------------------

    def _check_group(self, other: Sequence) -> None:
        if self.group.moduli != other.group.moduli:
            raise GroupMismatchError(
                f"sequences over {self.group.spec()} and {other.group.spec()}"
            )

    def _check_group_of(self, g: GroupElement) -> None:
        if self.group.moduli != g.group.moduli:
            raise GroupMismatchError(
                f"element of {g.group.spec()} used with a sequence over {self.group.spec()}"
            )

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Sequence)
            and self.group.moduli == other.group.moduli
            and self.items == other.items
        )

    def __hash__(self) -> int:
        return hash((self.group.moduli, self.items))

    def __repr__(self) -> str:
        if not self.items:
            return "<empty sequence>"
        parts = []
        for idx, v in self.items:
            e = format_element(self.group.element_by_index(idx))
            parts.append(e if v == 1 else f"{e}^{v}")
        return "*".join(parts)


# -- text format ----------------------------------------------------------------
#
# One term per line as `(a,b,...) x multiplicity`, preceded by a header line
# with the group spec.  The writer is canonical (terms sorted by index), so a
# parse/serialize round trip is bit-exact.


def write_sequence(seq: Sequence) -> str:
    lines = [f"group: {format_group_spec(seq.group)}"]
    for idx, v in seq.items:
        lines.append(f"{format_element(seq.group.element_by_index(idx))} x {v}")
    return "\n".join(lines) + "\n"


def read_sequence(text: str) -> Sequence:
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if not lines or not lines[0].startswith("group:"):
        raise ValueError("sequence text must start with a 'group:' header")
    group = parse_group_spec(lines[0].split(":", 1)[1])
    items: list[tuple[int, int]] = []
    for line in lines[1:]:
        if " x " in line:
            elem_text, mult_text = line.rsplit(" x ", 1)
            mult = int(mult_text)
        else:
            elem_text, mult = line, 1
        e = parse_element(group, elem_text)
        items.append((e.index, mult))
    return Sequence.from_items(group, items)
