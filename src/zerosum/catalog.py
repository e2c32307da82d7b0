"""Fact store with provenance and the conditional inference rules.

Facts are statements about one concrete group presentation (a moduli tuple):
invariant values/bounds, C0 membership and coverage, and structural
properties.  Provenance separates cited literature constants, results proved
in-text, search certificates, and rule applications with premise chains.
The inference engine applies rules R1..R8 and two closures, round after
round, until a round adds nothing, and hard-errors on any contradiction.
Each rule reads one subject or one product C_m^r, C_n^r -> C_mn^r and yields
the statements it derives; infer lists the items once per round, keeps the
statements not yet on file and makes them facts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .constructions import alpha_r
from .group import parse_group_spec

KIND_INVARIANT = "invariant_value"
KIND_LOWER = "invariant_lower"
KIND_UPPER = "invariant_upper"
KIND_MEMBER = "c0_member"
KIND_NOT_MEMBER = "c0_not_member"
KIND_SUBSET = "c0_subset"          # detail (lo, hi): C0 within [lo, hi]
KIND_SUBSET_SET = "c0_subset_set"  # detail (t1, t2, ...): C0 within the set
KIND_EQUALS = "c0_equals"          # detail: the full membership tuple
KIND_FULL_RANGE = "c0_full_range"  # C0 = [D+1, eta-1], endpoints symbolic
KIND_PROPERTY = "property"         # detail ("C"|"D", holds) or ("D0", holds, c)


def _make_canonical() -> Callable[[object], str]:
    """json.dumps(obj, sort_keys=True) by one C encoder for the process, where
    json.dumps builds one per call: JSONEncoder(sort_keys=True)'s arguments,
    but no circular check, since every payload is a tree.  Without the _json
    accelerator, JSONEncoder(sort_keys=True).encode."""
    enc = json.JSONEncoder(sort_keys=True)
    if json.encoder.c_make_encoder is None:
        return enc.encode
    encode = json.encoder.c_make_encoder(
        None, enc.default, json.encoder.encode_basestring_ascii, enc.indent,
        enc.key_separator, enc.item_separator, enc.sort_keys, enc.skipkeys, enc.allow_nan,
    )
    return lambda obj: "".join(encode(obj, 0))


_canonical = _make_canonical()
# the string encoder json.dumps uses by default (ensure_ascii)
_string = json.encoder.encode_basestring_ascii


class FactConflictError(Exception):
    """Two facts about the same subject contradict each other."""


# slotted, without the encoded text, which save rebuilds: one catalog pass
# builds about 10,000 facts
@dataclass(frozen=True, slots=True)
class Provenance:
    source: str  # cited | paper | search | rule
    reference: str
    premises: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Fact:
    subject: tuple[int, ...]
    kind: str
    detail: tuple
    provenance: Provenance
    fact_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        digest = hashlib.sha256(self.text().encode()).hexdigest()[:16]
        object.__setattr__(self, "fact_id", digest)

    def text(self, fid: str | None = None) -> str:
        """The fact's canonical JSON, the text the id hashes, or with fid the
        line save writes, which also holds {"id": fid}.  It is assembled in
        sorted key order: _canonical encodes the three lists and _string the
        strings, so no payload dict is built."""
        prov = self.provenance
        ident = "" if fid is None else f'"id": {_string(fid)}, '
        return (
            f'{{"detail": {_canonical(self.detail)}, {ident}"kind": {_string(self.kind)}, '
            f'"provenance": {{"premises": {_canonical(prov.premises)}, '
            f'"reference": {_string(prov.reference)}, "source": {_string(prov.source)}}}, '
            f'"subject": {_canonical(self.subject)}}}'
        )

    @classmethod
    def from_payload(cls, data: dict) -> Fact:
        """The fact whose text() data is; ValueError on a field of another
        type, so that a hand-edited line cannot build an unhashable fact, and
        on a subject with a modulus below 2, which is no group's.  A list's
        items are tested by the set of their types: json.loads makes no
        subclass.  The strings other facts share (kind, source, reference,
        premise ids) are interned, so a loaded store holds one copy of each."""
        prov = data["provenance"]
        subject, kind = data["subject"], data["kind"]
        source, reference, premises = prov["source"], prov["reference"], prov.get("premises", [])
        _require(
            isinstance(subject, list) and {*map(type, subject)} <= {int, bool}
            and isinstance(kind, str) and isinstance(source, str) and isinstance(reference, str)
            and isinstance(premises, list) and {*map(type, premises)} <= {str},
            "subject, kind, source, reference or premises of the wrong type",
        )
        # a subject is a group's moduli; rules divide by n-1
        _require(min(subject, default=2) >= 2, f"subject {subject} has a modulus below 2")
        intern = sys.intern
        return cls(tuple(subject), intern(kind), _detail(data["detail"]),
                   Provenance(intern(source), intern(reference), tuple(map(intern, premises))))


def _detail(items) -> tuple:
    """A detail list with lists as tuples, all the way down; ValueError on an
    item that is not a str, an int, a bool or a list (a JSON object, say)."""
    if not (isinstance(items, list) and {*map(type, items)} <= {str, int, bool, list}):
        raise ValueError(f"detail {items!r} is not a list of str, int, bool or lists")
    return tuple(_detail(x) if type(x) is list else x for x in items)


# (kind, other kind, clash(detail, other detail), reason): two facts about one
# subject contradict each other when the row for their kinds says they clash
_CONFLICT_RULES = (
    (KIND_INVARIANT, KIND_INVARIANT, lambda a, b: a[0] == b[0] and a[1] != b[1],
     "distinct invariant values"),
    (KIND_INVARIANT, KIND_LOWER, lambda a, b: a[0] == b[0] and a[1] < b[1],
     "value below lower bound"),
    (KIND_INVARIANT, KIND_UPPER, lambda a, b: a[0] == b[0] and a[1] > b[1],
     "value above upper bound"),
    (KIND_LOWER, KIND_UPPER, lambda a, b: a[0] == b[0] and a[1] > b[1],
     "lower bound exceeds upper bound"),
    (KIND_MEMBER, KIND_NOT_MEMBER, lambda a, b: a[0] == b[0], "t both in and out of C0"),
    (KIND_MEMBER, KIND_SUBSET, lambda a, b: not b[0] <= a[0] <= b[1],
     "member outside C0 interval bound"),
    (KIND_MEMBER, KIND_SUBSET_SET, lambda a, b: a[0] not in b, "member outside C0 set bound"),
    (KIND_MEMBER, KIND_EQUALS, lambda a, b: a[0] not in b, "member not in determined C0"),
    (KIND_NOT_MEMBER, KIND_EQUALS, lambda a, b: a[0] in b, "non-member in determined C0"),
    (KIND_EQUALS, KIND_EQUALS, lambda a, b: a != b, "distinct C0 determinations"),
    # D0 facts only clash for the same c
    (KIND_PROPERTY, KIND_PROPERTY,
     lambda a, b: a[0] == b[0] and a[1] != b[1] and (a[0] != "D0" or a[2] == b[2]),
     "property both holds and fails"),
)

# the same rows by new fact's kind, in both directions: [(other kind, clash,
# why), ...]; the swapped entry calls clash with its arguments swapped
_PARTNERS: dict[str, list[tuple[str, Callable[[tuple, tuple], bool], str]]] = {}
for _kind, _other, _clash, _why in _CONFLICT_RULES:
    _PARTNERS.setdefault(_kind, []).append((_other, _clash, _why))
    if _other != _kind:
        _PARTNERS.setdefault(_other, []).append((_kind, lambda a, b, c=_clash: c(b, a), _why))


class FactStore:
    """Fact collection with consistency checking on insert.  The CLI saves
    none: a run builds its store from the builtin facts and the facts of the
    cached search certificates."""

    def __init__(self) -> None:
        self.facts: dict[str, Fact] = {}
        self._by_subject: dict[tuple[int, ...], list[Fact]] = {}
        # (subject, kind) -> {detail: the first fact added with it}
        self._by_kind: dict[tuple[tuple[int, ...], str], dict[tuple, Fact]] = {}

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self):
        return iter(self.facts.values())

    def subjects(self) -> list[tuple[int, ...]]:
        return sorted(self._by_subject)

    def for_subject(self, subject: tuple[int, ...]) -> list[Fact]:
        return list(self._by_subject.get(tuple(subject), ()))

    def of_kind(self, subject, kind: str) -> list[Fact]:
        """The subject's facts of one kind in the order they were added, only
        the first of those with equal details."""
        return list(self._by_kind.get((tuple(subject), kind), {}).values())

    def has_statement(self, subject, kind, detail) -> bool:
        return tuple(detail) in self._by_kind.get((tuple(subject), kind), ())

    def add(self, fact: Fact) -> str:
        fid = fact.fact_id
        if fid in self.facts:
            return fid
        self._check_consistent(fact)
        self.facts[fid] = fact
        self._by_subject.setdefault(fact.subject, []).append(fact)
        self._by_kind.setdefault((fact.subject, fact.kind), {}).setdefault(fact.detail, fact)
        return fid

    def add_all(self, facts: Iterable[Fact]) -> list[str]:
        return [self.add(f) for f in facts]

    # -- consistency ---------------------------------------------------------

    def invariant_value(self, subject, name) -> int | None:
        found = _invariant_fact(self, subject, name)
        return None if found is None else found[0]

    def member_ids(self, subject) -> dict[int, str]:
        """The known C0 members of the subject, each with the id of the first
        fact on file that names it (a member or a determination fact)."""
        out: dict[int, str] = {}
        for f in self.for_subject(subject):
            if f.kind == KIND_MEMBER:
                out.setdefault(f.detail[0], f.fact_id)
            elif f.kind == KIND_EQUALS:
                for t in f.detail:
                    out.setdefault(t, f.fact_id)
        return out

    def _check_consistent(self, fact: Fact) -> None:
        """Raise FactConflictError if fact clashes with a fact on file; only
        the kinds that share a _CONFLICT_RULES row with its kind are read."""
        for kind, clash, why in _PARTNERS.get(fact.kind, ()):
            others = self._by_kind.get((fact.subject, kind), ())
            for detail in others:
                if clash(fact.detail, detail):
                    raise FactConflictError(
                        f"fact {fact.text()} contradicts {others[detail].text()}: {why}"
                    )

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        write_atomic(path, "".join(
            self.facts[fid].text(fid) + "\n" for fid in sorted(self.facts)
        ))

    @classmethod
    def load(cls, path) -> FactStore:
        """Read what save wrote.  A malformed line (nested too deeply to
        decode, say), or one whose stored id is missing or is not its fact's
        id, raises ValueError naming the line: an edited line (a derived claim
        marked cited, say) must not load as a new fact."""
        store = cls()
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    fact, stored = Fact.from_payload(data), data.get("id")
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    raise ValueError(f"{path}, line {number}: malformed fact ({exc!r})") from None
                if stored != fact.fact_id:
                    raise ValueError(
                        f"{path}, line {number}: stored id {stored!r} is not the fact's id"
                        f" {fact.fact_id}"
                    )
                store.add(fact)
        return store


def write_atomic(path, text: str) -> None:
    """Write text to a temp file beside path, then os.replace it over path: a
    reader sees the old file or the new one, and a failed write leaves the
    old file and no temp file."""
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _factor(n: int) -> dict[int, int]:
    """n's prime factorization {p: e}, keys increasing; {} for n < 2."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


# -- builtin facts ---------------------------------------------------------------


# What the rows of _CLAIMS read of a presentation: moduli, the subject; r, its
# rank; n, the modulus of a cube C_n^r (None if the moduli differ); pair,
# (n1, n2) of a rank-2 presentation with n1 | n2; p, the prime when every
# modulus is a power of one prime; t of a cube C_{2^t}^r; alpha of a cube
# C_{3*2^alpha}^r.
_Shape = namedtuple("_Shape", "moduli r n pair p t alpha")


def _shape(subject: tuple[int, ...]) -> _Shape:
    factors = {m: _factor(m) for m in set(subject)}  # one per distinct modulus
    primes = {q for f in factors.values() for q in f}
    p = min(primes) if len(primes) == 1 and all(factors.values()) else None
    n1, n2 = min(subject), max(subject)
    pair = (n1, n2) if len(subject) == 2 and n2 % n1 == 0 else None
    if n1 != n2:
        return _Shape(subject, len(subject), None, pair, p, None, None)
    f = factors[n1]
    t = f[2] if f.keys() == {2} else None
    alpha = f[2] if f.keys() == {2, 3} and f[3] == 1 else None
    return _Shape(subject, len(subject), n1, pair, p, t, alpha)


def _cube(n: int, *ranks: int) -> Callable[[_Shape], bool]:
    """The condition that the presentation is C_n^r for an r in ranks."""
    return lambda g: g.n == n and g.r in ranks


# The cited (literature) and paper (in-text) results, one row per reference:
# (source, reference, kind, when(shape), details).  A presentation whose _Shape
# meets when gets one fact of the kind per detail; details is the tuple of
# them, or a function of the shape that gives it.  when states the result's
# hypothesis and details its formula, each in this one place.  The rows are in the order
# instantiate_for emits their facts: the rules read the first fact of a kind,
# so the order picks premise ids.
_CLAIMS = tuple(
    (Provenance(source, reference), kind, when, details)
    for source, reference, kind, when, details in (
        ("cited", "p-group Davenport constant [Olson]", KIND_INVARIANT, lambda g: g.p,
         lambda g: [("D", 1 + sum(m - 1 for m in g.moduli))]),
        ("cited", "rank-2 Davenport constant [Olson]", KIND_INVARIANT, lambda g: g.pair,
         lambda g: [("D", g.pair[0] + g.pair[1] - 1)]),
        ("cited", "rank-2 eta [GZ]", KIND_INVARIANT, lambda g: g.pair,
         lambda g: [("eta", 2 * g.pair[0] + g.pair[1] - 2)]),
        ("paper", "rank-2 determination", KIND_FULL_RANGE, lambda g: g.pair and g.pair[0] >= 3,
         ((),)),
        ("paper", "excluded family C2+C2m", KIND_EQUALS, lambda g: g.pair and g.pair[0] == 2,
         ((),)),
        # length window [2q, 3q-2] clipped to the C0 range [D+1, eta-1]
        ("paper", "prime-power square theorem", KIND_MEMBER,
         lambda g: g.r == 2 and g.p and g.n and g.n >= 3,
         lambda g: [(t,) for t in range(2 * g.n, 3 * g.n - 2)]),
        ("cited", "eta for two-power cubes [Harborth]", KIND_INVARIANT, lambda g: g.t,
         lambda g: [("eta", (2**g.r - 1) * (2**g.t - 1) + 1)]),
        ("cited", "two-power cubes have C [GHST]", KIND_PROPERTY, lambda g: g.t and g.r >= 2,
         (("C", True),)),
        ("cited", "ternary cubes have C [Harborth]", KIND_PROPERTY, lambda g: g.n == 3 and g.r >= 2,
         (("C", True),)),
        ("cited", "eta(C3^3) [Kemnitz]", KIND_INVARIANT, _cube(3, 3), (("eta", 17),)),
        ("cited", "eta(C3^4) [Kemnitz]", KIND_INVARIANT, _cube(3, 4), (("eta", 39),)),
        ("cited", "eta = 2f - 1 [Harborth]", KIND_INVARIANT, _cube(3, 3, 4),
         lambda g: [("f", {3: 9, 4: 20}[g.r])]),
        ("cited", "maximum rank-4 ternary cap [affine caps]", KIND_INVARIANT, _cube(3, 4),
         (("g", 21),)),
        ("cited", "eta(C5^3) [GHST]", KIND_INVARIANT, _cube(5, 3), (("eta", 33),)),
        ("cited", "C5^3 has C [GHST]", KIND_PROPERTY, _cube(5, 3), (("C", True),)),
        ("cited", "eta for 3*2^a cubes [GHST]", KIND_INVARIANT, lambda g: g.alpha and g.r == 3,
         lambda g: [("eta", 7 * (3 * 2**g.alpha - 1) + 1)]),
        ("cited", "rank-3 Davenport lower bound [Olson]", KIND_LOWER, lambda g: g.n and g.r == 3,
         lambda g: [("D", 3 * g.n - 2)]),
        ("cited", "rank-3 eta lower bound [Lower bounds]", KIND_LOWER,
         lambda g: g.n and g.r == 3 and g.n % 2 == 1 and g.n >= 3,
         lambda g: [("eta", 8 * g.n - 7)]),
        ("cited", "rank-4 eta lower bound [affine caps]", KIND_LOWER,
         lambda g: g.n and g.r == 4 and g.n % 2 == 1 and g.n >= 3,
         lambda g: [("eta", 19 * g.n - 18)]),
        ("paper", "binary cube determination", KIND_EQUALS, lambda g: g.n == 2 and g.r >= 3,
         lambda g: [(2**g.r - 3, 2**g.r - 2)]),
        ("paper", "length-14 zero-sum theorem", KIND_MEMBER, _cube(3, 3), ((14,),)),
        ("paper", "near-extremal membership", KIND_MEMBER, _cube(3, 3, 4),
         lambda g: {3: [(15,)], 4: [(37,), (38,)]}[g.r]),
        ("paper", "rank-4 ternary determination", KIND_EQUALS, _cube(3, 4), ((37, 38),)),
        ("cited", "small-prime cubes have D0 wrt 9 [FGZ]", KIND_PROPERTY,
         lambda g: g.n in (5, 7, 11, 13) and g.r == 3, (("D0", True, 9),)),
    )
)


def instantiate_for(moduli: Iterable[int]) -> list[Fact]:
    """The builtin facts about one presentation: for each row of _CLAIMS, in
    order, whose condition the presentation's _Shape meets, the row's facts."""
    subject = tuple(moduli)
    shape = _shape(subject)
    return [
        Fact(subject, kind, detail, provenance)
        for provenance, kind, when, details in _CLAIMS if when(shape)
        for detail in (details(shape) if callable(details) else details)
    ]


DEFAULT_SUBJECTS: tuple[tuple[int, ...], ...] = (
    (2, 2),
    (2, 4),
    (2, 6),
    (3, 3),
    (3, 6),
    (4, 4),
    (2, 2, 2),
    (2, 2, 2, 2),
    (3, 3, 3),
    (3, 3, 3, 3),
    (4, 4, 4),
    (5, 5, 5),
    (6, 6, 6),
    (8, 8, 8),
    (7, 7, 7),
    (11, 11, 11),
    (13, 13, 13),
)


def builtin_facts() -> list[Fact]:
    out: list[Fact] = []
    for subject in DEFAULT_SUBJECTS:
        out.extend(instantiate_for(subject))
    return out


def fact_from_certificate(cert) -> Fact | None:
    """Translate a search certificate into a fact, or None when inconclusive."""
    claim = cert.claim
    prov = Provenance("search", cert.cert_id())
    subject = parse_group_spec(cert.group_spec).moduli
    if claim["type"] == "invariant":
        if cert.status == "proved_exhaustive":
            return Fact(subject, KIND_INVARIANT, (claim["invariant"], claim["value"]), prov)
        if cert.status == "budget_exhausted":
            return Fact(subject, KIND_LOWER, (claim["invariant"], claim["value"]), prov)
        return None
    if claim["type"] == "c0_membership":
        if cert.status == "proved_exhaustive":
            return Fact(subject, KIND_MEMBER, (claim["t"],), prov)
        if cert.status == "refuted_with_witness":
            return Fact(subject, KIND_NOT_MEMBER, (claim["t"],), prov)
        return None
    if claim["type"] == "property":
        if claim.get("holds") is None:
            return None
        name = claim["property"]
        detail = (name, claim["holds"], claim["c"]) if name == "D0" else (name, claim["holds"])
        return Fact(subject, KIND_PROPERTY, detail, prov)
    return None


# -- inference rules -----------------------------------------------------------
#
# Each rule reads one item, a subject or a product tuple of _uniform_products,
# and yields the statements it derives from the store as (subject, kind,
# detail, premises); infer keeps the new ones and makes them facts.


def _uniform(subject) -> tuple[int, int] | None:
    if len(set(subject)) == 1:
        return subject[0], len(subject)
    return None


def _invariant_fact(store: FactStore, subject, name: str) -> tuple[int, str] | None:
    """The first stored value of invariant `name` for the subject, with its fact id."""
    for f in store.of_kind(subject, KIND_INVARIANT):
        if f.detail[0] == name:
            return f.detail[1], f.fact_id
    return None


def _property_fact(store: FactStore, subject, name, c=None) -> tuple[bool, str] | None:
    for f in store.of_kind(subject, KIND_PROPERTY):
        if f.detail[0] == name and f.detail[1]:
            if name == "D0" and c is not None and f.detail[2] != c:
                continue
            return f.detail[1], f.fact_id
    return None


def _ratio(eta_value: int, n: int) -> int | None:
    if (eta_value - 1) % (n - 1):
        return None
    return (eta_value - 1) // (n - 1)


def _rule_r1(store: FactStore, subject):
    """eta = c(n-1)+1, c <= n, Property C  =>  eta-1 in C0."""
    if _uniform(subject) is None:
        return
    n = subject[0]
    eta = _invariant_fact(store, subject, "eta")
    prop = _property_fact(store, subject, "C")
    if eta is not None and prop is not None:
        c = _ratio(eta[0], n)
        if c is not None and c <= n:
            yield subject, KIND_MEMBER, (eta[0] - 1,), (eta[1], prop[1])


def _uniform_products(store: FactStore, scope: set | None = None):
    """Pairs of cubes C_m^r, C_n^r on file whose product C_mn^r is on file too,
    and in scope if a scope is given.

    Yields (s1, m, eta1, s2, n, eta2, target, eta_t, bound, ratio) in subject
    order, s1 then s2, for the pairs where eta of both factors is on file;
    each eta is (value, fact id), and eta_t, the target's, may be None.  bound
    is (eta1 - 1) n + eta2, the upper bound on eta of the product, and ratio
    the c with eta = c(q-1) + 1 that both factors C_q^r share, or None.  Each
    subject's eta is looked up once per call.  s2 runs over the cubes of s1's
    rank in order of n, up to the largest n of that rank over m.
    """
    uniforms = [
        (s, s[0], len(s), _invariant_fact(store, s, "eta"))
        for s in store.subjects() if _uniform(s)
    ]
    by_key = {(n, r): (s, eta) for s, n, r, eta in uniforms}
    by_rank: dict[int, list] = {}
    for s, n, r, eta in uniforms:
        by_rank.setdefault(r, []).append((s, n, eta))
    for s1, m, r, eta1 in uniforms:
        if eta1 is None:
            continue
        rank = by_rank[r]
        for s2, n, eta2 in rank:
            if m * n > rank[-1][1]:
                break
            target = by_key.get((m * n, r))
            if eta2 is not None and target is not None and (scope is None or target[0] in scope):
                c = _ratio(eta1[0], m)  # None unless both ratios are ints
                ratio = c if c == _ratio(eta2[0], n) else None
                yield (s1, m, eta1, s2, n, eta2, *target, (eta1[0] - 1) * n + eta2[0], ratio)


def _rule_r2(store: FactStore, product):
    """eta(G) = (eta(H)-1) exp(G/H) + eta(G/H) for H = C_m^r, G/H = C_n^r: the
    members of C0 just below eta of the factor C_n^r move below eta of the
    product.  Equal eta ratios c meet it, as c(m-1)n + c(n-1) + 1 = c(mn-1) + 1."""
    _, _, eta1, s2, n2, eta2, target, eta_t, bound, _ = product
    if eta_t is None or eta_t[0] != bound:
        return
    prop = _property_fact(store, s2, "C")
    if prop is None:
        return
    members = store.member_ids(s2)
    t2 = 1 if (eta2[0] - 1) in members else (2 if (eta2[0] - 2) in members else None)
    if t2 is None or t2 > n2 - 1:
        return
    t1 = t2
    while t1 + 1 <= n2 - 1 and (eta2[0] - (t1 + 1)) in members:
        t1 += 1
    premises = (eta1[1], eta2[1], eta_t[1], prop[1],
                *(members[eta2[0] - k] for k in range(t2, t1 + 1)))
    for k in range(t2, t1 + 1):
        yield target, KIND_MEMBER, (eta_t[0] - k,), premises


def _rule_r3(store: FactStore, subject):
    """C0 of C_n^r lies in a short window below eta."""
    u = _uniform(subject)
    if u is None or u[0] < 3 or u[1] < 3:
        return
    n, r = u
    span, alpha = (2**r - 1) * (n - 1), alpha_r(n, r)
    if alpha == 0:
        yield subject, KIND_SUBSET_SET, (span - n, span - n + 1), ()
        return
    eta = _invariant_fact(store, subject, "eta")
    if eta is not None:
        yield subject, KIND_SUBSET, (span - alpha + 1, eta[0] - 1), (eta[1],)


def _rule_r4(store: FactStore, subject):
    """[D+1, min(2 exp + 1, eta - 1)] lies inside C0."""
    d = _invariant_fact(store, subject, "D")
    eta = _invariant_fact(store, subject, "eta")
    if d is None or eta is None:
        return
    for t in range(d[0] + 1, min(2 * math.lcm(*subject) + 1, eta[0] - 1) + 1):
        yield subject, KIND_MEMBER, (t,), (d[1], eta[1])


def _rule_r5(store: FactStore, product):
    """eta(C_mn^r) <= (eta(C_m^r) - 1) n + eta(C_n^r), for targets on file."""
    _, _, eta1, _, _, eta2, target, eta_t, bound, _ = product
    if eta_t is None or eta_t[0] > bound:
        yield target, KIND_UPPER, ("eta", bound), (eta1[1], eta2[1])


def _rule_r6(store: FactStore, product):
    """Property C is multiplicative under the exact eta ratio equalities."""
    s1, _, eta1, s2, _, eta2, target, eta_t, bound, ratio = product
    p1, p2 = _property_fact(store, s1, "C"), _property_fact(store, s2, "C")
    if ratio is not None and eta_t is not None and eta_t[0] == bound and None not in (p1, p2):
        yield target, KIND_PROPERTY, ("C", True), (eta1[1], eta2[1], eta_t[1], p1[1], p2[1])


def _rule_r7(store: FactStore, product):
    """Matching eta ratios plus a meeting lower bound pin eta of the product at the bound."""
    _, _, eta1, _, _, eta2, target, eta_t, bound, ratio = product
    if ratio is None or eta_t is not None:
        return
    for f in store.of_kind(target, KIND_LOWER):
        if f.detail[0] == "eta" and f.detail[1] >= bound:
            yield target, KIND_INVARIANT, ("eta", bound), (eta1[1], eta2[1], f.fact_id)
            return


def _smooth_splits(k: int):
    """Splits k = m * n with m a {3,5}-smooth divisor and n >= 65 odd."""
    f = _factor(k)
    a, b = f.get(3, 0), f.get(5, 0)
    w = k // (3**a * 5**b)
    for i in range(min(a, 8) + 1):
        for j in range(min(b, 8) + 1):
            n = w * 3**i * 5**j
            m = k // n
            if m >= 2 and n >= 65 and n % 2 == 1:
                yield m, n


def _rule_r8(store: FactStore, subject):
    """EGZ value for C_k^3 under the smooth-part threshold and D0 premises.

    Yields s(C_k^3) = 9k - 8 together with the induced eta upper bound
    s - exp + 1 (the eta/s inequality is encoded here as rule arithmetic),
    for the first split that meets the premises.
    """
    u = _uniform(subject)
    if u is None or u[1] != 3:
        return
    k = u[0]
    for m, n in _smooth_splits(k):
        props = [_property_fact(store, (q, q, q), "D0", c=9) for q in _factor(n)]
        if None in props or m < math.ceil(Fraction(2 * 5**7 * n**17, (n * n - 7) * n - 64)):
            continue
        premises = tuple(prop[1] for prop in props)
        s_value = 9 * k - 8
        yield subject, KIND_INVARIANT, ("s", s_value), premises
        if _invariant_fact(store, subject, "eta") is None:
            yield subject, KIND_UPPER, ("eta", s_value - k + 1), premises
        return


def _closure_bounds_meet(store: FactStore, subject):
    """Lower bound == upper bound pins the invariant value (definitional)."""
    lowers: dict[str, tuple[int, str]] = {}
    uppers: dict[str, tuple[int, str]] = {}
    for f in store.of_kind(subject, KIND_LOWER):
        name, v = f.detail
        if name not in lowers or v > lowers[name][0]:
            lowers[name] = (v, f.fact_id)
    for f in store.of_kind(subject, KIND_UPPER):
        name, v = f.detail
        if name not in uppers or v < uppers[name][0]:
            uppers[name] = (v, f.fact_id)
    values = {f.detail[0] for f in store.of_kind(subject, KIND_INVARIANT)}
    for name, (lo, lo_id) in lowers.items():
        if name in uppers and name not in values and uppers[name][0] == lo:
            yield subject, KIND_INVARIANT, (name, lo), (lo_id, uppers[name][1])


def _closure_full_range(store: FactStore, subject):
    """c0_full_range plus known D and eta values yields the explicit set."""
    fr = store.of_kind(subject, KIND_FULL_RANGE)
    d = _invariant_fact(store, subject, "D")
    eta = _invariant_fact(store, subject, "eta")
    if fr and None not in (d, eta):
        yield subject, KIND_EQUALS, tuple(range(d[0] + 1, eta[0])), (fr[0].fact_id, d[1], eta[1])


# (rule id, the item it reads: a "subject" or a "product" of _uniform_products,
# rule), in the order of their premises and ids: all rules of a round read the
# store as the round found it
_RULES = (
    ("R1", "subject", _rule_r1),
    ("R2", "product", _rule_r2),
    ("R3", "subject", _rule_r3),
    ("R4", "subject", _rule_r4),
    ("R5", "product", _rule_r5),
    ("R6", "product", _rule_r6),
    ("R7", "product", _rule_r7),
    ("R8", "subject", _rule_r8),
    ("bounds-meet", "subject", _closure_bounds_meet),
    ("range-close", "subject", _closure_full_range),
)


class Inference(list):
    """The facts infer added, in order, and how it ran: rounds, the rounds it
    ran, the last of which added nothing; scanned, the subjects the rules read
    in each round; by_rule, the facts each rule of _RULES added."""

    def __init__(self) -> None:
        super().__init__()
        self.rounds = 0
        self.scanned: list[int] = []
        self.by_rule = {rule: 0 for rule, _, _ in _RULES}


def _scope(store: FactStore, touched: set) -> set:
    """The subjects whose rules can add a fact in the round after one that
    added facts about touched: those subjects, and each cube on file of a
    touched cube's rank whose modulus is a multiple of that cube's.  A rule
    reads the subject it writes about and, for R2/R5/R6/R7, the factors
    C_m^r and C_n^r of a product C_mn^r, or, for R8, the cubes (q, q, q) of
    the odd primes q dividing k of C_k^3."""
    moduli: dict[int, set[int]] = {}
    for s in touched:
        if _uniform(s):
            moduli.setdefault(len(s), set()).add(s[0])
    scope = set(touched)
    for s in store.subjects():
        if len(s) in moduli and _uniform(s) and any(s[0] % m == 0 for m in moduli[len(s)]):
            scope.add(s)
    return scope


def infer(store: FactStore) -> Inference:
    """Apply _RULES round after round until a round adds nothing; returns the
    new facts, which are also added to the store.

    Each round lists the subjects in scope, in order, and the products of
    _uniform_products whose target is in scope, once, and runs each rule
    over the items of its kind.  It collects every rule's statements before
    it adds any, so that every rule reads the store as the round found it,
    then adds, rule by rule, each statement not yet on file as a fact whose
    provenance is the rule and the premises it gave.

    The first round reads every subject on file; each later round reads only
    the _scope of the subjects the round before added facts about.  That
    gives the facts, in the order, that reading every subject in every round
    gives (semi-naive evaluation): a rule writes only about the subject it
    reads (the product, for the product rules), so a subject out of scope
    added nothing the last round it was read, and no fact that it reads has
    been added since, so it adds nothing now.  Within a rule, items keep
    their order.

    The loop ends: every rule states something about a subject already on
    file, each statement is fixed by the subject and by invariant values on
    file, and each (subject, invariant) holds at most one value (a second one
    raises FactConflictError), so the rules can add only finitely many
    statements.
    """
    added = Inference()
    scope = set(store.subjects())
    while True:
        added.rounds += 1
        added.scanned.append(len(scope))
        before = len(added)
        items = {"subject": sorted(scope), "product": list(_uniform_products(store, scope))}
        # statements on file are dropped as they come, so that a round holds
        # only new ones; the check below drops those an earlier one added
        found = [(rule, [statement for item in items[reads] for statement in apply(store, item)
                         if not store.has_statement(*statement[:3])])
                 for rule, reads, apply in _RULES]
        for rule, statements in found:
            start = len(added)
            for subject, kind, detail, premises in statements:
                if not store.has_statement(subject, kind, detail):
                    fact = Fact(subject, kind, detail, Provenance("rule", rule, premises))
                    store.add(fact)
                    added.append(fact)
            added.by_rule[rule] += len(added) - start
        if len(added) == before:
            return added
        scope = _scope(store, {f.subject for f in added[before:]})


# -- consistency report -----------------------------------------------------------


@dataclass
class ConsistencyReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _max_consecutive_run(values: set[int]) -> int:
    best = 0
    for v in values:
        if v - 1 not in values:
            run = 1
            while v + run in values:
                run += 1
            best = max(best, run)
    return best


def consistency_check(store: FactStore) -> ConsistencyReport:
    """Verify stored C0 knowledge against the window and run-length laws."""
    report = ConsistencyReport()
    for subject in store.subjects():
        exp = math.lcm(*subject)
        eta = store.invariant_value(subject, "eta")
        d = store.invariant_value(subject, "D")
        members = store.member_ids(subject)
        if eta is not None:
            run_set = set(members) | {eta}
            if _max_consecutive_run(run_set) > exp:
                report.violations.append(
                    f"{subject}: C0 plus eta contains more than exp(G)={exp} consecutive integers"
                )
            for t in members:
                if t > eta - 1:
                    report.violations.append(f"{subject}: member {t} above eta-1")
        if d is not None:
            for t in members:
                if t < d + 1:
                    report.violations.append(f"{subject}: member {t} below D+1")
    return report
