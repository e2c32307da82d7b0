"""Fact store with provenance and the conditional inference rules.

Facts are statements about one concrete group presentation (a moduli tuple):
invariant values/bounds, C0 membership and coverage, and structural
properties.  Provenance separates cited literature constants, results proved
in-text, search certificates, and rule applications with premise chains.
The inference engine applies rules R1..R10 to a fixpoint (or max_rounds) and
hard-errors on any contradiction.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .constructions import alpha_r

RULE_IDS = ("R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10")

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
KIND_EXTREMAL_NONZERO = "extremal_nonzero_sum"  # detail (exists,)


class FactConflictError(Exception):
    """Two facts about the same subject contradict each other."""


@dataclass(frozen=True)
class Provenance:
    source: str  # cited | paper | search | rule
    reference: str
    premises: tuple[str, ...] = ()


@dataclass(frozen=True)
class Fact:
    subject: tuple[int, ...]
    kind: str
    detail: tuple
    provenance: Provenance

    def statement(self) -> tuple:
        return (self.subject, self.kind, self.detail)

    def payload(self) -> dict:
        return {
            "subject": list(self.subject),
            "kind": self.kind,
            "detail": list(self.detail),
            "provenance": {
                "source": self.provenance.source,
                "reference": self.provenance.reference,
                "premises": list(self.provenance.premises),
            },
        }

    @functools.cached_property
    def fact_id(self) -> str:
        text = json.dumps(self.payload(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @classmethod
    def from_payload(cls, data: dict) -> Fact:
        prov = data["provenance"]
        return cls(
            subject=tuple(data["subject"]),
            kind=data["kind"],
            detail=tuple(
                tuple(d) if isinstance(d, list) else d for d in data["detail"]
            ),
            provenance=Provenance(
                prov["source"], prov["reference"], tuple(prov.get("premises", ()))
            ),
        )


def _exp_of(moduli: tuple[int, ...]) -> int:
    return math.lcm(*moduli)


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

# each rule keyed by (new fact's kind, existing fact's kind), in both directions;
# the swapped entry calls clash with its arguments swapped
_CONFLICTS: dict[tuple[str, str], tuple[Callable[[tuple, tuple], bool], str]] = {
    (other, kind): (lambda a, b, clash=clash: clash(b, a), why)
    for kind, other, clash, why in _CONFLICT_RULES
}
_CONFLICTS.update({(kind, other): (clash, why) for kind, other, clash, why in _CONFLICT_RULES})


class FactStore:
    """Single-writer fact collection with consistency checking on insert."""

    def __init__(self) -> None:
        self.facts: dict[str, Fact] = {}
        self._statements: set[tuple] = set()
        self._by_subject: dict[tuple[int, ...], list[Fact]] = {}

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self):
        return iter(self.facts.values())

    def subjects(self) -> list[tuple[int, ...]]:
        return sorted(self._by_subject)

    def for_subject(self, subject: tuple[int, ...]) -> list[Fact]:
        return list(self._by_subject.get(tuple(subject), ()))

    def has_statement(self, subject, kind, detail) -> bool:
        return (tuple(subject), kind, tuple(detail)) in self._statements

    def add(self, fact: Fact) -> str:
        fid = fact.fact_id
        if fid in self.facts:
            return fid
        self._check_consistent(fact)
        self.facts[fid] = fact
        self._statements.add(fact.statement())
        self._by_subject.setdefault(fact.subject, []).append(fact)
        return fid

    def add_all(self, facts: Iterable[Fact]) -> list[str]:
        return [self.add(f) for f in facts]

    # -- consistency ---------------------------------------------------------

    def invariant_value(self, subject, name) -> int | None:
        for f in self.for_subject(subject):
            if f.kind == KIND_INVARIANT and f.detail[0] == name:
                return f.detail[1]
        return None

    def membership(self, subject) -> tuple[set[int], set[int]]:
        """(known members, known non-members) of C0 for the subject."""
        members: set[int] = set()
        non: set[int] = set()
        for f in self.for_subject(subject):
            if f.kind == KIND_MEMBER:
                members.add(f.detail[0])
            elif f.kind == KIND_NOT_MEMBER:
                non.add(f.detail[0])
            elif f.kind == KIND_EQUALS:
                members.update(f.detail)
        for f in self.for_subject(subject):
            if f.kind == KIND_EQUALS:
                eta = self.invariant_value(subject, "eta")
                d = self.invariant_value(subject, "D")
                if eta is not None and d is not None:
                    non.update(
                        t for t in range(d + 1, eta) if t not in f.detail
                    )
        return members, non

    def property_holds(self, subject, name, c=None) -> bool | None:
        for f in self.for_subject(subject):
            if f.kind == KIND_PROPERTY and f.detail[0] == name:
                if name == "D0" and c is not None and f.detail[2] != c:
                    continue
                return f.detail[1]
        return None

    def _check_consistent(self, fact: Fact) -> None:
        for other in self._by_subject.get(fact.subject, ()):
            rule = _CONFLICTS.get((fact.kind, other.kind))
            if rule is not None and rule[0](fact.detail, other.detail):
                raise FactConflictError(
                    f"fact {fact.payload()} contradicts {other.payload()}: {rule[1]}"
                )

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        lines = []
        for fid in sorted(self.facts):
            f = self.facts[fid]
            lines.append(json.dumps({"id": fid, **f.payload()}, sort_keys=True))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def load(cls, path) -> FactStore:
        """Read what save wrote.  A malformed line, or one whose stored id is
        missing or is not its fact's id, raises ValueError naming the line: an
        edited line (a derived claim marked cited, say) must not load as a
        new fact."""
        store = cls()
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    fact, stored = Fact.from_payload(data), data.get("id")
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(f"{path}, line {number}: malformed fact ({exc!r})") from None
                if stored != fact.fact_id:
                    raise ValueError(
                        f"{path}, line {number}: stored id {stored!r} is not the fact's id"
                        f" {fact.fact_id}"
                    )
                store.add(fact)
        return store


# -- closed-form evaluators --------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def _prime_power(n: int) -> tuple[int, int] | None:
    for p in range(2, n + 1):
        if n % p == 0:
            if not _is_prime(p):
                return None
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            return (p, e) if n == 1 else None
    return None


def _egz_fraction(n: int, scale: int) -> Fraction:
    _require(n >= 65 and n % 2 == 1, "threshold requires odd n >= 65")
    return Fraction(scale * 5**7 * n**17, (n * n - 7) * n - 64)


_FORMULAS: dict[str, Callable[..., int]] = {}


def _formula(name: str):
    def deco(fn):
        _FORMULAS[name] = fn
        return fn

    return deco


@_formula("davenport_rank2")
def _f_davenport_rank2(n1: int, n2: int) -> int:
    _require(n2 % n1 == 0 and n1 >= 2, "requires n1 | n2")
    return n1 + n2 - 1


@_formula("davenport_p_group")
def _f_davenport_p_group(p: int, exponents: tuple[int, ...]) -> int:
    _require(_is_prime(p), "p must be prime")
    return 1 + sum(p**e - 1 for e in exponents)


@_formula("davenport_pn_product")
def _f_davenport_pn_product(m: int, p: int, n: int, d_h: int) -> int:
    _require(_is_prime(p) and p**n >= d_h, "requires p prime and p^n >= D(H)")
    return m * p**n + d_h - 1


@_formula("eta_rank2")
def _f_eta_rank2(n1: int, n2: int) -> int:
    _require(n2 % n1 == 0 and n1 >= 2, "requires n1 | n2")
    return 2 * n1 + n2 - 2


@_formula("eta_two_power")
def _f_eta_two_power(t: int, r: int) -> int:
    _require(t >= 1 and r >= 1, "requires t, r >= 1")
    return (2**r - 1) * (2**t - 1) + 1


@_formula("eta_three_two_power")
def _f_eta_three_two_power(alpha: int) -> int:
    _require(alpha >= 1, "requires alpha >= 1")
    return 7 * (3 * 2**alpha - 1) + 1


@_formula("eta_upper_pn_product")
def _f_eta_upper_pn_product(m: int, p: int, n: int, d_h: int) -> int:
    _require(_is_prime(p) and p**n >= d_h, "requires p prime and p^n >= D(H)")
    return m * p**n + p**n + d_h - 2


@_formula("eta_lower_rank3_odd")
def _f_eta_lower_rank3_odd(n: int) -> int:
    _require(n >= 3 and n % 2 == 1, "requires odd n >= 3")
    return 8 * n - 7


@_formula("eta_lower_rank4_odd")
def _f_eta_lower_rank4_odd(n: int) -> int:
    _require(n >= 3 and n % 2 == 1, "requires odd n >= 3")
    return 19 * n - 18


@_formula("davenport_lower_rank3")
def _f_davenport_lower_rank3(n: int) -> int:
    _require(n >= 2, "requires n >= 2")
    return 3 * n - 2


@_formula("excluded_interval_start")
def _f_excluded_interval_start(n: int, r: int) -> int:
    _require(n >= 3 and r >= 3, "requires n, r >= 3")
    a = alpha_r(n, r).value
    _require(a != 0, "requires alpha_r(n, r) != 0")
    return (2**r - 1) * (n - 1) - a + 1


@_formula("egz_threshold")
def _f_egz_threshold(n: int) -> int:
    return math.ceil(_egz_fraction(n, 2))


@_formula("egz_transfer_threshold")
def _f_egz_transfer_threshold(n: int) -> int:
    return math.ceil(_egz_fraction(n, 6)) + 3


@_formula("egz_value")
def _f_egz_value(m: int, n: int) -> int:
    _require(m >= 1 and n >= 1, "requires m, n >= 1")
    return 9 * m * n - 8


@_formula("s_lower_from_eta")
def _f_s_lower_from_eta(eta: int, exp: int) -> int:
    return eta + exp - 1


def eval_formula(name: str, **params) -> int:
    """Evaluate a named closed form; raises ValueError outside its hypothesis."""
    if name not in _FORMULAS:
        raise ValueError(f"unknown formula {name!r}; known: {sorted(_FORMULAS)}")
    return _FORMULAS[name](**params)


# -- builtin facts ---------------------------------------------------------------


def _cited(subject, kind, detail, reference) -> Fact:
    return Fact(tuple(subject), kind, tuple(detail), Provenance("cited", reference))


def _paper(subject, kind, detail, reference) -> Fact:
    return Fact(tuple(subject), kind, tuple(detail), Provenance("paper", reference))


def _p_group_exponents(moduli: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """(p, exponents) when every modulus is a power of one prime p."""
    pe = _prime_power(moduli[0])
    if pe is None:
        return None
    p = pe[0]
    exps = []
    for m in moduli:
        q = _prime_power(m)
        if q is None or q[0] != p:
            return None
        exps.append(q[1])
    return p, tuple(exps)


def instantiate_for(moduli: Iterable[int]) -> list[Fact]:
    """All builtin (cited or in-text) facts applicable to one presentation."""
    subject = tuple(moduli)
    out: list[Fact] = []
    uniform = len(set(subject)) == 1
    n = subject[0] if uniform else None
    r = len(subject)

    pg = _p_group_exponents(subject)
    if pg is not None:
        p, exps = pg
        out.append(
            _cited(subject, KIND_INVARIANT,
                   ("D", eval_formula("davenport_p_group", p=p, exponents=exps)),
                   "p-group Davenport constant [Olson]")
        )

    if r == 2:
        n1, n2 = sorted(subject)
        if n2 % n1 == 0:
            out.append(
                _cited(subject, KIND_INVARIANT,
                       ("D", eval_formula("davenport_rank2", n1=n1, n2=n2)),
                       "rank-2 Davenport constant [Olson]")
            )
            out.append(
                _cited(subject, KIND_INVARIANT,
                       ("eta", eval_formula("eta_rank2", n1=n1, n2=n2)),
                       "rank-2 eta [GZ]")
            )
            if n1 >= 3:
                out.append(_paper(subject, KIND_FULL_RANGE, (), "rank-2 determination"))
            elif n1 == 2:
                out.append(_paper(subject, KIND_EQUALS, (), "excluded family C2+C2m"))
        pp = _prime_power(n1) if n1 == n2 else None
        if pp is not None and n1 >= 3:
            # length window [2q, 3q-2] clipped to the C0 range [D+1, eta-1]
            for t in range(2 * n1, 3 * n1 - 2):
                out.append(_paper(subject, KIND_MEMBER, (t,), "prime-power square theorem"))

    if uniform and r >= 1:
        pp = _prime_power(n)
        if pp is not None and pp[0] == 2:
            t = pp[1]
            out.append(
                _cited(subject, KIND_INVARIANT,
                       ("eta", eval_formula("eta_two_power", t=t, r=r)),
                       "eta for two-power cubes [Harborth]")
            )
            if r >= 2:
                out.append(_cited(subject, KIND_PROPERTY, ("C", True), "two-power cubes have C [GHST]"))
        if n == 3:
            if r >= 2:
                out.append(_cited(subject, KIND_PROPERTY, ("C", True), "ternary cubes have C [Harborth]"))
            if r == 3:
                out.append(_cited(subject, KIND_INVARIANT, ("eta", 17), "eta(C3^3) [Kemnitz]"))
                out.append(_cited(subject, KIND_INVARIANT, ("f", 9), "eta = 2f - 1 [Harborth]"))
            if r == 4:
                out.append(_cited(subject, KIND_INVARIANT, ("eta", 39), "eta(C3^4) [Kemnitz]"))
                out.append(_cited(subject, KIND_INVARIANT, ("f", 20), "eta = 2f - 1 [Harborth]"))
                out.append(_cited(subject, KIND_INVARIANT, ("g", 21), "maximum rank-4 ternary cap [affine caps]"))
        if n == 5 and r == 3:
            out.append(_cited(subject, KIND_INVARIANT, ("eta", 33), "eta(C5^3) [GHST]"))
            out.append(_cited(subject, KIND_PROPERTY, ("C", True), "C5^3 has C [GHST]"))
        if r == 3 and n % 3 == 0:
            alpha = 0
            k = n // 3
            while k % 2 == 0:
                k //= 2
                alpha += 1
            if k == 1 and alpha >= 1:
                out.append(
                    _cited(subject, KIND_INVARIANT,
                           ("eta", eval_formula("eta_three_two_power", alpha=alpha)),
                           "eta for 3*2^a cubes [GHST]")
                )
        if r == 3:
            out.append(
                _cited(subject, KIND_LOWER, ("D", eval_formula("davenport_lower_rank3", n=n)),
                       "rank-3 Davenport lower bound [Olson]")
            )
            if n % 2 == 1 and n >= 3:
                out.append(
                    _cited(subject, KIND_LOWER,
                           ("eta", eval_formula("eta_lower_rank3_odd", n=n)),
                           "rank-3 eta lower bound [Lower bounds]")
                )
        if r == 4 and n % 2 == 1 and n >= 3:
            out.append(
                _cited(subject, KIND_LOWER,
                       ("eta", eval_formula("eta_lower_rank4_odd", n=n)),
                       "rank-4 eta lower bound [affine caps]")
            )
        if n == 2 and r >= 3:
            out.append(
                _paper(subject, KIND_EQUALS, (2**r - 3, 2**r - 2), "binary cube determination")
            )
        if n == 3 and r == 3:
            out.append(_paper(subject, KIND_MEMBER, (14,), "length-14 zero-sum theorem"))
            out.append(_paper(subject, KIND_MEMBER, (15,), "near-extremal membership"))
        if n == 3 and r == 4:
            out.append(_paper(subject, KIND_MEMBER, (37,), "near-extremal membership"))
            out.append(_paper(subject, KIND_MEMBER, (38,), "near-extremal membership"))
            out.append(_paper(subject, KIND_EQUALS, (37, 38), "rank-4 ternary determination"))
        if uniform and _is_prime(n) and n in (5, 7, 11, 13) and r == 3:
            out.append(
                _cited(subject, KIND_PROPERTY, ("D0", True, 9), "small-prime cubes have D0 wrt 9 [FGZ]")
            )
    return out


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
    subject = tuple(
        int(x) for x in _moduli_from_spec(claim.get("group", cert.group_spec))
    )
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


def _moduli_from_spec(spec: str) -> tuple[int, ...]:
    from .group import parse_group_spec

    return parse_group_spec(spec).moduli


# -- inference rules -----------------------------------------------------------


def _rule_fact(subject, kind, detail, rule_id, premises) -> Fact:
    return Fact(
        tuple(subject), kind, tuple(detail), Provenance("rule", rule_id, tuple(premises))
    )


def _uniform(subject) -> tuple[int, int] | None:
    if len(set(subject)) == 1:
        return subject[0], len(subject)
    return None


def _invariant_fact(store: FactStore, subject, name: str) -> tuple[int, str] | None:
    """The first stored value of invariant `name` for the subject, with its fact id."""
    for f in store.for_subject(subject):
        if f.kind == KIND_INVARIANT and f.detail[0] == name:
            return f.detail[1], f.fact_id
    return None


def _property_fact(store: FactStore, subject, name, c=None) -> tuple[bool, str] | None:
    for f in store.for_subject(subject):
        if f.kind == KIND_PROPERTY and f.detail[0] == name and f.detail[1]:
            if name == "D0" and c is not None and f.detail[2] != c:
                continue
            return f.detail[1], f.fact_id
    return None


def _member_ids(store: FactStore, subject) -> dict[int, str]:
    out: dict[int, str] = {}
    for f in store.for_subject(subject):
        if f.kind == KIND_MEMBER:
            out.setdefault(f.detail[0], f.fact_id)
        elif f.kind == KIND_EQUALS:
            for t in f.detail:
                out.setdefault(t, f.fact_id)
    return out


def _ratio(eta_value: int, n: int) -> int | None:
    if (eta_value - 1) % (n - 1):
        return None
    return (eta_value - 1) // (n - 1)


def _rule_r1(store: FactStore) -> list[Fact]:
    """eta = c(n-1)+1, c <= n, Property C  =>  eta-1 in C0."""
    out = []
    for subject in store.subjects():
        u = _uniform(subject)
        if u is None:
            continue
        n, _ = u
        eta = _invariant_fact(store, subject, "eta")
        prop = _property_fact(store, subject, "C")
        if eta is None or prop is None:
            continue
        value, eta_id = eta
        c = _ratio(value, n)
        if c is not None and c <= n and not store.has_statement(subject, KIND_MEMBER, (value - 1,)):
            out.append(
                _rule_fact(subject, KIND_MEMBER, (value - 1,), "R1", (eta_id, prop[1]))
            )
    return out


def _uniform_products(store: FactStore):
    """Pairs of cubes C_m^r, C_n^r on file whose product C_mn^r is on file too.

    Yields (s1, m, eta1, s2, n, eta2, target, eta_t) in subject order, s1 then
    s2, for the pairs where eta of both factors is on file; each eta is
    (value, fact id), and eta_t, the target's, may be None.  Each subject's
    eta is looked up once per call.
    """
    uniforms = [
        (s, s[0], len(s), _invariant_fact(store, s, "eta"))
        for s in store.subjects() if _uniform(s)
    ]
    by_key = {(n, r): (s, eta) for s, n, r, eta in uniforms}
    for s1, m, r, eta1 in uniforms:
        if eta1 is None:
            continue
        for s2, n, r2, eta2 in uniforms:
            if r2 != r or eta2 is None:
                continue
            target = by_key.get((m * n, r))
            if target is not None:
                yield (s1, m, eta1, s2, n, eta2, *target)


def _transfer_rules(store: FactStore, rule_id: str) -> list[Fact]:
    """Shared body of R2 (ratio form) and R9 (subgroup equality form)."""
    out = []
    for _, n1, eta1, s2, n2, eta2, target, eta_t in _uniform_products(store):
        if eta_t is None:
            continue
        if rule_id == "R2":
            c1 = _ratio(eta1[0], n1)
            if c1 is None or c1 != _ratio(eta2[0], n2) or c1 != _ratio(eta_t[0], n1 * n2):
                continue
        else:  # R9: eta(G) = (eta(H)-1) exp(G/H) + eta(G/H)
            if eta_t[0] != (eta1[0] - 1) * n2 + eta2[0]:
                continue
        prop = _property_fact(store, s2, "C")
        if prop is None:
            continue
        members = _member_ids(store, s2)
        t2 = 1 if (eta2[0] - 1) in members else (2 if (eta2[0] - 2) in members else None)
        if t2 is None or t2 > n2 - 1:
            continue
        t1 = t2
        while (
            t1 + 1 <= n2 - 1
            and (eta2[0] - (t1 + 1)) in members
        ):
            t1 += 1
        premises = [eta1[1], eta2[1], eta_t[1], prop[1]]
        premises += [members[eta2[0] - k] for k in range(t2, t1 + 1)]
        for k in range(t2, t1 + 1):
            t = eta_t[0] - k
            if not store.has_statement(target, KIND_MEMBER, (t,)):
                out.append(_rule_fact(target, KIND_MEMBER, (t,), rule_id, premises))
    return out


def _rule_r2(store: FactStore) -> list[Fact]:
    return _transfer_rules(store, "R2")


def _rule_r9(store: FactStore) -> list[Fact]:
    return _transfer_rules(store, "R9")


def _rule_r3(store: FactStore) -> list[Fact]:
    """C0 of C_n^r lies in a short window below eta."""
    out = []
    for subject in store.subjects():
        u = _uniform(subject)
        if u is None:
            continue
        n, r = u
        if n < 3 or r < 3:
            continue
        a = alpha_r(n, r).value
        span = (2**r - 1) * (n - 1)
        if a != 0:
            eta = _invariant_fact(store, subject, "eta")
            if eta is None:
                continue
            detail = (span - a + 1, eta[0] - 1)
            if not store.has_statement(subject, KIND_SUBSET, detail):
                out.append(_rule_fact(subject, KIND_SUBSET, detail, "R3", (eta[1],)))
        else:
            detail = (span - n, span - n + 1)
            if not store.has_statement(subject, KIND_SUBSET_SET, detail):
                out.append(_rule_fact(subject, KIND_SUBSET_SET, detail, "R3", ()))
    return out


def _rule_r4(store: FactStore) -> list[Fact]:
    """[D+1, min(2 exp + 1, eta - 1)] lies inside C0."""
    out = []
    for subject in store.subjects():
        d = _invariant_fact(store, subject, "D")
        eta = _invariant_fact(store, subject, "eta")
        if d is None or eta is None:
            continue
        exp = _exp_of(subject)
        hi = min(2 * exp + 1, eta[0] - 1)
        for t in range(d[0] + 1, hi + 1):
            if not store.has_statement(subject, KIND_MEMBER, (t,)):
                out.append(_rule_fact(subject, KIND_MEMBER, (t,), "R4", (d[1], eta[1])))
    return out


def _rule_r5(store: FactStore) -> list[Fact]:
    """eta(C_mn^r) <= (eta(C_m^r) - 1) n + eta(C_n^r), for targets on file."""
    out = []
    for _, _, eta1, _, n, eta2, target, eta_t in _uniform_products(store):
        bound = (eta1[0] - 1) * n + eta2[0]
        if eta_t is not None and eta_t[0] <= bound:
            continue
        if not store.has_statement(target, KIND_UPPER, ("eta", bound)):
            out.append(
                _rule_fact(target, KIND_UPPER, ("eta", bound), "R5", (eta1[1], eta2[1]))
            )
    return out


def _rule_r6(store: FactStore) -> list[Fact]:
    """Property C is multiplicative under the exact eta ratio equalities."""
    out = []
    for s1, m, eta1, s2, n, eta2, target, eta_t in _uniform_products(store):
        p1, p2 = _property_fact(store, s1, "C"), _property_fact(store, s2, "C")
        if None in (eta_t, p1, p2):
            continue
        c1 = _ratio(eta1[0], m)
        if c1 is None or c1 != _ratio(eta2[0], n) or c1 != _ratio(eta_t[0], m * n):
            continue
        if not store.has_statement(target, KIND_PROPERTY, ("C", True)):
            out.append(
                _rule_fact(
                    target, KIND_PROPERTY, ("C", True), "R6",
                    (eta1[1], eta2[1], eta_t[1], p1[1], p2[1]),
                )
            )
    return out


def _rule_r7(store: FactStore) -> list[Fact]:
    """Matching eta ratios plus a meeting lower bound pin eta of the product."""
    out = []
    for _, m, eta1, _, n, eta2, target, eta_t in _uniform_products(store):
        c = _ratio(eta1[0], m)
        if c is None or _ratio(eta2[0], n) != c or eta_t is not None:
            continue
        value = c * (m * n - 1) + 1
        lower_id = None
        for f in store.for_subject(target):
            if f.kind == KIND_LOWER and f.detail[0] == "eta" and f.detail[1] >= value:
                lower_id = f.fact_id
                break
        if lower_id is None:
            continue
        if not store.has_statement(target, KIND_INVARIANT, ("eta", value)):
            out.append(
                _rule_fact(target, KIND_INVARIANT, ("eta", value), "R7",
                           (eta1[1], eta2[1], lower_id))
            )
    return out


def _odd_prime_divisors(n: int) -> list[int]:
    primes = []
    p = 3
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        primes.append(n)
    return primes


def _smooth_splits(k: int):
    """Splits k = m * n with m a {3,5}-smooth divisor and n >= 65 odd."""
    a = b = 0
    w = k
    while w % 3 == 0:
        w //= 3
        a += 1
    while w % 5 == 0:
        w //= 5
        b += 1
    for i in range(min(a, 8) + 1):
        for j in range(min(b, 8) + 1):
            n = w * 3**i * 5**j
            m = k // n
            if m >= 2 and n >= 65 and n % 2 == 1:
                yield m, n


def _rule_r8(store: FactStore) -> list[Fact]:
    """EGZ value for C_k^3 under the smooth-part threshold and D0 premises.

    Emits s(C_k^3) = 9k - 8 together with the induced eta upper bound
    s - exp + 1 (the eta/s inequality is encoded here as rule arithmetic).
    """
    out = []
    for subject in store.subjects():
        u = _uniform(subject)
        if u is None or u[1] != 3:
            continue
        k = u[0]
        for m, n in _smooth_splits(k):
            premises = []
            for q in _odd_prime_divisors(n):
                prop = _property_fact(store, (q, q, q), "D0", c=9)
                if prop is None:
                    premises = None
                    break
                premises.append(prop[1])
            if premises is None or Fraction(m) < _egz_fraction(n, 2):
                continue
            s_value = eval_formula("egz_value", m=m, n=n)
            if not store.has_statement(subject, KIND_INVARIANT, ("s", s_value)):
                out.append(
                    _rule_fact(subject, KIND_INVARIANT, ("s", s_value), "R8", premises)
                )
            eta_upper = s_value - k + 1
            if _invariant_fact(store, subject, "eta") is None and not store.has_statement(
                subject, KIND_UPPER, ("eta", eta_upper)
            ):
                out.append(
                    _rule_fact(subject, KIND_UPPER, ("eta", eta_upper), "R8", premises)
                )
            break
    return out


def _rule_r10(store: FactStore) -> list[Fact]:
    """Consistency: a nonzero-sum extremal short-free sequence forbids two
    adjacent memberships right below eta."""
    for subject in store.subjects():
        exists = None
        for f in store.for_subject(subject):
            if f.kind == KIND_EXTREMAL_NONZERO and f.detail[0]:
                exists = f
        if exists is None:
            continue
        eta = _invariant_fact(store, subject, "eta")
        if eta is None:
            continue
        members, _ = store.membership(subject)
        for a, b in ((2, 3), (3, 4)):
            if eta[0] - a in members and eta[0] - b in members:
                raise FactConflictError(
                    f"subject {subject}: both eta-{a} and eta-{b} in C0 although an "
                    "extremal short-free sequence with nonzero sum exists"
                )
    return []


def _closure_bounds_meet(store: FactStore) -> list[Fact]:
    """Lower bound == upper bound pins the invariant value (definitional)."""
    out = []
    for subject in store.subjects():
        lowers: dict[str, tuple[int, str]] = {}
        uppers: dict[str, tuple[int, str]] = {}
        values = set()
        for f in store.for_subject(subject):
            if f.kind == KIND_LOWER:
                name, v = f.detail
                if name not in lowers or v > lowers[name][0]:
                    lowers[name] = (v, f.fact_id)
            elif f.kind == KIND_UPPER:
                name, v = f.detail
                if name not in uppers or v < uppers[name][0]:
                    uppers[name] = (v, f.fact_id)
            elif f.kind == KIND_INVARIANT:
                values.add(f.detail[0])
        for name in lowers:
            if name in uppers and name not in values:
                lo, lo_id = lowers[name]
                hi, hi_id = uppers[name]
                if lo == hi:
                    out.append(
                        _rule_fact(subject, KIND_INVARIANT, (name, lo), "bounds-meet",
                                   (lo_id, hi_id))
                    )
    return out


def _closure_full_range(store: FactStore) -> list[Fact]:
    """c0_full_range plus known D and eta values yields the explicit set."""
    out = []
    for subject in store.subjects():
        fr = None
        for f in store.for_subject(subject):
            if f.kind == KIND_FULL_RANGE:
                fr = f
        if fr is None:
            continue
        d = _invariant_fact(store, subject, "D")
        eta = _invariant_fact(store, subject, "eta")
        if d is None or eta is None:
            continue
        detail = tuple(range(d[0] + 1, eta[0]))
        if not store.has_statement(subject, KIND_EQUALS, detail):
            out.append(
                _rule_fact(subject, KIND_EQUALS, detail, "range-close",
                           (fr.fact_id, d[1], eta[1]))
            )
    return out


_RULES: dict[str, Callable[[FactStore], list[Fact]]] = {
    "R1": _rule_r1,
    "R2": _rule_r2,
    "R3": _rule_r3,
    "R4": _rule_r4,
    "R5": _rule_r5,
    "R6": _rule_r6,
    "R7": _rule_r7,
    "R8": _rule_r8,
    "R9": _rule_r9,
    "R10": _rule_r10,
}


def infer(store: FactStore, rules: Iterable[str] | None = None, max_rounds: int = 3) -> list[Fact]:
    """Apply the inference rules to a fixpoint or max_rounds; returns new facts.

    New subjects introduced by product rules get their builtin facts
    instantiated automatically so chains like ratio+lower-bound can close.
    """
    rule_ids = tuple(rules) if rules is not None else RULE_IDS
    for rid in rule_ids:
        if rid not in _RULES:
            raise ValueError(f"unknown rule {rid!r}")
    added: list[Fact] = []
    for _ in range(max_rounds):
        fresh: list[Fact] = []
        for rid in rule_ids:
            fresh.extend(_RULES[rid](store))
        fresh.extend(_closure_bounds_meet(store))
        fresh.extend(_closure_full_range(store))
        new_subjects = set()
        new_count = 0
        for fact in fresh:
            if not store.has_statement(*fact.statement()):
                if fact.subject not in store._by_subject:
                    new_subjects.add(fact.subject)
                store.add(fact)
                added.append(fact)
                new_count += 1
        for subject in sorted(new_subjects):
            for fact in instantiate_for(subject):
                if not store.has_statement(*fact.statement()):
                    store.add(fact)
                    added.append(fact)
        if new_count == 0:
            break
    return added


# -- consistency report -----------------------------------------------------------


@dataclass
class ConsistencyReport:
    checked_subjects: int = 0
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
        report.checked_subjects += 1
        exp = _exp_of(subject)
        eta = store.invariant_value(subject, "eta")
        d = store.invariant_value(subject, "D")
        members, _ = store.membership(subject)
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
    try:
        _rule_r10(store)
    except FactConflictError as exc:
        report.violations.append(str(exc))
    return report
