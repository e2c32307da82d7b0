"""Answer checks that share no code with the library under test.

A sequence is read from the library's text format (one `(a,b,...) x m` line
per distinct term) into a list of coordinate tuples, and every property is
decided by enumerating the sums of all subsequences, grouped by length.
Nothing here imports `zerosum`.
"""

from __future__ import annotations

import math
import re

_TERM_RE = re.compile(r"^\((-?\d+(?:,-?\d+)*)\)(?: x (\d+))?$")


def parse_terms(text: str, moduli: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Expand a serialized sequence into its terms, reduced mod `moduli`."""
    terms: list[tuple[int, ...]] = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("group:"):
            continue
        m = _TERM_RE.match(line)
        if m is None:
            raise ValueError(f"unparsable term line {line!r}")
        raw = m.group(1).split(",")
        if len(raw) != len(moduli):
            raise ValueError(f"term {line!r} has the wrong rank for {moduli}")
        coords = tuple(int(c) % q for c, q in zip(raw, moduli))
        terms.extend([coords] * int(m.group(2) or 1))
    return terms


def _sums_by_length(terms, moduli, cap: int) -> list[set]:
    """levels[c] holds the sum of every subsequence of exactly c terms, c <= cap."""
    zero = (0,) * len(moduli)
    levels = [{zero}] + [set() for _ in range(cap)]
    for pos, t in enumerate(terms):
        for c in range(min(cap, pos + 1), 0, -1):
            levels[c] |= {
                tuple((a + b) % q for a, b, q in zip(s, t, moduli)) for s in levels[c - 1]
            }
    return levels


def is_zero_sum(terms, moduli) -> bool:
    return all(sum(t[i] for t in terms) % q == 0 for i, q in enumerate(moduli))


def zero_sum_lengths(terms, moduli, lo: int, hi: int) -> list[int]:
    """Lengths c in [lo, hi] at which some subsequence of c terms sums to zero."""
    hi = min(hi, len(terms))
    if hi < lo:
        return []
    zero = (0,) * len(moduli)
    levels = _sums_by_length(terms, moduli, hi)
    return [c for c in range(lo, hi + 1) if zero in levels[c]]


def exponent(moduli) -> int:
    return math.lcm(*moduli)


def short_free(terms, moduli) -> bool:
    """No nonempty zero-sum subsequence of length at most exp(G)."""
    return not zero_sum_lengths(terms, moduli, 1, exponent(moduli))


def zero_sum_free(terms, moduli) -> bool:
    return not zero_sum_lengths(terms, moduli, 1, len(terms))


def no_zero_sum_of_length(terms, moduli, n: int) -> bool:
    return not zero_sum_lengths(terms, moduli, n, n)


def squarefree(terms) -> bool:
    return len(set(terms)) == len(terms)


def extremal_witness_problems(kind: str, text: str, moduli, length: int) -> list[str]:
    """Check that `text` is a sequence of `length` terms avoiding the kind's pattern.

    D: zero-sum free; eta and f: short free; s and g: no zero-sum of length
    exactly exp(G); f and g are also square-free.
    """
    terms = parse_terms(text, moduli)
    out = []
    if len(terms) != length:
        out.append(f"witness has {len(terms)} terms, expected {length}")
    if kind in ("f", "g") and not squarefree(terms):
        out.append("witness is not square-free")
    if kind == "D":
        ok = zero_sum_free(terms, moduli)
    elif kind in ("eta", "f"):
        ok = short_free(terms, moduli)
    else:
        ok = no_zero_sum_of_length(terms, moduli, exponent(moduli))
    if not ok:
        out.append(f"witness contains the zero-sum pattern that {kind} forbids")
    return out


def zero_sum_short_free_problems(text: str, moduli, length: int) -> list[str]:
    """Check a C0 counterexample: zero-sum, short free, exactly `length` terms."""
    terms = parse_terms(text, moduli)
    out = []
    if len(terms) != length:
        out.append(f"witness has {len(terms)} terms, expected {length}")
    if not is_zero_sum(terms, moduli):
        out.append("witness does not sum to zero")
    if not short_free(terms, moduli):
        out.append("witness has a short zero-sum subsequence")
    return out
