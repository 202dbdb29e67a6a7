"""Krull dimension of k[x]/I and of subquotient modules.

Two independent routes are provided: exhaustive maximal-independent-set
search over the leading-term ideal, and the pole order of the Hilbert
series at t = 1.  Their agreement is itself a test surface.

The dimension of the zero module is the sentinel NEG_INF, which compares
below every integer so that "dim < m" behaves uniformly for all m >= 0.
"""
from __future__ import annotations

from itertools import combinations

from .poly import DEGREVLEX, mono_deg
from .groebner import Ideal, ideal_quotient

NEG_INF = float("-inf")


def _lt_supports(I: Ideal):
    """Support sets of the leading monomials of the reduced degrevlex GB.

    Returns None when I is the unit ideal.
    """
    gb = I.groebner(DEGREVLEX)
    supports = []
    for g in gb:
        lt, _ = g.leading(DEGREVLEX)
        if mono_deg(lt) == 0:
            return None
        supports.append(frozenset(i for i, e in enumerate(lt) if e))
    return supports


def krull_dim_with_set(I: Ideal):
    """(dimension, lexicographically first maximal independent variable set).

    A variable subset S is independent when no leading monomial of GB(I)
    is supported entirely inside S.
    """
    supports = _lt_supports(I)
    if supports is None:
        return NEG_INF, ()
    n = len(I.vars)
    for size in range(n, -1, -1):
        for combo in combinations(range(n), size):
            s = set(combo)
            if not any(sup <= s for sup in supports):
                return size, combo
    raise AssertionError("unreachable: the empty set is always independent")


def krull_dim(I: Ideal):
    """Krull dimension of k[vars]/I; NEG_INF for the unit ideal."""
    return krull_dim_with_set(I)[0]


def _poly_sub(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_shift(a: list, d: int) -> list:
    return [0] * d + a if a else []


def _minimalize(monos):
    monos = set(monos)
    out = []
    for m in monos:
        if any(other != m and all(o <= e for o, e in zip(other, m)) for other in monos):
            continue
        out.append(m)
    return frozenset(out)


def _hilbert_numerator(gens: frozenset, cache: dict) -> list:
    """Numerator of the Hilbert series of R/<gens> over (1-t)^n.

    Uses the exact sequence
    0 -> R/(I':m)(-deg m) -> R/I' -> R/(I'+(m)) -> 0.
    """
    if gens in cache:
        return cache[gens]
    if not gens:
        result = [1]
    elif any(mono_deg(m) == 0 for m in gens):
        result = []
    else:
        pivot = max(gens, key=lambda m: (mono_deg(m), m))
        rest = frozenset(gens - {pivot})
        colon = _minimalize(
            tuple(max(e - p, 0) for e, p in zip(m, pivot)) for m in rest
        )
        n_rest = _hilbert_numerator(rest, cache)
        n_colon = _hilbert_numerator(colon, cache)
        result = _poly_sub(n_rest, _poly_shift(n_colon, mono_deg(pivot)))
    cache[gens] = result
    return result


def hilbert_dim_oracle(I: Ideal):
    """Dimension as the pole order at t = 1 of the Hilbert series of LT(I)."""
    gb = I.groebner(DEGREVLEX)
    lts = frozenset(g.leading(DEGREVLEX)[0] for g in gb)
    numerator = _hilbert_numerator(_minimalize(lts), {})
    if not numerator:
        return NEG_INF
    n = len(I.vars)
    mult = 0
    while sum(numerator) == 0:
        # synthetic division by (1 - t)
        quotient = []
        acc = 0
        for c in numerator:
            acc += c
            quotient.append(acc)
        quotient.pop()  # trailing zero from exact division
        while quotient and quotient[-1] == 0:
            quotient.pop()
        numerator = quotient
        mult += 1
        if not numerator:
            raise AssertionError("Hilbert numerator vanished unexpectedly")
    return n - mult


def module_dim(S: Ideal, I: Ideal):
    """Dimension of the subquotient S/I for I ⊆ S (containment checked).

    dim(S/I) = max over generators s of S of dim k[x]/(I : s);
    NEG_INF when S ⊆ I.
    """
    for g in I.gens:
        if not S.contains(g):
            raise ValueError("module_dim requires I ⊆ S")
    # (I : s) is the unit ideal, of dimension NEG_INF, when s ∈ I
    return max((krull_dim(ideal_quotient(I, s)) for s in S.gens), default=NEG_INF)
