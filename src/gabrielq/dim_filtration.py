"""Dimension filtration: unmixed splitting and the g-saturation sat_g.

sat_g(I)/I is exactly the torsion submodule of R/I for the m-Gabriel
filter: sat_g(I) = { r : (I : r) has dimension < m }.  The splitting is
factorization-free pseudo-primary peeling; correctness is enforced a
posteriori by the V1/V2 post-conditions rather than by the algorithm's
pedigree, so any violation is an internal error, never a silent result.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .poly import DEGREVLEX, Polynomial, elimination_order
from .groebner import (
    Ideal,
    InternalCheckError,
    ideal_intersect,
    ideal_quotient,
    ideal_sum,
    saturate,
)
from .dimension import NEG_INF, krull_dim, krull_dim_with_set

_MAX_PEELS = 100


@dataclass
class SplitPiece:
    ideal: Ideal
    dim: object  # int or NEG_INF
    independent_set: tuple  # variable names
    multiplier: Polynomial  # separating h
    exponent: int  # saturation exponent s


def _leading_coeff_factors(I: Ideal, indep: tuple[int, ...]) -> list[Polynomial]:
    """Leading coefficients over GB(I) in Q[indep][rest], deduplicated.

    GB is taken under the order eliminating the non-independent variables;
    each element is viewed as a polynomial in the non-independent variables
    with coefficients in the subring on the independent set.  Constant
    coefficients are dropped; the separating multiplier is the product of
    the returned factors (or 1 when there are none).
    """
    vars = I.vars
    n = len(vars)
    dep = tuple(i for i in range(n) if i not in indep)
    order = elimination_order(dep) if dep else DEGREVLEX
    gb = I.groebner(order)
    factors: list[Polynomial] = []
    seen = set()
    for g in gb:
        # outer monomial = exponents on the dependent variables
        lt, _ = g.leading(order)
        outer = tuple(lt[i] for i in dep)
        coeff_terms = {}
        for m, c in g.terms.items():
            if tuple(m[i] for i in dep) == outer:
                inner = tuple(m[i] if i not in dep else 0 for i in range(n))
                coeff_terms[inner] = c
        f = Polynomial(vars, coeff_terms)
        if f.is_constant:
            continue
        f = f.monic(DEGREVLEX)
        key = tuple(sorted(f.terms.items()))
        if key not in seen:
            seen.add(key)
            factors.append(f)
    return factors


def unmixed_split(I: Ideal) -> list[SplitPiece]:
    """Peel I into h-saturated pieces of recorded dimension.

    The intersection of the pieces equals I (verified by GB equality).
    """
    if I.is_unit:
        raise ValueError("cannot split the unit ideal")
    pieces: list[SplitPiece] = []
    current = I
    for _ in range(_MAX_PEELS):
        d, indep = krull_dim_with_set(current)
        names = tuple(current.vars[i] for i in indep)
        factors = _leading_coeff_factors(current, indep)
        if not factors:
            pieces.append(SplitPiece(current, d, names, Polynomial.one(I.vars), 0))
            break
        h = Polynomial.one(I.vars)
        for f in factors:
            h = h * f
        T, s = saturate(current, *factors)
        if T.equals(current):
            # already h-saturated: unmixed over this independent set
            pieces.append(SplitPiece(current, d, names, h, s))
            break
        if T.is_unit:
            raise InternalCheckError("saturation piece became the unit ideal")
        dT = krull_dim(T)
        pieces.append(SplitPiece(T, dT, names, h, s))
        residual = ideal_sum(current, Ideal(I.vars, (h ** max(s, 1),)))
        if residual.equals(current):
            raise InternalCheckError("splitting made no progress")
        if residual.is_unit:
            break
        current = residual
    else:
        raise InternalCheckError("splitting did not terminate")

    # prune pieces the peeling emitted redundantly (the residual chain can
    # overshoot components already covered); later pieces go first.  After
    # a prune, `pruned` is the intersection of the remaining pieces.
    pruned = None
    for i in range(len(pieces) - 1, -1, -1):
        if len(pieces) == 1:
            break
        meet = reduce(ideal_intersect,
                      [p.ideal for j, p in enumerate(pieces) if j != i])
        if meet.equals(I):
            pieces.pop(i)
            pruned = meet

    meet = pruned
    if meet is None:
        meet = reduce(ideal_intersect, [p.ideal for p in pieces])
    if not meet.equals(I):
        raise InternalCheckError("piece intersection differs from the input ideal")
    return pieces


def sat_g(I: Ideal, ctx, pieces=None) -> Ideal:
    """g-saturation: { r : (I : r) in g }, with verified post-conditions.

    `pieces`, when given, is unmixed_split(I), which a caller that also
    reports the split computes once and passes in.

    V1: every generator s of the result has dim(I : s) < m.
    V2: re-running the extraction on the result is a fixpoint (so R/S is
        torsion-free; with V1 this pins S = sat_g(I) exactly).
    """
    m = ctx.m
    dom = ctx.R
    if pieces is None:
        pieces = unmixed_split(I)
    keep = [p.ideal for p in pieces if p.dim >= m]
    if not keep:
        S = dom.unit_ideal()
    else:
        S = ideal_sum(reduce(ideal_intersect, keep), dom.P)
    for s in S.gens:
        if s.is_zero:
            continue
        if krull_dim(ideal_quotient(I, s)) >= m:
            raise InternalCheckError(
                f"V1 failed: generator {s} of sat_g is not torsion over the input"
            )
    if not S.is_unit:
        again = [p.ideal for p in unmixed_split(S) if p.dim >= m]
        if not again:
            raise InternalCheckError("V2 failed: sat_g result is all torsion")
        S2 = reduce(ideal_intersect, again)
        if not ideal_sum(S2, dom.P).equals(S):
            raise InternalCheckError(
                "V2 failed: sat_g result is not a fixpoint of the extraction"
            )
    return S


def is_tg_torsionfree(I: Ideal, ctx) -> bool:
    """True iff R/I has no g-torsion, i.e. sat_g(I) = I."""
    return sat_g(I, ctx).equals(I)
