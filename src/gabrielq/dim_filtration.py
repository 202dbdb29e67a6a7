"""Dimension filtration: unmixed splitting and the g-saturation sat_g.

sat_g(I)/I is exactly the torsion submodule of R/I for the m-Gabriel
filter: sat_g(I) = { r : (I : r) has dimension < m }.  The splitting is
factorization-free pseudo-primary peeling; correctness is enforced a
posteriori by the V1/V2 post-conditions rather than by the algorithm's
pedigree, so any violation is an internal error, never a silent result.

Work shared within one call: a sat_g call computes each intersection of
two ideals at most once (_meet and its per-call dict), across the split's
prune loop and recheck, its own meet of the kept pieces and the V2 split.
The dict dies with the call; nothing is cached across calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
from .dimension import krull_dim, krull_dim_with_set

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

    An empty independent set (a dimension-0 peel) returns [] with no basis
    computed: the coefficient subring is then Q, so every leading
    coefficient is a constant and would be dropped.
    """
    if not indep:
        return []
    vars = I.vars
    n = len(vars)
    dep = tuple(i for i in range(n) if i not in indep)
    order = elimination_order(dep) if dep else DEGREVLEX
    gb = I.groebner(order)
    factors: list[Polynomial] = []
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
        if f not in factors:
            factors.append(f)
    return factors


def _meet(ideals, meets: dict) -> Ideal:
    """The intersection of `ideals`, folded from the left.

    `meets` maps the reduced bases (GB(A), GB(B)) of two operands to
    A ∩ B; a caller passes one dict for the whole of its call, so that no
    intersection is computed twice within it.
    """
    def meet2(A: Ideal, B: Ideal) -> Ideal:
        key = (A.groebner(), B.groebner())
        C = meets.get(key)
        if C is None:
            C = meets[key] = ideal_intersect(A, B)
        return C

    return reduce(meet2, ideals)


def unmixed_split(I: Ideal, *, meets: dict | None = None) -> list[SplitPiece]:
    """Peel I into h-saturated pieces of recorded dimension.

    The intersection of the pieces equals I (verified by GB equality).
    Each residual I + (h^s) grows from the basis the peeled ideal carries
    (ideal_sum).  The prune loop and the final recheck share one dict of
    intersections (_meet); sat_g passes its own through `meets`, so that
    its meet of the kept pieces and its V2 split reuse them too.
    """
    if I.is_unit:
        raise ValueError("cannot split the unit ideal")
    if meets is None:
        meets = {}
    pieces: list[SplitPiece] = []
    current = I
    for _ in range(_MAX_PEELS):
        d, indep = krull_dim_with_set(current)
        names = tuple(current.vars[i] for i in indep)
        factors = _leading_coeff_factors(current, indep)
        if not factors:
            pieces.append(SplitPiece(current, d, names, Polynomial.one(I.vars), 0))
            break
        h = math.prod(factors[1:], start=factors[0])
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
        meet = _meet([p.ideal for j, p in enumerate(pieces) if j != i], meets)
        if meet.equals(I):
            pieces.pop(i)
            pruned = meet

    meet = pruned
    if meet is None:
        meet = _meet([p.ideal for p in pieces], meets)
    if not meet.equals(I):
        raise InternalCheckError("piece intersection differs from the input ideal")
    return pieces


def sat_g_split(I: Ideal, ctx) -> tuple[Ideal, list[SplitPiece]]:
    """(sat_g(I), unmixed_split(I)): g-saturation { r : (I : r) in g } of
    an ideal I of R (one that contains P), with verified post-conditions,
    and the split it was computed from.

    Every piece contains I, so their meet contains P: S is an ideal of R.
    V1: every generator s of the result has dim(I : s) < m.
    V2: re-running the extraction on the result is a fixpoint (so R/S is
        torsion-free; with V1 this pins S = sat_g(I) exactly).

    One dict of intersections serves the whole call: the split of I, the
    meet of the kept pieces, and V2's split of S and meet.  When V2 keeps
    every piece of S, its meet is the one S's split verified.
    """
    ctx.require_ideal_of_R(I)
    m = ctx.m
    meets: dict = {}
    pieces = unmixed_split(I, meets=meets)
    keep = [p.ideal for p in pieces if p.dim >= m]
    S = _meet(keep, meets) if keep else ctx.R.unit_ideal()
    for s in S.gens:
        if krull_dim(ideal_quotient(I, s)) >= m:
            raise InternalCheckError(
                f"V1 failed: generator {s} of sat_g is not torsion over the input"
            )
    if not S.is_unit:
        again = [p.ideal for p in unmixed_split(S, meets=meets) if p.dim >= m]
        if not again:
            raise InternalCheckError("V2 failed: sat_g result is all torsion")
        if not _meet(again, meets).equals(S):
            raise InternalCheckError(
                "V2 failed: sat_g result is not a fixpoint of the extraction"
            )
    return S, pieces


def sat_g(I: Ideal, ctx) -> Ideal:
    """The g-saturation of I; see sat_g_split."""
    return sat_g_split(I, ctx)[0]
