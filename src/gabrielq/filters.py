"""The section-1 taxonomy as decidable predicates.

For the fixed bound m this module decides membership of elements in c_m
and v_m, of ideals in the families c, v, g, h, w, checks the Gabriel
filter axioms on samples, and classifies the Ore behaviour of c_m.

Commutative collapse, enforced rather than assumed: over an affine domain
with 0 < m < n, Krull's principal ideal theorem forces dim(R/cR) = n-1
for every nonzero nonunit c, so c_m = v_m = units(R), and h = g, w = c.
Each collapsed predicate is computed by two independent routes whose
agreement is asserted.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .poly import Polynomial
from .groebner import Ideal, ideal_intersect, ideal_product, ideal_quotient, ideal_sum
from .dimension import krull_dim
from .dim_filtration import InternalCheckError, unmixed_split
from .domain import AffineDomain
from .report import Report
from . import sampling


@dataclass
class FilterContext:
    """The m-Gabriel filter on R, shared by every predicate of this module.

    `_checked_c` holds the key (variables, reduced degrevlex basis) of the
    last ideal whose in_c cross-check passed, so that in_v and in_w on the
    same ideal do not search for a witness again.  The reduced basis is
    canonical, so equal keys mean equal ideals.  One entry is enough: the
    callers ask c, v and w of one ideal back to back.
    """

    R: AffineDomain
    m: int
    witness_degree: int = 6
    _checked_c: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.R.n < 1:
            raise ValueError("filter work needs a domain of dimension >= 1")
        if not (0 <= self.m < self.R.n):
            raise ValueError(f"m must satisfy 0 <= m < n = {self.R.n}, got {self.m}")

    def require_ideal_of_R(self, J: Ideal) -> None:
        for g in self.R.P.gens:
            if not J.contains(g):
                raise ValueError("ideal does not contain the defining ideal P")


def in_g(J: Ideal, ctx: FilterContext) -> bool:
    """J in g iff dim(R/J) < m."""
    ctx.require_ideal_of_R(J)
    return krull_dim(J) < ctx.m


def in_cm(c: Polynomial, ctx: FilterContext) -> bool:
    """c in c_m iff dim(R/cR) < m."""
    return krull_dim(ctx.R.ideal([c])) < ctx.m


def in_cm_unit_route(c: Polynomial, ctx: FilterContext) -> bool:
    """Principal-ideal-theorem route: for 0 <= m < n, c_m = units of R."""
    return ctx.R.is_unit_elem(c)


def in_vm(c: Polynomial, ctx: FilterContext) -> bool:
    """c in v_m iff no dimension-m prime contains c.

    Characterized route: equals in_cm (catenary chains pass any component
    of dimension >= m through a dimension-m prime).  Oracle route: c is a
    unit, or c is nonzero and the unmixed split of (c)+P has no piece of
    dimension >= m.  The two must agree.  Both routes read one ideal
    J = (c)+P, so its basis is computed once.
    """
    J = ctx.R.ideal([c])
    fast = krull_dim(J) < ctx.m
    if J.is_unit:
        oracle = True
    elif ctx.R.is_zero_elem(c):
        oracle = False
    else:
        oracle = all(p.dim < ctx.m for p in unmixed_split(J))
    if fast != oracle:
        raise InternalCheckError(
            f"in_vm routes disagree on {c}: characterized={fast} split-oracle={oracle}"
        )
    return fast


def _bounded_unit_witness(I: Ideal, ctx: FilterContext, rng: random.Random, tries: int = 6):
    """Bounded search for c in I with c in c_m (i.e. a unit of R in I).

    Returns a witness or None; sound but, like any bounded search,
    incomplete in the negative direction.
    """
    if I.contains(Polynomial.one(ctx.R.vars)):
        return Polynomial.one(ctx.R.vars)
    gens = [g for g in I.gens if not ctx.R.is_zero_elem(g)]
    if not gens:
        return None
    for _ in range(tries):
        combo = Polynomial.zero(ctx.R.vars)
        for g in gens:
            r = sampling.random_poly(rng, ctx.R.vars, max_degree=max(0, ctx.witness_degree - g.total_degree()), max_terms=3, height=5)
            combo = combo + r * g
        if not combo.is_zero and in_cm(combo, ctx):
            return combo
    return None


def in_c(I: Ideal, ctx: FilterContext, rng: random.Random | None = None) -> bool:
    """I in c iff I meets c_m; over the affine domain, iff I = (1).

    Both the characterized route and a bounded witness search run; a
    positive search with a negative fast path (or vice versa) is a bug.
    Each distinct ideal is validated and searched once per context: when I
    equals the last ideal that passed (ctx._checked_c), the fast path is
    returned without drawing from rng.
    """
    fast = I.is_unit
    key = (I.vars, I.groebner())
    if key == ctx._checked_c:
        return fast
    ctx.require_ideal_of_R(I)
    witness = _bounded_unit_witness(I, ctx, rng or random.Random(0))
    if fast and witness is None:
        raise InternalCheckError("in_c fast path true but no witness found")
    if not fast and witness is not None:
        raise InternalCheckError(f"in_c fast path false but witness {witness} found")
    ctx._checked_c = key
    return fast


def in_v(I: Ideal, ctx: FilterContext, rng: random.Random | None = None) -> bool:
    """I in v iff I meets v_m; v_m = c_m here, so in_v = in_c.

    Right after in_c on an equal ideal, this reuses that call's cross-check.
    """
    return in_c(I, ctx, rng)


def in_h(I: Ideal, ctx: FilterContext) -> bool:
    """I in h iff no dimension-m prime contains I; decided as dim(R/I) < m.

    Oracle: the unmixed split exposes no piece of dimension >= m.
    """
    ctx.require_ideal_of_R(I)
    fast = krull_dim(I) < ctx.m
    if I.is_unit:
        oracle = True
    else:
        oracle = all(p.dim < ctx.m for p in unmixed_split(I))
    if fast != oracle:
        raise InternalCheckError(
            f"in_h routes disagree: dimension={fast} split-oracle={oracle}"
        )
    return fast


def in_w(I: Ideal, ctx: FilterContext, rng: random.Random | None = None) -> bool:
    """I in w iff R/I is c_m-torsion; c_m is central hence Ore, so w = c.

    Torsion-witness oracle: R/I is c_m-torsion iff some c in c_m lies in I
    (the class of 1 must be killed), which is the same bounded search; it
    runs once per ideal, so right after in_c or in_v on an equal ideal
    their cross-check is reused.
    """
    return in_c(I, ctx, rng)


def check_filter_axioms(ctx: FilterContext, samples: int, seed: int) -> Report:
    """Def of the (multiplicative) Gabriel filter, on sampled members of g."""
    rng = random.Random(seed)
    report = Report(
        "verify", {"suite": "filter-axioms", "ring": ctx.R.name, "m": ctx.m,
                   "samples": samples, "seed": seed},
    )
    pool = [I for I in sampling.sample_ideals(rng, ctx.R, samples) if in_g(I, ctx)]
    # g always contains the unit ideal; make sure the sample is nonempty
    if not pool:
        pool = [ctx.R.unit_ideal()]
    report.note("g.sampled", len(pool))
    for idx in range(samples):
        I = pool[idx % len(pool)]
        J = pool[(idx * 7 + 3) % len(pool)]
        K = sampling.random_ideal(rng, ctx.R)
        a = sampling.random_element(rng, ctx.R)
        report.check(
            "superset", in_g(ideal_sum(I, K), ctx),
            ideal=str(I), extra=str(K),
        )
        report.check("intersection", in_g(ideal_intersect(I, J), ctx),
                     left=str(I), right=str(J))
        if ctx.R.is_zero_elem(a):
            quot = ctx.R.unit_ideal()
        else:
            quot = ideal_quotient(I, a)  # contains I, hence P
        report.check("element-quotient", in_g(quot, ctx),
                     ideal=str(I), element=str(a))
        report.check(
            "product", in_g(ideal_sum(ideal_product(I, J), ctx.R.P), ctx),
            left=str(I), right=str(J),
        )
    return report


def check_lemma_1_2(ctx: FilterContext, samples: int, seed: int) -> Report:
    """Inclusion lattice c <= g <= h, c <= v <= h; c_m <= v_m; and the
    intersection condition (v = h) on the sample, with a witness when it
    fails."""
    rng = random.Random(seed)
    report = Report(
        "verify", {"suite": "lemma-1.2", "ring": ctx.R.name, "m": ctx.m,
                   "samples": samples, "seed": seed},
    )
    witness = None
    for I in sampling.sample_ideals(rng, ctx.R, samples):
        c_ = in_c(I, ctx, rng)
        g_ = in_g(I, ctx)
        h_ = in_h(I, ctx)
        v_ = in_v(I, ctx, rng)
        w_ = in_w(I, ctx, rng)
        report.check(
            "inclusion-lattice",
            (not c_ or g_) and (not g_ or h_) and (not c_ or v_) and (not v_ or h_),
            ideal=str(I), in_c=c_, in_v=v_, in_g=g_, in_h=h_, in_w=w_,
        )
        report.check("w-equals-c", w_ == c_, ideal=str(I))
        if h_ and not v_ and witness is None:
            witness = I
    for _ in range(samples):
        c = sampling.random_element(rng, ctx.R)
        cm = in_cm(c, ctx)
        report.check(
            "element-inclusion", (not cm) or in_vm(c, ctx),
            element=str(c),
        )
        report.check(
            "cm-unit-route", cm == in_cm_unit_route(c, ctx),
            element=str(c),
        )
    if witness is None:
        report.note("intersection-condition", "holds on sample")
    else:
        report.note("intersection-condition", "fails on sample")
        report.note("intersection-condition-witness", str(witness))
    return report


def _maximal_ideal_in_g(ctx: FilterContext) -> Ideal | None:
    """A proper member of g, when one exists (any m >= 1 admits one)."""
    if ctx.m == 0:
        return None
    dom = ctx.R
    variables = [Polynomial.variable(dom.vars, v) for v in dom.vars]
    candidate = dom.ideal(variables)
    if not candidate.is_unit and in_g(candidate, ctx):
        return candidate
    # fall back to small integer points on V(P)
    rng = random.Random(0)
    for _ in range(200):
        point = [rng.randint(-3, 3) for _ in dom.vars]
        shifted = dom.ideal([v - p for v, p in zip(variables, point)])
        if not shifted.is_unit and in_g(shifted, ctx):
            return shifted
    return None


def classify_ore(ctx: FilterContext) -> dict:
    """Ore (w = c) and strong-Ore (g = c) classification with a witness.

    Commutatively c_m is central, so Ore always holds; strong Ore fails
    exactly when g contains a proper ideal, i.e. whenever m >= 1.
    """
    witness = _maximal_ideal_in_g(ctx)
    return {
        "ore": True,
        "strong_ore": witness is None,
        "witness": witness,
    }
