"""Membership in the Gabriel quotient ring R(m) and its unit group.

R(m) = { q in Q : qJ ⊆ R for some J in g }.  For q = a/b the largest such
candidate J is the conductor ((b)+P : a), so membership is exactly
decidable: q in R(m) iff dim(R/conductor) < m.  The same ideal computes
the second description |q'R| = dim R/ann(q') of the membership lemma, so
every certificate carries both readings at once.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from .poly import Polynomial
from .groebner import Ideal, ideal_quotient
from .dimension import krull_dim
from .dim_filtration import InternalCheckError
from .domain import FractionQ
from .filters import FilterContext, in_cm, in_cm_unit_route, in_g
from .report import Report
from . import sampling


class RmContext(FilterContext):
    """Context for R(m) work; same validation as FilterContext."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


@dataclass
class MembershipCertificate:
    fraction: FractionQ
    conductor: Ideal
    conductor_dim: object
    verdict: bool

    def recheck(self) -> bool:
        """Every conductor generator multiplies the fraction into R."""
        q = self.fraction
        return all(
            (q * FractionQ(q.dom, g, Polynomial.one(q.dom.vars))).in_R()
            for g in self.conductor.gens
        )


def conductor(q: FractionQ, ctx: RmContext) -> Ideal:
    """The largest ideal J of R with qJ ⊆ R; equals (1) iff q in R.

    J = ((den)+P : num) contains (den)+P, hence P, so no P is added.
    """
    dom = ctx.R
    if q.is_zero:
        return dom.unit_ideal()
    return ideal_quotient(dom.ideal([q.den]), q.num)


def in_Rm(q: FractionQ, ctx: RmContext) -> MembershipCertificate:
    J = conductor(q, ctx)
    d = krull_dim(J)
    return MembershipCertificate(q, J, d, d < ctx.m)


def rm_add(q1: FractionQ, q2: FractionQ, ctx: RmContext) -> FractionQ:
    return _closed_op(q1, q2, ctx, operator.add)


def rm_sub(q1: FractionQ, q2: FractionQ, ctx: RmContext) -> FractionQ:
    return _closed_op(q1, q2, ctx, operator.sub)


def rm_mul(q1: FractionQ, q2: FractionQ, ctx: RmContext) -> FractionQ:
    return _closed_op(q1, q2, ctx, operator.mul)


def _closed_op(q1, q2, ctx, op) -> FractionQ:
    if not in_Rm(q1, ctx).verdict or not in_Rm(q2, ctx).verdict:
        raise ContractError("rm arithmetic requires both operands in R(m)")
    result = op(q1, q2)
    if not in_Rm(result, ctx).verdict:
        raise InternalCheckError(
            f"subring closure failed for {op.__name__}({q1}, {q2}) = {result}"
        )
    return result


def is_unit_Rm(q: FractionQ, ctx: RmContext) -> bool:
    """q is a unit of R(m) iff q != 0 and both q and 1/q lie in R(m)."""
    if q.is_zero:
        return False
    return in_Rm(q, ctx).verdict and in_Rm(q.inv(), ctx).verdict


def _sample_fractions(ctx: RmContext, rng: random.Random, count: int,
                      distinguished: list[FractionQ]):
    dom = ctx.R
    one = Polynomial.one(dom.vars)
    out = list(distinguished)
    out.append(FractionQ(dom, Polynomial.zero(dom.vars), one))
    out.append(FractionQ(dom, one, one))
    variables = [Polynomial.variable(dom.vars, v) for v in dom.vars]
    for v in variables:
        out.append(FractionQ(dom, one, v))
        out.append(FractionQ(dom, v, one))
    while len(out) < count:
        out.append(sampling.random_fraction(rng, dom))
    return out[:count]


def check_lemma_2_3(ctx: RmContext, samples: int, seed: int,
                    distinguished: list[FractionQ] | None = None) -> Report:
    """Equivalence of the two membership descriptions, with witness
    soundness and conductor maximality on samples."""
    rng = random.Random(seed)
    report = Report(
        "verify", {"suite": "lemma-2.3", "ring": ctx.R.name, "m": ctx.m,
                   "samples": samples, "seed": seed},
    )
    dom = ctx.R
    for q in _sample_fractions(ctx, rng, samples, distinguished or []):
        cert = in_Rm(q, ctx)
        # (i) the exists-J description and the module-dimension description
        # read off the same conductor ideal
        exists_route = in_g(cert.conductor, ctx)
        report.check("description-agreement", exists_route == cert.verdict,
                     fraction=str(q), conductor_dim=cert.conductor_dim)
        # (ii) witness soundness: any J in g inside the conductor multiplies
        # q into R, generator by generator
        if cert.verdict:
            gens = [g for g in cert.conductor.gens if not g.is_zero]
            take = gens[: max(1, len(gens) // 2)] if gens else []
            J = dom.ideal(take)
            if not in_g(J, ctx):
                J = cert.conductor
            sound = all(
                (q * FractionQ(dom, g, Polynomial.one(dom.vars))).in_R()
                for g in J.gens
            )
            report.check("witness-soundness", sound, fraction=str(q))
        # (iii) maximality: elements outside the conductor do not multiply
        # q into R
        for _ in range(3):
            r = sampling.random_element(rng, dom)
            if cert.conductor.contains(r):
                continue
            moved = q * FractionQ(dom, r, Polynomial.one(dom.vars))
            report.check("conductor-maximality", not moved.in_R(),
                         fraction=str(q), element=str(r))
        # (iv) when membership fails, the cyclic module q'R has dim >= m
        if not cert.verdict:
            report.check("nonmember-lower-bound", cert.conductor_dim >= ctx.m,
                         fraction=str(q), dim=cert.conductor_dim)
        report.check("certificate-recheck", cert.recheck(), fraction=str(q))
    return report


def check_thm_2_4(ctx: RmContext, samples: int, seed: int,
                  distinguished: list[FractionQ] | None = None) -> Report:
    """Subring closure of R(m) on sampled member pairs."""
    rng = random.Random(seed)
    report = Report(
        "verify", {"suite": "thm-2.4", "ring": ctx.R.name, "m": ctx.m,
                   "samples": samples, "seed": seed},
    )
    members = []
    for q in _sample_fractions(ctx, rng, 4 * samples, distinguished or []):
        if in_Rm(q, ctx).verdict:
            members.append(q)
        if len(members) >= samples:
            break
    while len(members) < samples:
        f = sampling.random_element(rng, ctx.R)
        members.append(FractionQ(ctx.R, f, Polynomial.one(ctx.R.vars)))
    report.note("members.sampled", len(members))
    for i in range(samples):
        q1 = members[i % len(members)]
        q2 = members[(i * 11 + 5) % len(members)]
        for op, fn in (("add", rm_add), ("sub", rm_sub), ("mul", rm_mul)):
            try:
                fn(q1, q2, ctx)
                report.check(f"closure-{op}", True, left=str(q1), right=str(q2))
            except InternalCheckError as exc:
                report.check(f"closure-{op}", False, left=str(q1),
                             right=str(q2), error=str(exc))
    return report


def check_thm_2_5(ctx: RmContext, samples: int, seed: int) -> Report:
    """U(R(m)) ∩ R = c_m on sampled ring elements, plus fast-path agreement."""
    rng = random.Random(seed)
    report = Report(
        "verify", {"suite": "thm-2.5", "ring": ctx.R.name, "m": ctx.m,
                   "samples": samples, "seed": seed},
    )
    dom = ctx.R
    one = Polynomial.one(dom.vars)
    elements = [Polynomial.constant(dom.vars, 2), Polynomial.zero(dom.vars), one]
    elements += [Polynomial.variable(dom.vars, v) for v in dom.vars]
    while len(elements) < samples:
        elements.append(sampling.random_element(rng, dom))
    for c in elements[:samples]:
        unit_side = is_unit_Rm(FractionQ(dom, c, one), ctx)
        cm_side = in_cm(c, ctx)
        report.check("unit-equivalence", unit_side == cm_side,
                     element=str(c), is_unit_Rm=unit_side, in_cm=cm_side)
        report.check("pit-fast-path", cm_side == in_cm_unit_route(c, ctx),
                     element=str(c))
    return report
