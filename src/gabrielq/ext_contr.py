"""Extension and contraction between R and S = R(m).

R(m) itself is handled through finitely generated bounded approximations
M (a fixpoint of J -> transform(ann(J)) when it converges); every
downstream verdict carries M's convergence flag, and per-element
membership (quotient_ring) remains the exact arbiter.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .poly import Polynomial
from .groebner import Ideal, ideal_product, ideal_quotient, ideal_quotient_ideal
from .dimension import krull_dim, module_dim
from .dim_filtration import InternalCheckError, sat_g
from .domain import FractionQ, SubQ, transform
from .filters import in_g
from .quotient_ring import RmContext, in_Rm
from .report import Report
from . import sampling


@dataclass
class RmGenerators:
    module: SubQ
    rounds: int
    converged: bool
    seed_ideal: Ideal

    def strictly_contains_R(self) -> bool:
        return not self.module.is_R()

    def witness_beyond_R(self) -> FractionQ | None:
        for q in self.module.generators():
            if not q.in_R():
                return q
        return None


def default_seed_ideal(ctx: RmContext) -> Ideal:
    """Image of the irrelevant maximal ideal, the default member of g."""
    dom = ctx.R
    seed = dom.ideal([Polynomial.variable(dom.vars, v) for v in dom.vars])
    if not in_g(seed, ctx):
        raise ValueError(
            "no default seed ideal: the irrelevant maximal ideal is not in g; "
            "supply one explicitly"
        )
    return seed


def module_annihilator(M: SubQ) -> Ideal:
    """ann(M/R) = { r in R : rM ⊆ R } = ((den)+P : num); it contains P."""
    return ideal_quotient_ideal(M.dom.ideal([M.den]), M.num)


def rm_generators(ctx: RmContext, seed_ideal: Ideal | None = None,
                  max_rounds: int = 5) -> RmGenerators:
    """Directed-union approximation of R(m) = union over J in g of (R :_Q J).

    Iterates M -> transform(ann(M/R)) from transform(seed).  Monotone;
    stops at a fixpoint (converged) or after max_rounds (reported, never
    silently treated as complete).
    """
    dom = ctx.R
    if seed_ideal is None:
        seed_ideal = default_seed_ideal(ctx)
    if not in_g(seed_ideal, ctx):
        raise ValueError("seed ideal is not a member of g")
    M = transform(dom, seed_ideal)
    converged = False
    rounds = 0
    for _ in range(max_rounds):
        nxt = transform(dom, module_annihilator(M))
        rounds += 1
        if nxt.equals(M):
            converged = True
            break
        M = nxt
    if not converged and M.is_R():
        converged = True  # transform(ann(R)) = transform((1)) = R
    for q in M.generators():
        cert = in_Rm(q, ctx)
        if not cert.verdict:
            raise InternalCheckError(
                f"generator {q} of the R(m) approximation fails membership"
            )
    return RmGenerators(M, rounds, converged, seed_ideal)


@dataclass
class ExtendResult:
    subq: SubQ
    widened: bool


def _module_product(I: Ideal, M: SubQ) -> SubQ:
    return SubQ(M.dom, M.den, ideal_product(I, M.num)).trimmed()


def extend_ideal(I: Ideal, M: RmGenerators, ctx: RmContext) -> ExtendResult:
    """I^e = I·S, approximated as I·M closed under M-multiplication.

    close_subq checks I·M·M ⊆ I·M; failures widen the module and are
    reported via the `widened` flag.
    """
    product = _module_product(I, M.module)
    closed, ok = close_subq(product, M, ctx)
    if not ok:
        raise InternalCheckError("extension failed to close under M-multiplication")
    return ExtendResult(closed, closed is not product)


def contract_subq(B: SubQ) -> Ideal:
    """B^c = B ∩ R = ((num)+P : den), as an ambient ideal containing P:
    the quotient contains B.num, which contains P."""
    return ideal_quotient(B.num, B.den)


def close_subq(k: SubQ, M: RmGenerators, ctx: RmContext):
    """Close a SubQ under multiplication by M (an S-module approximation)."""
    dom = ctx.R
    current = k
    for _ in range(4):
        bigger = SubQ(dom, current.den * M.module.den,
                      ideal_product(current.num, M.module.num)).trimmed()
        if current.contains_subq(bigger):
            return current, True
        current = current.union(bigger).trimmed()
    return current, False


def is_extended(k: SubQ, M: RmGenerators, ctx: RmContext) -> bool:
    """k = (k ∩ R)^e; e ⊆ k is asserted unconditionally, so k ⊆ e decides."""
    c = contract_subq(k)
    e = extend_ideal(c, M, ctx).subq
    if not k.contains_subq(e):
        raise InternalCheckError(
            "(k ∩ R)^e is not inside k: the sampled k is not an S-module"
        )
    return e.contains_subq(k)


def _sample_subq_ideals(ctx: RmContext, M: RmGenerators, rng: random.Random,
                        ideals):
    """S-submodules of Q built as extend(I) plus 0-2 scaled M-generators."""
    out = []
    mgens = M.module.generators()
    for I in ideals:
        base = extend_ideal(I, M, ctx).subq
        out.append(base)
        extra = rng.randint(0, 2)
        if extra and mgens:
            k = base
            for _ in range(extra):
                r = sampling.random_element(rng, ctx.R, max_degree=2)
                g = rng.choice(mgens)
                scaled = SubQ(ctx.R, g.den, ctx.R.ideal([r * g.num]))
                k = k.union(scaled)
            k, closed = close_subq(k, M, ctx)
            if closed:
                out.append(k)
    return out


def check_lemma_3_2(ctx: RmContext, M: RmGenerators, samples: int,
                    seed: int) -> Report:
    """Extension/contraction sandwich, Galois laws, and torsion statements."""
    rng = random.Random(seed)
    report = Report(
        "verify", {"suite": "lemma-3.2", "ring": ctx.R.name, "m": ctx.m,
                   "samples": samples, "seed": seed,
                   "M.converged": M.converged},
    )
    dom = ctx.R
    ideals = sampling.sample_proper_ideals(rng, dom, samples)
    widened = ideals[: max(4, samples // 8)]
    narrow_sat = []  # (I^e, sat_g(I)) of the widened ideals, for reuse below
    for idx, I in enumerate(ideals):
        ext = extend_ideal(I, M, ctx)
        Iec = contract_subq(ext.subq)
        # (a) I^e = S forces R/I torsion (no converse asserted)
        if Iec.is_unit:
            report.check("full-extension-torsion", in_g(I, ctx), ideal=str(I))
        # (b) sandwich I ⊆ I^ec ⊆ sat_g(I); equality when torsion-free
        sat = sat_g(I, ctx)
        if idx < len(widened):
            narrow_sat.append((ext.subq, sat))
        lower = Iec.contains_ideal(I)
        upper = sat.contains_ideal(Iec)
        report.check("sandwich", lower and upper, ideal=str(I),
                     lower=lower, upper=upper)
        if sat.equals(I):
            report.check("torsionfree-equality", Iec.equals(I), ideal=str(I))
        # (f) commutative two-sided reading: I^ec / I is tg-torsion
        torsion = all(
            Iec.contains(s)
            and krull_dim(ideal_quotient(I, s)) < ctx.m
            for s in Iec.gens
        )
        report.check("ec-quotient-torsion", torsion, ideal=str(I))
        # (d) J ⊆ I with J^e = I^e forces dim(I/J) < m
        sub_gens = [g for g in I.gens if not dom.is_zero_elem(g)]
        if sub_gens:
            J = dom.ideal(sub_gens[: max(1, len(sub_gens) - 1)])
            if extend_ideal(J, M, ctx).subq.equals(ext.subq):
                report.check("equal-extension-torsion",
                             module_dim(I, J) < ctx.m,
                             ideal=str(I), sub=str(J))
        # Galois laws on this sample
        report.check("unit-law", Iec.contains_ideal(I), ideal=str(I))
    # (c) extend(contract(k)) ⊆ k for sampled S-submodules k
    for k in _sample_subq_ideals(ctx, M, rng, widened):
        try:
            is_extended(k, M, ctx)
            report.check("counit-law", True, module=repr(k))
        except InternalCheckError as exc:
            report.check("counit-law", False, module=repr(k), error=str(exc))
    # widening never shrinks extensions or breaks the sandwich
    wide = rm_generators(ctx, M.seed_ideal, max_rounds=M.rounds + 2)
    for I, (narrow, sat) in zip(widened, narrow_sat):
        wider = extend_ideal(I, wide, ctx).subq
        grown = wider.contains_subq(narrow)
        still = sat.contains_ideal(contract_subq(wider))
        report.check("widening-stability", grown and still, ideal=str(I))
    report.note("two-sidedness", "all ideals are two-sided in the commutative "
                                 "instantiation; the one-sided caveats are vacuous")
    return report


def check_thm_3_4_premise(ctx: RmContext, M: RmGenerators, samples: int,
                          seed: int) -> Report:
    """Premise sampling only: the fraction of sampled S-ideals that are
    extended.  No universal conclusion is drawn from samples."""
    rng = random.Random(seed)
    report = Report(
        "verify", {"suite": "thm-3.4-survey", "ring": ctx.R.name, "m": ctx.m,
                   "samples": samples, "seed": seed,
                   "M.converged": M.converged},
    )
    ideals = sampling.sample_proper_ideals(rng, ctx.R, samples)
    extended = 0
    total = 0
    for k in _sample_subq_ideals(ctx, M, rng, ideals):
        total += 1
        if is_extended(k, M, ctx):
            extended += 1
        report.check("premise-sample", True, module=repr(k))
    report.note("extended.count", extended)
    report.note("sampled.count", total)
    report.note("extended.fraction", f"{extended}/{total}" if total else "0/0")
    report.note("claim", "premise sampling only; the theorem's conclusion is "
                         "never asserted from samples")
    return report
