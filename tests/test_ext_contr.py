"""Extension and contraction between R and R(m)."""
import random

import pytest

from gabrielq import sampling
from gabrielq.domain import SubQ
from gabrielq.dim_filtration import InternalCheckError, sat_g
from gabrielq.ext_contr import (
    check_lemma_3_2,
    check_thm_3_4_premise,
    close_subq,
    contract_subq,
    default_seed_ideal,
    extend_ideal,
    is_extended,
    module_annihilator,
    rm_generators,
)


@pytest.fixture(scope="module")
def M1(ctx1):
    return rm_generators(ctx1)


@pytest.fixture(scope="module")
def M2(ctx2):
    return rm_generators(ctx2)


@pytest.fixture(scope="module")
def M3(ctx3):
    return rm_generators(ctx3)


def test_default_seed(ctx1):
    seed = default_seed_ideal(ctx1)
    assert not seed.is_unit
    from gabrielq.filters import in_g
    assert in_g(seed, ctx1)


def test_rm_generators_R1_is_R(M1):
    assert M1.converged
    assert M1.module.is_R()
    assert not M1.strictly_contains_R()
    assert M1.witness_beyond_R() is None


def test_rm_generators_R3_is_R(M3):
    assert M3.converged
    assert M3.module.is_R()


def test_rm_generators_R2_strict(M2, ctx2):
    assert M2.converged
    assert M2.strictly_contains_R()
    w = M2.witness_beyond_R()
    assert w is not None and not w.in_R()
    assert M2.module.contains_fraction(ctx2.R.fraction("b^2", "a"))


def test_rounds_zero_reports_unconverged(ctx2):
    M0 = rm_generators(ctx2, max_rounds=0)
    assert not M0.converged


def test_module_annihilator(M2, ctx2):
    ann = module_annihilator(M2.module)
    assert not ann.is_unit
    # every generator of M multiplies ann into R
    for q in M2.module.generators():
        for r in ann.gens:
            assert (q * ctx2.R.fraction(str(r))).in_R() or r.is_zero


def test_extend_contract_sandwich(ctx1, M1):
    R1 = ctx1.R
    I = R1.ideal([R1.parse("x^2*y"), R1.parse("x*y^2")])
    ext = extend_ideal(I, M1, ctx1)
    Iec = contract_subq(ext.subq)
    assert Iec.contains_ideal(I)
    assert sat_g(I, ctx1).contains_ideal(Iec)


def test_headline_extension_on_R2(ctx2, M2):
    """contract(extend(<a>)) picks up b^2, which <a> itself lacks."""
    R2 = ctx2.R
    a = R2.parse("a")
    b2 = R2.parse("b^2")
    I = R2.ideal([a])
    assert not I.contains(b2)
    ext = extend_ideal(I, M2, ctx2)
    assert contract_subq(ext.subq).contains(b2)


def test_contract_is_intersection_with_R(ctx2, M2):
    R2 = ctx2.R
    B = SubQ(R2, R2.parse("a"), R2.ideal([R2.parse("b^2"), R2.parse("a^2")]))
    C = contract_subq(B)
    for g in C.groebner():
        assert B.contains_fraction(R2.fraction(str(g)))


def test_is_extended(ctx2, M2, ctx1, M1):
    R2 = ctx2.R
    e = extend_ideal(R2.ideal([R2.parse("a")]), M2, ctx2).subq
    assert is_extended(e, M2, ctx2)
    # the module itself is the extension of the unit ideal
    assert is_extended(M2.module, M2, ctx2)
    # where R(m) collapses to R, R is the extension of the unit ideal
    # (on R2 it is not: R is a proper R-submodule of M, not an extended one)
    assert is_extended(SubQ.from_R(ctx1.R), M1, ctx1)


def test_close_subq(ctx2, M2):
    R2 = ctx2.R
    k = SubQ(R2, R2.parse("a"), R2.ideal([R2.parse("b^2")]))
    closed = close_subq(k, M2.module)
    assert closed.contains_subq(k)
    assert close_subq(closed, M2.module) is closed


def test_converged_M_is_a_ring(ctx1, ctx2, ctx3, M1, M2, M3):
    """M·M ⊆ M already holds for the converged M and for lemma-3.2's
    wider one, so closing M returns M itself."""
    for ctx, M in ((ctx1, M1), (ctx2, M2), (ctx3, M3)):
        wide = rm_generators(ctx, M.seed_ideal, max_rounds=M.rounds + 2)
        for module in (M, wide):
            assert close_subq(module.module, module.module) is module.module
            assert not module.widened


def test_close_subq_widens_a_module_that_is_not_a_ring(ctx3):
    """R·(y/x) on R3 is not a ring: (y/x)^2 = x.  One pass adds R·x."""
    R3 = ctx3.R
    k = SubQ(R3, R3.parse("x"), R3.ideal([R3.parse("y")]))
    ring = close_subq(k, k)
    square = SubQ(R3, R3.parse("x^2"), R3.ideal([R3.parse("y^2")]))
    assert not k.contains_subq(square)
    assert ring.equals(k.union(square))
    assert close_subq(ring, ring) is ring


def test_close_subq_without_finite_closure_raises(ctx1):
    """R + R·(y/x) on R1 generates R[y/x], which is no finite R-module."""
    R1 = ctx1.R
    k = SubQ(R1, R1.parse("x"), R1.ideal([R1.parse("x"), R1.parse("y")]))
    with pytest.raises(InternalCheckError):
        close_subq(k, k)


def test_extensions_are_closed_under_M(ctx2, M2):
    """e·M ⊆ e for every extension e, with no closure pass in extend_ideal."""
    rng = random.Random(5)
    for I in sampling.sample_proper_ideals(rng, ctx2.R, 6):
        e = extend_ideal(I, M2, ctx2).subq
        assert close_subq(e, M2.module) is e


def test_suite_lemma_3_2(ctx1, M1):
    report = check_lemma_3_2(ctx1, M1, 10, 3)
    assert report.ok, report.violations()


def test_suite_thm_3_4(ctx2, M2):
    report = check_thm_3_4_premise(ctx2, M2, 8, 3)
    assert report.ok, report.violations()
    notes = dict(report.notes)
    assert "extended.fraction" in notes
