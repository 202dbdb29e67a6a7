"""Membership in R(m), certificates, arithmetic closure, units."""
import pytest

from gabrielq.dimension import NEG_INF
from gabrielq.dim_filtration import InternalCheckError
from gabrielq.quotient_ring import (
    ContractError,
    MembershipCertificate,
    check_lemma_2_3,
    check_thm_2_4,
    check_thm_2_5,
    conductor,
    in_Rm,
    is_unit_Rm,
    rm_add,
    rm_mul,
    rm_sub,
)
from gabrielq.corpus import distinguished_fractions, parse_fraction


def test_ring_elements_are_members(ctx1):
    R1 = ctx1.R
    for text in ("0", "1", "x", "x^2*y - 3"):
        cert = in_Rm(R1.fraction(text), ctx1)
        assert cert.verdict
        assert cert.conductor.is_unit
    assert in_Rm(R1.fraction("0"), ctx1).conductor_dim == NEG_INF


def test_one_over_x_rejected_on_R1(ctx1):
    R1 = ctx1.R
    cert = in_Rm(R1.fraction("1", "x"), ctx1)
    assert not cert.verdict
    assert cert.conductor_dim == 1
    assert cert.conductor.equals(R1.ideal([R1.parse("x")]))


def test_headline_witness_on_R2(ctx2):
    R2 = ctx2.R
    q = R2.fraction("b^2", "a")
    cert = in_Rm(q, ctx2)
    assert cert.verdict
    assert cert.conductor_dim == 0
    assert not q.in_R()
    assert cert.recheck()


def test_R3_is_its_own_quotient_at_m1(ctx3):
    """The cuspidal-surface control: sampled fractions in R(1) are in R."""
    R3 = ctx3.R
    for text in ("y/x", "(y*z)/x", "1/z", "1/x"):
        q = parse_fraction(R3, text)
        cert = in_Rm(q, ctx3)
        assert cert.verdict == q.in_R(), text


def test_certificate_recheck(ctx2):
    q = ctx2.R.fraction("c^2", "d")
    cert = in_Rm(q, ctx2)
    assert cert.recheck()


def test_conductor_of_zero_is_unit(ctx1):
    assert conductor(ctx1.R.fraction("0", "x"), ctx1).is_unit


def test_rm_arithmetic_closure(ctx2):
    R2 = ctx2.R
    q = R2.fraction("b^2", "a")
    r = R2.fraction("c")
    assert in_Rm(rm_add(q, r, ctx2), ctx2).verdict
    assert in_Rm(rm_sub(q, r, ctx2), ctx2).verdict
    assert in_Rm(rm_mul(q, q, ctx2), ctx2).verdict


def test_rm_arithmetic_precondition(ctx1):
    R1 = ctx1.R
    bad = R1.fraction("1", "x")
    with pytest.raises(ContractError):
        rm_add(bad, R1.fraction("1"), ctx1)


def test_units(ctx1, ctx2):
    R1, R2 = ctx1.R, ctx2.R
    assert is_unit_Rm(R1.fraction("7"), ctx1)
    assert is_unit_Rm(R1.fraction("1", "3"), ctx1)
    assert not is_unit_Rm(R1.fraction("0"), ctx1)
    assert not is_unit_Rm(R1.fraction("x"), ctx1)
    # b^2/a lies in R(1) on R2 but its inverse does not: not a unit
    assert not is_unit_Rm(R2.fraction("b^2", "a"), ctx2)


def test_distinguished_fractions_parse(R1, R2, R3):
    for dom in (R1, R2, R3):
        qs = distinguished_fractions(dom)
        assert qs, dom.name
        for q in qs:
            assert not q.den.is_zero


def test_suite_lemma_2_3(ctx1, ctx2):
    for ctx in (ctx1, ctx2):
        report = check_lemma_2_3(
            ctx, 15, 5, distinguished=distinguished_fractions(ctx.R)
        )
        assert report.ok, report.violations()


def test_suite_thm_2_4(ctx1):
    report = check_thm_2_4(
        ctx1, 10, 5, distinguished=distinguished_fractions(ctx1.R)
    )
    assert report.ok, report.violations()


def test_suite_thm_2_5(ctx3):
    report = check_thm_2_5(ctx3, 15, 5)
    assert report.ok, report.violations()
