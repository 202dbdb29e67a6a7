"""The filter taxonomy c, v, g, h, w and its commutative collapse."""
import random

import pytest

from gabrielq import filters, sampling
from gabrielq.poly import Polynomial
from gabrielq.groebner import Ideal, ideal_intersect, ideal_sum
from gabrielq.dim_filtration import InternalCheckError
from gabrielq.filters import (
    FilterContext,
    check_filter_axioms,
    check_lemma_1_2,
    classify_ore,
    in_c,
    in_cm,
    in_cm_unit_route,
    in_g,
    in_h,
    in_v,
    in_vm,
    in_w,
)
from gabrielq.quotient_ring import RmContext


def test_context_validates_m(R1):
    FilterContext(R1, 0)
    FilterContext(R1, 1)
    with pytest.raises(ValueError):
        FilterContext(R1, 2)
    with pytest.raises(ValueError):
        FilterContext(R1, -1)


def test_require_ideal_of_R(R3, ctx3):
    bare = Ideal(R3.vars, (R3.parse("x"),))  # misses P
    with pytest.raises(ValueError):
        in_g(bare, ctx3)
    assert in_g(R3.unit_ideal(), ctx3)


def test_in_g_known_values(ctx1):
    R1 = ctx1.R
    assert in_g(R1.unit_ideal(), ctx1)
    assert in_g(R1.ideal([R1.parse("x"), R1.parse("y")]), ctx1)  # dim 0
    assert not in_g(R1.ideal([R1.parse("x")]), ctx1)  # dim 1
    assert not in_g(R1.zero_ideal(), ctx1)  # dim 2


def test_m0_filter_is_trivial(R1):
    ctx0 = RmContext(R1, 0)
    assert in_g(R1.unit_ideal(), ctx0)
    assert not in_g(R1.ideal([R1.parse("x"), R1.parse("y")]), ctx0)


def test_cm_is_units(ctx1, ctx2):
    for ctx in (ctx1, ctx2):
        dom = ctx.R
        assert in_cm(dom.parse("5"), ctx)
        assert not in_cm(dom.parse("0"), ctx)
        assert not in_cm(dom.parse(dom.vars[0]), ctx)
        # the two routes agree by construction; spot-check the collapse
        for text in ("1", "0", dom.vars[0], f"{dom.vars[0]} + 1"):
            c = dom.parse(text)
            assert in_cm(c, ctx) == in_cm_unit_route(c, ctx)


def test_vm_collapse(ctx1):
    R1 = ctx1.R
    assert in_vm(R1.parse("2"), ctx1)
    assert not in_vm(R1.parse("x"), ctx1)
    assert not in_vm(R1.parse("x*y + 1"), ctx1)
    assert not in_vm(R1.parse("0"), ctx1)


def test_ideal_families_collapse(ctx1):
    R1 = ctx1.R
    rng = random.Random(0)
    unit = R1.unit_ideal()
    small = R1.ideal([R1.parse("x"), R1.parse("y")])
    curve = R1.ideal([R1.parse("x")])
    for I in (unit, small, curve):
        c_ = in_c(I, ctx1, rng)
        assert in_w(I, ctx1, rng) == c_
        assert in_v(I, ctx1, rng) == c_
    assert in_c(unit, ctx1, rng)
    assert not in_c(small, ctx1, rng)
    assert in_h(unit, ctx1) and in_h(small, ctx1) and not in_h(curve, ctx1)


def test_witness_search_runs_once_per_ideal(R1, monkeypatch):
    calls = []
    search = filters._bounded_unit_witness

    def counted(I, ctx, rng, *args, **kw):
        calls.append(I)
        return search(I, ctx, rng, *args, **kw)

    monkeypatch.setattr(filters, "_bounded_unit_witness", counted)
    ctx = RmContext(R1, 1)
    rng = random.Random(0)
    small = R1.ideal([R1.parse("x"), R1.parse("y")])
    assert not in_c(small, ctx, rng)
    assert not in_v(small, ctx, rng)
    assert not in_w(small, ctx, rng)
    assert len(calls) == 1
    # the same ideal from other generators is recognised by its basis
    assert not in_w(R1.ideal([R1.parse("x + y"), R1.parse("y")]), ctx, rng)
    assert len(calls) == 1
    # in_g and in_h leave the remembered ideal alone
    assert in_g(small, ctx) and in_h(small, ctx)
    assert not in_v(small, ctx, rng)
    assert len(calls) == 1
    unit = R1.unit_ideal()
    assert in_c(unit, ctx, rng) and in_v(unit, ctx, rng) and in_w(unit, ctx, rng)
    assert len(calls) == 2
    # one entry: going back to the first ideal searches again
    assert not in_c(small, ctx, rng)
    assert len(calls) == 3
    # a fresh context remembers nothing
    assert not in_c(small, RmContext(R1, 1), rng)
    assert len(calls) == 4


def test_memo_does_not_skip_validation(R3):
    ctx = RmContext(R3, 1)
    assert not in_c(R3.ideal([R3.parse("x")]), ctx)
    bare = Ideal(R3.vars, (R3.parse("x"),))  # misses P
    with pytest.raises(ValueError):
        in_c(bare, ctx)


def test_witness_cross_check_is_live(R1, monkeypatch):
    ctx = RmContext(R1, 1)
    small = R1.ideal([R1.parse("x"), R1.parse("y")])
    one = Polynomial.one(R1.vars)
    monkeypatch.setattr(filters, "_bounded_unit_witness", lambda *a, **kw: one)
    for predicate in (in_c, in_v, in_w):
        with pytest.raises(InternalCheckError):
            predicate(small, ctx)
    # a failed cross-check is not remembered
    monkeypatch.setattr(filters, "_bounded_unit_witness", lambda *a, **kw: None)
    assert not in_c(small, ctx)
    with pytest.raises(InternalCheckError):
        in_c(R1.unit_ideal(), ctx)


def test_vm_verdicts_on_R2(ctx2):
    R2 = ctx2.R
    known = {"5": True, "b*c - a*d + 2": True, "b*c - a*d": False,
             "0": False, "a": False, "a*d + 1": False, "b^2 - 3": False}
    for text, verdict in known.items():
        assert in_vm(R2.parse(text), ctx2) is verdict
    rng = random.Random(3)
    for _ in range(8):
        c = sampling.random_element(rng, R2)
        assert in_vm(c, ctx2) == in_cm(c, ctx2) == in_cm_unit_route(c, ctx2)


def test_inclusion_lattice_on_known_ideals(ctx2):
    """c ⊆ g ⊆ h and c ⊆ v ⊆ h, on hand-picked R2 ideals."""
    R2 = ctx2.R
    rng = random.Random(1)
    ideals = [
        R2.unit_ideal(),
        R2.ideal([R2.parse(v) for v in R2.vars]),
        R2.ideal([R2.parse("a")]),
        R2.zero_ideal(),
    ]
    for I in ideals:
        if in_c(I, ctx2, rng):
            assert in_g(I, ctx2)
            assert in_v(I, ctx2, rng)
        if in_g(I, ctx2):
            assert in_h(I, ctx2)
        if in_v(I, ctx2, rng):
            assert in_h(I, ctx2)


def test_g_axioms_by_hand(ctx1):
    """Superset and intersection closure on explicit members."""
    R1 = ctx1.R
    I = R1.ideal([R1.parse("x"), R1.parse("y")])
    J = R1.ideal([R1.parse("x - 1"), R1.parse("y - 2")])
    assert in_g(I, ctx1) and in_g(J, ctx1)
    assert in_g(ideal_sum(I, R1.ideal([R1.parse("x + y + 1")])), ctx1)
    assert in_g(ideal_intersect(I, J), ctx1)


def test_suite_filter_axioms(ctx1):
    report = check_filter_axioms(ctx1, 12, 9)
    assert report.ok, report.violations()


def test_suite_lemma_1_2_with_witness(ctx1):
    report = check_lemma_1_2(ctx1, 12, 7)
    assert report.ok, report.violations()
    notes = dict(report.notes)
    # for m = 1 the intersection condition v = h fails; a witness must appear
    assert notes["intersection-condition"] == "fails on sample"
    assert "intersection-condition-witness" in notes


def test_suite_lemma_1_2_trivial_m0(R1):
    ctx0 = RmContext(R1, 0)
    report = check_lemma_1_2(ctx0, 10, 1)
    assert report.ok, report.violations()


def test_classify_ore(ctx1, R1):
    out = classify_ore(ctx1)
    assert out["ore"] is True
    assert out["strong_ore"] is False
    assert out["witness"] is not None and not out["witness"].is_unit
    out0 = classify_ore(RmContext(R1, 0))
    assert out0["strong_ore"] is True and out0["witness"] is None
