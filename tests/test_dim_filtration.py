"""Unmixed splitting and the g-saturation with its post-conditions."""
import contextlib
import io
import random

import pytest

from gabrielq.groebner import Ideal, ideal_intersect, ideal_quotient, ideal_sum
from gabrielq.dimension import krull_dim
from gabrielq import dim_filtration
from gabrielq.cli import main
from gabrielq.dim_filtration import (
    InternalCheckError,
    _leading_coeff_factors,
    sat_g,
    unmixed_split,
)
from gabrielq.poly import DEGREVLEX
from gabrielq import sampling

# splits into three pieces on R2, one of dimension 0
PIECES_R2 = "(b+c)*(a-1), (b+c)*(b+1), (b+c)*(c+1), (b+c)*(d-1)"


def test_split_rejects_unit_ideal(R1):
    with pytest.raises(ValueError):
        unmixed_split(R1.unit_ideal())


def test_split_intersection_recovers_input(R1):
    I = R1.ideal([R1.parse("x^2*y"), R1.parse("x*y^2")])
    pieces = unmixed_split(I)
    meet = pieces[0].ideal
    for p in pieces[1:]:
        meet = ideal_intersect(meet, p.ideal)
    assert meet.equals(I)
    assert {p.dim for p in pieces} == {1, 0}


def test_split_of_unmixed_ideal_is_single_piece(R1):
    I = R1.ideal([R1.parse("x")])
    pieces = unmixed_split(I)
    assert len(pieces) == 1
    assert pieces[0].dim == 1
    assert pieces[0].ideal.equals(I)


def test_sat_g_known_value(ctx1):
    # <x^2 y, x y^2> = <xy> ∩ <x^2, y^2-ish junk>; the dim-1 part is <xy>
    R1 = ctx1.R
    I = R1.ideal([R1.parse("x^2*y"), R1.parse("x*y^2")])
    S = sat_g(I, ctx1)
    assert S.equals(R1.ideal([R1.parse("x*y")]))


def test_sat_g_torsionfree_fixpoint(ctx1):
    R1 = ctx1.R
    I = R1.ideal([R1.parse("x + 1")])
    assert sat_g(I, ctx1).equals(I)


def test_sat_g_all_torsion_is_unit(ctx1):
    R1 = ctx1.R
    I = R1.ideal([R1.parse("x"), R1.parse("y")])
    assert sat_g(I, ctx1).is_unit


def test_sat_g_m0_is_identity_on_sampled_ideals(R1):
    from gabrielq.quotient_ring import RmContext
    ctx0 = RmContext(R1, 0)
    rng = random.Random(3)
    for I in sampling.sample_proper_ideals(rng, R1, 8):
        assert sat_g(I, ctx0).equals(ideal_sum(I, R1.P))


def test_sat_g_idempotent_and_monotone(ctx1):
    rng = random.Random(7)
    R1 = ctx1.R
    ideals = sampling.sample_proper_ideals(rng, R1, 10)
    for I in ideals:
        S = sat_g(I, ctx1)
        if not S.is_unit:
            assert sat_g(S, ctx1).equals(S)


def test_sat_g_monotone_under_containment(ctx1):
    R1 = ctx1.R
    small = R1.ideal([R1.parse("x^2*y")])
    large = R1.ideal([R1.parse("x^2*y"), R1.parse("x*y^2")])
    S_small = sat_g(small, ctx1)
    S_large = sat_g(large, ctx1)
    assert S_large.contains_ideal(S_small)


def test_sat_g_quotient_dims_certify_torsion(ctx1):
    """Every generator of sat_g(I)/I is g-torsion (the V1 condition,
    re-verified here from outside)."""
    R1 = ctx1.R
    I = R1.ideal([R1.parse("x^2"), R1.parse("x*y")])
    S = sat_g(I, ctx1)
    for s in S.gens:
        if s.is_zero or I.contains(s):
            continue
        assert krull_dim(ideal_quotient(I, s)) < ctx1.m


def test_split_on_corpus_rings(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        dom = ctx.R
        v0 = dom.parse(dom.vars[0])
        I = dom.ideal([v0])
        pieces = unmixed_split(I)
        meet = pieces[0].ideal
        for p in pieces[1:]:
            meet = ideal_intersect(meet, p.ideal)
        assert meet.equals(I)
        assert all(p.dim <= 1 for p in pieces)


def test_sat_g_intersects_each_pair_once(ctx2, monkeypatch):
    R2 = ctx2.R
    gens = [R2.parse(t) for t in PIECES_R2.split(",")]
    assert len(unmixed_split(R2.ideal(gens))) == 3
    I = R2.ideal(gens)  # a fresh ideal: no basis carried over from that split
    calls = []

    def counted(A, B):
        calls.append((A.groebner(), B.groebner()))
        return ideal_intersect(A, B)

    monkeypatch.setattr(dim_filtration, "ideal_intersect", counted)
    S = sat_g(I, ctx2)
    assert S.equals(R2.ideal([R2.parse(t) for t in
                              ("b + c", "c^2 + a*d", "a*c - c*d", "a^2*d - a*d^2")]))
    assert calls and len(calls) == len(set(calls))


def test_dimension_zero_peel_computes_no_basis(R2):
    I = R2.ideal([R2.parse(v) for v in R2.vars])
    assert krull_dim(I) == 0
    assert _leading_coeff_factors(I, ()) == []
    assert set(I._gb) <= {DEGREVLEX}


def test_sat_g_rejects_an_ideal_without_P(ctx2):
    R2 = ctx2.R
    with pytest.raises(ValueError, match="defining ideal P"):
        sat_g(Ideal(R2.vars, (R2.parse("a*b"),)), ctx2)


@pytest.mark.parametrize("ideal", [PIECES_R2, "a*b, a*c"], ids=["pieces", "ab-ac"])
def test_gq_saturate_intersects_each_pair_once(ideal, monkeypatch):
    """gq saturate reports the split that sat_g computed, so the split's
    intersections share sat_g's per-call dict."""
    calls = []

    def counted(A, B):
        calls.append((A.groebner(), B.groebner()))
        return ideal_intersect(A, B)

    monkeypatch.setattr(dim_filtration, "ideal_intersect", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["saturate", "--ring", "R2", "--m", "1", ideal]) == 0
    assert len(calls) == len(set(calls)) == 4
