"""Buchberger engine and the derived ideal operations.

The oracle values here were computed by hand (the standard textbook
examples) and frozen; the GB self-checks (every s-polynomial of the
output reduces to zero) re-derive correctness independently.
"""
import random

from hypothesis import given, settings, strategies as st

import pytest

from gabrielq.poly import DEGREVLEX, LEX, Polynomial, parse_poly
from gabrielq import groebner
from gabrielq.groebner import (
    Ideal,
    InternalCheckError,
    buchberger,
    divide_single,
    eliminate,
    exact_divide,
    ideal_intersect,
    ideal_member,
    ideal_product,
    ideal_quotient,
    ideal_quotient_ideal,
    ideal_sum,
    normal_form,
    s_polynomial,
    saturate,
    saturate_rabinowitsch,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, vars=XY):
    return parse_poly(text, vars)


def I(*texts, vars=XY):
    return Ideal(vars, tuple(P(t, vars) for t in texts))


def test_normal_form_division_invariant():
    f = P("x^3*y + x*y^2 + y")
    G = [P("x*y - 1"), P("y^2 - 1")]
    r = normal_form(f, G, DEGREVLEX)
    assert ideal_member(f - r, Ideal(XY, tuple(G)))
    # no monomial of r is divisible by a leading monomial of G
    for m in r.terms:
        assert m[0] * m[1] == 0 or m[1] < 1


def test_divide_single():
    f = P("x^2*y + x + 1")
    g = P("x")
    q, r = divide_single(f, g)
    assert q * g + r == f
    assert r == P("1")
    assert exact_divide(P("x^2*y"), P("x*y")) == P("x")
    with pytest.raises(ValueError):
        exact_divide(P("x + 1"), P("x"))


def test_buchberger_textbook():
    # twisted cubic projected: <y^2 - x^3> is already a GB
    gb = buchberger([P("y^2 - x^3")], DEGREVLEX)
    assert gb == [P("x^3 - y^2")]
    # <x^2+y, x*y> forces y^2 in
    gb = buchberger([P("x^2 + y"), P("x*y")], DEGREVLEX)
    basis = Ideal(XY, tuple(gb))
    assert basis.contains(P("y^2"))


def test_reduced_gb_is_canonical():
    random.seed(5)
    gens = [P("x^2 + y"), P("x*y - 1"), P("y^3 + x")]
    for _ in range(5):
        random.shuffle(gens)
        scaled = [g.scale(random.choice([1, 2, -3])) for g in gens]
        assert buchberger(scaled, DEGREVLEX) == buchberger(gens, DEGREVLEX)


def _spoly_check(gb, order):
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            s = s_polynomial(gb[i], gb[j], order)
            assert normal_form(s, gb, order).is_zero


def test_gb_self_check_spolys():
    for gens in (
        [P("x^2 + y"), P("x*y")],
        [P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")],
        [P("x^2 + y^2 + z^2 - 1", XYZ), P("x*y - z", XYZ)],
    ):
        order = DEGREVLEX
        gb = buchberger(gens, order)
        _spoly_check(gb, order)


def test_zero_and_unit_ideals():
    assert Ideal(XY, ()).is_zero
    assert I("0", "0").is_zero
    assert I("2").is_unit
    assert I("x", "x + 1").is_unit
    assert not I("x").is_unit


def test_ideal_equality_and_containment():
    assert I("x", "y").equals(I("y", "x + y"))
    assert I("x").contains_ideal(I("x^2", "x*y"))
    assert not I("x^2").contains_ideal(I("x"))


def test_sum_product():
    assert ideal_sum(I("x"), I("y")).equals(I("x", "y"))
    assert ideal_product(I("x"), I("y")).equals(I("x*y"))
    assert ideal_product(I("x", "y"), I("x", "y")).equals(I("x^2", "x*y", "y^2"))


def test_intersection_oracle():
    # <x> ∩ <y> = <xy>
    assert ideal_intersect(I("x"), I("y")).equals(I("x*y"))
    # intersect with unit/zero
    assert ideal_intersect(I("1"), I("x")).equals(I("x"))
    assert ideal_intersect(I("x"), Ideal(XY, ())).is_zero
    # <x, y> ∩ <x - 1> = <x^2 - x, x*y - y>
    J = ideal_intersect(I("x", "y"), I("x - 1"))
    assert J.equals(I("x^2 - x", "x*y - y"))


def test_quotient_oracle():
    # (<xy> : x) = <y>
    assert ideal_quotient(I("x*y"), P("x")).equals(I("y"))
    # (<x^2, xy> : x) = <x, y>
    assert ideal_quotient(I("x^2", "x*y"), P("x")).equals(I("x", "y"))
    # quotient by a non-divisor is the whole relation
    assert ideal_quotient(I("x"), P("y")).equals(I("x"))
    # ideal-by-ideal
    assert ideal_quotient_ideal(I("x^2", "x*y"), I("x", "y")).equals(I("x"))


def test_saturation_oracle():
    # (<x^2*y> : y^inf) = <x^2>, exponent 1
    S, s = saturate(I("x^2*y"), P("y"))
    assert S.equals(I("x^2")) and s == 1
    # already saturated
    S, s = saturate(I("x"), P("y"))
    assert S.equals(I("x")) and s == 0
    # deeper exponent
    S, s = saturate(I("x*y^3"), P("y"))
    assert S.equals(I("x")) and s == 3


def test_saturation_exponent_cap_is_an_internal_error(monkeypatch):
    # s = 3 is needed; a cap of 2 means the search cannot stabilize, which
    # is a failed post-condition rather than bad input
    monkeypatch.setattr(groebner, "_MAX_SATURATION_EXPONENT", 2)
    with pytest.raises(InternalCheckError):
        saturate(I("x*y^3"), P("y"))


def test_saturation_cross_check():
    for gens, f in (
        (("x^2*y", "x*y^2"), "x"),
        (("x^2 + y", "x*y"), "y"),
        (("x^3",), "x"),
    ):
        ideal = I(*gens)
        fp = P(f)
        iterated, _ = saturate(ideal, fp)
        assert iterated.equals(saturate_rabinowitsch(ideal, fp))


def test_elimination_oracle():
    # eliminate t from <x - t^2, y - t^3>: the cuspidal cubic y^2 - x^3
    vars = ("t", "x", "y")
    J = Ideal(vars, (parse_poly("x - t^2", vars), parse_poly("y - t^3", vars)))
    E = eliminate(J, ("t",))
    expected = Ideal(vars, (parse_poly("y^2 - x^3", vars),))
    assert E.equals(expected)
    with pytest.raises(ValueError):
        eliminate(J, ("w",))


@st.composite
def small_polys(draw):
    from fractions import Fraction
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        m = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        c = draw(st.integers(-5, 5))
        if c:
            terms[m] = terms.get(m, 0) + Fraction(c)
    return Polynomial(XY, {m: c for m, c in terms.items() if c})


@settings(max_examples=25, deadline=None)
@given(st.lists(small_polys(), min_size=1, max_size=2), small_polys())
def test_membership_soundness(gens, mult):
    """Any R-combination of the generators is a member."""
    ideal = Ideal(XY, tuple(gens))
    combo = Polynomial.zero(XY)
    for g in gens:
        combo = combo + mult * g
    assert ideal.contains(combo)


@settings(max_examples=20, deadline=None)
@given(st.lists(small_polys(), min_size=1, max_size=2))
def test_gb_generates_same_ideal(gens):
    ideal = Ideal(XY, tuple(gens))
    gb = ideal.groebner()
    back = Ideal(XY, gb)
    assert ideal.equals(back)
    for g in gens:
        assert back.contains(g)
