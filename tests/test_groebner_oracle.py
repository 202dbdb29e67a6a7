"""buchberger against an engine that shares none of its code: sympy's
reduced Groebner bases over QQ, on small random ideals in 3 and 4
variables, some of them containing the relations of R2.

Reduced Groebner bases are unique, so each side, made monic under the
order, must give the same set of polynomials.  Orders: degrevlex, lex,
and the block elimination order that puts the first (tag) variable in
its own front block, which sympy writes as a ProductOrder of two grevlex
blocks.  sympy is needed only here; the test is skipped without it.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402

from gabrielq.groebner import buchberger  # noqa: E402
from gabrielq.poly import (  # noqa: E402
    DEGREVLEX,
    LEX,
    Polynomial,
    elimination_order,
    parse_poly,
)

ABCD = ("a", "b", "c", "d")
R2_RELATIONS = ("b*c - a*d", "c^3 - b*d^2", "a*c^2 - b^2*d", "b^3 - a^2*c")

ORDERS = {
    "degrevlex": (DEGREVLEX, "grevlex"),
    "lex": (LEX, "lex"),
    "elim": (
        elimination_order((0,)),
        ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:])),
    ),
}


@st.composite
def polys(draw, vars, max_exp=2, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        m = tuple(draw(st.integers(0, max_exp)) for _ in vars)
        c = draw(st.integers(-5, 5))
        if c:
            terms[m] = terms.get(m, 0) + Fraction(c)
    return Polynomial(vars, terms)


@st.composite
def ideals(draw):
    """(vars, generators): 1-3 random generators in 3 or 4 variables, in
    4 variables possibly together with the relations of R2."""
    vars = ABCD[: draw(st.sampled_from((3, 4)))]
    gens = draw(st.lists(polys(vars), min_size=1, max_size=3))
    if len(vars) == 4 and draw(st.booleans()):
        gens = [parse_poly(t, vars) for t in R2_RELATIONS] + gens[:1]
    return vars, gens


def _monic(terms, key):
    lead = terms[max(terms, key=key)]
    return frozenset((m, c / lead) for m, c in terms.items())


def _sympy_basis(vars, gens, sympy_order, key):
    symbols = sympy.symbols(vars)
    exprs = [
        sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.prod(s**e for s, e in zip(symbols, m))
            for m, c in g.terms.items()
        )
        for g in gens
        if not g.is_zero
    ]
    if not exprs:
        return set()
    G = sympy.groebner(exprs, *symbols, order=sympy_order, domain=sympy.QQ)
    basis = set()
    for g in G.exprs:
        p = sympy.Poly(g, *symbols, domain=sympy.QQ)
        terms = {m: Fraction(int(c.p), int(c.q)) for m, c in p.terms()}
        basis.add(_monic(terms, key))
    return basis


def _check(vars, gens, name):
    order, sympy_order = ORDERS[name]
    ours = buchberger(gens, order)
    assert all(g.leading(order)[1] == 1 for g in ours)
    lts = [order.key(g.leading(order)[0]) for g in ours]
    assert lts == sorted(lts)
    expected = _sympy_basis(vars, gens, sympy_order, order.key)
    assert {frozenset(g.terms.items()) for g in ours} == expected


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_fixed_ideals_match_sympy(name):
    vars = ABCD
    for texts in (
        R2_RELATIONS,
        R2_RELATIONS + ("a*d - 1",),
        R2_RELATIONS + ("5*b^2 + 9*a*c - 7*c - 7",),
        ("a^2 + b*c - 1", "a*b - c", "b^2 - d"),
    ):
        _check(vars, [parse_poly(t, vars) for t in texts], name)


def test_conductor_elimination_matches_sympy():
    """The tag elimination behind the conductor ((b) + P : a) on R2:
    t·((b) + P) + (1 - t)·(a) in Q[t, a, b, c, d]."""
    vars = ("t",) + ABCD
    t = parse_poly("t", vars)
    gens = [t * parse_poly(g, vars) for g in ("b",) + R2_RELATIONS]
    gens.append((1 - t) * parse_poly("a", vars))
    _check(vars, gens, "elim")


@settings(max_examples=100, deadline=None)
@given(ideals())
def test_degrevlex_matches_sympy(ideal):
    _check(*ideal, "degrevlex")


@settings(max_examples=50, deadline=None)
@given(ideals())
def test_lex_matches_sympy(ideal):
    _check(*ideal, "lex")


@settings(max_examples=100, deadline=None)
@given(ideals())
def test_elimination_order_matches_sympy(ideal):
    _check(*ideal, "elim")
