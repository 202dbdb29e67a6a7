"""Polynomial arithmetic, orders, parsing, and printing."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gabrielq.poly import (
    DEGREVLEX,
    LEX,
    Polynomial,
    PolyParseError,
    VariableMismatchError,
    elimination_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_poly,
    poly_to_str,
)

VARS = ("x", "y", "z")


def P(text):
    return parse_poly(text, VARS)


def test_mono_helpers():
    assert mono_mul((1, 2, 0), (0, 1, 3)) == (1, 3, 3)
    assert mono_divides((1, 0, 0), (2, 1, 0))
    assert not mono_divides((1, 0, 1), (2, 1, 0))
    assert mono_div((2, 1, 0), (1, 0, 0)) == (1, 1, 0)
    assert mono_lcm((1, 2, 0), (0, 1, 3)) == (1, 2, 3)


def test_constructors_and_predicates():
    z = Polynomial.zero(VARS)
    assert z.is_zero and z.total_degree() == -1
    one = Polynomial.one(VARS)
    assert one.is_constant and not one.is_zero
    x = Polynomial.variable(VARS, "x")
    assert x.total_degree() == 1
    assert Polynomial.constant(VARS, 0).is_zero


def test_arithmetic_identities():
    f = P("x^2 + 2*y")
    g = P("x - y + 3")
    assert f + g - g == f
    assert f * g == g * f
    assert (f + g) * g == f * g + g * g
    assert f * Polynomial.zero(VARS) == Polynomial.zero(VARS)
    assert -(-f) == f
    assert f - f == Polynomial.zero(VARS)


def test_pow():
    x, y = P("x"), P("y")
    assert (x + y) ** 2 == P("x^2 + 2*x*y + y^2")
    assert (x + y) ** 0 == Polynomial.one(VARS)
    assert (x - y) ** 3 == P("x^3 - 3*x^2*y + 3*x*y^2 - y^3")
    assert x ** 7 == P("x^7")
    with pytest.raises(ValueError):
        x ** -1


def test_scale_and_int_mixing():
    f = P("x + 1")
    assert 2 * f == P("2*x + 2")
    assert f.scale(Fraction(1, 2)) == P("1/2*x + 1/2")
    assert f + 1 == P("x + 2")
    assert 1 - f == P("-x")


def test_leading_terms_by_order():
    f = P("x*y^2 + x^2 + y^3")
    # degrevlex: all degree 3; x*y^2 vs y^3 — revlex prefers x*y^2
    m, c = f.leading(DEGREVLEX)
    assert m == (1, 2, 0) and c == 1
    m, _ = f.leading(LEX)
    assert m == (2, 0, 0)
    # eliminating x pushes x-monomials to the front
    m, _ = f.leading(elimination_order((0,)))
    assert m == (2, 0, 0)
    with pytest.raises(ValueError):
        Polynomial.zero(VARS).leading(DEGREVLEX)


def reference_key(order, m):
    """The block-order key as lists of the front and back exponents, kept
    independent of MonomialOrder's own keys."""
    if order.kind == "lex":
        return m
    front = order.front  # () for degrevlex: one block
    fpart = [m[i] for i in front]
    bpart = [m[i] for i in range(len(m)) if i not in front]
    return (
        sum(fpart), tuple(-e for e in reversed(fpart)),
        sum(bpart), tuple(-e for e in reversed(bpart)),
    )


@st.composite
def orders_and_monomials(draw):
    n = draw(st.integers(3, 5))
    nfront = draw(st.sampled_from([None, 0, 1, 2]))  # None: lex, 0: degrevlex
    if nfront is None:
        order = LEX
    elif nfront == 0:
        order = DEGREVLEX
    else:
        front = draw(st.lists(st.integers(0, n - 1), min_size=nfront,
                              max_size=nfront, unique=True))
        order = elimination_order(tuple(front))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=2,
                          max_size=30, unique=True))
    return order, monos


@settings(max_examples=200, deadline=None)
@given(orders_and_monomials())
def test_order_keys_agree(case):
    order, monos = case
    ascending = sorted(monos, key=order.key)
    assert ascending == sorted(monos, key=order.desc, reverse=True)
    assert ascending == sorted(monos, key=lambda m: reference_key(order, m))


def test_monic():
    f = P("3*x^2 + 6*y")
    assert f.monic(DEGREVLEX) == P("x^2 + 2*y")
    assert Polynomial.zero(VARS).monic(DEGREVLEX).is_zero


def test_variable_mismatch():
    f = parse_poly("x", ("x", "y"))
    g = parse_poly("x", ("x", "z"))
    with pytest.raises(VariableMismatchError):
        f + g


def test_parse_basics():
    assert P("0").is_zero
    assert P("x^2*y - 3") == P("-3 + y*x^2")
    assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("1/2*x") == P("x").scale(Fraction(1, 2))
    assert P("2 - - 3") == P("5")


def test_parse_rejects_garbage():
    for bad in ("x y", "w", "x +", "x^", "1/0", "(x", "x**2", ""):
        with pytest.raises(PolyParseError):
            P(bad)
    with pytest.raises(PolyParseError, match="expected a non-negative integer exponent"):
        P("x^y")


def test_parse_nesting_limit():
    assert P("(" * 100 + "x" + ")" * 100) == P("x")
    with pytest.raises(PolyParseError, match="nested deeper than 100"):
        P("(" * 101 + "x" + ")" * 101)
    # a long run of unary signs is read without recursion
    assert P("-" * 5001 + "x^2") == P("-x^2")
    assert P("-+-x") == P("x")


def test_str_round_trip():
    for text in ("x^2*y - 3*y + 1/2", "-x + y^5", "0", "7", "x*y*z"):
        f = P(text)
        assert P(poly_to_str(f)) == f


def test_str_is_deterministic():
    f = P("y + x + z^2")
    assert str(f) == str(P("z^2 + y + x"))


@st.composite
def polys(draw):
    nterms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(nterms):
        m = tuple(draw(st.integers(0, 3)) for _ in VARS)
        c = draw(st.integers(-9, 9))
        if c:
            terms[m] = terms.get(m, 0) + Fraction(c)
    return Polynomial(VARS, {m: c for m, c in terms.items() if c})


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(polys())
def test_round_trip_property(f):
    assert parse_poly(poly_to_str(f), VARS) == f


def square_and_multiply(f, n):
    """f^n by repeated squaring: an independent reference for __pow__."""
    result = Polynomial.one(f.vars)
    while n:
        if n & 1:
            result = result * f
        f = f * f
        n >>= 1
    return result


@settings(max_examples=60, deadline=None)
@given(polys(), st.integers(1, 5), st.integers(0, 6))
def test_pow_agrees_with_square_and_multiply(f, den, n):
    # one-term bases (raised directly) and zero are among the draws
    f = f.scale(Fraction(1, den))
    assert f ** n == square_and_multiply(f, n)


def test_pow_of_one_term_is_immediate():
    assert P("-2/3*x*y^2") ** 3 == P("-8/27*x^3*y^6")
    big = 4611686018427387904
    assert P("x") ** big == Polynomial(VARS, {(big, 0, 0): Fraction(1)})
