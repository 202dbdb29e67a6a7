"""Buchberger engine and the derived ideal operations.

The oracle values here were computed by hand (the standard textbook
examples) and frozen; the GB self-checks (every s-polynomial of the
output reduces to zero) re-derive correctness independently, with the
Fraction division below, which shares no code with the integer kernel.
"""
import itertools
import random
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import pytest

from gabrielq.poly import (
    DEGREVLEX,
    LEX,
    Polynomial,
    elimination_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_poly,
    time_budget,
)
from gabrielq import groebner
from gabrielq.groebner import (
    Ideal,
    InternalCheckError,
    buchberger,
    eliminate,
    exact_divide,
    ideal_intersect,
    ideal_product,
    ideal_quotient,
    ideal_quotient_ideal,
    ideal_sum,
    normal_form,
    saturate,
    saturate_rabinowitsch,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, vars=XY):
    return parse_poly(text, vars)


def I(*texts, vars=XY):
    return Ideal(vars, tuple(P(t, vars) for t in texts))


# -- an independent reference: division over the rationals -------------

def reference_remainder(f, G, order):
    """Remainder of f under division by the list G, over the Fractions.

    The largest remaining monomial is reduced by the first element of G
    whose leading monomial divides it, and kept in the remainder when none
    does.  Quadratic, and sharing no code with the integer kernel.
    """
    reducers = [g.leading(order) + (g,) for g in G if not g.is_zero]
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for lt, lc, g in reducers:
            if mono_divides(lt, m):
                shift, factor = mono_div(m, lt), c / lc
                for gm, gc in g.terms.items():
                    if gm != lt:
                        t = mono_mul(gm, shift)
                        work[t] = work.get(t, 0) - factor * gc
                        if not work[t]:
                            del work[t]
                break
        else:
            remainder[m] = c
    return Polynomial(f.vars, remainder)


def standard_monomials(lts, nvars):
    """Monomials outside <lts>, when that set is finite.

    Finiteness is certified by a pure power of every variable appearing
    among the leading terms; returns None when the criterion fails.
    """
    if any(not any(lt) for lt in lts):
        return []  # the unit ideal
    bounds = []
    for i in range(nvars):
        b = None
        for lt in lts:
            if lt[i] and all(e == 0 for j, e in enumerate(lt) if j != i):
                b = lt[i] if b is None else min(b, lt[i])
        if b is None:
            return None
        bounds.append(b)
    return [
        m
        for m in itertools.product(*(range(b) for b in bounds))
        if not any(mono_divides(lt, m) for lt in lts)
    ]


def fraction_kernel(A):
    """Basis of the kernel of the square matrix A over the rationals."""
    n = len(A)
    M = [row[:] for row in A]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, n) if M[i][c]), None)
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        inv = Fraction(1) / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(n):
            if i != r and M[i][c]:
                factor = M[i][c]
                M[i] = [x - factor * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -M[i][fc]
        basis.append(v)
    return basis


def reference_quotient_kernel(G, f):
    """(I : f) mod I by linear algebra in R/I, for G a degrevlex basis of I.

    g lies in (I : f) iff multiplication by f kills the residue of g, so
    (I : f) = I + <K>, where K is the kernel of the multiplication matrix
    on the standard-monomial basis of R/I, which must be finite.
    Returns K as polynomials.
    """
    lts = [g.leading(DEGREVLEX)[0] for g in G]
    B = standard_monomials(lts, len(f.vars))
    assert B is not None, "R/I is not visibly finite-dimensional"
    index = {m: i for i, m in enumerate(B)}
    n = len(B)
    cols = []
    for m in B:
        r = reference_remainder(f * Polynomial(f.vars, {m: Fraction(1)}), G, DEGREVLEX)
        col = [Fraction(0)] * n
        for mm, c in r.terms.items():
            col[index[mm]] = c
        cols.append(col)
    A = [[cols[j][i] for j in range(n)] for i in range(n)]
    return [Polynomial(f.vars, {B[j]: v[j] for j in range(n) if v[j]})
            for v in fraction_kernel(A)]


def s_polynomial(f, g, order):
    lf, cf = f.leading(order)
    lg, cg = g.leading(order)
    lcm = mono_lcm(lf, lg)
    a = Polynomial(f.vars, {mono_div(lcm, lf): Fraction(1) / cf})
    b = Polynomial(f.vars, {mono_div(lcm, lg): Fraction(1) / cg})
    return a * f - b * g


def test_normal_form_division_invariant():
    f = P("x^3*y + x*y^2 + y")
    ideal = I("x*y - 1", "y^2 - 1")
    r = normal_form(f, ideal, DEGREVLEX)
    assert ideal.contains(f - r)
    # no monomial of r is divisible by a leading monomial of the basis
    lts = [g.leading(DEGREVLEX)[0] for g in ideal.groebner()]
    assert not any(mono_divides(lt, m) for lt in lts for m in r.terms)
    assert r == reference_remainder(f, ideal.groebner(), DEGREVLEX)


def test_exact_divide():
    assert exact_divide(P("x^2*y + x*y^2 - x*y"), P("x + y - 1")) == P("x*y")
    assert exact_divide(P("x^2*y"), P("x*y")) == P("x")
    with pytest.raises(ValueError):
        exact_divide(P("x + 1"), P("x"))
    with pytest.raises(ValueError):
        exact_divide(P("x^2*y + 1"), P("x"))
    with pytest.raises(ZeroDivisionError):
        exact_divide(P("x"), P("0"))


def test_reductions_check_the_deadline():
    # a deadline already past: the first reduction step raises, in every
    # caller of the kernel and in exact division
    f = P("(x + y + 1)^6")
    ideal = I("x*y - 1", "y^2 - 1")
    ideal.groebner()
    with time_budget(-1, "over budget"):
        for reduction in (
            lambda: normal_form(f, ideal),
            lambda: ideal.reduce(f),
            lambda: ideal.contains(f),
            lambda: exact_divide(f, P("x + y")),
        ):
            with pytest.raises(TimeoutError, match="over budget"):
                reduction()


def test_reduction_keeps_no_memory(R2):
    # c^50000 takes 50,000 reduction steps through as many monomials; the
    # kernel computes their order keys as it goes and keeps none of them
    f = R2.parse("c^50000")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        R2.nf(f)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 1_000_000


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
            assert reference_remainder(s, gb, order).is_zero


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


# -- bases carried by ideal operations ---------------------------------

ABCD = ("a", "b", "c", "d")
R2_RELATIONS = ("b*c - a*d", "c^3 - b*d^2", "a*c^2 - b^2*d", "b^3 - a^2*c")


@st.composite
def abcd_polys(draw, max_terms=3, rational=False):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        m = tuple(draw(st.integers(0, 2)) for _ in ABCD)
        c = draw(st.integers(-3, 3))
        if c:
            c = Fraction(c, draw(st.integers(1, 6)) if rational else 1)
            terms[m] = terms.get(m, 0) + c
    f = Polynomial(ABCD, {m: c for m, c in terms.items() if c})
    return f if not f.is_zero else Polynomial.variable(ABCD, "a")


@st.composite
def abcd_ideals(draw, rational=False):
    """<random generators>, plus R2's relations in most draws."""
    gens = draw(st.lists(abcd_polys(rational=rational), min_size=1, max_size=2))
    if draw(st.integers(0, 3)):
        gens += [parse_poly(t, ABCD) for t in R2_RELATIONS]
    return Ideal(ABCD, tuple(gens))


@settings(max_examples=40, deadline=None)
@given(abcd_ideals(rational=True),
       st.lists(abcd_polys(max_terms=4, rational=True), min_size=1, max_size=3),
       st.sampled_from([DEGREVLEX, LEX, elimination_order((0,))]))
def test_kernel_normal_forms_agree_with_the_reference(ideal, fs, order):
    gb = ideal.groebner(order)
    # members too: f·g and f·g + h for a generator g
    fs = fs + [fs[0] * ideal.gens[-1], fs[-1] * ideal.gens[0] + fs[0]]
    for f in fs:
        expected = reference_remainder(f, gb, order)
        assert normal_form(f, ideal, order) == expected
        assert ideal.reduce(f, order) == expected
        assert ideal.contains(f, order) == expected.is_zero


def _fresh(ideal):
    return tuple(buchberger(list(ideal.gens), DEGREVLEX))


@settings(max_examples=30, deadline=None)
@given(abcd_ideals(), abcd_ideals(), abcd_polys())
def test_carried_bases_equal_fresh_buchberger(A, B, f):
    for result in (
        ideal_intersect(A, B),
        saturate_rabinowitsch(A, f),
        ideal_quotient(A, f),
        ideal_quotient(A, f * A.gens[0]),  # f·g ∈ A: the unit shortcut
        ideal_sum(A, B),
        ideal_sum(A, Ideal(ABCD, A.groebner()[:2])),  # ⊆ A: A's basis kept
    ):
        assert result.groebner() == _fresh(result)


@settings(max_examples=40, deadline=None)
@given(abcd_ideals(), st.lists(abcd_polys(), max_size=2), st.integers(0, 3))
def test_sum_grows_the_carried_basis(A, fs, shape):
    A.groebner()  # A carries its basis
    gens = list(fs)
    if shape == 1:
        gens += A.gens[:2]  # J ⊆ A when fs is empty
    elif shape == 2:
        gens.append(Polynomial.one(ABCD) + A.gens[0])  # 1 ∈ A + J
    B = Ideal(ABCD, tuple(gens))
    S = ideal_sum(A, B)
    assert DEGREVLEX in S._gb  # carried, not recomputed on demand
    assert S.gens == A.gens + B.gens
    assert S.groebner() == Ideal(ABCD, A.gens + B.gens).groebner()


def test_quotient_by_a_constant_keeps_the_ideal():
    # (I : c) = I; the elimination route would intersect with the unit
    # ideal <3>, get I's generators back and divide them, which are no basis
    ideal = I("x^2*y + x*y", "x*y^2 - y")
    q = ideal_quotient(ideal, P("3"))
    assert q.groebner() == _fresh(q) == ideal.groebner()


TXYZ = ("t",) + XYZ


@st.composite
def xyz_polys(draw, vars=XYZ):
    """A small polynomial in x, y, z with no constant term, so that no
    ideal of them is the unit ideal, lifted to `vars` (x, y, z last)."""
    pad = (0,) * (len(vars) - len(XYZ))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        m = tuple(draw(st.integers(0, 2)) for _ in XYZ)
        c = draw(st.integers(-5, 5))
        if c and any(m):
            terms[pad + m] = terms.get(pad + m, 0) + Fraction(c)
    f = Polynomial(vars, {m: c for m, c in terms.items() if c})
    return f if not f.is_zero else Polynomial.variable(vars, "x")


@st.composite
def known_basis_inputs(draw):
    """Generators of which a leading run is a Groebner basis."""
    order = draw(st.sampled_from([DEGREVLEX, LEX, elimination_order((0,))]))
    basis = buchberger(draw(st.lists(xyz_polys(), min_size=1, max_size=3)), order)
    # a Groebner basis need not be reduced: rescale it, add a multiple
    basis = [g.scale(3) for g in basis] + [P("y", XYZ) * g for g in basis[:1]]
    rest = [f + draw(st.integers(0, 1)) for f in draw(st.lists(xyz_polys(), max_size=3))]
    return basis + rest, order, len(basis)


@settings(max_examples=40, deadline=None)
@given(known_basis_inputs())
def test_known_basis_gives_the_same_basis(case):
    gens, order, known = case
    assert buchberger(gens, order, known=known) == buchberger(gens, order)


@settings(max_examples=25, deadline=None)
@given(st.lists(xyz_polys(TXYZ), min_size=1, max_size=3),
       st.lists(xyz_polys(TXYZ), min_size=1, max_size=3))
def test_known_basis_of_an_intersection(A, B):
    # the shape ideal_intersect hands to buchberger: t·GB(A), (1-t)·GB(B)
    t = P("t", TXYZ)
    gb_A, gb_B = buchberger(A, DEGREVLEX), buchberger(B, DEGREVLEX)
    gens = [t * g for g in gb_A] + [(1 - t) * g for g in gb_B]
    order = elimination_order((0,))
    assert buchberger(gens, order, known=len(gb_A)) == buchberger(gens, order)


def test_quotient_by_a_member_is_the_unit_ideal_without_elimination(monkeypatch):
    orders = []
    real = groebner.buchberger

    def counting(gens, order, *args, **kwargs):
        orders.append(order.kind)
        return real(gens, order, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    ideal = Ideal(ABCD, tuple(parse_poly(t, ABCD) for t in ("a*b",) + R2_RELATIONS))
    ideal.groebner()
    orders.clear()
    q = ideal_quotient(ideal, parse_poly("a*b*c + b^2*c - a*b*d", ABCD))
    assert q.is_unit
    assert q.groebner() == (Polynomial.one(ABCD),)
    assert "elim" not in orders and not orders


# -- ideal_quotient against the linear-algebra reference ----------------

@st.composite
def leading_power(draw, vars, name):
    """name^e + p with deg p < e, so name^e is the degrevlex leading term."""
    e = draw(st.integers(1, 3))
    f = Polynomial.variable(vars, name) ** e
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.lists(st.integers(0, e - 1), min_size=len(vars),
                          max_size=len(vars)))
        if sum(m) < e:
            f = f + Polynomial(vars, {tuple(m): Fraction(draw(st.integers(-5, 5)))})
    return f


@st.composite
def zero_dimensional_quotients(draw):
    """(I, f) with R/I finite-dimensional: <x^a + p, y^b + q> plus extra
    generators, or R2's relations plus a^k + p and d^l + q."""
    if draw(st.booleans()):
        gens = [draw(leading_power(XY, "x")), draw(leading_power(XY, "y"))]
        gens += draw(st.lists(small_polys(), max_size=1))
        f = draw(small_polys().filter(lambda f: not f.is_constant))
        return Ideal(XY, tuple(gens)), f
    gens = [draw(leading_power(ABCD, "a")), draw(leading_power(ABCD, "d"))]
    gens += [parse_poly(t, ABCD) for t in R2_RELATIONS]
    gens += draw(st.lists(abcd_polys(), max_size=1))
    f = draw(abcd_polys().filter(lambda f: not f.is_constant))
    return Ideal(ABCD, tuple(gens)), f


@settings(max_examples=60, deadline=None)
@given(zero_dimensional_quotients())
def test_quotient_agrees_with_the_linear_algebra_reference(case):
    ideal, f = case
    G = ideal.groebner()
    Q = ideal_quotient(ideal, f)
    # Q ⊆ (I : f): f times each generator and basis element lies in I
    for g in Q.gens + Q.groebner():
        assert reference_remainder(f * g, G, DEGREVLEX).is_zero
    # (I : f) ⊆ Q: I and the reference kernel reduce to zero by Q's basis
    for g in ideal.gens + tuple(reference_quotient_kernel(G, f)):
        assert reference_remainder(g, Q.groebner(), DEGREVLEX).is_zero
