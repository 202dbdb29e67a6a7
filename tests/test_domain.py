"""Affine domains, fractions, and finitely generated submodules of Q."""
import pytest

from gabrielq.poly import Polynomial, parse_poly
from gabrielq.domain import DomainError, FractionQ, SubQ, make_domain, transform


def test_corpus_dimensions(R1, R2, R3):
    assert R1.n == 2
    assert R2.n == 2
    assert R3.n == 2


def test_visible_reducibility_rejected():
    with pytest.raises(DomainError):
        make_domain(("x", "y"), ["x*y"])
    with pytest.raises(DomainError):
        make_domain(("x", "y"), ["x^2"])
    with pytest.raises(DomainError):
        make_domain(("x", "y"), ["x^2*y + x*y^2"])
    # a variable itself is fine (it is irreducible)
    make_domain(("x", "y"), ["x"])
    with pytest.raises(DomainError):
        make_domain(("x",), ["1"])


def test_normal_forms_are_canonical(R3):
    y2 = R3.parse("y^2")
    x3 = R3.parse("x^3")
    assert R3.nf(y2) == R3.nf(x3)
    assert R3.is_zero_elem(y2 - x3)
    assert not R3.is_zero_elem(R3.parse("y"))


def test_units_of_R(R1):
    assert R1.is_unit_elem(R1.parse("3"))
    assert not R1.is_unit_elem(R1.parse("x"))
    assert not R1.is_unit_elem(R1.parse("0"))


def test_fraction_arithmetic(R1):
    half = R1.fraction("1", "2")
    x = R1.fraction("x")
    q = R1.fraction("1", "x")
    assert (x * q).eq(R1.fraction("1"))
    assert (q + q).eq(R1.fraction("2", "x"))
    assert (q - q).is_zero
    assert q.inv().eq(x)
    assert (half + half).eq(R1.fraction("1"))
    with pytest.raises(ZeroDivisionError):
        R1.fraction("1", "0")
    with pytest.raises(ZeroDivisionError):
        R1.fraction("0", "x").inv()


def test_fraction_equality_never_reduces(R3):
    # y/x = x^2/y in Frac(R3) since y^2 = x^3
    a = R3.fraction("y", "x")
    b = R3.fraction("x^2", "y")
    assert a.eq(b)
    assert not a.eq(R3.fraction("x", "y"))


def test_fractions_over_different_rings_rejected(R1):
    # same variable names, different defining ideal: Q[x,y]/(x^2 - y) is not R1
    other = make_domain(("x", "y"), ["x^2 - y"])
    x, y = R1.fraction("x"), other.fraction("y")
    for op in (lambda: x * y, lambda: x + y, lambda: x - y, lambda: x.eq(y)):
        with pytest.raises(ValueError):
            op()
    # another presentation of the same ring is the same ring
    plane = make_domain(("x", "y"), [])
    assert (x * plane.fraction("y")).eq(R1.fraction("x*y"))


def test_in_R(R1, R2):
    assert R1.fraction("x^2*y", "x").in_R()
    assert not R1.fraction("y", "x").in_R()
    assert not R2.fraction("b^2", "a").in_R()
    assert R2.fraction("a*d", "a").in_R()  # = d = bc/a in Frac(R2)


def test_subq_contains(R1):
    x = R1.parse("x")
    M = SubQ(R1, x, R1.ideal([R1.parse("x"), R1.parse("y")]))  # (1/x)<x, y>
    assert M.contains_fraction(R1.fraction("y", "x"))
    assert M.contains_fraction(R1.fraction("1"))
    assert not M.contains_fraction(R1.fraction("1", "x"))
    assert M.contains_subq(SubQ.from_R(R1))
    assert not SubQ.from_R(R1).contains_subq(M)


def test_subq_equality_is_representation_independent(R1):
    x, y = R1.parse("x"), R1.parse("y")
    A = SubQ(R1, x, R1.ideal([x, y]))
    # scale representative by c = y: (x, <x,y>) ~ (xy, <xy, y^2>)
    B = SubQ(R1, x * y, R1.ideal([x * y, y * y]))
    assert A.equals(B)
    assert A.trimmed().equals(A)
    assert not A.equals(SubQ.from_R(R1))


def test_subq_union_and_is_R(R1):
    x = R1.parse("x")
    A = SubQ.from_R(R1)
    B = SubQ(R1, x, R1.ideal([R1.parse("y")]))
    U = A.union(B)
    assert U.contains_subq(A) and U.contains_subq(B)
    assert A.is_R() and not U.is_R()
    assert SubQ.zero(R1).contains_fraction(R1.fraction("0", "x"))


def test_transform(R1, R2):
    # (R :_Q <x, y>) in Q[x,y] is just R (R1 is normal and V(x,y) has codim 2)
    T = transform(R1, R1.ideal([R1.parse("x"), R1.parse("y")]))
    assert T.is_R()
    # on R2 the transform of the irrelevant ideal strictly exceeds R
    gens = [R2.parse(v) for v in R2.vars]
    T2 = transform(R2, R2.ideal(gens))
    assert T2.contains_fraction(R2.fraction("b^2", "a"))
    assert not T2.is_R()


def test_transform_choice_independence(R2):
    """The transform does not depend on which nonzero generator divides."""
    gens = [R2.parse(v) for v in R2.vars]
    J1 = R2.ideal(gens)
    J2 = R2.ideal(list(reversed(gens)))
    assert transform(R2, J1).equals(transform(R2, J2))
    with pytest.raises(ValueError):
        transform(R2, R2.ideal([R2.parse("0")]))
