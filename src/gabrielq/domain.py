"""The ambient object: an affine domain R = Q[vars]/P and its fraction field.

Elements of R are represented by their normal forms modulo GB(P), so the
representation is canonical.  Fractions are never reduced to lowest terms
(R need not be a UFD); equality is always by cross-multiplication.

Primality of P is a declared input contract, not verified here: full
primality certification needs primary decomposition, which is out of scope.
A cheap visible-reducibility check rejects relations with a monomial factor.
"""
from __future__ import annotations

from .poly import Polynomial, mono_deg, parse_poly
from .groebner import Ideal, ideal_quotient_ideal, ideal_sum, normal_form
from .dimension import krull_dim


class DomainError(ValueError):
    pass


def _visibly_reducible(f: Polynomial) -> bool:
    """True when f = x_i * g with g a non-unit (a visible factorization)."""
    if f.is_zero or f.is_constant:
        return False
    # every term is divisible by the common monomial content
    content = tuple(min(m[i] for m in f.terms) for i in range(len(f.vars)))
    # f = content * g; both factors are non-units iff deg(content) >= 1
    # and f has total degree >= 2
    return mono_deg(content) >= 1 and f.total_degree() >= 2


class AffineDomain:
    """R = Q[vars]/P for a (declared) prime ideal P, with n = krull_dim(P)."""

    def __init__(self, vars, relations, name: str = "R"):
        self.vars = tuple(vars)
        self.name = name
        for v in self.vars:
            # the parser reads a letter, then letters, digits or '_'
            if not (v[:1].isalpha() and all(c.isalnum() or c == "_" for c in v)):
                raise DomainError(f"variable name {v!r} is not an identifier")
        if len(set(self.vars)) != len(self.vars):
            raise DomainError(f"repeated variable name in {', '.join(self.vars)}")
        for f in relations:
            if _visibly_reducible(f):
                raise DomainError(
                    f"relation {f} has a visible monomial factor; "
                    "the defining ideal would not be prime"
                )
        self.P = Ideal(self.vars, tuple(relations))
        if self.P.is_unit:
            raise DomainError("defining ideal is the unit ideal")
        self.n = krull_dim(self.P)

    def nf(self, f: Polynomial) -> Polynomial:
        """Canonical representative of f modulo P."""
        return normal_form(f, self.P)

    def is_zero_elem(self, f: Polynomial) -> bool:
        return self.P.contains(f)

    def is_unit_elem(self, f: Polynomial) -> bool:
        return self.ideal([f]).is_unit

    def ideal(self, gens) -> Ideal:
        """The ambient ideal <gens> + P (an ideal of R)."""
        return Ideal(self.vars, tuple(gens) + self.P.gens)

    def zero_ideal(self) -> Ideal:
        return self.ideal(())

    def unit_ideal(self) -> Ideal:
        return self.ideal((Polynomial.one(self.vars),))

    def parse(self, text: str) -> Polynomial:
        return parse_poly(text, self.vars)

    def fraction(self, num, den=None) -> "FractionQ":
        if isinstance(num, str):
            num = self.parse(num)
        if den is None:
            den = Polynomial.one(self.vars)
        elif isinstance(den, str):
            den = self.parse(den)
        return FractionQ(self, num, den)

    def __repr__(self):
        rels = ", ".join(str(g) for g in self.P.gens) or "0"
        return f"AffineDomain({self.name}: Q[{', '.join(self.vars)}]/<{rels}>)"


def make_domain(vars, relation_texts, name: str = "R") -> AffineDomain:
    vars = tuple(vars)
    relations = [parse_poly(t, vars) for t in relation_texts]
    return AffineDomain(vars, relations, name=name)


class FractionQ:
    """Element of Q = Frac(R), stored as (num, den) in normal form mod P."""

    __slots__ = ("dom", "num", "den")

    def __init__(self, dom: AffineDomain, num: Polynomial, den: Polynomial):
        self.dom = dom
        self.num = dom.nf(num)
        den = dom.nf(den)
        if den.is_zero:
            raise ZeroDivisionError("fraction denominator is zero in R")
        self.den = den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _check(self, other: "FractionQ"):
        # the same ring means the same variables and the same ideal P
        if self.dom is not other.dom and not self.dom.P.equals(other.dom.P):
            raise ValueError("fractions over different domains")

    def __add__(self, other: "FractionQ") -> "FractionQ":
        self._check(other)
        return FractionQ(
            self.dom,
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    def __sub__(self, other: "FractionQ") -> "FractionQ":
        return self + (-other)

    def __neg__(self) -> "FractionQ":
        return FractionQ(self.dom, -self.num, self.den)

    def __mul__(self, other: "FractionQ") -> "FractionQ":
        self._check(other)
        return FractionQ(self.dom, self.num * other.num, self.den * other.den)

    def inv(self) -> "FractionQ":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero fraction")
        return FractionQ(self.dom, self.den, self.num)

    def eq(self, other: "FractionQ") -> bool:
        """Cross-multiplication equality: a/b = c/d iff a·d - c·b in P."""
        self._check(other)
        return self.dom.is_zero_elem(self.num * other.den - other.num * self.den)

    def in_R(self) -> bool:
        """True when the fraction is (the image of) an element of R."""
        return self.dom.ideal([self.den]).contains(self.num)

    def __str__(self):
        if self.den == Polynomial.one(self.dom.vars):
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"FractionQ({self})"


class SubQ:
    """Finitely generated R-submodule of Q in common-denominator form.

    Represents (1/den)·num where num is an ambient ideal containing P.
    Equality is representation-independent: (1/b)A = (1/b')A' iff
    b'·A + P = b·A' + P as ideals.
    """

    __slots__ = ("dom", "den", "num")

    def __init__(self, dom: AffineDomain, den: Polynomial, num: Ideal):
        self.dom = dom
        den = dom.nf(den)
        if den.is_zero:
            raise ZeroDivisionError("SubQ denominator is zero in R")
        self.den = den
        self.num = ideal_sum(num, dom.P)

    @classmethod
    def from_R(cls, dom: AffineDomain) -> "SubQ":
        return cls(dom, Polynomial.one(dom.vars), dom.unit_ideal())

    @classmethod
    def zero(cls, dom: AffineDomain) -> "SubQ":
        return cls(dom, Polynomial.one(dom.vars), dom.zero_ideal())

    def _scaled(self, c: Polynomial) -> Ideal:
        return self.dom.ideal([c * g for g in self.num.gens])

    def contains_fraction(self, q: FractionQ) -> bool:
        """a/c in (1/b)A iff a·b lies in c·A + P."""
        return self._scaled(q.den).contains(q.num * self.den)

    def contains_subq(self, other: "SubQ") -> bool:
        scaled = self._scaled(other.den)  # one GB shared by all generators
        return all(scaled.contains(g * self.den) for g in other.num.gens)

    def equals(self, other: "SubQ") -> bool:
        left = self._scaled(other.den)
        right = other._scaled(self.den)
        return left.equals(right)

    def generators(self) -> list[FractionQ]:
        return [FractionQ(self.dom, g, self.den) for g in self.num.gens]

    def union(self, other: "SubQ") -> "SubQ":
        """Smallest SubQ containing both (module sum)."""
        den = self.den * other.den
        gens = [other.den * g for g in self.num.gens]
        gens += [self.den * g for g in other.num.gens]
        return SubQ(self.dom, den, Ideal(self.dom.vars, gens))

    def trimmed(self) -> "SubQ":
        """Same module with the numerator regenerated from its reduced GB."""
        return SubQ(self.dom, self.den, Ideal(self.dom.vars, self.num.groebner()))

    def is_R(self) -> bool:
        return self.equals(SubQ.from_R(self.dom))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.num.gens) or "0"
        return f"SubQ((1/({self.den})) * <{gens}>)"


def transform(dom: AffineDomain, J: Ideal) -> SubQ:
    """(R :_Q J) = { q in Q : qJ ⊆ R }, for J nonzero in R.

    Picks a generator f of J with f not in P; the result is independent of
    the choice (tested), since (1/f)((f)+P : J) = (R :_Q J) for any such f.
    """
    f = None
    for g in J.gens:
        if not dom.is_zero_elem(g):
            f = dom.nf(g)
            break
    if f is None:
        raise ValueError("ideal transform of an ideal that is zero in R")
    num = ideal_quotient_ideal(dom.ideal([f]), J)
    return SubQ(dom, f, num)
