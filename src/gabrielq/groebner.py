"""Buchberger engine and derived ideal operations.

Everything downstream (dimension, filters, saturation, transforms) compiles
to the operations in this module: reduced Groebner bases, membership,
sum/product/intersection, quotients, saturation, and elimination.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction
from math import gcd
from operator import add, le, sub

from .poly import (
    _DEADLINE,
    DEGREVLEX,
    MonomialOrder,
    Polynomial,
    check_deadline,
    elimination_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class InternalCheckError(RuntimeError):
    """A verified post-condition failed: algorithmic bug, not user error."""


def exact_divide(f: Polynomial, g: Polynomial):
    """The quotient f/g when g divides f; a nonzero remainder is a ValueError.

    Division returns a quotient rather than a remainder, so it is its own
    loop beside _reduce; it checks the deadline once per division step.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    lt, lc = g.leading(DEGREVLEX)
    tail = [(m, c) for m, c in g.terms.items() if m != lt]
    work = dict(f.terms)
    quotient: dict = {}
    while work:
        m = min(work, key=DEGREVLEX.desc)  # the largest monomial
        if not mono_divides(lt, m):
            raise ValueError("exact division with nonzero remainder")
        check_deadline()
        shift = mono_div(m, lt)
        factor = work.pop(m) / lc
        quotient[shift] = factor
        for gm, gc in tail:
            t = mono_mul(gm, shift)
            s = work.get(t, 0) - factor * gc
            if s:
                work[t] = s
            else:
                work.pop(t, None)
    return Polynomial(f.vars, quotient)


def _content_free(terms: dict) -> tuple:
    """(terms / content, content) for an integer term map, where content is
    the gcd of its coefficients (1 for the empty map)."""
    content = gcd(*terms.values())
    if content > 1:
        return {m: c // content for m, c in terms.items()}, content
    return terms, 1


def _integer(f: Polynomial) -> tuple:
    """(terms, den): f·den as a term map monomial -> int, where den is the
    lcm of the coefficient denominators."""
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}, den


def _reduce(work: dict, reducers, desc) -> tuple:
    """Integer pseudo-remainder of `work` by `reducers`, with content 1.

    The one reduction loop: Buchberger, membership tests and normal forms
    all run on it.  `work` maps monomials to ints and is consumed; each
    reducer is an integer triple (lt, lc, tail) with lc > 0.  Returns
    (r, mults, shrinks): r is the remainder over Q times mults/shrinks, a
    positive scale.  When lc does not divide the working coefficient c,
    everything is first multiplied by lc/gcd(c, lc), so no Fraction is ever
    built; mults is the product of these multipliers, and shrinks the
    product of the contents divided out.  The working polynomial keeps its
    monomials in a lazy max-heap keyed by `desc`, an order's
    MonomialOrder.desc (stale entries skipped on pop); the remainder comes
    out in descending monomial order, so its first key is its leading
    monomial.  The deadline is checked once per reduction step.
    """
    deadline = _DEADLINE.get()
    heap = [(desc(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict = {}
    steps = 0
    mults = shrinks = 1
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        for lt, lc, tail in reducers:
            if all(map(le, lt, m)):
                if deadline is not None:
                    check_deadline()
                shift = tuple(map(sub, m, lt))
                d = gcd(c, lc)
                if d != lc:
                    mult = lc // d
                    mults *= mult
                    work = {k: v * mult for k, v in work.items()}
                    remainder = {k: v * mult for k, v in remainder.items()}
                q = c // d
                for gm, gc in tail:
                    t = tuple(map(add, gm, shift))
                    old = work.get(t, 0)
                    s = old - q * gc
                    if s:
                        work[t] = s
                        if not old:
                            heapq.heappush(heap, (desc(t), t))
                    else:
                        del work[t]
                steps += 1
                if steps % 8 == 0 and work:
                    shrink = gcd(*work.values(), *remainder.values())
                    if shrink > 1:
                        shrinks *= shrink
                        work = {k: v // shrink for k, v in work.items()}
                        remainder = {k: v // shrink for k, v in remainder.items()}
                break
        else:
            remainder[m] = c
    remainder, content = _content_free(remainder)
    return remainder, mults, shrinks * content


def _as_reducer(terms: dict) -> tuple:
    """(lt, lc, tail) with lc > 0 from an integer term map that lists its
    leading monomial first, as _reduce's remainders do."""
    items = iter(terms.items())
    lt, lc = next(items)
    tail = list(items)
    if lc < 0:
        return lt, -lc, [(m, -c) for m, c in tail]
    return lt, lc, tail


def _reducer(f: Polynomial, order: MonomialOrder) -> tuple:
    """(lt, lc, tail) of the integer-primitive multiple of f, with lc > 0.

    Buchberger works on integer coefficients with content 1 throughout:
    rational coefficients are what make it crawl on dense inputs.
    """
    terms = _content_free(_integer(f)[0])[0]
    lt = f.leading(order)[0]
    return _as_reducer({lt: terms.pop(lt), **terms})


def _reduced_from_reducers(reducers, order: MonomialOrder, vars) -> list:
    """Buchberger's final stage: the reduced basis of a Groebner basis.

    `reducers` are the integer (lt, lc, tail) triples of a Groebner basis
    under `order`.  Elements whose leading monomial another one divides are
    dropped (of equal ones the first is kept), and each remaining tail is
    reduced by the other remaining elements.  The output is monic and
    sorted by ascending leading monomial, hence canonical.
    """
    lts = [r[0] for r in reducers]
    minimal = [
        i for i, lt in enumerate(lts)
        if not any(
            mono_divides(lts[j], lt) and (lts[j] != lt or j < i)
            for j in range(len(lts))
            if j != i
        )
    ]
    minimal.sort(key=lambda i: order.key(lts[i]))
    reduced = []
    for i in minimal:
        lt, lc, tail = reducers[i]
        work = dict(tail)
        work[lt] = lc
        r = _reduce(work, [reducers[j] for j in minimal if j != i], order.desc)[0]
        lc = r[lt]
        reduced.append(Polynomial(vars, {m: Fraction(c, lc) for m, c in r.items()}))
    return reduced


def buchberger(gens, order: MonomialOrder, known: int = 0):
    """Reduced Groebner basis of <gens> under `order`.

    One integer kernel.  Every element that enters the basis is made
    primitive over the integers once and stored once as a reducer
    (lt, lc, tail), which every later reduction of the run reuses: the
    inputs, each S-polynomial, and the final inter-reduction.
    S-polynomials are built from two reducers directly, with
    g = gcd(lc_i, lc_j), as (lc_j/g)·x^(m_i)·tail_i - (lc_i/g)·x^(m_j)·tail_j
    where m_i = lcm/lt_i; no Fraction appears before the output.

    `known` marks a known basis: the first `known` generators are a
    Groebner basis under `order`.  They enter first and as given (made
    primitive, not reduced against each other), and no pair of two of
    them is queued: its S-polynomial already has a standard representation
    in the known basis, so it would reduce to zero.  The caller vouches
    for the mark; the output is the same as without it.  With every
    generator known, no pair is queued and only the final stage runs.

    Pairs are chosen by the sugar strategy (Giovini et al., "One sugar
    cube, please", ISSAC 1991), which unlike the lcm degree also suits
    the non-graded block elimination orders: an input's sugar is its
    total degree, a pair's is max(s_i + deg lcm - deg lt_i, s_j + deg lcm
    - deg lt_j), and a new element inherits the sugar of its pair.  Ties
    go to the smaller lcm under `order`, then to the older pair.  Pairs
    are skipped by the coprime-leading-monomial and chain criteria.

    The output is monic, auto-reduced, and sorted by ascending leading
    monomial (hence deterministic); see _reduced_from_reducers.
    """
    key = order.key
    desc = order.desc
    gens = list(gens)
    basis = [g for g in gens[:known] if not g.is_zero]
    start = sorted(
        (g for g in gens[known:] if not g.is_zero),
        key=lambda g: key(g.leading(order)[0]),
    )
    if not basis and not start:
        return []
    vars = (basis or start)[0].vars
    reducers: list = []  # (lt, lc, tail), integer coefficients, lc > 0
    sugars: list = []
    heap: list = []
    pending: set = set()
    counter = 0

    def enter(reducer, sugar) -> bool:
        """Add an element and its pairs; True when it is a constant,
        i.e. <gens> is the unit ideal."""
        nonlocal counter
        lt = reducer[0]
        if not any(lt):
            return True
        new = len(reducers)
        reducers.append(reducer)
        sugars.append(sugar)
        deg_new = sum(lt)
        # reducers[:len(basis)] are the known basis, which enters first
        for i in range(len(basis) if new < len(basis) else 0, new):
            lt_i = reducers[i][0]
            if not any(map(min, lt_i, lt)):
                continue  # coprime leading monomials: s-poly reduces to zero
            lcm = mono_lcm(lt_i, lt)
            deg = sum(lcm)
            s = max(sugars[i] + deg - sum(lt_i), sugar + deg - deg_new)
            counter += 1
            heapq.heappush(heap, (s, key(lcm), counter, i, new, lcm))
            pending.add((i, new))
        return False

    for g in basis:
        if enter(_reducer(g, order), g.total_degree()):
            return [Polynomial.one(vars)]
    for g in start:
        # _reduce removes the content of what it returns
        r = _reduce(_integer(g)[0], reducers, desc)[0]
        if r and enter(_as_reducer(r), g.total_degree()):
            return [Polynomial.one(vars)]

    while heap:
        check_deadline()
        sugar, _, _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        # chain criterion
        if any(
            k != i and k != j and all(map(le, lt_k, lcm))
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, (lt_k, _, _) in enumerate(reducers)
        ):
            continue
        lt_i, lc_i, tail_i = reducers[i]
        lt_j, lc_j, tail_j = reducers[j]
        d = gcd(lc_i, lc_j)
        f_i, f_j = lc_j // d, lc_i // d
        shift_i, shift_j = mono_div(lcm, lt_i), mono_div(lcm, lt_j)
        work = {tuple(map(add, m, shift_i)): f_i * c for m, c in tail_i}
        for m, c in tail_j:
            t = tuple(map(add, m, shift_j))
            s = work.get(t, 0) - f_j * c
            if s:
                work[t] = s
            else:
                work.pop(t, None)
        r = _reduce(work, reducers, desc)[0]
        if r and enter(_as_reducer(r), sugar):
            return [Polynomial.one(vars)]

    return _reduced_from_reducers(reducers, order, vars)


class Ideal:
    """Ideal of the ambient polynomial ring, with a per-order GB cache.

    The cache is write-once per order: determinism of the reduced basis
    makes concurrent recomputation benign.  Beside each basis the ideal
    keeps its integer reducers for _reduce, built on the first membership
    test or normal form under that order.  The operations below return
    ideals that carry the reduced bases they already hold (with_basis),
    so callers do not recompute them; the generators stay what they were.
    """

    __slots__ = ("vars", "gens", "_gb", "_red")

    def __init__(self, vars, gens):
        self.vars = tuple(vars)
        self.gens = tuple(g for g in gens if not g.is_zero)
        for g in self.gens:
            if g.vars != self.vars:
                raise ValueError("generator over a different variable list")
        self._gb: dict = {}
        self._red: dict = {}

    @classmethod
    def with_basis(cls, vars, gens, basis) -> "Ideal":
        """<gens> with `basis` stored as its reduced degrevlex basis.

        The caller vouches that `basis` is exactly buchberger(gens, DEGREVLEX):
        reduced, monic and sorted by ascending leading monomial.
        """
        ideal = cls(vars, gens)
        ideal._gb[DEGREVLEX] = tuple(basis)
        return ideal

    def groebner(self, order: MonomialOrder = DEGREVLEX):
        """Reduced Groebner basis under `order`, computed once per order.

        Another order's basis starts from the stored degrevlex basis when
        there is one: a better presentation than the raw generators.
        """
        gb = self._gb.get(order)
        if gb is None:
            gb = tuple(buchberger(self._gb.get(DEGREVLEX, self.gens), order))
            self._gb[order] = gb
        return gb

    def _reducers(self, order: MonomialOrder = DEGREVLEX) -> list:
        """The integer reducers (lt, lc, tail) of groebner(order), in basis
        order, built once per order."""
        red = self._red.get(order)
        if red is None:
            red = self._red[order] = [_reducer(g, order) for g in self.groebner(order)]
        return red

    def contains(self, f: Polynomial, order: MonomialOrder = DEGREVLEX) -> bool:
        """f ∈ I: a zero test of _reduce against the basis's reducers."""
        return not _reduce(_integer(f)[0], self._reducers(order), order.desc)[0]

    @property
    def is_zero(self) -> bool:
        return not self.groebner()

    @property
    def is_unit(self) -> bool:
        gb = self.groebner()
        return bool(gb) and gb[0].is_constant

    def equals(self, other: "Ideal") -> bool:
        if self.vars != other.vars:
            return False
        return self.groebner() == other.groebner()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal(<{inner}>)"


def normal_form(f: Polynomial, I: Ideal, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Canonical remainder of f modulo I: division by I's reduced basis.

    f - normal_form(f, I) lies in I, and no monomial of the result is
    divisible by a leading monomial of I under `order`.  _reduce gives an
    integer multiple of the remainder and the scale it applied, so the
    rational remainder is exact.
    """
    terms, den = _integer(f)
    r, mults, shrinks = _reduce(terms, I._reducers(order), order.desc)
    # r = (mults/shrinks)·remainder(f·den)
    den *= mults
    return Polynomial(f.vars, {m: Fraction(c * shrinks, den) for m, c in r.items()})


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    """I + J, with generators I.gens + J.gens.

    When I carries its degrevlex basis, so does the sum: I's own basis when
    J ⊆ I, and otherwise the basis grown from it, with GB(I) entering
    buchberger as the known basis and J's generators as ordinary ones.
    Without a stored basis the sum computes none.
    """
    if I.vars != J.vars:
        raise ValueError("ideal sum over mismatched variable lists")
    gens = I.gens + J.gens
    gb = I._gb.get(DEGREVLEX)
    if gb is None:
        return Ideal(I.vars, gens)
    if not all(I.contains(g) for g in J.gens):
        gb = buchberger(gb + J.gens, DEGREVLEX, known=len(gb))
    return Ideal.with_basis(I.vars, gens, gb)


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    # multiply the reduced bases, not the raw generators: pairwise products
    # of raw generator lists give terrible presentations downstream
    if I.vars != J.vars:
        raise ValueError("ideal product over mismatched variable lists")
    return Ideal(I.vars, tuple(f * g for f in I.groebner() for g in J.groebner()))


def _fresh_var(vars) -> str:
    name = "t"
    while name in vars:
        name += "_"
    return name


def _lift(f: Polynomial, newvars) -> Polynomial:
    return Polynomial(newvars, {(0,) + m: c for m, c in f.terms.items()})


def _drop_first(f: Polynomial, vars) -> Polynomial:
    return Polynomial(vars, {m[1:]: c for m, c in f.terms.items()})


def _tag_free(gb, vars) -> list:
    """The elements of an elimination basis free of the tag variable.

    The elimination order is degrevlex on the untagged monomials, so they
    are the reduced degrevlex basis of the elimination ideal, in order.
    """
    return [_drop_first(g, vars) for g in gb if all(m[0] == 0 for m in g.terms)]


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via the single tag variable t: eliminate t from t·I + (1-t)·J.

    t·GB(I) is a Groebner basis in the elimination order and enters
    buchberger as the known basis.  (1-t)·GB(J) is one too, but it enters as
    ordinary generators: reduced on entry against t·GB(I), each (1-t)·h
    with h ∈ I becomes h itself, and that early tag-free part saves more
    reductions than skipping its own pairs would.
    """
    if I.vars != J.vars:
        raise ValueError("ideal intersection over mismatched variable lists")
    if I.is_unit:
        return J
    if J.is_unit:
        return I
    if I.is_zero or J.is_zero:
        return Ideal(I.vars, ())
    tag = _fresh_var(I.vars)
    newvars = (tag,) + I.vars
    t = Polynomial.variable(newvars, tag)
    one = Polynomial.one(newvars)
    # lift the reduced bases, not the raw generators: raw generator lists
    # (e.g. from ideal products) can be large and high-degree, and the tag
    # elimination is very sensitive to the input presentation
    gb_I = I.groebner()
    gens = [t * _lift(f, newvars) for f in gb_I]
    gens += [(one - t) * _lift(g, newvars) for g in J.groebner()]
    gb = buchberger(gens, elimination_order((0,)), known=len(gb_I))
    kept = _tag_free(gb, I.vars)
    return Ideal.with_basis(I.vars, kept, kept)


def ideal_quotient(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f) = {g : f·g in I}, via (I ∩ <f>)/f.

    This is the one route for every quotient.  (I : c) = I for a nonzero
    constant c.  When f ∈ I the quotient is the unit ideal, decided by one
    membership test against the degrevlex basis, with no elimination.
    Otherwise the degrevlex basis of I ∩ <f>, divided by f, is a Groebner
    basis of (I : f), and the result carries its reduced form.  The result
    contains I, so a caller whose I contains an ideal P need not add P to
    it again.
    """
    if f.is_zero:
        raise ValueError("ideal quotient by the zero polynomial")
    if I.is_unit or f.is_constant:
        return I
    if I.contains(f):
        one = Polynomial.one(I.vars)
        return Ideal.with_basis(I.vars, (one,), (one,))
    principal = Ideal(I.vars, (f,))
    inter = ideal_intersect(I, principal)
    gens = [exact_divide(g, f) for g in inter.groebner()]
    return Ideal.with_basis(I.vars, gens, buchberger(gens, DEGREVLEX, known=len(gens)))


def ideal_quotient_ideal(I: Ideal, J: Ideal) -> Ideal:
    """(I : J) = intersection of (I : g) over the generators g of J."""
    gens = J.gens
    if not gens:
        raise ValueError("ideal quotient by the zero ideal")
    result = ideal_quotient(I, gens[0])
    for g in gens[1:]:
        if result.is_zero:
            return result
        result = ideal_intersect(result, ideal_quotient(I, g))
    return result


def saturate(I: Ideal, *factors: Polynomial):
    """(I : h^inf) for h the product of `factors`; returns (stable ideal, s).

    s is the least exponent with (I : h^s) = (I : h^(s+1)).  The stable
    ideal comes from one elimination per factor (the inverted-variable
    trick): (I : (f·g)^inf) = ((I : f^inf) : g^inf), and each single-factor
    elimination stays small where the one-shot elimination by a dense
    product blows up.  The exponent comes from membership tests h^s·T ⊆ I
    (saturation_exponent).  Iterating ideal_quotient instead would
    intersect against a principal ideal once per step, which is far more
    expensive for dense h.
    """
    if not factors or any(f.is_zero for f in factors):
        raise ValueError("saturation by the zero polynomial")
    if I.is_unit:
        return I, 0
    T = I
    for f in factors:
        T = saturate_rabinowitsch(T, f)
    return T, saturation_exponent(I, T, math.prod(factors[1:], start=factors[0]))


_MAX_SATURATION_EXPONENT = 64


def saturation_exponent(I: Ideal, T: Ideal, h: Polynomial) -> int:
    """Least s with h^s·T ⊆ I, for T = (I : h^inf), by membership tests.

    The quotient chain (I : h^k) increases monotonically to T, so this is
    also the least s with (I : h^s) = (I : h^(s+1)).  An exponent past
    _MAX_SATURATION_EXPONENT means T was not the saturation: an internal
    failure, not bad input.
    """
    power = Polynomial.one(I.vars)
    s = 0
    while not all(I.contains(power * g) for g in T.groebner()):
        power = power * h
        s += 1
        if s > _MAX_SATURATION_EXPONENT:
            raise InternalCheckError("saturation exponent search did not terminate")
    return s


def saturate_rabinowitsch(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f^inf) via the inverted-variable trick: eliminate t from
    I + <1 - t·f>.  The lifted GB(I) enters buchberger as the known basis."""
    if f.is_zero:
        raise ValueError("saturation by the zero polynomial")
    tag = _fresh_var(I.vars)
    newvars = (tag,) + I.vars
    t = Polynomial.variable(newvars, tag)
    one = Polynomial.one(newvars)
    gb_I = I.groebner()
    gens = [_lift(g, newvars) for g in gb_I]
    gens.append(one - t * _lift(f, newvars))
    gb = buchberger(gens, elimination_order((0,)), known=len(gb_I))
    kept = _tag_free(gb, I.vars)
    return Ideal.with_basis(I.vars, kept, kept)


def eliminate(I: Ideal, drop) -> Ideal:
    """I ∩ k[kept variables], returned in the same ambient ring.

    The elimination order is degrevlex on monomials free of the dropped
    variables, so the kept elements are the result's reduced degrevlex
    basis.
    """
    drop = set(drop)
    unknown = drop - set(I.vars)
    if unknown:
        raise ValueError(f"cannot eliminate unknown variables: {sorted(unknown)}")
    if not drop:
        return I
    idx = tuple(i for i, v in enumerate(I.vars) if v in drop)
    order = elimination_order(idx)
    gb = I.groebner(order)
    kept = [g for g in gb if all(all(m[i] == 0 for i in idx) for m in g.terms)]
    return Ideal.with_basis(I.vars, kept, kept)
