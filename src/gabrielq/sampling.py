"""Seeded random generators shared by the verification suites.

Sampling policy: generators are random polynomials with degree <= 3,
<= 4 terms, coefficient height <= 10, generator count 1-3.  Everything is
driven by an explicit random.Random so suites are reproducible.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .poly import Polynomial, check_deadline
from .groebner import Ideal, ideal_product, ideal_sum
from .domain import AffineDomain, FractionQ

MAX_DEGREE = 3
MAX_TERMS = 4
COEFF_HEIGHT = 10
MAX_GENS = 3


def random_monomial(rng: random.Random, nvars: int, max_degree: int = MAX_DEGREE):
    """A monomial of degree at most max_degree, drawn one unit of degree at
    a time.  The deadline is checked once per monomial (over P = 0 a drawn
    term costs no reduction step) and once per unit of degree."""
    check_deadline()
    deg = rng.randint(0, max_degree)
    exps = [0] * nvars
    for _ in range(deg):
        check_deadline()
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_poly(
    rng: random.Random,
    vars,
    max_degree: int = MAX_DEGREE,
    max_terms: int = MAX_TERMS,
    height: int = COEFF_HEIGHT,
) -> Polynomial:
    nvars = len(vars)
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        m = random_monomial(rng, nvars, max_degree)
        c = rng.randint(-height, height)
        if c:
            # overwrite on collision: accumulating would breach the height
            terms[m] = Fraction(c)
    return Polynomial(vars, terms)


def random_element(rng: random.Random, dom: AffineDomain, **kw) -> Polynomial:
    return dom.nf(random_poly(rng, dom.vars, **kw))


def random_nonzero_element(rng: random.Random, dom: AffineDomain, **kw) -> Polynomial:
    while True:
        f = random_element(rng, dom, **kw)
        if not f.is_zero:
            return f


def random_ideal(rng: random.Random, dom: AffineDomain) -> Ideal:
    """Random ideal of R, as an ambient ideal containing P."""
    count = rng.randint(1, MAX_GENS)
    return dom.ideal([random_poly(rng, dom.vars) for _ in range(count)])


def structured_ideals(dom: AffineDomain) -> list[Ideal]:
    """Deterministic ideals covering all dimension strata of R."""
    one = Polynomial.one(dom.vars)
    variables = [Polynomial.variable(dom.vars, v) for v in dom.vars]
    out = [
        dom.unit_ideal(),
        dom.zero_ideal(),
        dom.ideal(variables),  # image of the irrelevant maximal ideal
    ]
    for v in variables:
        out.append(dom.ideal([v]))
    out.append(dom.ideal([variables[0] * variables[-1]]))
    out.append(dom.ideal([variables[0] ** 2, variables[0] * variables[-1]]))
    out.append(dom.ideal([v + one for v in variables]))
    return out


def sample_ideals(rng: random.Random, dom: AffineDomain, count: int) -> list[Ideal]:
    """Mixed structured + random sample, deterministic given the rng state."""
    pool = structured_ideals(dom)
    out = []
    for i in range(count):
        if i < len(pool):
            out.append(pool[i])
        elif i % 4 == 0:
            # products keep low-dimensional strata in play; re-add P since
            # the generator-wise product only contains P^2
            out.append(
                ideal_sum(ideal_product(rng.choice(pool), random_ideal(rng, dom)),
                          dom.P)
            )
        else:
            out.append(random_ideal(rng, dom))
    return out


def sample_proper_ideals(rng: random.Random, dom: AffineDomain, count: int):
    structured = [I for I in structured_ideals(dom) if not I.is_unit]
    out = list(structured)
    guard = 0
    while len(out) < count and guard < 20 * count:
        guard += 1
        I = random_ideal(rng, dom)
        if not I.is_unit:
            out.append(I)
    return out[:count]


def random_fraction(rng: random.Random, dom: AffineDomain) -> FractionQ:
    num = random_element(rng, dom)
    den = random_nonzero_element(rng, dom, max_degree=2)
    return FractionQ(dom, num, den)
