"""Independent checks of gabrielq's outputs, computed with sympy.

Nothing here imports gabrielq or compares with a stored copy of its
output: every expected answer is recomputed from the op's input text.  All
checks are at m = 1.

- R1 = Q[x,y] and R3 = Q[x,y,z]/(y^2 - x^3) are S2, so R(1) = R there:
  num/den is in R(1) exactly when num lies in (den) + P.
- R2(1) is the degree-4 Veronese ring.  Under a, b, c, d -> s^4, s^3 t,
  s t^3, t^4 (injective on R2), a fraction lies in R2(1) exactly when its
  image is a polynomial in s, t.
- sat_g(f N) for a point ideal N is (f) + P on R1 and R3, and on R2 when
  f(0) != 0.  When f(0) = 0 on R2, write f = a f_a + b f_b + c f_c + d f_d;
  then sat_g(f N) = (f, b^2 f_a + a c f_b + b d f_c + c^2 f_d) + P, which is
  ((b^2/a) f) + (f) + P.  contract(extend((f))) is the same ideal.
- in_c, in_v and in_w hold exactly when I = (1); in_g and in_h exactly when
  I = (1) or R/I is zero-dimensional; in_cm and in_vm exactly when c is a
  nonzero constant modulo P.

Run `python3 perfbench/oracle.py` for the hand-worked self-tests alone.
"""
from __future__ import annotations

import sys

import sympy
from sympy import Poly, groebner

RING_VARS = {"R1": "x y", "R2": "a b c d", "R3": "x y z"}
RELATIONS = {
    "R1": [],
    "R2": ["b*c - a*d", "c^3 - b*d^2", "a*c^2 - b^2*d", "b^3 - a^2*c"],
    "R3": ["y^2 - x^3"],
}
_s, _t = sympy.symbols("s t")
# the exponents in (s, t) of the images of a, b, c, d in R2
_R2_MONOMIAL_MAP = ((4, 0), (3, 1), (1, 3), (0, 4))


class Ring:
    def __init__(self, name: str):
        self.name = name
        self.gens = sympy.symbols(RING_VARS[name])
        self.names = {str(g): g for g in self.gens}
        self.P = [self.parse(r) for r in RELATIONS[name]]
        self._gb_P = None

    def parse(self, text: str):
        return sympy.parse_expr(text.replace("^", "**"), local_dict=self.names)

    def gb(self, polys):
        return groebner(list(polys) + self.P, *self.gens, order="grevlex",
                        domain="QQ")

    def gb_P(self):
        if self._gb_P is None:
            self._gb_P = self.gb([])
        return self._gb_P

    def image(self, text: str) -> Poly:
        """The image in Q[s, t] of an R2 polynomial text."""
        f = Poly(self.parse(text), *self.gens, domain="QQ")
        image: dict = {}
        for mono, c in f.terms():
            st = tuple(sum(e * w for e, w in zip(mono, weights))
                       for weights in zip(*_R2_MONOMIAL_MAP))
            image[st] = image.get(st, 0) + c
        return Poly.from_dict(image, _s, _t, domain="QQ")

    def in_R(self, num: str, den: str) -> bool:
        return self.gb([self.parse(den)]).contains(self.parse(num))

    def in_R1(self, num: str, den: str) -> bool:
        if self.name != "R2":
            return self.in_R(num, den)
        _, rem = self.image(num).div(self.image(den))
        return rem.is_zero

    def expected_saturation(self, f):
        """Generators of sat_g(f N) (any point ideal N), without P."""
        if self.name != "R2" or f.subs({g: 0 for g in self.gens}) != 0:
            return [f]
        a, b, c, d = self.gens
        parts = {g: 0 for g in self.gens}
        for term in sympy.Add.make_args(sympy.expand(f)):
            g = next(g for g in self.gens if term.has(g))
            parts[g] += sympy.cancel(term / g)
        extra = b**2 * parts[a] + a * c * parts[b] + b * d * parts[c] \
            + c**2 * parts[d]
        return [f, sympy.expand(extra)]


RINGS: dict[str, Ring] = {}


def ring(name: str) -> Ring:
    if name not in RINGS:
        RINGS[name] = Ring(name)
    return RINGS[name]


def _same_ideal(R: Ring, gens_a, gens_b) -> bool:
    return R.gb(gens_a).exprs == R.gb(gens_b).exprs


_CHECKED: dict = {}


def check(spec: dict, out: dict) -> bool:
    """True when gabrielq's output `out` for the op `spec` is correct.

    Repeated (spec, out) pairs, which every pass after the first makes,
    are checked once.
    """
    key = (tuple(sorted(spec.items())), tuple(sorted(
        (k, tuple(v) if isinstance(v, list) else v) for k, v in out.items())))
    if key not in _CHECKED:
        _CHECKED[key] = _check(spec, out)
    return _CHECKED[key]


def _check(spec: dict, out: dict) -> bool:
    R = ring(spec["ring"])
    kind = spec["kind"]
    if kind == "membership":
        return out["verdict"] == R.in_R1(spec["num"], spec["den"])
    if kind == "saturation":
        expected = R.expected_saturation(R.parse(spec["f"]))
        sat = [R.parse(g) for g in out["sat"]]
        contract = [R.parse(g) for g in out["contract"]]
        return _same_ideal(R, expected, sat) and _same_ideal(R, expected, contract)
    if kind == "ideal":
        G = R.gb(R.parse(g) for g in spec["gens"].split(";") if g.strip())
        unit = G.exprs == [1]
        finite = unit or G.is_zero_dimensional
        return (out["in_c"] == out["in_v"] == out["in_w"] == unit
                and out["in_g"] == out["in_h"] == finite)
    if kind == "element":
        _, rem = R.gb_P().reduce(R.parse(spec["elem"]))
        unit = rem.is_number and rem != 0
        return out["in_cm"] == out["in_vm"] == unit
    raise ValueError(f"unknown op kind {kind!r}")


def self_test() -> list[str]:
    """Hand-worked cases; returns the names of those the oracle gets wrong."""
    R1, R2, R3 = ring("R1"), ring("R2"), ring("R3")
    cases = {
        "b^2/a in R2(1)": R2.in_R1("b^2", "a"),
        "b^2/a not in R2": not R2.in_R("b^2", "a"),
        "1/a not in R2(1)": not R2.in_R1("1", "a"),
        "y/x not in R3(1)": not R3.in_R1("y", "x"),
        "1/x not in R1(1)": not R1.in_R1("1", "x"),
        "sat_g((a)m) = (a, b^2) + P on R2": _same_ideal(
            R2, R2.expected_saturation(R2.parse("a")),
            [R2.parse("a"), R2.parse("b^2")]),
    }
    return [name for name, ok in cases.items() if not ok]


if __name__ == "__main__":
    wrong = self_test()
    for name in wrong:
        print(f"self-test FAILED: {name}")
    print("self-tests:", "all pass" if not wrong else f"{len(wrong)} failed")
    sys.exit(1 if wrong else 0)
