"""Inputs of the benchmark workloads.

Pure standard library: inputs are plain strings in gabrielq's polynomial
grammar, so the program under test receives only generated text, and the
inputs do not change when gabrielq's own sampling code changes.  The
polynomial policy copies gabrielq.sampling: degree <= 3, <= 4 terms,
integer coefficients of height <= 10, 1-3 generators per ideal,
denominators of degree <= 2.

The ops come from stored corpora (corpus/<name>.jsonl, built by
corpus_tools.py from the draws below): a workload's op list takes one op
from each cost stratum of its corpora, and the seed orders the list
(op_list).
"""
from __future__ import annotations

import json
import os
import random

MAX_DEGREE = 3
MAX_TERMS = 4
COEFF_HEIGHT = 10
MAX_GENS = 3

RING_VARS = {
    "R1": ("x", "y"),
    "R2": ("a", "b", "c", "d"),
    "R3": ("x", "y", "z"),
}

# R2 = Q[s^4, s^3 t, s t^3, t^4]: the exponent vectors in (s, t) of a, b, c, d
R2_MONOMIAL_MAP = ((4, 0), (3, 1), (1, 3), (0, 4))

DISTINGUISHED_FRACTIONS = {
    "R1": ["1/x", "y/x", "(x+y)/2"],
    "R2": ["b^2/a", "c^2/d", "b^4/a^2", "(b^2+a)/a"],
    "R3": ["y/x", "(y*z)/x", "1/z"],
}


def random_terms(rng: random.Random, nvars: int, max_degree: int = MAX_DEGREE,
                 max_terms: int = MAX_TERMS, height: int = COEFF_HEIGHT) -> dict:
    """Exponent tuple -> nonzero int; the gabrielq.sampling.random_poly draw."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        deg = rng.randint(0, max_degree)
        exps = [0] * nvars
        for _ in range(deg):
            exps[rng.randrange(nvars)] += 1
        c = rng.randint(-height, height)
        if c:
            terms[tuple(exps)] = c
    return terms


def poly_text(terms: dict, vars) -> str:
    if not terms:
        return "0"
    pieces = []
    for mono in sorted(terms, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = terms[mono]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(vars, mono) if e]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


def zero_in_ring(ring: str, terms: dict) -> bool:
    """True when the polynomial lies in the defining ideal P.

    R1 has P = 0.  R3 has P = (y^2 - x^3), and the callers ask only about
    degree <= 3, where its only members are the multiples k*(y^2 - x^3).
    R2's P is the kernel of the monomial map: membership is a zero image.
    """
    if ring == "R1":
        return not terms
    if ring == "R3":
        k = terms.get((0, 2, 0))
        return not terms or (len(terms) == 2 and k is not None
                             and terms.get((3, 0, 0)) == -k)
    image: dict = {}
    for mono, c in terms.items():
        st = (sum(e * w[0] for e, w in zip(mono, R2_MONOMIAL_MAP)),
              sum(e * w[1] for e, w in zip(mono, R2_MONOMIAL_MAP)))
        image[st] = image.get(st, 0) + c
    return not any(image.values())


def random_element(rng, ring, **kw) -> str:
    return poly_text(random_terms(rng, len(RING_VARS[ring]), **kw), RING_VARS[ring])


def random_nonconstant(rng, ring, **kw) -> str:
    while True:
        terms = random_terms(rng, len(RING_VARS[ring]), **kw)
        if any(sum(m) for m in terms) and not zero_in_ring(ring, terms):
            return poly_text(terms, RING_VARS[ring])


def random_fraction(rng: random.Random, ring: str) -> tuple[str, str]:
    """The gabrielq.sampling.random_fraction draw, as (num, den) text."""
    vars = RING_VARS[ring]
    num = poly_text(random_terms(rng, len(vars)), vars)
    while True:
        den = random_terms(rng, len(vars), max_degree=2)
        if not zero_in_ring(ring, den):
            return num, poly_text(den, vars)


def random_ideal(rng: random.Random, ring: str) -> list[str]:
    vars = RING_VARS[ring]
    return [poly_text(random_terms(rng, len(vars)), vars)
            for _ in range(rng.randint(1, MAX_GENS))]


def structured_ideals(ring: str) -> list[list[str]]:
    """The deterministic strata of gabrielq.sampling.structured_ideals."""
    vs = list(RING_VARS[ring])
    first, last = vs[0], vs[-1]
    out = [["1"], [], list(vs)]
    out += [[v] for v in vs]
    out.append([f"{first}*{last}"])
    out.append([f"{first}^2", f"{first}*{last}"])
    out.append([f"{v} + 1" for v in vs])
    return out


def split_fraction(text: str) -> tuple[str, str]:
    """Split "num/den" at the top-level '/', as gabrielq's parser does."""
    depth = 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "/" and depth == 0:
            return text[:i].strip(), text[i + 1:].strip()
    return text.strip(), "1"


# -- rational points -------------------------------------------------------

# (s, t) parameters of the R2 points: a, b, c, d = s^4, s^3 t, s t^3, t^4.
# The origin (the singular point, N = the maximal ideal) is listed twice so
# that it is drawn a third of the time.
R2_POINT_PARAMS = ((0, 0), (0, 0), (1, 1), (1, -1), (1, 2), (2, 1))


def random_point(rng: random.Random, ring: str) -> tuple[int, ...]:
    if ring == "R1":
        return (rng.randint(-3, 3), rng.randint(-3, 3))
    if ring == "R3":
        u = rng.randint(-2, 2)
        return (u * u, u * u * u, rng.randint(-3, 3))
    s, t = rng.choice(R2_POINT_PARAMS)
    return tuple(s ** i * t ** j for i, j in R2_MONOMIAL_MAP)


# -- pools: the draws a corpus is built from ---------------------------------

# Pool sizes per ring: each corpus is its pool ranked by cost, and an op
# list takes one op from each of its cost strata.
POOL_SIZES = {
    "membership": {"R1": 500, "R2": 1500, "R3": 500},
    "saturation": {"R1": 100, "R2": 300, "R3": 100},
    "filters": {"R2": 400},
}


def op_key(op: dict) -> str:
    return repr(sorted(op.items()))


def membership_draw(rng, ring):
    num, den = random_fraction(rng, ring)
    return {"kind": "membership", "ring": ring, "num": num, "den": den}


def saturation_draw(rng, ring):
    """f has degree <= 2 and <= 3 terms: at degree 3, several R2 and R3
    draws in fifty ran past ten seconds."""
    f = random_nonconstant(rng, ring, max_degree=2, max_terms=3)
    point = random_point(rng, ring)
    return {"kind": "saturation", "ring": ring, "f": f,
            "point": ",".join(str(p) for p in point)}


def filters_draw(rng, ring):
    """A fifth element ops (in_cm and in_vm), a fifth products of a
    structured ideal with a random one, the rest random ideals."""
    roll = rng.random()
    if roll < 0.2:
        return {"kind": "element", "ring": ring, "elem": random_element(rng, ring)}
    if roll < 0.4:
        left = rng.choice(structured_ideals(ring))
        gens = [f"({g})*({h})" for g in left for h in random_ideal(rng, ring)]
    else:
        gens = random_ideal(rng, ring)
    return {"kind": "ideal", "ring": ring, "gens": "; ".join(gens)}


DRAWS = {
    "membership": membership_draw,
    "saturation": saturation_draw,
    "filters": filters_draw,
}


def pool(workload: str, ring: str) -> list[dict]:
    """The first POOL_SIZES distinct draws of a fixed pool stream."""
    rng = random.Random(f"{workload}-{ring}-pool")
    draw = DRAWS[workload]
    out, seen = [], set()
    while len(out) < POOL_SIZES[workload][ring]:
        op = draw(rng, ring)
        if op_key(op) not in seen:
            seen.add(op_key(op))
            out.append(op)
    return out


# -- op lists ------------------------------------------------------------------
#
# A run repeats one list of op specs (dicts of strings), fully determined by
# the seed: the same ops, in the same order, in every pass.

CORPUS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")

# Ops taken from each corpus into one pass: a pass took 7-12 s at the
# commit that introduced the op lists, so that a 40-s run makes three to
# five.
LIST_SIZES = {
    "membership": {"membership": 340},
    "saturation": {"saturation": 50},
    "filters": {"filters": 60},
}


def load_corpus(workload: str) -> list[dict]:
    """The stored corpus, cheapest op first (see corpus_tools.py)."""
    with open(os.path.join(CORPUS_DIR, f"{workload}.jsonl")) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def stratified(corpus: list[dict], size: int) -> list[dict]:
    """The middle op of each of `size` equal blocks of the cost-ranked
    corpus: the corpus's mix of cheap and costly ops in `size` ops."""
    n = len(corpus)
    return [corpus[int((j + 0.5) * n / size)] for j in range(size)]


def fixed_ops(workload: str) -> list[dict]:
    """Ops every list holds besides its corpus samples: the distinguished
    fractions of every ring for membership, R2's structured ideals (the
    start of sample_ideals) for filters."""
    if workload == "membership":
        ops = []
        for ring in RING_VARS:
            for text in DISTINGUISHED_FRACTIONS[ring]:
                num, den = split_fraction(text)
                ops.append({"kind": "membership", "ring": ring, "num": num,
                            "den": den})
        return ops
    if workload == "filters":
        return [{"kind": "ideal", "ring": "R2", "gens": "; ".join(gens)}
                for gens in structured_ideals("R2")]
    return []


def op_list(workload: str, seed: int) -> list[dict]:
    """The fixed ops and a stratified sample of each corpus, in seeded order.

    Every seed runs the same ops, so that runs of different seeds compare
    like with like: samples drawn per seed moved the figures of a run as
    much as the machine's own noise did (README.md).
    """
    ops = fixed_ops(workload)
    for corpus, size in LIST_SIZES[workload].items():
        ops += stratified(load_corpus(corpus), size)
    random.Random(f"{workload}-{seed}").shuffle(ops)
    return ops
