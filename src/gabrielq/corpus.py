"""Ring specification files and the shipped corpus.

File format: flat keyed text, one key per line.

    name: R2
    vars: a, b, c, d
    relations: b*c - a*d, c^3 - b*d^2, a*c^2 - b^2*d, b^3 - a^2*c
    certified_prime: true
    notes: free text

Relations are comma-separated polynomials in the standard grammar.
certified_prime must be true for the verification suites to run.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .domain import AffineDomain, FractionQ, make_domain

BUNDLED = ("R1", "R2", "R3")

# fractions known to exercise the interesting membership branches per ring;
# random fractions almost never lie in R(m) \ R, so these are mandatory
# positive-case coverage
DISTINGUISHED_FRACTIONS = {
    "R1": ["1/x", "y/x", "(x+y)/2"],
    "R2": ["b^2/a", "c^2/d", "b^4/a^2", "(b^2+a)/a"],
    "R3": ["y/x", "(y*z)/x", "1/z"],
}


class RingSpecError(ValueError):
    pass


def parse_ring_spec(text: str, source: str = "<string>") -> dict:
    fields = {"name": "", "vars": "", "relations": "",
              "certified_prime": "", "notes": ""}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise RingSpecError(f"{source}:{lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in fields:
            raise RingSpecError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise RingSpecError(f"{source}:{lineno}: repeated key {key!r}")
        seen.add(key)
        fields[key] = value.strip()
    if not fields["vars"]:
        raise RingSpecError(f"{source}: vars must be nonempty")
    return fields


def load_ring_file(path_or_name: str) -> AffineDomain:
    """Load a ring spec from a path, or a bundled corpus ring by name."""
    p = Path(path_or_name)
    if p.is_file():
        text = p.read_text()
        source = str(p)
    elif path_or_name in BUNDLED:
        text = (
            resources.files("gabrielq") / "rings" / f"{path_or_name}.ring"
        ).read_text()
        source = path_or_name
    else:
        raise RingSpecError(f"no such ring file or bundled ring: {path_or_name}")
    fields = parse_ring_spec(text, source)
    if fields["certified_prime"].lower() != "true":
        raise RingSpecError(
            f"{source}: certified_prime must be true to run against this ring"
        )
    vars = tuple(v.strip() for v in fields["vars"].split(",") if v.strip())
    relations = [r.strip() for r in fields["relations"].split(",") if r.strip()]
    return make_domain(vars, relations, name=fields["name"] or source)


def distinguished_fractions(dom: AffineDomain) -> list[FractionQ]:
    out = []
    for text in DISTINGUISHED_FRACTIONS.get(dom.name, []):
        out.append(parse_fraction(dom, text))
    return out


def parse_fraction(dom: AffineDomain, text: str) -> FractionQ:
    """Parse "num / den" (split at the first top-level '/') or a bare
    polynomial.  Write coefficient fractions inside parentheses."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            return dom.fraction(text[:i].strip(), text[i + 1 :].strip())
    return dom.fraction(text.strip())
