"""Ring spec files, the bundled corpus, and fraction parsing."""
import pytest

from gabrielq.domain import DomainError
from gabrielq.corpus import (
    BUNDLED,
    RingSpecError,
    load_ring_file,
    parse_fraction,
    parse_ring_spec,
)


def test_bundled_rings_load():
    for name in BUNDLED:
        dom = load_ring_file(name)
        assert dom.name == name
        assert dom.n == 2


def test_R2_relations_hold():
    """The shipped quartic-surface relations vanish on (x^4, x^3 y, x y^3, y^4)."""
    R2 = load_ring_file("R2")
    from gabrielq.poly import parse_poly
    vars = ("x", "y")
    subs = {
        "a": parse_poly("x^4", vars),
        "b": parse_poly("x^3*y", vars),
        "c": parse_poly("x*y^3", vars),
        "d": parse_poly("y^4", vars),
    }
    from gabrielq.poly import Polynomial
    for rel in R2.P.gens:
        value = Polynomial.zero(vars)
        for mono, coeff in rel.terms.items():
            piece = Polynomial.constant(vars, coeff)
            for name, e in zip(R2.vars, mono):
                piece = piece * subs[name] ** e
            value = value + piece
        assert value.is_zero, str(rel)


def test_parse_ring_spec_errors():
    with pytest.raises(RingSpecError):
        parse_ring_spec("vars x, y")  # no colon
    with pytest.raises(RingSpecError):
        parse_ring_spec("bogus: 1\nvars: x")
    with pytest.raises(RingSpecError):
        parse_ring_spec("name: N")  # vars empty
    fields = parse_ring_spec("# comment\nname: N\nvars: x, y\n\nnotes: hi")
    assert fields["name"] == "N" and fields["vars"] == "x, y"


def test_parse_ring_spec_rejects_repeated_key():
    with pytest.raises(RingSpecError, match="repeated key 'relations'"):
        parse_ring_spec("vars: x, y\nrelations: x^2 - y^3\nrelations:\n")


@pytest.mark.parametrize("vars", ["x, x", "2x, y", "x y, z", "x-1"])
def test_load_rejects_bad_variable_names(tmp_path, vars):
    p = tmp_path / "bad.ring"
    p.write_text(f"name: B\nvars: {vars}\nrelations:\ncertified_prime: true\n")
    with pytest.raises(DomainError):
        load_ring_file(str(p))


def test_load_requires_certified_prime(tmp_path):
    p = tmp_path / "bad.ring"
    p.write_text("name: B\nvars: x, y\nrelations:\ncertified_prime: false\n")
    with pytest.raises(RingSpecError):
        load_ring_file(str(p))
    with pytest.raises(RingSpecError):
        load_ring_file("NoSuchRing")


def test_load_from_path(tmp_path):
    p = tmp_path / "ok.ring"
    p.write_text(
        "name: Cusp\nvars: x, y\nrelations: y^2 - x^3\ncertified_prime: true\n"
    )
    dom = load_ring_file(str(p))
    assert dom.name == "Cusp" and dom.n == 1


def test_parse_fraction():
    R1 = load_ring_file("R1")
    q = parse_fraction(R1, "y / x")
    assert str(q.num) == "y" and str(q.den) == "x"
    # the split happens at the first top-level slash only
    q2 = parse_fraction(R1, "(x + y)/2")
    assert q2.den.is_constant
    # a leading rational literal is a coefficient, not a fraction bar,
    # only when parenthesized
    q3 = parse_fraction(R1, "(1/2)*x")
    assert q3.in_R()
    bare = parse_fraction(R1, "x^2 - y")
    assert bare.in_R()
