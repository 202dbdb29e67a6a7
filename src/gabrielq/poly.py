"""Exact multivariate polynomial arithmetic over the rationals.

Monomials are plain tuples of non-negative exponents, one slot per ambient
variable.  Polynomials are immutable maps monomial -> nonzero Fraction, so
equality of term maps is equality of polynomials (canonical form).
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from operator import add, itemgetter, le, neg, sub

Mono = tuple  # exponent vector

# (time.monotonic() deadline, message) of the innermost time_budget, or None
_DEADLINE: ContextVar = ContextVar("gabrielq_deadline", default=None)


@contextmanager
def time_budget(seconds: float, message: str):
    """Bound the computation inside the block to `seconds` of wall time.

    Polynomial multiplication checks the deadline once per term of its
    left operand, buchberger once per S-pair, the reduction kernel
    (groebner._reduce) once per reduction step and exact division once per
    division step, so every layer above them (parsing and powers included)
    is bounded without passing the deadline down; past it, the check
    raises TimeoutError(message).
    """
    token = _DEADLINE.set((time.monotonic() + seconds, message))
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def check_deadline() -> None:
    """Raise TimeoutError once the innermost time_budget has run out."""
    deadline = _DEADLINE.get()
    if deadline is not None and time.monotonic() > deadline[0]:
        raise TimeoutError(deadline[1])


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True when a | b componentwise."""
    return all(map(le, a, b))


def mono_div(b: Mono, a: Mono) -> Mono:
    """b / a, assuming divisibility."""
    return tuple(map(sub, b, a))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(map(max, a, b))


def mono_deg(a: Mono) -> int:
    return sum(a)


class MonomialOrder:
    """Multiplicative well-order on monomials, realized as sort keys.

    Kinds: "lex", "degrevlex", and "elim" (block elimination order that
    sends the variables in `front` to the front block, degrevlex within
    each block).  `key` is the ascending sort key; `desc` sorts the same
    monomials in the opposite order, so heapq's min-heap pops the largest
    monomial first.  Once the front blocks of two monomials tie, their
    front exponents are equal, so the back blocks compare as degrevlex on
    the whole monomial does, and the keys compare the whole monomial.
    """

    __slots__ = ("kind", "front", "key", "desc")

    def __init__(self, kind: str, front: tuple[int, ...] = ()):
        if kind not in ("lex", "degrevlex", "elim"):
            raise ValueError(f"unknown monomial order kind: {kind}")
        self.kind = kind
        self.front = tuple(sorted(front))
        if kind == "lex":
            self.key = tuple  # the monomial itself
            self.desc = lambda m: tuple(map(neg, m))
        elif kind == "degrevlex" or not self.front:
            self.key = lambda m: (sum(m), tuple(map(neg, reversed(m))))
            self.desc = lambda m: (-sum(m), m[::-1])
        elif len(self.front) == 1:
            i = self.front[0]
            self.key = lambda m: (m[i], sum(m), tuple(map(neg, reversed(m))))
            self.desc = lambda m: (-m[i], -sum(m), m[::-1])
        else:
            pick = itemgetter(*reversed(self.front))  # front block, reversed
            self.key = lambda m: (
                sum(f := pick(m)), tuple(map(neg, f)),
                sum(m), tuple(map(neg, reversed(m))),
            )
            self.desc = lambda m: (-sum(f := pick(m)), f, -sum(m), m[::-1])

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.front == other.front
        )

    def __hash__(self):
        return hash((self.kind, self.front))

    def __repr__(self):
        if self.kind == "elim":
            return f"MonomialOrder('elim', front={self.front})"
        return f"MonomialOrder({self.kind!r})"


LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")


def elimination_order(front: tuple[int, ...]) -> MonomialOrder:
    return MonomialOrder("elim", tuple(front))


class VariableMismatchError(ValueError):
    """Operands live over different ambient variable lists."""


class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Polynomial:
    __slots__ = ("vars", "terms", "_hash", "_lead")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        self.terms = {m: c for m, c in terms.items() if c}
        self._hash = None
        self._lead = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars) -> "Polynomial":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars, c) -> "Polynomial":
        c = Fraction(c)
        vars = tuple(vars)
        if c == 0:
            return cls(vars, {})
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def one(cls, vars) -> "Polynomial":
        return cls.constant(vars, 1)

    @classmethod
    def variable(cls, vars, name) -> "Polynomial":
        vars = tuple(vars)
        i = vars.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {mono: Fraction(1)})

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(mono_deg(m) == 0 for m in self.terms)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise VariableMismatchError(
                f"variable lists differ: {self.vars} vs {other.vars}"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.vars, terms)

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return Polynomial(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            check_deadline()
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.vars, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.vars)
        return Polynomial(self.vars, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, n: int):
        """self^n.  A one-term base is raised directly (exponents times n,
        coefficient to the n), so x^4611686018427387904 costs nothing.  Any
        other base is multiplied in n - 1 times: each product grows the
        power by the few terms of the base, where squaring would multiply
        two powers of full size."""
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Polynomial.one(self.vars)
        if len(self.terms) <= 1:
            return Polynomial(self.vars, {tuple(e * n for e in m): c ** n
                                          for m, c in self.terms.items()})
        result = self
        for _ in range(n - 1):
            result = result * self
        return result

    # -- structure ----------------------------------------------------

    def leading(self, order: MonomialOrder) -> tuple[Mono, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        cache = self._lead
        if cache is None:
            cache = self._lead = {}
        m = cache.get(order)
        if m is None:
            m = cache[order] = max(self.terms, key=order.key)
        return m, self.terms[m]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading(order)
        return self.scale(Fraction(1) / c)

    def sorted_terms(self, order: MonomialOrder = DEGREVLEX):
        """Terms in descending monomial order (deterministic iteration)."""
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self == Polynomial.constant(self.vars, other)
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        return poly_to_str(self)

    def __repr__(self):
        return f"Polynomial({poly_to_str(self)!r})"


def poly_to_str(f: Polynomial) -> str:
    if f.is_zero:
        return "0"
    pieces = []
    for m, c in f.sorted_terms():
        factors = []
        for name, e in zip(f.vars, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        coeff = abs(c)
        if not factors:
            body = str(coeff)
        elif coeff == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(coeff)] + factors)
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


class _Parser:
    """Recursive-descent parser for the ASCII polynomial grammar.

    expr := term (('+'|'-') term)*
    term := factor ('*' factor)*
    factor := ('+'|'-')* base ('^' natural)?
    base := rational | identifier | '(' expr ')'

    Parentheses may nest MAX_NESTING deep; deeper input is a parse error,
    not a RecursionError.
    """

    MAX_NESTING = 100

    def __init__(self, text: str, vars):
        self.text = text
        self.pos = 0
        self.vars = tuple(vars)
        self.nesting = 0

    def error(self, message: str):
        raise PolyParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Polynomial:
        f = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return f

    def expr(self) -> Polynomial:
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        elif self.peek() == "+":
            self.pos += 1
        f = self.term().scale(sign)
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                f = f + self.term()
            elif ch == "-":
                self.pos += 1
                f = f - self.term()
            else:
                return f

    def term(self) -> Polynomial:
        f = self.factor()
        while self.peek() == "*":
            self.pos += 1
            f = f * self.factor()
        return f

    def factor(self) -> Polynomial:
        negate = False
        while self.peek() in ("-", "+"):
            negate ^= self.text[self.pos] == "-"
            self.pos += 1
        f = self.base()
        if self.peek() == "^":
            self.pos += 1
            n = self.natural("expected a non-negative integer exponent")
            f = f ** n
        return -f if negate else f

    def natural(self, message: str) -> int:
        """The digits at the cursor as an int; `message` is the parse error
        when there are none."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error(message)
        return int(self.text[start:self.pos])

    def base(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            if self.nesting == self.MAX_NESTING:
                self.error(f"parentheses nested deeper than {self.MAX_NESTING}")
            self.nesting += 1
            self.pos += 1
            f = self.expr()
            self.expect(")")
            self.nesting -= 1
            return f
        if ch.isdigit():
            num = self.natural("expected an integer")
            if self.peek() == "/":
                # only a rational literal may follow; lookahead for a digit
                save = self.pos
                self.pos += 1
                if self.peek().isdigit():
                    den = self.natural("expected an integer")
                    if den == 0:
                        self.error("zero denominator in rational literal")
                    return Polynomial.constant(self.vars, Fraction(num, den))
                self.pos = save
            return Polynomial.constant(self.vars, num)
        if ch.isalpha():
            start = self.pos
            self.pos += 1
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.vars:
                self.pos = start
                self.error(f"unknown variable {name!r}")
            return Polynomial.variable(self.vars, name)
        self.error("expected a rational, identifier, or parenthesized expression")


def parse_poly(text: str, vars) -> Polynomial:
    return _Parser(text, vars).parse()
