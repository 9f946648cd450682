"""Multivariate polynomials over F_p with a fixed variable order.

The expression grammar accepted by parse_polynomial:

    expr    = [sign] term { sign term }
    sign    = "+" | "-"
    term    = integer | [integer] factor { factor }
    factor  = variable [ "^" integer ]

Products are written by juxtaposition ("3x^2y" or "3 x^2 y"); there is no
"*" token. Variable names come from the declared, ordered variable list and
are matched longest-first inside alphanumeric runs, so single-letter and
multi-letter names both work. Coefficients are integers reduced mod p.

The monomial order everywhere is degree reverse lexicographic with the
declared variable order (first variable largest).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, Iterator, Optional, Sequence

Monomial = tuple[int, ...]

EXPONENT_CAP = 1 << 20


class PolyParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InfiniteDimensionError(ValueError):
    """The quotient by the ideal is not finite-dimensional over F_p."""


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def degrevlex_key(m: Monomial):
    """Sort key: k(a) > k(b) iff a > b in degrevlex (first variable largest)."""
    return (monomial_degree(m), tuple(-e for e in reversed(m)))


class Polynomial:
    """Immutable polynomial over F_p in an ordered tuple of variables."""

    __slots__ = ("variables", "p", "terms", "_lead")

    def __init__(self, variables: Sequence[str], p: int, terms: dict[Monomial, int]):
        self.variables = tuple(variables)
        self.p = p
        clean = {}
        for m, c in terms.items():
            c %= p
            if c:
                clean[tuple(m)] = c
        self.terms = clean
        self._lead: Optional[Monomial] = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_terms(
        cls, variables: Sequence[str], p: int, terms: Iterable[tuple[int, Monomial]]
    ) -> "Polynomial":
        acc: dict[Monomial, int] = {}
        for c, m in terms:
            acc[tuple(m)] = acc.get(tuple(m), 0) + c
        return cls(variables, p, acc)

    # -- predicates and views ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> Monomial:
        if self._lead is None:
            if self.is_zero():
                raise ValueError("zero polynomial has no leading monomial")
            self._lead = max(self.terms, key=degrevlex_key)
        return self._lead

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_monomial()]

    def degree(self) -> int:
        if self.is_zero():
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def order(self) -> int:
        """Smallest total degree of a term (the order of the series)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no order")
        return min(monomial_degree(m) for m in self.terms)

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda t: degrevlex_key(t[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.variables != other.variables or self.p != other.p:
            raise ValueError("polynomials live in different rings")

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) - c
        return Polynomial(self.variables, self.p, acc)

    def scale(self, c: int) -> "Polynomial":
        return Polynomial(self.variables, self.p, {m: k * c for m, k in self.terms.items()})

    def term_mul(self, c: int, m: Monomial) -> "Polynomial":
        return Polynomial(
            self.variables, self.p, {monomial_mul(m, mm): c * cc for mm, cc in self.terms.items()}
        )

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = pow(self.leading_coefficient(), self.p - 2, self.p)
        return self.scale(inv)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.p == other.p
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"Polynomial({self.render()!r})"

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            body = monomial_label(m, self.variables)
            if body == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}{body}")
        return " + ".join(parts)


# -- parser ----------------------------------------------------------------------


def _match_variable(text: str, pos: int, variables: Sequence[str]) -> Optional[str]:
    # longest declared name first so e.g. "x1" beats "x" when both exist
    for name in sorted(variables, key=len, reverse=True):
        if text.startswith(name, pos):
            return name
    return None


def parse_polynomial(text: str, variables: Sequence[str], p: int) -> Polynomial:
    """Parse `text` into a Polynomial over F_p in the declared variables.

    Raises PolyParseError with a character position on bad input.
    """
    variables = tuple(variables)
    var_index = {name: i for i, name in enumerate(variables)}
    n = len(variables)
    pos = 0
    length = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < length and text[pos].isspace():
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < length and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise PolyParseError("expected an integer", start)
        value = int(text[start:pos])
        if value > EXPONENT_CAP:
            raise PolyParseError("integer too large", start)
        return value

    terms: list[tuple[int, Monomial]] = []
    skip_ws()
    if pos == length:
        raise PolyParseError("empty input", pos)

    sign = 1
    first = True
    while True:
        skip_ws()
        if not first:
            if pos == length:
                break
            if text[pos] == "+":
                sign = 1
            elif text[pos] == "-":
                sign = -1
            else:
                raise PolyParseError(f"expected '+' or '-', found {text[pos]!r}", pos)
            pos += 1
            skip_ws()
        elif pos < length and text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
            skip_ws()
        first = False

        coeff = 1
        have_coeff = False
        if pos < length and text[pos].isdigit():
            coeff = read_int()
            have_coeff = True
        exps = [0] * n
        have_var = False
        while True:
            skip_ws()
            if pos >= length or text[pos] in "+-":
                break
            name = _match_variable(text, pos, variables)
            if name is None:
                if text[pos] == "*":
                    raise PolyParseError("'*' is not part of the grammar; write products by juxtaposition", pos)
                if text[pos].isdigit():
                    raise PolyParseError("unexpected digit; exponents need '^'", pos)
                raise PolyParseError(f"unknown symbol {text[pos]!r}", pos)
            pos += len(name)
            e = 1
            if pos < length and text[pos] == "^":
                pos += 1
                e = read_int()
            exps[var_index[name]] += e
            have_var = True
        if not have_var and not have_coeff:
            raise PolyParseError("expected a term", pos)
        terms.append((sign * coeff, tuple(exps)))

    return Polynomial.from_terms(variables, p, terms)


# -- division and Groebner bases ---------------------------------------------------


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f under multivariate division by `basis` (degrevlex).

    For a reduced Groebner basis the result is the unique normal form.
    Divisors are tried in the stored order, so output is deterministic for
    any fixed basis list.
    """
    p = f.p
    rem: dict[Monomial, int] = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=degrevlex_key)
        c = work[m] % p
        if c == 0:
            del work[m]
            continue
        for g in basis:
            lm = g.leading_monomial()
            if monomial_divides(lm, m):
                factor = c * pow(g.leading_coefficient(), p - 2, p) % p
                shift = monomial_div(m, lm)
                # m stays in work so the lead of factor*shift*g cancels it
                for gm, gc in g.terms.items():
                    mm = monomial_mul(gm, shift)
                    work[mm] = (work.get(mm, 0) - factor * gc) % p
                    if work[mm] == 0:
                        del work[mm]
                break
        else:
            rem[m] = c
            del work[m]
    return Polynomial(f.variables, p, rem)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(lf, lg)
    p = f.p
    a = f.term_mul(pow(f.leading_coefficient(), p - 2, p), monomial_div(lcm, lf))
    b = g.term_mul(pow(g.leading_coefficient(), p - 2, p), monomial_div(lcm, lg))
    return a - b


def buchberger(generators: Sequence[Polynomial]) -> list[Polynomial]:
    """Reduced monic Groebner basis under degrevlex.

    Deterministic: pairs (i, j) of basis indices, i < j, are processed by
    (degrevlex of lcm, i, j) from a heap, Buchberger's coprimality criterion
    prunes pairs, and the final basis is interreduced and sorted by leading
    monomial (smallest first).
    """
    basis = [g for g in generators if not g.is_zero()]
    if not basis:
        return []
    basis = [g.monic() for g in basis]

    def pair_key(i: int, j: int):
        return (degrevlex_key(monomial_lcm(basis[i].leading_monomial(), basis[j].leading_monomial())), i, j)

    pairs = [pair_key(i, j) for i, j in itertools.combinations(range(len(basis)), 2)]
    heapq.heapify(pairs)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        f, g = basis[i], basis[j]
        lf, lg = f.leading_monomial(), g.leading_monomial()
        if monomial_lcm(lf, lg) == monomial_mul(lf, lg):
            continue  # coprime leading terms reduce to zero
        r = normal_form(s_polynomial(f, g), basis)
        if r.is_zero():
            continue
        basis.append(r.monic())
        k = len(basis) - 1
        for t in range(k):
            heapq.heappush(pairs, pair_key(t, k))

    # interreduce: drop redundant leads, then tail-reduce each survivor
    basis.sort(key=lambda g: degrevlex_key(g.leading_monomial()))
    kept: list[Polynomial] = []
    for i, g in enumerate(basis):
        lm = g.leading_monomial()
        others = basis[:i] + basis[i + 1 :]
        if any(monomial_divides(h.leading_monomial(), lm) for h in kept):
            continue
        if any(
            monomial_divides(h.leading_monomial(), lm) and h.leading_monomial() != lm
            for h in others
        ):
            continue
        kept.append(g)
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        reduced.append(normal_form(g, others).monic())
    reduced.sort(key=lambda g: degrevlex_key(g.leading_monomial()))
    return reduced


def standard_monomial_basis(groebner: Sequence[Polynomial], variables: Sequence[str]) -> list[Monomial]:
    """Monomials outside the leading-term ideal, sorted degree-then-degrevlex.

    Raises InfiniteDimensionError when some variable has no pure power among
    the leading terms (the quotient is then infinite-dimensional).
    """
    variables = tuple(variables)
    n = len(variables)
    leads = [g.leading_monomial() for g in groebner if not g.is_zero()]
    if any(monomial_degree(m) == 0 for m in leads):
        return []  # ideal is the unit ideal
    caps = []
    for i in range(n):
        pure = [m[i] for m in leads if all(e == 0 for k, e in enumerate(m) if k != i)]
        if not pure:
            raise InfiniteDimensionError(
                f"no pure power of {variables[i]} in the leading term ideal"
            )
        caps.append(min(pure))
    out = []
    for exps in itertools.product(*(range(c) for c in caps)):
        if not any(monomial_divides(lm, exps) for lm in leads):
            out.append(tuple(exps))
    # ascending degree; within a degree the degrevlex-larger monomial first
    # (x before y), which is ascending order on the reversed exponent tuple
    out.sort(key=lambda m: (monomial_degree(m), tuple(reversed(m))))
    return out


def monomial_label(m: Monomial, variables: Sequence[str]) -> str:
    if monomial_degree(m) == 0:
        return "1"
    parts = []
    for name, e in zip(variables, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "".join(parts)
