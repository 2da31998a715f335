"""Plain-text grammar: the polynomial formatter and the user-input readers.

`format_poly` writes polynomials over L: coefficients are integers `p` or
fractions `p/q`, a coefficient outside k is a parenthesized polynomial in
the generator `t`, `^` is exponentiation and `*` is explicit
multiplication.  Variable names are supplied by the caller: `X,Y,Z` for
the plane (n = 2), `X0..Xn` in general, `w0..w{m-1}` for Veronese
coordinates.

The only text read back is user input: `parse_univariate` reads a
polynomial in `x` over k, and `parse_field_spec` builds a cyclic extension
from a one-line field spec.  No emission is parsed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from .errors import GrammarError, InputError
from .fields import (
    BaseField,
    CyclicExtension,
    ExtElement,
    Scalar,
    format_element,
    format_terms,
    poly_trim,
    signed_scalar,
)
from .polyring import MultiPoly, constant, make_poly

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]\w*|\^|\*|\+|-|/|\(|\))")


def plane_names(n: int) -> tuple[str, ...]:
    if n == 2:
        return ("X", "Y", "Z")
    return tuple(f"X{i}" for i in range(n + 1))


def omega_names(m: int) -> tuple[str, ...]:
    return tuple(f"w{i}" for i in range(m))


def _tokenize(s: str) -> list[str]:
    out, pos = [], 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip() == "":
                break
            raise GrammarError(f"unexpected character {s[pos]!r} at position {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over +, -, *, ^, parentheses, numbers, variables."""

    def __init__(self, ext: CyclicExtension, names: Sequence[str],
                 tokens: list[str]):
        self.ext = ext
        self.names = {name: i for i, name in enumerate(names)}
        self.nvars = len(names)
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise GrammarError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise GrammarError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> MultiPoly:
        out = self.expr()
        if self.peek() is not None:
            raise GrammarError(f"trailing input at token {self.peek()!r}")
        return out

    def expr(self) -> MultiPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        out = self.term()
        if sign < 0:
            out = -out
        while self.peek() in ("+", "-"):
            op = self.take()
            sign = 1 if op == "+" else -1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            nxt = self.term()
            out = out + nxt if sign > 0 else out - nxt
        return out

    def term(self) -> MultiPoly:
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = out * self.factor()
        return out

    def factor(self) -> MultiPoly:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if not e.isdigit():
                raise GrammarError(f"exponent must be a nonneg integer, got {e!r}")
            return base ** int(e)
        return base

    def atom(self) -> MultiPoly:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.isdigit():
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit() or int(den) == 0:
                    raise GrammarError(f"bad denominator {den!r}")
                return constant(self.ext, self.nvars,
                                self.ext.base.coerce(Fraction(num, int(den))))
            return constant(self.ext, self.nvars, self.ext.base.coerce(num))
        if tok in self.names:
            i = self.names[tok]
            exp = tuple(1 if j == i else 0 for j in range(self.nvars))
            return make_poly(self.ext, self.nvars, {exp: self.ext.one()})
        raise GrammarError(f"unknown name {tok!r}")


def parse_univariate(field: BaseField, s: str) -> tuple[Scalar, ...]:
    """Coefficient tuple (low degree first) of a polynomial in x over
    `field`, read as a polynomial in one variable over k seen as the
    degree-1 extension k[x]/(x)."""
    k = CyclicExtension(field, (0, 1), (0, 1), _validate=False)
    poly = _Parser(k, ("x",), _tokenize(s)).parse()
    coeffs = [field.zero()] * (poly.degree() + 1)
    for (d,), c in poly.terms:
        coeffs[d] = c.coeffs[0]
    return poly_trim(field, coeffs)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _coeff_str(c: ExtElement) -> tuple[str, bool]:
    """(text, negated): base-field scalars may pull their sign out front."""
    if c.in_base():
        return signed_scalar(c.base_value())
    return f"({format_element(c)})", False


def format_poly(F: MultiPoly, names: Optional[Sequence[str]] = None) -> str:
    if names is None:
        names = plane_names(F.nvars - 1)
    if len(names) != F.nvars:
        raise InputError("name list length mismatch")
    return format_terms(
        (*_coeff_str(c), "*".join(names[i] if k == 1 else f"{names[i]}^{k}"
                                  for i, k in enumerate(e) if k))
        for e, c in F.terms)


# ---------------------------------------------------------------------------
# Field specs: shanks:t=T | finite:p=P | poly:"f";galois:"g"
# ---------------------------------------------------------------------------

def _parse_assign(text: str, key: str) -> int:
    lhs, sep, rhs = text.strip().partition("=")
    if not sep or lhs.strip() != key:
        raise GrammarError(f"expected {key}=<integer>, got {text!r}")
    try:
        return int(rhs.strip())
    except ValueError:
        raise GrammarError(f"expected an integer after {key}=, got {rhs!r}") from None


def _unquote(s: str) -> str:
    s = s.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in "\"'":
        return s[1:-1]
    return s


def parse_field_spec(spec: str, degree: int = 3,
                     character_convention: Optional[int] = None):
    """Build a cyclic extension from a one-line spec.

    Forms: `shanks:t=1` (simplest cubic over Q), `finite:p=7` (degree from
    the `degree` argument, Frobenius generator), and
    `poly:<f>;galois:<g>` with both polynomials over Q in `x`.  A spec whose
    extension degree is not `degree` raises GrammarError.
    """
    from .fields import (QQ, frobenius_extension, make_extension,
                         make_shanks_cubic)
    head, sep, rest = spec.strip().partition(":")
    if not sep:
        raise GrammarError(f"field spec needs a kind prefix: {spec!r}")
    kind = head.strip().lower()
    if kind == "shanks":
        _check_degree(spec, 3, degree)
        L = make_shanks_cubic(_parse_assign(rest, "t"))
        if character_convention is not None:
            L = make_extension(QQ, L.f, L.g, character_convention)
        return L
    if kind == "finite":
        L = frobenius_extension(_parse_assign(rest, "p"), degree)
        if character_convention is not None:
            L = make_extension(L.base, L.f, L.g, character_convention)
        return L
    if kind == "poly":
        fpart, sep2, gpart = rest.partition(";")
        if not sep2 or not gpart.strip().lower().startswith("galois:"):
            raise GrammarError("poly spec needs ';galois:<g>' after the polynomial")
        f = parse_univariate(QQ, _unquote(fpart))
        _check_degree(spec, len(f) - 1, degree)
        g = parse_univariate(QQ, _unquote(gpart.strip()[len("galois:"):]))
        return make_extension(QQ, f, g, character_convention)
    raise GrammarError(f"unknown field spec kind {head!r}")


def _check_degree(spec: str, found: int, degree: int) -> None:
    if found != degree:
        raise GrammarError(f"field spec {spec!r} has degree {found}, "
                           f"but n = {degree - 1} needs degree {degree}")
