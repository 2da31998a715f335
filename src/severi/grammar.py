"""Plain-text grammar: the polynomial formatter and the user-input readers.

`format_poly` writes polynomials over L: coefficients are integers `p` or
fractions `p/q`, a coefficient outside k is a parenthesized polynomial in
the generator `t`, `^` is exponentiation and `*` is explicit
multiplication.  Variable names are supplied by the caller: `X,Y,Z` for
the plane (n = 2), `X0..Xn` in general, `w0..w{m-1}` for Veronese
coordinates.

The only text read back is user input: `parse_univariate` reads a
polynomial in `x` over k straight into a dense coefficient tuple and
refuses one whose degree, or the degree of any product or power on the
way, is above a given bound; `parse_field_spec` builds a cyclic extension
from a one-line field spec, with the extension degree as that bound.  No
emission is parsed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from .errors import GrammarError, InputError
from .fields import (
    QQ,
    BaseField,
    ExtElement,
    Scalar,
    format_element,
    format_terms,
    frobenius_extension,
    make_extension,
    make_shanks_cubic,
    poly_add,
    poly_mul,
    poly_neg,
    poly_sub,
    poly_trim,
    signed_scalar,
)
from .polyring import MultiPoly

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
    """Recursive descent over +, -, *, ^, parentheses, numbers and x, straight
    into dense coefficient tuples over k (low degree first).  No exponent,
    product or power may go above degree `bound`; that is checked before the
    product or power is formed."""

    def __init__(self, field: BaseField, tokens: list[str], bound: int):
        self.k = field
        self.toks = tokens
        self.pos = 0
        self.bound = bound

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

    def check_degree(self, degree: int, what: str = "degree") -> None:
        if degree > self.bound:
            raise GrammarError(f"{what} {degree} is above the degree bound "
                               f"{self.bound}")

    def parse(self) -> tuple[Scalar, ...]:
        out = self.expr()
        if self.peek() is not None:
            raise GrammarError(f"trailing input at token {self.peek()!r}")
        return out

    def expr(self) -> tuple[Scalar, ...]:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        out = self.term()
        if sign < 0:
            out = poly_neg(self.k, out)
        while self.peek() in ("+", "-"):
            op = self.take()
            sign = 1 if op == "+" else -1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            nxt = self.term()
            out = (poly_add if sign > 0 else poly_sub)(self.k, out, nxt)
        return out

    def term(self) -> tuple[Scalar, ...]:
        out = self.factor()
        while self.peek() == "*":
            self.take()
            nxt = self.factor()
            if out and nxt:
                self.check_degree(len(out) + len(nxt) - 2)
            out = poly_mul(self.k, out, nxt)
        return out

    def factor(self) -> tuple[Scalar, ...]:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        tok = self.take()
        if not tok.isdigit():
            raise GrammarError(f"exponent must be a nonneg integer, got {tok!r}")
        e = _integer(tok)
        self.check_degree(e, "exponent")
        if base:
            self.check_degree((len(base) - 1) * e)
        out = (self.k.one(),)
        for _ in range(e):
            out = poly_mul(self.k, out, base)
        return out

    def atom(self) -> tuple[Scalar, ...]:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.isdigit():
            value = Fraction(_integer(tok))
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit() or _integer(den) == 0:
                    raise GrammarError(f"bad denominator {den!r}")
                value /= _integer(den)
            return poly_trim(self.k, [self.k.coerce(value)])
        if tok == "x":
            self.check_degree(1)
            return (self.k.zero(), self.k.one())
        raise GrammarError(f"unknown name {tok!r}")


def _integer(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise GrammarError(f"number with {len(tok)} digits is too long") from None


def parse_univariate(field: BaseField, s: str, bound: int) -> tuple[Scalar, ...]:
    """Coefficient tuple (low degree first) of a polynomial in x over
    `field`, of degree at most `bound`; GrammarError otherwise."""
    try:
        return _Parser(field, _tokenize(s), bound).parse()
    except RecursionError:
        raise GrammarError("parentheses nested too deeply") from None


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
    extension degree is not `degree`, or whose polynomials go above degree
    `degree` anywhere in their text, raises GrammarError.
    """
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
        f = parse_univariate(QQ, _unquote(fpart), degree)
        _check_degree(spec, len(f) - 1, degree)
        g = parse_univariate(QQ, _unquote(gpart.strip()[len("galois:"):]),
                             degree)
        return make_extension(QQ, f, g, character_convention)
    raise GrammarError(f"unknown field spec kind {head!r}")


def _check_degree(spec: str, found: int, degree: int) -> None:
    if found != degree:
        raise GrammarError(f"field spec {spec!r} has degree {found}, "
                           f"but n = {degree - 1} needs degree {degree}")
