"""Exact base fields and cyclic extensions with an explicit Galois generator.

The base field k is either Q (scalars are `fractions.Fraction`) or a prime
field F_p (scalars are ints in 0..p-1).  A cyclic extension L/k of degree
n+1 is k[x]/(f) together with a polynomial g of degree <= n such that
theta |-> g(theta) generates Gal(L/k); elements are stored in the power
basis 1, theta, ..., theta^n.  Normal bases are derived values, never the
internal representation.  Polynomials over k are dense coefficient tuples,
low degree first (`poly_add`, `poly_mul`, ...): f and g are stored so, and
severi.grammar parses user input straight into them.  Every
CyclicExtension checks f and g when it is constructed: degree >= 2, monic,
irreducible, g a root of f that generates a cyclic group of order deg f.

An element of L keeps integer coordinates: numerators `nums` over one
denominator `den`, in a normal form (den >= 1, gcd(den, *nums) = 1, zero
as all-zero nums over 1; over F_p den is 1 and nums are residues).  The
form is canonical, so the dataclass's field equality and hash are value
equality.  Sums, differences, negatives, products, inverses and Galois
images are computed in Python ints and normalized once per result, by one
gcd over Q and by reduction mod p over F_p: a product convolves the two
integer vectors and reduces the convolution mod f with an integer copy of
the theta-power table, and a Galois image reads an integer copy of the
coordinate maps of sigma^j (both sparse rows over one common
denominator).  The base-field view `coeffs` (Fractions over Q, residues
over F_p) is what the text formatters and the k-rows of other modules
read; over Q it is built once, on first read.  The descent's rows over k
and the JSON writer `element_to_json` read `nums` and `den` instead.

All exact linear algebra of the package, over k and over L, is one
sparse elimination kernel: one forward pass (`_echelon`), which inserts
rows one at a time into an echelon basis keyed by pivot column, and one
row update (`_clear`).  It has two entries.  `rank` serves every caller
that reads only a pivot count: it returns the size of the basis and
reads no row once the basis reaches an optional ceiling.  `row_reduce`
returns the reduced row echelon form: it inserts the rows sparsest
first, then back-substitutes from the highest pivot down.  Its rows go
in as (column, entry) pairs and come out as the nonzero reduced rows
alone, each a dict of its nonzero entries, so no dense matrix is built
around it.  Over Q both eliminate in primitive integer rows; `rank`
builds no Fraction, and `row_reduce` builds them only for the rows it
returns.  A CyclicExtension offers the BaseField operations the kernel
uses, `zero` and `inv`.
The plain-text term joiner `format_terms` is shared with severi.grammar.

Scalars, elements and extensions have JSON writers (`scalar_to_json`,
`element_to_json`, `extension_to_json`) and no readers: no program path
reads an emission back.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    InputError,
    InternalDescentFailure,
    NotGalois,
    NotIrreducible,
    SearchExhausted,
    WrongOrder,
    ZeroA,
)

Scalar = Union[Fraction, int]

_RATIONAL_ROOT_DEGREE = 3          # rational-root test is complete up to here
_CERTIFICATE_PRIMES = 500          # mod-p irreducibility certificates tried below this


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; p at or above the bound, where the bases
    no longer prove primality, raises InputError."""
    if p < 2:
        return False
    if p >= _MILLER_RABIN_BOUND:
        raise InputError(f"cannot certify primality of {p} (too large)")
    for q in _MILLER_RABIN_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _MILLER_RABIN_BASES:
        x = pow(q, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _primes_below(bound: int) -> Iterator[int]:
    for p in range(2, bound):
        if _is_prime(p):
            yield p


class BaseField:
    """Q or F_p with exact scalar arithmetic."""

    def __init__(self, p: Optional[int] = None):
        if p is not None and not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p

    def coerce(self, x) -> Scalar:
        if self.p is None:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            raise InputError(f"cannot coerce {x!r} into Q")
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise InputError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        if isinstance(x, int):
            return x % self.p
        raise InputError(f"cannot coerce {x!r} into F_{self.p}")

    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a) if self.p is None else pow(a, -1, self.p)

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def value_sequence(self) -> Iterator[Scalar]:
        """Documented enumeration of scalars: 0,1,-1,2,-2,... over Q; 0..p-1 over F_p."""
        if self.p is not None:
            yield from range(self.p)
            return
        yield Fraction(0)
        k = 1
        while True:
            yield Fraction(k)
            yield Fraction(-k)
            k += 1

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("BaseField", self.p))

    def __repr__(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"


QQ = BaseField()


def GF(p: int) -> BaseField:
    return BaseField(p)


# ---------------------------------------------------------------------------
# dense univariate polynomials over the base field (low degree first)
# ---------------------------------------------------------------------------

def poly_trim(field: BaseField, c: Sequence[Scalar]) -> tuple[Scalar, ...]:
    c = list(c)
    while c and field.is_zero(c[-1]):
        c.pop()
    return tuple(c)


def poly_add(field, a, b):
    n = max(len(a), len(b))
    out = [field.zero()] * n
    for i, x in enumerate(a):
        out[i] = field.add(out[i], x)
    for i, x in enumerate(b):
        out[i] = field.add(out[i], x)
    return poly_trim(field, out)


def poly_neg(field, a):
    return tuple(field.neg(x) for x in a)


def poly_sub(field, a, b):
    return poly_add(field, a, poly_neg(field, b))


def poly_mul(field, a, b):
    if not a or not b:
        return ()
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return poly_trim(field, out)


def poly_scale(field, a, s):
    return poly_trim(field, [field.mul(x, s) for x in a])


def poly_divmod(field, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [field.zero()] * max(0, len(a) - len(b) + 1)
    inv_lead = field.inv(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        c = field.mul(a[i + len(b) - 1], inv_lead)
        if field.is_zero(c):
            continue
        q[i] = c
        for j, y in enumerate(b):
            a[i + j] = field.sub(a[i + j], field.mul(c, y))
    return poly_trim(field, q), poly_trim(field, a)


def poly_mod(field, a, b):
    return poly_divmod(field, a, b)[1]


def poly_gcd(field, a, b):
    while b:
        a, b = b, poly_mod(field, a, b)
    if a:
        a = poly_scale(field, a, field.inv(a[-1]))
    return a


def poly_compose_mod(field, a, b, m):
    """a(b(x)) mod m by Horner on the coefficients of a."""
    out: tuple[Scalar, ...] = ()
    for c in reversed(a):
        out = poly_mod(field, poly_mul(field, out, b), m)
        out = poly_add(field, out, (c,))
    return out


def poly_powmod(field, a, e: int, m):
    out: tuple[Scalar, ...] = (field.one(),)
    a = poly_mod(field, a, m)
    while e > 0:
        if e & 1:
            out = poly_mod(field, poly_mul(field, out, a), m)
        a = poly_mod(field, poly_mul(field, a, a), m)
        e >>= 1
    return out


def poly_deriv(field, a):
    return poly_trim(field, [field.mul(field.coerce(i), a[i]) for i in range(1, len(a))])


def _X(field) -> tuple[Scalar, ...]:
    return (field.zero(), field.one())


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def poly_is_irreducible_fp(field: BaseField, f) -> bool:
    """Rabin's test: x^(p^m) = x mod f and gcd(x^(p^(m/q)) - x, f) = 1."""
    p, m = field.p, len(f) - 1
    assert p is not None and m >= 1
    if m == 1:
        return True
    x = _X(field)
    for q in _prime_factors(m):
        h = poly_powmod(field, x, p ** (m // q), f)
        if len(poly_gcd(field, poly_sub(field, h, x), f)) > 1:
            return False
    h = poly_powmod(field, x, p ** m, f)
    return poly_sub(field, h, x) == ()


def _rational_roots_exist(f) -> bool:
    """Whether the squarefree f over Q has a rational root, exactly and
    without factoring.  With f cleared to integers c_0..c_d, y = c_d r maps
    the rational roots r of f onto the roots of the monic integer
    g(y) = c_d^(d-1) f(y / c_d), which are integers in [-B, B] for the
    Cauchy bound B = 1 + max |g_i|.  The Sturm sequence of g counts its
    roots in a half-open interval (lo, hi], and bisection over the integers
    isolates them."""
    den = math.lcm(*(c.denominator for c in f))
    fi = [int(c * den) for c in f]
    d, lead = len(fi) - 1, fi[-1]
    g = tuple(c * Fraction(lead) ** (d - 1 - i) for i, c in enumerate(fi))
    sturm = [g, poly_deriv(QQ, g)]
    while (r := poly_mod(QQ, sturm[-2], sturm[-1])):
        sturm.append(poly_neg(QQ, r))
    # a positive scale changes no sign: evaluate in integers
    sturm = [[int(c * math.lcm(*(x.denominator for x in p))) for c in p]
             for p in sturm]

    def value(p, y: int) -> int:
        v = 0
        for c in reversed(p):
            v = v * y + c
        return v

    def variations(y: int) -> int:
        signs = [v > 0 for v in (value(p, y) for p in sturm) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in sturm[0][:-1])
    intervals = [(-bound - 1, bound)]
    while intervals:
        lo, hi = intervals.pop()
        if variations(lo) == variations(hi):
            continue
        if hi - lo == 1:
            if value(sturm[0], hi) == 0:
                return True
            continue
        mid = (lo + hi) // 2
        intervals += [(lo, mid), (mid, hi)]
    return False


def poly_check_irreducible(field: BaseField, f) -> None:
    """Raise NotIrreducible unless f is (certifiably) irreducible over field.

    Over F_p the test is exact.  Over Q a prime p with f mod p irreducible
    certifies irreducibility at any degree, and is looked for first; only
    when none is found does the rational root test decide, which is exact
    up to degree 3.  Failure to certify raises, with a message
    distinguishing "reducible" from "uncertified".
    """
    deg = len(f) - 1
    if deg < 1:
        raise NotIrreducible("constant polynomial")
    if deg == 1:
        return
    if field.p is not None:
        if not poly_is_irreducible_fp(field, f):
            raise NotIrreducible(f"{f} factors over F_{field.p}")
        return
    if len(poly_gcd(field, f, poly_deriv(field, f))) > 1:
        raise NotIrreducible("not squarefree over Q")
    den = math.lcm(*(c.denominator for c in f))
    fi = [int(c * den) for c in f]
    for p in _primes_below(_CERTIFICATE_PRIMES):
        if fi[-1] % p == 0:
            continue
        k = GF(p)
        fp = poly_trim(k, [k.coerce(c) for c in fi])
        if len(poly_gcd(k, fp, poly_deriv(k, fp))) > 1:
            continue
        if poly_is_irreducible_fp(k, fp):
            return
    if _rational_roots_exist(f):
        raise NotIrreducible("rational root found")
    if deg > _RATIONAL_ROOT_DEGREE:
        raise NotIrreducible(
            "no mod-p certificate of irreducibility found (degree > 3 over Q)")


# ---------------------------------------------------------------------------
# cyclic extensions
# ---------------------------------------------------------------------------

def _integer_rows(base: BaseField, rows: Sequence[Sequence[Scalar]]
                  ) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
    """Rows of scalars over one common denominator d (1 over F_p): for each
    row, the pairs (t, c) with c != 0 and row[t] = c / d."""
    d = 1
    if base.p is None:
        d = math.lcm(*(c.denominator for row in rows for c in row))
    return tuple(tuple((t, int(c * d)) for t, c in enumerate(row) if c)
                 for row in rows), d


class CyclicExtension:
    """k[x]/(f) with Galois generator sigma: theta |-> g(theta).

    `character_convention` records chi(sigma) as a unit mod n+1; the default
    is -1 mod n+1, the convention under which the stored generator is the one
    appearing in the companion-matrix cocycle.  sigma' with chi(sigma') = 1
    is then a documented power of the stored generator.
    """

    def __init__(self, base: BaseField, f: Sequence[Scalar], g: Sequence[Scalar],
                 character_convention: Optional[int] = None):
        self.base = base
        self.f = poly_trim(base, [base.coerce(c) for c in f])
        self.degree = n1 = len(self.f) - 1
        if n1 < 2:
            raise InputError("extension degree must be >= 2")
        self.g = poly_mod(base, [base.coerce(c) for c in g], self.f)
        if character_convention is None:
            character_convention = n1 - 1
        self.character_convention = character_convention % n1
        if self.f[-1] != self.base.one():
            raise InputError("minimal polynomial must be monic")
        if math.gcd(self.character_convention, n1) != 1:
            raise InputError("character convention must be a unit mod degree")
        poly_check_irreducible(self.base, self.f)
        fg = poly_compose_mod(self.base, self.f, self.g, self.f)
        if fg != ():
            raise NotGalois("g does not map the root to a root: f(g) != 0 mod f")
        # its[j] is g composed with itself j times mod f, until it is x again
        # or j passes n+1; sigma^j(theta) for j = 0 .. n is its[j]
        x = poly_trim(self.base, _X(self.base))
        its = [x, self.g]
        while its[-1] != x and len(its) <= n1 + 1:
            its.append(poly_compose_mod(self.base, self.g, its[-1], self.f))
        if len(its) - 1 != n1:
            raise WrongOrder(f"generator has order {len(its) - 1}, expected {n1}")
        self._galois_iterates = its[:-1]

    # -- cached structure ---------------------------------------------------

    @cached_property
    def _theta_pow_table(self) -> list[tuple[Scalar, ...]]:
        """theta^k mod f for k = 0 .. 2n, as coefficient tuples of length n+1."""
        n1 = self.degree
        table = []
        cur: tuple[Scalar, ...] = (self.base.one(),)
        for _ in range(2 * n1 - 1):
            table.append(self._pad(cur))
            cur = poly_mod(self.base, poly_mul(self.base, cur, _X(self.base)), self.f)
        return table

    @cached_property
    def _int_theta_table(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
        """_theta_pow_table over one common denominator d: rows[k] lists the
        pairs (t, c) with c != 0 and theta^k = sum c * theta^t / d."""
        return _integer_rows(self.base, self._theta_pow_table)

    @cached_property
    def _galois_coord_maps(self) -> list[list[tuple[Scalar, ...]]]:
        """maps[j][i] = coordinates of sigma^j(theta^i)."""
        maps = []
        for gj in self._galois_iterates:
            cols = []
            cur: tuple[Scalar, ...] = (self.base.one(),)
            for _ in range(self.degree):
                cols.append(self._pad(cur))
                cur = poly_mod(self.base, poly_mul(self.base, cur, gj), self.f)
            maps.append(cols)
        return maps

    @cached_property
    def _int_galois_table(self) -> list[tuple[tuple[tuple[tuple[int, int], ...], ...], int]]:
        """_galois_coord_maps[j] over one common denominator d_j, as
        _int_theta_table holds the theta powers."""
        return [_integer_rows(self.base, cols) for cols in self._galois_coord_maps]

    def _pad(self, c: Sequence[Scalar]) -> tuple[Scalar, ...]:
        c = list(c)
        return tuple(list(c) + [self.base.zero()] * (self.degree - len(c)))

    # -- element constructors ----------------------------------------------

    def el(self, coeffs: Iterable) -> "ExtElement":
        c = [self.base.coerce(x) for x in coeffs]
        if len(c) > self.degree:
            c = list(poly_mod(self.base, c, self.f))
        c = self._pad(c)
        if self.base.p is not None:
            return ExtElement(self, c, 1)
        # the lcm of reduced denominators leaves the numerators coprime to it
        d = math.lcm(*(x.denominator for x in c))
        out = ExtElement(self, tuple(x.numerator * (d // x.denominator) for x in c), d)
        _setattr(out, "coeffs", c)  # the view is at hand: fill its cache
        return out

    def from_base(self, x) -> "ExtElement":
        """x in L, built in normal form: x over its own denominator."""
        x = self.base.coerce(x)
        zeros = (0,) * (self.degree - 1)
        if self.base.p is not None:
            return ExtElement(self, (x,) + zeros, 1)
        return ExtElement(self, (x.numerator,) + zeros, x.denominator)

    def zero(self) -> "ExtElement":
        return self.el([])

    def one(self) -> "ExtElement":
        return self.el([1])

    def theta(self) -> "ExtElement":
        return self.el([0, 1])

    def enumerate_elements(self) -> Iterator["ExtElement"]:
        """Documented deterministic enumeration: coefficient vectors over the
        scalar sequence 0,1,-1,2,-2,... in little-endian odometer order by
        increasing maximum index (so 0, 1, theta, 1+theta, ... come early)."""
        seq: list[Scalar] = []
        src = self.base.value_sequence()
        h = 0
        while True:
            try:
                seq.append(next(src))
            except StopIteration:
                return
            h = len(seq) - 1
            if h == 0:
                yield self.zero()
                continue
            for tup in itertools.product(range(h + 1), repeat=self.degree):
                if max(tup) != h:
                    continue
                little = tup[::-1]  # first coordinate varies fastest
                yield self.el([seq[i] for i in little])

    # -- the BaseField operation row_reduce uses besides zero() -------------

    def inv(self, a: "ExtElement") -> "ExtElement":
        return a.inverse()

    def __eq__(self, other) -> bool:
        return (isinstance(other, CyclicExtension) and self.base == other.base
                and self.f == other.f and self.g == other.g)

    def __hash__(self) -> int:
        return hash((self.base, self.f, self.g))

    def __repr__(self) -> str:
        return f"CyclicExtension({self.base}, f={format_univariate(self.f)})"


# writes an attribute of a frozen instance, as dataclasses' own __init__ does
_setattr = object.__setattr__


@dataclass(frozen=True, init=False)
class ExtElement:
    """Element of a cyclic extension in power-basis coordinates: coordinate
    i is nums[i] / den.

    Every element is built in the normal form of the module docstring:
    den >= 1 and gcd(den, *nums) = 1, zero as all-zero nums over 1, and
    over F_p den = 1 with residues in 0..p-1.  Each value has exactly one
    such (nums, den), so the dataclass's field equality and hash are value
    equality.
    """

    ext: CyclicExtension
    nums: tuple[int, ...]
    den: int

    def __init__(self, ext: CyclicExtension, nums: tuple[int, ...], den: int):
        # the generated __init__ plus a __post_init__ for the F_p view costs
        # a fifth more per element; reading self.__dict__ instead would give
        # every instance a materialized dict, slower to read and larger
        assert len(nums) == ext.degree
        _setattr(self, "ext", ext)
        _setattr(self, "nums", nums)
        _setattr(self, "den", den)
        if ext.base.p is not None:
            _setattr(self, "coeffs", nums)

    @cached_property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The coordinates as base scalars: over F_p the stored residues
        (set at construction, so reading them is a field read), over Q
        Fractions, built once on first read."""
        d = self.den
        return tuple(Fraction(v, d) for v in self.nums)

    # -- ring structure -----------------------------------------------------

    def _coerce(self, other) -> "ExtElement":
        if isinstance(other, ExtElement):
            if other.ext is not self.ext and other.ext != self.ext:
                raise InputError("elements of different extensions")
            return other
        return self.ext.from_base(other)

    def __add__(self, other):
        other = self._coerce(other)
        ext = self.ext
        p = ext.base.p
        if p is not None:
            nums = tuple([(a + b) % p for a, b in zip(self.nums, other.nums)])
            return ExtElement(ext, nums, 1)
        d, e = self.den, other.den
        if d == e:
            return _reduced(ext, [a + b for a, b in zip(self.nums, other.nums)], d)
        g = math.gcd(d, e)
        s, t = e // g, d // g
        return _reduced(ext, [a * s + b * t for a, b in zip(self.nums, other.nums)], d * s)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.ext, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        ext = self.ext
        p = ext.base.p
        if p is not None:
            nums = tuple([(a - b) % p for a, b in zip(self.nums, other.nums)])
            return ExtElement(ext, nums, 1)
        d, e = self.den, other.den
        if d == e:
            return _reduced(ext, [a - b for a, b in zip(self.nums, other.nums)], d)
        g = math.gcd(d, e)
        s, t = e // g, d // g
        return _reduced(ext, [a * s - b * t for a, b in zip(self.nums, other.nums)], d * s)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        ext = self.ext
        conv = [0] * (2 * ext.degree - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(other.nums, i):
                    if y:
                        conv[j] += x * y
        rows, dt = ext._int_theta_table
        acc = [0] * ext.degree
        for v, row in zip(conv, rows):
            if v:
                for t, c in row:
                    acc[t] += v * c
        return _reduced(ext, acc, self.den * other.den * dt)

    __rmul__ = __mul__

    def inverse(self) -> "ExtElement":
        """The product of the other conjugates sigma^j(x), j = 1..n, divided
        by the norm, which is x times that product."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in extension")
        ext = self.ext
        rest = galois_apply(ext, self, 1)
        for j in range(2, ext.degree):
            rest = rest * galois_apply(ext, self, j)
        nx = self * rest  # the norm c / nx.den, in k
        c, p = nx.nums[0], ext.base.p
        if p is not None:
            s = pow(c, -1, p)
            return _reduced(ext, [v * s for v in rest.nums], 1)
        s = nx.den if c > 0 else -nx.den
        return _reduced(ext, [v * s for v in rest.nums], rest.den * abs(c))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.ext.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def in_base(self) -> bool:
        return not any(self.nums[1:])

    def base_value(self) -> Scalar:
        if not self.in_base():
            raise InternalDescentFailure(
                f"element {self.coeffs} has a nonzero theta-coordinate")
        if self.ext.base.p is not None:
            return self.nums[0]
        return Fraction(self.nums[0], self.den)

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


def _reduced(ext: CyclicExtension, nums: Sequence[int], den: int) -> ExtElement:
    """nums / den (den >= 1) in normal form: over Q divided by one
    gcd(den, *nums), over F_p (den = 1) reduced mod p."""
    p = ext.base.p
    if p is not None:
        return ExtElement(ext, tuple([v % p for v in nums]), 1)
    g = math.gcd(den, *nums)
    if g == 1:
        return ExtElement(ext, tuple(nums), den)
    return ExtElement(ext, tuple(v // g for v in nums), den // g)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def make_extension(base: BaseField, f: Sequence, g: Sequence,
                   character_convention: Optional[int] = None) -> CyclicExtension:
    """Validated cyclic extension; raises NotIrreducible / NotGalois / WrongOrder."""
    return CyclicExtension(base, f, g, character_convention)


def make_shanks_cubic(t: int) -> CyclicExtension:
    """Shanks simplest cubic x^3 - t x^2 - (t+3) x - 1 over Q, with the
    generator sigma(theta) = -1/(1+theta) = theta^2 - (t+1) theta - 2: the
    product (theta^2 - (t+1) theta - 2)(1 + theta) is f(theta) - 1 = -1."""
    f = (Fraction(-1), Fraction(-(t + 3)), Fraction(-t), Fraction(1))
    g = (Fraction(-2), Fraction(-(t + 1)), Fraction(1))
    return make_extension(QQ, f, g)


def frobenius_extension(p: int, degree: int) -> CyclicExtension:
    """F_{p^degree}/F_p with the first irreducible monic f in odometer order
    (constant coefficient varying fastest) and the Frobenius generator x^p."""
    k = GF(p)
    if degree < 2:
        raise InputError("extension degree must be >= 2")
    for rev in itertools.product(range(p), repeat=degree):
        tail = rev[::-1]  # constant coefficient varies fastest
        f = poly_trim(k, list(tail) + [1])
        if len(f) != degree + 1:
            continue
        if poly_is_irreducible_fp(k, f):
            g = poly_powmod(k, _X(k), p, f)
            return make_extension(k, f, g)
    raise SearchExhausted("no irreducible polynomial found")  # unreachable


def galois_apply(L: CyclicExtension, x: ExtElement, j: int) -> ExtElement:
    """sigma^j applied to x; sigma^0 is the identity."""
    j %= L.degree
    if j == 0 or not x:
        return x
    cols, d = L._int_galois_table[j]
    acc = [0] * L.degree
    for c, col in zip(x.nums, cols):
        if c:
            for t, v in col:
                acc[t] += c * v
    return _reduced(L, acc, x.den * d)


def conjugates(L: CyclicExtension, x: ExtElement) -> list[ExtElement]:
    return [galois_apply(L, x, j) for j in range(L.degree)]


def norm(L: CyclicExtension, x: ExtElement) -> Scalar:
    out = L.one()
    for c in conjugates(L, x):
        out = out * c
    return out.base_value()


def row_reduce(field: Union[BaseField, CyclicExtension], rows: Iterable[Iterable]
               ) -> tuple[list[dict], list[int]]:
    """Gauss-Jordan elimination over `field`, a BaseField or a CyclicExtension,
    on sparse rows.

    Each row is given as (column, entry) pairs in any order; zero entries
    are dropped, so a dense row is passed as `enumerate(row)`.  Returns the
    nonzero rows of the reduced row echelon form in pivot order, each a
    dict from column to nonzero entry, and their pivot columns.  The rows
    are inserted, sparsest first, into the echelon basis of `rank`
    (`_echelon`); then back-substitution walks the basis from the highest
    pivot down and clears each higher pivot column from the row by the
    row pivoting there, already reduced, with the same `_clear`.  The
    reduced row echelon form is unique, so the insertion order changes no
    entry; sparsest first keeps the basis rows short.  Zero tests use
    truthiness, which is false for Fraction(0), the int 0 and a zero
    ExtElement.

    Over Q the elimination runs in primitive integer rows and no pivot is
    inverted (`_clear`).  Each reduced row is then a nonzero multiple of
    its row in the reduced form, and dividing it once by its pivot entry
    gives that row, as a dict of Fraction; those divisions build the only
    Fractions of the call.
    """
    p, over_q, zero = _kernel_field(field)
    basis = _echelon(field, sorted(([(j, x) for j, x in r if x] for r in rows),
                                   key=len))
    for c in sorted(basis, reverse=True):
        row = basis[c]
        for j in [j for j in row if j > c and j in basis]:
            row = _clear(row, j, basis[j], p, over_q, zero)
        basis[c] = row
    pivots = sorted(basis)
    if over_q:
        return [{j: Fraction(x, basis[c][c]) for j, x in basis[c].items()}
                for c in pivots], pivots
    return [basis[c] for c in pivots], pivots


def rank(field: Union[BaseField, CyclicExtension], rows: Iterable[Iterable],
         ceiling: Optional[int] = None) -> int:
    """The number of pivots `row_reduce(field, rows)` returns, or `ceiling`
    when that is smaller: the size of the echelon basis of the rows
    (`_echelon`), with no row cleared above its pivot and no Fraction
    built.  Once the basis reaches `ceiling` no further row is read, so a
    generator of rows is read only that far."""
    if ceiling is not None and ceiling <= 0:
        return 0
    return len(_echelon(field, rows, ceiling))


def _echelon(field, rows: Iterable[Iterable], ceiling: Optional[int] = None
             ) -> dict[int, dict]:
    """An echelon basis of the rows, keyed by pivot column, the lowest
    column of each basis row.

    The rows, given as in `row_reduce`, are inserted one at a time: a row
    is cleared by `_clear` at its lowest column while a basis row pivots
    there, and then joins the basis (`_pivot_row`) or is dependent.  Once
    the basis holds `ceiling` rows no further row is read.  Over Q basis
    rows stay primitive integer rows."""
    p, over_q, zero = _kernel_field(field)
    basis: dict[int, dict] = {}
    for pairs in rows:
        row = {j: x for j, x in pairs if x}
        if over_q and row:
            row = _primitive(row)
        while row:
            c = min(row)
            prow = basis.get(c)
            if prow is None:
                basis[c] = _pivot_row(field, p, over_q, row, c)
                break
            row = _clear(row, c, prow, p, over_q, zero)
        if len(basis) == ceiling:
            break
    return basis


def _kernel_field(field) -> tuple[Optional[int], bool, object]:
    """p (None over Q and over L), whether the field is Q, and the zero the
    row update subtracts from: the int 0 over k, whose rows hold ints
    (integer numerators over Q, residues over F_p), and L's zero."""
    if isinstance(field, BaseField):
        return field.p, field.p is None, 0
    return None, False, field.zero()


def _pivot_row(field, p: Optional[int], over_q: bool, row: dict, c: int) -> dict:
    """A row as the kernel keeps it once it pivots at column c: divided by
    its entry there over F_p and L, and as it is, a primitive integer row,
    over Q."""
    if over_q:
        return row
    inv = field.inv(row[c])
    return {j: (x * inv) % p if p else x * inv for j, x in row.items()}


def _clear(row: dict, c: int, prow: dict, p: Optional[int], over_q: bool,
           zero) -> dict:
    """The kernel's one row update: `row` with column c cleared by the
    pivot row `prow`.  Over F_p and L prow[c] is 1 and the row becomes
    row - row[c] * prow.  Over Q both are primitive integer rows: the row
    becomes pv * row - row[c] * prow, both factors first divided by their
    gcd, and is then divided by the gcd of its entries."""
    f = row[c]
    if over_q:
        pv = prow[c]
        g = math.gcd(pv, f)
        s, f = pv // g, f // g
        if s != 1:
            row = {j: x * s for j, x in row.items()}
    for j, y in prow.items():
        x = row.get(j)
        v = (zero if x is None else x) - f * y
        if p:
            v %= p
        if v:
            row[j] = v
        elif x is not None:
            del row[j]
    if over_q:
        g = math.gcd(*row.values())
        if g > 1:
            row = {j: x // g for j, x in row.items()}
    return row


def _primitive(row: dict) -> dict:
    """A row of Fraction or int entries scaled to coprime integers: times
    the lcm of its denominators, divided by the gcd of the numerators."""
    d = math.lcm(*(x.denominator for x in row.values()))
    row = {j: x.numerator * (d // x.denominator) for j, x in row.items()}
    g = math.gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


@dataclass(frozen=True)
class NormalBasis:
    """A full Galois orbit l_1, ..., l_{n+1} with sigma(l_i) = l_{i+1},
    linearly independent over k and of nonzero trace."""

    elements: tuple[ExtElement, ...]
    trace_value: Scalar

    def __post_init__(self):
        L = self.elements[0].ext
        assert len(self.elements) == L.degree
        for i in range(L.degree):
            nxt = self.elements[(i + 1) % L.degree]
            if galois_apply(L, self.elements[i], 1) != nxt:
                raise InputError("orbit is not sigma-cyclic")
        coords = [enumerate(e.coeffs) for e in self.elements]
        if rank(L.base, coords) < L.degree:
            raise InputError("orbit is linearly dependent")
        if L.base.is_zero(self.trace_value):
            raise InputError("orbit has zero trace")

    @property
    def extension(self) -> CyclicExtension:
        return self.elements[0].ext


# candidates find_normal_basis tries before it gives up
_NORMAL_BASIS_BOUND = 100_000


def find_normal_basis(L: CyclicExtension, seed: Optional[ExtElement] = None
                      ) -> NormalBasis:
    """First normal-basis generator in the documented enumeration seed,
    seed+1, seed+theta, ... (deltas from CyclicExtension.enumerate_elements).

    The seed defaults to theta.  Every model is built on this default basis
    (`twisting.surface_model`), and a Picard generator is written in the
    coordinates of its model's basis, so callers pass no seed."""
    if seed is None:
        seed = L.theta()
    tried = 0
    for delta in L.enumerate_elements():
        orbit = conjugates(L, seed + delta)
        try:  # NormalBasis tests the orbit: independent, of nonzero trace
            return NormalBasis(tuple(orbit), sum(orbit, L.zero()).base_value())
        except InputError:
            pass
        tried += 1
        if tried >= _NORMAL_BASIS_BOUND:
            raise SearchExhausted(
                f"no normal basis within {_NORMAL_BASIS_BOUND} candidates")
    raise SearchExhausted("element enumeration exhausted")


def _nth_root_fraction(r: Fraction, n: int) -> Optional[Fraction]:
    if r < 0:
        if n % 2 == 0:
            return None
        s = _nth_root_fraction(-r, n)
        return None if s is None else -s
    num = _int_nth_root(r.numerator, n)
    den = _int_nth_root(r.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_nth_root(x: int, n: int) -> Optional[int]:
    """The integer r >= 0 with r^n = x, if there is one (x >= 0)."""
    if x < 2:
        return x
    # Newton's iteration on integers from above converges to floor(x^(1/n))
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    return r if r ** n == x else None


@dataclass
class WitnessResult:
    """Outcome of a norm-witness search; `none_found` over Q is not a proof."""

    status: str  # "witness" | "none_found"
    witness: Optional[ExtElement] = None
    tried: int = 0
    bound: int = 0


def norm_witness(L: CyclicExtension, a, bound: int = 1000) -> WitnessResult:
    """Search x with norm(x) = a.

    Over a prime field the norm is surjective, so a witness is always found
    by enumeration.  Over Q the search runs through the first `bound`
    candidates of the documented enumeration, also accepting x whose norm
    differs from a by an exact (n+1)-th power of a rational (the witness is
    then x rescaled); `none_found` only means the bound was exhausted.
    """
    a = L.base.coerce(a)
    if L.base.is_zero(a):
        raise ZeroA("a must be nonzero")
    if L.base.p is not None:
        for tried, x in enumerate(L.enumerate_elements(), start=1):
            if x.is_zero():
                continue
            if norm(L, x) == a:
                return WitnessResult("witness", x, tried, bound)
        raise SearchExhausted("finite-field norm search failed")  # unreachable
    n1 = L.degree
    tried = 0
    for x in L.enumerate_elements():
        if tried >= bound:
            break
        if x.is_zero():
            tried += 1
            continue
        tried += 1
        nx = norm(L, x)
        if nx == a:
            return WitnessResult("witness", x, tried, bound)
        s = _nth_root_fraction(nx / a, n1)
        if s is not None and s != 0:
            y = x / L.from_base(s)
            assert norm(L, y) == a
            return WitnessResult("witness", y, tried, bound)
    return WitnessResult("none_found", None, tried, bound)


# ---------------------------------------------------------------------------
# plain-text formatting (the parsing side lives in severi.grammar)
# ---------------------------------------------------------------------------

def format_scalar(x: Scalar) -> str:
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


def signed_scalar(x: Scalar) -> tuple[str, bool]:
    """The text of |x| and whether x is negative (an F_p scalar never is)."""
    neg = isinstance(x, Fraction) and x < 0
    return format_scalar(-x if neg else x), neg


def format_terms(terms: Iterable[tuple[str, bool, str]]) -> str:
    """Join (coefficient text, negated, monomial) terms into a signed sum.

    A coefficient of 1 before a monomial is dropped, and one with a "/"
    that is not already parenthesized gets parentheses; the empty sum is 0.
    """
    out = []
    for body, neg, mono in terms:
        if mono:
            if body == "1":
                body = mono
            else:
                if "/" in body and not body.startswith("("):
                    body = f"({body})"
                body = f"{body}*{mono}"
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out) if out else "0"


def _power(var: str, i: int) -> str:
    return "" if i == 0 else (var if i == 1 else f"{var}^{i}")


def format_univariate(f: Sequence[Scalar]) -> str:
    return format_terms((*signed_scalar(f[i]), _power("x", i))
                        for i in range(len(f) - 1, -1, -1) if f[i])


def format_element(x: ExtElement) -> str:
    return format_terms((*signed_scalar(c), _power("t", i))
                        for i, c in enumerate(x.coeffs) if c)


# ---------------------------------------------------------------------------
# JSON scalars and extensions
# ---------------------------------------------------------------------------

def scalar_to_json(x: Scalar):
    """Fractions as canonical strings, prime-field scalars as ints."""
    if isinstance(x, Fraction):
        return format_scalar(x)
    return int(x)


def element_to_json(x: ExtElement) -> list:
    """The coordinates as scalar_to_json writes them, read from the integer
    form: over Q each nums[i] / den is reduced by one gcd, with no Fraction
    built; over F_p the residues."""
    if x.ext.base.p is not None:
        return list(x.nums)
    d = x.den
    out = []
    for v in x.nums:
        g = math.gcd(v, d)
        out.append(str(v // g) if g == d else f"{v // g}/{d // g}")
    return out


def extension_to_json(L: CyclicExtension) -> dict:
    return {
        "p": L.base.p,
        "f": [scalar_to_json(c) for c in L.f],
        "g": [scalar_to_json(c) for c in L.g],
        "character_convention": L.character_convention,
    }
