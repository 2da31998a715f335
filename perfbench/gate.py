"""Output gate: decides whether one job's emission is correct.

Every job is checked for its exit code, its check lines and the shape of
its output.  At the default seed each emission's sha256 must also equal the
digest recorded in `digests.json`, since emissions are byte-deterministic.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb
from pathlib import Path
from typing import Optional

DIGESTS = Path(__file__).with_name("digests.json")
DEFAULT_SEED = 0
SUITES = ("cocycle", "split", "paper-eqs", "picard", "counts", "algebra",
          "triviality", "appendix")


def expected_equations(n: int) -> int:
    """Quadrics cutting out the degree-(n+1) Veronese image of P^n in
    P^{m-1}, m = C(2n+1, n): C(m+1, 2) - C(3n+2, n)."""
    m = comb(2 * n + 1, n)
    return comb(m + 1, 2) - comb(3 * n + 2, n)


def _check_quadrics(polys: list, m: int, n: int, in_base: bool) -> Optional[str]:
    if len(polys) != expected_equations(n):
        return f"{len(polys)} equations, expected {expected_equations(n)}"
    for idx, poly in enumerate(polys):
        if not poly:
            return f"equation {idx} is zero"
        for exps, coords in poly:
            if len(exps) != m or sum(exps) != 2 or min(exps) < 0:
                return f"equation {idx} has a term {exps} that is not a degree-2 monomial in {m} variables"
            if len(coords) != n + 1:
                return f"equation {idx} has a coefficient with {len(coords)} coordinates"
            if in_base and any(c not in (0, "0") for c in coords[1:]):
                return f"equation {idx} has a coefficient outside the base field"
    return None


def _check_report(report: dict) -> Optional[str]:
    checks = report.get("checks") or []
    if not checks:
        return "no check lines"
    bad = [c["name"] for c in checks if c["status"] not in ("pass", "flagged")]
    if bad:
        return "failed checks: " + ", ".join(bad)
    return None


def check_surface(obj: dict, p: Optional[int]) -> Optional[str]:
    if obj.get("kind") != "surface_model":
        return "not a surface_model emission"
    n, m = obj["n"], obj["m"]
    if m != comb(2 * n + 1, n):
        return f"m = {m} for n = {n}"
    if obj["field"]["p"] != p:
        return f"field characteristic {obj['field']['p']}, expected {p}"
    err = _check_quadrics(obj["equations_over_k"], m, n, in_base=True)
    if err:
        return err
    if "report" not in obj:
        return "no check report"
    return _check_report(obj["report"])


def check_verify(obj: dict, suites: tuple[str, ...]) -> Optional[str]:
    """Check lines of a `verify` emission: none failed, each of `suites`
    has at least one, and no other suite ran."""
    err = _check_report(obj)
    if err:
        return err
    ran = {c["name"].split(":", 1)[0] for c in obj["checks"]}
    missing = [s for s in suites if s not in ran]
    if missing:
        return "suites without checks: " + ", ".join(missing)
    extra = sorted(ran - set(suites))
    if extra:
        return "checks of suites not asked for: " + ", ".join(extra)
    return None


def format_quadric(F) -> str:
    """One line per quadric of the twist emission: space-separated terms
    `i.j:c0,c1,...` for the monomial w_i w_j with coefficient coordinates c."""
    return " ".join(
        ".".join(str(i) for i, k in enumerate(e) for _ in range(k))
        + ":" + ",".join(map(str, coeff.coeffs))
        for e, coeff in F.terms)


def _parse_quadric(line: str, m: int, n: int) -> list:
    terms = []
    for tok in line.split():
        mono, _, coords = tok.partition(":")
        idx = tuple(int(v) for v in mono.split("."))
        cs = [int(v) for v in coords.split(",")]
        if len(idx) != 2 or not all(0 <= i < m for i in idx):
            raise ValueError(f"term {tok!r} is not a degree-2 monomial in {m} variables")
        if len(cs) != n + 1:
            raise ValueError(f"term {tok!r} has {len(cs)} coordinates")
        terms.append((idx, cs))
    if not terms:
        raise ValueError("zero quadric")
    return terms


def check_twist(data: bytes, p: int, a: int, reference: dict) -> Optional[str]:
    """Shape of the twisted family; the splitting matrix M is invertible and
    splits the cocycle, xi(sigma) sigma(M) = M with sigma the Frobenius; and
    every twisted quadric equals (Q o M) at a seeded point w, i.e. its value
    at w is Q(M w).  `reference` holds what the emission is checked against,
    rebuilt from (p, a): the field, the untwisted generators Q in the line
    format, and the entries of xi(sigma), row by row.  The point has no zero
    coordinate, so a change to any single coefficient is caught."""
    n, m = 3, comb(7, 3)
    head, _, body = data.decode("utf-8").partition("\n")
    obj = json.loads(head)
    if (obj.get("p"), obj.get("a")) != (p, a):
        return f"emission is for p={obj.get('p')}, a={obj.get('a')}"
    if obj["field"] != reference["field"]:
        return "emission is over another field"
    lines = body.splitlines()
    if len(lines) != expected_equations(n):
        return f"{len(lines)} twisted quadrics, expected {expected_equations(n)}"
    try:
        quadrics = [_parse_quadric(line, m, n) for line in lines]
    except ValueError as e:
        return str(e)
    M = obj["splitting_matrix"]
    if (M["rows"], M["cols"]) != (m, m):
        return "splitting matrix has the wrong shape"
    mul = _ext_mul([int(c) for c in obj["field"]["f"]], p)
    rows = [[[int(c) for c in M["entries"][i * m + j]] for j in range(m)]
            for i in range(m)]
    if not _invertible(rows, mul, p, n + 1):
        return "splitting matrix is singular"
    if not _splits(reference["xi"], rows, mul, p, n + 1):
        return "splitting matrix does not split the cocycle"

    rng = random.Random(f"twist-gate:{p}:{a}")
    w = [rng.randrange(1, p) for _ in range(m)]
    Mw = [[sum(w[j] * row[j][t] for j in range(m)) % p for t in range(n + 1)]
          for row in rows]
    for idx, (twisted, line) in enumerate(zip(quadrics, reference["quadrics"])):
        lhs = [0] * (n + 1)
        for (i, j), coords in twisted:
            wij = w[i] * w[j]
            lhs = [u + c * wij for u, c in zip(lhs, coords)]
        rhs = [0] * (n + 1)
        for (i, j), coords in _parse_quadric(line, m, n):
            term = mul(mul(coords, Mw[i]), Mw[j])
            rhs = [u + v for u, v in zip(rhs, term)]
        if [u % p for u in lhs] != [u % p for u in rhs]:
            return f"twisted quadric {idx} differs from Q(M w) at a test point"
    return None


def _ext_mul(f: list, p: int):
    """Multiplication in F_p[x]/(f) on coordinate lists (f monic, low first)."""
    d = len(f) - 1

    def mul(x, y):
        prod = [0] * (2 * d - 1)
        for i, u in enumerate(x):
            if u:
                for j, v in enumerate(y):
                    prod[i + j] = (prod[i + j] + u * v) % p
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                for i in range(d + 1):
                    prod[k - d + i] = (prod[k - d + i] - c * f[i]) % p
        return prod[:d]
    return mul


def _ext_pow(x: list, e: int, mul, d: int) -> list:
    out = [1] + [0] * (d - 1)
    while e:
        if e & 1:
            out = mul(out, x)
        x = mul(x, x)
        e >>= 1
    return out


def _invertible(rows: list, mul, p: int, d: int) -> bool:
    """Gaussian elimination over F_{p^d}; inverses as x^(p^d - 2)."""
    A = [list(r) for r in rows]
    size = len(A)
    for col in range(size):
        piv = next((r for r in range(col, size) if any(A[r][col])), None)
        if piv is None:
            return False
        A[col], A[piv] = A[piv], A[col]
        inv = _ext_pow(A[col][col], p ** d - 2, mul, d)
        for r in range(col + 1, size):
            if any(A[r][col]):
                c = mul(A[r][col], inv)
                A[r] = [[(u - v) % p for u, v in zip(x, mul(c, y))]
                        for x, y in zip(A[r], A[col])]
    return True


def _splits(xi: list, rows: list, mul, p: int, d: int) -> bool:
    """xi(sigma) sigma(M) == M, sigma(x) = x^p applied entrywise."""
    size = len(rows)
    g = _ext_pow([0, 1] + [0] * (d - 2), p, mul, d)
    g_pows = [_ext_pow(g, i, mul, d) for i in range(d)]

    def frob(x):
        return [sum(c * gp[t] for c, gp in zip(x, g_pows)) % p for t in range(d)]

    sigma_m = [[frob(x) for x in row] for row in rows]
    for i in range(size):
        nonzero = [(k, [int(c) for c in xi[i * size + k]]) for k in range(size)
                   if any(int(c) for c in xi[i * size + k])]
        for j in range(size):
            acc = [0] * d
            for k, x in nonzero:
                acc = [u + v for u, v in zip(acc, mul(x, sigma_m[k][j]))]
            if [u % p for u in acc] != rows[i][j]:
                return False
    return True


def load_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digest(workload: str, key: str, data: bytes,
                 recorded: dict) -> Optional[str]:
    want = recorded.get(workload, {}).get(key)
    if want is None:
        return f"no recorded digest for {key!r}"
    if digest(data) != want:
        return f"emission digest differs from the one recorded for {key!r}"
    return None
