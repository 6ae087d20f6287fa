"""Exact sparse Laurent-polynomial arithmetic in two variables.

Polynomials are finite maps from integer exponent vectors (u1, u2) to
nonzero coefficients over a declared domain: the integers, the rationals,
or a prime field F_p. All arithmetic is exact; there is no floating point
anywhere. Values are immutable after construction and all operations are
pure functions, so everything here is safe to share between threads.

The module also provides the geometric helpers built on top of the raw
arithmetic: Newton polygons as convex hulls, parallel-edge direction
detection, per-direction line-polynomial content (``split_direction``), and
the resultant that eliminates one variable.

Every dense entry is an int: over Z and F_p as it is, over Q after one
``_cleared`` of the whole polynomial, which multiplies it by d, the least
integer that makes its coefficients integral. By Gauss's lemma d f has the
content of f and d times its cofactor, and Res(d f, e g) = d^m e^n Res(f, g)
for f of degree n and g of degree m, so the kernels compute over Z and F_p
only. Every gcd of the content is taken by one function, ``_dense_gcd``:
over Z the primitive polynomial remainder sequence (pseudo-remainder, then
divide by the content) on the primitive parts of its arguments, over F_p
Euclid's algorithm on ints mod p; the content is monic over F_p and has a
positive lead over Z and Q. Resultants run the subresultant remainder
sequence in the eliminated variable on coefficients that are dense lists in
the kept variable, shifted to nonnegative exponents and shifted back at the
end; every division is exact in Z[y] or F_p[y].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainMismatch, InputTooLarge, ZeroPolynomial

ExponentVector = tuple[int, int]


# The first 13 primes as Miller-Rabin bases decide primality exactly below
# _PRIME_TEST_BOUND, the least strong pseudoprime to all of them (Sorenson
# and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _PRIME_TEST_BOUND."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Domain:
    """Coefficient domain: ``Z`` (integers), ``Q`` (rationals) or ``Fp``."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is not None and self.p >= _PRIME_TEST_BOUND:
                raise ValueError(f"modulus {self.p} is beyond the exact primality test")
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"modulus {self.p!r} is not prime")
        elif self.p is not None:
            raise ValueError("modulus only makes sense for a prime field")

    @property
    def name(self) -> str:
        return f"F{self.p}" if self.kind == "Fp" else self.kind

    def coerce(self, value):
        """An int or Fraction as the domain's canonical value; else TypeError."""
        if type(value) is int:
            if self.kind == "Z":
                return value
            if self.kind == "Q":
                return Fraction(value)
            return value % self.p
        if isinstance(value, Fraction):
            if self.kind == "Q":
                return Fraction(value)
            if self.kind == "Z":
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an integer")
                return int(value)
            if value.denominator % self.p == 0:
                raise ValueError(f"{value} has no image mod {self.p}")
            return (value.numerator * pow(value.denominator, -1, self.p)) % self.p
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def format_coeff(self, a) -> str:
        if self.kind == "Q" and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a))

    def parse_coeff(self, s: str):
        s = s.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            return self.coerce(Fraction(int(num), int(den)))
        return self.coerce(int(s))


ZZ = Domain("Z")
QQ = Domain("Q")


def GF(p: int) -> Domain:
    return Domain("Fp", p)


def domain_from_name(name: str) -> Domain:
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return GF(int(name[1:]))
    raise ValueError(f"unknown domain name {name!r}")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class LaurentPoly:
    """A sparse two-variable Laurent polynomial over an exact domain.

    ``terms`` maps exponent vectors to nonzero coefficients; zero terms are
    dropped on construction. Instances are frozen and nothing mutates
    ``terms`` once built; being a dict, it leaves polynomials unhashable.
    """

    domain: Domain
    terms: dict[ExponentVector, object]

    def __init__(self, domain: Domain, terms):
        object.__setattr__(self, "domain", domain)
        clean = {}
        for exp, coeff in dict(terms).items():
            u = (int(exp[0]), int(exp[1]))
            c = domain.coerce(coeff)
            if c != 0:
                clean[u] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, domain: Domain, terms: dict) -> "LaurentPoly":
        """Wrap ``terms`` without checks: the keys must be int pairs and the
        values canonical (int over Z, Fraction over Q, [0, p) over F_p)
        and nonzero. The ring operations below build their results here."""
        self = object.__new__(cls)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, domain: Domain) -> "LaurentPoly":
        return cls(domain, {})

    @classmethod
    def one(cls, domain: Domain) -> "LaurentPoly":
        return cls(domain, {(0, 0): 1})

    @classmethod
    def constant(cls, domain: Domain, value) -> "LaurentPoly":
        return cls(domain, {(0, 0): value})

    @classmethod
    def monomial(cls, domain: Domain, exp: ExponentVector, coeff=1) -> "LaurentPoly":
        return cls(domain, {tuple(exp): coeff})

    @classmethod
    def difference_binomial(cls, domain: Domain, t: ExponentVector) -> "LaurentPoly":
        """x^t - 1, the annihilator of exactly the t-periodic configurations."""
        if tuple(t) == (0, 0):
            raise ValueError("difference binomial needs a nonzero vector")
        return cls(domain, {tuple(t): 1, (0, 0): -1})

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def min_exponents(self) -> ExponentVector:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no support")
        return (
            min(e[0] for e in self.terms),
            min(e[1] for e in self.terms),
        )

    def shift(self, t: ExponentVector) -> "LaurentPoly":
        """Multiply by the monomial x^t (translate the support)."""
        dx, dy = t
        return LaurentPoly._trusted(
            self.domain, {(a + dx, b + dy): c for (a, b), c in self.terms.items()}
        )

    # -- ring operations ----------------------------------------------

    def _check_domain(self, other: "LaurentPoly"):
        if self.domain != other.domain:
            raise DomainMismatch(f"{self.domain.name} vs {other.domain.name}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_domain(other)
        out = dict(self.terms)
        p = self.domain.p
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if p is not None:
                s %= p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._trusted(self.domain, out)

    def __neg__(self) -> "LaurentPoly":
        p = self.domain.p
        if p is None:
            return LaurentPoly._trusted(self.domain, {e: -c for e, c in self.terms.items()})
        return LaurentPoly._trusted(self.domain, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_domain(other)
        out = {}
        get = out.get
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                out[e] = get(e, 0) + c1 * c2
        p = self.domain.p
        if p is None:
            return LaurentPoly._trusted(self.domain, {e: c for e, c in out.items() if c})
        return LaurentPoly._trusted(self.domain, {e: r for e, c in out.items() if (r := c % p)})

    def __repr__(self) -> str:
        return f"LaurentPoly({self.domain.name}, {self})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            mono = []
            if e[0] != 0:
                mono.append("x" if e[0] == 1 else f"x^{e[0]}")
            if e[1] != 0:
                mono.append("y" if e[1] == 1 else f"y^{e[1]}")
            negative = c < 0
            mag = -c if negative else c
            cstr = self.domain.format_coeff(mag)
            if mono and cstr == "1":
                body = "*".join(mono)
            elif mono:
                body = cstr + "*" + "*".join(mono)
            else:
                body = cstr
            if not parts:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        return " ".join(parts)


# -- Newton polygon -----------------------------------------------------


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[ExponentVector]:
    """Extreme points of a finite set, counterclockwise from the least, no
    three collinear. A vertex is the least or the greatest point of its
    row, so the monotone chain runs over at most two points per row."""
    lo, hi = {}, {}
    for p in points:
        y = p[1]
        q = lo.get(y)
        if q is None:
            lo[y] = hi[y] = p
        elif p < q:
            lo[y] = p
        elif p > hi[y]:
            hi[y] = p
    pts = sorted({*lo.values(), *hi.values()})
    hull = []
    for seq in (pts, pts[::-1]):  # the lower chain, then the upper
        chain = []
        for p in seq:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (p[1] - oy) > (ay - oy) * (p[0] - ox):
                    break  # a left turn at a
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return hull or pts  # empty for one point; collinear points leave two


def normalize_direction(v: ExponentVector) -> ExponentVector:
    """Primitive direction with a > 0, or a = 0 and b > 0."""
    a, b = v
    if a == 0 and b == 0:
        raise ValueError("zero vector has no direction")
    g = math.gcd(abs(a), abs(b))
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return (a, b)


def _half_plane(bound: int) -> list[ExponentVector]:
    """Vectors with a > 0, or a = 0 < b, of max-norm <= bound, by (max-norm, a, b):
    ring r is (0, r), then (a, -r), (a, r) for 0 < a < r, then (r, b) for |b| <= r."""
    out = []
    for r in range(1, bound + 1):
        out += [(0, r), *((a, s) for a in range(1, r) for s in (-r, r))]
        out += [(r, b) for b in range(-r, r + 1)]
    return out


def line_direction_candidates(f: LaurentPoly) -> set[ExponentVector]:
    """Directions that could carry a line-polynomial factor of f.

    Factor polygons Minkowski-sum to the product polygon, and a segment
    summand forces a pair of parallel edges, so every direction of an
    actual line-polynomial factor shows up on the hull of f's support.
    """
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no Newton polygon")
    hull = convex_hull(f.terms)
    counts: dict[ExponentVector, int] = {}
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if a != b:
            d = normalize_direction((b[0] - a[0], b[1] - a[1]))
            counts[d] = counts.get(d, 0) + 1
    return {d for d, n in counts.items() if n >= 2}


# -- univariate helpers (dense, ascending coefficients) -----------------
# A dense list holds the coefficients of one univariate polynomial, constant
# term first, with no trailing zeros; [] is the zero polynomial.

# Dense forms are sized by exponent spans, not by term counts, so one term
# with a large exponent could ask for any amount of memory. split_direction
# and _coefficients_in_var refuse to lay out an input in more dense entries
# than this (32 MB of list slots).
MAX_DENSE_ENTRIES = 1 << 22


def _dense_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _cleared(f: LaurentPoly) -> tuple[dict[ExponentVector, int], int]:
    """The terms of d f, with int coefficients, and d, the least positive
    integer that makes them integral: f's own terms and 1 over Z and F_p."""
    if f.domain.kind != "Q":
        return f.terms, 1
    d = math.lcm(*(c.denominator for c in f.terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in f.terms.items()}, d


def _primitive(c: list[int]) -> list[int]:
    """Divide an integer list by the gcd of its entries ([] stays [])."""
    g = math.gcd(*c)
    return c if g == 1 else [v // g for v in c]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^k * a mod b over Z, k the number of division steps."""
    a = a[:]
    lb = b[-1]
    db = len(b) - 1
    while len(a) > db:
        la = a.pop()
        s = len(a) - db
        for i in range(s):
            a[i] *= lb
        for i in range(db):
            a[s + i] = lb * a[s + i] - la * b[i]
        _dense_trim(a)
    return a


def _dense_gcd(a: list[int], b: list[int], p: int | None = None) -> list[int]:
    """A gcd, not normalized: by Euclid's algorithm over F_p (p given), by the primitive
    remainder sequence (Collins 1967) on the primitive parts of a and b (p None)."""
    if p is None:
        a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _dense_divmod(a, b, p)[1] if p is not None else _primitive(_pseudo_rem(a, b))
    return a


def _dense_mul_sub(a: list, b: list, c: list, d: list, p: int | None) -> list:
    """a*b - c*d, reduced mod p unless p is None."""
    out = [0] * (max(len(a) + len(b), len(c) + len(d), 1) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for i, x in enumerate(c):
        if x:
            for j, y in enumerate(d):
                out[i + j] -= x * y
    if p is not None:
        out = [v % p for v in out]
    return _dense_trim(out)


def _dense_divmod(a: list[int], b: list[int], p: int | None) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p (p given) or Z (p None).
    Over Z the division stops at the first leading coefficient that b's
    lead does not divide and returns the partial remainder, so a nonzero
    remainder means b does not divide a in Z[x]."""
    a = a[:]
    db = len(b) - 1
    lead = b[-1]
    inv = pow(lead, -1, p) if p is not None else None
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = a.pop()
        if not c:
            continue
        if p is None:
            c, r = divmod(c, lead)
            if r:
                a.append(c * lead + r)
                return q, a
            for i in range(db):
                a[k + i] -= c * b[i]
        else:
            c = c * inv % p
            for i in range(db):
                a[k + i] = (a[k + i] - c * b[i]) % p
        q[k] = c
    return q, _dense_trim(a)


# -- direction content ---------------------------------------------------


def line_direction_of(f: LaurentPoly) -> ExponentVector | None:
    """Direction of f if f is a line polynomial (>= 2 terms on a line
    through the origin), else None."""
    if f.num_terms < 2:
        return None
    # two terms have a nonzero exponent; u is primitive, so an exponent
    # parallel to u is an integer multiple of it
    u = normalize_direction(next(e for e in f.terms if e != (0, 0)))
    return None if any(e[0] * u[1] != e[1] * u[0] for e in f.terms) else u


def split_direction(f: LaurentPoly, u: ExponentVector) -> tuple[LaurentPoly, LaurentPoly]:
    """Content of f in direction u, the product (with multiplicity) of all
    line-polynomial factors of f in direction u, normalized (the constant 1
    when there are none), and the cofactor f / content, in one pass over
    the frame where u is (1, 0).

    There the line factors in direction u are the common factors of the
    columns (terms sharing one transverse exponent, dense in x). The gcd of
    the two extreme columns, the Newton polygon's edge polynomials, starts
    the content; a direction without a factor usually stops there at a
    constant. The candidate then divides every column; a column that leaves
    a remainder replaces it by their gcd and the division starts over. A
    candidate that divides every column is the gcd of all of them, and the
    quotient columns, mapped back, are the cofactor. Over Q the columns are
    those of d f, f cleared of denominators: d f has the content of f, and
    its quotient columns are d times the cofactor.
    """
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no content")
    if math.gcd(*u) != 1:
        raise ValueError(f"{u} is not a primitive direction")
    dom = f.domain
    p = dom.p
    # a * u0 + b * u1 = 1, a the inverse of u0 mod |u1|: a term's column is
    # u0 * y - u1 * x, its position along u is a * x + b * y, and (i, t) maps
    # back to i * u + t * (-b, a); another Bezout pair shifts each column's
    # positions by a constant, which the column's least position absorbs
    u0, u1 = u
    a = pow(u0, -1, abs(u1)) if u1 else u0
    b = (1 - a * u0) // u1 if u1 else 0
    cleared, d = _cleared(f)
    columns: dict[int, dict[int, int]] = {}
    for (x, y), v in cleared.items():
        columns.setdefault(u0 * y - u1 * x, {})[a * x + b * y] = v
    dense: dict[int, tuple[int, list[int]]] = {}
    entries = 0
    for t, col in columns.items():
        lo = min(col)
        span = max(col) - lo + 1
        entries += span
        InputTooLarge.check(entries, MAX_DENSE_ENTRIES, "dense entries")
        row = [0] * span
        for e1, v in col.items():
            row[e1 - lo] = v
        dense[t] = (lo, row)

    def normalized(g: list) -> list:
        """Monic over F_p, positive lead over Z and Q."""
        if p is not None:
            inv = pow(g[-1], -1, p)
            return [v * inv % p for v in g]
        return [-v for v in g] if g[-1] < 0 else g

    content = _dense_gcd(dense[min(dense)][1], dense[max(dense)][1], p)
    quotients: dict[int, tuple[int, list[int]]] = {}
    while len(content) > 1:
        content = normalized(content)
        for t, (lo, row) in dense.items():
            q, r = _dense_divmod(row, content, p)
            if r:
                content = _dense_gcd(content, row, p)
                break
            quotients[t] = (lo, q)
        else:
            break
    if len(content) == 1:
        return LaurentPoly.one(dom), f
    terms = {
        (u0 * i - b * t, u1 * i + a * t): v
        for t, (lo, q) in quotients.items()
        for i, v in enumerate(q, lo)
        if v
    }
    if dom.kind == "Q":
        terms = {e: Fraction(v, d) for e, v in terms.items()}
        content = [Fraction(v) for v in content]
    cofactor = LaurentPoly._trusted(dom, terms)
    # every column has a nonzero constant term, so the content has one too
    # and is a line polynomial; x^(i,0) maps back to x^(i*u)
    line = LaurentPoly._trusted(dom, {(i * u[0], i * u[1]): v for i, v in enumerate(content) if v})
    return line, cofactor


# -- resultants ----------------------------------------------------------


def _coefficients_in_var(f: LaurentPoly, var: int) -> tuple[list[list[int]], int, int]:
    """Coefficients of d f (d = 1 unless f, over Q, has denominators) in
    the chosen variable, leading first, as dense lists in the other variable
    shifted by its least exponent ``lo`` in f; returns (coefficients, lo, d)."""
    vi, oi = var - 1, 2 - var
    terms, d = _cleared(f)
    hi_v = max(e[vi] for e in terms)
    lo_v = min(e[vi] for e in terms)
    lo = min(e[oi] for e in terms)
    width = max(e[oi] for e in terms) - lo + 1
    InputTooLarge.check((hi_v - lo_v + 1) * width, MAX_DENSE_ENTRIES, "dense entries")
    coeffs = [[0] * width for _ in range(hi_v - lo_v + 1)]
    for e, c in terms.items():
        coeffs[hi_v - e[vi]][e[oi] - lo] = c
    return [_dense_trim(c) for c in coeffs], lo, d


def _dense_pow(a: list, k: int, p: int | None) -> list:
    if k == 0:
        return [1]
    out = a
    for _ in range(k - 1):
        out = _dense_mul_sub(out, a, [], [], p)
    return out


def _dense_divexact(a: list, b: list, p: int | None) -> list:
    q, r = _dense_divmod(a, b, p) if b != [1] else (a, [])
    if r:
        raise AssertionError("inexact division in the subresultant sequence")
    return q


def _subresultant(a: list[list], b: list[list], p: int | None) -> list:
    """Res(a, b) for a and b of positive degree with coefficients, leading
    first, that are dense polynomials over F_p (p given) or Z (p None): the
    subresultant remainder sequence (Collins 1967; Cohen, GTM 138, Algorithm
    3.3.7, no content step), where each pseudo-remainder divides exactly by
    g h^delta (Brown and Traub 1971) and a zero one means a common factor."""
    sign = 1
    if len(a) < len(b):
        a, b, sign = b, a, (-1) ** ((len(a) - 1) * (len(b) - 1))
    g = h = [1]
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        sign *= (-1) ** (da * db)
        # lc(b)^(delta + 1) a mod b, one step per leading position of a
        lb, r = b[0], a[:]
        for i in range(delta + 1):
            li = r[i]
            for j in range(i + 1, da + 1):
                r[j] = _dense_mul_sub(lb, r[j], li, b[j - i] if j - i <= db else [], p)
        r = r[delta + 1 :]
        while r and not r[0]:
            del r[0]
        if not r:
            return []
        div = _dense_mul_sub(g, _dense_pow(h, delta, p), [], [], p)
        a, b = b, [_dense_divexact(c, div, p) for c in r]
        g = a[0]
        h = _dense_divexact(_dense_pow(g, delta, p), _dense_pow(h, delta - 1, p), p) if delta else h
    da = len(a) - 1
    res = _dense_divexact(_dense_pow(b[0], da, p), _dense_pow(h, da - 1, p), p)
    if sign > 0:
        return res
    return [-c for c in res] if p is None else [(-c) % p for c in res]


def univariate_resultant(f: LaurentPoly, g: LaurentPoly, var: int) -> LaurentPoly:
    """Sylvester resultant eliminating the chosen variable.

    The result is a Laurent polynomial in the other variable and lies in
    the ideal generated by f and g, so it inherits every annihilation
    property the inputs share. Zero output signals a common factor.
    """
    if var not in (1, 2):
        raise ValueError("var must be 1 or 2")
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("resultant needs nonzero inputs")
    f._check_domain(g)
    dom = f.domain
    if dom.kind == "Z":
        raise DomainMismatch("resultants are computed over Q or F_p")
    fc, flo, d = _coefficients_in_var(f, var)
    gc, glo, e = _coefficients_in_var(g, var)
    n, m = len(fc) - 1, len(gc) - 1
    if n < 1 or m < 1:
        raise ValueError("both inputs must involve the eliminated variable")
    det = _subresultant(fc, gc, dom.p)
    if dom.kind == "Q":  # Res(d f, e g) = d^m e^n Res(f, g)
        den = d**m * e**n
        det = [Fraction(c, den) for c in det]
    # the m rows of f carry y^-flo and the n rows of g carry y^-glo
    # (x for var = 2), so the determinant comes back shifted
    shift = flo * m + glo * n
    if var == 1:
        terms = {(0, i + shift): c for i, c in enumerate(det) if c}
    else:
        terms = {(i + shift, 0): c for i, c in enumerate(det) if c}
    return LaurentPoly._trusted(dom, terms)
