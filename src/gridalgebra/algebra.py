"""Exact sparse Laurent-polynomial arithmetic in two variables.

Polynomials are finite maps from integer exponent vectors (u1, u2) to
nonzero coefficients over a declared domain: the integers, the rationals,
or a prime field F_p. All arithmetic is exact; there is no floating point
anywhere. Values are immutable after construction and all operations are
pure functions, so everything here is safe to share between threads.

The module also provides the geometric helpers built on top of the raw
arithmetic: Newton polygons, parallel-edge direction detection, unimodular
exponent substitutions, per-direction line-polynomial content, and the
classical Sylvester resultant for eliminating one variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByZero,
    DomainMismatch,
    NotDivisible,
    NotUnimodular,
    ZeroPolynomial,
)

ExponentVector = tuple[int, int]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"modulus {self.p!r} is not prime")
        elif self.p is not None:
            raise ValueError("modulus only makes sense for a prime field")

    @property
    def name(self) -> str:
        return f"F{self.p}" if self.kind == "Fp" else self.kind

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "Fp" else 0

    def coerce(self, value):
        """Map an int / Fraction into the canonical internal representation."""
        if type(value) is int:
            if self.kind == "Z":
                return value
            if self.kind == "Q":
                return Fraction(value)
            return value % self.p
        if self.kind == "Z":
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an integer")
                return int(value)
            if isinstance(value, int):
                return value
            raise TypeError(f"cannot coerce {value!r} into Z")
        if self.kind == "Q":
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            raise TypeError(f"cannot coerce {value!r} into Q")
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ValueError(f"{value} has no image mod {self.p}")
            return (value.numerator * pow(value.denominator, -1, self.p)) % self.p
        if isinstance(value, int):
            return value % self.p
        raise TypeError(f"cannot coerce {value!r} into F{self.p}")

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("no inverse of zero")
        if self.kind == "Fp":
            return pow(a, -1, self.p)
        if self.kind == "Q":
            return 1 / Fraction(a)
        if a in (1, -1):
            return a
        raise NotDivisible(f"{a} is not a unit in Z")

    def exact_div(self, a, b):
        """Return a/b, or raise NotDivisible when the quotient leaves the domain."""
        if b == 0:
            raise DivisionByZero("division by zero coefficient")
        if self.kind == "Fp":
            return (a * pow(b, -1, self.p)) % self.p
        if self.kind == "Q":
            return Fraction(a) / Fraction(b)
        q, r = divmod(a, b)
        if r != 0:
            raise NotDivisible(f"{a} is not divisible by {b} in Z")
        return q

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


class LaurentPoly:
    """A sparse two-variable Laurent polynomial over an exact domain.

    ``terms`` maps exponent vectors to nonzero coefficients; zero terms are
    dropped on construction. Instances are immutable by convention and
    hashable, so they can serve as dict keys and set members.
    """

    __slots__ = ("domain", "terms", "_hash")

    def __init__(self, domain: Domain, terms):
        object.__setattr__(self, "domain", domain)
        clean = {}
        for exp, coeff in dict(terms).items():
            u = (int(exp[0]), int(exp[1]))
            c = domain.coerce(coeff)
            if c != 0:
                clean[u] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

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
    def variable(cls, domain: Domain, var: int) -> "LaurentPoly":
        if var not in (1, 2):
            raise ValueError("var must be 1 or 2")
        return cls(domain, {(1, 0) if var == 1 else (0, 1): 1})

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

    def support(self) -> set[ExponentVector]:
        return set(self.terms)

    def coeff(self, exp: ExponentVector):
        return self.terms.get(tuple(exp), self.domain.coerce(0))

    def min_exponents(self) -> ExponentVector:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no support")
        return (
            min(e[0] for e in self.terms),
            min(e[1] for e in self.terms),
        )

    def max_exponents(self) -> ExponentVector:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no support")
        return (
            max(e[0] for e in self.terms),
            max(e[1] for e in self.terms),
        )

    def shift(self, t: ExponentVector) -> "LaurentPoly":
        """Multiply by the monomial x^t (translate the support)."""
        dx, dy = t
        return LaurentPoly(self.domain, {(e[0] + dx, e[1] + dy): c for e, c in self.terms.items()})

    def scale(self, c) -> "LaurentPoly":
        c = self.domain.coerce(c)
        return LaurentPoly(self.domain, {e: self.domain.mul(v, c) for e, v in self.terms.items()})

    def leading_term(self) -> tuple[ExponentVector, object]:
        """Term with the lexicographically largest exponent vector."""
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    # -- ring operations ----------------------------------------------

    def _check_domain(self, other: "LaurentPoly"):
        if self.domain != other.domain:
            raise DomainMismatch(f"{self.domain.name} vs {other.domain.name}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_domain(other)
        out = dict(self.terms)
        dom = self.domain
        for e, c in other.terms.items():
            s = dom.add(out.get(e, 0), c)
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return LaurentPoly(dom, out)

    def __neg__(self) -> "LaurentPoly":
        dom = self.domain
        return LaurentPoly(dom, {e: dom.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_domain(other)
        dom = self.domain
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                s = dom.add(out.get(e, 0), dom.mul(c1, c2))
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPoly(dom, out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are only defined for monomials")
        result = LaurentPoly.one(self.domain)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.domain == other.domain and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            h = hash((self.domain, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

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


# -- spec-level operation surface --------------------------------------


def poly_add(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    return f + g


def poly_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    return f * g


def poly_divexact(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient f/g in the Laurent ring; NotDivisible if none exists.

    Both operands are shifted so that division happens between ordinary
    polynomials; monomials are units so the shift never changes exactness.
    """
    if g.is_zero:
        raise DivisionByZero("division by the zero polynomial")
    if f.is_zero:
        return LaurentPoly.zero(f.domain)
    f._check_domain(g)
    dom = f.domain
    fmin = f.min_exponents()
    gmin = g.min_exponents()
    fn = f.shift((-fmin[0], -fmin[1]))
    gn = g.shift((-gmin[0], -gmin[1]))

    glead_e, glead_c = gn.leading_term()
    rem = dict(fn.terms)
    quo = {}
    while rem:
        rlead_e = max(rem)
        qe = (rlead_e[0] - glead_e[0], rlead_e[1] - glead_e[1])
        if qe[0] < 0 or qe[1] < 0:
            raise NotDivisible("no exact quotient")
        qc = dom.exact_div(rem[rlead_e], glead_c)
        quo[qe] = qc
        for e, c in gn.terms.items():
            te = (e[0] + qe[0], e[1] + qe[1])
            s = dom.sub(rem.get(te, 0), dom.mul(c, qc))
            if s == 0:
                rem.pop(te, None)
            else:
                rem[te] = s
    shift = (fmin[0] - gmin[0], fmin[1] - gmin[1])
    return LaurentPoly(dom, quo).shift(shift)


# -- Newton polygon -----------------------------------------------------


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[ExponentVector]:
    """Extreme points of a finite set, counterclockwise, no three collinear."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 0:
        # all points collinear: keep the two endpoints
        return [pts[0], pts[-1]]
    return hull


@dataclass(frozen=True)
class NewtonPolygon:
    """Convex hull of a polynomial's support; degenerate forms allowed."""

    vertices: tuple[ExponentVector, ...]

    @property
    def kind(self) -> str:
        if len(self.vertices) == 1:
            return "point"
        if len(self.vertices) == 2:
            return "segment"
        return "polygon"

    def edges(self) -> list[ExponentVector]:
        """Edge vectors in counterclockwise traversal order."""
        if self.kind == "point":
            return []
        if self.kind == "segment":
            a, b = self.vertices
            return [(b[0] - a[0], b[1] - a[1]), (a[0] - b[0], a[1] - b[1])]
        verts = self.vertices
        out = []
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            out.append((w[0] - v[0], w[1] - v[1]))
        return out


def newton_polygon(f: LaurentPoly) -> NewtonPolygon:
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no Newton polygon")
    hull = convex_hull(f.terms.keys())
    if len(hull) > 2:
        # rotate so the lexicographically smallest vertex comes first
        i = hull.index(min(hull))
        hull = hull[i:] + hull[:i]
    return NewtonPolygon(tuple(hull))


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


def is_primitive(v: ExponentVector) -> bool:
    return v != (0, 0) and math.gcd(abs(v[0]), abs(v[1])) == 1


def line_direction_candidates(f: LaurentPoly) -> set[ExponentVector]:
    """Directions that could carry a line-polynomial factor of f.

    Factor polygons Minkowski-sum to the product polygon, and a segment
    summand forces a pair of parallel edges, so every direction of an
    actual line-polynomial factor shows up here.
    """
    np_ = newton_polygon(f)
    if np_.kind == "point":
        return set()
    if np_.kind == "segment":
        a, b = np_.vertices
        return {normalize_direction((b[0] - a[0], b[1] - a[1]))}
    counts: dict[ExponentVector, int] = {}
    for e in np_.edges():
        d = normalize_direction(e)
        counts[d] = counts.get(d, 0) + 1
    return {d for d, n in counts.items() if n >= 2}


# -- unimodular coordinate changes --------------------------------------


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 integer matrix with determinant +-1, stored as rows."""

    rows: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        if self.det not in (1, -1):
            raise NotUnimodular(f"determinant {self.det} is not +-1")

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(((1, 0), (0, 1)))

    @property
    def det(self) -> int:
        (a, b), (c, d) = self.rows
        return a * d - b * c

    def apply(self, v: ExponentVector) -> ExponentVector:
        (a, b), (c, d) = self.rows
        return (a * v[0] + b * v[1], c * v[0] + d * v[1])

    def inverse(self) -> "UnimodularMatrix":
        (a, b), (c, d) = self.rows
        s = self.det
        return UnimodularMatrix(((d * s, -b * s), (-c * s, a * s)))

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return UnimodularMatrix(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def unimodular_completion(u: ExponentVector) -> UnimodularMatrix:
    """Determinant-1 matrix whose first column is the primitive vector u."""
    a, b = u
    g, s, t = _egcd(a, b)
    if g != 1:
        raise ValueError(f"{u} is not primitive")
    return UnimodularMatrix(((a, -t), (b, s)))


def unimodular_substitute(f: LaurentPoly, m: UnimodularMatrix) -> LaurentPoly:
    """Ring automorphism replacing every exponent vector u by M u."""
    return LaurentPoly(f.domain, {m.apply(e): c for e, c in f.terms.items()})


# -- univariate helpers (dense, ascending coefficients) -----------------


def _dense_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _dense_mod(a: list, b: list, dom: Domain) -> list:
    """Remainder of dense division over a field."""
    a = a[:]
    inv_lead = dom.inv(b[-1])
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        q = dom.mul(a[-1], inv_lead)
        for i, bc in enumerate(b):
            a[shift + i] = dom.sub(a[shift + i], dom.mul(q, bc))
        _dense_trim(a)
    return a


def _dense_gcd_field(a: list, b: list, dom: Domain) -> list:
    a, b = _dense_trim(a[:]), _dense_trim(b[:])
    while b:
        a, b = b, _dense_mod(a, b, dom)
    if a:
        inv_lead = dom.inv(a[-1])
        a = [dom.mul(c, inv_lead) for c in a]
    return a


def _primitive_int(coeffs: list[Fraction]) -> list[int]:
    """Clear a rational coefficient list to coprime integers, positive lead."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


# -- direction content ---------------------------------------------------


def line_direction_of(f: LaurentPoly) -> ExponentVector | None:
    """Direction of f if f is a line polynomial (>= 2 terms on a line
    through the origin), else None."""
    if f.num_terms < 2:
        return None
    nonzero = [e for e in f.terms if e != (0, 0)]
    if not nonzero:
        return None
    u = normalize_direction(nonzero[0])
    for e in f.terms:
        # e must be an integer multiple of u
        if e[0] * u[1] != e[1] * u[0]:
            return None
        if u[0] != 0:
            if e[0] % u[0] != 0:
                return None
        elif e[1] % u[1] != 0:
            return None
    return u


def direction_content(f: LaurentPoly, u: ExponentVector) -> LaurentPoly:
    """Product (with multiplicity) of all line-polynomial factors of f in
    direction u, normalized; the constant 1 when there are none.

    Works by a coordinate change sending u to (1,0): line factors in
    direction u become factors involving only x, and those are exactly the
    content of f viewed as a polynomial in y over the x-Laurent ring.
    """
    if f.is_zero:
        raise ZeroPolynomial("zero polynomial has no content")
    if not is_primitive(u):
        raise ValueError(f"{u} is not a primitive direction")
    dom = f.domain
    m = unimodular_completion(u)
    g = unimodular_substitute(f, m.inverse())

    columns: dict[int, dict[int, object]] = {}
    for (e1, e2), c in g.terms.items():
        columns.setdefault(e2, {})[e1] = c

    work_dom = QQ if dom.kind == "Z" else dom
    content: list | None = None
    for col in columns.values():
        lo = min(col)
        dense = [0] * (max(col) - lo + 1)
        for e1, c in col.items():
            dense[e1 - lo] = work_dom.coerce(c)
        content = dense if content is None else _dense_gcd_field(content, dense, work_dom)
        if len(content) == 1:
            break
    assert content, "content of a nonzero polynomial is nonzero"
    if len(content) == 1:
        return LaurentPoly.one(dom)

    if dom.kind in ("Z", "Q"):
        content = _primitive_int(content)
    poly = LaurentPoly(dom, {(i, 0): c for i, c in enumerate(content) if c != 0})
    if poly.num_terms < 2:
        return LaurentPoly.one(dom)
    return unimodular_substitute(poly, m)


# -- resultants ----------------------------------------------------------


def _coefficients_in_var(f: LaurentPoly, var: int) -> list[LaurentPoly]:
    """Coefficient list of f in the chosen variable, ascending, after
    shifting var-exponents to start at zero; entries are Laurent
    polynomials in the other variable."""
    vi = var - 1
    lo = min(e[vi] for e in f.terms)
    hi = max(e[vi] for e in f.terms)
    coeffs = [dict() for _ in range(hi - lo + 1)]
    for e, c in f.terms.items():
        other = (0, e[1]) if var == 1 else (e[0], 0)
        coeffs[e[vi] - lo][other] = c
    return [LaurentPoly(f.domain, d) for d in coeffs]


def _bareiss_determinant(rows: list[list[LaurentPoly]], dom: Domain) -> LaurentPoly:
    """Fraction-free determinant over the Laurent ring; exact divisions by
    the previous pivot are guaranteed by the Bareiss identity."""
    n = len(rows)
    a = [row[:] for row in rows]
    sign = 1
    prev = LaurentPoly.one(dom)
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if not a[r][k].is_zero), None)
        if piv is None:
            return LaurentPoly.zero(dom)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = poly_divexact(num, prev)
            a[i][k] = LaurentPoly.zero(dom)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


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
    fc = _coefficients_in_var(f, var)
    gc = _coefficients_in_var(g, var)
    n, m = len(fc) - 1, len(gc) - 1
    if n < 1 or m < 1:
        raise ValueError("both inputs must involve the eliminated variable")
    size = n + m
    zero = LaurentPoly.zero(dom)
    rows = []
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(fc)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(gc)):
            row[i + j] = c
        rows.append(row)
    return _bareiss_determinant(rows, dom)
