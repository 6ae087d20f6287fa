"""Seeded generators and small independent oracles shared by the tests.

The oracles here deliberately re-implement things the library also does
(rank, Sylvester determinants, pattern enumeration) with different,
simpler algorithms, so the tests never check the code against itself.
The unimodular substitutions (``UnimodularMatrix``,
``unimodular_completion``, ``unimodular_substitute``) and the sparse exact
division ``poly_divexact`` live here, not in the library: only the
direction-content and line-decomposition oracles and the random directions
use them. The oracles' gcds run Euclid over Q or F_p in a substituted ring,
not the primitive remainder sequence of ``split_direction``.
"""

import functools
import itertools
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import gridalgebra
from gridalgebra import (
    GF,
    ClusterTile,
    LaurentPoly,
    Patch,
    TorusConfig,
    ZZ,
    cotiler_sft,
    line_direction_candidates,
    verify_witness,
)
from gridalgebra.errors import EmptyValidRegion
from gridalgebra.formats import (
    annihilator_result_from_json,
    sft_spec_from_json,
    shape_from_json,
    source_from_json,
)
from gridalgebra.linestructure import LineDecomposition


def run_capped(code, limit=1 << 30, timeout=60):
    """Run the Python source ``code`` in a child interpreter that imports
    this checkout's gridalgebra, capped at ``limit`` bytes of address space
    and ``timeout`` seconds, so a size guard that fails ends in MemoryError
    or a timeout and never takes the machine's memory; returns the exit
    code and the child's stdout and stderr."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(gridalgebra.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        preexec_fn=cap, env=env, capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def torus_cells(torus):
    """The cells of a torus's fundamental domain, in row-major order."""
    return [(i, j) for j in range(torus.l) for i in range(torus.k)]


def random_torus(rng, kmax=6, lmax=6, max_symbols=4, symbols=None):
    k = rng.randint(1, kmax)
    l = rng.randint(1, lmax)
    if symbols is None:
        symbols = rng.sample(range(-4, 9), rng.randint(1, max_symbols))
    rows = [[rng.choice(symbols) for _ in range(k)] for _ in range(l)]
    return TorusConfig(rows)


def random_poly(rng, domain=ZZ, max_terms=5, span=2):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = (rng.randint(-span, span), rng.randint(-span, span))
            terms[e] = rng.randint(-4, 4)
        f = LaurentPoly(domain, terms)
        if not f.is_zero:
            return f


def random_line_poly(rng, direction, domain=ZZ, max_points=4):
    """Line polynomial supported on multiples of the direction, with the
    smallest support point at the origin."""
    npts = rng.randint(2, max_points)
    js = sorted(rng.sample(range(0, 5), npts))
    js = [j - js[0] for j in js]
    terms = {
        (j * direction[0], j * direction[1]): rng.choice([-3, -2, -1, 1, 2, 3]) for j in js
    }
    return LaurentPoly(domain, terms)


def random_triangle_poly(rng, domain=ZZ):
    """Cofactor whose Newton polygon is a genuine triangle (never a line
    factor: a triangle has no parallel edge pair)."""
    while True:
        pts = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)}
        if len(pts) != 3:
            continue
        (ax, ay), (bx, by), (cx, cy) = sorted(pts)
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) != 0:
            return LaurentPoly(domain, {p: rng.choice([-2, -1, 1, 2, 3]) for p in pts})


# -- unimodular substitutions and sparse exact division -----------------------


class UnimodularMatrix:
    """2x2 integer matrix of determinant +-1, stored as rows."""

    def __init__(self, rows):
        (a, b), (c, d) = rows
        assert a * d - b * c in (1, -1), rows
        self.rows = rows

    @classmethod
    def identity(cls):
        return cls(((1, 0), (0, 1)))

    def apply(self, v):
        (a, b), (c, d) = self.rows
        return (a * v[0] + b * v[1], c * v[0] + d * v[1])

    def inverse(self):
        (a, b), (c, d) = self.rows
        s = a * d - b * c
        return UnimodularMatrix(((d * s, -b * s), (-c * s, a * s)))

    def __matmul__(self, other):
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return UnimodularMatrix(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))


def unimodular_completion(u):
    """Determinant-1 matrix with first column the primitive vector u = (a, b):
    s = a^-1 mod |b| and t = (1 - a s) / b give a s + b t = 1."""
    a, b = u
    if b == 0:
        return UnimodularMatrix(((a, 0), (0, a)))
    s = pow(a, -1, abs(b))
    return UnimodularMatrix(((a, -((1 - a * s) // b)), (b, s)))


def unimodular_substitute(f, m):
    """Ring automorphism replacing every exponent vector v by M v."""
    return LaurentPoly(f.domain, {m.apply(e): c for e, c in f.terms.items()})


def poly_divexact(f, g):
    """Exact quotient f / g in the Laurent ring by sparse long division on the
    lexicographically largest term; ValueError if there is none."""
    if f.is_zero:
        return f
    dom = f.domain
    fx, fy = f.min_exponents()
    gx, gy = g.min_exponents()
    rem, g = f.shift((-fx, -fy)), g.shift((-gx, -gy))
    (lx, ly), lead = max(g.terms.items())
    quotient = LaurentPoly.zero(dom)
    while not rem.is_zero:
        (rx, ry), c = max(rem.terms.items())
        t = (rx - lx, ry - ly)
        qc = Fraction(c) / lead if dom.p is None else c * pow(lead, -1, dom.p)
        if t[0] < 0 or t[1] < 0 or (dom.kind == "Z" and qc.denominator != 1):
            raise ValueError("no exact quotient")
        term = LaurentPoly(dom, {t: qc})
        quotient = quotient + term
        rem = rem - term * g
    return quotient.shift((fx - gx, fy - gy))


def random_unimodular(rng, steps=4):
    m = UnimodularMatrix.identity()
    for _ in range(steps):
        t = rng.randint(-3, 3)
        shear = ((1, t), (0, 1)) if rng.random() < 0.5 else ((1, 0), (t, 1))
        m = m @ UnimodularMatrix(shear)
        if rng.random() < 0.3:
            m = m @ UnimodularMatrix(((0, 1), (1, 0)))
    return m


# -- independent linear algebra ------------------------------------------


def fraction_rank(matrix):
    """Rank by plain rational Gauss-Jordan elimination."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    if not rows:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def is_prime_by_trial_division(n):
    """Primality by trial division up to the square root."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def fp_nullspace(rows, ncols, p):
    """Kernel basis of an F_p matrix by Gauss-Jordan elimination."""
    rows = [r[:] for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p != 0:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    pivot_of = {c: i for i, c in enumerate(pivots)}
    for free in range(ncols):
        if free in pivot_of:
            continue
        v = [0] * ncols
        v[free] = 1
        for c, i in pivot_of.items():
            v[c] = (-rows[i][free]) % p
        basis.append(v)
    return basis


def fp_torus_annihilated_by(polys, k, l, p, rng):
    """Random nonzero k x l torus over F_p annihilated by every given
    polynomial (wraparound convolution), or None if only zero works."""
    rows = []
    for f in polys:
        for uy in range(l):
            for ux in range(k):
                row = [0] * (k * l)
                for (vx, vy), c in f.terms.items():
                    i, j = (ux - vx) % k, (uy - vy) % l
                    row[j * k + i] = (row[j * k + i] + c) % p
                rows.append(row)
    basis = fp_nullspace(rows, k * l, p)
    if not basis:
        return None
    for _ in range(20):
        coefs = [rng.randrange(p) for _ in basis]
        vec = [sum(cf * b[i] for cf, b in zip(coefs, basis)) % p for i in range(k * l)]
        if any(vec):
            break
    else:
        vec = basis[0]
    return TorusConfig([[vec[j * k + i] for i in range(k)] for j in range(l)])


# -- independent Sylvester-determinant oracle -------------------------------
# Univariate Laurent polynomials are dicts {exponent: coefficient}; p = None
# means exact rational arithmetic, otherwise everything is reduced mod p.


def _uni_mul(a, b, p):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c % p if p else c for e, c in out.items() if (c % p if p else c)}


def _det_laplace(mat, p):
    """Cofactor expansion along the first row, memoized on the set of
    columns left (the row is implied by how many are left)."""
    n = len(mat)
    memo = {}

    def det(cols):
        if not cols:
            return {0: 1}
        if cols in memo:
            return memo[cols]
        row = mat[n - len(cols)]
        out = {}
        for idx, j in enumerate(cols):
            if not row[j]:
                continue
            term = _uni_mul(row[j], det(cols[:idx] + cols[idx + 1 :]), p)
            sign = 1 if idx % 2 == 0 else -1
            for e, c in term.items():
                out[e] = out.get(e, 0) + sign * c
        memo[cols] = {e: c % p if p else c for e, c in out.items() if (c % p if p else c)}
        return memo[cols]

    return det(tuple(range(n)))


def _sylvester_resultant_oracle(f, g, var, p):
    """Resultant eliminating ``var`` as a dict {other-var exponent: coeff},
    via an explicit Sylvester matrix and Laplace expansion, over F_p or,
    with p None, over Q in Fractions. Entries keep their Laurent exponents
    in the other variable, so no exponent shift is involved."""

    def coeff_list(h):
        vi, oi = var - 1, 2 - var
        lo = min(e[vi] for e in h.terms)
        hi = max(e[vi] for e in h.terms)
        out = [dict() for _ in range(hi - lo + 1)]
        for e, c in h.terms.items():
            out[e[vi] - lo][e[oi]] = c % p if p else Fraction(c)
        return out

    fc, gc = coeff_list(f), coeff_list(g)
    n, m = len(fc) - 1, len(gc) - 1
    size = n + m
    mat = [[{} for _ in range(size)] for _ in range(size)]
    for i in range(m):
        for j, c in enumerate(reversed(fc)):
            mat[i][i + j] = c
    for i in range(n):
        for j, c in enumerate(reversed(gc)):
            mat[m + i][i + j] = c
    return _det_laplace(mat, p)


def sylvester_resultant_oracle_fp(f, g, var, p):
    return _sylvester_resultant_oracle(f, g, var, p)


def sylvester_resultant_oracle_q(f, g, var):
    return _sylvester_resultant_oracle(f, g, var, None)


def poly_fp_as_uni_dict(r, var_other):
    """Library Laurent polynomial (supported on one axis) as {exp: coeff}."""
    oi = var_other - 1
    return {e[oi]: c for e, c in r.terms.items()}


def random_fp_poly_with_both_vars(rng, p, span=2, max_terms=5):
    """Nonzero F_p polynomial whose support has positive extent in both
    variables (so resultants are defined)."""
    dom = GF(p)
    while True:
        f = random_poly(rng, dom, max_terms=max_terms, span=span)
        e1 = {e[0] for e in f.terms}
        e2 = {e[1] for e in f.terms}
        if len(e1) > 1 and len(e2) > 1:
            return f


# -- direction content by rational Euclid -----------------------------------


def direction_content_oracle(f, u):
    """Line-polynomial content of f in direction u: change coordinates so u
    becomes (1, 0) and take the monic gcd of the x-columns by Euclid over
    Q, or over F_p for a prime field. A rational result is cleared to
    coprime integers, lead positive."""
    dom = f.domain
    p = dom.p

    def norm(c):
        return c % p if p else Fraction(c)

    def div(a, b):
        return a * pow(b, -1, p) % p if p else a / b

    def rem(a, b):
        a = a[:]
        while len(a) >= len(b) and a:
            q = div(a[-1], b[-1])
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = norm(a[shift + i] - q * bc)
            while a and a[-1] == 0:
                a.pop()
        return a

    m = unimodular_completion(u)
    g = unimodular_substitute(f, m.inverse())
    columns = {}
    for (e1, e2), c in g.terms.items():
        columns.setdefault(e2, {})[e1] = c
    content = None
    for col in columns.values():
        lo = min(col)
        dense = [norm(0)] * (max(col) - lo + 1)
        for e1, c in col.items():
            dense[e1 - lo] = norm(c)
        if content is None:
            content = dense
            continue
        a, b = content, dense
        while b:
            a, b = b, rem(a, b)
        content = a
    content = [div(c, content[-1]) for c in content]
    if len(content) == 1:
        return LaurentPoly.one(dom)
    if not p:
        den = math.lcm(*(c.denominator for c in content))
        ints = [int(c * den) for c in content]
        sign = 1 if ints[-1] > 0 else -1
        content = [sign * c // math.gcd(*ints) for c in ints]
    line = LaurentPoly(dom, {(i, 0): c for i, c in enumerate(content)})
    return unimodular_substitute(line, m)


def line_factor_decomposition_oracle(f):
    """Line-factor decomposition by one content and one sparse exact
    division per candidate direction: the Euclid content above, then
    ``poly_divexact``, then the remainder shifted to the origin."""
    work = f
    factors = []
    for u in sorted(line_direction_candidates(f)):
        g = direction_content_oracle(work, u)
        if g.num_terms >= 2:
            work = poly_divexact(work, g)
            factors.append((u, g))
    monomial = work.min_exponents()
    remainder = work.shift((-monomial[0], -monomial[1]))
    return LineDecomposition(monomial=monomial, factors=tuple(factors), remainder=remainder)


# -- the polynomial action, one cell at a time -------------------------------


def apply_poly_oracle(f, source, fit=None):
    """f c cell by cell: (f c)_u = sum_v f_v c_{u-v}, each symbol read
    through value_at and Domain.coerce, then plain + and *, reduced mod p
    over F_p. On a patch the cells u are those whose every c_{u-v}, and
    every u + d for d in the shape ``fit`` if given, lies inside, found by
    trying each one; no such cell raises EmptyValidRegion before any symbol
    is read. Every symbol of the source is then coerced, so one outside the
    domain raises ValueError even where f c does not read it."""
    dom = f.domain
    p = dom.p
    if isinstance(source, TorusConfig):
        origin = (0, 0)
        cells = [[(i, j) for i in range(source.k)] for j in range(source.l)]
    else:
        ox, oy = source.origin
        r = max(abs(e) for v in f.terms for e in v)
        valid = [
            (x, y)
            for y in range(oy - r, oy + source.height + r)
            for x in range(ox - r, ox + source.width + r)
            if all((x - vx, y - vy) in source for vx, vy in f.terms)
            and all((x + dx, y + dy) in source for dx, dy in (fit.cells if fit else ()))
        ]
        if not valid:
            raise EmptyValidRegion("no cell sees the whole support inside the patch")
        origin = valid[0]
        cells = [[c for c in valid if c[1] == y] for y in sorted({c[1] for c in valid})]
    for row in source.rows:
        for v in row:
            dom.coerce(v)
    out = []
    for row in cells:
        out.append([])
        for ux, uy in row:
            acc = dom.coerce(0)
            for (vx, vy), c in f.terms.items():
                acc = acc + c * dom.coerce(source.value_at((ux - vx, uy - vy)))
                if p:
                    acc = acc % p
            out[-1].append(acc)
    if isinstance(source, TorusConfig):
        return TorusConfig(out)
    return Patch(origin, out)


def binomial_product_annihilator_oracle(source, max_norm, max_factors):
    """First tuple of canonical vectors (a > 0, or a = 0 and b > 0) of
    max-norm at most max_norm, by factor count, then lexicographically in
    (max-norm, a, b) order, with no two parallel (zero cross product),
    whose product of x^t - 1, multiplied out as a plain dict, annihilates
    the source under apply_poly_oracle. Products that outgrow a patch are
    skipped; EmptyValidRegion when all of them do."""
    ring = {n: [] for n in range(1, max_norm + 1)}
    for a in range(max_norm + 1):
        for b in range(-max_norm, max_norm + 1):
            if a > 0 or b > 0:
                ring[max(a, abs(b))].append((a, b))
    vectors = [v for n in sorted(ring) for v in sorted(ring[n])]
    fitted = False
    for m in range(1, max_factors + 1):
        for ts in itertools.combinations(vectors, m):
            if any(s[0] * t[1] == s[1] * t[0] for s, t in itertools.combinations(ts, 2)):
                continue
            product = {(0, 0): 1}
            for tx, ty in ts:
                out = {}
                for (x, y), c in product.items():
                    out[(x + tx, y + ty)] = out.get((x + tx, y + ty), 0) + c
                    out[(x, y)] = out.get((x, y), 0) - c
                product = {e: c for e, c in out.items() if c}
            try:
                image = apply_poly_oracle(LaurentPoly(ZZ, product), source)
            except EmptyValidRegion:
                continue
            fitted = True
            if all(v == 0 for row in image.rows for v in row):
                return ts
    if not fitted:
        raise EmptyValidRegion("every candidate product outgrows the patch")
    return None


def half_plane_oracle(bound):
    """Vectors with a > 0, or a = 0 < b, of max-norm at most bound, sorted
    by the key (max-norm, a, b)."""
    out = [(a, b) for a in range(bound + 1) for b in range(-bound, bound + 1) if a > 0 or b > 0]
    out.sort(key=lambda t: (max(t[0], abs(t[1])), t))
    return out


def brute_force_antenna(cells, torus, a, b):
    """Place a range copy at every 1-cell and count the copies on each cell
    of the torus: b on every 1-cell and a on every other cell."""
    count = [[0] * torus.k for _ in range(torus.l)]
    for ty in range(torus.l):
        for tx in range(torus.k):
            if torus.rows[ty][tx] == 1:
                for cx, cy in cells:
                    count[(ty + cy) % torus.l][(tx + cx) % torus.k] += 1
    return all(
        n == (b if v == 1 else a)
        for crow, row in zip(count, torus.rows)
        for n, v in zip(crow, row)
    )


def brute_force_exact_cover(cells, torus):
    """Tile copies at the 1-cells cover each cell of the torus exactly once."""
    return brute_force_antenna(cells, torus, 1, 1)


def brute_force_torus_patterns(torus, shape):
    """Independent pattern enumeration: raw tuples, no library types."""
    out = set()
    for ty in range(torus.l):
        for tx in range(torus.k):
            out.add(
                tuple(
                    torus.rows[(ty + cy) % torus.l][(tx + cx) % torus.k]
                    for (cx, cy) in shape.cells
                )
            )
    return out


def brute_force_patch_patterns(patch, shape):
    """Independent pattern enumeration on a patch: every translate whose
    cells all lie inside, read cell by cell through value_at."""
    ox, oy = patch.origin
    out = set()
    for ty in range(oy - 8, oy + patch.height + 8):
        for tx in range(ox - 8, ox + patch.width + 8):
            cells = [(tx + cx, ty + cy) for (cx, cy) in shape.cells]
            if all(c in patch for c in cells):
                out.add(tuple(patch.value_at(c) for c in cells))
    return out


# -- independent period oracles -------------------------------------------


def brute_force_is_period(torus, t):
    """c_{u+t} == c_u at every cell u, compared one cell at a time."""
    return all(
        torus.value_at(u) == torus.value_at((u[0] + t[0], u[1] + t[1]))
        for u in torus_cells(torus)
    )


def brute_force_least_period(torus, u):
    """Least n >= 1 with n*u a period, trying n = 1, 2, ... in turn."""
    n = 1
    while not brute_force_is_period(torus, (n * u[0], n * u[1])):
        n += 1
    return n


def translate_orbit_size(torus):
    """Number of distinct translates of the configuration. By orbit and
    stabilizer this is the index of the period lattice in Z^2."""
    return len(
        {
            tuple(
                tuple(torus.value_at((i + tx, j + ty)) for i in range(torus.k))
                for j in range(torus.l)
            )
            for tx in range(torus.k)
            for ty in range(torus.l)
        }
    )


# -- SFT search oracles ---------------------------------------------------


def _first_filling(alphabet, cells, translates, allowed):
    """First filling, in lexicographic order of the values listed cell by
    cell, under which every translate reads an allowed tuple."""
    allowed = {tuple(p.values) for p in allowed}
    for values in itertools.product(sorted(alphabet), repeat=len(cells)):
        fill = dict(zip(cells, values))
        if all(tuple(fill[c] for c in t) in allowed for t in translates):
            return fill
    return None


def brute_force_window_filling(spec, n):
    """Enumerate every filling of the n x n window (rows of cells (x, y)
    with y outer); return the first as rows, or None. A translate counts
    when all of its cells fall inside the window."""
    cells = [(x, y) for y in range(n) for x in range(n)]
    inside = set(cells)
    translates = []
    x0, y0, x1, y1 = spec.shape.bounding_box()
    for ty in range(-y1, n - y0):
        for tx in range(-x1, n - x0):
            t = [(tx + cx, ty + cy) for (cx, cy) in spec.shape.cells]
            if all(c in inside for c in t):
                translates.append(t)
    fill = _first_filling(spec.alphabet, cells, translates, spec.allowed)
    if fill is None:
        return None
    return [[fill[(x, y)] for x in range(n)] for y in range(n)]


def lattice_cell(x, y, k, l, b):
    """The cell of the k x l fundamental domain of the lattice with basis
    (k, 0), (b, l) that (x, y) is congruent to."""
    q, y = divmod(y, l)
    return (x - q * b) % k, y


def expand_lattice_rows(rows, b):
    """The rows of the k x (l * k / gcd(k, b)) rectangle torus filled by
    the point whose fundamental domain of the lattice (k, 0), (b, l) holds
    ``rows``: every cell read back through ``lattice_cell``."""
    k, l = len(rows[0]), len(rows)
    height = l * k // math.gcd(k, b)
    cells = [[lattice_cell(x, y, k, l, b) for x in range(k)] for y in range(height)]
    return [[rows[cy][cx] for cx, cy in row] for row in cells]


def brute_force_torus_filling(spec, k, l, b=0):
    """Enumerate every filling of the k x l fundamental domain of the
    lattice with basis (k, 0), (b, l) (b = 0: the k x l torus); return the
    first, expanded to its rectangle torus by ``expand_lattice_rows`` and
    re-checked there by ``verify_witness``, as rows, or None. Every
    translate wraps around the lattice, one per cell."""
    cells = [(x, y) for y in range(l) for x in range(k)]
    translates = [
        [lattice_cell(x + cx, y + cy, k, l, b) for (cx, cy) in spec.shape.cells]
        for (x, y) in cells
    ]
    fill = _first_filling(spec.alphabet, cells, translates, spec.allowed)
    if fill is None:
        return None
    rows = expand_lattice_rows([[fill[(x, y)] for x in range(k)] for y in range(l)], b)
    assert verify_witness(spec, TorusConfig(rows)), (k, l, b)
    return rows


def forward_checking_search(spec, w, h, wrap, limit=None, shear=0):
    """Reference for the SFT search kernel: the same backtracking over the
    cells of a w x h grid, with each translate's viable patterns kept as an
    explicit list that every assignment filters. With ``wrap`` the grid is
    the fundamental domain of the lattice with basis (w, 0), (shear, h).

    Cells are taken row by row and values in sorted order. Every value
    tried at a cell is one node. Returns ``(rows, nodes)``: rows in
    row-major order, None when no filling exists, and the string
    "exhausted" when a further node would pass ``limit``."""
    cells = [(x, y) for y in range(h) for x in range(w)]
    values = sorted(spec.alphabet)
    if wrap:
        translates = [
            [lattice_cell(x + cx, y + cy, w, h, shear) for (cx, cy) in spec.shape.cells]
            for (x, y) in cells
        ]
    else:
        inside = set(cells)
        translates = []
        # every anchor whose translate of the bounding box meets the grid
        x0, y0, x1, y1 = spec.shape.bounding_box()
        for ty in range(-y1, h - y0):
            for tx in range(-x1, w - x0):
                t = [(tx + cx, ty + cy) for (cx, cy) in spec.shape.cells]
                if all(c in inside for c in t):
                    translates.append(t)
    allowed = [tuple(p.values) for p in spec.allowed]
    if translates and not allowed:
        return None, 0  # refuted before any node is spent
    touching = {c: [] for c in cells}
    for t, tcells in enumerate(translates):
        for pos, c in enumerate(tcells):
            touching[c].append((t, pos))
    viable = [list(allowed) for _ in translates]
    chosen = []
    nodes = 0

    def step(k):
        nonlocal nodes
        if k == len(cells):
            return True
        for v in values:
            if limit is not None and nodes >= limit:
                return None
            nodes += 1
            saved = []
            ok = True
            for t, pos in touching[cells[k]]:
                saved.append((t, viable[t]))
                viable[t] = [p for p in viable[t] if p[pos] == v]
                if not viable[t]:
                    ok = False
                    break
            if ok:
                chosen.append(v)
                found = step(k + 1)
                if found is not False:
                    return found
                chosen.pop()
            for t, old in reversed(saved):
                viable[t] = old
        return False

    found = step(0)
    if found is None:
        return "exhausted", nodes
    if not found:
        return None, nodes
    return [chosen[j * w : (j + 1) * w] for j in range(h)], nodes


# -- discrete convexity oracle ----------------------------------------------


def _in_triangle_or_segment(q, a, b, c):
    """q lies in the triangle abc, or on segment ab when a, b, c are
    collinear; exact integer arithmetic."""

    def cross(o, p, r):
        return (p[0] - o[0]) * (r[1] - o[1]) - (p[1] - o[1]) * (r[0] - o[0])

    if cross(a, b, c) == 0:
        # degenerate: q on one of the three segments
        return any(
            cross(u, v, q) == 0
            and (q[0] - u[0]) * (q[0] - v[0]) + (q[1] - u[1]) * (q[1] - v[1]) <= 0
            for u, v in ((a, b), (b, c), (a, c))
        )
    signs = [cross(a, b, q), cross(b, c, q), cross(c, a, q)]
    return all(s >= 0 for s in signs) or all(s <= 0 for s in signs)


def discrete_convex_oracle(cells):
    """True iff every lattice point of the bounding box lying in a triangle
    or segment spanned by cells is itself a cell (Caratheodory: the convex
    hull is the union of those triangles)."""
    cells = set(cells)
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if (x, y) in cells:
                continue
            if any(
                _in_triangle_or_segment((x, y), a, b, c)
                for a, b, c in itertools.combinations_with_replacement(sorted(cells), 3)
            ):
                return False
    return True


# -- convex hull by vertex exclusion ------------------------------------------


def convex_hull_oracle(points):
    """Vertices of the convex hull of a finite set: a point is a vertex iff
    it is not in the hull of the other points (a triangle or segment of
    them, by Caratheodory). Counterclockwise from the least point."""
    pts = set(points)
    verts = [
        q
        for q in pts
        if not any(
            _in_triangle_or_segment(q, a, b, c)
            for a, b, c in itertools.combinations_with_replacement(sorted(pts - {q}), 3)
        )
    ]
    first = min(verts)

    def turn(a, b):
        # a comes first when b lies to its left, seen from the first vertex
        return (b[0] - first[0]) * (a[1] - first[1]) - (b[1] - first[1]) * (a[0] - first[0])

    rest = sorted((v for v in verts if v != first), key=functools.cmp_to_key(turn))
    return [first] + rest


# -- certificate claims ---------------------------------------------------


def annihilator_claim_holds(shape, source, result):
    """Whether an annihilator result's claims hold where its patterns came
    from: at every cell of a torus; on a patch, at the positions u with
    every cell of u + shape inside, and for poly, the annihilator (x - 1)
    times a periodizer, of u - (1, 0) + shape too. Products come from
    apply_poly_oracle and the identity from shifted coefficient dicts."""

    def image(f, shifts):
        out = apply_poly_oracle(f, source)
        if isinstance(source, TorusConfig):
            return [v for row in out.rows for v in row]
        ox, oy = out.origin
        return [
            v
            for j, row in enumerate(out.rows)
            for i, v in enumerate(row)
            if all(
                (ox + i + s + cx, oy + j + cy) in source for s in shifts for cx, cy in shape.cells
            )
        ]

    if result.kind == "direct":
        return all(v == 0 for v in image(result.poly, [0]))
    g = result.periodizer
    shifted = {(x + 1, y): c for (x, y), c in g.terms.items()}
    times_x_minus_1 = {
        e: shifted.get(e, 0) - g.terms.get(e, 0) for e in set(shifted) | set(g.terms)
    }
    return (
        LaurentPoly(g.domain, times_x_minus_1) == result.poly
        and set(image(g, [0])) == {result.constant}
        and all(v == 0 for v in image(result.poly, [0, -1]))
    )


def certificate_claim_holds(cert):
    """Whether every claim a certificate makes holds, decided by brute force
    on tiny windows and tori. It reads keys plainly, so call it only on a
    certificate the checker accepted."""
    kind = cert["certificate"]
    if kind == "annihilator":
        shape, source = shape_from_json(cert["shape"]), source_from_json(cert["source"])
        return annihilator_claim_holds(shape, source, annihilator_result_from_json(cert["result"]))
    if kind == "antenna":
        config = source_from_json(cert["config"])
        cells = shape_from_json(cert["shape"]).cells
        return cert["valid"] == brute_force_antenna(cells, config, cert["a"], cert["b"])
    if kind == "cotiler":
        tile = shape_from_json(cert["tile"])
        if "config" in cert:
            cover = brute_force_exact_cover(tile.cells, source_from_json(cert["config"]))
            return cert["exact_cover_verified"] == cover
        spec = cotiler_sft(ClusterTile(tile))
    else:
        spec = sft_spec_from_json(cert["spec"])
    decision = cert["decision"]
    if decision == "nonempty":
        if cert["witness"] is None:
            return False
        torus = source_from_json(cert["witness"])
        allowed = brute_force_torus_patterns(torus, spec.shape) <= {p.values for p in spec.allowed}
        if kind == "cotiler":
            cover = brute_force_exact_cover(tile.cells, torus)
            return allowed and cover and cert["exact_cover_verified"] is True
        return allowed
    if decision == "empty":
        return brute_force_window_filling(spec, cert["window"]) is None
    return decision == "unknown"
