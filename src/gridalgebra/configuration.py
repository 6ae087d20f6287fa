"""Finite representations of grid colorings and their pattern statistics.

Two finite carriers are provided. A ``Patch`` is a rectangular sample of
an unknown configuration: everything computed from it is a statement about
the observed region only. A ``TorusConfig`` is a fully two-periodic
configuration given by one fundamental domain, so checks on it are exact
statements about the corresponding infinite configuration.

The convolution convention is (f c)_u = sum_v f_v c_{u-v}, matching the
translation convention tau^t(c)_u = c_{u-t}; pattern-vector inner products
therefore pair cell d with coefficient f_{-d}.

One product kernel serves ``is_annihilated``, ``apply_poly``, the periodizer
check, ``antenna_verify`` and ``exact_cover_on_torus`` (the antenna
condition with a = b = 1). It sums whole rows, one row slice per term, in
fundamental order on a torus and bottom up over the valid region on a
patch; the rectangle profile likewise stacks row segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add, itemgetter, mul, sub

from .algebra import ExponentVector, LaurentPoly, _cleared, _half_plane, line_direction_of
from .errors import (
    EmptyValidRegion,
    InputTooLarge,
    NotALinePolynomial,
    NotAnnihilated,
    ShapeTooLarge,
    ZeroPolynomial,
)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Shape:
    """Finite non-empty set of cells, stored in canonical (u2, u1) order
    with their bounding box."""

    cells: tuple[tuple[int, int], ...]
    _box: tuple[int, int, int, int] = field(compare=False)

    def __init__(self, cells):
        uniq = sorted({(int(c[0]), int(c[1])) for c in cells}, key=lambda c: (c[1], c[0]))
        if not uniq:
            raise ValueError("a shape needs at least one cell")
        xs = [c[0] for c in uniq]
        box = (min(xs), uniq[0][1], max(xs), uniq[-1][1])  # uniq is sorted by y first
        object.__setattr__(self, "cells", tuple(uniq))
        object.__setattr__(self, "_box", box)

    @classmethod
    def rectangle(cls, n: int, m: int) -> "Shape":
        if n < 1 or m < 1:
            raise ValueError("rectangle sides must be positive")
        shape = object.__new__(cls)  # the cells in canonical order, with the box
        object.__setattr__(shape, "cells", tuple((i, j) for j in range(m) for i in range(n)))
        object.__setattr__(shape, "_box", (0, 0, n - 1, m - 1))
        return shape

    @classmethod
    def plus(cls) -> "Shape":
        return cls([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return f"Shape({list(self.cells)})"

    def bounding_box(self) -> tuple[int, int, int, int]:
        """(min_x, min_y, max_x, max_y) of the cell set."""
        return self._box

    @property
    def extent(self) -> int:
        x0, y0, x1, y1 = self._box
        return max(x1 - x0 + 1, y1 - y0 + 1)

    def negate(self) -> "Shape":
        return Shape((-c[0], -c[1]) for c in self.cells)


@dataclass(frozen=True, slots=True, repr=False)
class Pattern:
    """Assignment of symbols on a shape, values aligned with cell order."""

    shape: Shape
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != len(self.shape):
            raise ValueError("value tuple length must match the shape size")

    def __repr__(self) -> str:
        return f"Pattern({self.values})"


def _canon_value(v):
    if type(v) is int:
        return v
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def _set_rows(carrier, rows, what: str) -> tuple[tuple, ...]:
    """Store the rows of a patch or torus as tuples of canonical values,
    and their alphabet; they must be non-empty and of one length."""
    rows = tuple(tuple(_canon_value(v) for v in row) for row in rows)
    if not rows or not rows[0]:
        raise ValueError(f"{what} must be non-empty")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    object.__setattr__(carrier, "rows", rows)
    object.__setattr__(carrier, "alphabet", frozenset(v for row in rows for v in row))
    return rows


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Patch:
    """Rectangular sample of a configuration; rows[j][i] holds the symbol
    at cell (origin_x + i, origin_y + j)."""

    origin: ExponentVector
    rows: tuple[tuple, ...]
    width: int = field(compare=False)
    height: int = field(compare=False)
    alphabet: frozenset = field(compare=False)

    def __init__(self, origin: ExponentVector, rows):
        rows = _set_rows(self, rows, "patch")
        object.__setattr__(self, "origin", (int(origin[0]), int(origin[1])))
        object.__setattr__(self, "width", len(rows[0]))
        object.__setattr__(self, "height", len(rows))

    def __contains__(self, cell) -> bool:
        x, y = cell
        ox, oy = self.origin
        return ox <= x < ox + self.width and oy <= y < oy + self.height

    def translates(self, width: int, height: int) -> tuple[int, int]:
        """Translates of a width x height box per row and per column; refused if none fits."""
        nx, ny = self.width - width + 1, self.height - height + 1
        if nx < 1 or ny < 1:
            raise ShapeTooLarge(
                f"no translate of the shape fits inside the {self.width}x{self.height} patch"
            )
        return nx, ny

    def value_at(self, cell):
        if cell not in self:
            raise KeyError(f"cell {cell} outside the patch")
        return self.rows[cell[1] - self.origin[1]][cell[0] - self.origin[0]]

    def __repr__(self) -> str:
        return f"Patch(origin={self.origin}, {self.width}x{self.height})"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class TorusConfig:
    """Fully two-periodic configuration with periods (k,0) and (0,l);
    rows[j][i] is the symbol at (i, j) for 0 <= i < k, 0 <= j < l."""

    rows: tuple[tuple, ...]
    k: int = field(compare=False)
    l: int = field(compare=False)
    alphabet: frozenset = field(compare=False)

    def __init__(self, rows):
        rows = _set_rows(self, rows, "torus")
        object.__setattr__(self, "k", len(rows[0]))
        object.__setattr__(self, "l", len(rows))

    def value_at(self, cell):
        x, y = cell
        return self.rows[y % self.l][x % self.k]

    def __repr__(self) -> str:
        return f"TorusConfig({self.k}x{self.l})"


Source = Patch | TorusConfig


# -- pattern extraction and complexity -----------------------------------


def _value_tuples(source: Source, shape: Shape) -> set[tuple]:
    """Distinct value tuples of the shape over every position of the source.

    Both carriers reduce to one grid read at offsets (cx - x0, cy - y0) from
    an nx x ny block of positions: a patch is its own grid, and a torus is
    unrolled to cover every translate of the bounding box, whose cells it
    reads once per residue mod (k, l), mapping the tuples back to them.
    """
    x0, y0, x1, y1 = shape.bounding_box()
    cells, back = shape.cells, None
    if isinstance(source, TorusConfig):
        k, l = source.k, source.l
        nx, ny = k, l
        if x1 - x0 >= k or y1 - y0 >= l:
            residues = [(x0 + (cx - x0) % k, y0 + (cy - y0) % l) for cx, cy in cells]
            cells = list(dict.fromkeys(residues))
            back = itemgetter(*map({c: i for i, c in enumerate(cells)}.get, residues))
            x1, y1 = min(x1, x0 + k - 1), min(y1, y0 + l - 1)
        grid = [
            [source.rows[j % l][i % k] for i in range(x0, x1 + k)] for j in range(y0, y1 + l)
        ]
    else:
        nx, ny = source.translates(x1 - x0 + 1, y1 - y0 + 1)
        grid = source.rows
    columns = [
        [v for row in grid[cy - y0 : cy - y0 + ny] for v in row[cx - x0 : cx - x0 + nx]]
        for cx, cy in cells
    ]
    tuples = set(zip(*columns))
    return set(map(back, tuples)) if back else tuples


def extract_patterns(source: Source, shape: Shape) -> set[Pattern]:
    """All shape-patterns appearing in the source.

    For a torus this equals the pattern set of the infinite configuration;
    for a patch it covers exactly the fully contained translates.
    """
    return {Pattern(shape, values) for values in _value_tuples(source, shape)}


def complexity(source: Source, shape: Shape) -> tuple[int, bool]:
    """Number of distinct shape-patterns and the low-complexity flag
    (count <= number of cells)."""
    count = len(_value_tuples(source, shape))
    return count, count <= len(shape)


# an entry costs about 1.2 KB with its JSON: 2^18 of them fit in a 512 MB address space
MAX_PROFILE_ENTRIES = 1 << 18


def rectangle_complexity_profile(
    source: Source, nmax: int, mmax: int
) -> dict[tuple[int, int], tuple[int, bool]]:
    """Complexity of every n x m rectangle with n <= nmax, m <= mmax: each
    row is cut once per width n into its length-n segments, and the n x m
    patterns are the tuples of m stacked segments. A table of more than
    MAX_PROFILE_ENTRIES entries is refused before any is counted."""
    if nmax < 1 or mmax < 1:
        raise ValueError("rectangle bounds must be positive")
    torus = isinstance(source, TorusConfig)
    if not torus and (nmax > source.width or mmax > source.height):
        raise ShapeTooLarge("requested rectangles exceed the patch")
    InputTooLarge.check(nmax * mmax, MAX_PROFILE_ENTRIES, "profile entries")
    w, h = (source.k, source.l) if torus else (source.width, source.height)
    nk, ml = min(nmax, w), min(mmax, h)
    rows = source.rows
    if torus:
        # an n x m pattern on a k x l torus repeats its min(n, k) x min(m, l)
        # corner, so only the corners are counted, on rows extended to hold them
        rows = [r + r[: nk - 1] for r in rows]
        rows += rows[: ml - 1]
    counts = {}
    for n in range(1, nk + 1):
        segments = [[r[i : i + n] for i in range(w if torus else w - n + 1)] for r in rows]
        for m in range(1, ml + 1):
            seen = set()
            for j in range(h if torus else h - m + 1):
                seen.update(zip(*segments[j : j + m]))
            counts[(n, m)] = len(seen)
    table = {}
    for n in range(1, nmax + 1):
        for m in range(1, mmax + 1):
            count = counts[(min(n, nk), min(m, ml))]
            table[(n, m)] = (count, count <= n * m)
    return table


# -- polynomial action ----------------------------------------------------


def _product(f: LaurentPoly, source: Source, fit: Shape | None = None):
    """The product f c from the raw rows: (region, den, rows).

    ``rows`` yields (y, values), y increasing, with den * (f c) at (x0 + i,
    y) equal to values[i]: x0 is 0 on a torus (region None) and region[0]
    on a patch, whose valid region is ``region``. Over F_p values are
    reduced to [0, p). With a shape ``fit``, the region of a patch keeps only the
    positions u with u + fit inside it. Raises EmptyValidRegion when the
    region of a patch is empty, before any symbol is read.
    """
    dom = f.domain
    # den * f vanishes exactly where f does, and int sums beat Fraction sums
    terms, den = _cleared(f)
    if isinstance(source, TorusConfig):
        region, w = None, 0
        k, l = source.k, source.l
        # offsets in (-k, 0] and (-l, 0]: negative indexing does the wrap
        terms = [(c, -(vx % k), -(vy % l)) for (vx, vy), c in terms.items()]
        yr = range(l)
    else:
        ox, oy = source.origin
        xs, ys = zip(*f.terms)
        x0, x1 = ox + max(xs), ox + source.width - 1 + min(xs)
        y0, y1 = oy + max(ys), oy + source.height - 1 + min(ys)
        if fit is not None:
            fx0, fy0, fx1, fy1 = fit.bounding_box()
            x0, x1 = max(x0, ox - fx0), min(x1, ox + source.width - 1 - fx1)
            y0, y1 = max(y0, oy - fy0), min(y1, oy + source.height - 1 - fy1)
        if x0 > x1 or y0 > y1:
            raise EmptyValidRegion("support of the polynomial exceeds the patch")
        region, w = (x0, y0, x1, y1), x1 - x0 + 1
        # the slice of row y - vy - oy from x0 - vx - ox, w cells long
        terms = [(c, x0 - vx - ox, -vy - oy) for (vx, vy), c in terms.items()]
        yr = range(y0, y1 + 1)
    return region, den, _cells(_domain_rows(source, dom), terms, yr, w, dom.p)


def _cells(rows, terms, yr, w, p):
    """(y, sums of c * rows[y + dy][dx : dx + w] over the terms (c, dx, dy))
    for y in yr, by map at C level and reduced mod p when p is given; w = 0
    reads the whole row rotated by dx instead."""
    for y in yr:
        acc = repeat(0)
        for c, dx, dy in terms:
            r = rows[y + dy]
            seg = r[dx : dx + w] if w else r[dx:] + r[:dx]
            if c == 1 or c == -1:
                acc = map(add if c == 1 else sub, acc, seg)
            else:
                acc = map(add, acc, map(mul, repeat(c), seg))
        yield y, ([v % p for v in acc] if p else list(acc))


def apply_poly(f: LaurentPoly, source: Source, fit: Shape | None = None) -> Source:
    """Multiply the configuration by f: value at u is sum_v f_v c_{u-v}.

    A torus maps to a torus with the same periods (exact everywhere). A
    patch maps to the patch of values on the valid region, the original
    region eroded by the support of f (and by the shape ``fit``, if given,
    to the positions where it fits).
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot apply the zero polynomial")
    region, den, rows = _product(f, source, fit)
    out = [row if den == 1 else [Fraction(v, den) for v in row] for _, row in rows]
    return TorusConfig(out) if region is None else Patch(region[:2], out)


@dataclass(frozen=True)
class AnnihilationCheck:
    """Outcome of an annihilation test.

    ``yes`` is an exact global verdict (torus only); ``yes_on_region`` says
    the product vanishes on the whole observed valid region of a patch
    (evidence, not proof); ``no`` carries a witness cell.
    """

    kind: str  # "yes" | "yes_on_region" | "no"
    witness: ExponentVector | None = None
    region: tuple[int, int, int, int] | None = None  # (x0, y0, x1, y1)

    @property
    def annihilated(self) -> bool:
        return self.kind != "no"


def _domain_rows(source: Source, dom):
    """The source rows as values of the domain: the rows themselves when
    every symbol is a plain int, else each symbol mapped once through
    Domain.coerce, in first-appearance order, so that a symbol outside the
    domain raises the error Domain.coerce gives it."""
    for s in source.alphabet:
        if type(s) is not int:
            break
    else:
        return source.rows
    image = {s: dom.coerce(s) for s in dict.fromkeys(v for row in source.rows for v in row)}
    return [[image[v] for v in row] for row in source.rows]


def is_annihilated(source: Source, f: LaurentPoly, fit: Shape | None = None) -> AnnihilationCheck:
    """Test whether f annihilates the source configuration.

    The product is summed row by row from the raw rows, and the test stops
    at the first nonzero row, whose first nonzero cell is the ``witness``:
    the first in fundamental order (row by row from (0, 0)) on a torus, in
    row-major order over the valid region on a patch (kept to the positions
    where the shape ``fit`` fits, if given). Raises EmptyValidRegion when
    that region is empty.
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial annihilates everything")
    region, _, rows = _product(f, source, fit)
    for y, row in rows:
        if any(row):
            x = next(i for i, v in enumerate(row) if v)
            return AnnihilationCheck("no", witness=(x + (region[0] if region else 0), y))
    if region is None:
        return AnnihilationCheck("yes")
    return AnnihilationCheck("yes_on_region", region=region)


# -- periodicity ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Lattice:
    """Lattice of Z^2 with the Hermite basis (a, 0), (c, d): a, d >= 1 and
    0 <= c < a (Cohen, A Course in Computational Algebraic Number Theory,
    2.4), whose a x d box is a fundamental domain. It is the period lattice
    of a torus (``Lattice.of``) and each lattice the SFT search tries."""

    a: int
    c: int
    d: int

    def __post_init__(self):
        if self.a < 1 or self.d < 1:
            raise ValueError("torus periods must be positive")
        if not 0 <= self.c < self.a:
            raise ValueError("the shear must lie in [0, k)")

    @classmethod
    def of(cls, torus: TorusConfig) -> Lattice:
        """The period lattice of the torus, the t with c_{u+t} = c_u for
        every u (a | k, d | l): a is the least rotation that fixes every row,
        d the least row step for which some c < a turns each row j + d onto row j."""
        rows, k, l = torus.rows, torus.k, torus.l
        a = next(a for a in range(1, k + 1) if not k % a and all(r[a:] + r[:a] == r for r in rows))
        return next(
            cls(a, c, d)
            for d in range(1, l + 1)
            if l % d == 0
            for c in range(a)
            if all(rows[j] == rows[(j + d) % l][c:] + rows[(j + d) % l][:c] for j in range(l))
        )

    def __contains__(self, t: ExponentVector) -> bool:
        """Whether t = (t1 / d) (c, d) + m (a, 0) for an integer m."""
        return t[1] % self.d == 0 and (t[0] - t[1] // self.d * self.c) % self.a == 0

    def least_multiple(self, u: ExponentVector) -> int:
        """Minimal n >= 1 with n*u in the lattice, in closed form: d | n*u1
        iff n1 = d / gcd(d, u1) divides n, and then a | (n / n1) e, with
        e = n1*u0 - (n1*u1 / d) c, iff a / gcd(a, e) divides n / n1."""
        a, c, d = self.a, self.c, self.d
        n1 = d // math.gcd(d, u[1])
        return n1 * a // math.gcd(a, n1 * u[0] - n1 * u[1] // d * c)

    @property
    def index(self) -> int:
        return self.a * self.d


def detect_periods(torus: TorusConfig) -> dict[ExponentVector, int]:
    """Minimal multiple n per primitive direction u such that n*u is a
    period, for every direction with max-norm at most max(k, l)."""
    lattice = Lattice.of(torus)
    dirs = sorted(u for u in _half_plane(max(torus.k, torus.l)) if math.gcd(*u) == 1)
    return {u: lattice.least_multiple(u) for u in dirs}


def period_from_line_annihilator(f: LaurentPoly, source: TorusConfig) -> int:
    """Minimal n >= 1 such that n*u is a period of the torus, where u is
    the direction of the annihilating line polynomial f."""
    u = line_direction_of(f)
    if u is None:
        raise NotALinePolynomial(f"{f} is not a line polynomial")
    if not is_annihilated(source, f).annihilated:
        raise NotAnnihilated(f"{f} does not annihilate the torus")
    return Lattice.of(source).least_multiple(u)


def period_lattice_index(torus: TorusConfig) -> int:
    """Index in Z^2 of the full period lattice of the configuration."""
    return Lattice.of(torus).index

