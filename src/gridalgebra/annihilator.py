"""Annihilator construction from low-complexity pattern data.

A set of at most |D| patterns over a shape D pins down a nonzero Laurent
polynomial whose inner product with every pattern vector vanishes (direct
annihilator) or is constant (periodizer); in the second case multiplying
by x - 1 yields an annihilator. A complementary bounded search looks for
annihilators that are products of difference binomials x^t - 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .algebra import ExponentVector, LaurentPoly, QQ, ZZ, _half_plane, normalize_direction
from .configuration import (
    AnnihilationCheck,
    Pattern,
    Patch,
    Shape,
    TorusConfig,
    apply_poly,
    is_annihilated,
)
from .errors import DegeneratePatterns, EmptyValidRegion, NotLowComplexity

DIRECT = "direct"
PERIODIZER_TIMES_BINOMIAL = "periodizer_times_binomial"


@dataclass(frozen=True)
class AnnihilatorResult:
    """Nonzero annihilator f; for the periodizer kind, f = (x - 1) * g
    where g times the data is the stored constant on the observed region."""

    kind: str
    poly: LaurentPoly
    periodizer: LaurentPoly | None = None
    constant: int | None = None


def _row_echelon_fraction_free(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Bareiss row echelon form of an integer matrix; returns the reduced
    rows and the pivot column indices. Every division by the previous
    pivot is exact (each entry is a minor of the input); a remainder
    raises AssertionError."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            for j in range(c + 1, ncols):
                q, rem = divmod(rows[r][c] * rows[i][j] - rows[i][c] * rows[r][j], prev)
                if rem:
                    raise AssertionError("inexact division in fraction-free elimination")
                rows[i][j] = q
            rows[i][c] = 0
        prev = rows[r][c]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _kernel_vector(matrix: list[list[int]], ncols: int) -> list[int] | None:
    """Canonical kernel vector of an integer matrix: the basis vector of
    the first free column, cleared to coprime integers with positive first
    nonzero entry. None when the kernel is trivial."""
    echelon, pivots = _row_echelon_fraction_free(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    j = free[0]
    v = [Fraction(0)] * ncols
    v[j] = Fraction(1)
    for row, pc in reversed(list(zip(echelon, pivots))):
        s = sum((Fraction(row[c]) * v[c] for c in range(pc + 1, ncols)), Fraction(0))
        v[pc] = -s / row[pc]
    den = 1
    for c in v:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in v]
    g = 0
    for c in ints:
        g = math.gcd(g, abs(c))
    ints = [c // g for c in ints]
    first = next(c for c in ints if c != 0)
    if first < 0:
        ints = [-c for c in ints]
    return ints


def _poly_from_cell_vector(shape: Shape, v: list[int]) -> LaurentPoly:
    # coefficient for cell d sits at exponent -d, so that (f c)_u is the
    # inner product of v with the pattern at position u
    return LaurentPoly(QQ, {(-d[0], -d[1]): c for d, c in zip(shape.cells, v) if c != 0})


def find_annihilator(patterns: set[Pattern]) -> AnnihilatorResult:
    """Construct a nonzero annihilator from a low-complexity pattern set.

    Case 1: the pattern vectors do not span Q^D; any kernel vector of the
    pattern matrix gives a polynomial with zero inner product against every
    supplied pattern. Case 2: they span (then there are exactly |D| of
    them); a vector orthogonal to all pattern differences periodizes the
    data to a constant, and (x - 1) times it annihilates.
    """
    pats = sorted(patterns, key=lambda p: p.values)
    if not pats:
        raise ValueError("need at least one pattern")
    shape = pats[0].shape
    if any(p.shape != shape for p in pats):
        raise ValueError("patterns must share one shape")
    if len(pats) > len(shape):
        raise NotLowComplexity(f"{len(pats)} patterns on {len(shape)} cells")

    matrix = [list(p.values) for p in pats]
    v = _kernel_vector(matrix, len(shape))
    if v is not None:
        return AnnihilatorResult(kind=DIRECT, poly=_poly_from_cell_vector(shape, v))

    # spanning case: |patterns| == |D|; differences leave a nonzero
    # orthogonal vector
    base = matrix[0]
    diffs = [[a - b for a, b in zip(row, base)] for row in matrix[1:]]
    if not diffs:
        diffs = [[0] * len(shape)]
    w = _kernel_vector(diffs, len(shape))
    if w is None:
        raise DegeneratePatterns("differences of <= |D| patterns cannot span Q^D")
    periodizer = _poly_from_cell_vector(shape, w)
    constant = sum(a * b for a, b in zip(w, base))
    binomial = LaurentPoly.difference_binomial(QQ, (1, 0))
    return AnnihilatorResult(
        kind=PERIODIZER_TIMES_BINOMIAL,
        poly=binomial * periodizer,
        periodizer=periodizer,
        constant=constant,
    )


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    annihilation: AnnihilationCheck
    constant_ok: bool | None = None
    observed_constant: int | None = None

    @property
    def witness(self) -> ExponentVector | None:
        return self.annihilation.witness


def verify(result: AnnihilatorResult, source: Patch | TorusConfig) -> VerificationReport:
    """Re-check an annihilator result against configuration data."""
    check = is_annihilated(source, result.poly)
    if result.kind == DIRECT:
        return VerificationReport(passed=check.annihilated, annihilation=check)
    product = apply_poly(result.periodizer, source)
    values = {v for row in product.rows for v in row}
    observed = values.pop() if len(values) == 1 else None
    constant_ok = observed is not None and observed == result.constant
    return VerificationReport(
        passed=check.annihilated and constant_ok,
        annihilation=check,
        constant_ok=constant_ok,
        observed_constant=observed,
    )


def find_binomial_product_annihilator(
    source: Patch | TorusConfig,
    max_norm: int,
    max_factors: int = 3,
) -> tuple[ExponentVector, ...] | None:
    """Smallest product of difference binomials annihilating the source.

    Tuples are searched by increasing factor count, then in lexicographic
    order over the canonical vector order; vectors are pairwise linearly
    independent with max-norm at most max_norm. The first hit in that
    order is returned, so the result is deterministic.

    No product is multiplied out: it annihilates c iff x^tm - 1 annihilates
    the prefix difference (x^t1 - 1)...(x^t(m-1) - 1) c, and lexicographic
    order builds each prefix difference once, from its own prefix's. Tuples
    that outgrow a patch are skipped; EmptyValidRegion only if all do.
    """
    if max_norm < 1:
        raise ValueError("max_norm must be at least 1")
    if not 1 <= max_factors <= 3:
        raise ValueError("max_factors must be between 1 and 3")
    candidates = _half_plane(max_norm)
    binomial = partial(LaurentPoly.difference_binomial, ZZ)
    skipped_all = True
    for m in range(1, max_factors + 1):
        # chain[i] is (ti, (x^t1 - 1)...(x^ti - 1) c) for the current prefix
        chain = [(None, source)]
        for ts in itertools.combinations(candidates, m):
            if len({normalize_direction(t) for t in ts}) < m:
                continue
            keep = next((i for i, (t, _) in enumerate(chain[1:]) if t != ts[i]), len(chain) - 1)
            del chain[keep + 1 :]
            try:
                for t in ts[keep:-1]:
                    chain.append((t, apply_poly(binomial(t), chain[-1][1])))
                hit = is_annihilated(chain[-1][1], binomial(ts[-1])).annihilated
            except EmptyValidRegion:
                continue
            skipped_all = False
            if hit:
                return ts
    if skipped_all:
        raise EmptyValidRegion("every candidate product outgrows the patch")
    return None
