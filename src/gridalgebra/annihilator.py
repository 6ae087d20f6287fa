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
from dataclasses import dataclass, field
from functools import partial

from .algebra import ExponentVector, LaurentPoly, QQ, ZZ, _half_plane, normalize_direction
from .configuration import (
    AnnihilationCheck,
    Lattice,
    Pattern,
    Patch,
    Shape,
    TorusConfig,
    _domain_rows,
    apply_poly,
    is_annihilated,
)
from .errors import EmptyValidRegion, NotLowComplexity

DIRECT = "direct"
PERIODIZER_TIMES_BINOMIAL = "periodizer_times_binomial"


@dataclass(frozen=True)
class AnnihilatorResult:
    """Nonzero annihilator f; for the periodizer kind, f = (x - 1) * g
    where g times the data is the stored constant on the observed region.
    ``shape`` is the shape of the patterns it was read from; it says where
    the claims hold and takes no part in equality."""

    kind: str
    poly: LaurentPoly
    periodizer: LaurentPoly | None = None
    constant: int | None = None
    shape: Shape | None = field(default=None, compare=False)


def _kernel_vector(rows: list[list[int]]) -> list[int]:
    """Canonical kernel vector of an integer matrix with more columns than
    rows: for the first column j without a pivot, the vector with v_j = 1
    that is zero beyond j, cleared to coprime integers with positive first
    nonzero entry.

    One fraction-free Gauss-Jordan pass, column by column, stops at j. Each
    step divides by the previous pivot exactly (every entry is a minor of
    the input), and every column before j has a pivot, so rows 0..j-1 hold
    d times the identity in columns 0..j-1, d the last pivot; the vector is
    (-R[0][j], ..., -R[j-1][j], d, 0, ..., 0) up to scale."""
    m = [list(row) for row in rows]
    j, d = 0, 1
    while (piv := next((i for i in range(j, len(m)) if m[i][j]), None)) is not None:
        m[j], m[piv] = m[piv], m[j]
        top = m[j][j:]
        for i, row in enumerate(m):
            if i != j:
                f = row[j]
                row[j:] = [(top[0] * a - f * b) // d for a, b in zip(row[j:], top)]
        d = top[0]
        j += 1
    v = [-row[j] for row in m[:j]] + [d] + [0] * (len(m[0]) - j - 1)
    g = math.gcd(*v) * (1 if next(c for c in v if c) > 0 else -1)
    return [c // g for c in v]


def _poly_from_cell_vector(shape: Shape, v: list[int]) -> LaurentPoly:
    # coefficient for cell d sits at exponent -d, so that (f c)_u is the
    # inner product of v with the pattern at position u
    return LaurentPoly(QQ, {(-d[0], -d[1]): c for d, c in zip(shape.cells, v) if c != 0})


def find_annihilator(patterns: set[Pattern]) -> AnnihilatorResult:
    """Construct a nonzero annihilator from a low-complexity pattern set.

    With P the sorted pattern vectors, a kernel vector (w, c) of [P | -1]
    has p . w = c for every pattern p; m <= |D| rows in |D| + 1 columns
    always leave one. The constant is 0 exactly when P itself has a kernel
    vector: then w is a direct annihilator. Otherwise w periodizes the data
    to the constant c, and (x - 1) times it annihilates.
    """
    pats = sorted(patterns, key=lambda p: p.values)
    if not pats:
        raise ValueError("need at least one pattern")
    shape = pats[0].shape
    if any(p.shape != shape for p in pats):
        raise ValueError("patterns must share one shape")
    if len(pats) > len(shape):
        raise NotLowComplexity(f"{len(pats)} patterns on {len(shape)} cells")

    *w, constant = _kernel_vector([[*p.values, -1] for p in pats])
    g = _poly_from_cell_vector(shape, w)
    if constant == 0:
        return AnnihilatorResult(kind=DIRECT, poly=g, shape=shape)
    return AnnihilatorResult(
        kind=PERIODIZER_TIMES_BINOMIAL,
        poly=LaurentPoly.difference_binomial(QQ, (1, 0)) * g,
        periodizer=g,
        constant=constant,
        shape=shape,
    )


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    annihilation: AnnihilationCheck
    constant_ok: bool | None = None
    identity_ok: bool | None = None


def verify(result: AnnihilatorResult, source: Patch | TorusConfig) -> VerificationReport:
    """Re-check an annihilator result against configuration data. For the
    periodizer kind, also that poly = (x - 1) * periodizer and that the
    periodizer maps the data to the stored constant.

    On a patch, a result that records its pattern shape is checked only at
    the positions the patterns came from, where that shape fits; poly, as
    (x - 1) times the periodizer, where it fits at both u and u - (1, 0)."""
    fit = result.shape
    if result.kind == DIRECT:
        check = is_annihilated(source, result.poly, fit=fit)
        return VerificationReport(passed=check.annihilated, annihilation=check)
    g = result.periodizer
    pair = fit and Shape(fit.cells + tuple((x - 1, y) for x, y in fit.cells))
    check = is_annihilated(source, result.poly, fit=pair)
    identity_ok = result.poly == LaurentPoly.difference_binomial(g.domain, (1, 0)) * g
    product = apply_poly(g, source, fit=fit)
    constant_ok = {v for row in product.rows for v in row} == {result.constant}
    return VerificationReport(
        passed=check.annihilated and constant_ok and identity_ok,
        annihilation=check,
        constant_ok=constant_ok,
        identity_ok=identity_ok,
    )


def _shift_agrees(rows, t: ExponentVector) -> bool:
    """Whether x^t - 1 annihilates the patch with these rows on the valid region
    of is_annihilated: rows[y][x0:x1] == rows[y - t1][x0 - t0 : x1 - t0] for
    each row y of it. Raises EmptyValidRegion, reading no symbol, if it is empty."""
    tx, ty = t
    x0, x1 = max(tx, 0), len(rows[0]) + min(tx, 0)
    y0, y1 = max(ty, 0), len(rows) + min(ty, 0)
    if x0 >= x1 or y0 >= y1:
        raise EmptyValidRegion("support of the binomial exceeds the patch")
    return all(rows[y][x0:x1] == rows[y - ty][x0 - tx : x1 - tx] for y in range(y0, y1))


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
    order builds each prefix difference once, from its own prefix's. On a
    torus, x^t - 1 annihilates a prefix iff t is a period of it, so each
    prefix keeps its period lattice; on a patch, iff its rows agree with
    themselves shifted by t. Tuples that outgrow a patch are skipped. Only
    a 1x1 patch outgrows them all, since (1, 0) fits any patch 2 wide and
    (0, 1) any patch 2 tall: it raises EmptyValidRegion before the search,
    reading no symbol. Every other source has its symbols coerced to Z once,
    before the search, so a symbol outside Z raises as in is_annihilated.
    """
    if max_norm < 1:
        raise ValueError("max_norm must be at least 1")
    if not 1 <= max_factors <= 3:
        raise ValueError("max_factors must be between 1 and 3")
    torus = isinstance(source, TorusConfig)
    if not torus and source.width == source.height == 1:
        raise EmptyValidRegion("every candidate product outgrows the patch")
    _domain_rows(source, ZZ)  # Z coerces a symbol to an equal value or raises
    candidates = _half_plane(max_norm)
    binomial = partial(LaurentPoly.difference_binomial, ZZ)
    # chain[i] is (ti, (x^t1 - 1)...(x^ti - 1) c, its period lattice on a torus)
    root = (None, source, Lattice.of(source) if torus else None)
    for m in range(1, max_factors + 1):
        chain = [root]
        for ts in itertools.combinations(candidates, m):
            if m > 1 and len({normalize_direction(t) for t in ts}) < m:
                continue
            keep = next((i for i, (t, _, _) in enumerate(chain[1:]) if t != ts[i]), len(chain) - 1)
            del chain[keep + 1 :]
            try:
                for t in ts[keep:-1]:
                    prefix = apply_poly(binomial(t), chain[-1][1])
                    chain.append((t, prefix, Lattice.of(prefix) if torus else None))
                (_, prefix, lattice), t = chain[-1], ts[-1]
                hit = t in lattice if torus else _shift_agrees(prefix.rows, t)
            except EmptyValidRegion:
                continue
            if hit:
                return ts
    return None
