"""Line-polynomial structure of annihilators and what it forces.

Every annihilator factors as a monomial times line polynomials times a
line-factor-free remainder. The shape of that factorization classifies the
configurations the polynomial annihilates or periodizes: no line factors
forces two-periodicity, a single common direction forces periodicity in
that direction, and several directions leave an order upper bound. Over a
prime field, resultant elimination can upgrade a pair of annihilators to
axis-periodicity conclusions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    ExponentVector,
    LaurentPoly,
    direction_content,
    line_direction_candidates,
    split_direction,
    univariate_resultant,
)
from .errors import DomainMismatch, ZeroPolynomial

TWO_PERIODIC = "two_periodic"
PERIODIC_IN_DIRECTION = "periodic_in_direction"
UNDETERMINED = "undetermined"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LineDecomposition:
    """f = x^monomial * product(factor polys) * remainder, exactly.

    Factors are line polynomials in pairwise linearly independent
    directions, merged per direction; the remainder carries no line
    factors (certified against its own candidate directions).
    """

    monomial: ExponentVector
    factors: tuple[tuple[ExponentVector, LaurentPoly], ...]
    remainder: LaurentPoly

    def directions(self) -> tuple[ExponentVector, ...]:
        return tuple(d for d, _ in self.factors)

    def product(self) -> LaurentPoly:
        out = LaurentPoly.monomial(self.remainder.domain, self.monomial)
        for _, p in self.factors:
            out = out * p
        return out * self.remainder


@dataclass(frozen=True)
class PeriodicityVerdict:
    kind: str  # TWO_PERIODIC | PERIODIC_IN_DIRECTION | UNDETERMINED
    direction: ExponentVector | None = None
    order_upper_bound: int | None = None


def line_factor_decomposition(f: LaurentPoly) -> LineDecomposition:
    """Split off all line-polynomial factors of f, one direction at a time.

    Candidate directions come from parallel edge pairs of the Newton
    polygon; extracting the full per-direction content removes every line
    factor in that direction at once, and the same pass gives the cofactor.
    """
    if f.is_zero:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    work = f
    factors = []
    for u in sorted(line_direction_candidates(f)):
        g, work = split_direction(work, u)
        if g.num_terms >= 2:
            factors.append((u, g))
    monomial = work.min_exponents()
    remainder = work.shift((-monomial[0], -monomial[1]))
    for u in sorted(line_direction_candidates(remainder)):
        leftover = direction_content(remainder, u)
        if leftover.num_terms >= 2:
            raise AssertionError(f"remainder kept a line factor in direction {u}")
    return LineDecomposition(monomial=monomial, factors=tuple(factors), remainder=remainder)


def classify(f: LaurentPoly) -> PeriodicityVerdict:
    """Periodicity forced on any configuration that f annihilates or
    periodizes, read off from the line-factor structure. The verdict is one
    for both roles: if f * c is constant, (x^t - 1) * f annihilates c for
    every t, and its line factors outside direction t are f's."""
    decomp = line_factor_decomposition(f)
    dirs = decomp.directions()
    if not dirs:
        return PeriodicityVerdict(kind=TWO_PERIODIC)
    if len(dirs) == 1:
        return PeriodicityVerdict(kind=PERIODIC_IN_DIRECTION, direction=dirs[0])
    return PeriodicityVerdict(kind=UNDETERMINED, order_upper_bound=len(dirs))


@dataclass(frozen=True)
class EliminationEntry:
    variable: int
    resultant: LaurentPoly | None
    nonzero: bool
    axis: ExponentVector


@dataclass(frozen=True)
class EliminationReport:
    entries: tuple[EliminationEntry, ...]
    verdict: str  # TWO_PERIODIC | PERIODIC_IN_DIRECTION | INCONCLUSIVE
    direction: ExponentVector | None = None


def _extent_in_var(f: LaurentPoly, var: int) -> int:
    vi = var - 1
    exps = [e[vi] for e in f.terms]
    return max(exps) - min(exps)


def eliminate_and_classify_fp(f: LaurentPoly, g: LaurentPoly) -> EliminationReport:
    """Eliminate each variable from a pair of prime-field annihilators.

    A nonzero eliminant is a polynomial in one variable lying in the ideal
    generated by f and g, hence an annihilator of any configuration killed
    by both; that forces periodicity along the corresponding axis, and two
    nonzero eliminants force two-periodicity. If one input already avoids
    the eliminated variable it serves as the eliminant itself.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("elimination needs nonzero inputs")
    if f.domain != g.domain:
        raise DomainMismatch(f"{f.domain.name} vs {g.domain.name}")
    if f.domain.kind != "Fp":
        raise DomainMismatch("elimination runs over a prime field")
    entries = []
    for var in (1, 2):
        # eliminating var leaves a polynomial in the other variable
        other_axis = (0, 1) if var == 1 else (1, 0)
        if _extent_in_var(f, var) == 0:
            r = f
        elif _extent_in_var(g, var) == 0:
            r = g
        else:
            r = univariate_resultant(f, g, var)
        entries.append(
            EliminationEntry(variable=var, resultant=r, nonzero=not r.is_zero, axis=other_axis)
        )
    nonzero = [e for e in entries if e.nonzero]
    if len(nonzero) == 2:
        return EliminationReport(entries=tuple(entries), verdict=TWO_PERIODIC)
    if len(nonzero) == 1:
        return EliminationReport(
            entries=tuple(entries), verdict=PERIODIC_IN_DIRECTION, direction=nonzero[0].axis
        )
    return EliminationReport(entries=tuple(entries), verdict=INCONCLUSIVE)
