"""Worked application families: antenna placement and cluster co-tilers.

Antenna problems ask for {0,1} configurations whose broadcast counts are
exactly b on antenna cells and a elsewhere; such configurations are
periodized by the range polynomial minus (b - a), so its line-factor
structure classifies all solutions. Cluster co-tilers are exact covers of
the grid by translates of a finite tile; they form a low-complexity SFT
with one allowed pattern per tile cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MAX_DENSE_ENTRIES, LaurentPoly, ZZ
from .configuration import Pattern, Shape, TorusConfig, _product
from .errors import InputTooLarge, InvalidAlphabet
from .linestructure import UNDETERMINED, PeriodicityVerdict, classify
from .sft import Budget, Decision, SftSpec, decide


@dataclass(frozen=True)
class AntennaProblem:
    """Broadcast range D; a broadcasts received at non-antenna cells and b
    at antenna cells."""

    shape: Shape
    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("broadcast counts must be non-negative")


@dataclass(frozen=True)
class ClusterTile:
    shape: Shape


def antenna_polynomial(problem: AntennaProblem) -> LaurentPoly:
    """Range-sum polynomial minus (b - a), over Z."""
    terms = {cell: 1 for cell in problem.shape.cells}
    f = LaurentPoly(ZZ, terms)
    return f - LaurentPoly.constant(ZZ, problem.b - problem.a)


def antenna_classify(problem: AntennaProblem) -> PeriodicityVerdict:
    """Periodicity forced on every solution of the antenna problem.

    The range polynomial minus (b - a) maps any solution to the constant-a
    configuration, so it periodizes every solution and its line-factor
    structure applies. With D = {0} and b - a = 1 it is zero and periodizes
    every configuration, so nothing is forced: the verdict is undetermined.
    """
    f = antenna_polynomial(problem)
    if f.is_zero:
        return PeriodicityVerdict(kind=UNDETERMINED)
    return classify(f)


def antenna_verify(config: TorusConfig, problem: AntennaProblem) -> bool:
    """Exact check that the torus solves the antenna problem: the range
    sum at every cell equals (b - a) * c + a."""
    return _range_sum_is(config, problem.shape, problem.b - problem.a, problem.a, "antenna")


def _range_sum_is(config: TorusConfig, shape: Shape, d: int, a: int, what: str) -> bool:
    """Whether the range sum, the sum of c_(u - v) over the shape cells v,
    equals d * c_u + a at every cell u of the torus; raises InvalidAlphabet,
    naming the ``what`` configurations, unless the torus is over {0, 1}."""
    if not config.alphabet <= {0, 1}:
        raise InvalidAlphabet(f"{what} configurations are over {{0, 1}}")
    # the range sum, not antenna_polynomial: that is zero when D = {0}, b - a = 1
    _, _, rows = _product(LaurentPoly(ZZ, {cell: 1 for cell in shape.cells}), config)
    return all(s == [d * v + a for v in config.rows[y]] for y, s in rows)


def cotiler_sft(tile: ClusterTile) -> SftSpec:
    """Co-tiler SFT of a cluster tile: over the reflected shape, the
    allowed patterns are exactly those containing a single 1."""
    InputTooLarge.check(len(tile.shape) ** 2, MAX_DENSE_ENTRIES, "co-tiler pattern values")
    shape = tile.shape.negate()
    allowed = set()
    for i in range(len(shape)):
        values = [0] * len(shape)
        values[i] = 1
        allowed.add(Pattern(shape, tuple(values)))
    return SftSpec(shape, (0, 1), allowed)


def exact_cover_on_torus(tile: ClusterTile, config: TorusConfig) -> bool:
    """Every cell covered exactly once by tile translates placed at the
    1-cells of the torus configuration: the antenna condition with range
    the tile and a = b = 1."""
    return _range_sum_is(config, tile.shape, 0, 1, "co-tiler")


def cotiler_decision(tile: ClusterTile, budget: Budget = Budget()) -> Decision:
    """Full decision object for the co-tiler SFT (used by the CLI)."""
    return decide(cotiler_sft(tile), budget)
