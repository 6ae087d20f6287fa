"""Antenna problems and cluster co-tilers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridalgebra import (
    AntennaProblem,
    Budget,
    ClusterTile,
    LaurentPoly,
    Shape,
    TorusConfig,
    ZZ,
    antenna_classify,
    antenna_polynomial,
    antenna_verify,
    apply_poly,
    cotiler_sft,
    exact_cover_on_torus,
    verify_witness,
)
from gridalgebra import applications
from gridalgebra.applications import cotiler_decision
from gridalgebra.errors import InputTooLarge, InvalidAlphabet
from gridalgebra.formats import poly_from_text
from gridalgebra.linestructure import (
    PERIODIC_IN_DIRECTION,
    TWO_PERIODIC,
    UNDETERMINED,
    PeriodicityVerdict,
)
from gridalgebra.sft import NONEMPTY

from helpers import brute_force_exact_cover, torus_cells

PLUS = Shape.plus()


def lee_code_5x5():
    """Diagonal perfect code for the plus shape: ones on the lattice
    generated by (1,2) and (2,-1)."""
    return TorusConfig([[1 if (i + 2 * j) % 5 == 0 else 0 for i in range(5)] for j in range(5)])


def test_antenna_polynomial_plus_boundary():
    p = AntennaProblem(PLUS, a=0, b=1)
    f = antenna_polynomial(p)
    # b - a = 1 swallows the origin term of the plus polynomial
    assert f == poly_from_text("x + x^-1 + y + y^-1")


def test_antenna_polynomial_plus_zero_difference():
    p = AntennaProblem(PLUS, a=1, b=1)
    assert antenna_polynomial(p) == poly_from_text("1 + x + x^-1 + y + y^-1")


def test_antenna_polynomial_singleton():
    p = AntennaProblem(Shape([(0, 0)]), a=0, b=2)
    assert antenna_polynomial(p) == LaurentPoly.constant(ZZ, -1)


def test_antenna_classify_plus_difference_zero():
    assert antenna_classify(AntennaProblem(PLUS, a=1, b=1)).kind == TWO_PERIODIC
    assert antenna_classify(AntennaProblem(PLUS, a=2, b=2)).kind == TWO_PERIODIC


def test_antenna_classify_plus_boundary_case():
    # b - a = 1: the polynomial factors into two diagonal line polynomials
    # (x + y)(1 + x^-1 y^-1), so two-periodicity is NOT forced
    verdict = antenna_classify(AntennaProblem(PLUS, a=0, b=1))
    assert verdict.kind == UNDETERMINED
    assert verdict.order_upper_bound == 2
    f = antenna_polynomial(AntennaProblem(PLUS, a=0, b=1))
    diag = poly_from_text("x + y") * poly_from_text("1 + x^-1*y^-1")
    assert f == diag


def test_antenna_classify_domino_cases():
    domino = Shape([(0, 0), (1, 0)])
    v0 = antenna_classify(AntennaProblem(domino, a=0, b=0))  # 1 + x
    assert v0.kind == PERIODIC_IN_DIRECTION and v0.direction == (1, 0)
    v2 = antenna_classify(AntennaProblem(domino, a=0, b=2))  # x - 1
    assert v2.kind == PERIODIC_IN_DIRECTION and v2.direction == (1, 0)
    v1 = antenna_classify(AntennaProblem(domino, a=0, b=1))  # bare monomial x
    assert v1.kind == TWO_PERIODIC


def test_antenna_classify_degenerate_zero_polynomial():
    # D = {0}, a = 0, b = 1: the polynomial is zero and every {0,1}
    # configuration is a solution, so nothing is forced
    problem = AntennaProblem(Shape([(0, 0)]), a=0, b=1)
    assert antenna_polynomial(problem).is_zero
    assert antenna_classify(problem) == PeriodicityVerdict(kind=UNDETERMINED)
    assert antenna_verify(TorusConfig([[0, 1, 1], [1, 0, 0]]), problem)


def test_antenna_verify_lee_code():
    assert antenna_verify(lee_code_5x5(), AntennaProblem(PLUS, a=1, b=1))


def test_antenna_verify_all_ones_singleton():
    config = TorusConfig([[1]])
    assert antenna_verify(config, AntennaProblem(Shape([(0, 0)]), a=0, b=1))


def test_antenna_verify_target_depends_on_the_cell():
    # range {(1, 0)}, a = 1, b = 0: c_{u-(1,0)} = 1 - c_u, so rows alternate
    problem = AntennaProblem(Shape([(1, 0)]), a=1, b=0)
    assert antenna_verify(TorusConfig([[0, 1]]), problem)
    assert not antenna_verify(TorusConfig([[1, 1]]), problem)


def test_antenna_verify_empty_config_fails():
    config = TorusConfig([[0] * 3 for _ in range(3)])
    assert not antenna_verify(config, AntennaProblem(PLUS, a=1, b=1))


def test_antenna_verify_rejects_non_binary():
    with pytest.raises(InvalidAlphabet):
        antenna_verify(TorusConfig([[2]]), AntennaProblem(PLUS, a=1, b=1))


def test_antenna_product_is_constant_exactly_when_valid():
    rng = random.Random(89)
    problem = AntennaProblem(PLUS, a=1, b=1)
    f = antenna_polynomial(problem)
    for _ in range(20):
        k, l = rng.randint(1, 5), rng.randint(1, 5)
        torus = TorusConfig([[rng.randint(0, 1) for _ in range(k)] for _ in range(l)])
        product = apply_poly(f, torus)
        constant_a = all(product.value_at(c) == problem.a for c in torus_cells(torus))
        assert constant_a == antenna_verify(torus, problem)


# -- co-tilers -------------------------------------------------------------


def test_cotiler_sft_domino():
    spec = cotiler_sft(ClusterTile(Shape([(0, 0), (1, 0)])))
    assert spec.shape == Shape([(0, 0), (-1, 0)])
    assert len(spec.allowed) == 2
    assert len(spec.allowed) <= len(spec.shape)


def test_cotiler_sft_plus():
    spec = cotiler_sft(ClusterTile(PLUS))
    assert len(spec.allowed) == 5
    assert len(spec.allowed) <= len(spec.shape)


def test_cotiler_sft_singleton():
    spec = cotiler_sft(ClusterTile(Shape([(0, 0)])))
    assert len(spec.allowed) == 1
    only = next(iter(spec.allowed))
    assert only.values == (1,)


def test_cotiler_sft_is_refused_past_the_dense_limit_before_it_is_built(monkeypatch):
    # |T| patterns of |T| values: under a limit of 25 values the plus
    # pentomino still passes and a 6-cell tile does not
    monkeypatch.setattr(applications, "MAX_DENSE_ENTRIES", 25)
    assert len(cotiler_sft(ClusterTile(PLUS)).allowed) == 5
    with pytest.raises(InputTooLarge):
        cotiler_sft(ClusterTile(Shape.rectangle(3, 2)))


def test_cotiler_decision_domino():
    tile = ClusterTile(Shape([(0, 0), (1, 0)]))
    decision = cotiler_decision(tile, Budget(max_window=4, max_torus=4))
    assert decision.kind == NONEMPTY and decision.witness is not None
    assert exact_cover_on_torus(tile, decision.witness)


def test_cotiler_decision_plus():
    tile = ClusterTile(PLUS)
    decision = cotiler_decision(tile, Budget(max_window=4, max_torus=6))
    assert decision.kind == NONEMPTY and decision.witness is not None
    assert (decision.witness.k, decision.witness.l) == (5, 5)
    assert exact_cover_on_torus(tile, decision.witness)


def test_cotiler_decision_l_tromino():
    tile = ClusterTile(Shape([(0, 0), (1, 0), (0, 1)]))
    decision = cotiler_decision(tile, Budget(max_window=4, max_torus=6))
    assert decision.kind == NONEMPTY and decision.witness is not None
    assert exact_cover_on_torus(tile, decision.witness)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    cells=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4),
    k=st.integers(1, 4),
    l=st.integers(1, 4),
    data=st.data(),
)
def test_exact_cover_matches_placement_count(cells, k, l, data):
    # tiles reach 2 each way, so tori of side 4 or less are often narrower
    rows = [[data.draw(st.integers(0, 1)) for _ in range(k)] for _ in range(l)]
    torus = TorusConfig(rows)
    tile = ClusterTile(Shape(cells))
    assert exact_cover_on_torus(tile, torus) == brute_force_exact_cover(tile.shape.cells, torus)


def test_equivalent_formulations_agree():
    # co-tiler SFT validity == antenna a=1,b=1 == exact cover
    rng = random.Random(97)
    tile = ClusterTile(PLUS)
    spec = cotiler_sft(tile)
    problem = AntennaProblem(PLUS, a=1, b=1)
    seen_valid = 0
    cases = [lee_code_5x5()]
    for _ in range(30):
        k, l = rng.randint(1, 5), rng.randint(1, 5)
        cases.append(TorusConfig([[rng.randint(0, 1) for _ in range(k)] for _ in range(l)]))
    for torus in cases:
        a = verify_witness(spec, torus)
        b = antenna_verify(torus, problem)
        c = exact_cover_on_torus(tile, torus)
        assert a == b == c
        seen_valid += a
    assert seen_valid >= 1  # the seeded Lee code keeps the test honest


def test_exact_cover_refuses_a_symbol_outside_0_and_1():
    with pytest.raises(InvalidAlphabet) as info:
        exact_cover_on_torus(ClusterTile(Shape([(0, 0), (1, 0)])), TorusConfig([[1, 2]]))
    assert info.value.args == ("co-tiler configurations are over {0, 1}",)
