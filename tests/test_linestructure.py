"""Line-factor decomposition, classification, prime-field elimination."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridalgebra import (
    GF,
    QQ,
    LaurentPoly,
    TorusConfig,
    ZZ,
    classify,
    eliminate_and_classify_fp,
    is_annihilated,
    line_direction_candidates,
    line_factor_decomposition,
    period_from_line_annihilator,
    split_direction,
)
from gridalgebra.errors import (
    DomainMismatch,
    NotALinePolynomial,
    NotAnnihilated,
    ZeroPolynomial,
)
from gridalgebra import linestructure
from gridalgebra.formats import poly_from_text
from gridalgebra.linestructure import (
    INCONCLUSIVE,
    PERIODIC_IN_DIRECTION,
    TWO_PERIODIC,
    UNDETERMINED,
)

from helpers import (
    direction_content_oracle,
    fp_torus_annihilated_by,
    random_fp_poly_with_both_vars,
    random_line_poly,
    random_triangle_poly,
)


def P(text, domain=ZZ):
    return poly_from_text(text, domain)


def test_decompose_two_line_factors():
    decomp = line_factor_decomposition(P("x - 1") * P("y - 1"))
    assert decomp.directions() == ((0, 1), (1, 0))
    assert decomp.remainder == LaurentPoly.one(ZZ)
    assert decomp.monomial == (0, 0)


def test_decompose_triangle_has_no_factors():
    f = P("1 + x + y")
    decomp = line_factor_decomposition(f)
    assert decomp.factors == ()
    assert decomp.remainder == f


def test_decompose_mixed_composite():
    f = P("x*y - 1") * P("x - 1") * P("1 + x + y")
    decomp = line_factor_decomposition(f)
    assert set(decomp.directions()) == {(1, 1), (1, 0)}
    assert decomp.remainder == P("1 + x + y")
    assert decomp.product() == f


def test_decompose_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        line_factor_decomposition(LaurentPoly.zero(ZZ))


def test_decomposition_roundtrip_random():
    rng = random.Random(71)
    directions = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, -2)]
    for _ in range(40):
        planted = rng.sample(directions, rng.randint(0, 3))
        f = random_triangle_poly(rng)
        for u in planted:
            f = f * random_line_poly(rng, u)
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        f = f.shift(shift)
        decomp = line_factor_decomposition(f)
        assert decomp.product() == f
        assert set(planted) <= set(decomp.directions())
        for u in line_direction_candidates(decomp.remainder):
            assert split_direction(decomp.remainder, u)[0] == LaurentPoly.one(ZZ)


@st.composite
def planted_line_polys(draw):
    """A triangle, or a box with its corners and some inner points (two
    parallel edge pairs, seldom a line factor), times 0-3 line polynomials,
    shifted by a monomial; over Z, Q or F_p."""
    dom = draw(st.sampled_from([ZZ, QQ, GF(2), GF(3), GF(5), GF(101)]))
    if dom.p:
        nonzero = st.integers(1, dom.p - 1)
    elif dom == QQ:
        nonzero = st.fractions(-3, 3, max_denominator=3).filter(bool)
    else:
        nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])
    point = st.tuples(st.integers(0, 3), st.integers(0, 3))
    if draw(st.booleans()):
        support = draw(
            st.lists(point, min_size=3, max_size=3, unique=True).filter(
                lambda t: (t[1][0] - t[0][0]) * (t[2][1] - t[0][1])
                != (t[1][1] - t[0][1]) * (t[2][0] - t[0][0])
            )
        )
    else:
        w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        support = [(0, 0), (w, 0), (0, h), (w, h)]
        support += draw(st.lists(st.tuples(st.integers(0, w), st.integers(0, h)), max_size=4))
    f = LaurentPoly(dom, {e: draw(nonzero) for e in support})
    directions = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, -2)]
    for u in draw(st.lists(st.sampled_from(directions), max_size=3)):
        steps = [0] + draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
        f = f * LaurentPoly(dom, {(j * u[0], j * u[1]): draw(nonzero) for j in steps})
    return f.shift((draw(st.integers(-2, 2)), draw(st.integers(-2, 2))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(planted_line_polys())
def test_remainder_has_no_line_factor_by_euclid_oracle(f):
    # the decomposition never splits its remainder again: the Newton
    # polygon argument says it has nothing left, and Euclid agrees
    decomp = line_factor_decomposition(f)
    one = LaurentPoly.one(f.domain)
    for u in line_direction_candidates(decomp.remainder):
        assert direction_content_oracle(decomp.remainder, u) == one
    assert decomp.product() == f


def test_classify_no_line_factors():
    assert classify(P("1 + x + y")).kind == TWO_PERIODIC


def test_classify_single_direction():
    f = P("x - 1") * P("x^2 + x + 1") * P("1 + x + y")
    verdict = classify(f)
    assert verdict.kind == PERIODIC_IN_DIRECTION
    assert verdict.direction == (1, 0)


def test_classify_two_directions():
    verdict = classify(P("x - 1") * P("y - 1"))
    assert verdict.kind == UNDETERMINED
    assert verdict.order_upper_bound == 2


def test_classify_verdict_matches_decomposition_structure():
    rng = random.Random(73)
    for _ in range(25):
        f = random_triangle_poly(rng)
        for u in rng.sample([(1, 0), (0, 1), (1, 1)], rng.randint(0, 3)):
            f = f * random_line_poly(rng, u)
        decomp = line_factor_decomposition(f)
        verdict = classify(f)
        if verdict.kind == TWO_PERIODIC:
            assert decomp.factors == ()
        elif verdict.kind == PERIODIC_IN_DIRECTION:
            assert len(set(decomp.directions())) == 1
        else:
            assert verdict.order_upper_bound == len(decomp.directions()) > 1


# -- the kept decomposition ---------------------------------------------------


@pytest.fixture
def split_calls(monkeypatch):
    """Empty the kept decomposition and count the directions split."""
    monkeypatch.setattr(linestructure, "_last", None, raising=False)
    calls = []
    real = linestructure.split_direction

    def counting(f, u):
        calls.append(u)
        return real(f, u)

    monkeypatch.setattr(linestructure, "split_direction", counting)
    return calls


def test_classify_after_decomposing_splits_each_direction_once(split_calls):
    f = P("x - 1") * P("y - 1") * P("1 + x + y")
    candidates = sorted(line_direction_candidates(f))
    decomp = line_factor_decomposition(f)
    verdict = classify(f)
    assert split_calls == candidates
    assert verdict.kind == UNDETERMINED
    assert verdict.order_upper_bound == len(decomp.directions()) == 2


def test_kept_decomposition_is_keyed_by_domain(split_calls):
    # the same terms dict: irreducible over Z and Q, (1 + 2x)(1 + 3y) over F5
    text = "1 + 2*x + 3*y + x*y"
    over_z, over_f5, over_q = P(text), P(text, GF(5)), P(text, QQ)
    assert over_z.terms == over_f5.terms == over_q.terms
    line_factor_decomposition(over_z)
    verdict = classify(over_f5)
    assert verdict.kind == UNDETERMINED
    assert verdict.order_upper_bound == 2
    line_factor_decomposition(over_f5)
    assert classify(over_z).kind == TWO_PERIODIC
    decomp = line_factor_decomposition(over_q)
    assert decomp.remainder == over_q
    assert decomp.remainder.domain == QQ


def test_equal_distinct_polynomial_reuses_kept_decomposition(split_calls):
    f = P("x^2 - 1") * P("1 + x + y")
    g = P("x^2 - 1") * P("1 + x + y")
    assert f is not g
    decomp = line_factor_decomposition(f)
    done = len(split_calls)
    assert line_factor_decomposition(g) is decomp
    assert len(split_calls) == done
    assert classify(g).direction == (1, 0)


def test_alternating_polynomials_each_get_their_own_decomposition(split_calls):
    f = P("x - 1") * P("1 + x + y")
    g = P("y - 1") * P("x*y - 1")
    expected = {id(f): ((1, 0),), id(g): ((0, 1), (1, 1))}
    for h in (f, g, f, g, f):
        decomp = line_factor_decomposition(h)
        assert decomp.directions() == expected[id(h)]
        assert decomp.product() == h
    per_call = len(line_direction_candidates(f)), len(line_direction_candidates(g))
    assert len(split_calls) == 3 * per_call[0] + 2 * per_call[1]


def test_decomposition_splits_only_the_candidates_of_f(split_calls):
    # the remainder's square Newton polygon has two parallel edge pairs, but
    # no line factor: nothing of it is split again
    remainder = P("1 + x + y + 3*x*y")
    f = P("x - 1") * remainder
    decomp = line_factor_decomposition(f)
    assert split_calls == sorted(line_direction_candidates(f))
    assert decomp.remainder == remainder


def test_zero_still_raises_after_a_kept_decomposition(split_calls):
    f = P("x - 1")
    line_factor_decomposition(f)
    with pytest.raises(ZeroPolynomial):
        line_factor_decomposition(LaurentPoly.zero(ZZ))
    with pytest.raises(ZeroPolynomial):
        classify(LaurentPoly.zero(ZZ))
    assert linestructure._last[2] is line_factor_decomposition(f)


# -- prime-field elimination -----------------------------------------------


def test_eliminate_ledrappier_example():
    f = P("1 + x + y", GF(2))
    g = P("x + 1", GF(2)) * P("y + 1", GF(2))
    report = eliminate_and_classify_fp(f, g)
    assert report.verdict == TWO_PERIODIC
    by_var = {e.variable: e for e in report.entries}
    assert by_var[2].resultant == P("x^2 + x", GF(2))
    assert by_var[1].resultant == P("y^2 + y", GF(2))
    assert by_var[2].axis == (1, 0)  # eliminating y certifies horizontal period
    assert by_var[1].axis == (0, 1)


def test_eliminate_identical_inputs_inconclusive():
    f = P("1 + x + y", GF(2))
    report = eliminate_and_classify_fp(f, f)
    assert report.verdict == INCONCLUSIVE
    assert all(not e.nonzero for e in report.entries)


def test_eliminate_f3_example():
    f = P("1 + x + y^2", GF(3))
    g = P("x - 1", GF(3)) * P("y - 1", GF(3))
    report = eliminate_and_classify_fp(f, g)
    assert report.verdict == TWO_PERIODIC
    assert all(e.nonzero for e in report.entries)


def test_eliminate_requires_prime_field():
    with pytest.raises(DomainMismatch):
        eliminate_and_classify_fp(P("1 + x + y"), P("x - 1"))


def test_eliminate_input_free_of_variable_is_its_own_eliminant():
    for f, g, var, eliminant in (
        # no y at all: already an annihilator in x
        ("1 + x + x^2", "1 + x + y", 2, "1 + x + x^2"),
        # x (1 + y) has no x but the unit x: its eliminant is 1 + y
        ("x*y + x", "x + y + 1", 1, "1 + y"),
    ):
        report = eliminate_and_classify_fp(P(f, GF(2)), P(g, GF(2)))
        by_var = {e.variable: e for e in report.entries}
        assert by_var[var].resultant == P(eliminant, GF(2))


def test_eliminate_second_input_free_of_variable_is_the_eliminant():
    # g has no y, so it is the eliminant of y; the shared factor 1 + x
    # makes the resultant in x vanish
    f = P("1 + x + y + x*y", GF(2))
    g = P("1 + x", GF(2))
    report = eliminate_and_classify_fp(f, g)
    by_var = {e.variable: e for e in report.entries}
    assert by_var[2].resultant == g
    assert by_var[1].resultant.is_zero
    assert (report.verdict, report.direction) == (PERIODIC_IN_DIRECTION, (1, 0))


def test_eliminate_one_nonzero_resultant():
    # both inputs involve both variables; their common factor 1 + x makes
    # the resultant in x vanish, and the one in y is (1 + x)^3
    f = P("1 + x + y + x*y", GF(2))
    g = P("1 + y + y^2 + x + x*y + x*y^2", GF(2))
    report = eliminate_and_classify_fp(f, g)
    by_var = {e.variable: e for e in report.entries}
    assert by_var[1].resultant.is_zero
    assert by_var[2].resultant == P("1 + x + x^2 + x^3", GF(2))
    assert (report.verdict, report.direction) == (PERIODIC_IN_DIRECTION, (1, 0))


def test_elimination_soundness_on_tori():
    # any nonzero eliminant annihilates every torus killed by both inputs
    rng = random.Random(79)
    checked = 0
    while checked < 10:
        p = rng.choice([2, 3])
        f = random_fp_poly_with_both_vars(rng, p)
        g = random_fp_poly_with_both_vars(rng, p)
        torus = fp_torus_annihilated_by([f, g], rng.randint(2, 4), rng.randint(2, 4), p, rng)
        if torus is None:
            continue
        report = eliminate_and_classify_fp(f, g)
        for entry in report.entries:
            if entry.nonzero:
                assert is_annihilated(torus, entry.resultant).kind == "yes"
                checked += 1


# -- line-polynomial periods -----------------------------------------------


def test_period_from_horizontal_binomial():
    assert period_from_line_annihilator(P("x^2 - 1"), TorusConfig([[0, 1], [1, 0]])) == 2


def test_period_from_constant_config():
    assert period_from_line_annihilator(P("x - 1"), TorusConfig([[3]])) == 1


def test_period_from_cubic_on_stripes():
    # symbols -1, 0, 1 sum to zero along each period-3 stripe
    stripes = TorusConfig([[-1, 0, 1]])
    f = P("x^2 + x + 1")
    assert is_annihilated(stripes, f).kind == "yes"
    assert period_from_line_annihilator(f, stripes) == 3


def test_period_rejects_non_line_polynomial():
    with pytest.raises(NotALinePolynomial):
        period_from_line_annihilator(P("1 + x + y"), TorusConfig([[0]]))


def test_period_rejects_non_annihilator():
    with pytest.raises(NotAnnihilated):
        period_from_line_annihilator(P("x - 1"), TorusConfig([[0, 1], [1, 0]]))


@pytest.mark.parametrize(
    "f, g, error, message",
    [
        (P("1 + x", GF(2)), LaurentPoly.zero(GF(2)), ZeroPolynomial, "elimination needs nonzero inputs"),
        (P("1 + x", GF(2)), P("1 + y", GF(3)), DomainMismatch, "F2 vs F3"),
    ],
    ids=["zero-input", "mixed-fields"],
)
def test_eliminate_refusals(f, g, error, message):
    with pytest.raises(error) as info:
        eliminate_and_classify_fp(f, g)
    assert info.value.args == (message,)
