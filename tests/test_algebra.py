"""Laurent arithmetic, polygons, substitutions, content, resultants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridalgebra import (
    GF,
    LaurentPoly,
    QQ,
    ZZ,
    is_annihilated,
    line_direction_candidates,
    line_factor_decomposition,
    split_direction,
    univariate_resultant,
)
from gridalgebra import algebra, linestructure
from gridalgebra.algebra import _is_prime, convex_hull, domain_from_name
from gridalgebra.formats import decomposition_to_json
from gridalgebra.errors import DomainMismatch, InputTooLarge, ZeroPolynomial

from helpers import (
    UnimodularMatrix,
    convex_hull_oracle,
    direction_content_oracle,
    fp_torus_annihilated_by,
    half_plane_oracle,
    is_prime_by_trial_division,
    line_factor_decomposition_oracle,
    poly_divexact,
    poly_fp_as_uni_dict,
    random_fp_poly_with_both_vars,
    random_line_poly,
    random_poly,
    random_triangle_poly,
    random_unimodular,
    sylvester_resultant_oracle_fp,
    sylvester_resultant_oracle_q,
    unimodular_completion,
    unimodular_substitute,
)

X = LaurentPoly.monomial(ZZ, (1, 0))
Y = LaurentPoly.monomial(ZZ, (0, 1))
ONE = LaurentPoly.one(ZZ)


def P(text, domain=ZZ):
    from gridalgebra.formats import poly_from_text

    return poly_from_text(text, domain)


# -- prime fields ---------------------------------------------------------


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if is_prime_by_trial_division(n)
    ]


def test_prime_field_moduli():
    assert GF(2**61 - 1).p == 2**61 - 1
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not _is_prime(3215031751)
    with pytest.raises(ValueError, match="not prime"):
        GF(3215031751)
    assert domain_from_name("F10000000000000061").p == 10000000000000061
    # beyond the bound below which the Miller-Rabin bases are exact
    with pytest.raises(ValueError, match="beyond"):
        domain_from_name("F" + "1" * 30)


# -- the value contract ---------------------------------------------------


def test_poly_refuses_assignment_and_hashing():
    f = LaurentPoly(ZZ, {(0, 0): 1, (1, 0): 2})
    for name in ("domain", "terms"):
        with pytest.raises(AttributeError):
            setattr(f, name, getattr(f, name))
    with pytest.raises(TypeError):
        hash(f)  # terms is a dict


@pytest.mark.parametrize("other", [1, 0, Fraction(1), "1", {(0, 0): 1}, None], ids=repr)
def test_poly_never_equals_a_non_polynomial(other):
    for f in (LaurentPoly.one(ZZ), LaurentPoly.zero(GF(2)), LaurentPoly.one(QQ)):
        assert f != other and not f == other
        assert f.__eq__(other) is NotImplemented


# -- coefficient coercion -------------------------------------------------


@pytest.mark.parametrize(
    "domain, value, image",
    [
        (ZZ, -3, -3),
        (ZZ, Fraction(6, 3), 2),
        (QQ, 7, Fraction(7)),
        (QQ, Fraction(-1, 2), Fraction(-1, 2)),
        (GF(5), 7, 2),
        (GF(5), -1, 4),
        (GF(5), Fraction(1, 2), 3),
        (GF(5), Fraction(-3, 4), 3),
    ],
    ids=repr,
)
def test_coerce_maps_ints_and_fractions_to_canonical_values(domain, value, image):
    c = domain.coerce(value)
    assert c == image and type(c) is type(image)


@pytest.mark.parametrize(
    "domain, value, error, message",
    [
        (ZZ, Fraction(1, 2), ValueError, "1/2 is not an integer"),
        (GF(5), Fraction(1, 5), ValueError, "1/5 has no image mod 5"),
        (ZZ, 1.5, TypeError, "cannot coerce 1.5 into Z"),
        (QQ, 1.5, TypeError, "cannot coerce 1.5 into Q"),
        (GF(5), 1.5, TypeError, "cannot coerce 1.5 into F5"),
    ],
    ids=repr,
)
def test_coerce_refuses_values_outside_the_domain(domain, value, error, message):
    with pytest.raises(error) as info:
        domain.coerce(value)
    assert str(info.value) == message


def test_coerce_refuses_a_bool():
    # a bool is no int: every domain refuses it like any other non-number
    for domain in (ZZ, QQ, GF(5)):
        with pytest.raises(TypeError) as info:
            domain.coerce(True)
        assert str(info.value) == f"cannot coerce True into {domain.name}"


@pytest.mark.parametrize(
    "text, direction",
    [
        ("3", None),
        ("2*x^2*y", None),
        ("1 + x^2*y^4", (1, 2)),
        ("x^-2 + x^4", (1, 0)),
        ("1 + x + y", None),
    ],
)
def test_line_direction_of(text, direction):
    assert algebra.line_direction_of(P(text)) == direction


# -- add / mul / divexact -------------------------------------------------


def test_add_cancellation():
    assert P("1 + x") + P("-1 + y") == P("x + y")


def test_add_identity():
    f = P("3*x^-2*y + 5")
    assert f + LaurentPoly.zero(ZZ) == f


def test_add_characteristic_two():
    f = P("1 + x", GF(2))
    assert (f + f).is_zero


def test_add_domain_mismatch():
    with pytest.raises(DomainMismatch):
        P("x") + P("x", QQ)


def test_mul_difference_of_squares():
    assert (X - ONE) * (X + ONE) == P("-1 + x^2")


def test_mul_monomial_shift():
    assert LaurentPoly.monomial(ZZ, (-1, 0)) * P("1 + x") == P("x^-1 + 1")


def test_mul_f2_expansion():
    # direct expansion oracle: multiply term by term mod 2 by hand
    f = P("x + 1", GF(2))
    g = P("y + 1", GF(2))
    assert f * g == P("x*y + x + y + 1", GF(2))


def test_divexact_basic():
    assert poly_divexact(P("x^2 - 1"), P("x - 1")) == P("x + 1")


def test_divexact_self():
    rng = random.Random(11)
    for _ in range(20):
        f = random_poly(rng)
        assert poly_divexact(f, f) == ONE


def test_divexact_laurent_monomial_quotient():
    # monomials are units: x / x^2 = x^-1
    assert poly_divexact(P("x"), P("x^2")) == P("x^-1")


def test_ring_axioms_random():
    rng = random.Random(7)
    for dom in (ZZ, QQ, GF(5)):
        for _ in range(25):
            f = random_poly(rng, dom)
            g = random_poly(rng, dom)
            h = random_poly(rng, dom)
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


def test_divexact_roundtrip_random():
    rng = random.Random(13)
    for dom in (ZZ, QQ, GF(3)):
        for _ in range(30):
            f = random_poly(rng, dom)
            g = random_poly(rng, dom)
            assert poly_divexact(f * g, g) == f


# -- line direction candidates ----------------------------------------------


def test_direction_candidates_triangle_empty():
    assert line_direction_candidates(P("1 + x + y")) == set()
    # brute force: no factorization with a degree<=1 line factor exists,
    # since any line factor would force a parallel edge pair on the hull
    # (checked by trying all products of degree-1 line polys times units)
    f = P("1 + x + y", QQ)
    for u in [(1, 0), (0, 1), (1, 1), (1, -1)]:
        assert split_direction(f, u)[0] == LaurentPoly.one(QQ)


def test_direction_candidates_monomial_is_empty():
    # a one-point hull has no edges
    assert line_direction_candidates(P("x^3")) == set()
    assert line_direction_candidates(P("-5")) == set()


def test_direction_candidates_reject_zero():
    with pytest.raises(ZeroPolynomial):
        line_direction_candidates(LaurentPoly.zero(ZZ))


def test_direction_candidates_two_lines():
    f = (X - ONE) * (Y - ONE)
    assert line_direction_candidates(f) == {(1, 0), (0, 1)}


def test_direction_candidates_segment():
    assert line_direction_candidates(P("x^2 - 1")) == {(1, 0)}
    assert line_direction_candidates(P("y^-1 + 3*y^2")) == {(0, 1)}
    assert line_direction_candidates(P("1 + x*y^2 + x^2*y^4")) == {(1, 2)}
    assert line_direction_candidates(P("x^3*y^-3 - 2*x*y^-1 + 5*x^-1*y")) == {(1, -1)}


def test_candidates_cover_planted_directions():
    rng = random.Random(19)
    for _ in range(40):
        dirs = rng.sample([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)], rng.randint(1, 3))
        if rng.random() < 0.3:  # point cofactor
            f = LaurentPoly.monomial(ZZ, (rng.randint(-2, 2), rng.randint(-2, 2)), rng.randint(1, 3))
        else:
            f = random_triangle_poly(rng)
        for u in dirs:
            f = f * random_line_poly(rng, u)
        assert set(dirs) <= line_direction_candidates(f)


# -- unimodular substitutions ---------------------------------------------


def test_substitute_identity():
    f = P("1 + 2*x*y^-1 + 3*y^2")
    assert unimodular_substitute(f, UnimodularMatrix.identity()) == f


def test_substitute_swap():
    m = UnimodularMatrix(((0, 1), (1, 0)))
    assert unimodular_substitute(P("1 + x + y^2"), m) == P("1 + y + x^2")


def test_substitute_inverse_roundtrip():
    rng = random.Random(23)
    for _ in range(25):
        f = random_poly(rng)
        m = random_unimodular(rng)
        assert unimodular_substitute(unimodular_substitute(f, m), m.inverse()) == f


def test_substitute_multiplicative():
    rng = random.Random(29)
    for _ in range(25):
        f, g = random_poly(rng), random_poly(rng)
        m = random_unimodular(rng)
        assert unimodular_substitute(f * g, m) == unimodular_substitute(
            f, m
        ) * unimodular_substitute(g, m)


def test_completion_maps_e1_to_direction():
    for u in [(1, 0), (0, 1), (-1, 0), (0, -1), (2, 3), (3, -5), (-2, 7), (-3, -4)]:
        m = unimodular_completion(u)
        (a, b), (c, d) = m.rows
        assert m.apply((1, 0)) == u
        assert a * d - b * c == 1


# -- direction content ----------------------------------------------------


def test_content_extracts_planted_factor():
    f = (X - ONE) * P("1 + x + y")
    g = split_direction(f, (1, 0))[0]
    assert g == X - ONE
    assert poly_divexact(f, g) == P("1 + x + y")


def test_content_trivial():
    assert split_direction(P("1 + x + y"), (1, 0))[0] == ONE


def test_content_fp_monic_for_one_column():
    # one line factor reads one way whether or not columns are combined
    line = P("2 + 2*x", GF(3))
    assert split_direction(line, (1, 0))[0] == P("1 + x", GF(3))
    assert split_direction(line * P("1 + y", GF(3)), (1, 0))[0] == P("1 + x", GF(3))


def test_content_full_line_polynomial():
    f = P("1 - 2*x*y^2 + x^2*y^4")  # (x*y^2 - 1)^2
    assert f == (P("x*y^2") - ONE) * (P("x*y^2") - ONE)
    assert split_direction(f, (1, 2))[0] == f


def test_content_divides_random_products():
    rng = random.Random(31)
    for dom in (ZZ, QQ, GF(5)):
        for _ in range(25):
            f = random_poly(rng, dom)
            for u in sorted(line_direction_candidates(f)):
                g = split_direction(f, u)[0]
                assert poly_divexact(f, g) * g == f


def test_content_primitive_prs_with_nonconstant_cofactors():
    # both x-columns are (1 + 2x) times a coprime non-constant cofactor, so
    # the pseudo-remainders grow and must be made primitive along the way
    line = P("1 + 2*x")
    f = line * P("3 + x + 5*x^2 + 2*y - 7*x^2*y + x^3*y")
    assert split_direction(f, (1, 0))[0] == line
    assert split_direction(P("-2 - 4*x") * P("3 + y + x*y"), (1, 0))[0] == line
    for dom in (QQ, GF(7)):
        g = unimodular_substitute(f, UnimodularMatrix(((1, 0), (2, 1))))
        g = LaurentPoly(dom, g.terms)
        assert split_direction(g, (1, 2))[0] == direction_content_oracle(g, (1, 2))


@pytest.mark.parametrize(
    "domain, f, g",
    [
        (QQ, "-1 + 2*x*y - 2*x^2", "2*x - 2*x^2*y^-1"),
        (GF(3), "y^-1 + 2 + x + x^2*y", "2 + 2*x*y"),
        (GF(3), "y^-1 + 2*y + x^2*y^-1", "2*y^-1 + y + x + 2*x^2*y^-1"),
        # eliminating x, the remainder -x*y + y^-1 against degree 3 drops by
        # two, so the next step has delta = 2
        (GF(5), "x^4 + y^-1", "x^3 + y"),
        (QQ, "x^4 + y", "x^3 + 1 + y"),
        # delta = 3 first, then the remainder y^2 x + 2y drops by one
        (GF(3), "x^5 + 2*y", "x^2 + y"),
        # the remainder -x*y + y of x^6 + y by x^5 + y drops by four
        (GF(7), "x^6 + y", "x^5 + y"),
    ],
)
def test_resultant_with_zero_pivot(domain, f, g):
    # the first three Sylvester matrices have a vanishing leading principal
    # minor, and the others take abnormal steps in the remainder sequence
    # (a degree drop of two or more); the sign must follow the determinant
    f, g = P(f, domain), P(g, domain)
    for var in (1, 2):
        r = poly_fp_as_uni_dict(univariate_resultant(f, g, var), 3 - var)
        if domain.p:
            assert r == sylvester_resultant_oracle_fp(f, g, var, domain.p)
        else:
            assert r == sylvester_resultant_oracle_q(f, g, var)


def test_content_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        split_direction(LaurentPoly.zero(ZZ), (1, 0))


def test_split_refines_the_edge_column_gcd():
    # the two extreme x-columns share (1 + x)(2 + x), the middle one only
    # (1 + x) times (3 + x): the first candidate leaves a remainder there
    f = P("2 + 3*x + x^2 + 3*y + 4*x*y + x^2*y + 2*y^2 + 3*x*y^2 + x^2*y^2")
    remainder = P("2 + 3*y + 2*y^2 + x + x*y + x*y^2")
    assert split_direction(f, (1, 0)) == (P("1 + x"), remainder)
    decomp = line_factor_decomposition(f)
    assert decomp.factors == (((1, 0), P("1 + x")),)
    assert decomp.remainder == remainder


def test_split_refines_on_an_inexact_integer_step():
    # edge columns (1 + 2x)(1 + 3x) and middle column (1 + 2x)(1 + 3x + x^2)
    # = 1 + 5x + 7x^2 + 2x^3: its division by the candidate 1 + 5x + 6x^2
    # stops at the lead 2 against 6, where floor division would go on and
    # leave remainder 0
    cofactor = P("1 + 3*x + y + 3*x*y + x^2*y + y^2 + 3*x*y^2")
    f = P("1 + 2*x") * cofactor
    assert split_direction(f, (1, 0)) == (P("1 + 2*x"), cofactor)


def test_split_stops_on_coprime_edge_columns():
    # the x-columns 1 + x and 1 + 2x are coprime, so the middle is never read
    f = P("1 + x + 7*y + 5*x*y + y^2 + 2*x*y^2")
    assert split_direction(f, (1, 0)) == (ONE, f)


def test_split_single_column_is_monic_over_fp():
    f = P("2 + 2*x", GF(3))
    assert split_direction(f, (1, 0)) == (P("1 + x", GF(3)), P("2", GF(3)))


@pytest.mark.parametrize("u", [(1, 0), (-1, 0), (0, -1), (1, -1), (2, 3), (-2, 3)])
def test_split_frame_cases(u):
    # u1 = 0, |u1| = 1 and |u1| > 1, with u0 negative in two of them: the
    # frame's Bezout pair comes from a modular inverse of u0 mod |u1|
    rng = random.Random(str(u))
    for dom in (ZZ, QQ, GF(5)):
        for _ in range(5):
            f = random_line_poly(rng, u, dom) * LaurentPoly(dom, random_triangle_poly(rng).terms)
            if f.is_zero:
                continue
            content, cofactor = split_direction(f, u)
            assert content.num_terms >= 2
            assert content == direction_content_oracle(f, u)
            assert content * cofactor == f


# -- resultants -----------------------------------------------------------


def test_resultant_ledrappier_pair():
    f = P("1 + x + y", GF(2))
    g = P("x + 1", GF(2)) * P("y + 1", GF(2))
    # Sylvester determinant of two degree-1 polynomials in y:
    # 1*(x+1) - (1+x)(x+1) = x^2 + x over F_2
    assert univariate_resultant(f, g, 2) == P("x + x^2", GF(2))
    assert univariate_resultant(f, g, 1) == P("y + y^2", GF(2))


def test_resultant_common_factor_is_zero():
    f = P("y - x", QQ)
    assert univariate_resultant(f, f, 2).is_zero


def test_resultant_linear_elimination():
    r = univariate_resultant(P("y - 1", QQ), P("y - x", QQ), 2)
    assert r == P("x - 1", QQ) or r == P("1 - x", QQ)


def test_resultant_rejects_integer_domain():
    with pytest.raises(DomainMismatch):
        univariate_resultant(P("y - 1"), P("y - x"), 2)


def test_resultant_matches_laplace_oracle():
    rng = random.Random(37)
    for p in (2, 3, 5):
        for _ in range(15):
            f = random_fp_poly_with_both_vars(rng, p)
            g = random_fp_poly_with_both_vars(rng, p)
            for var in (1, 2):
                r = univariate_resultant(f, g, var)
                expect = sylvester_resultant_oracle_fp(f, g, var, p)
                assert poly_fp_as_uni_dict(r, 2 if var == 1 else 1) == expect


def test_resultant_annihilates_common_torus():
    # membership in <f, g>: the resultant inherits annihilation
    rng = random.Random(41)
    checked = 0
    while checked < 12:
        p = rng.choice([2, 3])
        f = random_fp_poly_with_both_vars(rng, p)
        g = random_fp_poly_with_both_vars(rng, p)
        k, l = rng.randint(2, 5), rng.randint(2, 5)
        torus = fp_torus_annihilated_by([f, g], k, l, p, rng)
        if torus is None:
            continue
        assert is_annihilated(torus, f).annihilated
        assert is_annihilated(torus, g).annihilated
        for var in (1, 2):
            r = univariate_resultant(f, g, var)
            if not r.is_zero:
                assert is_annihilated(torus, r).kind == "yes"
                checked += 1


# -- fast paths against references (hypothesis) ---------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
DOMAINS = [ZZ, QQ, GF(2), GF(3), GF(5), GF(101)]
EXPONENTS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def coefficients(domain):
    if domain == QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return st.integers(-4, 4)


@st.composite
def polys(draw, domain, nonzero=False):
    f = LaurentPoly(domain, draw(st.dictionaries(EXPONENTS, coefficients(domain), max_size=5)))
    if nonzero and f.is_zero:
        f = LaurentPoly.monomial(domain, draw(EXPONENTS))
    return f


@st.composite
def both_var_polys(draw, domain):
    """Polynomial with two terms that differ in both exponents, so either
    variable can be eliminated."""
    terms = dict(draw(polys(domain)).terms)
    e1 = draw(EXPONENTS)
    e2 = draw(EXPONENTS.filter(lambda e: e[0] != e1[0] and e[1] != e1[1]))
    nonzero = st.integers(1, domain.p - 1) if domain.p else st.sampled_from([-3, -1, 1, 2])
    terms[e1], terms[e2] = draw(nonzero), draw(nonzero)
    return LaurentPoly(domain, terms)


def assert_canonical(f):
    """No zero terms; int over Z, Fraction over Q, [0, p) over F_p."""
    dom = f.domain
    for (a, b), c in f.terms.items():
        assert type(a) is int and type(b) is int
        assert c != 0
        if dom == ZZ:
            assert type(c) is int
        elif dom == QQ:
            assert type(c) is Fraction
        else:
            assert type(c) is int and 0 <= c < dom.p


@st.composite
def directions(draw):
    """Image of (1, 0) under a random unimodular matrix: any primitive
    direction, not only the axis and diagonal ones."""
    return random_unimodular(random.Random(draw(st.integers(0, 10**6)))).apply((1, 0))


@PROPERTY
@given(st.data())
def test_ring_ops_match_public_constructor(data):
    dom = data.draw(st.sampled_from(DOMAINS))
    f, g = data.draw(polys(dom)), data.draw(polys(dom, nonzero=True))
    t = data.draw(EXPONENTS)

    def rebuilt(pairs):
        acc = {}
        for e, c in pairs:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly(dom, acc)

    fi, gi = list(f.terms.items()), list(g.terms.items())
    cases = [
        ("add", f + g, rebuilt(fi + gi)),
        ("neg", -g, rebuilt((e, -c) for e, c in gi)),
        ("sub", f - g, rebuilt(fi + [(e, -c) for e, c in gi])),
        ("mul", f * g, rebuilt(((a + c, b + d), u * v) for (a, b), u in fi for (c, d), v in gi)),
        ("shift", f.shift(t), rebuilt(((a + t[0], b + t[1]), u) for (a, b), u in fi)),
        ("divexact", poly_divexact(f * g, g), f),
    ]
    for name, got, expected in cases:
        assert_canonical(got)
        assert got == expected, name


@PROPERTY
@given(st.data())
def test_direction_content_matches_euclid_oracle(data):
    dom = data.draw(st.sampled_from(DOMAINS))
    f = data.draw(polys(dom, nonzero=True))
    planted = data.draw(st.lists(directions(), max_size=3))
    for u in planted:
        line = {(0, 0): data.draw(coefficients(dom).filter(bool))}
        for j in range(1, data.draw(st.integers(1, 2)) + 1):
            line[(j * u[0], j * u[1])] = data.draw(coefficients(dom))
        f = f * LaurentPoly(dom, line)
    if f.is_zero:  # a planted factor vanished mod p
        return
    tried = set(planted) | line_direction_candidates(f) | {data.draw(directions())}
    for u in sorted(tried):
        content, cofactor = split_direction(f, u)
        assert_canonical(content)
        assert content == direction_content_oracle(f, u)
        assert_canonical(cofactor)
        assert cofactor == poly_divexact(f, content)
    assert decomposition_to_json(line_factor_decomposition(f)) == decomposition_to_json(
        line_factor_decomposition_oracle(f)
    )


@st.composite
def point_sets(draw):
    """Scattered points, a few rows with many points each, points on one
    segment (horizontal, vertical or slanted), or a box with extra points on
    its edges; duplicates are added on top."""
    kind = draw(st.sampled_from(["scatter", "rows", "segment", "box"]))
    coord = st.integers(-3, 3)
    if kind == "scatter":
        pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
    elif kind == "rows":
        pts = [
            (draw(st.integers(-5, 5)), y)
            for y in draw(st.lists(coord, min_size=1, max_size=3))
            for _ in range(draw(st.integers(1, 6)))
        ]
    elif kind == "segment":
        x, y = draw(coord), draw(coord)
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 3)]))
        pts = [(x + k * dx, y + k * dy) for k in draw(st.lists(st.integers(0, 4), min_size=1))]
    else:
        x0, y0, w, h = draw(coord), draw(coord), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        pts = [(x0, y0), (x0 + w, y0), (x0, y0 + h), (x0 + w, y0 + h)]
        for _ in range(draw(st.integers(0, 6))):
            side = draw(st.sampled_from([(0, None), (w, None), (None, 0), (None, h)]))
            pts.append(
                (
                    x0 + (draw(st.integers(0, w)) if side[0] is None else side[0]),
                    y0 + (draw(st.integers(0, h)) if side[1] is None else side[1]),
                )
            )
    return pts + draw(st.lists(st.sampled_from(pts), max_size=3))


@PROPERTY
@given(point_sets())
def test_convex_hull_matches_vertex_oracle(points):
    assert convex_hull(points) == convex_hull_oracle(points)


@st.composite
def row_point_sets(draw):
    """Full rows of differing extents, or one row, or one column, with
    repeated points on top: most points lie strictly inside their row."""
    kind = draw(st.sampled_from(["rows", "row", "column"]))
    if kind == "rows":
        ys = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
        pts = []
        for y in ys:
            lo = draw(st.integers(-3, 3))
            pts += [(x, y) for x in range(lo, lo + draw(st.integers(1, 6)))]
    else:
        x0, y0 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        steps = draw(st.lists(st.integers(0, 8), min_size=1, max_size=9))
        pts = [(x0 + k, y0) if kind == "row" else (x0, y0 + k) for k in steps]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=6))


@PROPERTY
@given(row_point_sets())
def test_convex_hull_of_full_rows_matches_vertex_oracle(points):
    # the hull reads only the least and greatest point of each row
    assert convex_hull(points) == convex_hull_oracle(points)


@PROPERTY
@given(st.data())
def test_resultant_fp_matches_laplace_oracle(data):
    dom = data.draw(st.sampled_from([GF(2), GF(3), GF(5), GF(7), GF(101)]))
    f, g = data.draw(both_var_polys(dom)), data.draw(both_var_polys(dom))
    for var in (1, 2):
        r = univariate_resultant(f, g, var)
        assert_canonical(r)
        assert poly_fp_as_uni_dict(r, 3 - var) == sylvester_resultant_oracle_fp(f, g, var, dom.p)


@PROPERTY
@given(st.dictionaries(EXPONENTS, st.integers(1, 3), min_size=1, max_size=8))
def test_newton_polygon_starts_at_least_exponent(terms):
    # the monotone chain never pops its first point
    f = LaurentPoly(ZZ, terms)
    assert convex_hull(f.terms)[0] == min(f.terms)


@settings(PROPERTY, max_examples=60)
@given(st.data())
def test_resultant_q_matches_laplace_oracle(data):
    # exponents run over -2..2, so the kept variable has negative exponents
    # and the determinant must be shifted back
    f, g = data.draw(both_var_polys(QQ)), data.draw(both_var_polys(QQ))
    for var in (1, 2):
        r = univariate_resultant(f, g, var)
        assert_canonical(r)
        assert poly_fp_as_uni_dict(r, 3 - var) == sylvester_resultant_oracle_q(f, g, var)


# -- subresultant sequence branches (hypothesis) --------------------------

RESULTANT_DOMAINS = [GF(2), GF(3), GF(5), GF(7), GF(101), QQ]


@st.composite
def kept_polys(draw, domain, lo=-2, hi=2):
    """A nonzero polynomial in the kept variable only, as a dict."""
    nonzero = st.integers(1, domain.p - 1) if domain.p else st.sampled_from([-3, -1, 1, 2])
    return draw(st.dictionaries(st.integers(lo, hi), nonzero, min_size=1, max_size=3))


def in_var(domain, var, coeffs):
    """sum of coeffs[i] * v^i with v the variable ``var`` and each
    coeffs[i] a dict in the other variable."""
    terms = {}
    for i, c in coeffs.items():
        for j, v in c.items():
            terms[(i, j) if var == 1 else (j, i)] = v
    return LaurentPoly(domain, terms)


def extent(f, var):
    exps = [e[var - 1] for e in f.terms]
    return max(exps) - min(exps)


@st.composite
def resultant_pairs(draw, case, domain, var):
    """A pair whose sequence, eliminating ``var``, takes the branch named
    by ``case``; exponents may be negative in both variables. Random pairs
    are drawn by test_resultant_fp_matches_laplace_oracle and
    test_resultant_q_matches_laplace_oracle."""
    k = lambda lo=-2, hi=2: draw(kept_polys(domain, lo, hi))  # noqa: E731
    shift = draw(st.integers(-1, 1))
    if case == "odd-odd-swap":
        # deg f = 1 < deg g = 3: the swap and the first step both flip the sign
        f = in_var(domain, var, {shift: k(), shift + 1: k()})
        g = in_var(domain, var, {0: k(), 1: k(), 3: k()})
        return f, g
    if case == "shared-factor":
        h = in_var(domain, var, {0: k(-1, 1), 1: k(-1, 1)})
        a = in_var(domain, var, {shift: k(-1, 1), shift + 1: k(-1, 0)})
        b = in_var(domain, var, {0: k(0, 1), 2: k(0, 1)})
        return h * a, h * b
    # abnormal: f = e v g + r v + s leaves the remainder r v + s against
    # deg g = 3, a drop by two
    g = in_var(domain, var, {0: k(-1, 1), 3: k(-1, 1)})
    rest = in_var(domain, var, {0: k(-1, 1), 1: k(-1, 1)})
    e = in_var(domain, var, {1: k(-1, 0)})
    return e * g + rest, g


@pytest.mark.parametrize("case", ["odd-odd-swap", "shared-factor", "abnormal"])
@settings(PROPERTY, max_examples=40)
@given(st.data())
def test_resultant_sequence_matches_laplace_oracle(case, data):
    dom = data.draw(st.sampled_from(RESULTANT_DOMAINS))
    var = data.draw(st.sampled_from([1, 2]))
    f, g = data.draw(resultant_pairs(case, dom, var))
    if case == "odd-odd-swap":
        assert (extent(f, var), extent(g, var)) == (1, 3)
    if case == "abnormal":
        assert (extent(f, var), extent(g, var)) == (4, 3)
    for v in (1, 2):
        if extent(f, v) == 0 or extent(g, v) == 0:
            continue
        r = univariate_resultant(f, g, v)
        assert_canonical(r)
        if dom.p:
            assert poly_fp_as_uni_dict(r, 3 - v) == sylvester_resultant_oracle_fp(f, g, v, dom.p)
        else:
            assert poly_fp_as_uni_dict(r, 3 - v) == sylvester_resultant_oracle_q(f, g, v)
        if case == "shared-factor" and v == var:
            assert r.is_zero


# -- Q cleared of denominators --------------------------------------------


@pytest.mark.parametrize(
    "f, g, resultant",
    [
        # integer coefficients, as every annihilator has: (1 + x)(2 + x + 3y + xy)
        ("2 + 3*x + x^2 + 3*y + 4*x*y + x^2*y", "x - y^2 + 1", "y^2 + 2*y^3 + y^4 + y^5"),
        # x-columns with denominators 3 and 2: (1/3 - y/2)(1 + x)^2
        (
            "1/3 + 2/3*x - 1/2*y - x*y + 1/3*x^2 - 1/2*x^2*y",
            "x - 1/3*y^2 + 1",
            "1/27*y^4 - 1/18*y^5",
        ),
    ],
    ids=["integer-coefficients", "mixed-denominators"],
)
def test_q_outputs_are_canonical(f, g, resultant):
    # every output over Q carries Fractions, also where the cleared
    # polynomial needed no denominator (d = 1)
    f, g = P(f, QQ), P(g, QQ)
    for u in [(1, 0), (0, 1), (1, 1)]:
        content, cofactor = split_direction(f, u)
        assert_canonical(content)
        assert_canonical(cofactor)
        assert content * cofactor == f
    decomp = line_factor_decomposition(f)
    assert decomp.factors
    for _, factor in decomp.factors:
        assert_canonical(factor)
    assert_canonical(decomp.remainder)
    assert decomp.product() == f
    r = univariate_resultant(f, g, 1)
    assert_canonical(r)
    assert r == P(resultant, QQ)
    assert poly_fp_as_uni_dict(r, 2) == sylvester_resultant_oracle_q(f, g, 1)


def ints_only(kernel):
    """``kernel`` with every list argument checked to hold ints only."""

    def checked(*args):
        for arg in args:
            if isinstance(arg, list):
                assert all(type(v) is int for v in arg), (kernel.__name__, arg)
        return kernel(*args)

    return checked


@settings(PROPERTY, max_examples=60)
@given(st.data())
def test_no_fraction_reaches_a_dense_kernel(data):
    # Q polynomials with denominators and a planted line factor: the dense
    # kernels see only the cleared integer forms
    fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    u = data.draw(directions())
    line = LaurentPoly(QQ, {(0, 0): data.draw(fraction), u: data.draw(fraction)})
    f = data.draw(both_var_polys(QQ)) * line
    g = data.draw(both_var_polys(QQ))
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_dense_divmod", "_dense_mul_sub", "_dense_gcd"):
            mp.setattr(algebra, name, ints_only(getattr(algebra, name)))
        mp.setattr(linestructure, "_last", None)
        assert split_direction(f, u)[0].num_terms >= 2
        line_factor_decomposition(f)
        for var in (1, 2):
            univariate_resultant(f, g, var)


# -- dense size guard -------------------------------------------------------


def test_dense_size_guard_at_the_limit(monkeypatch):
    # with the limit at 10 entries, a column (or row set) of 10 passes and
    # one of 11 is refused before it is built
    monkeypatch.setattr(algebra, "MAX_DENSE_ENTRIES", 10)
    f = P("1 + x^9", GF(2))
    assert split_direction(f, (1, 0)) == (f, P("1", GF(2)))
    with pytest.raises(InputTooLarge):
        split_direction(P("1 + x^10", GF(2)), (1, 0))
    # two columns of 5 and 6 entries: 11 in all
    with pytest.raises(InputTooLarge):
        split_direction(P("1 + x^4 + y + x^5*y", GF(2)), (1, 0))
    # 5 rows in x of 2 entries in y each pass; 6 rows of 2, or 11 rows of 1, do not
    g = P("x + y", GF(2))
    assert univariate_resultant(P("x^4*y + 1", GF(2)), g, 1) == P("1 + y^5", GF(2))
    with pytest.raises(InputTooLarge):
        univariate_resultant(P("x^5*y + 1", GF(2)), g, 1)
    with pytest.raises(InputTooLarge):
        univariate_resultant(P("x^10 + 1", GF(2)), g, 1)


def test_half_plane_is_emitted_in_key_order():
    for bound in range(13):
        assert algebra._half_plane(bound) == half_plane_oracle(bound), bound


# -- refusals ---------------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: algebra.Domain("R"), ValueError, "unknown domain kind 'R'"),
        (lambda: algebra.Domain("Z", 5), ValueError, "modulus only makes sense for a prime field"),
        (lambda: domain_from_name("R"), ValueError, "unknown domain name 'R'"),
        (
            lambda: LaurentPoly.difference_binomial(ZZ, (0, 0)),
            ValueError,
            "difference binomial needs a nonzero vector",
        ),
        (lambda: LaurentPoly.zero(ZZ).min_exponents(), ZeroPolynomial, "zero polynomial has no support"),
        (lambda: algebra.normalize_direction((0, 0)), ValueError, "zero vector has no direction"),
        (lambda: split_direction(P("1 + x^2"), (2, 0)), ValueError, "(2, 0) is not a primitive direction"),
        (lambda: univariate_resultant(P("x + y", QQ), P("1 + x", QQ), 3), ValueError, "var must be 1 or 2"),
        (
            lambda: univariate_resultant(P("x + y", QQ), LaurentPoly.zero(QQ), 1),
            ZeroPolynomial,
            "resultant needs nonzero inputs",
        ),
        (
            lambda: univariate_resultant(P("1 + y", GF(3)), P("x + y", GF(3)), 1),
            ValueError,
            "both inputs must involve the eliminated variable",
        ),
    ],
    ids=[
        "unknown-kind",
        "modulus-off-a-field",
        "unknown-name",
        "zero-binomial",
        "zero-support",
        "zero-direction",
        "non-primitive-split",
        "resultant-var",
        "resultant-zero",
        "resultant-degree-0",
    ],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.value.args == (message,)
