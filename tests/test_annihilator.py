"""Annihilator construction, verification, binomial-product search."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridalgebra import (
    LaurentPoly,
    Patch,
    Pattern,
    QQ,
    Shape,
    TorusConfig,
    ZZ,
    extract_patterns,
    find_annihilator,
    find_binomial_product_annihilator,
    is_annihilated,
    verify,
)
from gridalgebra.annihilator import (
    DIRECT,
    PERIODIZER_TIMES_BINOMIAL,
    _kernel_vector,
    _shift_agrees,
)
from gridalgebra.errors import EmptyValidRegion, NotLowComplexity
from gridalgebra.formats import poly_from_text

from helpers import binomial_product_annihilator_oracle, fraction_rank, random_torus

CHECKER = TorusConfig([[0, 1], [1, 0]])
DOMINO = Shape([(0, 0), (1, 0)])


def test_checkerboard_periodizer_case():
    patterns = extract_patterns(CHECKER, DOMINO)
    assert {p.values for p in patterns} == {(0, 1), (1, 0)}
    result = find_annihilator(patterns)
    assert result.kind == PERIODIZER_TIMES_BINOMIAL
    # differences give the orthogonal vector (1, 1): g = 1 + x^-1
    assert result.periodizer == poly_from_text("1 + x^-1", QQ)
    assert result.constant == 1
    assert result.poly == poly_from_text("x - 1", QQ) * result.periodizer
    assert verify(result, CHECKER).passed


def test_constant_direct_case():
    torus = TorusConfig([[5]])
    result = find_annihilator(extract_patterns(torus, DOMINO))
    assert result.kind == DIRECT
    # kernel of (5, 5) cleared to (1, -1): f = 1 - x^-1
    assert result.poly == poly_from_text("1 - x^-1", QQ)
    assert is_annihilated(torus, result.poly).kind == "yes"
    assert verify(result, torus).passed


def test_zero_pattern_gives_basis_vector():
    shape = Shape.rectangle(2, 2)
    result = find_annihilator({Pattern(shape, (0, 0, 0, 0))})
    assert result.kind == DIRECT
    # kernel is everything; the canonical choice is the first basis vector
    assert result.poly == LaurentPoly.one(QQ)


def test_rejects_high_complexity():
    patch_patterns = {
        Pattern(DOMINO, (1, 2)),
        Pattern(DOMINO, (3, 4)),
        Pattern(DOMINO, (5, 6)),
    }
    with pytest.raises(NotLowComplexity):
        find_annihilator(patch_patterns)


def test_verify_fails_on_mismatched_source():
    result = find_annihilator(extract_patterns(CHECKER, DOMINO))
    other = TorusConfig([[3, 1, 4], [1, 5, 9]])
    report = verify(result, other)
    assert not report.passed
    assert report.annihilation.witness is not None


def test_verify_constant_torus_with_binomial():
    from gridalgebra.annihilator import AnnihilatorResult

    result = AnnihilatorResult(kind=DIRECT, poly=poly_from_text("x - 1", QQ))
    assert verify(result, TorusConfig([[9]])).passed


def test_soundness_random_pattern_sets():
    # zero (case 1) or constant (case 2) inner product against every
    # supplied pattern vector
    rng = random.Random(43)
    for _ in range(40):
        torus = random_torus(rng, kmax=3, lmax=2, max_symbols=3)
        shape = Shape.rectangle(rng.randint(1, 3), rng.randint(1, 3))
        patterns = extract_patterns(torus, shape)
        if len(patterns) > len(shape):
            continue
        result = find_annihilator(patterns)
        vec = {(-e[0], -e[1]): c for e, c in result.poly.terms.items()}
        if result.kind == DIRECT:
            for p in patterns:
                inner = sum(
                    Fraction(vec.get(cell, 0)) * v for cell, v in zip(shape.cells, p.values)
                )
                assert inner == 0
        else:
            gvec = {(-e[0], -e[1]): c for e, c in result.periodizer.terms.items()}
            inners = {
                sum(Fraction(gvec.get(cell, 0)) * v for cell, v in zip(shape.cells, p.values))
                for p in patterns
            }
            assert inners == {result.constant}
        assert verify(result, torus).passed


def test_case_split_matches_rank_oracle():
    rng = random.Random(47)
    for _ in range(40):
        torus = random_torus(rng, kmax=3, lmax=2, symbols=rng.sample(range(0, 5), 3))
        shape = Shape.rectangle(rng.randint(1, 3), rng.randint(1, 2))
        patterns = extract_patterns(torus, shape)
        if len(patterns) > len(shape):
            continue
        result = find_annihilator(patterns)
        rank = fraction_rank([list(p.values) for p in patterns])
        if rank < len(shape):
            assert result.kind == DIRECT
        else:
            assert result.kind == PERIODIZER_TIMES_BINOMIAL


def test_scaling_invariance():
    rng = random.Random(53)
    for _ in range(20):
        torus = random_torus(rng, kmax=3, lmax=3, symbols=[0, 1, 2])
        shape = Shape.rectangle(2, 2)
        patterns = extract_patterns(torus, shape)
        if len(patterns) > len(shape):
            continue
        scaled = {Pattern(p.shape, tuple(3 * v for v in p.values)) for p in patterns}
        a = find_annihilator(patterns)
        b = find_annihilator(scaled)
        assert a.kind == b.kind
        assert a.poly.terms.keys() == b.poly.terms.keys()
        # row scaling leaves the kernel unchanged; the canonical cleared
        # vector is therefore identical
        assert a.poly == b.poly


# -- binomial products ----------------------------------------------------


def test_verify_accepts_patch_periodizer_with_small_support():
    patch = Patch(
        (-3, 3),
        [[0, 3, 0, 3, 0], [3, 3, 3, 3, 3], [3, 3, 3, 3, 3], [3, 3, 3, 3, 3], [3, 3, 3, 3, 3]],
    )
    result = find_annihilator(extract_patterns(patch, Shape.rectangle(1, 2)))
    assert result.kind == PERIODIZER_TIMES_BINOMIAL
    assert result.periodizer == poly_from_text("y^-1", QQ)
    assert verify(result, patch).passed


def test_verify_patch_periodizer_differences_where_the_shape_fits_twice():
    # the first column varies, so the periodizer x^-1 reads the second
    # cell of each domino; (x - 1) x^-1 holds only where the domino fits
    # at u and at u - (1, 0), not in the first column of positions
    patch = Patch((2, -1), [[0, 3, 3, 3], [3, 3, 3, 3], [0, 3, 3, 3]])
    shape = Shape.rectangle(2, 1)
    result = find_annihilator(extract_patterns(patch, shape))
    assert result.kind == PERIODIZER_TIMES_BINOMIAL
    assert result.periodizer == poly_from_text("x^-1", QQ)
    report = verify(result, patch)
    assert report.passed and report.annihilation.region == (3, -1, 4, 1)
    # with one column of positions nothing is differenced
    narrow = Patch((0, 0), [[0, 3], [3, 3]])
    with pytest.raises(EmptyValidRegion):
        verify(find_annihilator(extract_patterns(narrow, shape)), narrow)


def test_binomial_torus_3_5():
    torus = TorusConfig([[(2 * i + 3 * j) % 6 for i in range(3)] for j in range(5)])
    result = find_binomial_product_annihilator(torus, max_norm=5)
    assert result == ((3, 0),)
    assert is_annihilated(torus, poly_from_text("x^3 - 1")).kind == "yes"


def test_binomial_checkerboard_diagonal():
    # both diagonals are periods; the canonical order (max-norm, then
    # lexicographic) picks (1, -1) just ahead of (1, 1)
    result = find_binomial_product_annihilator(CHECKER, max_norm=2)
    assert result == ((1, -1),)
    for t in ((1, -1), (1, 1)):
        assert is_annihilated(CHECKER, LaurentPoly.difference_binomial(ZZ, t)).kind == "yes"


def test_binomial_sum_of_periodic_configs():
    rng = random.Random(59)
    # a is (2,0)-periodic but varies vertically; b is (0,3)-periodic but
    # varies horizontally; the sum has no single small period
    a = [[rng.randint(0, 3) for _ in range(2)] for _ in range(6)]
    b = [[rng.randint(0, 3) for _ in range(6)] for _ in range(3)]
    rows = [[a[j][i % 2] + b[j % 3][i] for i in range(6)] for j in range(6)]
    torus = TorusConfig(rows)
    result = find_binomial_product_annihilator(torus, max_norm=3, max_factors=2)
    assert result is not None and len(result) == 2
    product = LaurentPoly.difference_binomial(ZZ, (2, 0)) * LaurentPoly.difference_binomial(
        ZZ, (0, 3)
    )
    assert is_annihilated(torus, product).kind == "yes"


def test_binomial_every_torus_is_periodic():
    rng = random.Random(61)
    for _ in range(25):
        torus = random_torus(rng, kmax=5, lmax=5)
        result = find_binomial_product_annihilator(torus, max_norm=max(torus.k, torus.l))
        assert result is not None and len(result) == 1


def test_binomial_three_layers_on_a_patch():
    # a function of y, one of x and one of x - y: constant along (1, 0),
    # (0, 1) and (1, 1) in turn, so no fewer than three binomials annihilate
    rng = random.Random(67)
    f, g, h = ([rng.randint(0, 3) for _ in range(20)] for _ in range(3))
    rows = [[f[y] + g[x] + 5 * h[x - y] for x in range(-2, 4)] for y in range(1, 7)]
    patch = Patch((-2, 1), rows)
    assert find_binomial_product_annihilator(patch, max_norm=1, max_factors=2) is None
    result = find_binomial_product_annihilator(patch, max_norm=1)
    assert result == ((0, 1), (1, 0), (1, 1))
    with pytest.raises(EmptyValidRegion):
        find_binomial_product_annihilator(Patch((0, 0), [[1]]), max_norm=1)


def test_binomial_two_factors_on_a_10x10_torus():
    # a function of x - 2y plus one of y: x^(1,0) - 1 kills the second
    # layer and x^(2,1) - 1 the first; the first single period in the search
    # order is (0, 10), beyond max_norm, so the search reaches two factors
    rng = random.Random(71)
    f = [rng.randrange(4) for _ in range(10)]
    g = [rng.randrange(4) for _ in range(10)]
    torus = TorusConfig([[f[(i - 2 * j) % 10] + 5 * g[j] for i in range(10)] for j in range(10)])
    assert find_binomial_product_annihilator(torus, max_norm=3, max_factors=1) is None
    result = find_binomial_product_annihilator(torus, max_norm=3, max_factors=2)
    assert result == ((1, 0), (2, 1))
    assert result == binomial_product_annihilator_oracle(torus, 3, 2)
    assert find_binomial_product_annihilator(torus, max_norm=10, max_factors=1) == ((0, 10),)


@pytest.mark.parametrize(
    "s, t, error, message",
    [
        ("a", "b", TypeError, "cannot coerce 'a' into Z"),
        (Fraction(1, 2), 0, ValueError, "1/2 is not an integer"),
        (1.5, 0, TypeError, "cannot coerce 1.5 into Z"),
    ],
    ids=["string", "fraction", "float"],
)
def test_binomial_search_on_a_torus_rejects_symbols_outside_z(s, t, error, message):
    torus = TorusConfig([[s, t], [t, s]])
    with pytest.raises(error, match=re.escape(message)):
        find_binomial_product_annihilator(torus, max_norm=2)


@pytest.mark.parametrize(
    "rows, max_norm, max_factors, error, message",
    [
        ([["a"]], 2, 1, EmptyValidRegion, "every candidate product outgrows the patch"),
        ([["a", "b"], ["b", "a"]], 3, 3, TypeError, "cannot coerce 'a' into Z"),
        ([[Fraction(1, 2), 1], [1, 1]], 3, 3, ValueError, "1/2 is not an integer"),
    ],
    ids=["one-cell", "string", "fraction"],
)
def test_binomial_search_on_a_patch_reads_symbols_only_once_a_tuple_fits(
    rows, max_norm, max_factors, error, message
):
    # no tuple fits a 1x1 patch, so its symbol is never read; otherwise the
    # first tuple that fits raises the error Z's coercion gives the symbol
    with pytest.raises(error, match=re.escape(message)):
        find_binomial_product_annihilator(Patch((0, 0), rows), max_norm, max_factors=max_factors)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4).flatmap(
        lambda w: st.lists(
            st.lists(st.integers(0, 1), min_size=w, max_size=w), min_size=1, max_size=4
        )
    ),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda t: t != (0, 0)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
def test_shift_agrees_matches_is_annihilated(rows, t, origin):
    # vectors of max-norm up to 3 on patches of side up to 4: many outgrow them
    patch = Patch(origin, rows)
    try:
        expected = is_annihilated(patch, LaurentPoly.difference_binomial(ZZ, t)).annihilated
    except EmptyValidRegion:
        with pytest.raises(EmptyValidRegion):
            _shift_agrees(patch.rows, t)
        return
    assert _shift_agrees(patch.rows, t) == expected


@st.composite
def binomial_searches(draw):
    """(source, max_norm, max_factors), the source a sum of one to three
    layers, each a function of x*d1 - y*d0 for its own vector d of max-norm
    at most max_norm, so constant along d. A patch's layers take seeded
    random values, so as many binomials as layers are needed; a torus's
    depend on x*d1 - y*d0 mod n, with n dividing both sides."""
    max_norm, max_factors = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    box = range(-max_norm, max_norm + 1)
    vectors = st.sampled_from([(a, b) for a in box for b in box if (a, b) != (0, 0)])
    rng = random.Random(draw(st.integers(0, 2**16)))
    n = draw(st.sampled_from((4, 3, 2)))
    torus = draw(st.booleans())
    layers = []
    for w in (1, 5, 25)[: draw(st.sampled_from((3, 2, 1)))]:
        table = [w * rng.randrange(4) for _ in range(n if torus else 80)]
        layers.append((draw(vectors), table))

    def value(x, y):
        return sum(t[(x * d[1] - y * d[0]) % len(t)] for d, t in layers)

    if torus:
        k, l = n * draw(st.sampled_from((2, 1))), n * draw(st.sampled_from((2, 1)))
        source = TorusConfig([[value(i, j) for i in range(k)] for j in range(l)])
    else:
        w, h = draw(st.integers(1, 10)), draw(st.integers(1, 10))
        ox, oy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        source = Patch((ox, oy), [[value(ox + i, oy + j) for i in range(w)] for j in range(h)])
    return source, max_norm, max_factors


def _outcome(search, source, max_norm, max_factors):
    try:
        return search(source, max_norm, max_factors)
    except EmptyValidRegion:
        return EmptyValidRegion


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(binomial_searches())
def test_binomial_search_matches_oracle(search):
    source, max_norm, max_factors = search
    expected = _outcome(binomial_product_annihilator_oracle, source, max_norm, max_factors)
    got = _outcome(find_binomial_product_annihilator, source, max_norm, max_factors)
    assert got == expected


# -- the kernel of [P | -1] ---------------------------------------------------


def test_kernel_vector_skips_dependent_column():
    # column 1 is twice column 0, so it is the first free column
    assert _kernel_vector([[2, 4, 1, 3], [1, 2, 5, 7], [3, 6, 2, 1]]) == [2, -1, 0, 0]


@pytest.mark.parametrize("a", [-4, 1, 7])
def test_one_cell_one_pattern_periodizes_to_its_value(a):
    result = find_annihilator({Pattern(Shape([(0, 0)]), (a,))})
    assert result.kind == PERIODIZER_TIMES_BINOMIAL
    assert result.periodizer == LaurentPoly.one(QQ)
    assert result.constant == a


@st.composite
def wide_matrices(draw):
    """m x (n + 1) integer matrices with 1 <= m <= n <= 5."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, n))
    row = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
    return draw(st.lists(row, min_size=m, max_size=m))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(wide_matrices())
def test_kernel_vector_is_the_canonical_one(matrix):
    # these properties pin the vector down: column j is the first column
    # that depends on the earlier ones, and v is the unique primitive
    # relation between columns 0..j with v_j > 0
    v = _kernel_vector(matrix)
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in matrix)
    assert math.gcd(*v) == 1
    assert next(c for c in v if c) > 0
    j = max(i for i, c in enumerate(v) if c)
    assert fraction_rank([row[:j] for row in matrix]) == j
    assert fraction_rank([row[: j + 1] for row in matrix]) == j


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: find_annihilator(set()), "need at least one pattern"),
        (
            lambda: find_annihilator(
                {Pattern(Shape([(0, 0)]), (0,)), Pattern(Shape([(0, 0), (1, 0)]), (0, 1))}
            ),
            "patterns must share one shape",
        ),
        (lambda: find_binomial_product_annihilator(TorusConfig([[0]]), 0), "max_norm must be at least 1"),
        (
            lambda: find_binomial_product_annihilator(TorusConfig([[0]]), 1, max_factors=4),
            "max_factors must be between 1 and 3",
        ),
    ],
    ids=["no-patterns", "mixed-shapes", "max-norm-0", "max-factors-4"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert info.value.args == (message,)
