"""Patterns, complexity counts, polynomial action, periods."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridalgebra import (
    GF,
    Lattice,
    LaurentPoly,
    Patch,
    Pattern,
    QQ,
    Shape,
    TorusConfig,
    ZZ,
    apply_poly,
    complexity,
    detect_periods,
    extract_patterns,
    is_annihilated,
    period_lattice_index,
    rectangle_complexity_profile,
)
from gridalgebra import configuration
from gridalgebra.configuration import (
    AnnihilationCheck,
    period_from_line_annihilator,
)
from gridalgebra.errors import EmptyValidRegion, InputTooLarge, ShapeTooLarge, ZeroPolynomial
from gridalgebra.formats import poly_from_text

from helpers import (
    apply_poly_oracle,
    brute_force_is_period,
    brute_force_least_period,
    brute_force_patch_patterns,
    brute_force_torus_patterns,
    lattice_cell,
    random_poly,
    random_torus,
    torus_cells,
    translate_orbit_size,
)


def P(text, domain=ZZ):
    return poly_from_text(text, domain)


CHECKER = TorusConfig([[0, 1], [1, 0]])


def test_shape_canonical_order():
    s = Shape([(1, 0), (0, 0), (0, 1)])
    assert s.cells == ((0, 0), (1, 0), (0, 1))  # sorted by (u2, u1)
    for n, m in ((1, 1), (3, 1), (1, 4), (3, 2)):
        rect = Shape.rectangle(n, m)
        generic = Shape([(i, j) for i in range(n) for j in range(m)])
        assert rect == generic and hash(rect) == hash(generic)
        assert rect.bounding_box() == generic.bounding_box() == (0, 0, n - 1, m - 1)


_DOMINO = Shape([(0, 0), (1, 0)])


@pytest.mark.parametrize(
    "value",
    [_DOMINO, Pattern(_DOMINO, (0, 1)), Patch((0, 0), [[0, 1]]), TorusConfig([[0, 1]])],
    ids=lambda v: type(v).__name__,
)
def test_values_refuse_assignment_to_every_field(value):
    for f in dataclasses.fields(value):
        with pytest.raises(AttributeError):
            setattr(value, f.name, getattr(value, f.name))


_ROWS = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "make, derived, other",
    [
        (lambda: Shape([(1, 0), (0, 0)]), {"_box": (5, 5, 5, 5)}, Shape([(0, 0), (0, 1)])),
        (lambda: Pattern(Shape.rectangle(2, 1), [0, 1]), {}, Pattern(_DOMINO, (1, 0))),
        (
            lambda: Patch((1, 2), _ROWS),
            {"width": 9, "height": 9, "alphabet": None},
            Patch((1, 3), _ROWS),
        ),
        (
            lambda: TorusConfig(_ROWS),
            {"k": 9, "l": 9, "alphabet": None},
            TorusConfig(_ROWS[::-1]),
        ),
    ],
    ids=["Shape", "Pattern", "Patch", "TorusConfig"],
)
def test_values_compare_and_hash_by_their_defining_fields(make, derived, other):
    a, b = make(), make()
    for name, v in derived.items():
        object.__setattr__(b, name, v)  # derived fields take no part
    assert a == b and hash(a) == hash(b)
    assert a != other


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=8))
def test_shape_bounding_box_stored_at_construction(cells):
    shape = Shape(cells)
    xs, ys = [c[0] for c in cells], [c[1] for c in cells]
    assert shape.bounding_box() == (min(xs), min(ys), max(xs), max(ys))
    assert shape.extent == max(max(xs) - min(xs), max(ys) - min(ys)) + 1
    assert shape.negate().bounding_box() == (-max(xs), -max(ys), -min(xs), -min(ys))
    with pytest.raises(AttributeError):
        shape._box = (0, 0, 0, 0)


def test_extract_checkerboard_two_phases():
    pats = extract_patterns(CHECKER, Shape.rectangle(2, 2))
    assert len(pats) == 2


def test_extract_constant_single_pattern():
    for shape in (Shape.rectangle(3, 2), Shape.plus()):
        assert len(extract_patterns(TorusConfig([[7]]), shape)) == 1


def test_extract_distinct_patch_cells():
    patch = Patch((0, 0), [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    pats = extract_patterns(patch, Shape([(0, 0)]))
    assert len(pats) == 9


def test_extract_patch_shape_too_large():
    patch = Patch((0, 0), [[1, 2], [3, 4]])
    with pytest.raises(ShapeTooLarge):
        extract_patterns(patch, Shape.rectangle(3, 1))


def test_complexity_checkerboard():
    assert complexity(CHECKER, Shape.rectangle(2, 2)) == (2, True)


def test_complexity_distinct_dominoes():
    patch = Patch((0, 0), [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert complexity(patch, Shape.rectangle(2, 1)) == (6, False)


def test_complexity_constant():
    assert complexity(TorusConfig([[0]]), Shape.rectangle(4, 4)) == (1, True)


def test_profile_constant_all_low():
    table = rectangle_complexity_profile(TorusConfig([[3]]), 4, 4)
    assert all(entry == (1, True) for entry in table.values())


def test_profile_period3_stripes():
    stripes = TorusConfig([[0, 1, 2]])  # value depends on x mod 3 only
    table = rectangle_complexity_profile(stripes, 4, 3)
    for m in range(1, 4):
        count, low = table[(1, m)]
        assert count == 3
        assert low == (3 <= m)


def test_profile_matches_brute_force():
    # the 8 x 8 torus keeps the rectangles inside it, the small ones do not
    rng = random.Random(3)
    tori = [(TorusConfig([[rng.randint(0, 1) for _ in range(8)] for _ in range(8)]), 3)]
    for _ in range(20):
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        tori.append((TorusConfig([[rng.randint(0, 2) for _ in range(k)] for _ in range(l)]), 6))
    for torus, bound in tori:
        table = rectangle_complexity_profile(torus, bound, bound)
        for (n, m), (count, low) in table.items():
            expected = len(brute_force_torus_patterns(torus, Shape.rectangle(n, m)))
            assert count == expected
            assert low == (count <= n * m)


def test_profile_matches_brute_force_on_patches():
    # bounds up to the patch's own width and height, at nonzero origins
    rng = random.Random(4)
    for _ in range(25):
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(0, 2) for _ in range(w)] for _ in range(h)]
        patch = Patch((rng.randint(-5, 5), rng.randint(-5, 5)), rows)
        for nmax, mmax in ((w, h), (rng.randint(1, w), h), (w, rng.randint(1, h))):
            table = rectangle_complexity_profile(patch, nmax, mmax)
            assert list(table) == [(n, m) for n in range(1, nmax + 1) for m in range(1, mmax + 1)]
            for (n, m), (count, low) in table.items():
                assert count == len(brute_force_patch_patterns(patch, Shape.rectangle(n, m)))
                assert low == (count <= n * m)


def test_profile_counts_each_torus_corner_once(monkeypatch):
    # an n x m pattern on a k x l torus repeats its min(n, k) x min(m, l)
    # corner, so any bounds count at most k * l corners from l row starts
    # each, stacking at most l rows of k segments of at most k cells; the
    # checks run before each stack is zipped, since 300 x 300 rectangles
    # take gigabytes
    cases = [
        (CHECKER, 300, 300, (1, 1), (2, False)),
        (TorusConfig([[0, 1, 2]]), 50, 40, (2, 40), (3, True)),
    ]
    for torus, nmax, mmax, rect, entry in cases:
        k, l = torus.k, torus.l
        stacks = []

        def stacking(*rows):
            stacks.append(rows)
            assert len(stacks) <= k * l * l and len(rows) <= l
            assert all(len(row) <= k and all(len(s) <= k for s in row) for row in rows)
            return zip(*rows)

        monkeypatch.setattr(configuration, "zip", stacking, raising=False)
        table = rectangle_complexity_profile(torus, nmax, mmax)
        monkeypatch.undo()
        assert len(table) == nmax * mmax and table[rect] == entry
        assert table[(nmax, mmax)] == (table[(k, l)][0], True)


def test_profile_table_over_the_dense_limit_is_refused_before_any_count(monkeypatch):
    # 10^10 entries are refused at once; under a limit of 12 entries, 3 x 4
    # bounds still pass and one entry more does not
    with pytest.raises(InputTooLarge):
        rectangle_complexity_profile(CHECKER, 100_000, 100_000)
    monkeypatch.setattr(configuration, "MAX_PROFILE_ENTRIES", 12)
    assert len(rectangle_complexity_profile(CHECKER, 3, 4)) == 12
    for nmax, mmax in ((13, 1), (1, 13), (4, 4)):
        with pytest.raises(InputTooLarge):
            rectangle_complexity_profile(CHECKER, nmax, mmax)


def test_torus_complexity_reads_each_residue_once(monkeypatch):
    # only residues mod (k, l) matter on a torus: a 600 x 600 rectangle on
    # the checkerboard zips at most k * l columns, one per residue, not 360,000
    def residues(*columns):
        assert len(columns) <= CHECKER.k * CHECKER.l
        return zip(*columns)

    monkeypatch.setattr(configuration, "zip", residues, raising=False)
    assert complexity(CHECKER, Shape.rectangle(600, 600)) == (2, True)
    monkeypatch.undo()
    torus = random_torus(random.Random(8), kmax=3, lmax=3)
    for shape in (Shape.rectangle(7, 5), Shape([(0, 0), (3, 0), (0, 4), (5, 2)])):
        patterns = {p.values for p in extract_patterns(torus, shape)}
        assert patterns == brute_force_torus_patterns(torus, shape)


def test_profile_patch_bounds():
    patch = Patch((0, 0), [[1, 2], [3, 4]])
    with pytest.raises(ShapeTooLarge):
        rectangle_complexity_profile(patch, 3, 1)


def test_apply_monomial_translates():
    rng = random.Random(5)
    torus = random_torus(rng)
    moved = apply_poly(LaurentPoly.monomial(ZZ, (1, 0)), torus)
    for i, j in torus_cells(torus):
        assert moved.value_at((i, j)) == torus.value_at((i - 1, j))


def test_apply_period_binomial_annihilates():
    rng = random.Random(9)
    torus = random_torus(rng)
    f = P(f"x^{torus.k} - 1")
    out = apply_poly(f, torus)
    assert all(out.value_at(c) == 0 for c in torus_cells(out))


def test_apply_checkerboard_neighbor_sum():
    # hand convolution: (1 + x) c at u is c_u + c_{u-(1,0)} = 0 + 1
    out = apply_poly(P("1 + x"), CHECKER)
    assert all(out.value_at(c) == 1 for c in torus_cells(out))


def test_apply_patch_valid_region():
    patch = Patch((0, 0), [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    out = apply_poly(P("x - 1"), patch)
    assert out.origin == (1, 0)
    assert out.width == 2 and out.height == 3
    # (f c)_u = sum_v f_v c_{u-v}: left neighbor minus self
    assert out.value_at((1, 0)) == 1 - 2


def test_apply_empty_region():
    patch = Patch((0, 0), [[1, 2], [3, 4]])
    with pytest.raises(EmptyValidRegion):
        apply_poly(P("x^3 - 1"), patch)


def test_apply_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        apply_poly(LaurentPoly.zero(ZZ), CHECKER)


def test_is_annihilated_periods():
    torus = TorusConfig([[0, 1, 2], [1, 2, 0]])
    assert is_annihilated(torus, P("x^3 - 1")).kind == "yes"
    assert is_annihilated(torus, P("y^2 - 1")).kind == "yes"
    assert is_annihilated(torus, P("x - 1")).kind == "no"


def test_is_annihilated_checkerboard_x_squared():
    assert is_annihilated(CHECKER, P("x^2 - 1")).kind == "yes"


def test_is_annihilated_constant_counterexample():
    check = is_annihilated(TorusConfig([[1]]), P("x - 2"))
    assert check.kind == "no" and check.witness == (0, 0)


def test_is_annihilated_patch_region_verdict():
    patch = Patch((0, 0), [[1, 1, 1], [1, 1, 1]])
    check = is_annihilated(patch, P("x - 1"))
    assert check.kind == "yes_on_region"
    assert check.region == (1, 0, 2, 1)


def test_periods_binomial_equivalence():
    # x^t - 1 annihilates exactly at torus periods, both directions
    rng = random.Random(17)
    for _ in range(25):
        torus = random_torus(rng, kmax=5, lmax=5)
        bound = max(torus.k, torus.l)
        detected = detect_periods(torus)
        for tx in range(-bound, bound + 1):
            for ty in range(-bound, bound + 1):
                if (tx, ty) == (0, 0):
                    continue
                from gridalgebra import normalize_direction

                u = normalize_direction((tx, ty))
                if max(abs(u[0]), abs(u[1])) > bound:
                    continue
                mult = (tx // u[0]) if u[0] else (ty // u[1])
                expected = u in detected and abs(mult) % detected[u] == 0
                got = is_annihilated(torus, P(f"x^{tx}*y^{ty} - 1")).kind == "yes"
                assert got == expected


def test_detect_periods_examples():
    cb = detect_periods(CHECKER)
    assert cb[(1, 0)] == 2 and cb[(0, 1)] == 2 and cb[(1, 1)] == 1

    const = detect_periods(TorusConfig([[4]]))
    assert const[(1, 0)] == 1 and const[(0, 1)] == 1

    stripes = detect_periods(TorusConfig([[0], [1]]))  # rows alternate in y
    assert stripes[(1, 0)] == 1 and stripes[(0, 1)] == 2


def test_apply_linearity_and_composition():
    rng = random.Random(21)
    for _ in range(15):
        torus = random_torus(rng, kmax=4, lmax=4)
        f, g = random_poly(rng), random_poly(rng)
        both = apply_poly(f + g, torus) if not (f + g).is_zero else None
        fa = apply_poly(f, torus)
        ga = apply_poly(g, torus)
        if both is not None:
            for c in torus_cells(torus):
                assert both.value_at(c) == fa.value_at(c) + ga.value_at(c)
        composed = apply_poly(f * g, torus)
        staged = apply_poly(f, apply_poly(g, torus))
        assert composed == staged


def test_patch_complexity_translation_invariant():
    rng = random.Random(25)
    rows = [[rng.randint(0, 2) for _ in range(5)] for _ in range(4)]
    a = Patch((0, 0), rows)
    b = Patch((-3, 7), rows)
    for shape in (Shape.rectangle(2, 2), Shape([(0, 0), (1, 1)])):
        assert complexity(a, shape) == complexity(b, shape)


def test_torus_extraction_matches_brute_force():
    rng = random.Random(27)
    for _ in range(10):
        torus = random_torus(rng, kmax=5, lmax=5)
        shape = Shape([(0, 0), (1, 0), (0, 1), (2, 1)])
        ours = {p.values for p in extract_patterns(torus, shape)}
        assert ours == brute_force_torus_patterns(torus, shape)


# -- property tests of the raw-row kernels ---------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
DOMAINS = [ZZ, QQ, GF(2), GF(3), GF(5)]


@st.composite
def sources(draw, symbols=st.integers(-3, 3)):
    """A torus, or a patch at a random origin, tiled from a small random
    block so that binomials of the block's periods annihilate it."""
    k0, l0 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    block = [[draw(symbols) for _ in range(k0)] for _ in range(l0)]
    k, l = k0 * draw(st.integers(1, 3)), l0 * draw(st.integers(1, 3))
    rows = [[block[j % l0][i % k0] for i in range(k)] for j in range(l)]
    if draw(st.booleans()):
        return TorusConfig(rows), (k0, l0)
    origin = (draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
    return Patch(origin, rows), (k0, l0)


@st.composite
def polys(draw, domain, periods):
    """Random nonzero polynomial over the domain; half the time times a
    binomial x^t - 1 with t a period of the source's block."""
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    coeffs = st.integers(-3, 3)
    if domain is QQ:
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
    f = LaurentPoly(domain, terms)
    if draw(st.booleans()):
        t = (periods[0] * draw(st.integers(0, 1)), periods[1] * draw(st.integers(0, 1)))
        if t != (0, 0):
            f = f * LaurentPoly.difference_binomial(domain, t)
    return f


def _reference_check(source, f, fit=None):
    """The annihilation test built on the per-cell product: compute all of
    it, then scan it in fundamental / row-major order."""
    product = apply_poly_oracle(f, source, fit)
    if isinstance(product, TorusConfig):
        for cell in torus_cells(product):
            if product.value_at(cell) != 0:
                return AnnihilationCheck("no", witness=cell)
        return AnnihilationCheck("yes")
    ox, oy = product.origin
    for j in range(product.height):
        for i in range(product.width):
            if product.rows[j][i] != 0:
                return AnnihilationCheck("no", witness=(ox + i, oy + j))
    region = (ox, oy, ox + product.width - 1, oy + product.height - 1)
    return AnnihilationCheck("yes_on_region", region=region)


def _outcome(fn, *args, **kwargs):
    # with several symbols outside the domain, the message may name another
    # one, so only the exception type is compared
    try:
        return fn(*args, **kwargs)
    except (EmptyValidRegion, ValueError) as exc:
        return type(exc)


# non-integer symbols: ValueError over Z, and over F_p when the denominator
# vanishes mod p; exact values over Q and the other F_p
FRACTION_SYMBOLS = st.sampled_from([0, 1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 5)])


def _fit(data, source):
    """None, or on a patch half the time a small shape, as verify passes it."""
    if isinstance(source, TorusConfig) or data.draw(st.booleans()):
        return None
    cells = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return Shape(data.draw(st.lists(cells, min_size=1, max_size=4)))


def _assert_matches_reference(data, symbols):
    domain = data.draw(st.sampled_from(DOMAINS))
    source, periods = data.draw(sources(symbols))
    f = data.draw(polys(domain, periods))
    if f.is_zero:
        return
    fit = _fit(data, source)
    expected = _outcome(_reference_check, source, f, fit)
    assert _outcome(is_annihilated, source, f, fit=fit) == expected


@PROPERTY
@given(st.data())
def test_is_annihilated_matches_apply_poly_reference(data):
    _assert_matches_reference(data, st.integers(-3, 3))


@PROPERTY
@given(st.data())
def test_is_annihilated_fraction_symbols_match_reference(data):
    _assert_matches_reference(data, FRACTION_SYMBOLS)


@PROPERTY
@given(st.data())
def test_apply_poly_matches_per_cell_oracle(data):
    # supports reach 2 each way, so tori of side 4 or less wrap terms
    symbols = data.draw(st.sampled_from([st.integers(-3, 3), FRACTION_SYMBOLS]))
    domain = data.draw(st.sampled_from(DOMAINS))
    source, periods = data.draw(sources(symbols))
    f = data.draw(polys(domain, periods))
    if f.is_zero:
        return
    fit = _fit(data, source)
    assert _outcome(apply_poly, f, source, fit=fit) == _outcome(apply_poly_oracle, f, source, fit)


def test_is_annihilated_fraction_symbol_values():
    torus = TorusConfig([[Fraction(1, 2), Fraction(3, 2)]])
    with pytest.raises(ValueError):
        is_annihilated(torus, P("x - 1"))
    assert is_annihilated(torus, P("x^2 - 1", QQ)).kind == "yes"
    # over F_3 the symbols map to 2 and 0, so (x - 1) c at (0, 0) is 0 - 2
    assert is_annihilated(torus, P("x - 1", GF(3))).witness == (0, 0)
    # over F_2, x - 1 is x + 1; 1/2 has no image mod 2
    with pytest.raises(ValueError):
        is_annihilated(torus, P("x + 1", GF(2)))


def test_is_annihilated_rational_coefficients():
    # 1/2 c_{u-(1,0)} - 1/3 c_u vanishes only with both denominators kept
    patch = Patch((0, 0), [[2, 3, Fraction(9, 2), 7]])
    check = is_annihilated(patch, P("1/2*x - 1/3", QQ))
    assert check.witness == (3, 0)
    assert is_annihilated(patch, P("3*x - 2", QQ)).witness == (3, 0)


def test_is_annihilated_empty_valid_region():
    patch = Patch((0, 0), [[1, 2], [3, 4]])
    with pytest.raises(EmptyValidRegion):
        is_annihilated(patch, P("x^2 - 1"))
    with pytest.raises(EmptyValidRegion):
        is_annihilated(patch, P("x*y^-2 + 1"))


def test_is_annihilated_witness_is_first_nonzero_cell():
    # (y - 1) c at u is c_{u - (0, 1)} - c_u: zero up to (2, 0), where it is 3
    torus = TorusConfig([[1, 1, 1], [1, 1, 4]])
    assert is_annihilated(torus, P("y - 1")).witness == (2, 0)
    assert is_annihilated(torus, P("y - 1", GF(5))).witness == (2, 0)
    # 4 = 1 in F_3, so the whole product vanishes
    assert is_annihilated(torus, P("y - 1", GF(3))).kind == "yes"
    patch = Patch((4, -1), [[0, 0, 0, 7], [0, 1, 0, 0]])
    assert is_annihilated(patch, P("x - 1")).witness == (7, -1)


@PROPERTY
@given(sources(), st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=5))
def test_extract_patterns_matches_brute_force(source_and_periods, cells):
    source, _ = source_and_periods
    shape = Shape(cells)
    if isinstance(source, TorusConfig):
        expected = brute_force_torus_patterns(source, shape)
    else:
        expected = brute_force_patch_patterns(source, shape)
        if not expected:
            with pytest.raises(ShapeTooLarge):
                extract_patterns(source, shape)
            return
    assert {p.values for p in extract_patterns(source, shape)} == expected
    assert complexity(source, shape)[0] == len(expected)


@PROPERTY
@given(st.data())
def test_unrolled_reads_each_cell_modulo_the_periods(data):
    # every torus read past the fundamental domain goes through _unrolled
    k, l = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    torus = TorusConfig([[data.draw(st.integers(0, 3)) for _ in range(k)] for _ in range(l)])
    x0, y0 = data.draw(st.integers(-20, 20)), data.draw(st.integers(-20, 20))
    w, h = data.draw(st.integers(1, 3 * k + 1)), data.draw(st.integers(1, 3 * l + 1))
    rows = configuration._unrolled(torus.rows, x0, y0, w, h)
    assert [len(r) for r in rows] == [w] * h
    for j in range(h):
        for i in range(w):
            assert rows[j][i] == torus.value_at((x0 + i, y0 + j)), (i, j)


@st.composite
def tori(draw):
    """Tori tiled from a small block, so most have periods shorter than
    their sides. Each band of l0 rows is the one below it shifted by
    ``shift``, and the torus holds whole turns of that shear, so the
    diagonal (-shift, l0) is a period too."""
    k0 = draw(st.integers(1, 4))
    shift = draw(st.integers(0, k0 - 1))
    turn = k0 // math.gcd(k0, shift)  # bands until the shear comes round
    l0 = draw(st.integers(1, 4 // turn))
    block = [[draw(st.integers(0, 2)) for _ in range(k0)] for _ in range(l0)]
    k, l = k0 * draw(st.integers(1, 2)), l0 * turn * draw(st.integers(1, 2))
    return TorusConfig(
        [[block[j % l0][(i + shift * (j // l0)) % k0] for i in range(k)] for j in range(l)]
    )


@PROPERTY
@given(tori())
def test_period_basis_is_hermite_and_matches_oracle(torus):
    k, l = torus.k, torus.l
    lattice = Lattice.of(torus)
    assert k % lattice.a == 0 and l % lattice.d == 0 and 0 <= lattice.c < lattice.a
    assert (k, 0) in lattice and (0, l) in lattice
    for t in torus_cells(torus):
        assert (t in lattice) == brute_force_is_period(torus, t), t


# Hermite bases (a, c, d) with a, d <= 8 and 0 <= c < a
BASES = st.integers(1, 8).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(0, a - 1), st.integers(1, 8))
)


@PROPERTY
@given(BASES, st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
def test_lattice_membership_matches_the_cell_oracle(basis, t):
    # t is in the lattice iff it is congruent to the origin of the a x d domain
    a, c, d = basis
    assert (t in Lattice(a, c, d)) == (lattice_cell(*t, a, d, c) == (0, 0))


@PROPERTY
@given(BASES, st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_lattice_least_multiple_and_index_match_the_cell_oracle(basis, u):
    # n = a * d always takes u into the lattice, so the scan ends by then
    a, c, d = basis
    lattice = Lattice(a, c, d)
    if u != (0, 0):
        hits = (
            n for n in range(1, a * d + 1) if lattice_cell(n * u[0], n * u[1], a, d, c) == (0, 0)
        )
        assert lattice.least_multiple(u) == next(hits)
    side = range(a * d)
    assert lattice.index == len({lattice_cell(x, y, a, d, c) for x in side for y in side})


@PROPERTY
@given(tori())
def test_detect_periods_matches_oracle(torus):
    detected = detect_periods(torus)
    bound = max(torus.k, torus.l)
    assert set(detected) == {
        (a, b)
        for a in range(bound + 1)
        for b in range(-bound, bound + 1)
        if (a > 0 or b > 0) and math.gcd(a, b) == 1
    }
    for u, n in detected.items():
        assert n == brute_force_least_period(torus, u)
    assert period_lattice_index(torus) == translate_orbit_size(torus)


@PROPERTY
@given(tori(), st.integers(-7, 7), st.integers(-7, 7))
def test_period_from_line_annihilator_matches_oracle(torus, a, b):
    if (a, b) == (0, 0) or math.gcd(a, b) != 1:
        return
    n = brute_force_least_period(torus, (a, b))
    f = LaurentPoly.difference_binomial(ZZ, (n * a, n * b))
    assert period_from_line_annihilator(f, torus) == n


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Patch((0, 0), [[0, 1]]).value_at((2, 0)), KeyError, "cell (2, 0) outside the patch"),
        (lambda: rectangle_complexity_profile(CHECKER, 0, 1), ValueError, "rectangle bounds must be positive"),
        (
            lambda: is_annihilated(CHECKER, LaurentPoly.zero(ZZ)),
            ZeroPolynomial,
            "the zero polynomial annihilates everything",
        ),
        (lambda: Lattice(0, 0, 1), ValueError, "torus periods must be positive"),
        (lambda: Lattice(1, 0, 0), ValueError, "torus periods must be positive"),
        (lambda: Lattice(2, -1, 1), ValueError, "the shear must lie in [0, k)"),
        (lambda: Lattice(2, 2, 1), ValueError, "the shear must lie in [0, k)"),
    ],
    ids=[
        "cell-outside-patch",
        "profile-bound-0",
        "annihilated-by-zero",
        "lattice-a-0",
        "lattice-d-0",
        "lattice-c-negative",
        "lattice-c-at-a",
    ],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.value.args == (message,)
