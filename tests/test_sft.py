"""Window filling, periodic points, the dovetailed decision procedure."""

import itertools
import math
import random

import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from gridalgebra import (
    Budget,
    Lattice,
    Patch,
    Pattern,
    Shape,
    SftSpec,
    TorusConfig,
    decide,
    extract_patterns,
    find_periodic_point,
    is_discrete_convex,
    reconfirm_empty,
    verify_witness,
    window_fillable,
)
from gridalgebra import sft
from gridalgebra.algebra import _dense_gcd, _dense_trim, _primitive
from gridalgebra.errors import InputFormatError, InputTooLarge, WindowSmallerThanShape
from gridalgebra.sft import (
    EMPTY,
    NONEMPTY,
    UNKNOWN,
    BudgetSpent,
    _BudgetExhausted,
    _CompiledSpec,
    _search,
)

from helpers import (
    brute_force_torus_filling,
    brute_force_window_filling,
    discrete_convex_oracle,
    expand_lattice_rows,
    forward_checking_search,
    fraction_rank,
    run_capped,
)

DOMINO = Shape([(0, 0), (1, 0)])
FULL_DOMINO = SftSpec(DOMINO, {0, 1}, {Pattern(DOMINO, v) for v in [(0, 0), (0, 1), (1, 0), (1, 1)]})
EMPTY_DOMINO = SftSpec(DOMINO, {0, 1}, set())
CHECKER_SPEC = SftSpec(DOMINO, {0, 1}, {Pattern(DOMINO, (0, 1)), Pattern(DOMINO, (1, 0))})
# no value sits a fixed number of times in every pattern, so no torus is
# refuted by a symbol count, and none is constant
NO_CONSTANT = SftSpec(DOMINO, {0, 1, 2}, {Pattern(DOMINO, v) for v in [(0, 1), (1, 2), (2, 0)]})


def domino_cotiler_spec():
    from gridalgebra import ClusterTile, cotiler_sft

    return cotiler_sft(ClusterTile(DOMINO))


def plus_cotiler_spec():
    from gridalgebra import ClusterTile, cotiler_sft

    return cotiler_sft(ClusterTile(Shape.plus()))


def test_spec_refuses_assignment_to_every_field():
    for name in ("shape", "alphabet", "allowed"):
        with pytest.raises(AttributeError):
            setattr(CHECKER_SPEC, name, getattr(CHECKER_SPEC, name))


def test_spec_compares_and_hashes_by_its_normalized_fields():
    # the alphabet and the allowed set are normalized to frozensets
    allowed = [Pattern(DOMINO, [1, 0]), Pattern(DOMINO, (0, 1))]
    same = SftSpec(Shape.rectangle(2, 1), [1, 0, 1], allowed)
    assert same == CHECKER_SPEC and hash(same) == hash(CHECKER_SPEC)
    assert len({same, CHECKER_SPEC, FULL_DOMINO}) == 2
    assert SftSpec(DOMINO, {0, 1, 2}, CHECKER_SPEC.allowed) != CHECKER_SPEC


def test_window_full_spec_always_fillable():
    for n in (2, 3, 4):
        assert window_fillable(FULL_DOMINO, n) is not None


def test_window_empty_spec_never_fillable():
    for n in (2, 3, 4):
        assert window_fillable(EMPTY_DOMINO, n) is None


def test_window_cotiler_fillable():
    spec = domino_cotiler_spec()
    for n in range(spec.shape.extent, 6):
        filling = window_fillable(spec, n)
        assert filling is not None


def test_window_too_small():
    with pytest.raises(WindowSmallerThanShape):
        window_fillable(FULL_DOMINO, 1)


def test_window_filling_satisfies_constraints():
    filling = window_fillable(CHECKER_SPEC, 4)
    for j in range(4):
        for i in range(3):
            assert (filling[j][i], filling[j][i + 1]) in {(0, 1), (1, 0)}


def test_periodic_point_full_spec_constant():
    torus = find_periodic_point(FULL_DOMINO, Lattice(1, 0, 1))
    assert torus == TorusConfig([[0]])


def test_periodic_point_checkerboard_spec():
    assert find_periodic_point(CHECKER_SPEC, Lattice(1, 0, 1)) is None
    torus = find_periodic_point(CHECKER_SPEC, Lattice(2, 0, 1))
    assert torus is not None
    assert verify_witness(CHECKER_SPEC, torus)


def test_periodic_point_on_a_sheared_lattice():
    # the checkerboard has periods (2, 0) and (1, 1): one row of the lattice
    # domain, shown as the 2 x 2 torus it fills
    assert find_periodic_point(CHECKER_SPEC, Lattice(2, 1, 1)) == TorusConfig([[0, 1], [1, 0]])
    for shear in (-1, 2):
        with pytest.raises(ValueError, match="shear"):
            Lattice(2, shear, 1)


def test_periodic_point_empty_spec():
    for k, l in [(1, 1), (2, 2), (3, 2)]:
        assert find_periodic_point(EMPTY_DOMINO, Lattice(k, 0, l)) is None


def test_decide_empty_spec():
    decision = decide(EMPTY_DOMINO, Budget(max_window=4, max_torus=3))
    assert decision.kind == EMPTY
    assert decision.window == 2  # minimal: the shape extent
    assert reconfirm_empty(EMPTY_DOMINO, decision.window, seed=5)


def test_decide_domino_cotiler_nonempty():
    spec = domino_cotiler_spec()
    decision = decide(spec, Budget(max_window=4, max_torus=4))
    assert decision.kind == NONEMPTY
    assert verify_witness(spec, decision.witness)
    # the first witness under the schedule is the 2x1 stripe
    assert decision.witness == TorusConfig([[0, 1]])
    assert decision.budget_spent.nodes == 21


def test_decide_plus_pentomino_cotiler():
    from gridalgebra import ClusterTile, exact_cover_on_torus, period_lattice_index

    tile = ClusterTile(Shape.plus())
    spec = plus_cotiler_spec()
    decision = decide(spec, Budget(max_window=4, max_torus=6))
    assert decision.kind == NONEMPTY
    witness = decision.witness
    assert (witness.k, witness.l) == (5, 5)
    assert verify_witness(spec, witness)
    assert exact_cover_on_torus(tile, witness)
    assert period_lattice_index(witness) == 5
    spent = decision.budget_spent
    assert spent.nodes == 48
    assert spent.windows_tried == (3, 4)
    assert len(spent.tori_tried) == 27
    # the 1-cell-high lattice (5, 0), (2, 1), shown as the 5 x 5 torus it fills
    assert spent.tori_tried[-1] == (5, 1, 2)
    assert find_periodic_point(spec, Lattice(5, 2, 1)) == witness


def test_decide_unknown_when_budget_exhausted():
    spec = domino_cotiler_spec()
    decision = decide(spec, Budget(max_window=1, max_torus=0))
    assert decision.kind == UNKNOWN
    decision = decide(spec, Budget(max_window=8, max_torus=6, max_nodes=1))
    assert decision.kind == UNKNOWN
    assert decision.budget_spent.nodes <= 1


def test_decide_deterministic():
    spec = domino_cotiler_spec()
    budget = Budget(max_window=4, max_torus=4)
    a = decide(spec, budget)
    b = decide(spec, budget)
    assert a == b


def test_empty_certificates_are_monotone():
    # if window n is unfillable then so is window n + 1
    shape = Shape.rectangle(2, 2)
    allowed = {Pattern(shape, (0, 1, 1, 0)), Pattern(shape, (1, 0, 0, 1))}
    spec = SftSpec(shape, {0, 1}, allowed)
    unfillable = [n for n in (2, 3, 4, 5) if window_fillable(spec, n) is None]
    if unfillable:
        first = min(unfillable)
        assert unfillable == list(range(first, 6))


def test_witness_pattern_set_is_exact():
    # wraparound extraction on the witness equals its infinite pattern set
    spec = CHECKER_SPEC
    torus = find_periodic_point(spec, Lattice(2, 0, 2))
    assert torus is not None
    assert {p for p in extract_patterns(torus, spec.shape)} <= spec.allowed


def test_random_specs_decided_within_budget():
    rng = random.Random(83)
    for _ in range(10):
        shape = Shape.rectangle(rng.randint(1, 2), rng.randint(1, 2))
        all_patterns = []
        for bits in range(2 ** len(shape)):
            values = tuple((bits >> i) & 1 for i in range(len(shape)))
            all_patterns.append(Pattern(shape, values))
        allowed = set(rng.sample(all_patterns, rng.randint(0, len(shape))))
        spec = SftSpec(shape, {0, 1}, allowed)
        decision = decide(spec, Budget(max_window=4, max_torus=4))
        assert decision.kind in (EMPTY, NONEMPTY)
        if decision.kind == NONEMPTY:
            assert verify_witness(spec, decision.witness)
        else:
            assert reconfirm_empty(spec, decision.window, seed=17)


def test_discrete_convex_rectangles():
    for n, m in [(1, 1), (3, 2), (4, 4)]:
        assert is_discrete_convex(Shape.rectangle(n, m))


def test_discrete_convex_gap():
    assert not is_discrete_convex(Shape([(0, 0), (2, 0)]))


def test_discrete_convex_plus():
    assert is_discrete_convex(Shape.plus())


def test_discrete_convex_l_tromino():
    assert is_discrete_convex(Shape([(0, 0), (1, 0), (0, 1)]))
    # the diagonal pair IS convex (no integer point strictly between),
    # the stretched diagonal is not
    assert is_discrete_convex(Shape([(0, 0), (1, 1)]))
    assert not is_discrete_convex(Shape([(0, 0), (2, 2)]))


def test_discrete_convex_matches_oracle_on_3x3_subsets():
    box = [(x, y) for y in range(3) for x in range(3)]
    for size in range(1, len(box) + 1):
        for cells in itertools.combinations(box, size):
            assert is_discrete_convex(Shape(cells)) == discrete_convex_oracle(cells), cells


# -- search kernels against brute-force enumeration ---------------------------

MAX_FILLINGS = 2**12


@st.composite
def small_specs(draw, coords=range(2), offsets=st.just(0), counted=st.just(False)):
    """Random spec on a shape of at most 4 cells inside the box coords x
    coords, moved by an offset drawn per axis, over 1-3 symbols. A drawn
    ``counted`` asks for at least 2 cells and 2 symbols, and for allowed
    patterns (at least one) that all carry the least symbol m times, with
    0 < m < |D|, so that the symbol count refutes some tori."""
    counted = draw(counted)
    box = [(x, y) for y in coords for x in coords]
    cells = draw(st.lists(st.sampled_from(box), min_size=1 + counted, max_size=4, unique=True))
    dx, dy = draw(offsets), draw(offsets)
    shape = Shape((x + dx, y + dy) for x, y in cells)
    alphabet = sorted(draw(st.sets(st.integers(-1, 2), min_size=1 + counted, max_size=3)))
    patterns = [Pattern(shape, v) for v in itertools.product(alphabet, repeat=len(shape))]
    if counted:
        m = draw(st.integers(1, len(shape) - 1))
        patterns = [p for p in patterns if p.values.count(alphabet[0]) == m]
    allowed = draw(st.sets(st.sampled_from(patterns), min_size=counted))
    return SftSpec(shape, alphabet, allowed)


@settings(max_examples=150, deadline=None)
@given(spec=small_specs(), data=st.data())
def test_search_matches_brute_force(spec, data):
    a = len(spec.alphabet)
    for n in range(spec.shape.extent, 4):
        if a ** (n * n) > MAX_FILLINGS:
            break
        assert window_fillable(spec, n) == brute_force_window_filling(spec, n)
    k = data.draw(st.integers(1, 4), label="k")
    l_max = max(l for l in range(1, 5) if a ** (k * l) <= MAX_FILLINGS)
    l = data.draw(st.integers(1, l_max), label="l")
    expected = brute_force_torus_filling(spec, k, l)
    torus = find_periodic_point(spec, Lattice(k, 0, l))
    assert torus == (None if expected is None else TorusConfig(expected))


# -- node counts: a node is one value tried at one cell -----------------------


def test_plus_cotiler_window_12_spends_pinned_nodes():
    spec = plus_cotiler_spec()
    compiled = _CompiledSpec(spec)
    assert window_fillable(spec, 12, compiled) is not None
    assert compiled.used == 44_224


def test_checkerboard_window_40_has_no_depth_limit():
    # 1,600 cells deep, past the interpreter's default recursion limit
    compiled = _CompiledSpec(CHECKER_SPEC)
    filling = window_fillable(CHECKER_SPEC, 40, compiled)
    assert compiled.used == 2_400
    assert all(row[i] != row[i + 1] for row in filling for i in range(39))


PLUS_WITNESS = [
    [0, 0, 0, 0, 1],
    [0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0],
    [1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0],
]


@pytest.mark.parametrize(
    "make_spec, budget, nodes, witness",
    [
        (domino_cotiler_spec, Budget(max_window=4, max_torus=4), 21, [[0, 1]]),
        (plus_cotiler_spec, Budget(max_window=4, max_torus=6), 48, PLUS_WITNESS),
    ],
    ids=["domino", "plus"],
)
def test_node_budget_boundary_is_exact(make_spec, budget, nodes, witness):
    spec = make_spec()
    short = decide(spec, Budget(budget.max_window, budget.max_torus, max_nodes=nodes - 1))
    assert short.kind == UNKNOWN
    assert short.budget_spent.nodes == nodes - 1
    enough = decide(spec, Budget(budget.max_window, budget.max_torus, max_nodes=nodes))
    assert enough.kind == NONEMPTY
    assert enough.budget_spent.nodes == nodes
    assert enough.witness == TorusConfig(witness)


def _kernel(spec, w, h, wrap, limit=None, shear=0):
    compiled = _CompiledSpec(spec, limit)
    try:
        rows = _search(compiled, w, h, Lattice(w, shear, h) if wrap else None)
    except _BudgetExhausted:
        rows = "exhausted"
    return rows, compiled.used


def test_reconfirm_empty_stops_at_its_node_limit():
    from gridalgebra import ClusterTile, cotiler_sft

    # the U-pentomino tiles the plane only with rotations: window 6 is
    # unfillable, and its re-check in the order of seed 3 spends 629 nodes
    # (44 branch values, 585 revisions)
    spec = cotiler_sft(ClusterTile(Shape([(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)])))
    assert window_fillable(spec, 6) is None
    assert reconfirm_empty(spec, 6, seed=3, max_nodes=629) is True
    assert reconfirm_empty(spec, 6, seed=3, max_nodes=628) is None
    # a forged claim on a spec that fills every window is refuted, in 190
    # nodes at window 10, and every smaller budget ends at its limit: 90,
    # 100, ..., 180 when the next node would try a branch value, the others
    # in the middle of a revision
    assert reconfirm_empty(CHECKER_SPEC, 10, max_nodes=20_000) is False
    assert reconfirm_empty(CHECKER_SPEC, 10, max_nodes=190) is False
    assert reconfirm_empty(CHECKER_SPEC, 10, max_nodes=189) is None
    assert all(reconfirm_empty(CHECKER_SPEC, 10, max_nodes=n) is None for n in range(190))
    assert reconfirm_empty(CHECKER_SPEC, 3, max_nodes=20_000) is False


# -- the emptiness re-check: arc consistency against both searches ---------


# Window 4 is unfillable. A re-check that revised each translate only when
# it was first queued, and not again after a domain of its cells shrank,
# would call it fillable in the order of every seed.
_REQUEUE_SHAPE = Shape([(-1, 0), (0, 0), (1, 0), (1, 1)])
REQUEUE_SPEC = SftSpec(
    _REQUEUE_SHAPE,
    {0, 2},
    {Pattern(_REQUEUE_SHAPE, v) for v in [(0, 2, 2, 0), (0, 2, 2, 2), (2, 0, 0, 0), (2, 2, 0, 2)]},
)


@settings(max_examples=150, deadline=None)
@given(
    spec=small_specs(coords=range(-1, 2), offsets=st.integers(-6, 6)),
    seed=st.integers(0, 2**32 - 1),
)
@example(spec=REQUEUE_SPEC, seed=0)
def test_reconfirm_empty_matches_brute_force_and_the_search(spec, seed):
    """The re-check answers as window_fillable on every window up to 4 x 4
    (as wide as the shape included) and as the brute-force enumeration
    where that stays small, for shapes moved off the origin and in the
    order of any seed."""
    a = len(spec.alphabet)
    for n in range(spec.shape.extent, 5):
        unfillable = window_fillable(spec, n) is None
        if a ** (n * n) <= MAX_FILLINGS:
            assert (brute_force_window_filling(spec, n) is None) == unfillable
        assert reconfirm_empty(spec, n, seed=seed) is unfillable


def test_reconfirm_empty_matches_the_search_on_every_small_cotiler_window():
    """Every window up to 6 x 6 of the co-tiler SFT of each fixed tetromino
    and pentomino (299 windows): the re-check, in the order of a seed per
    window, answers as window_fillable."""
    from gridalgebra import ClusterTile, cotiler_sft

    windows = unfillable = 0
    for size in (4, 5):
        for cells in _fixed_polyominoes(size):
            spec = cotiler_sft(ClusterTile(Shape(cells)))
            for n in range(spec.shape.extent, 7):
                expected = window_fillable(spec, n) is None
                assert reconfirm_empty(spec, n, seed=n) is expected, (cells, n)
                windows += 1
                unfillable += expected
    assert (windows, unfillable) == (299, 4)


def test_reconfirm_empty_of_window_97_stays_small():
    """The checkerboard domino fills window 97, the largest whose keep
    masks fit MAX_MASK_BITS (1,062,407,826 bits, 127 MiB, for
    window_fillable). The re-check builds no mask: a child capped at
    96 MiB of address space finds the filling in 18,721 nodes, and runs
    out one node short. Each of the 9,312 translates is revised once at
    the start and once after its row's one branch value."""
    code = (
        "from gridalgebra import Pattern, Shape, SftSpec, reconfirm_empty\n"
        "d = Shape([(0, 0), (1, 0)])\n"
        "spec = SftSpec(d, {0, 1}, {Pattern(d, (0, 1)), Pattern(d, (1, 0))})\n"
        "print(reconfirm_empty(spec, 97, max_nodes=18_721), "
        "reconfirm_empty(spec, 97, max_nodes=18_720))\n"
    )
    returncode, out, err = run_capped(code, 96 << 20)
    assert (returncode, out) == (0, "False None\n"), err


def test_forward_checking_reference_finds_far_translates():
    # the one cell of the 1 x 1 window is a translate of the shape at (2, 2)
    spec = SftSpec(Shape([(2, 2)]), {0}, set())
    assert forward_checking_search(spec, 1, 1, False) == (None, 0)
    assert _kernel(spec, 1, 1, False) == (None, 0)


# Shapes up to 3 wide, moved off the origin by more than the window side.
@settings(max_examples=150, deadline=None)
@given(spec=small_specs(coords=range(-1, 2), offsets=st.integers(-6, 6)), data=st.data())
def test_search_matches_forward_checking_reference(spec, data):
    """Same first filling and the same node count as the list-based
    forward-checking reference, for windows (as wide as the shape
    included) and tori (narrower than the shape included), and the same
    exhaustion node. The 1 x 1 torus, answered without the walk, is
    checked at every budget up to its whole node count."""
    limit = data.draw(st.sampled_from([None, 20_000, 1, 7, 40]), label="limit")
    for n in range(spec.shape.extent, 5):
        expected = forward_checking_search(spec, n, n, False, limit=limit)
        assert _kernel(spec, n, n, False, limit=limit) == expected
    k = data.draw(st.integers(1, 4), label="k")
    l = data.draw(st.integers(1, 4), label="l")
    assert _kernel(spec, k, l, True, limit=limit) == forward_checking_search(
        spec, k, l, True, limit=limit
    )
    _, nodes = forward_checking_search(spec, 1, 1, True)
    for one_cell_limit in [None, *range(nodes + 1)]:
        assert _kernel(spec, 1, 1, True, limit=one_cell_limit) == forward_checking_search(
            spec, 1, 1, True, limit=one_cell_limit
        )


def test_one_cell_torus_builds_no_torus_masks(monkeypatch):
    """The constant points are read off the clear masks: with the torus
    mask builder gone, the 1 x 1 torus still gives the constant witness,
    or None."""

    def refused(*args):
        raise AssertionError("the 1 x 1 torus built torus masks")

    monkeypatch.setattr(_CompiledSpec, "torus", refused)
    assert find_periodic_point(FULL_DOMINO, Lattice(1, 0, 1)) == TorusConfig([[0]])
    ones_only = SftSpec(DOMINO, {0, 1}, {Pattern(DOMINO, (0, 1)), Pattern(DOMINO, (1, 1))})
    assert find_periodic_point(ones_only, Lattice(1, 0, 1)) == TorusConfig([[1]])
    assert find_periodic_point(NO_CONSTANT, Lattice(1, 0, 1)) is None


def test_mask_cap_does_not_end_a_run_at_the_one_cell_torus(monkeypatch):
    """Every mask passes a cap of 0 bits, but the 1 x 1 torus builds none:
    a spec with an allowed constant pattern is nonempty there, and one
    without is refuted there and stops at the next torus."""
    monkeypatch.setattr(sft, "MAX_MASK_BITS", 0)
    decision = decide(FULL_DOMINO, Budget(max_window=0, max_torus=1))
    assert decision.kind == NONEMPTY
    assert decision.witness == TorusConfig([[0]])
    assert decision.budget_spent == BudgetSpent(nodes=1, windows_tried=(), tori_tried=((1, 1, 0),))
    decision = decide(NO_CONSTANT, Budget(max_window=0, max_torus=2))
    assert decision.kind == UNKNOWN
    assert decision.budget_spent == BudgetSpent(
        nodes=3, windows_tried=(), tori_tried=((1, 1, 0), (1, 2, 0))
    )


def test_verify_witness_rejects_a_patch():
    with pytest.raises(InputFormatError, match="a witness must be a torus"):
        verify_witness(CHECKER_SPEC, Patch((0, 0), [[0]]))


def _fixed_polyominoes(size):
    """Every fixed polyomino of ``size`` cells, moved to touch both axes."""
    shapes = {((0, 0),)}
    for _ in range(size - 1):
        grown = set()
        for cells in shapes:
            for x, y in cells:
                for c in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if c not in cells:
                        new = cells + (c,)
                        mx, my = min(p[0] for p in new), min(p[1] for p in new)
                        grown.add(tuple(sorted((p[0] - mx, p[1] - my) for p in new)))
        shapes = grown
    return sorted(shapes)


def _projection_nonsingular(spec, axis, n):
    """Whether the circulant of the shape's projection on axis (0: columns
    x, 1: rows y), taken mod n, is nonsingular: that is, whether the
    projection has no n-th root of unity as a root."""
    r = [0] * n
    for cell in spec.shape.cells:
        r[cell[axis] % n] += 1
    return fraction_rank([[r[(j - i) % n] for j in range(n)] for i in range(n)]) == n


def _count_refutes(spec, area, k, l, b=0):
    """Whether a symbol count refutes the lattice with basis (k, 0), (b, l),
    by the reference's reading: area must divide k * l, k when the row
    projection is nonsingular mod l, and the column period l * k / g when
    the column projection is nonsingular mod g = gcd(k, b)."""
    g = math.gcd(k, b)
    return bool(
        k * l % area
        or (k % area and _projection_nonsingular(spec, 1, l))
        or (l * k // g % area and _projection_nonsingular(spec, 0, g))
    )


# (k, l, b) of what decide tries at the bench's max_torus of 6: every torus
# up to 6 x 6, then every sheared lattice (k, 0), (b, l) of index up to 6
BENCH_LATTICES = [(k, l, 0) for k in range(1, 7) for l in range(1, 7)] + [
    (k, l, b) for k in range(2, 7) for l in range(1, 6 // k + 1) for b in range(1, k)
]

# every torus up to 4 x 4 with each of its shears
SMALL_LATTICES = [(k, l, b) for k in range(1, 5) for l in range(1, 5) for b in range(k)]


def _expanded(rows, b):
    return None if rows is None else TorusConfig(expand_lattice_rows(rows, b))


def _sweep_cotiler_tori(size, count):
    """Every torus up to 6 x 6 and every sheared lattice of index up to 6
    (the bench's max_torus, tori narrower and shorter than the tile
    included) gives the reference's first filling and node count on the
    co-tiler SFT of each fixed polyomino of size cells, and
    find_periodic_point gives the same filling, expanded. It spends no node
    exactly where a count of the tile's 1s refutes the lattice (size must
    divide k * l, and k or the column period where the row or column
    projection allows no other row or column counts), and the reference
    finds no point there. Returns how many sheared lattices of fitting
    index the columns alone refute."""
    from gridalgebra import ClusterTile, cotiler_sft

    tiles = _fixed_polyominoes(size)
    assert len(tiles) == count
    refuted = sheared = 0
    for cells in tiles:
        spec = cotiler_sft(ClusterTile(Shape(cells)))
        compiled = _CompiledSpec(spec)
        assert compiled.area == size
        for k, l, b in BENCH_LATTICES:
            expected = forward_checking_search(spec, k, l, True, shear=b)
            assert _kernel(spec, k, l, True, shear=b) == expected, (cells, k, l, b)
            before = compiled.used
            torus = find_periodic_point(spec, Lattice(k, b, l), compiled)
            spent = compiled.used - before
            rows, nodes = expected
            assert torus == _expanded(rows, b), (cells, k, l, b)
            if _count_refutes(spec, size, k, l, b):
                refuted += k * l % size == 0
                sheared += k * l % size == 0 and b > 0 and k % size == 0
                assert rows is None and spent == 0, (cells, k, l, b)
            else:
                assert spent == nodes > 0, (cells, k, l, b)
    assert refuted  # some torus of fitting area is refuted by its rows or columns
    return sheared


def test_torus_kernel_matches_reference_on_every_tetromino_cotiler():
    # the lattice (4, 0), (2, 1) has columns of period 2 and 4 | 4 * 1: the
    # columns alone refute it for the 11 tetrominoes unbalanced mod 2
    assert _sweep_cotiler_tori(4, 19) == 11


def test_torus_kernel_matches_reference_on_every_pentomino_cotiler():
    _sweep_cotiler_tori(5, 63)


def test_counted_specs_reach_the_row_and_column_count():
    """The counted strategy of the property tests below draws specs whose
    area divides k * l but not k, with rows nonsingular mod l; the same
    with the column period l * k / gcd(k, b) and columns nonsingular mod
    gcd(k, b), on a rectangle and on a sheared lattice: so those tests run
    the row, the column and the sheared column refutation."""
    strategy = small_specs(coords=range(-1, 2), offsets=st.integers(-6, 6), counted=st.just(True))

    def refuted(spec, axis, k, l, b):
        area = _CompiledSpec(spec).area
        g = math.gcd(k, b)
        period, n = ((l * k // g, g), (k, l))[axis]
        return k * l % area == 0 and period % area and _projection_nonsingular(spec, axis, n)

    for axis, sheared in ((1, False), (0, False), (0, True)):
        lattices = [(k, l, b) for k, l, b in SMALL_LATTICES if (b > 0) == sheared]
        find(
            strategy,
            lambda spec: any(refuted(spec, axis, *lattice) for lattice in lattices),
            settings=settings(database=None, max_examples=500),
        )


@settings(max_examples=100, deadline=None)
@given(
    spec=small_specs(coords=range(-1, 2), offsets=st.integers(-6, 6), counted=st.booleans()),
)
def test_periodic_point_matches_reference_on_every_small_torus(spec):
    """The symbol-count refutations (of the area, the rows and the sheared
    columns) never lose a periodic point: on every torus up to 4 x 4 and
    every shear of it, find_periodic_point finds the reference's filling,
    expanded to its rectangle."""
    compiled = _CompiledSpec(spec)
    for k, l, b in SMALL_LATTICES:
        rows, _ = forward_checking_search(spec, k, l, True, shear=b)
        found = find_periodic_point(spec, Lattice(k, b, l), _compiled=compiled)
        assert found == _expanded(rows, b), (k, l, b)


@settings(max_examples=100, deadline=None)
@given(
    spec=small_specs(coords=range(-1, 2), offsets=st.integers(-6, 6), counted=st.booleans()),
)
def test_periodic_point_matches_brute_force_on_every_lattice_of_index_8(spec):
    """On every lattice (k, 0), (b, l) of index k * l <= 8 (tori narrower
    than the shape included), find_periodic_point returns the first filling
    of the fundamental domain that enumeration finds, expanded to its
    rectangle, and None exactly where enumeration finds none."""
    compiled = _CompiledSpec(spec)
    for k in range(1, 9):
        for l in range(1, 8 // k + 1):
            if len(spec.alphabet) ** (k * l) > MAX_FILLINGS:
                continue
            for b in range(k):
                rows = brute_force_torus_filling(spec, k, l, b)
                found = find_periodic_point(spec, Lattice(k, b, l), compiled)
                assert found == (None if rows is None else TorusConfig(rows)), (k, l, b)


@pytest.mark.parametrize(
    "size, count, nodes, kinds",
    [
        (4, 19, 4_698, (19, 0, 0)),
        (5, 63, 43_444, (47, 4, 12)),
        (6, 216, 264_930, (144, 4, 68)),
    ],
    ids=["tetromino", "pentomino", "hexomino"],
)
def test_fixed_cotilers_spend_pinned_nodes(size, count, nodes, kinds):
    """Total decide nodes at Budget(6, 6) over the co-tiler SFTs of every
    fixed tetromino, pentomino and hexomino, and how many end nonempty,
    empty and unknown: a change that does more search work fails here on
    any machine, the 68 hexominoes that exhaust the schedule included."""
    from gridalgebra import ClusterTile, cotiler_sft

    tiles = _fixed_polyominoes(size)
    assert len(tiles) == count
    decisions = [decide(cotiler_sft(ClusterTile(Shape(c))), Budget(6, 6)) for c in tiles]
    assert sum(d.budget_spent.nodes for d in decisions) == nodes
    counts = tuple(sum(d.kind == kind for d in decisions) for kind in (NONEMPTY, EMPTY, UNKNOWN))
    assert counts == kinds


def test_coprime_shortcut_agrees_with_the_gcd():
    """For n = 1 and prime n, coprime reads whether the folded projection's
    coefficients are all equal instead of taking a gcd: on random shapes it
    agrees with the primitive remainder sequence for every n <= 12, and
    both answers occur for prime n."""
    rng = random.Random(22)
    box = [(x, y) for y in range(-3, 6) for x in range(-3, 6)]
    answers = set()
    for _ in range(300):
        shape = Shape(rng.sample(box, rng.randint(1, 8)))
        compiled = _CompiledSpec(SftSpec(shape, {0}, set()))
        for axis in (0, 1):
            for n in range(1, 13):
                r = [0] * n
                for cell in shape.cells:
                    r[cell[axis] % n] += 1
                g = _dense_gcd([-1] + [0] * (n - 1) + [1], _primitive(_dense_trim(r)))
                assert compiled.coprime(axis, n) == (len(g) == 1), (shape.cells, axis, n)
                if n in (2, 3, 5, 7, 11):
                    answers.add(len(g) == 1)
    assert answers == {False, True}


def test_symbol_count_area():
    # the checkerboard domino has one 0 and one 1 in each pattern: 2 | k * l
    assert _CompiledSpec(CHECKER_SPEC).area == 2
    assert _CompiledSpec(FULL_DOMINO).area == 1  # no value has a fixed count
    assert _CompiledSpec(EMPTY_DOMINO).area == 1  # no pattern at all
    assert _CompiledSpec(plus_cotiler_spec()).area == 5


def test_decide_reports_a_refused_mask_as_unknown_with_what_it_settled():
    # window 98 would take 1,106,899,416 keep-mask bits, past MAX_MASK_BITS;
    # windows 2-97 fill first, and their nodes stay counted
    decision = decide(CHECKER_SPEC, Budget(max_window=100, max_torus=0))
    assert decision.kind == UNKNOWN
    assert decision.budget_spent.windows_tried == tuple(range(2, 99))
    assert decision.budget_spent.nodes == 462_216


def test_window_and_torus_masks_are_sized_before_they_are_built():
    # 2 values x 10^6 cells x about 6 * 10^6 bits each: refused at once, and
    # window 98 is the first whose masks pass MAX_MASK_BITS; the re-check
    # builds no masks but refuses the same windows
    for n in (98, 1000):
        for check in (window_fillable, reconfirm_empty):
            with pytest.raises(InputTooLarge):
                check(CHECKER_SPEC, n)
    with pytest.raises(InputTooLarge):
        find_periodic_point(CHECKER_SPEC, Lattice(1000, 0, 1000))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: SftSpec(DOMINO, {0, 1}, {Pattern(Shape([(0, 0)]), (0,))}),
            "allowed patterns must live on the spec shape",
        ),
        (lambda: Lattice(0, 0, 2), "torus periods must be positive"),
    ],
    ids=["pattern-on-another-shape", "period-0"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert info.value.args == (message,)
