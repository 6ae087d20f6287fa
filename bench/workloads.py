"""Seeded workload corpora and the per-item work of the benchmark.

Every workload turns a seed into a list of inputs built through the
package's public constructors, and runs each input as one *item*: the user
work plus an independent re-check of its result. A re-check that fails
raises ``CheckFailed``, which aborts the benchmark run. An item counts as
failed when it raises anything else, when its SFT decision is UNKNOWN, or
when the library's own ``verify`` rejects a result that passed the
independent check (a disagreement inside the library, reported rather than
hidden).

Each item returns its canonical result serialized through
``gridalgebra.formats`` (search node counts left out), which the harness
hashes into the run digest.
"""

from __future__ import annotations

import itertools
import random

from gridalgebra import (
    GF,
    Budget,
    ClusterTile,
    LaurentPoly,
    Patch,
    Pattern,
    Shape,
    SftSpec,
    TorusConfig,
    ZZ,
    classify,
    decide,
    detect_periods,
    eliminate_and_classify_fp,
    exact_cover_on_torus,
    extract_patterns,
    find_annihilator,
    find_binomial_product_annihilator,
    is_discrete_convex,
    line_factor_decomposition,
    period_lattice_index,
    reconfirm_empty,
    rectangle_complexity_profile,
    verify,
    verify_witness,
)
from gridalgebra import formats
from gridalgebra.applications import cotiler_decision, cotiler_sft
from gridalgebra.linestructure import PERIODIC_IN_DIRECTION, TWO_PERIODIC, UNDETERMINED
from gridalgebra.sft import EMPTY, NONEMPTY, UNKNOWN


class CheckFailed(Exception):
    """A result failed its independent re-check: the program is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- independent oracles ----------------------------------------------------
# Plain-Python re-implementations used only to re-check results; they share
# no code with the library.


def _value(source, x, y):
    if isinstance(source, TorusConfig):
        return source.rows[y % source.l][x % source.k]
    return source.rows[y - source.origin[1]][x - source.origin[0]]


def _annihilates(terms: dict, source) -> bool:
    """(f c)_u = sum_v f_v c_{u-v} vanishes on every cell where it is defined."""
    if isinstance(source, TorusConfig):
        cells = [(i, j) for j in range(source.l) for i in range(source.k)]
    else:
        xs = [e[0] for e in terms]
        ys = [e[1] for e in terms]
        ox, oy = source.origin
        cells = [
            (x, y)
            for y in range(oy + max(ys), oy + source.height + min(ys))
            for x in range(ox + max(xs), ox + source.width + min(xs))
        ]
    return all(
        sum(c * _value(source, x - v[0], y - v[1]) for v, c in terms.items()) == 0
        for x, y in cells
    )


def _pattern_products(poly: LaurentPoly, patterns) -> set:
    """Inner products of the cell vector of ``poly`` (cell d carries the
    coefficient at -d) with every pattern."""
    return {
        sum(poly.terms.get((-d[0], -d[1]), 0) * v for d, v in zip(p.shape.cells, p.values))
        for p in patterns
    }


def _check_annihilator(result, patterns) -> None:
    """find_annihilator's claim, checked on the patterns it was given: the
    direct kind is orthogonal to every pattern; otherwise the periodizer has
    the same inner product with each, and poly = (x - 1) * periodizer."""
    if result.periodizer is None:
        require(_pattern_products(result.poly, patterns) == {0}, "annihilator not orthogonal")
        return
    require(
        _pattern_products(result.periodizer, patterns) == {result.constant},
        "periodizer not constant on the patterns",
    )
    expected: dict = {}
    for (x, y), c in result.periodizer.terms.items():
        expected[(x + 1, y)] = expected.get((x + 1, y), 0) + c
        expected[(x, y)] = expected.get((x, y), 0) - c
    require(
        result.poly.terms == {e: c for e, c in expected.items() if c},
        "annihilator is not (x - 1) times the periodizer",
    )


def _is_period(torus: TorusConfig, t) -> bool:
    return all(
        torus.rows[j][i] == torus.rows[(j + t[1]) % torus.l][(i + t[0]) % torus.k]
        for j in range(torus.l)
        for i in range(torus.k)
    )


def _binomial_product_terms(ts) -> dict:
    terms = {(0, 0): 1}
    for t in ts:
        out: dict = {}
        for e, c in terms.items():
            for d, s in ((t, 1), ((0, 0), -1)):
                k = (e[0] + d[0], e[1] + d[1])
                out[k] = out.get(k, 0) + c * s
        terms = {e: c for e, c in out.items() if c}
    return terms


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    a = [r[:] for r in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def _resultant_at(f: LaurentPoly, g: LaurentPoly, var: int, point: int, p: int) -> int:
    """Sylvester determinant eliminating ``var`` with the other variable set
    to ``point``, by Gaussian elimination over F_p."""
    vi, oi = var - 1, 2 - var

    def dense(h):
        lo = min(e[vi] for e in h.terms)
        hi = max(e[vi] for e in h.terms)
        out = [0] * (hi - lo + 1)
        for e, c in h.terms.items():
            out[e[vi] - lo] = (out[e[vi] - lo] + c * pow(point, e[oi], p)) % p
        return out[::-1]

    fd, gd = dense(f), dense(g)
    n, m = len(fd) - 1, len(gd) - 1
    rows = [[0] * i + fd + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + gd + [0] * (n - 1 - i) for i in range(n)]
    return _det_mod_p(rows, p)


def _eval_univariate(r: LaurentPoly, var: int, point: int, p: int) -> int:
    oi = 2 - var
    return sum(c * pow(point, e[oi], p) for e, c in r.terms.items()) % p


# -- torus-periodicity ------------------------------------------------------

_LINE_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2)]
_RECTS = [(2, 1), (1, 2), (2, 2)]


# (m, k, l): k and l multiples of m, at most 10
_LINE_PERIODS = [
    (m, m * i, m * j) for m in (2, 3, 4) for i in range(1, 10 // m + 1) for j in range(1, 10 // m + 1)
]


def _line_periodic_torus(rng: random.Random, j: int) -> TorusConfig:
    """Torus whose values depend only on (b*x - a*y) mod m for a direction
    (a, b): periodic along (a, b), hence low complexity. The direction and
    (m, k, l) cycle with j; the values are random."""
    a, b = _LINE_DIRECTIONS[j % len(_LINE_DIRECTIONS)]
    m, k, l = _LINE_PERIODS[j % len(_LINE_PERIODS)]
    seq = [rng.randint(0, 2) for _ in range(m)]
    return TorusConfig([[seq[(b * x - a * y) % m] for x in range(k)] for y in range(l)])


_TORUS_SIZES = [(k, l) for k in range(2, 11) for l in range(2, 11)]


def _random_torus(rng: random.Random, j: int) -> TorusConfig:
    k, l = _TORUS_SIZES[j * 37 % len(_TORUS_SIZES)]
    symbols = rng.sample(range(0, 5), rng.randint(2, 3))
    return TorusConfig([[rng.choice(symbols) for _ in range(k)] for _ in range(l)])


def _cut_patch(rng: random.Random, j: int, torus: TorusConfig) -> Patch:
    w, h = 5 + j % 4, 5 + (j // 4) % 4
    ox, oy = rng.randint(-3, 3), rng.randint(-3, 3)
    rows = [[_value(torus, ox + x, oy + y) for x in range(w)] for y in range(h)]
    return Patch((ox, oy), rows)


def torus_inputs(rng: random.Random, count: int) -> list:
    """Two line-periodic tori, two random tori and one patch cut from the
    torus before it, in every five inputs. Sizes and directions cycle, so
    the mix of sizes is the same for every seed; the values are random."""
    out = []
    for i in range(count):
        j = i // 5
        kind = i % 5
        if kind < 2:
            out.append(_line_periodic_torus(rng, 2 * j + kind))
        elif kind < 4:
            out.append(_random_torus(rng, 2 * j + kind - 2))
        else:
            out.append(_cut_patch(rng, j, out[-1]))
    return out


def torus_item(source) -> tuple[bool, dict]:
    torus = isinstance(source, TorusConfig)
    out: dict = {"source": formats.source_to_json(source)}

    profile = rectangle_complexity_profile(source, 3, 3)
    for (n, m), (count, low) in profile.items():
        require(low == (count <= n * m), "profile low-complexity flag")
        if torus and n > 1:
            require(count >= profile[(n - 1, m)][0], "profile not monotone")
    require(profile[(1, 1)][0] == len(source.alphabet) or not torus, "1x1 complexity")
    out["profile"] = sorted([n, m, count] for (n, m), (count, _) in profile.items())

    annihilators = []
    verified = True
    for n, m in _RECTS:
        shape = Shape.rectangle(n, m)
        patterns = extract_patterns(source, shape)
        require(len(patterns) == profile[(n, m)][0], "extract_patterns vs profile")
        if len(patterns) > len(shape):
            continue
        result = find_annihilator(patterns)
        _check_annihilator(result, patterns)
        passed = verify(result, source).passed
        require(passed or not torus, "verify rejected an annihilator of a torus")
        verified = verified and passed
        decomp = line_factor_decomposition(result.poly)
        require(decomp.product() == result.poly, "line decomposition identity")
        annihilators.append(
            {
                "rect": [n, m],
                "result": formats.annihilator_result_to_json(result),
                "verified": passed,
                "lines": formats.decomposition_to_json(decomp),
            }
        )
    out["annihilators"] = annihilators

    if torus:
        periods = detect_periods(source)
        for u, n in periods.items():
            require(_is_period(source, (n * u[0], n * u[1])), "detected period is not one")
        index = period_lattice_index(source)
        require((source.k * source.l) % index == 0, "lattice index divides k*l")
        out["periods"] = sorted([u[0], u[1], n] for u, n in periods.items())
        out["lattice_index"] = index
        max_norm = max(source.k, source.l)
    else:
        max_norm = 2
    ts = find_binomial_product_annihilator(source, max_norm, max_factors=2)
    if ts is not None:
        require(_annihilates(_binomial_product_terms(ts), source), "binomial product")
    else:
        require(not torus, "a torus always has a binomial annihilator")
    out["binomials"] = None if ts is None else [list(t) for t in ts]
    return verified, out


# -- poly-lines -------------------------------------------------------------

_PRIMES = [2, 3, 5, 7, 101]


def _triangle(rng: random.Random) -> LaurentPoly:
    while True:
        pts = {(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)}
        if len(pts) != 3:
            continue
        (ax, ay), (bx, by), (cx, cy) = sorted(pts)
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) != 0:
            return LaurentPoly(ZZ, {p: rng.choice([-2, -1, 1, 2, 3]) for p in pts})


def _line_poly(rng: random.Random, u) -> LaurentPoly:
    """1 + c1 x^u + c2 x^(2u) with random nonzero c1, c2 (up to a sign)."""
    coeffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)]
    return LaurentPoly(ZZ, {(j * u[0], j * u[1]): c for j, c in enumerate(coeffs)})


def _fp_poly(rng: random.Random, p: int, xspan: int, yspan: int) -> LaurentPoly:
    """Random F_p polynomial with exactly the given x and y spans: the
    corners (0, 0) and (xspan, yspan) are nonzero, other terms appear with
    probability 0.6."""
    terms = {
        (i, j): rng.randrange(p)
        for i in range(xspan + 1)
        for j in range(yspan + 1)
        if rng.random() < 0.6
    }
    terms[(0, 0)] = rng.randrange(1, p)
    terms[(xspan, yspan)] = rng.randrange(1, p)
    return LaurentPoly(GF(p), terms)


_DIRECTION_SETS = [
    dirs for n in range(1, 5) for dirs in itertools.combinations(_LINE_DIRECTIONS, n)
]


def poly_inputs(rng: random.Random, count: int) -> list:
    """Alternately a Z composite with 1-4 planted line factors (every set
    of directions in turn) and an F_p pair. Pair j takes the prime j mod 5 and x/y spans
    (1-3 each for f and g) from j mod 81, so 405 pairs cover every
    combination of prime and spans once."""
    items = []
    for i in range(count):
        j = i // 2
        if i % 2 == 0:
            dirs = _DIRECTION_SETS[j % len(_DIRECTION_SETS)]
            f = _triangle(rng)
            for u in dirs:
                f = f * _line_poly(rng, u)
            items.append(("Z", f, tuple(sorted(dirs))))
        else:
            p = _PRIMES[j % len(_PRIMES)]
            spans = [1 + (j % 81) // 3**e % 3 for e in range(4)]
            f = _fp_poly(rng, p, spans[0], spans[1])
            g = _fp_poly(rng, p, spans[2], spans[3])
            items.append(("Fp", f, g))
    return items


def poly_item(item) -> tuple[bool, dict]:
    kind, f, extra = item
    if kind == "Z":
        decomp = line_factor_decomposition(f)
        require(decomp.product() == f, "line decomposition identity")
        require(tuple(sorted(decomp.directions())) == extra, "planted line directions")
        verdict = classify(f)
        expected = PERIODIC_IN_DIRECTION if len(extra) == 1 else UNDETERMINED
        require(verdict.kind == expected, "classification of planted lines")
        return True, {
            "poly": formats.poly_to_json(f),
            "lines": formats.decomposition_to_json(decomp),
            "verdict": formats.verdict_to_json(verdict),
        }
    g = extra
    p = f.domain.p
    report = eliminate_and_classify_fp(f, g)
    for entry in report.entries:
        r = entry.resultant
        vi = entry.variable - 1
        require(all(e[vi] == 0 for e in r.terms), "eliminant still has the variable")
        for point in range(1, min(p, 4)):
            require(
                _eval_univariate(r, entry.variable, point, p)
                == _resultant_at(f, g, entry.variable, point, p),
                "resultant disagrees with its evaluation at a point",
            )
    nonzero = sum(e.nonzero for e in report.entries)
    expected = {2: TWO_PERIODIC, 1: PERIODIC_IN_DIRECTION}.get(nonzero, "inconclusive")
    require(report.verdict == expected, "elimination verdict")
    return True, {
        "f": formats.poly_to_json(f),
        "g": formats.poly_to_json(g),
        "report": formats.elimination_report_to_json(report),
    }


# -- sft-random and cotiler ---------------------------------------------------
# Uniformly random specs and tiles have a heavy tail: some need windows or
# tori beyond any budget that keeps a run short, and end UNKNOWN. So every
# input is planted with a known outcome that the budgets below always reach,
# while its patterns stay random.

SFT_BUDGET = Budget(max_window=6, max_torus=4, max_nodes=5_000_000)
COTILER_BUDGET = Budget(max_window=6, max_torus=6, max_nodes=5_000_000)


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_cells(pts) -> list:
    """Integer points of the convex hull of pts, by a scan of the bounding box."""
    pts = sorted(set(pts))
    lower: list = []
    upper: list = []
    for q in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], q) <= 0:
            lower.pop()
        lower.append(q)
    for q in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], q) <= 0:
            upper.pop()
        upper.append(q)
    hull = lower[:-1] + upper[:-1] or pts
    xs = [q[0] for q in pts]
    ys = [q[1] for q in pts]
    cells = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if len(hull) < 3:
                (ax, ay), (bx, by) = hull[0], hull[-1]
                inside = _cross((ax, ay), (bx, by), (x, y)) == 0
            else:
                inside = all(
                    _cross(hull[i], hull[(i + 1) % len(hull)], (x, y)) >= 0
                    for i in range(len(hull))
                )
            if inside:
                cells.append((x, y))
    return cells


def _convex_shape(rng: random.Random) -> Shape:
    while True:
        pts = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(2, 4))]
        cells = _hull_cells(pts)
        if 2 <= len(cells) <= 5:
            shape = Shape(cells)
            require(is_discrete_convex(shape), "generated shape is not discrete convex")
            return shape


def _patterns_of_torus(shape: Shape, rows) -> set:
    k, l = len(rows[0]), len(rows)
    return {
        Pattern(shape, tuple(rows[(j + cy) % l][(i + cx) % k] for cx, cy in shape.cells))
        for j in range(l)
        for i in range(k)
    }


def _nonempty_spec(rng: random.Random, shape: Shape, alphabet: list, size: int) -> SftSpec:
    """Allowed patterns contain every pattern of a random torus of periods
    at most 3, so a periodic point exists."""
    while True:
        k, l = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.choice(alphabet) for _ in range(k)] for _ in range(l)]
        allowed = _patterns_of_torus(shape, rows)
        if len(allowed) <= size:
            break
    while len(allowed) < size:
        allowed.add(Pattern(shape, tuple(rng.choice(alphabet) for _ in shape.cells)))
    return SftSpec(shape, alphabet, allowed)


def _empty_spec(rng: random.Random, shape: Shape, alphabet: list, size: int) -> SftSpec:
    """Two cells a, b of the shape take values from disjoint symbol sets, so
    the translates at u and u + (b - a) disagree on the cell they share and
    no window of side extent + |b - a| can be filled."""
    cells = shape.cells
    a, b = min(
        ((p, q) for p in cells for q in cells if p != q),
        key=lambda pq: max(abs(pq[1][0] - pq[0][0]), abs(pq[1][1] - pq[0][1])),
    )
    cut = rng.randint(1, len(alphabet) - 1)
    symbols = rng.sample(alphabet, len(alphabet))
    at_a, at_b = symbols[:cut], symbols[cut:]
    choices = [at_a if c == a else at_b if c == b else alphabet for c in cells]
    available = 1
    for options in choices:
        available *= len(options)
    allowed: set = set()
    while len(allowed) < min(size, available):
        allowed.add(Pattern(shape, tuple(rng.choice(options) for options in choices)))
    return SftSpec(shape, alphabet, allowed)


def sft_inputs(rng: random.Random, count: int) -> list:
    specs = []
    for i in range(count):
        shape = _convex_shape(rng)
        size = len(shape) - rng.randint(0, 1)
        if i % 2 == 0:
            spec = _empty_spec(rng, shape, [0, 1], size)
        else:
            spec = _nonempty_spec(rng, shape, list(range(2 + (i // 2) % 2)), size)
        specs.append((spec, rng.randrange(1 << 30)))
    return specs


def _decision_json(decision) -> dict:
    out = formats.decision_to_json(decision)
    del out["budget_spent"]["nodes"]
    return out


def sft_item(item) -> tuple[bool, dict]:
    spec, seed = item
    decision = decide(spec, SFT_BUDGET)
    if decision.kind == NONEMPTY:
        require(verify_witness(spec, decision.witness), "witness failed verify_witness")
    elif decision.kind == EMPTY:
        require(reconfirm_empty(spec, decision.window, seed=seed), "emptiness not reconfirmed")
    return decision.kind != UNKNOWN, {
        "spec": formats.sft_spec_to_json(spec),
        "decision": _decision_json(decision),
    }


def _polyominoes(size: int) -> list:
    """Every fixed polyomino of ``size`` cells, as sorted cell tuples with
    minimum x and y equal to 0."""
    shapes = {((0, 0),)}
    for _ in range(size - 1):
        grown = set()
        for cells in shapes:
            for x, y in cells:
                for c in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if c not in cells:
                        new = cells + (c,)
                        mx = min(p[0] for p in new)
                        my = min(p[1] for p in new)
                        grown.add(tuple(sorted((p[0] - mx, p[1] - my) for p in new)))
        shapes = grown
    return sorted(shapes)


def _tiles_by_lattice(cells) -> bool:
    """Whether the cells hold one point of each coset of some lattice of
    index len(cells), so that lattice translates of them cover the plane
    exactly. Lattices are enumerated in Hermite normal form, basis (a, 0),
    (b, d) with a * d = len(cells) and 0 <= b < a."""
    n = len(cells)
    for a in range(1, n + 1):
        if n % a:
            continue
        d = n // a
        for b in range(a):
            cosets = set()
            for x, y in cells:
                j = y // d
                cosets.add(((x - j * b) % a, y - j * d))
            if len(cosets) == n:
                return True
    return False


_LATTICE_TILES = [cells for n in (4, 5, 6) for cells in _polyominoes(n) if _tiles_by_lattice(cells)]


def cotiler_inputs(rng: random.Random, count: int) -> list:
    """A seeded random ``count`` of the polyominoes of 4-6 cells that tile
    the plane by lattice translates (without repeats while the catalogue
    lasts), each moved by a random translation. Drawing most of a fixed
    catalogue keeps the mix of hard and easy tiles nearly the same for every
    seed."""
    order = []
    while len(order) < count:
        order += rng.sample(_LATTICE_TILES, len(_LATTICE_TILES))
    out = []
    for cells in order[:count]:
        dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
        tile = ClusterTile(Shape((x + dx, y + dy) for x, y in cells))
        out.append((tile, rng.randrange(1 << 30)))
    return out


def cotiler_item(item) -> tuple[bool, dict]:
    tile, seed = item
    decision = cotiler_decision(tile, COTILER_BUDGET)
    if decision.kind == NONEMPTY:
        require(exact_cover_on_torus(tile, decision.witness), "co-tiler is not an exact cover")
        require(verify_witness(cotiler_sft(tile), decision.witness), "co-tiler witness")
    elif decision.kind == EMPTY:
        require(
            reconfirm_empty(cotiler_sft(tile), decision.window, seed=seed),
            "co-tiler emptiness not reconfirmed",
        )
    return decision.kind != UNKNOWN, {
        "tile": formats.shape_to_json(tile.shape),
        "decision": _decision_json(decision),
    }
