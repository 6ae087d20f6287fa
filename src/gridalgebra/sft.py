"""Budgeted emptiness decision for low-complexity SFTs, with certificates.

Two search kernels are dovetailed: exhaustive window filling (an
unfillable n x n window certifies emptiness by compactness) and exhaustive
two-periodic point search over the fundamental domains of period lattices
(a valid torus certifies non-emptiness). For a low-complexity spec over a
discrete convex shape one of the two must eventually fire, so Unknown only
ever reports an exhausted budget, the cap on mask bits included.
Certificates are re-checked by code the kernels do not share:
``verify_witness`` and ``reconfirm_empty``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from math import gcd, lcm
from operator import or_

from .algebra import _cross, _dense_gcd, _dense_trim, _is_prime, convex_hull
from .configuration import Lattice, Pattern, Shape, TorusConfig
from .errors import InputFormatError, InputTooLarge, WindowSmallerThanShape

EMPTY = "empty"
NONEMPTY = "nonempty"
UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True, repr=False)
class SftSpec:
    """Shape, alphabet and the set of allowed patterns on the shape."""

    shape: Shape
    alphabet: frozenset[int]
    allowed: frozenset[Pattern]

    def __post_init__(self):
        alphabet = frozenset(int(a) for a in self.alphabet)
        if not alphabet:
            raise ValueError("alphabet must be non-empty")
        allowed = frozenset(self.allowed)
        for p in allowed:
            if p.shape != self.shape:
                raise ValueError("allowed patterns must live on the spec shape")
            if any(v not in alphabet for v in p.values):
                raise ValueError("pattern symbol outside the alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "allowed", allowed)


@dataclass(frozen=True)
class Budget:
    max_window: int = 8
    max_torus: int = 6
    max_nodes: int = 5_000_000


@dataclass(frozen=True)
class BudgetSpent:
    nodes: int
    windows_tried: tuple[int, ...]
    tori_tried: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class Decision:
    kind: str  # EMPTY | NONEMPTY | UNKNOWN
    budget_spent: BudgetSpent
    window: int | None = None
    witness: TorusConfig | None = None


class _BudgetExhausted(Exception):
    pass


class _CompiledSpec:
    """What every window and torus search of one spec shares.

    ``clear[pos][vi]`` is the mask of the allowed patterns (bit i for the
    i-th in sorted order) that do *not* carry ``values[vi]`` at shape cell
    ``pos``. A translate's field in the search state is ``count + 1`` bits
    wide: ``count`` pattern bits and a guard bit above them.

    ``area`` is the lcm of |D| / gcd(|D|, m) over the values that sit m
    times in every allowed pattern of shape D (1 if none does): it divides
    the area of every torus that has a periodic point, and its width
    (height) too when ``coprime`` holds for its height (width) (see
    ``find_periodic_point``). ``coprime`` is memoized per (axis, period),
    so the tori of one ``decide`` run share each gcd.

    ``used`` counts the nodes every search of this spec has spent, and
    ``_search`` raises ``_BudgetExhausted`` rather than pass ``limit``
    (unbounded if None).
    """

    __slots__ = ("values", "count", "clear", "cells", "box", "area", "_coprime", "used", "limit")

    def __init__(self, spec: SftSpec, limit: int | None = None):
        self.values = sorted(spec.alphabet)
        allowed = sorted(p.values for p in spec.allowed)
        self.count = len(allowed)
        index = {v: vi for vi, v in enumerate(self.values)}
        full = (1 << self.count) - 1
        self.clear = [[full] * len(self.values) for _ in spec.shape.cells]
        for i, pattern in enumerate(allowed):
            for masks, v in zip(self.clear, pattern):
                masks[index[v]] ^= 1 << i
        self.cells = spec.shape.cells
        self.box = spec.shape.bounding_box()
        size = len(self.cells)
        self.area = 1
        for v in self.values if allowed else ():
            m = allowed[0].count(v)
            for pattern in allowed:
                if pattern.count(v) != m:
                    break
            else:
                self.area = lcm(self.area, size // gcd(size, m))
        self._coprime: dict[tuple[int, int], bool] = {}
        self.used = 0
        self.limit = limit

    def coprime(self, axis: int, n: int) -> bool:
        """Whether the shape projected on ``axis`` (0: D(x, 1), 1: D(1, y)),
        exponents mod n, is coprime to z^n - 1 over Q.

        The projection r sums to |D| > 0, so z - 1 never divides it. For
        n = 1 that settles it; for prime n, z^n - 1 = (z - 1) Phi_n with
        Phi_n irreducible of degree n - 1, which divides r (of degree
        < n) only when its n coefficients are equal. Other n take the gcd.
        """
        key = (axis, n)
        if key not in self._coprime:
            r = [0] * n
            for cell in self.cells:
                r[cell[axis] % n] += 1
            if n == 1 or _is_prime(n):
                self._coprime[key] = n == 1 or r.count(r[0]) < n
            else:
                g = _dense_gcd([-1] + [0] * (n - 1) + [1], _dense_trim(r))
                self._coprime[key] = len(g) == 1
        return self._coprime[key]

    def window(self, w: int, h: int) -> tuple[list[list[int]], int]:
        """Keep masks ``keeps[vi][cell]`` and the guard of a w x h window.

        The translate whose bounding box starts at cell index a owns field
        a + base, base = (y1 - y0) * w + (x1 - x0), so every cell's masks
        are one per-value stencil shifted by the cell index. Fields of
        translates leaving the window alias only each other and stay out of
        the guard. Each stencil is stored as a run of ones with its clear
        masks placed N = w * h fields up, so the keep mask of cell c is one
        right shift by N - c fields. Needs w and h at least the extent.
        """
        f = self.count + 1
        x0, y0, x1, y1 = self.box
        base = (y1 - y0) * w + (x1 - x0)
        top = w * h * f
        width = _window_width(len(self.values), self.count, self.box, w, h)
        stencils = [(1 << width) - 1] * len(self.values)
        for (cx, cy), masks in zip(self.cells, self.clear):
            shift = top + (base - (cy - y0) * w - (cx - x0)) * f
            for vi, mask in enumerate(masks):
                stencils[vi] &= ~(mask << shift)
        keeps = [[s >> shift for shift in range(top, 0, -f)] for s in stencils]
        guard = _repunit(w - x1 + x0, f) * _repunit(h - y1 + y0, w * f)
        return keeps, guard << (base * f + self.count)

    def torus(self, lattice: Lattice) -> tuple[list[list[int]], int]:
        """Keep masks ``keeps[vi][cell]`` and the guard of the torus of the
        lattice with basis (k, 0), (b, l), over its k x l fundamental domain.

        Translate t = (tx, ty) owns field ty * 2k + tx: rows are 2k fields
        apart, k live ones and k dead ones, which stay 0 in the state. Each
        value's stencil ORs the clear masks of cell (0, 0) at the translates
        covering it; an anchor q periods of l below row 0 moves q * b fields
        up, mod k, since (x, y - l) is (x + b, y). That block is copied one
        torus height up as it is. In place, each of its rows is turned b
        fields down, mod k, for the translates that reach the cell across
        the wrap (for b = 0 the two are one block, copied by one
        multiplication). Both are copied one torus width up and the 2k x 2l
        block is complemented, so the keep mask of cell (x, y) is one right
        shift by l - y rows and k - x fields. Several shape cells on one
        translate (tori narrower than the shape) OR their clears, which is
        the AND of their keeps. Bits above the live rows are garbage that
        the state's zeros mask off.
        """
        k, b, l = lattice.a, lattice.c, lattice.d
        f = self.count + 1
        stride = 2 * k * f
        # each keep mask is narrower than the 2k x 2l block
        bits = len(self.values) * k * l * 2 * l * stride
        InputTooLarge.check(bits, MAX_MASK_BITS, "keep-mask bits")
        up = l * stride
        stencils = [0] * len(self.values)
        for (cx, cy), masks in zip(self.cells, self.clear):
            shift = -cy % l * stride + (-cx - -cy // l * b) % k * f
            for vi, mask in enumerate(masks):
                stencils[vi] |= mask << shift
        if b:
            right = _repunit(l, stride) * ((1 << (k - b) * f) - 1) << b * f
            stencils = [
                s << up | (s & right) >> b * f | (s & ~right) << (k - b) * f for s in stencils
            ]
            copies = 1 + (1 << (k * f))
        else:
            copies = (1 + (1 << (k * f))) * (1 + (1 << up))
        block = (1 << (2 * up)) - 1
        stencils = [s * copies ^ block for s in stencils]
        shifts = [(l - y) * stride + (k - x) * f for y in range(l) for x in range(k)]
        keeps = [[s >> shift for shift in shifts] for s in stencils]
        return keeps, _repunit(k, f) * _repunit(l, stride) << self.count


# The keep masks are integers whose bits grow as the fourth power of the
# window's or torus's side; refuse one whose masks would take more bits
# than this (128 MB). The 1 x 1 torus builds none, so it is never refused.
MAX_MASK_BITS = 1 << 30


def _window_width(nvalues: int, count: int, box, w: int, h: int) -> int:
    """Bits of each of the nvalues * w * h window keep masks, refused past MAX_MASK_BITS."""
    width = (2 * w * h + (box[3] - box[1]) * w + box[2] - box[0]) * (count + 1)
    InputTooLarge.check(nvalues * w * h * width, MAX_MASK_BITS, "keep-mask bits")
    return width


def _repunit(count: int, step: int) -> int:
    """The sum of 1 << (i * step) over 0 <= i < count."""
    return ((1 << (count * step)) - 1) // ((1 << step) - 1)


def _search(
    compiled: _CompiledSpec, w: int, h: int, lattice: Lattice | None = None
) -> list[list[int]] | None:
    """Backtracking fill of a w x h grid, forward checking on one integer.

    With a ``lattice`` the grid is its w x h fundamental domain (w and h
    its a and d), and every translate of the shape is constrained (cells
    reduced modulo the lattice); otherwise every translate lying fully
    inside the window is. The whole state at one depth is one int:
    each translate owns a field of B + 1 bits (B allowed patterns) whose
    low B bits are the patterns that agree with every assigned cell it
    covers, and whose top (guard) bit is 0. Assigning a value to a cell is
    ``state & keep``, with ``keep`` precomputed per (cell, value). The value
    is rejected iff some constrained field is now zero: adding ``ones``
    (2^B - 1 in each such field) carries into a field's guard bit iff the
    field is nonzero, and never into the next field. The tree is walked
    with an explicit stack, so depth is bounded by memory, not by the
    recursion limit. A node is one value tried at one cell and is charged
    to ``compiled.used`` before the state is touched. Deterministic: cells in
    row-major order, values in sorted order, first solution returned as
    rows. The 1 x 1 torus (the constant points) builds no mask or stack:
    value v fills it iff the OR of v's clear masks over the shape cells
    leaves out some allowed pattern, each value charged as the walk would.
    """
    if not compiled.count:
        return None  # every translate is refuted before any mask or node
    stop = float("inf") if compiled.limit is None else compiled.limit
    if lattice and w == h == 1:
        for v, clears in zip(compiled.values, zip(*compiled.clear)):
            if compiled.used >= stop:
                raise _BudgetExhausted
            compiled.used += 1
            if reduce(or_, clears).bit_count() < compiled.count:
                return [[v]]
        return None
    keeps, guard = compiled.torus(lattice) if lattice else compiled.window(w, h)
    values = compiled.values
    ones = (guard >> compiled.count) * ((1 << compiled.count) - 1)
    last = w * h - 1
    nvalues = len(values)
    used = compiled.used
    # the explicit stack: the state each depth was entered with, and how
    # many of its values have been tried
    states = [0] * (last + 1)
    tried = [0] * (last + 1)
    depth = vi = 0
    state = ones
    try:
        while True:
            if vi < nvalues:
                if used >= stop:
                    raise _BudgetExhausted
                used += 1
                kept = state & keeps[vi][depth]
                vi += 1
                if (kept + ones) & guard == guard:
                    tried[depth] = vi
                    if depth == last:
                        break
                    states[depth] = state
                    depth += 1
                    state = kept
                    vi = 0
            elif depth:
                depth -= 1
                state = states[depth]
                vi = tried[depth]
            else:
                return None
    finally:
        compiled.used = used
    assignment = [values[vi - 1] for vi in tried]
    return [assignment[j * w : (j + 1) * w] for j in range(h)]


def window_fillable(
    spec: SftSpec, n: int, _compiled: _CompiledSpec | None = None
) -> list[list[int]] | None:
    """Fill an n x n window so every fully contained translate of the
    shape carries an allowed pattern; None certifies no filling exists."""
    if n < spec.shape.extent:
        raise WindowSmallerThanShape(f"window {n} < shape extent {spec.shape.extent}")
    compiled = _compiled or _CompiledSpec(spec)
    return _search(compiled, n, n)


def find_periodic_point(
    spec: SftSpec, lattice: Lattice, _compiled: _CompiledSpec | None = None
) -> TorusConfig | None:
    """Exhaustive search, over the k x l fundamental domain of ``lattice``
    (basis (k, 0), (b, l); b = 0 gives the k x l rectangle torus), for a
    point with those periods all of whose shape-patterns are allowed. The
    point is returned as the k x (l * k / gcd(k, b)) rectangle torus it
    also fills: row y + j * l is row y rotated right by j * b.

    Some lattices are refuted by symbol counts, before any mask is built or
    node spent. If value v sits m times in every allowed pattern of shape
    D, count the pairs (translate, cell of D) that carry v on a periodic
    point with N_v cells v in a fundamental domain: each shift by a cell of
    D permutes the domain (tori narrower than the shape included), so
    |D| * N_v = m * k * l and |D| / gcd(|D|, m) divides k * l. A lattice
    whose index k * l is not a multiple of the lcm of these,
    ``_CompiledSpec.area``, is answered None.

    The same count over one row (Coven and Meyerowitz's cyclotomic argument
    on the projection): with N(j) the cells v in row j of one period k,
    N(j + l) = N(j), and the sum of N(y + d_y mod l) over the cells d of D
    is m * k for every row y. If D(1, y), exponents mod l, is coprime to
    y^l - 1, no l-th root of unity can carry a nonconstant N, so N is the
    integer m * k / |D| and ``area`` divides k. Over columns, with
    g = gcd(k, b), the cells v of column x in one period L = l * k / g
    are a count of period g, summing to m * L over D's column offsets: when
    D(x, 1), exponents mod g, is coprime to x^g - 1, ``area`` divides L. A
    lattice that fails either is answered None too. On the 1 x 1 torus v
    is a point iff some allowed pattern carries v at every shape cell: it is
    read off the clear masks, one node per value, with no mask built.
    """
    k, b, l = lattice.a, lattice.c, lattice.d
    compiled = _compiled or _CompiledSpec(spec)
    area = compiled.area
    if area > 1:
        g = gcd(k, b)
        if (
            k * l % area
            or (k % area and compiled.coprime(1, l))
            or (l * k // g % area and compiled.coprime(0, g))
        ):
            return None
    rows = _search(compiled, k, l, lattice)
    if rows is None:
        return None
    if b:
        turns = [-j * b % k for j in range(k // gcd(k, b))]
        rows = [row[t:] + row[:t] for t in turns for row in rows]
    return TorusConfig(rows)


def decide(spec: SftSpec, budget: Budget = Budget()) -> Decision:
    """Dovetail window emptiness checks and periodic point search.

    Alternates one window size and one torus diagonal (k + l constant) per
    round and returns the first certificate under that fixed schedule, so
    the outcome is deterministic. Within a diagonal each k x l rectangle
    torus (b = 0) comes first, then, when k * l <= ``max_torus``, the
    sheared lattices with basis (k, 0), (b, l) for b = 1..k-1: rectangles
    up to ``max_torus`` on a side, plus every lattice of index at most
    ``max_torus``. ``tori_tried`` lists each as (k, l, b). Unknown reports
    the spent budget; a window or torus whose masks would pass
    ``MAX_MASK_BITS`` ends the search there too, as the last one tried
    (never at (1, 1, 0): the 1 x 1 torus builds none, see ``_search``).
    The spec is compiled once, shared by every window and torus, and counts
    their nodes. A lattice refuted by a symbol count of its index, rows or
    columns (see ``find_periodic_point``) is still listed in ``tori_tried``
    but spends 0 nodes.
    """
    compiled = _CompiledSpec(spec, budget.max_nodes)
    windows_tried: list[int] = []
    tori_tried: list[tuple[int, int, int]] = []
    n = spec.shape.extent
    s = 2
    try:
        while n <= budget.max_window or s <= 2 * budget.max_torus:
            if n <= budget.max_window:
                windows_tried.append(n)
                if window_fillable(spec, n, compiled) is None:
                    return Decision(
                        kind=EMPTY,
                        window=n,
                        budget_spent=_spent(compiled, windows_tried, tori_tried),
                    )
                n += 1
            if s <= 2 * budget.max_torus:
                for k in range(max(1, s - budget.max_torus), min(s - 1, budget.max_torus) + 1):
                    l = s - k
                    for b in range(k if k * l <= budget.max_torus else 1):
                        tori_tried.append((k, l, b))
                        witness = find_periodic_point(spec, Lattice(k, b, l), compiled)
                        if witness is not None:
                            return Decision(
                                kind=NONEMPTY,
                                witness=witness,
                                budget_spent=_spent(compiled, windows_tried, tori_tried),
                            )
                s += 1
    except (_BudgetExhausted, InputTooLarge):
        pass
    return Decision(kind=UNKNOWN, budget_spent=_spent(compiled, windows_tried, tori_tried))


def _spent(compiled: _CompiledSpec, windows, tori) -> BudgetSpent:
    return BudgetSpent(nodes=compiled.used, windows_tried=tuple(windows), tori_tried=tuple(tori))


def verify_witness(spec: SftSpec, torus: TorusConfig) -> bool:
    """Independent check of a non-emptiness certificate, translate by translate."""
    if not isinstance(torus, TorusConfig):
        raise InputFormatError("a witness must be a torus")
    allowed = {p.values for p in spec.allowed}
    rows, k, l = torus.rows, torus.k, torus.l
    return all(
        tuple(rows[(ty + cy) % l][(tx + cx) % k] for cx, cy in spec.shape.cells) in allowed
        for ty in range(l)
        for tx in range(k)
    )


def reconfirm_empty(
    spec: SftSpec, n: int, seed: int = 0, max_nodes: int | None = None
) -> bool | None:
    """Whether no n x n window filling exists, by arc consistency kept in
    backtracking (MAC), sharing no mask, cell order or code with ``_search``.
    Translates keep the allowed tuples that fit their cells' domains; a
    revision shrinks the domains to what the kept tuples hold and queues the
    other translates of each shrunk cell. Branches take a covered cell of
    least domain, try its values in an order that ``seed`` permutes, and are
    undone from a trail. A node is one revision or one value tried: None
    past ``max_nodes`` (unbounded if None). Windows are refused exactly as
    by ``window_fillable``."""
    if n < spec.shape.extent:
        raise WindowSmallerThanShape(f"window {n} < shape extent {spec.shape.extent}")
    if not spec.allowed:
        return True  # every translate is refuted before anything is built
    box = x0, y0, x1, y1 = spec.shape.bounding_box()
    _window_width(len(spec.alphabet), len(spec.allowed), box, n, n)
    allowed = [p.values for p in spec.allowed]
    # translate a holds cells a + offset; the first revision gives each cell
    # (None off every translate) the values allowed tuples hold there
    offsets = [cy * n + cx for cx, cy in spec.shape.cells]
    anchors = [ty * n + tx for ty in range(-y0, n - y1) for tx in range(-x0, n - x1)]
    domains: list[set | None] = [None] * (n * n)
    for offset, projection in zip(offsets, map(set, zip(*allowed))):
        for c in (a + offset for a in anchors):
            domains[c] = projection if domains[c] is None else domains[c] & projection
    if set() in domains:
        return True
    tuples = dict.fromkeys(anchors, allowed)  # kept per translate
    queue = dict.fromkeys(anchors)  # to revise, each once, last in first out
    trail = []  # (dict or list, key, old value) of every change
    branches = []  # (cell, its untried values, trail length) per depth
    rng, nodes, limit = None, 0, float("inf") if max_nodes is None else max_nodes
    while True:
        while queue:
            if nodes >= limit:
                return None
            nodes += 1
            a, _ = queue.popitem()
            cells = [a + offset for offset in offsets]
            kept = [v for v in tuples[a] if all(x in domains[c] for x, c in zip(v, cells))]
            if not kept:
                queue.clear()
                break
            if len(kept) < len(tuples[a]):
                trail.append((tuples, a, tuples[a]))
                tuples[a] = kept
                for c, support in zip(cells, map(set, zip(*kept))):
                    if len(support) < len(domains[c]):
                        trail.append((domains, c, domains[c]))
                        domains[c] = support
                        queue.update((c - o, None) for o in offsets if c - o in tuples)
                queue.pop(a, None)
        else:
            open_cells = ((len(d), c) for c, d in enumerate(domains) if d and len(d) > 1)
            size, c = min(open_cells, default=(0, 0))
            if not size:
                return False  # every covered cell holds one value
            rng = rng or random.Random(seed)
            branches.append((c, iter(rng.sample(sorted(domains[c]), size)), len(trail)))
        while branches:
            c, values, mark = branches[-1]
            while len(trail) > mark:
                store, index, old = trail.pop()
                store[index] = old
            v = next(values, None)
            if v is not None:
                if nodes >= limit:
                    return None
                nodes += 1
                trail.append((domains, c, domains[c]))
                domains[c] = {v}
                queue = {c - o: None for o in offsets if c - o in tuples}
                break
            branches.pop()
        else:
            return True


def is_discrete_convex(shape: Shape) -> bool:
    """True iff the shape holds every integer point of its convex hull."""
    cells = set(shape.cells)
    hull = convex_hull(cells)
    edges = [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    x0, y0, x1, y1 = shape.bounding_box()
    for x in range(x0, x1 + 1):
        for y in range(y0, y1 + 1):
            if (x, y) not in cells and all(_cross(a, b, (x, y)) >= 0 for a, b in edges):
                return False
    return True
