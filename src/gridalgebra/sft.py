"""Budgeted emptiness decision for low-complexity SFTs, with certificates.

Two search kernels are dovetailed: exhaustive window filling (an
unfillable n x n window certifies emptiness by compactness) and exhaustive
two-periodic point search over torus fundamental domains (a valid torus
certifies non-emptiness). For a low-complexity spec over a discrete convex
shape one of the two must eventually fire, so Unknown only ever reports an
exhausted budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import convex_hull, _cross
from .configuration import Pattern, Shape, TorusConfig
from .errors import WindowSmallerThanShape

EMPTY = "empty"
NONEMPTY = "nonempty"
UNKNOWN = "unknown"


class SftSpec:
    """Shape, alphabet and the set of allowed patterns on the shape."""

    __slots__ = ("shape", "alphabet", "allowed")

    def __init__(self, shape: Shape, alphabet, allowed):
        alphabet = frozenset(int(a) for a in alphabet)
        if not alphabet:
            raise ValueError("alphabet must be non-empty")
        allowed = frozenset(allowed)
        for p in allowed:
            if p.shape != shape:
                raise ValueError("allowed patterns must live on the spec shape")
            if any(v not in alphabet for v in p.values):
                raise ValueError("pattern symbol outside the alphabet")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "allowed", allowed)

    def __setattr__(self, name, value):
        raise AttributeError("SftSpec is immutable")

    @property
    def low_complexity(self) -> bool:
        return len(self.allowed) <= len(self.shape)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SftSpec)
            and self.shape == other.shape
            and self.alphabet == other.alphabet
            and self.allowed == other.allowed
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.alphabet, self.allowed))


@dataclass(frozen=True)
class Budget:
    max_window: int = 8
    max_torus: int = 6
    max_nodes: int = 5_000_000


@dataclass(frozen=True)
class BudgetSpent:
    nodes: int
    windows_tried: tuple[int, ...]
    tori_tried: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Decision:
    kind: str  # EMPTY | NONEMPTY | UNKNOWN
    window: int | None = None
    witness: TorusConfig | None = None
    budget_spent: BudgetSpent | None = None


class _BudgetExhausted(Exception):
    pass


class _NodeCounter:
    __slots__ = ("used", "limit")

    def __init__(self, limit: int | None):
        self.used = 0
        self.limit = limit


def _search(
    spec: SftSpec, w: int, h: int, wrap: bool, counter: _NodeCounter, rng=None
) -> list[list[int]] | None:
    """Backtracking fill of a w x h grid with bitmask forward checking.

    With ``wrap`` the grid is a torus and every translate of the shape is
    constrained (cells taken mod w and h); otherwise every translate lying
    fully inside the window is. Each translate keeps the allowed patterns
    that agree with every assigned cell it covers as one integer mask (bit
    i stands for the i-th allowed pattern in sorted order). Assigning a
    value to a cell ANDs the mask of each translate covering it with the
    precomputed mask of patterns carrying that value at that position; a
    zero mask rejects the value. A node is one value tried at one cell and
    is charged to ``counter`` before the masks are touched. Deterministic:
    cells in row-major order, values in sorted order, first solution
    returned as rows. With ``rng`` the cell and value orders are shuffled
    and the rows come back in shuffled cell coordinates, so only whether
    the result ``is None`` is meaningful. Patterns are not shuffled: their
    order only permutes mask bits and cannot change the tree.
    """
    num_cells = w * h
    if wrap:
        translates = [
            [((ty + cy) % h) * w + ((tx + cx) % w) for (cx, cy) in spec.shape.cells]
            for ty in range(h)
            for tx in range(w)
        ]
    else:
        x0, y0, x1, y1 = spec.shape.bounding_box()
        translates = [
            [(ty + cy) * w + (tx + cx) for (cx, cy) in spec.shape.cells]
            for ty in range(-y0, h - y1)
            for tx in range(-x0, w - x1)
        ]
    values = sorted(spec.alphabet)
    allowed = sorted(p.values for p in spec.allowed)
    if rng is not None:
        order = list(range(num_cells))
        rng.shuffle(order)
        position = {cell: slot for slot, cell in enumerate(order)}
        # remap cells through the shuffled order so the search explores a
        # genuinely different tree, then solve the same constraints
        translates = [[position[c] for c in cells] for cells in translates]
        rng.shuffle(values)
    if translates and not allowed:
        return None
    # support[pos][vi]: mask of the allowed patterns with values[vi] at pos
    index = {v: vi for vi, v in enumerate(values)}
    support = [[0] * len(values) for _ in spec.shape.cells]
    for i, pattern in enumerate(allowed):
        for masks, v in zip(support, pattern):
            masks[index[v]] |= 1 << i
    touching: list[list[tuple[int, list[int]]]] = [[] for _ in range(num_cells)]
    for t, cells in enumerate(translates):
        for masks, cell in zip(support, cells):
            touching[cell].append((t, masks))
    value_indices = range(len(values))
    assignment = [0] * num_cells
    limit = counter.limit

    def fill(idx: int, remaining: list[int]) -> bool:
        if idx == num_cells:
            return True
        covering = touching[idx]
        for vi in value_indices:
            if limit is not None and counter.used >= limit:
                raise _BudgetExhausted
            counter.used += 1
            # the child gets its own copy, so backtracking needs no undo
            kept = remaining[:]
            for t, masks in covering:
                mask = kept[t] & masks[vi]
                if not mask:
                    break
                kept[t] = mask
            else:
                if fill(idx + 1, kept):
                    assignment[idx] = values[vi]
                    return True
        return False

    if not fill(0, [(1 << len(allowed)) - 1] * len(translates)):
        return None
    return [assignment[j * w : (j + 1) * w] for j in range(h)]


def window_fillable(
    spec: SftSpec, n: int, _counter: _NodeCounter | None = None
) -> list[list[int]] | None:
    """Fill an n x n window so every fully contained translate of the
    shape carries an allowed pattern; None certifies no filling exists."""
    if n < spec.shape.extent:
        raise WindowSmallerThanShape(f"window {n} < shape extent {spec.shape.extent}")
    return _search(spec, n, n, False, _counter or _NodeCounter(None))


def find_periodic_point(
    spec: SftSpec, k: int, l: int, _counter: _NodeCounter | None = None
) -> TorusConfig | None:
    """Exhaustive search for a k x l torus all of whose wraparound
    shape-patterns are allowed."""
    if k < 1 or l < 1:
        raise ValueError("torus periods must be positive")
    rows = _search(spec, k, l, True, _counter or _NodeCounter(None))
    return None if rows is None else TorusConfig(rows)


def decide(spec: SftSpec, budget: Budget = Budget()) -> Decision:
    """Dovetail window emptiness checks and torus witness search.

    Alternates one window size and one torus diagonal (k + l constant)
    per round and returns the first certificate under that fixed schedule,
    so the outcome is deterministic. Unknown reports the spent budget.
    """
    counter = _NodeCounter(budget.max_nodes)
    windows_tried: list[int] = []
    tori_tried: list[tuple[int, int]] = []
    n = spec.shape.extent
    s = 2
    try:
        while n <= budget.max_window or s <= 2 * budget.max_torus:
            if n <= budget.max_window:
                windows_tried.append(n)
                if window_fillable(spec, n, _counter=counter) is None:
                    return Decision(
                        kind=EMPTY,
                        window=n,
                        budget_spent=_spent(counter, windows_tried, tori_tried),
                    )
                n += 1
            if s <= 2 * budget.max_torus:
                for k in range(max(1, s - budget.max_torus), min(s - 1, budget.max_torus) + 1):
                    l = s - k
                    tori_tried.append((k, l))
                    witness = find_periodic_point(spec, k, l, _counter=counter)
                    if witness is not None:
                        return Decision(
                            kind=NONEMPTY,
                            witness=witness,
                            budget_spent=_spent(counter, windows_tried, tori_tried),
                        )
                s += 1
    except _BudgetExhausted:
        pass
    return Decision(kind=UNKNOWN, budget_spent=_spent(counter, windows_tried, tori_tried))


def _spent(counter: _NodeCounter, windows, tori) -> BudgetSpent:
    return BudgetSpent(nodes=counter.used, windows_tried=tuple(windows), tori_tried=tuple(tori))


def verify_witness(spec: SftSpec, torus: TorusConfig) -> bool:
    """Independent full-pattern check of a non-emptiness certificate."""
    for ty in range(torus.l):
        for tx in range(torus.k):
            values = tuple(torus.value_at((tx + cx, ty + cy)) for (cx, cy) in spec.shape.cells)
            if Pattern(spec.shape, values) not in spec.allowed:
                return False
    return True


def reconfirm_empty(spec: SftSpec, n: int, seed: int = 0) -> bool:
    """Re-confirm an emptiness certificate by an independent exhaustive
    search at size n with randomized cell and value order."""
    import random

    if n < spec.shape.extent:
        raise WindowSmallerThanShape(f"window {n} < shape extent {spec.shape.extent}")
    return _search(spec, n, n, False, _NodeCounter(None), random.Random(seed)) is None


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
