"""Stable text and JSON formats for every value the CLI exchanges.

All emitters are deterministic (sorted terms, sorted keys) and every
parser round-trips its emitter bit-exactly. Coefficients travel as decimal
strings (``n`` or ``n/d``) so arbitrary precision survives JSON.
"""

from __future__ import annotations

import re
import reprlib
from contextlib import contextmanager
from fractions import Fraction

from .algebra import MAX_DENSE_ENTRIES, Domain, LaurentPoly, domain_from_name, ZZ
from .annihilator import DIRECT, PERIODIZER_TIMES_BINOMIAL, AnnihilatorResult
from .configuration import Patch, Pattern, Shape, TorusConfig
from .errors import InputFormatError, InputTooLarge
from .linestructure import EliminationReport, LineDecomposition, PeriodicityVerdict
from .sft import BudgetSpent, Decision, SftSpec


# -- polynomials ----------------------------------------------------------

_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/\d+)?)?"
    r"(?:\*?(?P<xpart>x(?:\^(?P<xe>~?\d+))?))?"
    r"(?:\*?(?P<ypart>y(?:\^(?P<ye>~?\d+))?))?$"
)


@contextmanager
def malformed(what: str):
    """Raise the KeyError, ValueError, TypeError, ZeroDivisionError or
    RecursionError by which the body meets malformed input as
    InputFormatError("bad <what>: ...")."""
    try:
        yield
    except (KeyError, ValueError, TypeError, ZeroDivisionError, RecursionError) as e:
        raise InputFormatError(f"bad {what}: {e}") from e


def _typed(value, kind: type):
    """value, if its JSON type is kind (a bool is no int); else TypeError."""
    if type(value) is not kind:
        raise TypeError(f"{value!r} is not a JSON {kind.__name__}")
    return value


def poly_from_text(text: str, domain: Domain = ZZ) -> LaurentPoly:
    """Parse ``c*x^a*y^b`` sums; exponent minus signs ride behind '^'."""
    s = text.strip().replace("^-", "^~").replace(" ", "")
    if not s:
        raise InputFormatError("empty polynomial text")
    if s == "0":
        return LaurentPoly.zero(domain)
    # a leading sign makes the split alternate sign, body, sign, body, ...
    chunks = re.split(r"([+-])", s if s[0] in "+-" else "+" + s)[1:]
    terms: dict[tuple[int, int], object] = {}
    # int() raises ValueError beyond the interpreter's digit limit, and a
    # zero denominator raises ZeroDivisionError
    with malformed("polynomial text"):
        for sign, body in zip(chunks[::2], chunks[1::2]):
            m = _TERM_RE.match(body)
            if not m or not body:
                raise InputFormatError(f"cannot parse term {body!r} in {text!r}")
            num, _, den = (m.group("coeff") or "1").partition("/")
            c = Fraction(int(num), int(den or 1))
            if sign == "-":
                c = -c

            def exp(raw):
                return 1 if raw is None else int(raw.replace("~", "-"))

            a = exp(m.group("xe")) if m.group("xpart") else 0
            b = exp(m.group("ye")) if m.group("ypart") else 0
            terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
        return LaurentPoly(domain, terms)


def poly_to_json(f: LaurentPoly) -> dict:
    return {
        "domain": f.domain.name,
        "terms": [[e[0], e[1], f.domain.format_coeff(c)] for e, c in sorted(f.terms.items())],
    }


def poly_from_json(data: dict) -> LaurentPoly:
    with malformed("polynomial JSON"):
        domain = domain_from_name(_typed(data["domain"], str))
        terms = {}
        for a, b, c in data["terms"]:
            terms[_typed(a, int), _typed(b, int)] = domain.parse_coeff(_typed(c, str))
        return LaurentPoly(domain, terms)


# -- shapes and grids -----------------------------------------------------


def shape_to_json(shape: Shape) -> list:
    return [[c[0], c[1]] for c in shape.cells]


def shape_from_json(data) -> Shape:
    with malformed("shape JSON"):
        return Shape((_typed(a, int), _typed(b, int)) for a, b in data)


def parse_shape_spec(spec: str, source=None) -> Shape:
    """Shape shorthand: ``rect:NxM`` or ``plus`` (file contents go through
    shape_from_json). A refusal quotes the spec cut to about 30 characters."""
    if spec == "plus":
        return Shape.plus()
    match = re.match(r"^rect:(\d+)x(\d+)$", spec)
    if not match:
        raise InputFormatError(f"unknown shape spec {reprlib.repr(spec)}")
    with malformed(f"shape spec {reprlib.repr(spec)}"):  # int() refuses sides past the digit limit
        n, m = int(match.group(1)), int(match.group(2))
        InputTooLarge.check(n * m, MAX_DENSE_ENTRIES, "shape cells")  # before any cell is built
        if isinstance(source, Patch) and n and m:  # refused by its sides; a side of 0 below
            source.translates(n, m)
        return Shape.rectangle(n, m)


def grid_from_text(text: str) -> list[list[int]]:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if line:
            with malformed(f"grid line {line!r}"):
                rows.append([int(tok) for tok in line.split()])
    if not rows:
        raise InputFormatError("empty grid")
    if any(len(row) != len(rows[0]) for row in rows):
        raise InputFormatError("ragged grid: rows differ in length")
    return rows


def source_to_json(source) -> dict:
    if isinstance(source, TorusConfig):
        return {
            "kind": "torus",
            "k": source.k,
            "l": source.l,
            "values": [list(row) for row in source.rows],
        }
    return {
        "kind": "patch",
        "origin": [source.origin[0], source.origin[1]],
        "values": [list(row) for row in source.rows],
    }


def source_from_json(data) -> Patch | TorusConfig:
    """A grid; a torus's optional ``k`` and ``l`` are its row length and count."""
    with malformed("grid JSON"):
        kind = data["kind"]
        if kind not in ("torus", "patch"):
            raise InputFormatError(f"unknown grid kind {kind!r}")
        rows = [[_typed(v, int) for v in row] for row in data["values"]]
        if kind == "patch":
            ox, oy = data.get("origin", [0, 0])
            return Patch((_typed(ox, int), _typed(oy, int)), rows)
        torus = TorusConfig(rows)
        for key, size in (("k", torus.k), ("l", torus.l)):
            if key in data and _typed(data[key], int) != size:
                raise ValueError(f"torus {key} {data[key]} is not its size {size}")
        return torus


# -- sft specs and decisions ----------------------------------------------


def sft_spec_to_json(spec: SftSpec) -> dict:
    return {
        "shape": shape_to_json(spec.shape),
        "alphabet": sorted(spec.alphabet),
        "allowed": sorted(list(p.values) for p in spec.allowed),
    }


def sft_spec_from_json(data) -> SftSpec:
    with malformed("SFT spec JSON"):
        shape = shape_from_json(data["shape"])
        alphabet = [_typed(a, int) for a in data["alphabet"]]
        allowed = {Pattern(shape, tuple(_typed(v, int) for v in vs)) for vs in data["allowed"]}
        return SftSpec(shape, alphabet, allowed)


def budget_spent_to_json(spent: BudgetSpent) -> dict:
    return {
        "nodes": spent.nodes,
        "windows_tried": list(spent.windows_tried),
        "tori_tried": [list(t) for t in spent.tori_tried],
    }


def decision_to_json(decision: Decision) -> dict:
    return {
        "decision": decision.kind,
        "window": decision.window,
        "witness": source_to_json(decision.witness) if decision.witness else None,
        "budget_spent": budget_spent_to_json(decision.budget_spent),
    }


# -- analysis reports -----------------------------------------------------


def annihilator_result_to_json(result: AnnihilatorResult) -> dict:
    return {
        "kind": result.kind,
        "poly": poly_to_json(result.poly),
        "periodizer": poly_to_json(result.periodizer) if result.periodizer else None,
        "constant": str(result.constant) if result.constant is not None else None,
    }


def annihilator_result_from_json(data) -> AnnihilatorResult:
    with malformed("annihilator JSON"):
        kind, constant = data["kind"], data.get("constant")
        if kind not in (DIRECT, PERIODIZER_TIMES_BINOMIAL):
            raise ValueError(f"unknown annihilator kind {kind!r}")
        return AnnihilatorResult(
            kind=kind,
            poly=poly_from_json(data["poly"]),
            periodizer=None if kind == DIRECT else poly_from_json(data["periodizer"]),
            constant=int(_typed(constant, str)) if constant is not None else None,
        )


def verdict_to_json(verdict: PeriodicityVerdict) -> dict:
    return {
        "verdict": verdict.kind,
        "direction": list(verdict.direction) if verdict.direction else None,
        "order_upper_bound": verdict.order_upper_bound,
    }


def decomposition_to_json(decomp: LineDecomposition) -> dict:
    return {
        "monomial": list(decomp.monomial),
        "factors": [
            {"direction": list(d), "poly": poly_to_json(p)} for d, p in decomp.factors
        ],
        "remainder": poly_to_json(decomp.remainder),
    }


def elimination_report_to_json(report: EliminationReport) -> dict:
    return {
        "per_variable": [
            {
                "variable": e.variable,
                "resultant": poly_to_json(e.resultant),
                "nonzero": e.nonzero,
                "axis": list(e.axis),
            }
            for e in report.entries
        ],
        "verdict": report.verdict,
        "direction": list(report.direction) if report.direction else None,
    }
