"""The per-kind certificate checkers, called in process on dicts.

Genuine certificates of every kind are built with the library calls the
CLI makes and then mutated. A mutated certificate may pass only when the
brute-force oracle in helpers says its claim holds; a dropped key that
the checker reads is an InputFormatError, and nothing raises anything but
a GridAlgebraError.
"""

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridalgebra import (
    AntennaProblem,
    Budget,
    ClusterTile,
    Patch,
    Shape,
    TorusConfig,
    antenna_verify,
    exact_cover_on_torus,
    extract_patterns,
    find_annihilator,
    verify,
)
from gridalgebra.applications import cotiler_decision
from gridalgebra.certificates import BUDGET_CHECK, CHECKERS, check
from gridalgebra.cli import run
from gridalgebra.configuration import Pattern
from gridalgebra.errors import GridAlgebraError, InputFormatError
from gridalgebra.formats import (
    annihilator_result_to_json,
    decision_to_json,
    sft_spec_to_json,
    shape_to_json,
    source_to_json,
)
from gridalgebra.sft import NONEMPTY, SftSpec, decide

from helpers import certificate_claim_holds, random_torus

BOX = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
SMALL = Budget(max_window=3, max_torus=4, max_nodes=20_000)


# -- genuine certificates, built as the CLI builds them -------------------


def _grid_source(rng):
    """A small torus, or a patch cut from one with its first row or column
    redrawn, so that periodizers of small support occur."""
    base = random_torus(rng, kmax=3, lmax=3, symbols=[0, 1, 2])
    if rng.random() < 0.4:
        return base
    w, h = rng.randint(2, 5), rng.randint(2, 5)
    rows = [[base.value_at((i, j)) for i in range(w)] for j in range(h)]
    if rng.random() < 0.5:
        rows[0] = [rng.choice([0, 3]) for _ in range(w)]
    elif rng.random() < 0.5:
        for row in rows:
            row[0] = rng.choice([0, 3])
    return Patch((rng.randint(-3, 3), rng.randint(-3, 3)), rows)


def annihilator_certificate(rng):
    while True:
        source = _grid_source(rng)
        if isinstance(source, TorusConfig):
            shape = Shape.rectangle(rng.randint(1, 2), rng.randint(1, 2))
        else:  # a periodizer is checked where the shape fits at u and u - (1, 0)
            n = rng.randint(1, min(2, source.width - 1))
            shape = Shape.rectangle(n, rng.randint(1, min(2, source.height)))
        patterns = extract_patterns(source, shape)
        if len(patterns) <= len(shape):
            break
    result = find_annihilator(patterns)
    return {
        "certificate": "annihilator",
        "shape": shape_to_json(shape),
        "source": source_to_json(source),
        "result": annihilator_result_to_json(result),
        "verified": verify(result, source).passed,
    }


def sft_decision_certificate(rng):
    shape = Shape(rng.sample(BOX[:4], rng.randint(2, 3)))
    values = [tuple((m >> i) & 1 for i in range(len(shape))) for m in range(2 ** len(shape))]
    allowed = {Pattern(shape, v) for v in values if rng.random() < 0.5}
    spec = SftSpec(shape, (0, 1), allowed)
    decision = decide(spec, SMALL)
    return {
        "certificate": "sft_decision",
        "spec": sft_spec_to_json(spec),
        **decision_to_json(decision),
    }


def _tile(rng):
    return ClusterTile(Shape([(0, 0), *rng.sample(BOX[1:], rng.randint(1, 3))]))


def cotiler_find_certificate(rng):
    tile = _tile(rng)
    decision = cotiler_decision(tile, SMALL)
    cover_ok = None
    if decision.kind == NONEMPTY:
        cover_ok = exact_cover_on_torus(tile, decision.witness)
    return {
        "certificate": "cotiler",
        "tile": shape_to_json(tile.shape),
        **decision_to_json(decision),
        "exact_cover_verified": cover_ok,
    }


def cotiler_verify_certificate(rng):
    tile = _tile(rng)
    grid = random_torus(rng, kmax=4, lmax=4, symbols=[0, 1])
    return {
        "certificate": "cotiler",
        "tile": shape_to_json(tile.shape),
        "config": source_to_json(grid),
        "exact_cover_verified": exact_cover_on_torus(tile, grid),
    }


def antenna_certificate(rng):
    shape = Shape(rng.sample(BOX[:4], rng.randint(1, 3)))
    problem = AntennaProblem(shape, rng.randint(0, 2), rng.randint(0, 2))
    config = random_torus(rng, kmax=4, lmax=4, symbols=[0, 1])
    return {
        "shape": shape_to_json(shape),
        "a": problem.a,
        "b": problem.b,
        "certificate": "antenna",
        "config": source_to_json(config),
        "valid": antenna_verify(config, problem),
    }


GENUINE = {
    "annihilator": annihilator_certificate,
    "sft_decision": sft_decision_certificate,
    "cotiler find": cotiler_find_certificate,
    "cotiler verify": cotiler_verify_certificate,
    "antenna": antenna_certificate,
}


# -- mutations -------------------------------------------------------------


def _flip(cert, rng):
    if "decision" in cert:
        others = [d for d in ("empty", "nonempty", "unknown") if d != cert["decision"]]
        cert["decision"] = rng.choice(others)
    elif cert["certificate"] == "annihilator":
        kinds = {"direct": "periodizer_times_binomial", "periodizer_times_binomial": "direct"}
        cert["result"]["kind"] = kinds[cert["result"]["kind"]]
    else:
        key = "valid" if "valid" in cert else "exact_cover_verified"
        cert[key] = not cert[key]


def _change_cell(cert, rng):
    key = next((k for k in ("source", "config", "witness") if cert.get(k)), None)
    if key is None:
        return
    rows = cert[key]["values"]
    j = rng.randrange(len(rows))
    i = rng.randrange(len(rows[j]))
    rows[j][i] = 1 - rows[j][i] if cert["certificate"] != "annihilator" else rows[j][i] + 1


def _claim_empty(cert, rng):
    if "decision" in cert:
        cert["decision"] = "empty"
        cert["window"] = rng.randint(2, 3)


def _swap_kind(cert, rng):
    cert["certificate"] = rng.choice([k for k in (*CHECKERS, "bogus") if k != cert["certificate"]])


MUTATIONS = {
    "flip": _flip,
    "cell": _change_cell,
    "claim-empty": _claim_empty,
    "swap-kind": _swap_kind,
}


class _Recorder(dict):
    """A certificate that records which keys are read from it."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(GENUINE)), seed=st.integers(0, 2**32 - 1))
def test_genuine_certificates_pass(kind, seed):
    cert = GENUINE[kind](random.Random(seed))
    assert all(check(cert).values())
    assert certificate_claim_holds(cert)


@settings(max_examples=250, deadline=None)
@given(
    kind=st.sampled_from(sorted(GENUINE)),
    mutation=st.sampled_from(sorted(MUTATIONS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_mutated_certificate_passes_only_when_its_claim_holds(kind, mutation, seed):
    rng = random.Random(seed)
    cert = json.loads(json.dumps(GENUINE[kind](rng)))
    MUTATIONS[mutation](cert, rng)
    try:
        checks = check(cert)
    except GridAlgebraError:
        return  # refused with an error code, never a traceback
    if all(checks.values()):
        assert certificate_claim_holds(cert)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(GENUINE)), seed=st.integers(0, 2**32 - 1), pick=st.integers(0))
def test_dropped_key_is_a_format_error(kind, seed, pick):
    cert = GENUINE[kind](random.Random(seed))
    recorder = _Recorder(cert)
    checks = check(recorder)
    key = sorted(cert)[pick % len(cert)]
    del cert[key]
    if key in recorder.read:
        with pytest.raises(InputFormatError):
            check(cert)
    else:  # a key the checker never reads carries no claim
        assert check(cert) == checks


# -- examples --------------------------------------------------------------

U_PENTOMINO = Shape([(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)])


def _u_pentomino_certificate():
    decision = cotiler_decision(ClusterTile(U_PENTOMINO), Budget(max_window=8, max_torus=6))
    return {
        "certificate": "cotiler",
        "tile": shape_to_json(U_PENTOMINO),
        **decision_to_json(decision),
        "exact_cover_verified": None,
    }


def test_cotiler_certificate_without_decision_is_a_format_error(capsys, tmp_path):
    cert = _u_pentomino_certificate()
    assert check(cert) == {"window_unfillable": True}
    del cert["decision"]
    with pytest.raises(InputFormatError):
        check(cert)
    # through the CLI: exit 65, not the "unknown makes no claim" pass
    path = tmp_path / "u_cert.json"
    path.write_text(json.dumps(cert))
    assert run(["verify", str(path)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1])["error"] == "input-format"


SPEC = {"shape": [[0, 0]], "alphabet": [0], "allowed": [[0]]}
ONE = source_to_json(TorusConfig([[1]]))


@pytest.mark.parametrize(
    "cert",
    [
        ["not", "an", "object"],
        {"certificate": ["annihilator"]},
        {"certificate": "bogus"},
        {"certificate": "sft_decision", "spec": SPEC, "decision": "maybe"},
        {"certificate": "sft_decision", "spec": SPEC, "decision": "nonempty",
         "witness": {"kind": "patch", "values": [[0]]}},
        {"certificate": "antenna", "shape": [[0, 0]], "a": 1.0, "b": 1, "config": ONE},
        {"certificate": "cotiler", "tile": [[0, 0]], "config": ONE, "exact_cover_verified": 1},
    ],
    ids=[
        "list",
        "kind-not-a-string",
        "unknown-kind",
        "unknown-decision",
        "witness-not-a-torus",
        "a-float",
        "claim-not-a-bool",
    ],
)
def test_malformed_certificates_are_format_errors(cert):
    with pytest.raises(InputFormatError):
        check(cert)


def test_readme_table_names_every_checker():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| Kind |", 1)[1].split("\n\n", 1)[0]
    kinds = set(re.findall(r"^\| `([a-z_]+)` \|", table, flags=re.M))
    assert kinds == set(CHECKERS)
    assert f"`{BUDGET_CHECK}`" in table
