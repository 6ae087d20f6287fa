"""End-to-end CLI dispatch, exit codes, certificate round-trips."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridalgebra import Budget, ClusterTile, Pattern, Shape, SftSpec, decide
from gridalgebra.applications import cotiler_decision
from gridalgebra.cli import _build_parser, run
from gridalgebra.errors import InputTooLarge
from gridalgebra.formats import budget_spent_to_json, sft_spec_to_json

from helpers import run_capped


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def checker_grid(tmp_path):
    path = tmp_path / "checker.txt"
    path.write_text("0 1\n1 0\n")
    return str(path)


@pytest.fixture
def lee_grid(tmp_path):
    rows = [[1 if (i + 2 * j) % 5 == 0 else 0 for i in range(5)] for j in range(5)]
    path = tmp_path / "lee.txt"
    path.write_text("\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    return str(path)


def test_complexity_dispatch(capsys, checker_grid):
    code, report = run_json(capsys, ["complexity", checker_grid, "--shape", "rect:2x2", "--torus"])
    assert code == 0
    assert report["result"] == {"count": 2, "low_complexity": True, "shape_size": 4}
    assert report["version"]


def test_profile_dispatch(capsys, checker_grid):
    code, report = run_json(
        capsys, ["profile", checker_grid, "--nmax", "2", "--mmax", "2", "--torus"]
    )
    assert code == 0
    entries = {(e["n"], e["m"]): e["count"] for e in report["result"]["profile"]}
    assert entries[(1, 1)] == 2 and entries[(2, 2)] == 2


def test_annihilate_and_verify_roundtrip(capsys, checker_grid, tmp_path):
    cert = tmp_path / "cert.json"
    code = run(["annihilate", checker_grid, "--shape", "rect:2x1", "--torus", "--out", str(cert)])
    assert code == 0
    capsys.readouterr()
    # the full report, and its certificate object saved on its own (which
    # has a "result" key of its own)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(json.loads(cert.read_text())["result"]))
    for path in (cert, bare):
        for grid_args in ([checker_grid, "--torus"], []):
            code, report = run_json(capsys, ["verify", str(path), *grid_args])
            assert code == 0
            assert report["result"]["passed"] is True


def test_verify_checks_periodizer_identity(capsys, checker_grid, tmp_path):
    cert = tmp_path / "cert.json"
    code = run(["annihilate", checker_grid, "--shape", "rect:2x1", "--torus", "--out", str(cert)])
    assert code == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["verify", str(cert)])
    assert code == 0
    assert report["result"]["checks"]["periodizer_identity"] is True
    # (y - 1)(1 + x^-1) annihilates the checkerboard and the periodizer
    # 1 + x^-1 still maps it to 1, but it is not (x - 1)(1 + x^-1)
    data = json.loads(cert.read_text())
    result = data["result"]["result"]
    assert result["kind"] == "periodizer_times_binomial"
    result["poly"]["terms"] = [[-1, 0, "-1"], [-1, 1, "1"], [0, 0, "-1"], [0, 1, "1"]]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(data))
    code, report = run_json(capsys, ["verify", str(forged)])
    assert code == 1
    assert report["result"]["checks"] == {
        "annihilates": True, "periodizer_constant": True, "periodizer_identity": False
    }


def test_decide_sft_exit_codes(capsys, tmp_path):
    empty_spec = tmp_path / "empty.json"
    empty_spec.write_text(
        json.dumps({"shape": [[0, 0], [1, 0]], "alphabet": [0, 1], "allowed": []})
    )
    code, report = run_json(capsys, ["decide-sft", str(empty_spec), "--max-torus", "3"])
    assert code == 1
    assert report["result"]["decision"] == "empty"

    full_spec = tmp_path / "full.json"
    full_spec.write_text(
        json.dumps(
            {
                "shape": [[0, 0], [1, 0]],
                "alphabet": [0, 1],
                "allowed": [[0, 1], [1, 0]],
            }
        )
    )
    code, report = run_json(capsys, ["decide-sft", str(full_spec), "--max-torus", "3"])
    assert code == 0
    assert report["result"]["decision"] == "nonempty"

    code, report = run_json(
        capsys, ["decide-sft", str(full_spec), "--max-torus", "0", "--max-window", "0"]
    )
    assert code == 2
    assert report["result"]["decision"] == "unknown"


@pytest.mark.parametrize("command", ["decide-sft", "cotiler find"])
def test_budget_flags_default_to_budget(capsys, tmp_path, command):
    if command == "decide-sft":
        # rows count up mod 7: every window fills and no lattice narrower than
        # 7 closes, so the search spends its budget to the last window and torus
        domino = Shape([(0, 0), (1, 0)])
        spec = SftSpec(domino, range(7), {Pattern(domino, (i, (i + 1) % 7)) for i in range(7)})
        path = tmp_path / "count7.json"
        path.write_text(json.dumps(sft_spec_to_json(spec)))
        expected = decide(spec, Budget())
        assert expected.budget_spent.windows_tried == tuple(range(2, 9))
        assert expected.budget_spent.tori_tried[-1] == (6, 6, 0)
        argv = ["decide-sft", str(path)]
    else:
        expected = cotiler_decision(ClusterTile(Shape.plus()), Budget())
        argv = ["cotiler", "find", "--tile", "plus"]
    code, report = run_json(capsys, argv)
    assert report["result"]["decision"] == expected.kind
    assert report["budget_spent"] == budget_spent_to_json(expected.budget_spent)


def test_decide_sft_certificate_verifies(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"shape": [[0, 0], [1, 0]], "alphabet": [0, 1], "allowed": [[0, 1], [1, 0]]})
    )
    cert = tmp_path / "dec.json"
    run(["decide-sft", str(spec), "--max-torus", "3", "--out", str(cert)])
    capsys.readouterr()
    code, report = run_json(capsys, ["verify", str(cert)])
    assert code == 0 and report["result"]["passed"]


def test_factor_lines_and_classify(capsys):
    code, report = run_json(capsys, ["factor-lines", "1 + x + y", "--field", "F2"])
    assert code == 0
    decomp = report["result"]["decomposition"]
    assert decomp["factors"] == []
    assert decomp["remainder"] == report["result"]["input"]

    # the verdict does not depend on the role, which the payload only echoes
    for poly, verdict in [("1 + x + y", "two_periodic"), ("x*y - y", "periodic_in_direction")]:
        results = {}
        for role in ("annihilates", "periodizes"):
            code, report = run_json(capsys, ["classify", poly, "--role", role])
            assert code == 0
            results[role] = report["result"]
            assert results[role].pop("role") == role
        assert results["annihilates"] == results["periodizes"]
        assert results["periodizes"]["verdict"] == verdict
    assert run(["classify", "1 + x + y", "--role", "bogus"]) == 64


def test_eliminate_fp(capsys):
    code, report = run_json(
        capsys, ["eliminate-fp", "1 + x + y", "1 + x + y + x*y", "--field", "F2"]
    )
    assert code == 0
    assert report["result"]["verdict"] == "two_periodic"
    resultants = {e["variable"]: e["resultant"]["terms"] for e in report["result"]["per_variable"]}
    assert resultants[2] == [[1, 0, "1"], [2, 0, "1"]]  # x + x^2
    assert resultants[1] == [[0, 1, "1"], [0, 2, "1"]]  # y + y^2


def test_json_grid_and_polynomial_inputs(capsys, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"kind": "torus", "k": 2, "l": 2, "values": [[0, 1], [1, 0]]}))
    code, report = run_json(capsys, ["complexity", str(grid), "--shape", "rect:2x2"])
    assert code == 0
    assert report["result"] == {"count": 2, "low_complexity": True, "shape_size": 4}

    poly = {"domain": "F2", "terms": [[0, 0, "1"], [0, 1, "1"], [1, 0, "1"], [1, 1, "1"]]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly))
    # the domain comes from the JSON, not from --field
    for arg in (str(path), json.dumps(poly)):
        code, report = run_json(capsys, ["factor-lines", arg])
        assert code == 0
        assert report["result"]["input"] == poly
        factors = report["result"]["decomposition"]["factors"]
        assert [f["direction"] for f in factors] == [[0, 1], [1, 0]]
    assert list(report["inputs"]) == []  # a literal reads no file


def test_polynomial_argument_is_a_literal_before_a_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("x").write_text("1 + y")
    code, report = run_json(capsys, ["factor-lines", "x"])
    assert code == 0
    assert report["result"]["input"] == {"domain": "Z", "terms": [[1, 0, "1"]]}
    assert report["inputs"] == {}
    code, report = run_json(capsys, ["factor-lines", "./x"])
    assert code == 0
    assert report["result"]["input"] == {"domain": "Z", "terms": [[0, 0, "1"], [0, 1, "1"]]}
    assert list(report["inputs"]) == ["./x"]
    # neither a polynomial nor a file
    assert run(["factor-lines", "./y"]) == 65
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "input-format"


def test_antenna_subcommands(capsys, lee_grid, tmp_path):
    code, report = run_json(capsys, ["antenna", "classify", "--shape", "plus", "--a", "1", "--b", "1"])
    assert code == 0
    assert report["result"]["verdict"] == "two_periodic"

    cert = tmp_path / "antenna.json"
    code = run(
        ["antenna", "verify", lee_grid, "--shape", "plus", "--a", "1", "--b", "1", "--out", str(cert)]
    )
    assert code == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["verify", str(cert)])
    assert code == 0 and report["result"]["passed"]


def test_cotiler_subcommands(capsys, lee_grid, tmp_path):
    cert = tmp_path / "cot.json"
    code = run(["cotiler", "find", "--tile", "plus", "--max-torus", "6", "--out", str(cert)])
    assert code == 0
    capsys.readouterr()
    code, report = run_json(capsys, ["verify", str(cert)])
    assert code == 0 and report["result"]["passed"]

    code, report = run_json(capsys, ["cotiler", "verify", lee_grid, "--tile", "plus"])
    assert code == 0
    assert report["result"]["exact_cover_verified"] is True


U_PENTOMINO = [[0, 0], [1, 0], [2, 0], [0, 1], [2, 1]]


def test_cotiler_emptiness_certificate_verifies(capsys, tmp_path):
    # the U-pentomino tiles the plane only with rotations, never by translates
    tile = tmp_path / "u.json"
    tile.write_text(json.dumps(U_PENTOMINO))
    cert = tmp_path / "u_cert.json"
    argv = ["cotiler", "find", "--tile", str(tile), "--max-window", "8", "--max-torus", "6"]
    assert run(argv + ["--out", str(cert)]) == 1
    result = json.loads(cert.read_text())["result"]
    assert (result["decision"], result["window"]) == ("empty", 6)
    assert result["budget_spent"]["nodes"] == 1_058
    capsys.readouterr()
    code, report = run_json(capsys, ["verify", str(cert)])
    assert code == 0
    assert report["result"]["checks"] == {"window_unfillable": True}


@pytest.mark.parametrize(
    "claim, exit_code",
    [
        ({"decision": "empty", "window": 3}, 1),  # the domino tiles the plane
        ({"decision": "nonempty", "witness": None}, 1),  # no witness to back the claim
        ({"decision": "unknown"}, 0),  # no claim
    ],
    ids=["forged-empty", "nonempty-without-witness", "unknown"],
)
def test_verify_checks_cotiler_claims(capsys, tmp_path, claim, exit_code):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"certificate": "cotiler", "tile": [[0, 0], [1, 0]], **claim}))
    code, report = run_json(capsys, ["verify", str(cert)])
    assert code == exit_code
    assert report["result"]["passed"] is (exit_code == 0)


@pytest.mark.parametrize(
    "argv, flip, exit_code",
    [
        (["cotiler", "verify", "{grid}", "--tile", "{tile}"], False, 0),  # a true `false`
        (["cotiler", "verify", "{grid}", "--tile", "{tile}"], True, 1),  # non-cover claimed
        (["cotiler", "find", "--tile", "{tile}", "--max-torus", "4"], True, 1),  # cover denied
    ],
    ids=["non-cover-report", "non-cover-claimed-cover", "find-claim-denied"],
)
def test_verify_checks_exact_cover_claim(capsys, tmp_path, argv, flip, exit_code):
    tile, grid, cert = tmp_path / "domino.json", tmp_path / "grid.txt", tmp_path / "cert.json"
    tile.write_text("[[0, 0], [1, 0]]")
    grid.write_text("1 1\n")  # every cell covered twice
    run([a.format(tile=tile, grid=grid) for a in argv] + ["--out", str(cert)])
    capsys.readouterr()
    data = json.loads(cert.read_text())
    if flip:
        data["result"]["exact_cover_verified"] = not data["result"]["exact_cover_verified"]
    cert.write_text(json.dumps(data))
    code, report = run_json(capsys, ["verify", str(cert)])
    assert code == exit_code
    assert report["result"]["checks"]["exact_cover_claim"] is (exit_code == 0)


def test_decide_sft_beyond_recursion_depth(capsys, tmp_path):
    # windows 2..40 are all fillable; the 40 x 40 one is 1,600 cells deep
    spec = tmp_path / "checker.json"
    spec.write_text(
        json.dumps({"shape": [[0, 0], [1, 0]], "alphabet": [0, 1], "allowed": [[0, 1], [1, 0]]})
    )
    code = run(["decide-sft", str(spec), "--max-window", "40", "--max-torus", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["result"]["decision"] == "unknown"
    assert report["budget_spent"]["nodes"] == 33_009
    assert report["budget_spent"]["windows_tried"] == list(range(2, 41))


def test_output_determinism(capsys, checker_grid):
    runs = []
    for _ in range(2):
        run(["complexity", checker_grid, "--shape", "rect:2x2", "--torus"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_usage_and_format_errors(capsys, tmp_path):
    assert run([]) == 64
    assert run(["no-such-command"]) == 64
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_text("not a grid\n")
    assert run(["complexity", str(bad), "--shape", "rect:1x1"]) == 65
    assert run(["complexity", str(tmp_path / "missing.txt"), "--shape", "rect:1x1"]) == 65


def test_seed_does_not_change_verify_verdict(capsys, tmp_path):
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"shape": [[0, 0], [1, 0]], "alphabet": [0, 1], "allowed": []}))
    cert = tmp_path / "cert.json"
    run(["decide-sft", str(spec), "--max-torus", "2", "--out", str(cert)])
    capsys.readouterr()
    results = []
    for seed in ("1", "2", "3"):
        code, report = run_json(capsys, ["verify", str(cert), "--seed", seed])
        results.append((code, report["result"]))
    assert all(r == results[0] for r in results)
    assert results[0][0] == 0


@pytest.mark.parametrize(
    "argv, exit_code, error",
    [
        (["factor-lines", "1 + 1/0*x"], 65, "input-format"),
        (["factor-lines", "x + y", "--field", "F4"], 64, "usage"),
        (["complexity", "{ragged}", "--shape", "rect:1x1"], 65, "input-format"),
        (["complexity", "{grid}", "--shape", "rect:0x1"], 64, "usage"),
        (["profile", "{grid}", "--nmax", "0", "--mmax", "1"], 64, "usage"),
        (["antenna", "classify", "--shape", "rect:2x2", "--a", "-1", "--b", "1"], 64, "usage"),
        (["verify", "{tmp}/antenna.json"], 65, "input-format"),
        (["verify", "{tmp}/sft_decision.json"], 65, "input-format"),
        (["verify", "{tmp}/annihilator.json"], 65, "input-format"),
        (["verify", "{tmp}/empty_no_window.json"], 65, "input-format"),
        (["verify", "{tmp}/list.json"], 65, "input-format"),
        (["verify", "{tmp}/window_text.json"], 65, "input-format"),
        (["verify", "{tmp}/antenna_bad_a.json"], 65, "input-format"),
        (["verify", "{tmp}/cotiler_window_text.json"], 65, "input-format"),
        (["verify", "{tmp}/coefficient_number.json"], 65, "input-format"),
        (["verify", "{tmp}/result_list.json"], 65, "input-format"),
        (["verify", "{tmp}/values_text.json"], 65, "input-format"),
        (["verify", "{tmp}/values_float.json"], 65, "input-format"),
        (["verify", "{tmp}/values_null.json"], 65, "input-format"),
        (["verify", "{tmp}/periodizer_missing.json"], 65, "input-format"),
        (["factor-lines", "x + y", "--field", "F" + "1" * 30], 64, "usage"),
        (["verify", "{tmp}/modulus_30_digits.json"], 65, "input-format"),
        (["verify", "{tmp}/deep.json"], 65, "input-format"),
        (["decide-sft", "{tmp}/deep.json"], 65, "input-format"),
        (["complexity", "{tmp}/utf16.txt", "--shape", "rect:1x1"], 65, "input-format"),
        (["factor-lines", "{tmp}/utf16.txt"], 65, "input-format"),
        (["factor-lines", "1 + x", "--out", "{tmp}/missing/o.json"], 64, "usage"),
        (["factor-lines", "1 + x\0"], 65, "input-format"),
        (["complexity", "{grid}\0", "--shape", "rect:1x1"], 65, "input-format"),
        (["antenna"], 64, "usage"),
        (["cotiler"], 64, "usage"),
    ],
    ids=[
        "zero-denominator",
        "field-not-prime",
        "ragged-grid",
        "empty-rect",
        "profile-zero",
        "antenna-negative",
        "cert-antenna-no-shape",
        "cert-sft-no-spec",
        "cert-annihilator-no-result",
        "cert-empty-no-window",
        "cert-top-level-list",
        "cert-window-not-int",
        "cert-antenna-bad-a",
        "cert-cotiler-window-not-int",
        "cert-coefficient-number",
        "cert-result-list",
        "cert-values-string",
        "cert-values-float",
        "cert-values-null",
        "cert-periodizer-missing",
        "field-beyond-prime-test",
        "cert-modulus-beyond-prime-test",
        "verify-json-too-deep",
        "decide-sft-json-too-deep",
        "grid-not-utf8",
        "poly-file-not-utf8",
        "out-dir-missing",
        "poly-text-with-nul",
        "grid-path-with-nul",
        "antenna-no-subcommand",
        "cotiler-no-subcommand",
    ],
)
def test_malformed_input_exit_code(capsys, tmp_path, argv, exit_code, error):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("0 1\n1\n")
    grid = tmp_path / "grid.txt"
    grid.write_text("0 1\n1 0\n")
    spec = {"shape": [[0, 0], [1, 0]], "alphabet": [0, 1], "allowed": []}
    x_minus_1 = {"domain": "Z", "terms": [[0, 0, "-1"], [1, 0, "1"]]}
    direct = {"kind": "direct", "poly": x_minus_1}
    torus = {"kind": "torus", "values": [[1, 1]]}

    def annihilator(result=direct, source=torus):
        return {"certificate": "annihilator", "result": result, "source": source}

    certificates = {
        "antenna": {"certificate": "antenna"},
        "sft_decision": {"certificate": "sft_decision"},
        "annihilator": {"certificate": "annihilator"},
        "empty_no_window": {"certificate": "sft_decision", "spec": spec, "decision": "empty"},
        "list": [{"certificate": "antenna"}],
        "window_text": {
            "certificate": "sft_decision", "spec": spec, "decision": "empty", "window": "3"
        },
        "antenna_bad_a": {
            "certificate": "antenna", "shape": [[0, 0]], "a": "x", "b": 0, "config": None
        },
        "cotiler_window_text": {
            "certificate": "cotiler", "tile": [[0, 0]], "decision": "empty", "window": "3"
        },
        "coefficient_number": annihilator(
            {"kind": "direct", "poly": {"domain": "Z", "terms": [[0, 0, 5]]}}
        ),
        "result_list": annihilator([]),
        "values_text": annihilator(source={"kind": "torus", "values": "ab"}),
        "values_float": annihilator(source={"kind": "torus", "values": [[1.5, 1]]}),
        "values_null": annihilator(source={"kind": "patch", "values": [[1, None]]}),
        "periodizer_missing": annihilator({"kind": "periodizer_times_binomial", "poly": x_minus_1}),
        "modulus_30_digits": annihilator(
            {"kind": "direct", "poly": {**x_minus_1, "domain": "F" + "1" * 30}}
        ),
    }
    for name, cert in certificates.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cert))
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "utf16.txt").write_bytes("0 1\n1 0\n".encode("utf-16"))  # starts \xff\xfe
    argv = [a.format(ragged=ragged, grid=grid, tmp=tmp_path) for a in argv]
    assert run(argv) == exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert json.loads(captured.err.strip().splitlines()[-1])["error"] == error


def test_antenna_classify_zero_polynomial_forces_nothing(capsys):
    argv = ["antenna", "classify", "--shape", "rect:1x1", "--a", "0", "--b", "1"]
    code, report = run_json(capsys, argv)
    assert code == 0
    result = report["result"]
    assert (result["verdict"], result["direction"], result["order_upper_bound"]) == (
        "undetermined", None, None
    )


def _assert_internal(capsys, code):
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert json.loads(captured.err.strip().splitlines()[-1])["error"] == "internal"


def test_crash_exits_internal_not_a_verdict(capsys, monkeypatch, checker_grid):
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("gridalgebra.cli.complexity", crash)
    _assert_internal(capsys, run(["complexity", checker_grid, "--shape", "rect:2x2"]))


def _run_capped(argv, **caps):
    """cli.run(argv) in a child process capped at 1 GiB of address space
    and 60 s unless ``caps`` says otherwise (see ``run_capped``)."""
    code = f"import sys; from gridalgebra.cli import run; sys.exit(run({argv!r}))"
    return run_capped(code, **caps)


@pytest.mark.parametrize(
    "argv",
    [
        # split_direction would ask for a column of 3*10^8 entries
        ["factor-lines", "x^300000000 + 1"],
        # ... or of 10^21, beyond any index size
        ["factor-lines", "x^1000000000000000000000 + 1"],
        # _coefficients_in_var would ask for 10^20 dense rows
        ["eliminate-fp", "x^100000000000000000000*y + 1", "x + y", "--field", "F2"],
    ],
    ids=["factor-lines-3e8", "factor-lines-1e21", "eliminate-fp-1e20"],
)
def test_exponent_gap_exits_input_too_large(argv):
    code, out, err = _run_capped(argv)
    assert (code, out) == (65, "")
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "input-too-large"


def test_huge_rect_shape_exits_input_too_large(checker_grid):
    # 4 * 10^8 cells are refused before the first one is built
    code, out, err = _run_capped(["complexity", checker_grid, "--shape", "rect:20000x20000"])
    assert (code, out) == (65, "")
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "input-too-large"


@pytest.mark.parametrize("command", ["complexity", "annihilate"])
def test_rect_larger_than_the_patch_is_refused_before_it_is_built(checker_grid, command):
    # the 4 * 10^6 cells of rect:2000x2000 would take about 400 MB; the 2 x 2
    # patch refuses the rectangle by its sides first
    argv = [command, checker_grid, "--shape", "rect:2000x2000"]
    code, out, err = _run_capped(argv, limit=128 << 20, timeout=10)
    assert (code, out) == (70, ""), err
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "shape-too-large",
        "message": "no translate of the shape fits inside the 2x2 patch",
    }


def test_rect_side_past_the_digit_limit_is_a_usage_error(capsys, checker_grid):
    # int() refuses more digits than the interpreter's limit, where there is
    # one; without it the side is read and the cell count is refused
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    expected = (64, "usage") if 0 < limit < 5000 else (65, "input-too-large")
    code = run(["complexity", checker_grid, "--shape", f"rect:{'9' * 5000}x1"])
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert (code, json.loads(captured.err.strip().splitlines()[-1])["error"]) == expected


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(
            f"rect:{'9' * 5000}x1",
            marks=pytest.mark.skipif(
                not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                reason="no digit limit: the cell count is refused instead",
            ),
        ),
        f"rect:{'9' * 5000}",
    ],
    ids=["past-the-digit-limit", "no-x"],
)
def test_long_shape_spec_refusal_quotes_it_briefly(capsys, checker_grid, spec):
    code = run(["complexity", checker_grid, "--shape", spec])
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert (code, json.loads(last)["error"]) == (64, "usage")
    assert len(last.encode()) < 300, last


def test_huge_torus_profile_exits_input_too_large(checker_grid):
    # 10^10 table entries are refused before the first count, within the cap
    argv = ["profile", checker_grid, "--nmax", "100000", "--mmax", "100000", "--torus"]
    code, out, err = _run_capped(argv)
    assert (code, out) == (65, "")
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "input-too-large"


@pytest.mark.parametrize(
    "argv, limit",
    [
        # 2^20 entries would take about 1.2 GB on their way to the JSON
        (["profile", "GRID", "--nmax", "1024", "--mmax", "1024", "--torus"], 512 << 20),
        # the co-tiler SFT of a 10^4-cell tile would hold 10^8 pattern values
        (["cotiler", "find", "--tile", "rect:100x100", "--max-window", "2", "--max-torus", "1"], 1 << 30),
    ],
    ids=["profile-1024x1024", "cotiler-100x100"],
)
def test_input_past_its_memory_cost_is_refused_before_it_is_built(checker_grid, argv, limit):
    argv = [checker_grid if a == "GRID" else a for a in argv]
    code, out, err = _run_capped(argv, limit=limit, timeout=10)
    assert (code, out) == (65, ""), err
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "input-too-large"


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--nmax", "9" * 4000, "--mmax", "9" * 4000, "--torus"],
        ["complexity", "--shape", f"rect:{'9' * 4000}x{'9' * 4000}"],
    ],
    ids=["profile", "rect"],
)
def test_count_past_the_digit_limit_exits_input_too_large(checker_grid, argv):
    # each side parses, but their product has about 8,000 digits: the
    # refusal gives its size in bits, not its digits
    code, out, err = _run_capped([argv[0], checker_grid, *argv[1:]])
    assert (code, out) == (65, "")
    last = err.strip().splitlines()[-1]
    e = json.loads(last)
    assert e["error"] == "input-too-large" and e["message"].startswith("more than 2^26575 "), e
    assert len(last.encode()) < 200, last


def test_memory_error_exits_internal_not_with_a_verdict(tmp_path):
    # the lattice schedule up to index 10^6 runs out of a 256 MB address
    # space; the report of that MemoryError must not fail in turn and leave
    # exit 1, which is decide-sft's code for "empty"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"shape": [[0, 0], [5, 0]], "alphabet": [0, 1], "allowed": []}))
    argv = ["decide-sft", str(spec), "--max-window", "3", "--max-torus", "1000000"]
    code, out, err = _run_capped(argv, limit=256 << 20, timeout=30)
    assert (code, out) == (70, ""), err[-500:]
    assert json.loads(err.strip().splitlines()[-1])["error"] == "internal"


def test_refused_count_keeps_its_digits_up_to_128_bits():
    cases = [(10**21 + 1, str(10**21 + 1)), (2**128, str(2**128)), (2**128 + 1, "more than 2^128")]
    for count, text in cases:
        with pytest.raises(InputTooLarge) as refusal:
            InputTooLarge.check(count, 4, "cells")
        assert str(refusal.value) == f"{text} cells exceed the limit of 4"


def test_verify_of_an_empty_claim_at_window_1000_exits_input_too_large(tmp_path):
    # re-confirming it would lay out about 10^13 bits of keep masks
    spec = {"shape": [[0, 0], [1, 0]], "alphabet": [0, 1], "allowed": [[0, 1], [1, 0]]}
    cert = tmp_path / "cert.json"
    cert.write_text(
        json.dumps({"certificate": "sft_decision", "spec": spec, "decision": "empty", "window": 1000})
    )
    code, out, err = _run_capped(["verify", str(cert)])
    assert (code, out) == (65, "")
    assert "Traceback" not in err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "input-too-large"


def test_verify_of_an_empty_claim_without_patterns_at_window_1000_passes(tmp_path):
    # with no allowed pattern every translate is refuted before any mask
    spec = {"shape": [[0, 0], [1, 0]], "alphabet": [0, 1], "allowed": []}
    claim = {"certificate": "sft_decision", "spec": spec, "decision": "empty", "window": 1000}
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(claim))
    code, out, err = _run_capped(["verify", str(cert)])
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["passed"] and result["checks"] == {"window_unfillable": True}


@pytest.mark.parametrize("budget", [[], ["--max-nodes", "20000"]], ids=["default", "20000"])
def test_verify_of_a_forged_empty_claim_runs_out_of_nodes(capsys, tmp_path, budget):
    # the checkerboard domino fills every window: the re-check of window 10
    # finds a filling in 190 nodes (10 branch values, 180 revisions), and
    # runs out of nodes one node short of that
    spec = {"shape": [[0, 0], [1, 0]], "alphabet": [0, 1], "allowed": [[0, 1], [1, 0]]}
    cert = tmp_path / "cert.json"
    cert.write_text(
        json.dumps({"certificate": "sft_decision", "spec": spec, "decision": "empty", "window": 10})
    )
    code, report = run_json(capsys, ["verify", str(cert), *budget])
    assert code == 1
    assert report["result"]["checks"] == {"window_unfillable": False}
    assert report["result"]["passed"] is False
    code, report = run_json(capsys, ["verify", str(cert), "--max-nodes", "189"])
    assert code == 2
    assert report["result"]["checks"] == {"window_reconfirmed_within_budget": False}
    assert report["result"]["passed"] is False
    code, report = run_json(capsys, ["verify", str(cert), "--max-nodes", "190"])
    assert code == 1
    assert report["result"]["checks"] == {"window_unfillable": False}


def test_verify_node_budget_boundary_is_exact(capsys, tmp_path):
    tile = tmp_path / "u.json"
    tile.write_text(json.dumps(U_PENTOMINO))
    cert = tmp_path / "u_cert.json"
    argv = ["cotiler", "find", "--tile", str(tile), "--max-window", "8", "--max-torus", "6"]
    assert run(argv + ["--out", str(cert)]) == 1
    capsys.readouterr()
    # the re-check of window 6 in the order of seed 0 takes 629 nodes
    code, report = run_json(capsys, ["verify", str(cert), "--max-nodes", "628"])
    assert code == 2
    assert report["result"]["checks"] == {"window_reconfirmed_within_budget": False}
    code, report = run_json(capsys, ["verify", str(cert), "--max-nodes", "629"])
    assert code == 0
    assert report["result"]["checks"] == {"window_unfillable": True}


@pytest.mark.parametrize("kind", ["sft_decision", "cotiler"])
def test_verify_rejects_a_witness_that_is_not_a_torus(capsys, tmp_path, kind):
    cert = {
        "certificate": kind,
        "decision": "nonempty",
        "witness": {"kind": "patch", "origin": [0, 0], "values": [[1]]},
        "exact_cover_verified": True,
    }
    if kind == "cotiler":
        cert["tile"] = [[0, 0]]
    else:
        cert["spec"] = {"shape": [[0, 0]], "alphabet": [1], "allowed": [[1]]}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert run(["verify", str(path)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err.strip().splitlines()[-1])
    assert error == {"error": "input-format", "message": "a witness must be a torus"}


# -- the input boundary under drawn bytes -------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_GRIDS = [
    {"kind": "torus", "k": 2, "l": 2, "values": [[0, 1], [1, 0]]},
    {"kind": "patch", "origin": [1, -1], "values": [[0, 1, 2], [2, 0, 1], [1, 2, 0]]},
]
_POLYS = [
    {"domain": "Z", "terms": [[0, 0, "1"], [1, 0, "1"], [0, 1, "-1"], [1, 1, "-1"]]},
    {"domain": "F3", "terms": [[-1, 0, "2"], [0, 2, "1"]]},
]
_DOMINO = [[0, 0], [1, 0]]
_CHECKER_SPEC = {"shape": _DOMINO, "alphabet": [0, 1], "allowed": [[0, 1], [1, 0]]}
# a horizontal domino that must read 0 1: a window of width 3 is unfillable
_LEFT_ZERO_SPEC = {"shape": _DOMINO, "alphabet": [0, 1], "allowed": [[0, 1]]}
_SPECS = [_CHECKER_SPEC, _LEFT_ZERO_SPEC]
_DOMINO_TORUS = {"kind": "torus", "k": 2, "l": 1, "values": [[0, 1]]}
# one certificate of every kind verify reads, as decide-sft, cotiler find,
# cotiler verify and antenna verify write them
_CERTIFICATES = [
    {"certificate": "sft_decision", "decision": "empty", "spec": _LEFT_ZERO_SPEC, "window": 3},
    {"certificate": "sft_decision", "decision": "nonempty", "spec": _CHECKER_SPEC,
     "witness": _DOMINO_TORUS},
    {"certificate": "cotiler", "decision": "nonempty", "tile": _DOMINO, "witness": _DOMINO_TORUS,
     "exact_cover_verified": True},
    {"certificate": "cotiler", "tile": _DOMINO, "exact_cover_verified": True,
     "config": {"kind": "torus", "k": 2, "l": 1, "values": [[1, 0]]}},
    {"certificate": "antenna", "shape": _DOMINO, "a": 1, "b": 1, "valid": True,
     "config": {"kind": "torus", "k": 2, "l": 2, "values": [[0, 1], [1, 0]]}},
]
# no run of five digits, so every exponent stays far below MAX_DENSE_ENTRIES
_POLY_TEXT = (
    st.text(max_size=200)
    | st.lists(
        st.sampled_from(["x", "y", "^", "^-", "*", "+", "-", " ", "/", "(", "\0", "0", "7", "12"]),
        max_size=50,
    ).map("".join)
).filter(lambda s: not re.search(r"\d{5}", s))


@st.composite
def _mutated(draw, docs):
    """One of the JSON docs with one node replaced by a drawn value or, in a
    list or an object, dropped."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    paths = []

    def walk(node, path):
        paths.append(path)
        if isinstance(node, (dict, list)):
            for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(child, (*path, key))

    walk(doc, ())
    path = draw(st.sampled_from(paths))
    if not path:
        return draw(_JSON_VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_JSON_VALUES)
    return doc


def _assert_exit_contract(argv):
    """cli.run(argv) in process: the exit code is a documented one, a result
    comes with its payload, and no input reads as an internal error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 64, 65, 70), (argv, code, err.getvalue())
    if code <= 2:
        assert json.loads(out.getvalue())["command"] == argv[0], argv
    assert '"error": "internal"' not in err.getvalue(), (argv, err.getvalue())
    return code


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(
        [
            ["complexity", "--shape", "rect:2x2"],
            ["profile", "--nmax", "2", "--mmax", "2"],
            ["annihilate", "--shape", "rect:2x2"],
        ]
    ),
    data=st.binary(max_size=200) | _mutated(_GRIDS).map(lambda d: json.dumps(d).encode()),
    torus=st.booleans(),
)
def test_grid_commands_keep_the_exit_contract_on_drawn_bytes(
    tmp_path_factory, command, data, torus
):
    path = tmp_path_factory.getbasetemp() / "fuzz_grid"
    path.write_bytes(data)
    _assert_exit_contract([command[0], str(path), *command[1:], *(["--torus"] if torus else [])])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["factor-lines", "classify"]),
    field=st.sampled_from(["Z", "Q", "F2", "F3"]),
    text=_POLY_TEXT,
    doc=st.none() | _mutated(_POLYS),
)
def test_poly_commands_keep_the_exit_contract_on_drawn_text(
    tmp_path_factory, command, field, text, doc
):
    if doc is not None:
        text = str(tmp_path_factory.getbasetemp() / "fuzz_poly.json")
        Path(text).write_text(json.dumps(doc))
    # after "--" a text with a leading "-" is the polynomial, not an option
    _assert_exit_contract([command, "--field", field, "--", text])


# A budget flag's drawn value: negative ones are usage errors. A huge
# --max-window is bounded by --max-nodes (each fillable window spends one
# node per cell) and --max-nodes by the other two; a huge --max-torus is not
# drawn, since tori a symbol count refutes spend no node.
_HUGE = str(10**30)
_BUDGET_VALUES = st.sampled_from(["-1", "-20001", "0", "2", _HUGE])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    data=st.binary(max_size=200) | _mutated(_SPECS).map(lambda d: json.dumps(d).encode()),
    flag=st.sampled_from(["--max-window", "--max-torus", "--max-nodes"]),
    value=_BUDGET_VALUES,
)
def test_decide_sft_keeps_the_exit_contract_on_drawn_bytes(tmp_path_factory, data, flag, value):
    path = tmp_path_factory.getbasetemp() / "fuzz_spec"
    path.write_bytes(data)
    budget = {"--max-window": "4", "--max-torus": "3", "--max-nodes": "20000"}
    if not (flag == "--max-torus" and value == _HUGE):
        budget[flag] = value
    argv = ["decide-sft", str(path), *itertools.chain(*budget.items())]
    code = _assert_exit_contract(argv)
    if budget[flag].startswith("-"):
        assert code == 64, argv


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    data=st.binary(max_size=200) | _mutated(_CERTIFICATES).map(lambda d: json.dumps(d).encode()),
    nodes=st.none() | _BUDGET_VALUES,
)
def test_verify_keeps_the_exit_contract_on_drawn_bytes(tmp_path_factory, data, nodes):
    path = tmp_path_factory.getbasetemp() / "fuzz_certificate"
    path.write_bytes(data)
    budget = [] if nodes is None else ["--max-nodes", nodes]
    code = _assert_exit_contract(["verify", str(path), *budget])
    if nodes and nodes.startswith("-"):
        assert code == 64, nodes


@pytest.mark.parametrize(
    "argv",
    [
        [*command, flag, "-1"]
        for command in (["decide-sft", "{spec}"], ["cotiler", "find", "--tile", "plus"])
        for flag in ("--max-window", "--max-torus", "--max-nodes")
    ]
    + [["verify", "{spec}", "--max-nodes", "-1"]],
    ids=lambda argv: " ".join(arg for arg in argv[:-1] if arg not in ("{spec}", "--tile", "plus")),
)
def test_negative_budgets_are_usage_errors(capsys, tmp_path, argv):
    spec = tmp_path / "checker.json"
    spec.write_text(json.dumps(_CHECKER_SPEC))
    assert run([arg.replace("{spec}", str(spec)) for arg in argv]) == 64
    assert capsys.readouterr().out == ""


BUDGET = dataclasses.asdict(Budget())
# every subcommand's arguments and the namespace they parse to (None: a
# usage error, exit 64), so the flag declarations can change without the
# surface: positional order, each default, and each required flag
CLI_SURFACE = [
    ([], {"command": None}),
    (
        ["complexity", "g", "--shape", "plus"],
        {"command": "complexity", "grid": "g", "shape": "plus", "torus": False, "out": None},
    ),
    (["complexity", "g"], None),
    (["complexity", "--shape", "plus"], None),
    (
        ["profile", "g", "--nmax", "2", "--mmax", "3", "--torus", "--out", "o"],
        {"command": "profile", "grid": "g", "nmax": 2, "mmax": 3, "torus": True, "out": "o"},
    ),
    (["profile", "g", "--nmax", "2"], None),
    (["profile", "g", "--nmax", "two", "--mmax", "3"], None),
    (
        ["annihilate", "g", "--shape", "rect:2x1", "--torus"],
        {"command": "annihilate", "grid": "g", "shape": "rect:2x1", "torus": True, "out": None},
    ),
    (["annihilate", "g", "h", "--shape", "plus"], None),
    (
        ["factor-lines", "1 + x"],
        {"command": "factor-lines", "poly": "1 + x", "field": "Z", "out": None},
    ),
    (
        ["classify", "1 + x"],
        {"command": "classify", "poly": "1 + x", "role": "annihilates", "field": "Z", "out": None},
    ),
    (
        ["classify", "1 + x", "--role", "periodizes", "--field", "F3", "--out", "o"],
        {"command": "classify", "poly": "1 + x", "role": "periodizes", "field": "F3", "out": "o"},
    ),
    (["classify", "1 + x", "--role", "bogus"], None),
    (
        ["eliminate-fp", "f", "g"],
        {"command": "eliminate-fp", "poly_f": "f", "poly_g": "g", "field": "F2", "out": None},
    ),
    (["eliminate-fp", "f"], None),
    (["decide-sft", "s"], {"command": "decide-sft", "spec": "s", **BUDGET, "out": None}),
    (
        ["decide-sft", "s", "--max-window", "3", "--max-torus", "0", "--max-nodes", "9"],
        {
            "command": "decide-sft", "spec": "s", "max_window": 3, "max_torus": 0,
            "max_nodes": 9, "out": None,
        },
    ),
    (["decide-sft"], None),
    (["antenna"], {"command": "antenna", "antenna_command": None}),
    (
        ["antenna", "classify", "--shape", "plus", "--a", "1", "--b", "2"],
        {
            "command": "antenna", "antenna_command": "classify", "shape": "plus", "a": 1,
            "b": 2, "out": None,
        },
    ),
    (["antenna", "classify", "--shape", "plus", "--a", "1"], None),
    (
        ["antenna", "verify", "g", "--shape", "plus", "--a", "1", "--b", "2", "--out", "o"],
        {
            "command": "antenna", "antenna_command": "verify", "grid": "g", "shape": "plus",
            "a": 1, "b": 2, "out": "o",
        },
    ),
    (["antenna", "verify", "--shape", "plus", "--a", "1", "--b", "2"], None),
    (["cotiler"], {"command": "cotiler", "cotiler_command": None}),
    (
        ["cotiler", "find", "--tile", "plus"],
        {"command": "cotiler", "cotiler_command": "find", "tile": "plus", **BUDGET, "out": None},
    ),
    (["cotiler", "find"], None),
    (
        ["cotiler", "verify", "g", "--tile", "t"],
        {"command": "cotiler", "cotiler_command": "verify", "grid": "g", "tile": "t", "out": None},
    ),
    (["cotiler", "verify", "g"], None),
    (
        ["verify", "c"],
        {
            "command": "verify", "certificate": "c", "grid": None, "torus": False, "seed": 0,
            "max_nodes": BUDGET["max_nodes"], "out": None,
        },
    ),
    (
        ["verify", "c", "g", "--torus", "--seed", "3", "--max-nodes", "7", "--out", "o"],
        {
            "command": "verify", "certificate": "c", "grid": "g", "torus": True, "seed": 3,
            "max_nodes": 7, "out": "o",
        },
    ),
    (["verify"], None),
]


@pytest.mark.parametrize(
    "argv, namespace",
    CLI_SURFACE,
    ids=[" ".join(argv) or "no-arguments" for argv, _ in CLI_SURFACE],
)
def test_cli_surface(capsys, argv, namespace):
    if namespace is None:
        assert run(argv) == 64
        assert capsys.readouterr().out == ""
    else:
        assert vars(_build_parser().parse_args(argv)) == namespace
