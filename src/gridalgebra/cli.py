"""Command-line entry point.

One binary with subcommands; JSON is the single machine format. The
result payload written to stdout (or --out) is deterministic: identical
inputs and flags produce identical bytes. Wall time goes to stderr so it
never perturbs the payload.

Exit codes: 0 success (decide-sft: nonempty; verify: pass), 1 decide-sft
empty / verify fail, 2 decide-sft unknown / verify out of nodes, 64 usage
error, 65 input format error, 70 domain errors and internal errors (any
other exception).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__, certificates
from .algebra import LaurentPoly, domain_from_name
from .annihilator import find_annihilator, verify as verify_annihilator
from .applications import (
    AntennaProblem,
    ClusterTile,
    antenna_classify,
    antenna_verify,
    cotiler_decision,
    exact_cover_on_torus,
)
from .configuration import (
    Patch,
    TorusConfig,
    complexity,
    extract_patterns,
    rectangle_complexity_profile,
)
from .errors import GridAlgebraError, InputFormatError, UsageError
from .formats import (
    annihilator_result_to_json,
    decision_to_json,
    decomposition_to_json,
    elimination_report_to_json,
    grid_from_text,
    malformed,
    parse_shape_spec,
    poly_from_json,
    poly_from_text,
    poly_to_json,
    sft_spec_from_json,
    sft_spec_to_json,
    shape_from_json,
    shape_to_json,
    source_from_json,
    source_to_json,
    verdict_to_json,
)
from .linestructure import classify, eliminate_and_classify_fp, line_factor_decomposition
from .sft import Budget, EMPTY, NONEMPTY, decide


def _read_file(path: str, inputs: dict) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        raise InputFormatError(f"cannot read {path}: {e}") from e
    inputs[path] = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InputFormatError(f"{path} is not UTF-8: {e}") from e


def _parse_json(text: str):
    with malformed("JSON"):
        return json.loads(text)


def _load_source(path: str, inputs: dict, torus: bool):
    text = _read_file(path, inputs)
    if text.lstrip().startswith("{"):
        return source_from_json(_parse_json(text))
    rows = grid_from_text(text)
    return TorusConfig(rows) if torus else Patch((0, 0), rows)


def _load_shape(spec: str, inputs: dict, source=None):
    if spec.startswith("rect:") or spec == "plus":
        try:
            return parse_shape_spec(spec, source)
        except InputFormatError as e:
            raise UsageError(str(e)) from e
    return shape_from_json(_parse_json(_read_file(spec, inputs)))


def _load_poly(arg: str, inputs: dict, field: str) -> LaurentPoly:
    """The polynomial an argument gives: the argument itself when it
    parses as polynomial text or JSON, else the file it names (a file
    called ``x`` is reached as ``./x``)."""
    try:
        domain = domain_from_name(field)
    except ValueError as e:
        raise UsageError(f"bad --field {field!r}: {e}") from e
    try:
        return _parse_poly(arg, domain)
    except InputFormatError as e:
        literal_error = e
    try:
        text = _read_file(arg, inputs)
    except InputFormatError:
        if arg in inputs:
            raise  # the file was read but is not UTF-8
        raise literal_error
    return _parse_poly(text, domain)


def _parse_poly(text: str, domain) -> LaurentPoly:
    text = text.strip()
    if text.startswith("{"):
        return poly_from_json(_parse_json(text))
    return poly_from_text(text, domain)


def _antenna_problem(shape, args) -> AntennaProblem:
    try:
        return AntennaProblem(shape, args.a, args.b)
    except ValueError as e:
        raise UsageError(f"bad --a/--b: {e}") from e


def _budget(args) -> Budget:
    return Budget(
        max_window=args.max_window, max_torus=args.max_torus, max_nodes=args.max_nodes
    )


def _emit(command: str, inputs: dict, result: dict, args, start: float) -> None:
    payload = {
        "command": command,
        "inputs": inputs,
        "result": result,
        # only the SFT decisions (decide-sft, cotiler find) spend a budget
        "budget_spent": result.get("budget_spent"),
        "version": __version__,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write --out {args.out}: {e}") from e
    else:
        sys.stdout.write(text)
    print(f"wall_time_s: {time.monotonic() - start:.3f}", file=sys.stderr)


def _budget_value(text: str) -> int:
    """A budget flag's value: a non-negative integer, else a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a budget must not be negative: {value}")
    return value


def _parent(*flags, **options) -> argparse.ArgumentParser:
    """A parent parser of flags that share their options."""
    p = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        p.add_argument(flag, **options)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridalgebra",
        description="Exact algebraic analysis of low-complexity grid colorings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    out = _parent("--out")
    grid = _parent("grid")
    torus = _parent("--torus", action="store_true")
    shape = _parent("--shape", required=True)
    tile = _parent("--tile", required=True)
    a_b = _parent("--a", "--b", type=int, required=True)
    bounds = _parent("--nmax", "--mmax", type=int, required=True)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--max-window", type=_budget_value, default=Budget.max_window)
    budget.add_argument("--max-torus", type=_budget_value, default=Budget.max_torus)
    nodes = _parent("--max-nodes", type=_budget_value, default=Budget.max_nodes)

    shaped = [grid, shape, torus, out]
    sub.add_parser("complexity", help="pattern count and low-complexity flag", parents=shaped)

    sub.add_parser(
        "profile", help="rectangle complexity profile", parents=[grid, bounds, torus, out]
    )

    sub.add_parser("annihilate", help="construct an annihilator from pattern data", parents=shaped)

    p = sub.add_parser("factor-lines", help="line-polynomial decomposition", parents=[out])
    p.add_argument("poly")
    p.add_argument("--field", default="Z")

    p = sub.add_parser("classify", help="periodicity verdict from line factors", parents=[out])
    p.add_argument("poly")
    p.add_argument("--role", choices=["annihilates", "periodizes"], default="annihilates")
    p.add_argument("--field", default="Z")

    p = sub.add_parser(
        "eliminate-fp", help="resultant elimination over a prime field", parents=[out]
    )
    p.add_argument("poly_f")
    p.add_argument("poly_g")
    p.add_argument("--field", default="F2")

    p = sub.add_parser(
        "decide-sft", help="budgeted SFT emptiness decision", parents=[budget, nodes, out]
    )
    p.add_argument("spec")

    p = sub.add_parser("antenna", help="antenna placement problems")
    anten = p.add_subparsers(dest="antenna_command")
    anten.add_parser("classify", parents=[shape, a_b, out])
    anten.add_parser("verify", parents=[grid, shape, a_b, out])

    p = sub.add_parser("cotiler", help="cluster tile co-tilers")
    cot = p.add_subparsers(dest="cotiler_command")
    cot.add_parser("find", parents=[tile, budget, nodes, out])
    cot.add_parser("verify", parents=[grid, tile, out])

    p = sub.add_parser(
        "verify", help="re-verify an emitted certificate", parents=[torus, nodes, out]
    )
    p.add_argument("certificate")  # parents' arguments come first, so grid is declared here
    p.add_argument("grid", nargs="?")
    p.add_argument("--seed", type=int, default=0)

    return parser


def run(argv) -> int:
    start = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 64 if e.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 64
    inputs: dict[str, str] = {}
    try:
        command, result, code = _dispatch(args, inputs)
        _emit(command, inputs, result, args, start)
        return code
    except GridAlgebraError as e:
        print(json.dumps({"error": e.code, "message": str(e)}), file=sys.stderr)
        return e.exit_code
    except Exception as e:  # a crash must never read as a verdict
        print(json.dumps({"error": "internal", "message": repr(e)}), file=sys.stderr)
        return 70


def _dispatch(args, inputs) -> tuple[str, dict, int]:
    """Run one subcommand: its payload command name, result and exit code."""
    cmd = args.command

    if cmd == "complexity":
        source = _load_source(args.grid, inputs, args.torus)
        shape = _load_shape(args.shape, inputs, source)
        count, low = complexity(source, shape)
        return cmd, {"count": count, "low_complexity": low, "shape_size": len(shape)}, 0

    if cmd == "profile":
        if args.nmax < 1 or args.mmax < 1:
            raise UsageError("--nmax and --mmax must be positive")
        source = _load_source(args.grid, inputs, args.torus)
        table = rectangle_complexity_profile(source, args.nmax, args.mmax)
        result = {
            "profile": [
                {"n": n, "m": m, "count": c, "low_complexity": low}
                for (n, m), (c, low) in sorted(table.items())
            ]
        }
        return cmd, result, 0

    if cmd == "annihilate":
        source = _load_source(args.grid, inputs, args.torus)
        shape = _load_shape(args.shape, inputs, source)
        patterns = extract_patterns(source, shape)
        result_obj = find_annihilator(patterns)
        report = verify_annihilator(result_obj, source)
        result = {
            "certificate": "annihilator",
            "shape": shape_to_json(shape),
            "source": source_to_json(source),
            "result": annihilator_result_to_json(result_obj),
            "verified": report.passed,
        }
        return cmd, result, 0

    if cmd == "factor-lines":
        f = _load_poly(args.poly, inputs, args.field)
        decomp = line_factor_decomposition(f)
        return cmd, {"input": poly_to_json(f), "decomposition": decomposition_to_json(decomp)}, 0

    if cmd == "classify":
        f = _load_poly(args.poly, inputs, args.field)
        verdict = classify(f)
        return cmd, {"input": poly_to_json(f), "role": args.role, **verdict_to_json(verdict)}, 0

    if cmd == "eliminate-fp":
        f = _load_poly(args.poly_f, inputs, args.field)
        g = _load_poly(args.poly_g, inputs, args.field)
        report = eliminate_and_classify_fp(f, g)
        result = {
            "f": poly_to_json(f),
            "g": poly_to_json(g),
            **elimination_report_to_json(report),
        }
        return cmd, result, 0

    if cmd == "decide-sft":
        spec = sft_spec_from_json(_parse_json(_read_file(args.spec, inputs)))
        decision = decide(spec, _budget(args))
        result = {
            "certificate": "sft_decision",
            "spec": sft_spec_to_json(spec),
            **decision_to_json(decision),
        }
        return cmd, result, {NONEMPTY: 0, EMPTY: 1}.get(decision.kind, 2)

    if cmd == "antenna":
        if args.antenna_command is None:
            raise UsageError("antenna needs a subcommand: classify | verify")
        shape = _load_shape(args.shape, inputs)
        head = {"shape": shape_to_json(shape), "a": args.a, "b": args.b}
        if args.antenna_command == "classify":
            verdict = antenna_classify(_antenna_problem(shape, args))
            return "antenna classify", {**head, **verdict_to_json(verdict)}, 0
        source = _load_source(args.grid, inputs, torus=True)
        ok = antenna_verify(source, _antenna_problem(shape, args))
        result = {**head, "certificate": "antenna", "config": source_to_json(source), "valid": ok}
        return "antenna verify", result, 0 if ok else 1

    if cmd == "cotiler":
        if args.cotiler_command is None:
            raise UsageError("cotiler needs a subcommand: find | verify")
        tile = ClusterTile(_load_shape(args.tile, inputs))
        head = {"certificate": "cotiler", "tile": shape_to_json(tile.shape)}
        if args.cotiler_command == "find":
            decision = cotiler_decision(tile, _budget(args))
            cover_ok = None
            if decision.kind == NONEMPTY:
                cover_ok = exact_cover_on_torus(tile, decision.witness)
            result = {**head, **decision_to_json(decision), "exact_cover_verified": cover_ok}
            return "cotiler find", result, {NONEMPTY: 0, EMPTY: 1}.get(decision.kind, 2)
        source = _load_source(args.grid, inputs, torus=True)
        ok = exact_cover_on_torus(tile, source)
        result = {**head, "config": source_to_json(source), "exact_cover_verified": ok}
        return "cotiler verify", result, 0 if ok else 1

    return _verify_certificate(args, inputs)  # argparse admits no other command


def _verify_certificate(args, inputs) -> tuple[str, dict, int]:
    cert = _parse_json(_read_file(args.certificate, inputs))
    if isinstance(cert, dict) and "certificate" not in cert and "result" in cert:
        cert = cert["result"]  # a full report wraps the certificate
    source = _load_source(args.grid, inputs, args.torus) if args.grid else None
    checks = certificates.check(cert, source, args.seed, args.max_nodes)
    passed = all(checks.values())
    result = {"certificate": cert["certificate"], "checks": checks, "passed": passed}
    if certificates.BUDGET_CHECK in checks:  # out of nodes: neither pass nor fail
        return "verify", result, 2
    return "verify", result, 0 if passed else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
