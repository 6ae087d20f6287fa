#!/usr/bin/env python3
"""Benchmark of the gridalgebra package: one seeded workload per run.

Run from the root of a source checkout:

    python3 bench/run.py --workload torus-periodicity --seed 1 --seconds 24 --trace 0

The run builds its inputs from the seed, then runs whole passes over them in
one process, one item at a time (a closed loop with one client), until the
time is up. Every item re-checks its result independently; a failed re-check
aborts the run with exit code 1 and prints no result. The last line of stdout
is one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``). See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# workload -> (input generator, item runner, items per pass)
WORKLOADS = {
    "torus-periodicity": ("torus_inputs", "torus_item", 260),
    "poly-lines": ("poly_inputs", "poly_item", 1000),
    "sft-random": ("sft_inputs", "sft_item", 6000),
    "cotiler": ("cotiler_inputs", "cotiler_item", 200),
}
TINY_ITEMS = 6
SETUP_PROBES = 5
# Reported times are scaled to a nominal machine speed, at which
# _reference() takes REFERENCE_S; see "How a run measures" in README.md.
REFERENCE_S = 0.008
REFERENCE_EVERY_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Per-layer metrics of a traced run, per pass over the inputs.
CALLS_AND_SELF = [
    "algebra.mul",
    "algebra.univariate_resultant",
    "algebra.direction_content",
    "algebra.poly_divexact",
    "configuration.is_annihilated",
    "annihilator.find_annihilator",
    "annihilator.verify",
    "annihilator.find_binomial_product_annihilator",
    "sft.window_fillable",
    "sft.find_periodic_point",
]
SELF_ONLY = [
    "configuration.apply_poly",
    "configuration.extract_patterns",
    "configuration.rectangle_complexity_profile",
    "configuration.detect_periods",
    "configuration.period_lattice_index",
    "linestructure.line_factor_decomposition",
    "linestructure.classify",
    "linestructure.eliminate_and_classify_fp",
    "sft.reconfirm_empty",
    "sft.verify_witness",
    "applications.cotiler_decision",
    "applications.exact_cover_on_torus",
]
LAYER_SELF = [
    "algebra",
    "configuration",
    "annihilator",
    "linestructure",
    "sft",
    "applications",
    "formats",
]
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    **{m: u for name in CALLS_AND_SELF for m, u in ((f"{name}.calls", "count"), (f"{name}.self_s", "s"))},
    **{f"{name}.self_s": "s" for name in SELF_ONLY},
    "algebra.mul.terms_out": "count",
    "algebra.univariate_resultant.sylvester_dim": "count",
    "configuration.is_annihilated.yes_ratio": "ratio",
    "configuration.cell_terms": "count",
    "annihilator.binomial.checks_per_call": "count",
    "linestructure.directions_tried": "count",
    "linestructure.factors_found": "count",
    "linestructure.nonzero_eliminant_ratio": "ratio",
    "sft.nodes": "count",
    "sft.nodes_per_s": "1/s",
    "sft.windows_tried": "count",
    "sft.tori_tried": "count",
    "formats.bytes_out": "B",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.reference: list[float] = []  # per pass: median reference time


def _reference() -> float:
    """Time of a fixed piece of pure-Python work that allocates a few MB of
    tuples and dict entries, as the package's kernels do. It does not
    depend on the package, so it measures only the machine's speed."""
    t0 = time.perf_counter()
    table = {}
    for i in range(20000):
        table[(i, i * 7 % 13)] = i
    total = 0
    for (a, b), v in table.items():
        total += a * b - v
    return time.perf_counter() - t0


def _fail(message: str, code: int) -> None:
    print(message, file=sys.stderr)
    sys.exit(code)


def _import_package():
    """Import the package from this checkout (``gridalgebra.cli`` loads
    every layer) and the workload module; exit 2 without the sources."""
    if not (SRC / "gridalgebra" / "__init__.py").is_file():
        _fail(f"no gridalgebra sources under {SRC}; run from a source checkout", 2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import gridalgebra.cli  # noqa: F401

    import workloads

    return workloads


def _build(workloads, args):
    """The workload's inputs for the seed, and the function running one."""
    generator, runner, count = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    inputs = getattr(workloads, generator)(rng, TINY_ITEMS if args.tiny else count)
    return inputs, getattr(workloads, runner)


def _setup_probe(args) -> None:
    """Fresh-interpreter set-up: import the package, build the inputs."""
    t0 = time.perf_counter()
    workloads = _import_package()
    t1 = time.perf_counter()
    _build(workloads, args)
    t2 = time.perf_counter()
    reference = [_reference() for _ in range(3)]
    print(
        json.dumps(
            {
                "import_s": t1 - t0,
                "build_s": t2 - t1,
                "reference_s": statistics.median(reference),
                "reference_total_s": time.perf_counter() - t2,
            }
        )
    )


def _measure_setup(args) -> tuple[float, float]:
    """Median wall time of fresh interpreters that only set up (less the
    time they spent timing the reference), each scaled to the nominal speed
    by its own reference time, and the median time their package import
    took."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}", proc.returncode or 2)
        probe = json.loads(proc.stdout.splitlines()[-1])
        walls.append((wall - probe["reference_total_s"]) * REFERENCE_S / probe["reference_s"])
        imports.append(probe["import_s"])
    return statistics.median(walls), statistics.median(imports)


def _run_passes(inputs, runner, seconds: float, tally: Tally, check_failed, tracer=None):
    """Whole passes over the inputs until ``seconds`` have gone by. Returns
    the item latencies of each pass and the bytes of serialized results per
    pass."""
    start = time.perf_counter()
    passes = []
    while True:
        digest = hashlib.sha256()
        size = 0
        latencies = []
        reference = []
        last_reference = -REFERENCE_EVERY_S
        for i, item in enumerate(inputs):
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                reference.append(_reference())
                last_reference = time.perf_counter()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    ok, result = runner(item)
                else:
                    ok, result = tracer.run_item(i, runner, item)
            except check_failed:
                raise
            except Exception as e:  # an item that raises counts as failed
                if tally.failed == 0:
                    traceback.print_exc(file=sys.stderr)
                ok, result = False, {"error": type(e).__name__}
            blob = json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
            latencies.append(time.perf_counter() - t0)
            tally.attempted += 1
            tally.failed += not ok
            digest.update(blob)
            size += len(blob)
        passes.append(latencies)
        tally.reference.append(statistics.median(reference))
        if tally.digest is None:
            tally.digest = digest.hexdigest()
        elif digest.hexdigest() != tally.digest:
            raise check_failed("results changed between passes over the same inputs")
        if time.perf_counter() - start >= seconds:
            return passes, size


def _item_medians(passes, reference) -> list[float]:
    """Each input's median latency over the passes, after scaling every
    pass to the nominal speed by its median reference time. Every pass
    repeats the same work, so the median sets aside passes slowed by other
    load; the scaling takes out slower and faster spells of the machine."""
    scaled = [[t * REFERENCE_S / r for t in p] for p, r in zip(passes, reference)]
    return [statistics.median(times) for times in zip(*scaled)]


def _end_to_end(setup_s: float, tally: Tally, passes) -> dict:
    latencies = _item_medians(passes, tally.reference)
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": setup_s,
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": deciles[4] * 1e3,
        "item_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def _per_layer(tracer, passes: int, wall: float, size: int, import_s: float, overhead: float):
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    layers = tracer.layer_self_s()
    out = {f"{layer}.self_s": layers[layer] / passes for layer in LAYER_SELF}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = calls[name] // passes
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[f"{name}.self_s"] = self_s[name] / passes

    def ratio(a, b):
        return a / b if b else 0.0

    resultants = calls["algebra.univariate_resultant"]
    eliminants = counts["linestructure.eliminants"]
    out.update(
        {
            "algebra.mul.terms_out": int(counts["algebra.mul.terms_out"]) // passes,
            "algebra.univariate_resultant.sylvester_dim": ratio(
                counts["algebra.univariate_resultant.sylvester_dim"], resultants
            ),
            "configuration.is_annihilated.yes_ratio": ratio(
                counts["configuration.is_annihilated.yes"], calls["configuration.is_annihilated"]
            ),
            "configuration.cell_terms": int(counts["configuration.cell_terms"]) // passes,
            "annihilator.binomial.checks_per_call": ratio(
                counts["annihilator.binomial.checks"],
                calls["annihilator.find_binomial_product_annihilator"],
            ),
            "linestructure.directions_tried": int(counts["linestructure.directions_tried"]) // passes,
            "linestructure.factors_found": int(counts["linestructure.factors_found"]) // passes,
            "linestructure.nonzero_eliminant_ratio": ratio(
                counts["linestructure.eliminants_nonzero"], eliminants
            ),
            "sft.nodes": int(counts["sft.nodes"]) // passes,
            "sft.nodes_per_s": ratio(counts["sft.nodes"], layers["sft"]),
            "sft.windows_tried": int(counts["sft.windows_tried"]) // passes,
            "sft.tori_tried": int(counts["sft.tori_tried"]) // passes,
            "formats.bytes_out": size,
            "cli.import_s": import_s,
            "trace.wall_s": wall / passes,
            "trace.overhead_frac": overhead,
        }
    )
    return out


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help=f"{TINY_ITEMS} inputs per pass (smoke test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    if not (SRC / "gridalgebra" / "__init__.py").is_file():
        _fail(f"no gridalgebra sources under {SRC}; run from a source checkout", 2)
    setup_s, import_s = _measure_setup(args)
    workloads = _import_package()
    inputs, runner = _build(workloads, args)
    check_failed = workloads.CheckFailed
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }
    print("machine " + json.dumps(machine, sort_keys=True))
    tally = Tally()
    try:
        if args.trace == 0:
            passes, _ = _run_passes(inputs, runner, args.seconds, tally, check_failed)
            metrics = _end_to_end(setup_s, tally, passes)
            units = END_TO_END
            raw = _item_medians(passes, [REFERENCE_S] * len(passes))
            deciles = statistics.quantiles(raw, n=10)
            print(
                f"raw items_per_s={len(raw) / sum(raw):.3f} item_p50_ms={deciles[4] * 1e3:.4f} "
                f"item_p90_ms={deciles[8] * 1e3:.4f} (unscaled)"
            )
        else:
            from tracing import Tracer

            passes, _ = _run_passes(inputs, runner, args.seconds / 2, tally, check_failed)
            tracer = Tracer()
            tracer.install(workloads)
            traced_start = time.perf_counter()
            traced_passes, size = _run_passes(
                inputs, runner, args.seconds / 2, tally, check_failed, tracer
            )
            traced_wall = time.perf_counter() - traced_start
            layers = tracer.layer_self_s()
            if sum(layers.values()) > traced_wall:
                raise check_failed("layer self times exceed the traced wall time")
            metrics = _per_layer(
                tracer,
                len(traced_passes),
                traced_wall,
                size,
                import_s,
                sum(_item_medians(passes, tally.reference[: len(passes)]))
                / sum(_item_medians(traced_passes, tally.reference[len(passes) :]))
                - 1,
            )
            units = PER_LAYER
            out_dir = BENCH / "out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"{args.workload}.spans.tsv"
            tracer.write(spans)
            print(f"spans {spans.relative_to(ROOT)} ({len(tracer.span_id)} spans)")
            passes += traced_passes
    except check_failed as e:
        _fail(f"CHECK FAILED on {args.workload} seed {args.seed}: {e}", 1)
    print(f"digest {args.workload} seed={args.seed} sha256={tally.digest}")
    print(
        f"samples items={tally.attempted} passes={len(passes)} inputs={len(inputs)} "
        f"(per-item medians over passes; percentiles over the {len(inputs)} inputs) "
        f"reference_ms={statistics.median(tally.reference) * 1e3:.3f}"
    )
    result = {
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
