"""Acceptance suite: one test per criterion, one PASS line each.

Every criterion builds a JSON-serializable payload from fixed seeds;
criterion 9 re-runs the others and demands bit-identical serialized
payloads. All equality checks are exact. Run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction

from gridalgebra import (
    AntennaProblem,
    Budget,
    ClusterTile,
    GF,
    LaurentPoly,
    Shape,
    SftSpec,
    TorusConfig,
    ZZ,
    antenna_classify,
    antenna_verify,
    cotiler_sft,
    decide,
    detect_periods,
    eliminate_and_classify_fp,
    exact_cover_on_torus,
    extract_patterns,
    find_annihilator,
    find_binomial_product_annihilator,
    is_annihilated,
    line_direction_candidates,
    line_factor_decomposition,
    normalize_direction,
    period_lattice_index,
    reconfirm_empty,
    split_direction,
    univariate_resultant,
    verify_witness,
    window_fillable,
)
from gridalgebra.annihilator import DIRECT
from gridalgebra.formats import poly_from_text, poly_to_json, source_to_json
from gridalgebra.linestructure import TWO_PERIODIC
from gridalgebra.sft import EMPTY, NONEMPTY

from helpers import (
    fp_torus_annihilated_by,
    fraction_rank,
    random_fp_poly_with_both_vars,
    random_line_poly,
    random_torus,
    random_triangle_poly,
)


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _report(number: int, ok: bool, elapsed: float, limit: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail} [{elapsed:.2f}s < {limit:.0f}s]")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def _torus_corpus():
    rng = random.Random(2024)
    return [random_torus(rng, kmax=6, lmax=6, max_symbols=4) for _ in range(200)]


# -- criterion 1: periodicity <=> binomial annihilation ---------------------


def payload_criterion_1():
    failures = 0
    period_count = 0
    for torus in _torus_corpus():
        bound = max(torus.k, torus.l)
        detected = detect_periods(torus)
        for tx in range(-bound, bound + 1):
            for ty in range(-bound, bound + 1):
                if (tx, ty) == (0, 0):
                    continue
                u = normalize_direction((tx, ty))
                if max(abs(u[0]), abs(u[1])) > bound:
                    continue
                mult = abs(tx // u[0]) if u[0] else abs(ty // u[1])
                expected = u in detected and mult % detected[u] == 0
                got = is_annihilated(
                    torus, LaurentPoly.difference_binomial(ZZ, (tx, ty))
                ).kind == "yes"
                if got != expected:
                    failures += 1
                period_count += got
    return {"tori": 200, "failures": failures, "periods_seen": period_count}


def test_criterion_1_periodicity_iff_binomial_annihilation():
    t0 = time.monotonic()
    payload = payload_criterion_1()
    elapsed = time.monotonic() - t0
    _report(
        1,
        payload["failures"] == 0,
        elapsed,
        5.0,
        f"binomial annihilation matched detect_periods on {payload['tori']} tori "
        f"({payload['periods_seen']} period hits)",
    )


# -- criterion 2: annihilator construction soundness ------------------------


def payload_criterion_2():
    rng = random.Random(777)
    box = [(i, j) for i in range(4) for j in range(4)]
    done = 0
    case_counts = {"direct": 0, "periodizer_times_binomial": 0}
    failures = []
    while done < 100:
        k, l = rng.choice([(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (2, 4), (4, 2)])
        torus = TorusConfig(
            [[rng.randint(0, 2) for _ in range(k)] for _ in range(l)]
        )
        size = rng.randint(k * l, 8)
        shape = Shape(rng.sample(box, size))
        patterns = extract_patterns(torus, shape)
        if len(patterns) > len(shape):
            continue
        result = find_annihilator(patterns)
        if result.poly.is_zero:
            failures.append("zero polynomial")
        rank = fraction_rank([list(p.values) for p in sorted(patterns, key=lambda p: p.values)])
        oracle_kind = "direct" if rank < len(shape) else "periodizer_times_binomial"
        if result.kind != oracle_kind:
            failures.append(f"case split mismatch (rank {rank}, |D| {len(shape)})")
        vec_poly = result.poly if result.kind == DIRECT else result.periodizer
        vec = {(-e[0], -e[1]): c for e, c in vec_poly.terms.items()}
        inners = {
            sum(Fraction(vec.get(cell, 0)) * v for cell, v in zip(shape.cells, p.values))
            for p in patterns
        }
        if result.kind == DIRECT:
            if inners != {0}:
                failures.append("nonzero inner product in direct case")
        elif inners != {Fraction(result.constant)}:
            failures.append("non-constant periodizer values")
        case_counts[result.kind] += 1
        done += 1
    return {"sets": done, "cases": case_counts, "failures": failures}


def test_criterion_2_annihilator_construction_soundness():
    t0 = time.monotonic()
    payload = payload_criterion_2()
    elapsed = time.monotonic() - t0
    _report(
        2,
        not payload["failures"],
        elapsed,
        5.0,
        f"100 low-complexity pattern sets: case split matched the rank oracle "
        f"({payload['cases']['direct']} direct / "
        f"{payload['cases']['periodizer_times_binomial']} periodizer)",
    )


# -- criterion 3: single difference binomial on every torus -----------------


def payload_criterion_3():
    found = []
    failures = 0
    for torus in _torus_corpus():
        bound = max(torus.k, torus.l)
        result = find_binomial_product_annihilator(torus, bound, max_factors=1)
        if result is None or len(result) != 1:
            failures += 1
            found.append(None)
            continue
        t = result[0]
        if max(abs(t[0]), abs(t[1])) > bound:
            failures += 1
        found.append(list(t))
    return {"tori": len(found), "failures": failures, "vectors": found}


def test_criterion_3_binomial_annihilator_at_desk_scale():
    t0 = time.monotonic()
    payload = payload_criterion_3()
    elapsed = time.monotonic() - t0
    _report(
        3,
        payload["failures"] == 0,
        elapsed,
        10.0,
        "every random torus admits a single-binomial annihilator within max-norm max(k,l)",
    )


# -- criterion 4: line decomposition round-trip ------------------------------


def payload_criterion_4():
    rng = random.Random(4242)
    directions = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (1, -2)]
    failures = []
    recovered = 0
    for i in range(100):
        planted = rng.sample(directions, rng.randint(0, 3))
        f = random_triangle_poly(rng)
        for u in planted:
            f = f * random_line_poly(rng, u, max_points=4)
        f = f.shift((rng.randint(-2, 2), rng.randint(-2, 2)))
        decomp = line_factor_decomposition(f)
        if decomp.product() != f:
            failures.append(f"composite {i}: product identity broken")
        if not set(planted) <= set(decomp.directions()):
            failures.append(f"composite {i}: planted direction lost")
        else:
            recovered += len(planted)
        for u in line_direction_candidates(decomp.remainder):
            if split_direction(decomp.remainder, u)[0].num_terms >= 2:
                failures.append(f"composite {i}: remainder kept a line factor")
    return {"composites": 100, "directions_recovered": recovered, "failures": failures}


def test_criterion_4_line_decomposition_roundtrip():
    t0 = time.monotonic()
    payload = payload_criterion_4()
    elapsed = time.monotonic() - t0
    _report(
        4,
        not payload["failures"],
        elapsed,
        10.0,
        f"100 composites decomposed exactly; {payload['directions_recovered']} planted "
        "directions recovered; remainders certified line-free",
    )


# -- criterion 5: Ledrappier facts -------------------------------------------


def payload_criterion_5():
    f = poly_from_text("1 + x + y", GF(2))
    g = poly_from_text("x + 1", GF(2)) * poly_from_text("y + 1", GF(2))
    decomp = line_factor_decomposition(f)
    report = eliminate_and_classify_fp(f, g)
    by_var = {e.variable: e.resultant for e in report.entries}
    return {
        "no_line_factors": decomp.factors == () and decomp.remainder == f,
        "resultant_y_eliminated": poly_to_json(by_var[2]),
        "resultant_x_eliminated": poly_to_json(by_var[1]),
        "verdict": report.verdict,
    }


def test_criterion_5_ledrappier_facts():
    t0 = time.monotonic()
    payload = payload_criterion_5()
    elapsed = time.monotonic() - t0
    # hand-computed 2x2 Sylvester determinants: x^2 + x and y^2 + y
    ok = (
        payload["no_line_factors"]
        and payload["verdict"] == TWO_PERIODIC
        and payload["resultant_y_eliminated"]["terms"] == [[1, 0, "1"], [2, 0, "1"]]
        and payload["resultant_x_eliminated"]["terms"] == [[0, 1, "1"], [0, 2, "1"]]
    )
    _report(
        5,
        ok,
        elapsed,
        1.0,
        "1+x+y is line-factor-free over F2; elimination yields x^2+x, y^2+y, two-periodic",
    )


# -- criterion 6: antenna example ---------------------------------------------


def lee_code_5x5():
    return TorusConfig([[1 if (i + 2 * j) % 5 == 0 else 0 for i in range(5)] for j in range(5)])


def payload_criterion_6():
    plus = Shape.plus()
    verdict = antenna_classify(AntennaProblem(plus, a=1, b=1))
    code = lee_code_5x5()
    return {
        "verdict_b_minus_a_zero": verdict.kind,
        "code_verify": antenna_verify(code, AntennaProblem(plus, a=1, b=1)),
        "code_exact_cover": exact_cover_on_torus(ClusterTile(plus), code),
    }


def test_criterion_6_antenna_example():
    t0 = time.monotonic()
    payload = payload_criterion_6()
    elapsed = time.monotonic() - t0
    ok = (
        payload["verdict_b_minus_a_zero"] == TWO_PERIODIC
        and payload["code_verify"]
        and payload["code_exact_cover"]
    )
    _report(
        6,
        ok,
        elapsed,
        1.0,
        "plus shape with b-a=0 forces two-periodicity; 5x5 diagonal code verified",
    )


# -- criterion 7: SFT decision certificates -----------------------------------


def payload_criterion_7():
    budget = Budget(max_window=4, max_torus=6)
    domino = Shape([(0, 0), (1, 0)])

    empty_spec = SftSpec(domino, {0, 1}, set())
    dec_empty = decide(empty_spec, budget)
    empty_ok = (
        dec_empty.kind == EMPTY
        and reconfirm_empty(empty_spec, dec_empty.window, seed=11)
        and window_fillable(empty_spec, dec_empty.window) is None
    )

    domino_tile = ClusterTile(domino)
    dec_domino = decide(cotiler_sft(domino_tile), budget)
    domino_ok = (
        dec_domino.kind == NONEMPTY
        and verify_witness(cotiler_sft(domino_tile), dec_domino.witness)
        and exact_cover_on_torus(domino_tile, dec_domino.witness)
    )

    plus_tile = ClusterTile(Shape.plus())
    dec_plus = decide(cotiler_sft(plus_tile), budget)
    plus_ok = (
        dec_plus.kind == NONEMPTY
        and verify_witness(cotiler_sft(plus_tile), dec_plus.witness)
        and exact_cover_on_torus(plus_tile, dec_plus.witness)
        and period_lattice_index(dec_plus.witness) == 5
    )

    return {
        "empty": {"ok": empty_ok, "window": dec_empty.window},
        "domino": {"ok": domino_ok, "witness": source_to_json(dec_domino.witness)},
        "plus": {"ok": plus_ok, "witness": source_to_json(dec_plus.witness)},
    }


def test_criterion_7_sft_decision_certificates():
    t0 = time.monotonic()
    payload = payload_criterion_7()
    elapsed = time.monotonic() - t0
    ok = payload["empty"]["ok"] and payload["domino"]["ok"] and payload["plus"]["ok"]
    _report(
        7,
        ok,
        elapsed,
        30.0,
        f"empty at window {payload['empty']['window']}; domino stripe witness; "
        "plus-pentomino 5x5 witness with period lattice area 5",
    )


# -- criterion 8: resultant ideal membership ----------------------------------


def payload_criterion_8():
    rng = random.Random(888)
    pairs_checked = 0
    resultants_checked = 0
    failures = 0
    while pairs_checked < 50:
        p = rng.choice([2, 3])
        f = random_fp_poly_with_both_vars(rng, p)
        g = random_fp_poly_with_both_vars(rng, p)
        k, l = rng.randint(2, 4), rng.randint(2, 4)
        torus = fp_torus_annihilated_by([f, g], k, l, p, rng)
        if torus is None:
            continue  # unsatisfiable draw: only the zero solution
        pairs_checked += 1
        for var in (1, 2):
            r = univariate_resultant(f, g, var)
            if r.is_zero:
                continue
            resultants_checked += 1
            if is_annihilated(torus, r).kind != "yes":
                failures += 1
    return {
        "pairs": pairs_checked,
        "nonzero_resultants": resultants_checked,
        "failures": failures,
    }


def test_criterion_8_resultant_ideal_membership():
    t0 = time.monotonic()
    payload = payload_criterion_8()
    elapsed = time.monotonic() - t0
    ok = payload["failures"] == 0 and payload["nonzero_resultants"] > 0
    _report(
        8,
        ok,
        elapsed,
        30.0,
        f"{payload['pairs']} annihilated tori; {payload['nonzero_resultants']} nonzero "
        "resultants all annihilate",
    )


# -- criterion 9: determinism --------------------------------------------------


def test_criterion_9_determinism():
    t0 = time.monotonic()
    builders = {
        1: payload_criterion_1,
        2: payload_criterion_2,
        3: payload_criterion_3,
        4: payload_criterion_4,
        5: payload_criterion_5,
        6: payload_criterion_6,
        7: payload_criterion_7,
        8: payload_criterion_8,
    }
    mismatches = []
    for number, build in builders.items():
        if _dump(build()) != _dump(build()):
            mismatches.append(f"criterion {number} across runs")
    elapsed = time.monotonic() - t0
    _report(
        9,
        not mismatches,
        elapsed,
        120.0,
        "criteria 1-8 payloads bit-identical across two runs",
    )
