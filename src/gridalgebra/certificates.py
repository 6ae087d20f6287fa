"""Re-checking of emitted certificates, one checker per kind.

A certificate is the ``result`` object of ``annihilate``, ``decide-sft``,
``antenna verify`` or ``cotiler find`` / ``cotiler verify``, named by its
``certificate`` key. ``check`` re-checks every claim it makes with the
library's independent checks and returns them by name; it passes iff all
are true. Every key a checker reads is required, so a missing key is an
InputFormatError and never reads as "no claim". An emptiness claim whose
re-confirmation runs out of nodes gets the single false check
``BUDGET_CHECK``: it is neither confirmed nor refuted.
"""

from __future__ import annotations

from dataclasses import replace

from .annihilator import verify as verify_annihilator
from .applications import (
    AntennaProblem,
    ClusterTile,
    antenna_verify,
    cotiler_sft,
    exact_cover_on_torus,
)
from .errors import InputFormatError
from .formats import (
    _typed,
    annihilator_result_from_json,
    malformed,
    sft_spec_from_json,
    shape_from_json,
    source_from_json,
)
from .sft import EMPTY, NONEMPTY, UNKNOWN, reconfirm_empty, verify_witness

BUDGET_CHECK = "window_reconfirmed_within_budget"


def _field(cert: dict, key: str, kind: type | None = None):
    """cert[key], which must be present, and of JSON type kind if given."""
    if key not in cert:
        raise InputFormatError(f"certificate lacks {key!r}")
    with malformed(f"certificate {key}"):
        return cert[key] if kind is None else _typed(cert[key], kind)


def _annihilator(cert: dict, source, seed: int, max_nodes: int | None) -> dict[str, bool]:
    result = annihilator_result_from_json(_field(cert, "result"))
    # on a patch the claims hold only where the pattern shape fits
    result = replace(result, shape=shape_from_json(_field(cert, "shape")))
    if source is None:
        source = source_from_json(_field(cert, "source"))
    report = verify_annihilator(result, source)
    checks = {"annihilates": report.annihilation.annihilated}
    if report.constant_ok is not None:
        checks["periodizer_constant"] = report.constant_ok
        checks["periodizer_identity"] = report.identity_ok
    return checks


def _sft_decision(
    cert: dict, source, seed: int, max_nodes: int | None, tile: ClusterTile | None = None
):
    """A decision of decide-sft, or of cotiler find for the co-tiler SFT of
    tile: nonempty is checked on its witness torus (with the exact cover of
    a co-tiler), empty by re-confirming its window within max_nodes nodes;
    unknown claims nothing."""
    spec = cotiler_sft(tile) if tile is not None else sft_spec_from_json(_field(cert, "spec"))
    decision = _field(cert, "decision")
    if decision == EMPTY:
        unfillable = reconfirm_empty(spec, _field(cert, "window", int), seed, max_nodes)
        if unfillable is None:
            return {BUDGET_CHECK: False}
        return {"window_unfillable": unfillable}
    if decision == UNKNOWN:
        return {"unknown_makes_no_claim": True}
    if decision != NONEMPTY:
        raise InputFormatError(f"unknown decision {decision!r}")
    witness = _field(cert, "witness")
    if witness is None:
        return {"witness_present": False}
    witness = source_from_json(witness)
    # verify_witness rejects a witness that is not a torus, so it runs first
    patterns_allowed = verify_witness(spec, witness)
    if tile is None:
        return {"witness_patterns_allowed": patterns_allowed}
    cover = exact_cover_on_torus(tile, witness)
    return {
        "exact_cover_claim": cover == _field(cert, "exact_cover_verified", bool),
        "exact_cover": cover,
        "sft_patterns_allowed": patterns_allowed,
    }


def _cotiler(cert: dict, source, seed: int, max_nodes: int | None) -> dict[str, bool]:
    tile = ClusterTile(shape_from_json(_field(cert, "tile")))
    if "config" not in cert:  # written by `cotiler find`
        return _sft_decision(cert, source, seed, max_nodes, tile)
    # written by `cotiler verify`: one grid and whether it is an exact cover
    cover = exact_cover_on_torus(tile, source_from_json(_field(cert, "config")))
    return {"exact_cover_claim": cover == _field(cert, "exact_cover_verified", bool)}


def _antenna(cert: dict, source, seed: int, max_nodes: int | None) -> dict[str, bool]:
    shape = shape_from_json(_field(cert, "shape"))
    with malformed("antenna a/b"):
        problem = AntennaProblem(shape, _field(cert, "a", int), _field(cert, "b", int))
    config = source_from_json(_field(cert, "config"))
    return {"antenna_condition": antenna_verify(config, problem) == _field(cert, "valid", bool)}


CHECKERS = {
    "annihilator": _annihilator,
    "sft_decision": _sft_decision,
    "cotiler": _cotiler,
    "antenna": _antenna,
}


def check(cert, source=None, seed: int = 0, max_nodes: int | None = None) -> dict[str, bool]:
    """Named checks of one certificate. ``source`` replaces an annihilator
    certificate's own grid. An emptiness claim is re-confirmed by arc
    consistency (``reconfirm_empty``): ``seed`` permutes the values tried at
    its branches and never its verdict; ``max_nodes`` bounds its revisions
    and values tried (unbounded if None)."""
    if not isinstance(cert, dict):
        raise InputFormatError("certificate must be a JSON object")
    kind = _field(cert, "certificate", str)
    if kind not in CHECKERS:
        raise InputFormatError(f"unknown certificate kind {kind!r}")
    return CHECKERS[kind](cert, source, seed, max_nodes)
