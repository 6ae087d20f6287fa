"""Span tracing of the package's layers, installed from outside the package.

``Tracer.install`` wraps every public function of each layer module, at
every name a module (the package, another layer, or the benchmark's own
workloads) bound it under, plus ``LaurentPoly.__mul__``. Each call records
a span (name, start, end, parent span, item id) in memory; ``write`` puts
them in a file once the run is over. Self time of a span is its duration
minus the time covered by its child spans, so the self times of all spans
never add up to more than the wall time they ran in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

LAYERS = (
    "algebra",
    "configuration",
    "annihilator",
    "linestructure",
    "sft",
    "applications",
    "formats",
    "cli",
)


def _cells(source) -> int:
    if hasattr(source, "k"):
        return source.k * source.l
    return source.width * source.height


def _extent(f, var: int) -> int:
    exps = [e[var - 1] for e in f.terms]
    return max(exps) - min(exps)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one entry per span, in the order spans end
        self.span_id = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.next_id = 0
        self.item = -1
        self.stack: list[list] = [[-1, 0.0]]  # [span id, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._item_span = self.wrap("bench.item", lambda fn, arg: fn(arg))

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``. ``before(args)``
        and ``after(args, result)`` update counters inside the span."""
        nid = len(self.names)
        self.names.append(name)
        stack = self.stack
        active = self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                duration = end - start
                parent[1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                self.span_id.append(sid)
                self.span_name.append(nid)
                self.span_start.append(start)
                self.span_end.append(end)
                self.span_parent.append(parent[0])
                self.span_item.append(self.item)

        return traced

    def run_item(self, item_id: int, fn, arg):
        """Run one benchmark item inside a root span ``bench.item``."""
        self.item = item_id
        return self._item_span(fn, arg)

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def _hooks(self) -> dict:
        count = self._count
        active = self.active

        def mul_after(args, result):
            count("algebra.mul.terms_out", len(result.terms))

        def resultant_before(args):
            f, g, var = args
            count("algebra.univariate_resultant.sylvester_dim", _extent(f, var) + _extent(g, var))

        def content_before(args):
            if active["linestructure.line_factor_decomposition"]:
                count("linestructure.directions_tried")

        def annihilated_before(args):
            if active["annihilator.find_binomial_product_annihilator"]:
                count("annihilator.binomial.checks")

        def annihilated_after(args, result):
            count("configuration.is_annihilated.yes", result.kind != "no")

        def apply_before(args):
            f, source = args
            count("configuration.cell_terms", _cells(source) * len(f.terms))

        def decomposition_after(args, result):
            count("linestructure.factors_found", len(result.factors))

        def elimination_after(args, result):
            count("linestructure.eliminants", len(result.entries))
            count("linestructure.eliminants_nonzero", sum(e.nonzero for e in result.entries))

        def decide_after(args, result):
            spent = result.budget_spent
            count("sft.nodes", spent.nodes)
            count("sft.windows_tried", len(spent.windows_tried))
            count("sft.tori_tried", len(spent.tori_tried))

        return {
            "algebra.univariate_resultant": (resultant_before, None),
            "algebra.direction_content": (content_before, None),
            "configuration.is_annihilated": (annihilated_before, annihilated_after),
            "configuration.apply_poly": (apply_before, None),
            "linestructure.line_factor_decomposition": (None, decomposition_after),
            "linestructure.eliminate_and_classify_fp": (None, elimination_after),
            "sft.decide": (None, decide_after),
            "algebra.mul": (None, mul_after),
        }

    def install(self, *importers) -> None:
        """Wrap the layers' public functions and rebind every reference to
        them in the package, its layer modules and ``importers``."""
        import gridalgebra
        from gridalgebra.algebra import LaurentPoly

        hooks = self._hooks()
        modules = [importlib.import_module(f"gridalgebra.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                span = f"{layer}.{name}"
                wrapped[obj] = self.wrap(span, obj, *hooks.get(span, (None, None)))
        for module in [gridalgebra, *modules, *importers]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])
        LaurentPoly.__mul__ = self.wrap("algebra.mul", LaurentPoly.__mul__, *hooks["algebra.mul"])

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += seconds
        return out

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, ordered by span id."""
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        t0 = min(self.span_start) if order else 0.0
        with open(path, "w") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\titem\n")
            for i in order:
                out.write(
                    f"{self.span_id[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\t"
                    f"{self.span_parent[i]}\t{self.span_item[i]}\n"
                )
