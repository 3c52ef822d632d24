"""Per-layer counts and self time for a traced benchmark run.

``Tracer.install`` wraps every public function of the kernel modules, and
the few private helpers the per-layer metrics name, at every module
binding: ``from .x import f`` copies the name into the importing module,
so each copy is replaced by the same wrapper.  A wrapper counts the call
and keeps a span stack, so a function's self time is its span minus the
time spent in wrapped calls below it.  Spans are aggregated in memory per
function and read out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("ordinal", "expr", "analysis", "semantics", "coherence", "jfunctor", "psi", "cli")
# private helpers that the per-layer metrics name
PRIVATE = {"expr": ("_split_trailing",), "semantics": ("_grid_values",)}
METHODS = (
    ("jfunctor", "_Session", "eval"),
    ("psi", "PsiOrder", "random_term"),
    ("psi", "PsiOrder", "valid"),
    ("psi", "PsiOrder", "compare"),
    ("psi", "PsiOrder", "enum"),
)
# calls counted by the function that made them
PARENT_EDGES = {("semantics.apply_embedding", "analysis.important_index")}


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self.edges: dict = {}
        self.results: dict = {}
        self._stack: list = []

    def wrap(self, name: str, fn, on_result=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        edges = self.edges
        parents = {p for c, p in PARENT_EDGES if c == name}
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if parents and stack and stack[-1][0] in parents:
                edge = (name, stack[-1][0])
                edges[edge] = edges.get(edge, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                self_s[name] = self_s.get(name, 0.0) + spent - frame[1]
                if stack:
                    stack[-1][1] += spent
            if on_result is not None:
                on_result(result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _tally(self, name):
        results = self.results

        def record(value):
            results[(name, value)] = results.get((name, value), 0) + 1

        return record

    def install(self):
        """Wrap the kernel in place; call before the traced phase."""
        mods = {layer: importlib.import_module(f"dilcalc.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                on_result = None
                if attr == "detect_limit_pattern":
                    tally = self._tally("limit_pattern")
                    on_result = lambda p, tally=tally: tally(type(p.kind).__name__)
                wrapped[obj] = self.wrap(f"{layer}.{attr.lstrip('_')}", obj, on_result)
        for name, mod in list(sys.modules.items()):
            if name == "dilcalc" or name.startswith("dilcalc."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, attr, wrapped[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            on_result = None
            if meth == "random_term":
                tally = self._tally("random_term")
                on_result = lambda t, tally=tally: tally(t is None)
            elif meth == "valid":
                tally = self._tally("valid")
                on_result = lambda ok, tally=tally: tally(bool(ok))
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth), on_result))
        expr = mods["expr"]
        for cls in expr.Dil.__subclasses__():
            if "__hash__" in vars(cls) and vars(cls)["__hash__"] is not None:
                cls.__hash__ = self.wrap("expr.hash", vars(cls)["__hash__"])

    # -- read-out

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def layer_calls(self, layer: str, exclude=()) -> int:
        return sum(v for k, v in self.calls.items()
                   if k.startswith(layer + ".") and k not in exclude)

    def tally(self, name: str, value) -> int:
        return self.results.get((name, value), 0)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """The per-layer metrics of one traced phase, by BENCHMARK.json name."""
    c, s = tr.calls, tr.self_s
    patterns = {"constant": "ConstantIncrement", "affine": "AffineStep",
                "escalation": "TermEscalation", "unsupported": "Unsupported"}
    random_terms = c.get("psi.PsiOrder.random_term", 0)
    valid_calls = c.get("psi.PsiOrder.valid", 0)
    ii_calls = c.get("analysis.important_index", 0)
    out = {
        "ordinal.ord_cmp.calls": c.get("ordinal.ord_cmp", 0),
        "ordinal.ord_add.calls": c.get("ordinal.ord_add", 0),
        "ordinal.self_s": tr.layer_self_s("ordinal"),
    }
    for short, kind in patterns.items():
        out[f"ordinal.limit_pattern.{short}"] = tr.tally("limit_pattern", kind)
    out.update({
        "expr.mk_sum.calls": c.get("expr.mk_sum", 0),
        "expr.split_trailing.calls": c.get("expr.split_trailing", 0),
        "expr.hash.calls": c.get("expr.hash", 0),
        "expr.self_s": tr.layer_self_s("expr"),
        "analysis.decompose.calls": c.get("analysis.decompose", 0),
        "analysis.classify.calls": c.get("analysis.classify", 0),
        "analysis.otp_symbolic.calls": c.get("analysis.otp_symbolic", 0),
        "analysis.otp_symbolic.self_s": s.get("analysis.otp_symbolic", 0.0),
        "analysis.otp_cache.entries": len(getattr(sys.modules["dilcalc.analysis"], "_OTP_CACHE", ())),
        "analysis.important_index.self_s": s.get("analysis.important_index", 0.0),
        "analysis.important_index.embeddings_per_call": ratio(
            tr.edges.get(("semantics.apply_embedding", "analysis.important_index"), 0), ii_calls),
        "semantics.apply_embedding.calls": c.get("semantics.apply_embedding", 0),
        "semantics.compare_elements.calls": c.get("semantics.compare_elements", 0),
        "semantics.grid_values.calls": c.get("semantics.grid_values", 0),
        "semantics.validate_element.calls": c.get("semantics.validate_element", 0),
        "semantics.enum_elements.self_s": s.get("semantics.enum_elements", 0.0),
        "coherence.translate.calls": tr.layer_calls("coherence", exclude={"coherence.frozen_value"}),
        "coherence.self_s": tr.layer_self_s("coherence"),
        "jfunctor.eval.calls": c.get("jfunctor._Session.eval", 0),
        "jfunctor.self_s": tr.layer_self_s("jfunctor"),
        "psi.psi_clause_otp.calls": c.get("psi.psi_clause_otp", 0),
        "psi.psi_clause_otp.self_s": s.get("psi.psi_clause_otp", 0.0),
        "psi.psi_cache.entries": len(getattr(sys.modules["dilcalc.psi"], "_PSI_CACHE", ())),
        "psi.random_term.calls": random_terms,
        "psi.random_term.none_ratio": ratio(tr.tally("random_term", True), random_terms),
        "psi.valid.accept_ratio": ratio(tr.tally("valid", True), valid_calls),
        "psi.compare.calls": c.get("psi.PsiOrder.compare", 0),
        "psi.enum.self_s": s.get("psi.PsiOrder.enum", 0.0) + s.get("psi.psi_enum", 0.0),
    })
    return out
