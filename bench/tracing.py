"""Spans around the public functions of each bosonbell module.

Tracing works by rebinding: every public function of a layer module is
replaced by a wrapper at each place it is looked up, which covers names
imported into other modules (``series_eval.bell_number`` beside
``stirling_bell.bell_number``) and calls inside the defining module.
Hot leaf helpers are left alone, so the wrapper cost stays small.

Spans are kept in memory as flat arrays and written out once, at the
end of a run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("cli", "stirling_bell", "boson_oracle", "series_eval", "exact_core", "fock_numeric")

# Leaf helpers called per term or per entry; a span on each would cost
# more than the work it measures.
_UNTRACED = {"binomial", "falling_factorial", "rising_factorial",
             "generalized_binomial", "mpf_to_fraction"}

# Methods traced under a span name of their own: (class, attribute, name).
_METHODS = (
    ("PowerSeries", "__mul__", "series_mul"),
    ("PowerSeries", "__rmul__", "series_mul"),
    ("BigFloat", "from_fraction", "bigfloat_round"),
)

# series_eval functions reported together under one name.
SERIES_GROUPS = {
    "dobinski": ("dobinski_bell", "dobinski_gamma_form", "dobinski_polynomial"),
    "hypergeometric": ("hypergeometric", "kummer_bell_value", "kummer_bell_check",
                       "family_bell_check", "bell_r1_hypergeometric_check"),
    "hgf_check": ("hgf_check",),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.names: list = []
        self._name_ids: dict = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counters: dict = {}
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        on_result = _RESULT_HOOKS.get(name)
        stack, name_of, parent = self._stack, self.name_of, self.parent
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced callable wherever a layer module holds it."""
        wrappers = {}
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in _UNTRACED):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        holders = list(self.modules.values()) + [self.package]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in wrappers:
                    self._rebind(holder, attr, wrappers[id(obj)])
        exact_core = self.modules["exact_core"]
        for cls_name, attr, name in _METHODS:
            cls = getattr(exact_core, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, f"exact_core.{name}"))
            else:
                new = self._wrap(raw, f"exact_core.{name}")
            self._rebind(cls, attr, new)

    def _rebind(self, holder, attr, new) -> None:
        self._restore.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        for holder, attr, old in reversed(self._restore):
            setattr(holder, attr, old)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def summary(self, ops: int):
        """(per-layer metrics divided by ``ops``, share of self time per layer).

        A layer's self time is the sum over its spans of duration minus
        child spans.  A function's time is the time under its outermost
        spans spent in its own layer: self time plus that of same-layer
        descendants reached without leaving the layer.
        """
        n = len(self.start)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        report_as = list(self.names)
        for nid, name in enumerate(self.names):
            for group, members in SERIES_GROUPS.items():
                if name.split(".", 1)[1] in members and layer_of[nid] == "series_eval":
                    report_as[nid] = f"series_eval.{group}"
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_time = list(dur)
        for i in range(n):
            if self.parent[i] >= 0:
                self_time[self.parent[i]] -= dur[i]
        # parents precede children, so one reverse pass folds each subtree
        in_layer = list(self_time)
        for i in range(n - 1, -1, -1):
            p = self.parent[i]
            if p >= 0 and layer_of[self.name_of[p]] == layer_of[self.name_of[i]]:
                in_layer[p] += in_layer[i]

        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_entries = dict.fromkeys(LAYERS, 0)
        calls: dict = {}
        time: dict = {}
        for i in range(n):
            nid = self.name_of[i]
            layer, name = layer_of[nid], report_as[nid]
            layer_self[layer] += self_time[i]
            p = self.parent[i]
            if p < 0 or layer_of[self.name_of[p]] != layer:
                layer_entries[layer] += 1
            calls[name] = calls.get(name, 0) + 1
            while p >= 0 and report_as[self.name_of[p]] != name:
                p = self.parent[p]
            if p < 0:
                time[name] = time.get(name, 0.0) + in_layer[i]

        c = self.counters
        expectations = calls.get("fock_numeric.expectation_power", 0)
        totals = {
            "cli.self_s": layer_self["cli"],
            "cli.calls": layer_entries["cli"],
            "cli.checks_reported": c.get("cli.checks_reported", 0),
            "stirling_bell.self_s": layer_self["stirling_bell"],
            "stirling_bell.triangle.calls": calls.get("stirling_bell.triangle", 0),
            "stirling_bell.triangle.self_s": time.get("stirling_bell.triangle", 0.0),
            "stirling_bell.triangle.entries_out": c.get("stirling_bell.triangle.entries_out", 0),
            "stirling_bell.stirling.calls": calls.get("stirling_bell.stirling", 0),
            "stirling_bell.stirling.self_s": time.get("stirling_bell.stirling", 0.0),
            "stirling_bell.bell_polynomial.self_s": time.get("stirling_bell.bell_polynomial", 0.0),
            "boson_oracle.self_s": layer_self["boson_oracle"],
            "boson_oracle.normalize.calls": calls.get("boson_oracle.normalize", 0),
            "boson_oracle.normalize.self_s": time.get("boson_oracle.normalize", 0.0),
            "boson_oracle.antinormalize.calls": calls.get("boson_oracle.antinormalize", 0),
            "boson_oracle.antinormalize.self_s": time.get("boson_oracle.antinormalize", 0.0),
            "boson_oracle.letters_in": c.get("boson_oracle.letters_in", 0),
            "boson_oracle.terms_out": c.get("boson_oracle.terms_out", 0),
            "series_eval.self_s": layer_self["series_eval"],
            "series_eval.calls": layer_entries["series_eval"],
            "series_eval.terms_used": c.get("series_eval.terms_used", 0),
            "series_eval.dobinski.self_s": time.get("series_eval.dobinski", 0.0),
            "series_eval.hypergeometric.self_s": time.get("series_eval.hypergeometric", 0.0),
            "series_eval.hgf_check.self_s": time.get("series_eval.hgf_check", 0.0),
            "exact_core.self_s": layer_self["exact_core"],
            "exact_core.series_mul.calls": calls.get("exact_core.series_mul", 0),
            "exact_core.series_mul.self_s": time.get("exact_core.series_mul", 0.0),
            "exact_core.series_exp.self_s": time.get("exact_core.series_exp", 0.0),
            "exact_core.bigfloat_round.calls": calls.get("exact_core.bigfloat_round", 0),
            "fock_numeric.self_s": layer_self["fock_numeric"],
            "fock_numeric.expectation_power.calls": expectations,
            "fock_numeric.apply_operator.calls": calls.get("fock_numeric.apply_operator", 0),
            "fock_numeric.apply_operator.self_s": time.get("fock_numeric.apply_operator", 0.0),
            "fock_numeric.apply_operator.dim_sum": c.get("fock_numeric.apply_operator.dim_sum", 0),
            "fock_numeric.build_ops.calls": calls.get("fock_numeric.build_ops", 0),
            "fock_numeric.build_ops.self_s": time.get("fock_numeric.build_ops", 0.0),
        }
        metrics = {name: value / ops for name, value in totals.items()}
        metrics["fock_numeric.build_ops_per_expectation"] = (
            calls.get("fock_numeric.build_ops", 0) / expectations if expectations else 0.0)
        whole = sum(layer_self.values()) or 1.0
        shares = {layer: t / whole for layer, t in layer_self.items()}
        return metrics, shares

    def write(self, path, header: dict) -> None:
        """Write every span as [name, parent, start, end] to a gzip'd JSON file."""
        t0 = self.start[0] if len(self.start) else 0.0
        payload = {
            **header,
            "names": self.names,
            "counters": self.counters,
            "spans": [[self.name_of[i], self.parent[i],
                       round(self.start[i] - t0, 7), round(self.end[i] - t0, 7)]
                      for i in range(len(self.start))],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


# Counters read off arguments and results at the span boundary.

def _count_triangle(tracer, args, result):
    tracer.count("stirling_bell.triangle.entries_out",
                 sum(len(row) for row in result.rows.values()))


def _count_rewrite(tracer, args, result):
    tracer.count("boson_oracle.letters_in", len(args[0]))
    tracer.count("boson_oracle.terms_out", len(result.terms))


def _count_series_terms(tracer, args, result):
    terms = getattr(result, "terms_used", None)
    if terms is None:
        terms = getattr(getattr(result, "lhs", None), "terms_used", None)
    if terms is not None:
        tracer.count("series_eval.terms_used", terms)


def _count_apply(tracer, args, result):
    tracer.count("fock_numeric.apply_operator.dim_sum", args[0].dim)


_RESULT_HOOKS = {
    "stirling_bell.triangle": _count_triangle,
    "boson_oracle.normalize": _count_rewrite,
    "boson_oracle.antinormalize": _count_rewrite,
    "fock_numeric.apply_operator": _count_apply,
    **{f"series_eval.{fn}": _count_series_terms
       for fn in ("dobinski_bell", "dobinski_gamma_form", "dobinski_polynomial",
                  "hypergeometric", "kummer_bell_value", "hgf_check")},
}
