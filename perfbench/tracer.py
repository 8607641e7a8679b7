"""Spans and counters around the public functions of the taubench modules.

The tracer rebinds module attributes from outside the package: every
function named in LAYERS is replaced, in its own module and in every loaded
taubench module that imported it by name, by a wrapper that records a span
(layer, start, end, parent index).  Hot methods in COUNTED_METHODS are only
counted, because a span per call would swamp the run.  Spans stay in memory
until the traced process writes them out.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import sys
import time

from reference import odd_double_factorial

# module -> {public function: layer}
LAYERS = {
    "taubench.cli": {"run": "cli.run"},
    "taubench.suite": {"run_suite": "suite.run"},
    "taubench.ribbon": {
        "enumerate_trivalent": "ribbon.enumerate",
        "kontsevich_sum": "ribbon.graph_sum",
        "extract_intersection_numbers": "ribbon.extract",
        "base_table": "ribbon.extract",
    },
    "taubench.exact": {"solve_linear_exact": "exact.solve"},
    "taubench.kdv": {
        "assemble_free_energy": "kdv.assemble",
        "kdv_residual": "kdv.residual",
        "string_residual": "kdv.residual",
        "mutation_report": "kdv.mutation",
    },
    "taubench.fock": {
        "oscillator_commutator_check": "fock.closure",
        "target_commutator_report": "fock.target",
    },
    "taubench.schur": {
        "schur_lambda": "schur.kp",
        "kp_checks": "schur.kp",
        "kp_hirota_residual": "schur.kp",
        "kp_pde_residual": "schur.kp",
    },
    "taubench.wick": {
        "wick_moment": "wick.moment",
        "genus_expansion": "wick.moment",
        "kontsevich_match": "wick.match",
        "gaussian_normalization_check": "wick.numeric",
        "hciz_check": "wick.numeric",
    },
    "taubench.torsion": {
        "is_acyclic": "torsion.check",
        "torsion": "torsion.check",
        "torsion_order_check": "torsion.check",
        "ses_multiplicativity_check": "torsion.check",
        "random_acyclic_complex": "torsion.check",
        "direct_sum": "torsion.check",
        "standard_sum_maps": "torsion.check",
    },
}

# (module, class, method) -> counter, counted without spans
COUNTED_METHODS = {
    ("taubench.exact", "TruncatedSeries", "__init__"): "exact.series_new",
    ("taubench.exact", "TruncatedSeries", "__mul__"): "exact.series_mul",
    ("taubench.exact", "TruncatedSeries", "__rmul__"): "exact.series_mul",
}


def _wick_matchings(args, result):
    """Perfect matchings walked by wick_moment(spec, word)."""
    degree = args[1].degree
    return odd_double_factorial(degree - 1) if degree % 2 == 0 else 0


# function -> [(counter, amount(args, result))]; calls are counted as 1 each
TALLIES = {
    ("taubench.ribbon", "enumerate_trivalent"): [
        ("ribbon.enumerate_calls", None),
        ("ribbon.classes", lambda args, result: len(result)),
    ],
    ("taubench.ribbon", "kontsevich_sum"): [("ribbon.graph_sum_calls", None)],
    ("taubench.ribbon", "_sample_points"): [
        ("ribbon.sample_points", lambda args, result: len(result))
    ],
    ("taubench.kdv", "mutation_report"): [
        ("kdv.mutation_entries", lambda args, result: len(result))
    ],
    ("taubench.fock", "oscillator_commutator_check"): [
        ("fock.closure_checks", None),
        ("fock.window_monomials", lambda args, result: result["window_size"]),
    ],
    ("taubench.schur", "kp_checks"): [("schur.partitions_checked", None)],
    ("taubench.wick", "wick_moment"): [("wick.matchings", _wick_matchings)],
    ("taubench.torsion", "random_acyclic_complex"): [("torsion.complexes", None)],
}


class Tracer:
    """Records spans and counts for one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        # id(original) -> wrapper; each wrapper holds its original, so ids stay unique
        self._wrapped: dict[int, object] = {}
        self._patched_modules: set[str] = set()
        # names of modules whose code has finished running; None: all loaded
        self._finished: set[str] | None = None

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    # -- wrappers ---------------------------------------------------------

    def _tally(self, tallies, args, result):
        for counter, amount in tallies:
            add = 1 if amount is None else amount(args, result)
            self.counts[counter] = self.counts.get(counter, 0) + add

    def _spanned(self, fn, layer, tallies):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tallies:
                self._tally(tallies, args, result)
            return result

        return wrapper

    def _counted(self, fn, tallies):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._tally(tallies, args, result)
            return result

        return wrapper

    def _method_counter(self, fn, counter):
        @functools.wraps(fn)
        def method(*args, **kwargs):
            counts = self.counts
            counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return method

    # -- installation ---------------------------------------------------

    def _patch_module(self, module) -> None:
        name = module.__name__
        for attr, layer in LAYERS.get(name, {}).items():
            fn = getattr(module, attr)
            self._wrapped[id(fn)] = self._spanned(fn, layer, TALLIES.get((name, attr)))
        for (mod, attr), tallies in TALLIES.items():
            if mod == name and attr not in LAYERS.get(name, {}):
                fn = getattr(module, attr)
                self._wrapped[id(fn)] = self._counted(fn, tallies)
        for (mod, cls_name, method), counter in COUNTED_METHODS.items():
            if mod == name:
                cls = getattr(module, cls_name)
                setattr(cls, method, self._method_counter(cls.__dict__[method], counter))

    def patch_loaded(self) -> None:
        """Wrap every loaded taubench module not wrapped yet, then rebind
        every module attribute that still names an original function."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "taubench" or n.startswith("taubench."))
            and (self._finished is None or n in self._finished)
        ]
        for module in modules:
            if module.__name__ not in self._patched_modules:
                self._patched_modules.add(module.__name__)
                self._patch_module(module)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None and wrapper is not value:
                    setattr(module, attr, wrapper)

    def install_import_hook(self) -> None:
        """Patch each taubench module as soon as it has been executed, so that
        modules imported later bind the wrappers by name."""
        tracer = self
        self._finished = set()

        class _Finder:
            @staticmethod
            def find_spec(name, path=None, target=None):
                if not name.startswith("taubench"):
                    return None
                spec = importlib.machinery.PathFinder.find_spec(name, path)
                if spec is None or spec.loader is None:
                    return spec
                execute = spec.loader.exec_module

                def exec_module(module):
                    execute(module)
                    tracer._finished.add(module.__name__)
                    tracer.patch_loaded()

                spec.loader.exec_module = exec_module
                return spec

        sys.meta_path.insert(0, _Finder)

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, handle)


def self_times(spans) -> dict[str, float]:
    """Per layer: span durations minus the time their child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (layer, start, end, _), inner in zip(spans, covered):
        out[layer] = out.get(layer, 0.0) + (end - start) - inner
    return out
