"""Per-layer tracing of cantordyn from outside the package.

`install` replaces every public function and public method of the
package's modules with a timing wrapper, in every namespace that holds it:
the defining module, modules that bound it with `from ... import`, the
package's re-exports, and operator aliases such as `ClopenSet.__or__`,
which is the same function object as `union`.  Each wrapped function
belongs to one layer group; a group's self time is the time its spans
cover minus the time their child spans cover, so the self times of all
groups plus the root spans opened with `Tracer.span` add up to the root
spans' wall time.

Spans are aggregated in memory per group (calls and self time) rather than
kept one by one: a uniform six-stage build opens about 300k of them.
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter_ns

MODULES = ("clopen", "measure", "oracles", "tower", "builder", "verify", "cli")

# Public functions measured as their own layer; every other public function
# of a module falls into "<module>.other".  Keys are "<module>.<qualname>".
GROUPS = {
    "clopen.ClopenSet.is_subset": "clopen.is_subset",
    "clopen.ClopenSet.union": "clopen.setops",
    "clopen.ClopenSet.intersect": "clopen.setops",
    "clopen.ClopenSet.minus": "clopen.setops",
    "clopen.ClopenSet.complement": "clopen.setops",
    "clopen.union_all": "clopen.setops",
    "measure.TreeMeasure.cyl": "measure.cyl",
    "measure.MeasureFamily.vec": "measure.vec",
    "measure.MeasureFamily.vec_word": "measure.vec",
    "oracles.select_copy": "oracles.select_copy",
    "oracles.subset_in_box": "oracles.subset_in_box",
    "oracles.approx_divide": "oracles.approx_divide",
    "tower.balance_columns": "tower.balance_columns",
    "tower.refine_small_base_top": "tower.refine_small_base_top",
    "tower.from_columns": "tower.from_columns",
    "tower.run_decomposition": "tower.run_decomposition",
    "tower.locate_atom": "tower.locate_atom",
    "builder.build_saturated": "builder.build_saturated",
    "builder.validate_sequence": "builder.validate_sequence",
    "builder.serialize_sequence": "builder.serialize_sequence",
    "builder.load_sequence": "builder.load_sequence",
    "verify.invariant_cone": "verify.invariant_cone",
    "verify.collapse_metric": "verify.collapse_metric",
    "verify.minimality_check": "verify.minimality_check",
    "verify.saturation_witness": "verify.saturation_witness",
    "verify.apply_witness": "verify.apply_witness",
    "verify.first_return_divide": "verify.first_return_divide",
}

# Public functions left unwrapped, so their time counts as their caller's
# self time.  TreeMeasure.weight is a dictionary lookup called about ten
# times per TreeMeasure.cyl; a wrapper would cost more than the call.
# cli.main is timed by the root span the caller opens (cli.build, ...).
UNWRAPPED = {"measure.TreeMeasure.weight", "cli.main"}

# Root spans opened by the benchmark around its calls into the package.
ROOTS = ("cli.build", "cli.verify", "bench.queries")

LAYERS = sorted(set(GROUPS.values()) | {"%s.other" % m for m in MODULES if m != "cli"}) + list(ROOTS)

COUNTS = (
    "oracles.depths_tried",
    "oracles.refusals",
    "oracles.solutions",
)

REFUSALS = ("GoodnessFailure", "DivisibilityFailure")


class Tracer:
    """Aggregated spans: calls and self time per layer group, plus counts."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.fn_calls = {}  # original function -> calls through its wrapper
        self.in_box = 0  # open oracles.subset_in_box spans
        self._stack = []  # child time of each open span
        self._undo = []

    def _enter(self):
        self._stack.append(0)
        return perf_counter_ns()

    def _exit(self, group, t0):
        d = perf_counter_ns() - t0
        stack = self._stack
        self.self_ns[group] += d - stack.pop()
        if stack:
            stack[-1] += d
        self.calls[group] += 1

    @contextmanager
    def span(self, group):
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(group, t0)

    def wrap(self, fn, group):
        fn_calls = self.fn_calls
        fn_calls[fn] = 0
        enter, exit_ = self._enter, self._exit
        name = fn.__name__

        def traced(*args, **kwargs):
            fn_calls[fn] += 1
            t0 = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(group, t0)

        if name == "refine_to_depth":
            def wrapper(*args, **kwargs):
                if self.in_box:
                    self.counts["oracles.depths_tried"] += 1
                return traced(*args, **kwargs)
        elif name == "subset_in_box":
            def wrapper(*args, **kwargs):
                before = self.counts["oracles.depths_tried"]
                self.in_box += 1
                try:
                    out = traced(*args, **kwargs)
                finally:
                    self.in_box -= 1
                if out is not None and self.counts["oracles.depths_tried"] > before:
                    self.counts["oracles.solutions"] += 1
                return out
        elif name in ("select_copy", "approx_divide"):
            def wrapper(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                except Exception as exc:
                    if type(exc).__name__ in REFUSALS:
                        self.counts["oracles.refusals"] += 1
                    raise
        else:
            wrapper = traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    def install(self):
        """Wrap the package's public functions everywhere they are bound."""
        mods = {m: importlib.import_module("cantordyn." + m) for m in MODULES}
        wrappers = {}
        for m, mod in mods.items():
            for fn, qualname in _public_functions(mod):
                key = "%s.%s" % (m, qualname)
                if key in UNWRAPPED or fn in wrappers:
                    continue
                wrappers[fn] = self.wrap(fn, GROUPS.get(key, "%s.other" % m))
        for mod in [importlib.import_module("cantordyn"), *mods.values()]:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, name, value, wrappers[value])
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for attr, member in list(vars(value).items()):
                        if isinstance(member, classmethod) and member.__func__ in wrappers:
                            self._set(value, attr, member, classmethod(wrappers[member.__func__]))
                        elif inspect.isfunction(member) and member in wrappers:
                            self._set(value, attr, member, wrappers[member])
        return self

    def _set(self, owner, name, old, new):
        self._undo.append((owner, name, old))
        setattr(owner, name, new)

    def uninstall(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def metrics(self):
        """Calls and self time of every layer group, and the counts."""
        out = {}
        for g in LAYERS:
            out[g + ".calls"] = self.calls[g]
            out[g + ".self_s"] = self.self_ns[g] / 1e9
        out.update(self.counts)
        return out


def _public_functions(mod):
    """(function, qualname) for public, non-generator functions and methods."""
    for name, value in vars(mod).items():
        if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(value):
            if not inspect.isgeneratorfunction(value):
                yield value, name
        elif inspect.isclass(value):
            # operator aliases such as __or__ = union are the public function
            for member in vars(value).values():
                if isinstance(member, classmethod):
                    member = member.__func__
                if (
                    inspect.isfunction(member)
                    and not member.__name__.startswith("_")
                    and not inspect.isgeneratorfunction(member)
                ):
                    yield member, "%s.%s" % (name, member.__name__)
