"""Span tracer that measures khecke's layers from outside the package.

``Tracer.install()`` wraps every public function of every ``khecke`` module,
the public methods of the classes those modules define, and
``LaurentPoly.__mul__``.  Each wrapped call records one span (name, start,
end, parent) in flat arrays kept in memory; ``summary()`` turns them into
per-name call counts and self times once the traced operation has ended.
Self time is a span's duration minus the durations of the spans nested
directly inside it, so recursive calls (``kappa_product``, ``psi_right``,
``reflection_for_root``) are counted once each and their time only once.

The wrapper passes arguments and results through unchanged.  A name is
replaced in every module namespace that holds the original object, because
modules bind imported functions (``t_mul``, ``make_partition``, ...) at
import time.
"""

from __future__ import annotations

import sys
import time
from array import array

MODULES = ("cartan", "weyl", "hecke", "localization", "symfunc", "grothendieck",
           "peterson", "goldens", "cache", "render", "cli")

# Reported per-function metrics: short name -> span name (module.qualname).
FUNCTIONS = {
    "weyl.multiply": "weyl.multiply",
    "weyl.from_word": "weyl.from_word",
    "weyl.reflection_for_root": "weyl.reflection_for_root",
    "weyl.all_elements": "weyl.all_elements",
    "cartan.root_coords": "cartan.RootDatum.root_coords",
    "cartan.laurent_mul": "cartan.LaurentPoly.__mul__",
    "cartan.demazure": "cartan.demazure",
    "cartan.divisible_by_one_minus_e": "cartan.divisible_by_one_minus_e",
    "hecke.t_mul": "hecke.t_mul",
    "hecke.coproduct": "hecke.coproduct",
    "localization.psi_right": "localization.PsiEngine.psi_right",
    "localization.gkm_check_big": "localization.gkm_check_big",
    "symfunc.make_partition": "symfunc.make_partition",
    "symfunc.convert": "symfunc.convert",
    "symfunc.coproduct_h": "symfunc.coproduct_h",
    "grothendieck.kappa_product": "grothendieck.GrothendieckEngine.kappa_product",
    "grothendieck.g_of": "grothendieck.GrothendieckEngine.g_of",
    "grothendieck.G_of": "grothendieck.GrothendieckEngine.G_of",
    "grothendieck.G_in_G_basis": "grothendieck.GrothendieckEngine.G_in_G_basis",
    "grothendieck.g_coproduct": "grothendieck.GrothendieckEngine.g_coproduct",
    "grothendieck.m_to_F": "grothendieck.GrothendieckEngine.m_to_F",
    "peterson.structure_d": "peterson.structure_d",
    "peterson.fomin_stanley_elt": "peterson.fomin_stanley_elt",
    "peterson.expand_in_fs_basis": "peterson.expand_in_fs_basis",
    "goldens.diff_table": "goldens.diff_table",
    "cache.load": "cache.ResultCache.load",
    "cache.store": "cache.ResultCache.store",
    "cli.main": "cli.main",
}

# Functions whose distinct arguments are counted.  make_partition accepts any
# iterable (a generator would be consumed), so its key is the partition it
# returns; the others are keyed by their positional arguments.
DISTINCT_BY_RESULT = ("symfunc.make_partition",)
DISTINCT_BY_ARGS = ("weyl.multiply", "weyl.reflection_for_root",
                    "cartan.root_coords", "localization.psi_right",
                    "grothendieck.kappa_product")

DUNDERS = ("cartan.LaurentPoly.__mul__",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.distinct: dict[str, set] = {}
        self.loads = 0
        self.hits = 0
        self.missing: list[str] = []

    @classmethod
    def install(cls) -> "Tracer":
        """Import every khecke module and wrap its functions and methods."""
        import khecke.cli  # noqa: F401  (imports every khecke module)
        tracer = cls()
        mods = {m: sys.modules[f"khecke.{m}"] for m in MODULES}
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        tracer._wrap_class(short, obj)
                elif callable(obj):
                    replaced[id(obj)] = tracer._wrap(f"{short}.{attr}", obj)
        # rebind every name that holds a wrapped original, wherever imported
        for mod in [sys.modules["khecke"], *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        known = set(tracer.names)
        tracer.missing = sorted(k for k, v in FUNCTIONS.items() if v not in known)
        return tracer

    def _wrap_class(self, short, klass):
        for attr, raw in list(vars(klass).items()):
            name = f"{short}.{klass.__name__}.{attr}"
            if attr.startswith("_") and name not in DUNDERS:
                continue
            if isinstance(raw, staticmethod):
                setattr(klass, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(klass, attr, classmethod(self._wrap(name, raw.__func__)))
            elif callable(raw) and not isinstance(raw, type):
                setattr(klass, attr, self._wrap(name, raw))

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        short = next((k for k, v in FUNCTIONS.items() if v == name), None)
        observe = None
        if short in DISTINCT_BY_RESULT:
            seen = self.distinct.setdefault(short, set())
            observe = lambda args, result: seen.add(result)  # noqa: E731
        elif short in DISTINCT_BY_ARGS:
            seen = self.distinct.setdefault(short, set())
            observe = lambda args, result: _add_key(seen, args)  # noqa: E731
        elif short == "cache.load":
            observe = self._count_load
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_load(self, args, result):
        self.loads += 1
        self.hits += result is not None

    def summary(self) -> dict:
        """Per-span-name [calls, self seconds], distinct counts, cache loads."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for sid in range(n):
            p = parents[sid]
            if p >= 0:
                child[p] += ends[sid] - starts[sid]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += ends[sid] - starts[sid] - child[sid]
        return {
            "spans": {name: [calls[i], self_s[i]]
                      for i, name in enumerate(self.names) if calls[i]},
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "loads": self.loads,
            "hits": self.hits,
            "missing": self.missing,
        }


def _add_key(seen: set, args):
    try:
        seen.add(args)
    except TypeError:
        seen.add(repr(args))


def merge(summaries) -> dict:
    """Sum the summaries of several traced processes."""
    out = {"spans": {}, "distinct": {}, "loads": 0, "hits": 0, "missing": []}
    for s in summaries:
        for name, (c, t) in s["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0])
            acc[0] += c
            acc[1] += t
        for k, v in s["distinct"].items():
            out["distinct"][k] = out["distinct"].get(k, 0) + v
        out["loads"] += s["loads"]
        out["hits"] += s["hits"]
        out["missing"] = sorted(set(out["missing"]) | set(s["missing"]))
    return out


def layer_metrics(summary: dict) -> dict:
    """Per-module and per-function calls / self_s, distinct and hit ratios."""
    spans = summary["spans"]
    out = {}
    for mod in MODULES:
        rows = [v for k, v in spans.items() if k.split(".", 1)[0] == mod]
        out[f"{mod}.calls"] = sum(c for c, _ in rows)
        out[f"{mod}.self_s"] = sum(t for _, t in rows)
    for short, name in FUNCTIONS.items():
        if short in summary["missing"]:
            continue
        calls, self_s = spans.get(name, (0, 0.0))
        out[f"{short}.calls"] = calls
        out[f"{short}.self_s"] = self_s
        if short in DISTINCT_BY_ARGS or short in DISTINCT_BY_RESULT:
            out[f"{short}.distinct_ratio"] = (
                summary["distinct"].get(short, 0) / calls if calls else 0.0)
    if "cache.load" not in summary["missing"]:
        loads = summary["loads"]
        out["cache.load.hit_ratio"] = summary["hits"] / loads if loads else 0.0
    return out
