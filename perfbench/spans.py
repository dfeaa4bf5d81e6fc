"""Span recording around the package's public functions, from outside.

The benchmark wraps every public function of each module, and the
`LoopChannel.apply` method, while a traced pass runs, and restores the
originals afterwards; nothing under src/ changes. A wrapper is installed
in every namespace that holds the function, because modules import each
other's functions by name (analysis binds `loop_channel`, cli binds
`sweep`, ...), including module-level dicts such as the CLI's command table.

Spans are aggregated in memory per function: calls, inclusive seconds, and
self seconds. Self time is a span's duration minus the part covered by
spans of *other* layers below it, so a layer's own helpers count as its
work. A layer's self time sums its outermost spans only.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter
from types import ModuleType

LAYERS = ("cli", "analysis", "parallel", "lindblad", "propagators", "tripod", "linalg", "loops")

# Functions the per-layer metrics are read from. A missing one is a hook
# failure, not a zero.
NAMED_TARGETS = (
    "cli.main",
    "analysis.sweep",
    "analysis.optimal_point_table",
    "analysis.find_optimal_point",
    "analysis.mean_fidelity",
    "parallel.ordered_map",
    "lindblad.loop_channel",
    "lindblad.LoopChannel.apply",
    "propagators.loop_propagator",
    "propagators.adiabatic_gate",
    "propagators.start_frame",
    "tripod.eigenframe",
    "linalg.exp_i_hermitian",
    "loops.with_total_time",
)

# Spans whose nested calls are also counted per ancestor call.
WATCHED = ("analysis.find_optimal_point",)


class HookError(RuntimeError):
    """A wrapper could not be installed where the metrics need it."""


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.layer_self_s: Counter = Counter()
        self.under = {w: Counter() for w in WATCHED}
        self.values: Counter = Counter()   # counts read from return values
        self._stack: list[list] = []       # [layer, time in other layers below]
        self._active: Counter = Counter()

    def wrap(self, name: str, fn, on_return=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for w, counts in self.under.items():
                if self._active[w]:
                    counts[name] += 1
            frame = [layer, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._active[name] -= 1
                self._stack.pop()
                own = dt - frame[1]
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += own
                parent = self._stack[-1] if self._stack else None
                if parent is not None and parent[0] == layer:
                    parent[1] += frame[1]
                else:
                    self.layer_self_s[layer] += own
                    if parent is not None:
                        parent[1] += dt
            if on_return is not None:
                on_return(self, result)
            return result

        wrapper.__wrapped_original__ = fn
        return wrapper


def package_modules(package: ModuleType) -> dict[str, ModuleType]:
    mods = {"": package}
    for layer in LAYERS + ("errors",):
        mods[layer] = importlib.import_module(f"{package.__name__}.{layer}")
    return mods


def _resolve(mods: dict[str, ModuleType], dotted: str):
    layer, *rest = dotted.split(".")
    obj = mods[layer]
    for part in rest:
        if not hasattr(obj, part):
            raise HookError(f"hook target {dotted} not found; the per-layer metrics need it")
        obj = getattr(obj, part)
    return obj


def public_functions(mods: dict[str, ModuleType]) -> dict[str, object]:
    """'layer.name' -> function, for every public function a layer defines."""
    out = {}
    for layer in LAYERS:
        mod = mods[layer]
        for attr, val in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(val) and val.__module__ == mod.__name__:
                out[f"{layer}.{attr}"] = val
    return out


def namespaces(mods: dict[str, ModuleType]):
    for mod in mods.values():
        yield vars(mod)
        for val in list(vars(mod).values()):
            if isinstance(val, dict):
                yield val


def rebind(mods: dict[str, ModuleType], swaps: dict) -> list:
    """Binds swaps[f] in place of every binding of the function f in the
    package's namespaces; returns the (namespace, key, f) list that undoes it."""
    undo = []
    for ns in namespaces(mods):
        for key, val in list(ns.items()):
            if inspect.isfunction(val) and val in swaps:
                undo.append((ns, key, val))
                ns[key] = swaps[val]
    return undo


def restore(undo: list) -> None:
    while undo:
        ns, key, val = undo.pop()
        if isinstance(ns, dict):
            ns[key] = val
        else:
            setattr(ns, key, val)


@contextlib.contextmanager
def substituted(package: ModuleType, makers: dict):
    """Binds makers[name](original) in place of each named function while
    the block runs: a deliberately wrong package, for negative tests."""
    mods = package_modules(package)
    originals = {name: _resolve(mods, name) for name in makers}
    undo = rebind(mods, {fn: makers[name](fn) for name, fn in originals.items()})
    try:
        yield
    finally:
        restore(undo)


class Hooks:
    """Installs wrappers into every namespace that binds a target, and
    restores the originals on exit."""

    def __init__(self, package: ModuleType, tracer: Tracer, names: tuple[str, ...] | None = None,
                 on_return: dict | None = None) -> None:
        self.mods = package_modules(package)
        self.tracer = tracer
        for name in NAMED_TARGETS:
            _resolve(self.mods, name)
        if names is None:
            targets = public_functions(self.mods)
            self.methods = {"lindblad.LoopChannel.apply": "lindblad.apply"}
        else:
            targets = {n: _resolve(self.mods, n) for n in names}
            self.methods = {}
        on_return = on_return or {}
        self.wrappers = {fn: tracer.wrap(n, fn, on_return.get(n)) for n, fn in targets.items()}
        self._undo: list = []

    def stale_bindings(self) -> list[str]:
        """Names that still bind an unwrapped target (empty once installed)."""
        return [str(key) for ns in namespaces(self.mods) for key, val in ns.items()
                if inspect.isfunction(val) and val in self.wrappers]

    def __enter__(self) -> "Hooks":
        self._undo = rebind(self.mods, self.wrappers)
        for dotted, name in self.methods.items():
            cls_path, attr = dotted.rsplit(".", 1)
            cls = _resolve(self.mods, cls_path)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.tracer.wrap(name, original))
        stale = self.stale_bindings()
        if stale:
            self.__exit__(None, None, None)
            raise HookError(f"unwrapped bindings remain: {sorted(set(stale))}")
        return self

    def __exit__(self, *exc) -> None:
        restore(self._undo)
