"""Layer tracer for one algforge process.

A traced run calls ``Tracer().install()`` after algforge is imported and
before the command runs.  It wraps the public functions and methods of each
layer module (plus the ring operators of its classes) and rebinds every name
that refers to an original: module attributes, class attributes and their
aliases (``Poly.__rmul__`` is ``Poly.__mul__``), module-level lists such as
``verify.CRITERIA`` and function defaults.  No program file is changed.

Calls are counted and self time is summed per layer; a layer's self time is
the time inside its wrappers minus the time of nested wrapped calls.  Time
spent in the wrappers themselves is kept out of every layer.  Only the
coarse calls (the command, each verify criterion, ``curvature_matrix`` and
``rref``) are kept as spans, each with the id of its enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import FunctionType

LAYERS = ("poly", "algebroid", "connection", "forms", "charclass", "linsolve", "dsl", "verify", "cli")

# operators wrapped besides the public methods; __init__ and __eq__ are not,
# so constructing or comparing values counts toward the caller's layer
OPERATORS = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__"}
)

COARSE = frozenset({"cli.main", "charclass.curvature_matrix", "linsolve.rref"})

# entry points whose input matrix is measured when called from outside linsolve
LINSOLVE_ENTRIES = frozenset({"rref", "solve", "nullspace", "rank", "det"})


def _is_unit(section) -> bool:
    """True for a generator section: one coefficient is the constant 1, the rest are 0."""
    ones = 0
    for c in section.coeffs:
        if not c.terms:
            continue
        if len(c.terms) != 1:
            return False
        (exps, coeff), = c.terms.items()
        if coeff != 1 or any(exps):
            return False
        ones += 1
    return ones == 1


def _section_key(section) -> tuple:
    return tuple(tuple(sorted(c.terms.items())) for c in section.coeffs)


class Tracer:
    def __init__(self):
        self.layer_self = [0.0] * len(LAYERS)
        self.depth = [0] * len(LAYERS)
        self.acc = [0.0]  # per active wrapper: time spent in nested wrappers
        self.counters: dict[str, list[int]] = {}
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.span_stack = [-1]
        self.wrappers: dict[FunctionType, FunctionType] = {}
        self.stats = {
            "mul_term_products": 0,
            "bracket_unit": 0,
            "curvature_unit": 0,
            "linsolve_calls": 0,
            "linsolve_cells": 0,
            "linsolve_nonzero": 0,
            "linsolve_max_cols": 0,
        }
        self.curvature_args: set = set()
        self._keep: list = []  # connections whose id() appears in curvature_args
        self._linsolve = LAYERS.index("linsolve")

    # ---- argument hooks (run inside the wrapper, outside every layer's time) ----

    def _hook_mul(self, args):
        a, b = args[0], args[1]
        self.stats["mul_term_products"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)

    def _hook_bracket(self, args):
        if _is_unit(args[1]) and _is_unit(args[2]):
            self.stats["bracket_unit"] += 1

    def _hook_curvature(self, args):
        conn, x, y, s = args
        if _is_unit(x) and _is_unit(y) and _is_unit(s):
            self.stats["curvature_unit"] += 1
        self._keep.append(conn)
        self.curvature_args.add((id(conn), _section_key(x), _section_key(y), _section_key(s)))

    def _hook_linsolve(self, args):
        if self.depth[self._linsolve]:
            return
        rows = args[0] if args else []
        st = self.stats
        st["linsolve_calls"] += 1
        if rows:
            ncols = len(rows[0])
            st["linsolve_cells"] += len(rows) * ncols
            st["linsolve_nonzero"] += sum(1 for row in rows for v in row if v)
            st["linsolve_max_cols"] = max(st["linsolve_max_cols"], ncols)

    def _hook_for(self, key: str):
        if key == "poly.Poly.__mul__":
            return self._hook_mul
        if key == "algebroid.Algebroid.bracket":
            return self._hook_bracket
        if key == "connection.EConnection.curvature":
            return self._hook_curvature
        if key.startswith("linsolve.") and key.split(".")[1] in LINSOLVE_ENTRIES:
            return self._hook_linsolve
        return None

    # ---- wrapping ----

    def _wrap(self, fn: FunctionType, key: str, layer: int, span_name: str | None = None) -> FunctionType:
        if fn in self.wrappers:
            return self.wrappers[fn]
        clock = time.perf_counter
        acc, depth, layer_self = self.acc, self.depth, self.layer_self
        spans, span_stack = self.spans, self.span_stack
        hook = self._hook_for(key)
        if span_name is None and key in COARSE:
            span_name = key
        count = self.counters.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = clock()
            if hook is not None:
                hook(args)
            depth[layer] += 1
            if span_name is not None:
                record = [len(spans), span_stack[-1], span_name, 0.0, 0.0]
                spans.append(record)
                span_stack.append(record[0])
            acc.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                layer_self[layer] += t1 - t0 - acc.pop()
                count[0] += 1
                depth[layer] -= 1
                if span_name is not None:
                    record[3], record[4] = t0, t1
                    span_stack.pop()
                acc[-1] += clock() - t_enter

        self.wrappers[fn] = wrapper
        return wrapper

    def install(self) -> None:
        import algforge.cli  # noqa: F401  (imports every layer but verify)
        import algforge.verify  # noqa: F401  (cli imports it lazily)

        # criteria first, so their wrappers are the ones that record spans
        verify = sys.modules["algforge.verify"]
        layer = LAYERS.index("verify")
        for i, (criterion, fn) in enumerate(verify.CRITERIA):
            verify.CRITERIA[i] = (criterion, self._wrap(fn, f"verify.{fn.__qualname__}", layer, criterion))
        for layer, name in enumerate(LAYERS):
            mod = sys.modules[f"algforge.{name}"]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    if not attr.startswith("_") and not inspect.isgeneratorfunction(obj):
                        setattr(mod, attr, self._wrap(obj, f"{name}.{obj.__qualname__}", layer))
                elif isinstance(obj, type):
                    self._wrap_class(obj, name, layer)
        self._rebind()
        left = self._unpatched()
        if left:
            raise RuntimeError("tracer left original bindings: " + ", ".join(left))

    def _wrap_class(self, cls: type, name: str, layer: int) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if isinstance(member, (staticmethod, classmethod)):
                fn = member.__func__
                if isinstance(fn, FunctionType):
                    setattr(cls, attr, type(member)(self._wrap(fn, f"{name}.{fn.__qualname__}", layer)))
            elif isinstance(member, FunctionType) and not inspect.isgeneratorfunction(member):
                setattr(cls, attr, self._wrap(member, f"{name}.{member.__qualname__}", layer))

    # ---- binding sites ----

    def _modules(self):
        return [m for n, m in list(sys.modules.items()) if n == "algforge" or n.startswith("algforge.")]

    def _sites(self):
        """Yield (label, container, key, value) for every place a function can be bound."""
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                yield f"{mod.__name__}.{attr}", mod, attr, obj
                if isinstance(obj, list):
                    for i, item in enumerate(obj):
                        yield f"{mod.__name__}.{attr}[{i}]", obj, i, item
                elif isinstance(obj, dict):
                    for k, item in list(obj.items()):
                        yield f"{mod.__name__}.{attr}[{k!r}]", obj, k, item
                elif isinstance(obj, type) and obj.__module__.startswith("algforge"):
                    for cattr, member in list(vars(obj).items()):
                        if isinstance(member, (staticmethod, classmethod)):
                            member = member.__func__
                        yield f"{mod.__name__}.{attr}.{cattr}", None, None, member
                if isinstance(obj, FunctionType):
                    for i, default in enumerate(obj.__defaults__ or ()):
                        yield f"{mod.__name__}.{attr} default {i}", None, None, default
                    for k, default in (obj.__kwdefaults__ or {}).items():
                        yield f"{mod.__name__}.{attr} default {k}", None, None, default

    def _swap(self, value):
        if isinstance(value, tuple):
            return tuple(self.wrappers.get(v, v) if isinstance(v, FunctionType) else v for v in value)
        return self.wrappers.get(value, value) if isinstance(value, FunctionType) else value

    def _rebind(self) -> None:
        for _, container, key, value in self._sites():
            if container is None:
                continue
            new = self._swap(value)
            if new is not value and new != value:
                if isinstance(container, (list, dict)):
                    container[key] = new
                else:
                    setattr(container, key, new)

    def _unpatched(self) -> list[str]:
        left = []
        for label, _, _, value in self._sites():
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, FunctionType) and v in self.wrappers for v in values):
                left.append(label)
        return left

    # ---- results ----

    def summary(self) -> dict:
        calls = {key: c[0] for key, c in self.counters.items()}
        return {
            "calls": calls,
            "layer_self_s": dict(zip(LAYERS, self.layer_self)),
            "stats": dict(self.stats, curvature_distinct=len(self.curvature_args)),
            "spans": self.spans,
        }
