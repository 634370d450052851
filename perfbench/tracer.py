"""Outside-in span tracer for the spectralball package.

The tracer finds the package's public functions (everything exported in
``spectralball.__all__`` plus the public functions of each loaded
``spectralball.*`` module, which covers the CLI), takes each one's layer
from its ``__module__`` and rebinds a timing wrapper in every
``spectralball.*`` namespace where the function is bound.  Calls between
modules (``curves`` -> ``classify``) and within one module
(``pick._smallest_eig`` -> ``pick_matrix``) therefore pass through a
wrapper too.  The ``__call__`` of the curve classes is wrapped as
``curves.curve_eval``.

Spans (name, start, end, parent) are kept in memory; self time and counts
are computed from them afterwards.  Nothing in the package is edited: the
wrappers are installed for the length of a ``with tracer.installed():``
block and the original bindings are restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

#: Classes whose ``__call__`` evaluates a matrix curve.
CURVE_CLASSES = (
    "TriangularConjugationCurve",
    "ExpConjugationCurve",
    "MatrixPolynomialCurve",
    "SpectralDisc",
)
CURVE_EVAL = "curves.curve_eval"


def _layer(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


def public_functions(package) -> dict:
    """Map each public function of *package* to its span name ``layer.name``."""
    found = {}
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isfunction(obj):
            found[obj] = f"{_layer(obj)}.{obj.__name__}"
    prefix = package.__name__ + "."
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith(prefix):
            continue
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and not name.startswith("_")
                and obj.__module__ == modname
                and obj not in found
            ):
                found[obj] = f"{_layer(obj)}.{obj.__name__}"
    return found


class Tracer:
    """Record spans of calls into a package while installed."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index or -1]
        self.errors = Counter()
        self.recording = True
        self._stack = []
        self._last_error = None

    def clear(self):
        self.spans.clear()
        self.errors.clear()
        self._last_error = None

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # count an error once, in the innermost layer it left
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[f"{name.split('.')[0]}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind wrappers in every loaded package module; restore on exit."""
        targets = {id(fn): (fn, name) for fn, name in public_functions(self.package).items()}
        wrappers = {key: self.wrap(fn, name) for key, (fn, name) in targets.items()}
        restore = []
        prefix = self.package.__name__
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is targets[id(value)][0]:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for cls_name in CURVE_CLASSES:
            cls = getattr(self.package, cls_name)
            original = cls.__dict__["__call__"]
            restore.append((cls, "__call__", original))
            cls.__call__ = self.wrap(original, CURVE_EVAL)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # aggregation

    @contextlib.contextmanager
    def paused(self):
        """Call through without recording (for output checks)."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def totals(self):
        """(calls, self seconds, top-level seconds) aggregated by span name."""
        calls = Counter()
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            if parent >= 0:
                child[parent] += dur
            else:
                top += dur
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s, top

    def durations(self, name, top_level=False) -> list:
        """Seconds of each *name* span, in call order (top-level ones only
        if *top_level*)."""
        return [end - start for n, start, end, parent in self.spans
                if n == name and (parent < 0 or not top_level)]

    def count_under(self, name, ancestor) -> int:
        """Number of *name* spans that have an *ancestor* span above them."""
        spans = self.spans
        hits = 0
        for span in spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0:
                if spans[p][0] == ancestor:
                    hits += 1
                    break
                p = spans[p][3]
        return hits
