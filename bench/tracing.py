"""Outside-in tracing of the ``gentile`` modules for the benchmark.

``install`` wraps every public function of each layer module and puts the
wrapper into every ``gentile`` namespace where a caller looks the function
up (``verifier.class_sum``, ``heisenberg.class_sum``, ``cli.spectrum_report``
and so on), so calls between modules and within a module both pass through
it.  ``scalars`` is not a layer: its functions only run inside ``operators``
and their time counts there.

A span is ``[name, start, end, parent, sizes]`` with ``perf_counter``
times and the index of the enclosing span (-1 for a root).  Spans stay in
memory; the child process writes them out when it exits.  Nothing here runs
unless a traced operation asks for it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

#: Modules whose public functions are traced; the layer names.
LAYERS = ("basis", "operators", "verifier", "heisenberg", "partitions", "reporting", "cli")

#: lru-cached functions whose hit counts the traced run reports.
CACHED = ("operators.class_sum", "operators.casimir_c1", "operators.casimir_c2",
          "operators.single_mode_ops")


def _sizes(name, args, out):
    """Sizes worth recording for one call, keyed by what they count."""
    if name == "basis.enumerate_basis":
        nu, m, order = args[:3]
        sector = args[3] if len(args) > 3 else None
        return {"states": out.dim, "key": [nu, m, order.n, sector]}
    if name == "operators.eigensolve_hermitian":
        op = args[0]
        return {"dim": int(getattr(op, "dim", None) or op.shape[0])}
    if name == "reporting.atomic_write":
        return {"bytes": len(args[1])}
    if name == "verifier.run_task":
        return {"error": out.residual is None}
    op = getattr(out, "op", out)  # a Restriction carries its operator
    dim, nnz = getattr(op, "dim", None), getattr(op, "nnz", None)
    if isinstance(dim, int) and isinstance(nnz, int):
        return {"dim": dim, "nnz": nnz}
    return None


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[4] = _sizes(name, args, out)
            return out

        return traced

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"gentile.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                wrappers[id(obj)] = self.wrap(name, obj)
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == "gentile" or key.startswith("gentile.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
        return self

    def cache_counts(self) -> dict[str, list[int]]:
        """``[hits, attempts]`` of each cached function during this process."""
        out = {}
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is not None:
                stats = info()
                out[name] = [stats.hits, stats.hits + stats.misses]
        return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
