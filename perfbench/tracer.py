"""In-memory spans around morsekit's public layer functions.

The benchmark wraps each function named in ``TARGETS`` and rebinds the
wrapper in every ``morsekit`` module namespace that holds the original
object, so calls made through a name imported with ``from .x import f``
are seen as well as calls through the home module.  A span records its
name, start, end, parent span and op id; spans stay in memory and are
aggregated into call counts and self times when the caller asks.
"""
from __future__ import annotations

import sys
import time
from functools import wraps

TARGETS = {
    "exactla": ("congruence_diagonalize", "rref", "solve_general", "nullspace"),
    "bilinear": ("_eigh", "inertia", "restrict", "kernel_intersection"),
    "constraints": ("analyze", "solve_dual", "predict_multi"),
    "boundary": ("assemble", "robin_spectrum", "dirichlet_spectrum",
                 "steklov_spectrum", "verify_decomposition", "weak_index"),
    "harness": ("parse_problem", "run", "fuzz", "report_to_json"),
}
LAYERS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


class Tracer:
    """Span recorder; ``install`` and ``uninstall`` bracket a traced region."""

    def __init__(self):
        # (layer index, start, end, parent slot or -1, op id); a slot holds
        # None while its call is still running
        self.spans: list = []
        self.op_id = -1
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "morsekit" or name.startswith("morsekit.")]
        for idx, layer in enumerate(LAYERS):
            mod_name, fn_name = layer.split(".", 1)
            original = getattr(sys.modules[f"morsekit.{mod_name}"], fn_name)
            wrapper = self._wrap(idx, original)
            sites = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._saved.append((module, attr, original))
                        sites.append(module.__name__)
            self.sites[layer] = sites

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (idx, start, end, parent, self.op_id)

        return wrapper

    def aggregate(self, lo: int = 0, hi: int | None = None) -> dict:
        """{layer: [calls, self_s]} over spans[lo:hi].

        Self time is a span's duration minus the time covered by its
        child spans; calls run on one thread, so children never overlap.
        """
        hi = len(self.spans) if hi is None else hi
        child = {}
        for slot in range(lo, hi):
            idx, start, end, parent, _ = self.spans[slot]
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {layer: [0, 0.0] for layer in LAYERS}
        for slot in range(lo, hi):
            idx, start, end, _, _ = self.spans[slot]
            row = out[LAYERS[idx]]
            row[0] += 1
            row[1] += (end - start) - child.get(slot, 0.0)
        return out
