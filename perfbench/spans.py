"""In-memory span recorder and the wrappers that time bindet's layers.

A span is ``[name, start_ns, end_ns, parent, op_id, count]``: parent is the
index of the enclosing span (-1 for a root) and count is a work counter
the wrapper extracts from the call's arguments (families enumerated,
bitmap bytes).  Spans are kept in a list and only aggregated or written
out at the end of a run.

``install`` replaces each layer function under every name a caller looks
it up by, e.g. ``bindet.construction.det_exact`` as well as
``bindet.exact.det_exact``, so calls between layers are seen.  Nothing
under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# Layer -> functions timed in it; the metric prefix drops the underscore
# of ``_kernels`` because metric names must start with a letter.
LAYERS = {
    "exact": ("det_exact", "cofactor_vector", "is_orthogonal_to_all",
              "IntMatrix.to_text", "IntMatrix.from_text"),
    "fibk": ("fib_prefix", "theorem_bound", "alpha_k", "best_k", "bound_table",
             "corollary_bound"),
    "construction": ("seed_matrix", "binarizing_transform", "binary_rows",
                     "orthogonal_vector", "greedy_subset", "construct_matrix",
                     "verify_certificate", "ConstructionCertificate.to_text",
                     "ConstructionCertificate.from_text"),
    "oracle": ("spectrum_exhaustive", "spectrum_family", "verify_construction",
               "verify_laplace_identity"),
    "_kernels": ("exhaustive_chunk", "family_bitmap"),
    "cli": ("cmd_construct", "cmd_verify", "cmd_bound", "cmd_fib", "cmd_spectrum",
            "cmd_selftest"),
}

# Work counters read from a call's arguments: families enumerated, and
# bytes of the value bitmap.
COUNTERS = {
    "kernels.exhaustive_chunk": lambda n, start, stop, seen: stop - start,
    "kernels.family_bitmap": lambda cof, lo, seen: seen.size,
}

SEARCHED_MODULES = ("bindet", "bindet.exact", "bindet.fibk", "bindet.construction",
                    "bindet.oracle", "bindet._kernels", "bindet.cli")


class Tracer:
    """Records spans for the op that is current; outside an op it records nothing."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op_id, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        span = self.spans[idx]
        span[2] = perf_counter_ns()
        span[5] = count
        self._stack.pop()

    def adopt(self, child_spans, parent: int) -> None:
        """Append spans recorded in another process under span ``parent``.

        Both processes read CLOCK_MONOTONIC through perf_counter_ns, so the
        child's times fall inside the parent's span.
        """
        base = len(self.spans)
        op_id = self.spans[parent][4]
        for name, start, end, p, count in child_spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p, op_id, count])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, fn, name: str):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.op_id is None:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx, counter(*args, **kwargs) if counter else 0)

    return traced


def install(tracer: Tracer):
    """Wrap every function in LAYERS; returns a callable that undoes it.

    Call after the bindet modules in use are imported: a module imported
    later binds the unwrapped functions.
    """
    modules = [sys.modules[m] for m in SEARCHED_MODULES if m in sys.modules]
    undo = []
    for module_name, names in LAYERS.items():
        mod = sys.modules.get(f"bindet.{module_name}")
        if mod is None:
            continue
        for attr in names:
            span_name = f"{module_name.lstrip('_')}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, raw.__func__, span_name))
                else:
                    new = _wrap(tracer, raw, span_name)
                setattr(cls, meth, new)
                undo.append((cls, meth, raw))
                continue
            original = getattr(mod, attr)
            wrapped = _wrap(tracer, original, span_name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        undo.append((m, key, original))

    def uninstall():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return uninstall


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap (worker threads) or stick out of their parent, so
    the covered part is the union of the child intervals clipped to the
    parent.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0
        cur_start = cur_end = None
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(end - start - covered)
    return out


def aggregate(spans) -> dict[str, dict[str, int]]:
    """Per span name: calls, summed self time (ns) and summed counter."""
    totals: dict[str, dict[str, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"calls": 0, "self_ns": 0, "count": 0})
        entry["calls"] += 1
        entry["self_ns"] += own
        entry["count"] += span[5]
    return totals
