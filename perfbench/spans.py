"""Spans around the package's layers, recorded from the benchmark's side.

``Tracer.install`` replaces each layer's public function at the place
its caller looks it up (``cayley_theta.theta.lp_solve`` for the simplex
as ``solve_theta`` calls it, ``cayley_theta.linalg.solve_square`` as the
simplex calls it, and so on) with a wrapper that records a span: name,
start, end, parent span and operation id.  ``uninstall`` puts the
originals back.  Spans stay in memory until ``layer_metrics`` and
``dump`` read them at the end; counts come from each call's inputs and
outputs, not from the package.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from fractions import Fraction

from cayley_theta import apps, characters, graphs, groups, linalg, theta

# span name -> per-layer time metric (the self time of those spans)
LAYER_TIMES = {
    "simplex.solve": "simplex.solve_s",
    "linalg.solve_square": "linalg.solve_square_s",
    "characters.table": "characters.table_s",
    "characters.bochner": "characters.bochner_s",
    "theta.build_lp": "theta.build_lp_s",
    "theta.certificate": "theta.certificate_s",
    "theta.validate": "theta.validate_s",
    "theta.sdp_build": "theta.sdp_build_s",
    "theta.sdp_write": "theta.sdp_write_s",
    "groups.classes": "groups.classes_s",
    "apps.connection": "apps.connection_s",
    "graphs.build_cayley": "graphs.build_cayley_s",
    "graphs.alpha": "graphs.alpha_s",
}
# count metric -> unit
COUNTS = {"simplex.calls": "count", "simplex.failures": "count",
          "simplex.max_bits": "bits", "linalg.solve_square_calls": "count",
          "characters.table_entries": "count",
          "characters.bochner_calls": "count", "theta.lp_rows": "count",
          "theta.lp_cols": "count", "theta.sdp_bytes": "bytes",
          "graphs.cayley_arcs": "count", "graphs.alpha_failures": "count"}


def _bits(values):
    return max((max(abs(Fraction(v).numerator).bit_length(),
                    Fraction(v).denominator.bit_length())
                for v in values or () if isinstance(v, (int, Fraction))),
               default=0)


# hooks: (counts, args, result, error) -> None, run after each call

def _on_lp_solve(counts, args, result, error):
    counts["simplex.calls"] += 1
    if error is not None or result.status != "optimal":
        counts["simplex.failures"] += 1
        return
    counts["simplex.max_bits"] = max(counts["simplex.max_bits"],
                                     _bits(result.x), _bits(result.dual))


def _on_table(counts, args, result, error):
    # as_float_table hands back an approximate table unchanged
    if error is None and result is not args[0]:
        counts["characters.table_entries"] += \
            len(result.entries) * len(result.entries[0])


def _on_build_lp(counts, args, result, error):
    if error is None:
        counts["theta.lp_rows"] += result.instance.m
        counts["theta.lp_cols"] += result.instance.n


def _on_export_sdpa(counts, args, result, error):
    if error is None:
        counts["theta.sdp_bytes"] += os.path.getsize(args[1])


def _on_build_cayley(counts, args, result, error):
    if error is not None:
        return
    group, connection = args
    counts["graphs.cayley_arcs"] += group.order * len(connection.elements)


def _on_alpha(counts, args, result, error):
    if error is not None or not result.exact:
        counts["graphs.alpha_failures"] += 1


def _counter(key):
    def hook(counts, args, result, error):
        counts[key] += 1
    return hook


# (owner, attribute, span name, hook)
TARGETS = (
    (theta, "solve_theta", "theta.certificate", None),
    (theta, "build_lp_D", "theta.build_lp", _on_build_lp),
    (theta, "lp_solve", "simplex.solve", _on_lp_solve),
    (linalg, "solve_square", "linalg.solve_square",
     _counter("linalg.solve_square_calls")),
    (theta, "validate_certificate", "theta.validate", None),
    (theta, "is_positive_type", "characters.bochner",
     _counter("characters.bochner_calls")),
    (characters, "symmetric_character_table", "characters.table", _on_table),
    (characters, "abelian_character_table", "characters.table", _on_table),
    (characters, "as_float_table", "characters.table", _on_table),
    (groups.FiniteGroup, "conjugacy_classes", "groups.classes", None),
    (apps, "efp_connection", "apps.connection", None),
    (apps, "gl_connection", "apps.connection", None),
    (graphs.ConnectionSet, "from_classes", "apps.connection", None),
    (graphs.ConnectionSet, "from_elements", "apps.connection", None),
    (graphs, "build_cayley", "graphs.build_cayley", _on_build_cayley),
    (theta, "build_cayley", "graphs.build_cayley", _on_build_cayley),
    (graphs, "alpha", "graphs.alpha", _on_alpha),
    (theta, "build_sdp_A", "theta.sdp_build", None),
    (theta, "export_sdpa", "theta.sdp_write", _on_export_sdpa),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op_id]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._saved = []
        self.op_id = None

    # -- recording --
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def op(self, op_id, run):
        """Run one operation under a root span named ``op``."""
        self.op_id = op_id
        self._open("op")
        try:
            return run()
        finally:
            self._close()

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close()
                if hook is not None:
                    hook(tracer.counts, args, None, exc)
                raise
            tracer._close()
            if hook is not None:
                hook(tracer.counts, args, result, None)
            return result
        return traced

    # -- patching --
    def install(self):
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                func = original.__func__
                replacement = classmethod(self._wrap(func, name, hook))
            else:
                replacement = self._wrap(original, name, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results --
    def self_times(self):
        """Self time per span name: each span's duration minus the time
        its direct children cover."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child_time[i]
        return totals

    def layer_metrics(self, pass_wall_s: float) -> dict:
        """Per-layer self times and counts, as {name: {value, unit}}.
        ``trace.unattributed_s`` is the traced pass time no layer span
        covers: the benchmark loop and the glue inside each operation
        (group construction, spec objects)."""
        totals = self.self_times()
        times = {metric: totals.get(name, 0.0)
                 for name, metric in LAYER_TIMES.items()}
        times["trace.unattributed_s"] = pass_wall_s - sum(times.values())
        out = {name: {"value": v, "unit": "s"} for name, v in times.items()}
        out.update({name: {"value": v, "unit": COUNTS[name]}
                    for name, v in self.counts.items()})
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
