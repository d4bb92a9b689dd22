"""Span tracing of the engine's public functions, from outside the package.

Modules bind each other's functions with ``from .x import f``, so a function
object can sit in several ``netclear.*`` namespaces. ``Tracer.install``
replaces every such binding with a wrapper that records a span, which also
tells which module called (the namespace whose binding ran); ``uninstall``
puts the originals back. Spans are kept in memory as
``[name, site, start, end, parent, op]`` lists and written out at the end.
``PaymentFunction`` methods run 10^5-10^6 times per op and are not wrapped:
they stay in their callers' self time.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

# Public functions wrapped per module, and the end-to-end metric each layer is
# expected to move, on which workload.
LAYERS = {
    "cli": ("main",),
    "io": ("parse_network", "parse_targets", "result_document", "dump_document"),
    "model": ("validate_network", "assemble"),
    "minimal": (
        "run_min_clearing",
        "adjust_default_cost",
        "rewire_solvent_bank",
        "solve_increase_step",
        "solve_flood_step",
    ),
    "graphs": ("active_graph", "condense", "reachable_from", "find_flood_component"),
    "linalg": ("solve_linear_system", "unit_left_nullspace"),
    "priority": ("compute_max_clearing_pp", "priority_structure"),
    "clearing": ("is_clearing_state", "payments"),
    "lattice": ("compute_max_clearing_flood", "solve_range_clearing"),
    "trade": ("optimal_creditor_positive_return", "apply_trade"),
}

MOVES = {
    "cli": "op_p50_ms on sweep-small",
    "io": "kind.validate_ms and ops_per_s on sweep-small; ~0 on min-prop",
    "model": "kind.validate_ms on sweep-small; kind.trade_ms on lattice-rings",
    "minimal": "kind.min_clear_ms on min-prop and sweep-small",
    "graphs": "kind.min_clear_ms on min-prop; kind.trade_ms and kind.range_ms on lattice-rings",
    "linalg": "kind.min_clear_ms on min-prop (minimal caller); kind.max_clear_pp_ms on max-pp (priority caller)",
    "priority": "kind.max_clear_pp_ms on max-pp; ~0 on min-prop",
    "clearing": "kind.max_clear_pp_ms on max-pp; op_p50_ms on sweep-small",
    "lattice": "kind.max_clear_flood_ms and kind.range_ms on lattice-rings",
    "trade": "kind.trade_ms on lattice-rings",
}

# Namespaces whose linalg bindings get their own per-caller figures.
LINALG_CALLERS = {
    "solve_linear_system": ("minimal", "priority", "trade"),
    "unit_left_nullspace": ("minimal", "priority"),
}

COUNT_SPAN = "trace.count_args"


def _matrix_counts(matrix) -> tuple[int, int]:
    return len(matrix), sum(1 for row in matrix for x in row if x)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.linalg = {"dim_max": 0, "dim_sum": 0, "nnz_sum": 0, "singular": 0}
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, site: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts = self.linalg if name.startswith("linalg.") else None
        singular_check = name == "linalg.solve_linear_system"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if counts is not None:
                # Counting is the tracer's own work: give it its own span so it
                # is not charged to the caller.
                spans.append([COUNT_SPAN, "trace", clock(), 0.0, parent, self.op])
                dim, nnz = _matrix_counts(args[0])
                counts["dim_max"] = max(counts["dim_max"], dim)
                counts["dim_sum"] += dim
                counts["nnz_sum"] += nnz
                spans[-1][3] = clock()
            idx = len(spans)
            spans.append([name, site, clock(), 0.0, parent, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if singular_check and result is None:
                counts["singular"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        targets = {}
        for module, functions in LAYERS.items():
            mod = sys.modules[f"netclear.{module}"]
            for fn_name in functions:
                targets[id(getattr(mod, fn_name))] = f"{module}.{fn_name}"
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "netclear" and not mod_name.startswith("netclear."):
                continue
            site = mod_name.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                name = targets.get(id(value))
                if name is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, self._wrap(name, site, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part covered by its direct children."""
    own = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[4] >= 0:
            own[span[4]] -= span[3] - span[2]
    return own


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced op: calls, self seconds and share of the
    total ``cli.main`` time, per function, per linalg caller and per module."""
    spans = tracer.spans
    own = self_times(spans)
    roots = [i for i, span in enumerate(spans) if span[0] == "cli.main" and span[4] < 0]
    ops = max(len(roots), 1)
    total = sum(spans[i][3] - spans[i][2] for i in roots) or 1.0

    per_op_sum: dict[int, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    min_clear_in_trades = 0
    trade_op_ids = set()
    for i, span in enumerate(spans):
        name, site, op = span[0], span[1], span[5]
        per_op_sum[op] = per_op_sum.get(op, 0.0) + own[i]
        keys = [name, name.partition(".")[0]]
        if name.startswith("linalg.") and site in LINALG_CALLERS.get(name[7:], ()):
            keys.append(f"{name}.{site}")
        for key in keys:
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + own[i]
        if name == "trade.optimal_creditor_positive_return":
            trade_op_ids.add(op)
    for span in spans:
        if span[0] == "minimal.run_min_clearing" and span[5] in trade_op_ids:
            min_clear_in_trades += 1

    metrics: dict[str, tuple[float, str]] = {}
    for module, functions in LAYERS.items():
        for fn_name in functions:
            key = f"{module}.{fn_name}"
            metrics[f"{key}.calls"] = (calls.get(key, 0) / ops, "count/op")
            metrics[f"{key}.self_s"] = (self_s.get(key, 0.0) / ops, "s/op")
            metrics[f"{key}.share"] = (self_s.get(key, 0.0) / total, "ratio")
        metrics[f"{module}.share"] = (self_s.get(module, 0.0) / total, "ratio")
    for fn_name, sites in LINALG_CALLERS.items():
        for site in sites:
            key = f"linalg.{fn_name}.{site}"
            metrics[f"{key}.calls"] = (calls.get(key, 0) / ops, "count/op")
            metrics[f"{key}.self_s"] = (self_s.get(key, 0.0) / ops, "s/op")
    metrics["trace.share"] = (self_s.get("trace", 0.0) / total, "ratio")
    counts = tracer.linalg
    metrics["linalg.dim_max"] = (counts["dim_max"], "count")
    metrics["linalg.dim_sum"] = (counts["dim_sum"] / ops, "count/op")
    metrics["linalg.nnz_sum"] = (counts["nnz_sum"] / ops, "count/op")
    metrics["linalg.singular"] = (counts["singular"] / ops, "count/op")
    metrics["trade.min_clear_per_op"] = (
        min_clear_in_trades / len(trade_op_ids) if trade_op_ids else 0.0,
        "count/op",
    )
    root_of = {spans[i][5]: spans[i][3] - spans[i][2] for i in roots}
    metrics["trace.self_sum_err_s"] = (
        max((abs(per_op_sum.get(op, 0.0) - dur) for op, dur in root_of.items()), default=0.0),
        "s",
    )
    return metrics
