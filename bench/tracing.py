"""Spans and counts around robininv's layer functions, installed from outside.

robininv binds names at import (``from .fem import solve_forward`` in
``ndmap``, ``locpot``, ``reconstruct`` and ``cli``), so a wrapper replaces
every module attribute that refers to the original function, which is where
callers look the name up. The source is never modified.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

# (module, function) -> span name
LAYERS = {
    ("mesh", "generate_disk_mesh"): "mesh.generate",
    ("fem", "assemble_system"): "fem.assemble",
    ("fem", "solve_forward"): "fem.solve_forward",
    ("fem", "solve_adjoint"): "fem.solve_adjoint",
    ("fem", "solve_interface_source"): "fem.solve_interface",
    ("ndmap", "nd_form_matrix"): "ndmap.form",
    ("locpot", "cgne_solve"): "locpot.cgne",
    ("lipschitz", "lipschitz_constant"): "lipschitz.constant",
    ("lipschitz", "verify_stability"): "lipschitz.verify",
    ("reconstruct", "bfgs_minimize"): "reconstruct.bfgs",
    ("cli", "write_csv"): "cli.write",
    ("cli", "write_text"): "cli.write",
}

# iteration count carried by a span, read from the wrapped function's result
ITERATIONS = {
    "locpot.cgne": lambda result: result.iterations,
    "reconstruct.bfgs": lambda result: len(result.history) - 1,
}

SPAN_FIELDS = ["name", "start", "end", "parent", "self", "iterations"]

SOLVES = ("fem.solve_forward", "fem.solve_adjoint", "fem.solve_interface")


class Tracer:
    """Spans kept in memory as lists in SPAN_FIELDS order; parent is an index."""

    def __init__(self):
        self.spans = []
        self._stack = []  # indices of open spans
        self._child = []  # child time accumulated per open span

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, 0.0, 0]
        self.spans.append(record)
        self._stack.append(index)
        self._child.append(0.0)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            child = self._child.pop()
            record[2] = end
            record[4] = end - record[1] - child
            if self._child:
                self._child[-1] += end - record[1]
        if name in ITERATIONS:
            record[5] = ITERATIONS[name](result)
        return result

    def install(self):
        """Wrap the layer functions of the currently imported robininv."""
        modules = [m for key, m in sys.modules.items()
                   if key == "robininv" or key.startswith("robininv.")]
        for (mod, fname), name in LAYERS.items():
            orig = getattr(sys.modules[f"robininv.{mod}"], fname)
            traced = functools.partial(self.span, name, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, traced)


def halvings(history_csvs) -> int:
    """Line-search halvings from the step column: step = 0.5**halvings."""
    total = 0
    for path in history_csvs:
        lines = path.read_text().splitlines()[2:]
        for line in lines[1:]:  # row 0 is the starting point (step 0)
            total += round(-math.log2(float(line.split(",")[3])))
    return total


def round_counts(spans, history_csvs) -> dict:
    """Counts of one traced round; they must repeat exactly between runs."""
    names = [s[0] for s in spans]

    def inside_bfgs(span):
        while span[3] >= 0:
            span = spans[span[3]]
            if span[0] == "reconstruct.bfgs":
                return True
        return False

    bfgs_iters = sum(s[5] for s in spans if s[0] == "reconstruct.bfgs")
    bfgs_solves = sum(1 for s in spans if s[0] in SOLVES and inside_bfgs(s))
    return {
        "mesh.generate.calls": names.count("mesh.generate"),
        "fem.assemble.calls": names.count("fem.assemble"),
        "fem.solve_forward.calls": names.count("fem.solve_forward"),
        "fem.solve_adjoint.calls": names.count("fem.solve_adjoint"),
        "fem.solve_interface.calls": names.count("fem.solve_interface"),
        "ndmap.form.calls": names.count("ndmap.form"),
        "locpot.cgne.calls": names.count("locpot.cgne"),
        "locpot.cgne.iters": sum(s[5] for s in spans if s[0] == "locpot.cgne"),
        "reconstruct.bfgs.calls": names.count("reconstruct.bfgs"),
        "reconstruct.bfgs.iters": bfgs_iters,
        "reconstruct.halvings": halvings(history_csvs),
        "reconstruct.solves_per_iter": bfgs_solves / bfgs_iters if bfgs_iters else 0.0,
    }


def round_totals(spans) -> dict:
    """Seconds per round: whole layers and self time of the composite layers."""

    def seconds(names, self_time=False):
        return sum(s[4] if self_time else s[2] - s[1] for s in spans if s[0] in names)

    return {
        "fem.solve.s": seconds(SOLVES),
        "ndmap.form.self_s": seconds(("ndmap.form",), self_time=True),
        "locpot.cgne.self_s": seconds(("locpot.cgne",), self_time=True),
        "lipschitz.constant.s": seconds(("lipschitz.constant",)),
        "lipschitz.verify.s": seconds(("lipschitz.verify",)),
        "reconstruct.bfgs.self_s": seconds(("reconstruct.bfgs",), self_time=True),
        "cli.write.s": seconds(("cli.write",)),
    }


def per_call_ms(spans) -> dict:
    """Median milliseconds per call over all traced rounds (0 when never called)."""
    out = {}
    for name in ("mesh.generate", "fem.assemble", "fem.solve_forward",
                 "fem.solve_interface", "ndmap.form", "locpot.cgne"):
        times = [1e3 * (s[2] - s[1]) for s in spans if s[0] == name]
        out[f"{name}.ms"] = statistics.median(times) if times else 0.0
    return out


def unit(metric: str) -> str:
    if metric.endswith(".ms"):
        return "ms"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"
