"""Spans around switchlab's public functions, recorded from outside the package.

Each traced function is replaced, in every switchlab module namespace that
binds it, by a wrapper that records a span: name, start, end and parent
span.  Spans are recorded only inside a root span that the harness opens
around one command, so the benchmark's own reference checks never show up.
They stay in memory, in flat arrays, until the run writes them out.

A span's self time is its duration minus the durations of its direct
children; since calls nest, that is the time its wrapped children cover.

numpy.linalg.eigvalsh is only counted, not spanned: its time stays in the
self time of the switchlab function that calls it, so that, say,
DensityOperator's validation and von_neumann_entropy keep their cost.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

import numpy as np

#: module -> public names traced; each gives <module>.<name>.ms and .calls
TRACED = {
    "measures": (
        "causal_visibility",
        "order_interference",
        "conditional_entropy_after_measurement",
        "dephase_order",
    ),
    "model": ("evolve_switch", "fixed_order_vector", "post_select", "reduce_state"),
    "linalg": ("DensityOperator", "partial_trace", "von_neumann_entropy"),
    "relations": (
        "verify_scenario",
        "scenario_quantities",
        "spatial_summary",
        "check_fixed_order_duality",
        "check_ico_duality",
        "check_post_selection_mixture",
        "check_post_selected_duality",
        "check_entropic_bound",
        "check_overlap_lemma",
        "nogo_counterexample",
        "scenario_fingerprint",
    ),
    "discrimination": ("helstrom_guess", "causal_duality"),
    "cli": ("load_scenario", "write_rows"),
}

#: calls of numpy.linalg.eigvalsh, from anywhere, are counted as linalg.eigvalsh
EIGVALSH = "linalg.eigvalsh"
ROOT = "command"


class Tracer:
    """Records spans while installed; `install` and `uninstall` patch switchlab."""

    def __init__(self):
        self.labels: list[str] = [ROOT]
        self._name = array("H")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.eigvalsh_calls = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        name_id = len(self.labels)
        self.labels.append(label)
        stack, names, parents = self._stack, self._name, self._parent
        starts, ends = self._start, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def _count(self, fn):
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                self.eigvalsh_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "switchlab"]
        for module_name, names in TRACED.items():
            module = sys.modules[f"switchlab.{module_name}"]
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue  # gone from the program: its metrics read 0
                label = f"{module_name}.{name}"
                if isinstance(original, type):
                    # construction of a class: wrap its __init__ in place
                    self._patch(original, "__init__", self._wrap(label, original.__init__))
                    continue
                wrapper = self._wrap(label, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        self._patch(np.linalg, "eigvalsh", self._count(np.linalg.eigvalsh))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def run(self, fn, *args):
        """Call fn(*args) inside a root span; nested traced calls get recorded."""
        index = len(self._start)
        self._name.append(0)
        self._parent.append(-1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        try:
            return fn(*args)
        finally:
            self._end[index] = perf_counter()
            self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, labels=np.array(json.dumps(self.labels)),
                 eigvalsh_calls=np.array(self.eigvalsh_calls), **self.arrays())

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per traced name: (calls, self seconds), over every recorded span."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        child = spans["parent"] >= 0
        children = np.bincount(
            spans["parent"][child], weights=duration[child], minlength=duration.size
        )
        self_time = duration - children
        size = len(self.labels)
        calls = np.bincount(spans["name"], minlength=size)
        seconds = np.bincount(spans["name"], weights=self_time, minlength=size)
        totals = {label: (0, 0.0) for label in per_layer_labels()}
        for i, label in enumerate(self.labels):
            if label != ROOT:
                totals[label] = (int(calls[i]), float(seconds[i]))
        totals[EIGVALSH] = (self.eigvalsh_calls, 0.0)
        return totals


def per_layer_labels() -> list[str]:
    labels = [f"{module}.{name}" for module, names in TRACED.items() for name in names]
    return labels + [EIGVALSH]
