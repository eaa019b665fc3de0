"""Spans around the calls into each molq module, recorded from outside.

Each public function is wrapped where its caller looks it up: scan_point
calls `molq.workbench.dense_ground_energy`, vqe_solve calls
`molq.vqe.run_circuit`, and so on, so the wrapper replaces that binding and
nothing inside src/ changes. Spans live in memory (id, parent, name, start,
end) until the run ends; a span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute as the caller binds it, span name "<layer>.<operation>")
BINDINGS = (
    ("molq.workbench", "scan_point", "workbench.point"),
    ("molq.workbench", "parse_fcidump", "integrals_io.parse_fcidump"),
    ("molq.workbench", "build_ao_integrals", "integrals.build"),
    ("molq.workbench", "scf_solve", "scf.solve"),
    ("molq.workbench", "ao_to_mo", "scf.ao_to_mo"),
    ("molq.workbench", "freeze_core", "fermion.freeze_core"),
    ("molq.workbench", "build_fermionic_hamiltonian", "fermion.build"),
    ("molq.workbench", "jordan_wigner", "pauli.jw"),
    ("molq.workbench", "dense_ground_energy", "exact.dense"),
    ("molq.workbench", "uccsd_ansatz", "vqe.ansatz"),
    ("molq.workbench", "hardware_efficient_ansatz", "vqe.ansatz"),
    ("molq.workbench", "vqe_solve", "vqe.solve"),
    ("molq.vqe", "parameter_shift_gradient", "vqe.grad"),
    ("molq.vqe", "run_circuit", "statevector.run"),
    ("molq.vqe", "expectation", "statevector.expect"),
    ("molq.db", "EnergyDB.put", "db.put"),
    ("molq.db", "EnergyDB.get", "db.get"),
    ("molq.db", "EnergyDB.query", "db.query"),
    ("molq.db", "EnergyDB.audit", "db.audit"),
)

# Calls made inside another operation of the same module that belong to
# that operation: EnergyDB.query reads every record through EnergyDB.get.
# Every other nested call is a span of its own (vqe.solve -> vqe.grad).
FOLDED_INTO = {"db.get": "db.query"}


def _count(counts, span_name, args, result):
    """Work counts are totals over the traced pass; sizes are the largest seen."""
    def largest(name, value):
        counts[name] = max(counts[name], value)

    if span_name == "statevector.run":
        counts["statevector.gates_applied"] += len(args[0].gates)
    elif span_name == "vqe.solve":
        counts["vqe.evals"] += result.evaluations
    elif span_name == "scf.solve":
        counts["scf.iterations"] += result.iterations
    elif span_name == "vqe.ansatz":
        largest("vqe.n_gates", len(result.circuit.gates))
        largest("vqe.n_params", result.parameter_count)
    elif span_name == "exact.dense":
        largest("exact.dense_dim", 2 ** args[0].n_qubits)
    elif span_name in ("pauli.jw", "fermion.build"):
        largest(span_name.split(".")[0] + ".n_terms", len(result.terms))
    elif span_name == "integrals.build":
        largest("integrals.n_ao", result.n_ao)


COUNT_NAMES = (
    "statevector.gates_applied", "vqe.evals", "vqe.n_gates", "vqe.n_params",
    "exact.dense_dim", "pauli.n_terms", "fermion.n_terms", "integrals.n_ao",
    "scf.iterations",
)


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._ids = itertools.count()
        self._stack = []          # (span id, span name) of the open spans
        self._originals = []

    def install(self):
        for module_name, attribute, span_name in BINDINGS:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(original, span_name))

    def uninstall(self):
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _wrap(self, original, span_name):
        folded_into = FOLDED_INTO.get(span_name)
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == folded_into:
                return original(*args, **kwargs)
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, span_name))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, span_name, start, end))
            _count(self.counts, span_name, args, result)
            return result

        return traced

    def layer_metrics(self) -> dict:
        """<layer>.<op>_s (summed self time) and <layer>.<op>_calls for
        every bound span, workbench.point_s (inclusive), and the counts."""
        children = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        metrics = {}
        for _, _, span_name in BINDINGS:
            metrics[f"{span_name}_s"] = 0.0
            metrics[f"{span_name}_calls"] = 0
        metrics["workbench.point_s"] = 0.0
        metrics["workbench.self_s"] = 0.0
        for span in self.spans:
            duration = span.end - span.start
            metrics[f"{span.name}_calls"] += 1
            if span.name == "workbench.point":
                metrics["workbench.point_s"] += duration
                metrics["workbench.self_s"] += duration - children[span.span_id]
            else:
                metrics[f"{span.name}_s"] += duration - children[span.span_id]
        metrics.update(self.counts)
        return metrics


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a span adds to one call: a wrapped no-op timed against the
    bare no-op, `calls` calls each, median of `repeats`."""
    def noop():
        return None

    costs = []
    for _ in range(repeats):
        traced = Tracer()._wrap(noop, "calibration.noop")
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)
