"""Span recorder for the traced run.

The tracer wraps the public entry points of each pbkernel module from
outside the library: every reference to an entry point, where it is
defined and wherever another module (or the package namespace, or the
gadget builder table) imported it by name, is swapped for a wrapper and
restored by :meth:`Tracer.remove`.  A wrapper records one span (name,
start, end, parent span, job id) and adds to that entry point's calls,
busy time, self time (busy time minus the time of wrapped children) and
errors.  Some entry points also add work counts.  Spans stay in memory
until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

from pbkernel import cli, expr, gadgets, ising_kernel, pauli, pbf, stabilizer, symmetric

PB = pbf.PseudoBoolean


def _parse_bytes(c, args, kwargs, result):
    c["expr.parse.bytes"] += len(args[0].encode())


def _cube_points(c, args, kwargs, result):
    c["pbf.points"] += 1 << args[0].n


def _table_points(c, args, kwargs, result):
    c["pbf.points"] += len(args[1])  # args[0] is the class


def _roots(c, args, kwargs, result):
    c["symmetric.exact_roots"] += len(result.exact_roots)
    c["symmetric.numeric_roots"] += len(result.roots) - len(result.exact_roots)


def _term_amps(c, args, kwargs, result):
    c["pauli.apply.term_amps"] += len(args[0]) << args[0].n


def _gate_amps(c, args, kwargs, result):
    c["stabilizer.apply_circuit.gate_amps"] += len(args[0].gates) << args[0].n


def _gate_instances(c, args, kwargs, result):
    c["gadgets.gate_instances"] += len(args[0].gates)


def _lp_cols(c, args, kwargs, result):
    c["ising_kernel.lp_cols"] += args[0].num_vars


def _feasible(c, args, kwargs, result):
    c["ising_kernel.feasible"] += bool(result.feasible)


#: (span name, owner, attribute, work counter).  One name may cover
#: several functions: ``gadgets.build`` is the four GATE_BUILDERS and
#: ``ising_kernel.verify`` both exhaustive re-verifications.
ENTRY_POINTS = [
    ("cli.main", cli, "main", None),
    ("expr.parse", expr, "parse", _parse_bytes),
    ("pbf.kernel", PB, "kernel", _cube_points),
    ("pbf.is_nonnegative", PB, "is_nonnegative", _cube_points),
    ("pbf.to_disjoint_form", PB, "to_disjoint_form", _cube_points),
    ("pbf.from_disjoint_form", PB, "from_disjoint_form", _table_points),
    ("pbf.mul", PB, "__mul__", None),
    ("symmetric.detect_symmetric", symmetric, "detect_symmetric", None),
    ("symmetric.canonical_to_power", symmetric, "canonical_to_power", None),
    ("symmetric.factorize", symmetric, "factorize", _roots),
    ("symmetric.profile_to_pbf", symmetric, "profile_to_pbf", None),
    ("pauli.pbf_to_pauli", pauli, "pbf_to_pauli", None),
    ("pauli.apply", pauli.PauliSum, "apply", _term_amps),
    ("pauli.ising_form", pauli, "ising_form", None),
    ("stabilizer.projector_parent", stabilizer, "projector_parent", None),
    ("stabilizer.kernel_dimension", stabilizer, "kernel_dimension", None),
    ("stabilizer.apply_circuit", stabilizer, "apply_circuit", _gate_amps),
    ("gadgets.compose", gadgets, "compose", _gate_instances),
    ("gadgets.minimize_bruteforce", gadgets, "minimize_bruteforce", None),
    ("gadgets.support_parent", gadgets, "support_parent", None),
    ("gadgets.build", gadgets, "and_gadget", None),
    ("gadgets.build", gadgets, "or_gadget", None),
    ("gadgets.build", gadgets, "not_gadget", None),
    ("gadgets.build", gadgets, "xor_gadget", None),
    ("ising_kernel.quadratic_realizability", ising_kernel, "quadratic_realizability", _feasible),
    ("ising_kernel.simplex_solve", ising_kernel, "simplex_solve", _lp_cols),
    ("ising_kernel.verify", ising_kernel.QuadraticRealization, "verify", None),
    ("ising_kernel.verify", ising_kernel, "verify_infeasibility", None),
]

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in ENTRY_POINTS))

CUBE_CALLS = ("pbf.kernel", "pbf.is_nonnegative", "pbf.to_disjoint_form", "pbf.from_disjoint_form")

#: derived per-layer metrics beside each entry point's calls/busy_s/self_s/errors
EXTRA_METRICS = [
    ("expr.parse.bytes", "bytes", "lower"),
    ("pbf.points", "count", "lower"),
    ("pbf.points_per_s", "1/s", "higher"),
    ("symmetric.exact_roots", "count", "higher"),
    ("symmetric.numeric_roots", "count", "lower"),
    ("pauli.apply.term_amps", "count", "lower"),
    ("stabilizer.apply_circuit.gate_amps", "count", "lower"),
    ("gadgets.builds_per_gate", "ratio", "lower"),
    ("ising_kernel.lp_cols", "count", "lower"),
    ("ising_kernel.feasible_frac", "ratio", "higher"),
    ("trace.jobs", "count", "higher"),
    ("trace.overhead_jobs_per_s", "1/s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def per_layer_metric_specs() -> list:
    """(name, unit, better) of every metric the traced run reports."""
    specs = []
    for name in SPAN_NAMES:
        specs += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.busy_s", "s", "lower"),
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.errors", "count", "lower"),
        ]
    return specs + EXTRA_METRICS


def _pbkernel_namespaces() -> list:
    """Module objects of the package, where imported names live."""
    return [m for k, m in sorted(sys.modules.items()) if k == "pbkernel" or k.startswith("pbkernel.")]


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES}  # calls, busy, self, errors
        self.counts = Counter()
        self.job = -1
        self._stack = []  # [span id, child time] of open spans
        self._next_id = 0
        self._ids = array("q")
        self._names = array("H")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._jobs = array("q")
        self._patches = []  # (setter, original)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _pbkernel_namespaces()
        for name, owner, attr, count in ENTRY_POINTS:
            raw = vars(owner)[attr]
            is_cm = isinstance(raw, classmethod)
            wrapped = self._wrap(name, raw.__func__ if is_cm else raw, count)
            new = classmethod(wrapped) if is_cm else wrapped
            if isinstance(owner, type):
                # covers aliases such as PseudoBoolean.__rmul__ = __mul__
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        self._set(owner, key, new, raw)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._set(module, key, new, raw)
            for key, value in list(gadgets.GATE_BUILDERS.items()):
                if value is raw:
                    gadgets.GATE_BUILDERS[key] = new
                    self._patches.append((gadgets.GATE_BUILDERS.__setitem__, key, raw))

    def _set(self, owner, key, new, raw) -> None:
        setattr(owner, key, new)
        self._patches.append((functools.partial(setattr, owner), key, raw))

    def remove(self) -> None:
        while self._patches:
            setter, key, raw = self._patches.pop()
            setter(key, raw)

    def _wrap(self, name, fn, count):
        stat = self.stats[name]
        name_id = SPAN_NAMES.index(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                stat[0] += 1
                stat[1] += busy
                stat[2] += busy - frame[1]
                if stack:
                    stack[-1][1] += busy
                self._ids.append(span)
                self._names.append(name_id)
                self._starts.append(start)
                self._ends.append(end)
                self._parents.append(parent)
                self._jobs.append(self.job)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._ids)

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            span=np.frombuffer(self._ids, dtype=np.int64),
            name=np.frombuffer(self._names, dtype=np.uint16),
            start=np.frombuffer(self._starts, dtype=np.float64),
            end=np.frombuffer(self._ends, dtype=np.float64),
            parent=np.frombuffer(self._parents, dtype=np.int64),
            job=np.frombuffer(self._jobs, dtype=np.int64),
        )

    def metrics(self) -> dict:
        """Per-layer values by metric name (overhead and job count excluded)."""
        out = {}
        for name, (calls, busy, self_s, errors) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy
            out[f"{name}.self_s"] = self_s
            out[f"{name}.errors"] = errors
        c = self.counts
        cube_busy = sum(self.stats[n][1] for n in CUBE_CALLS)
        out["expr.parse.bytes"] = c["expr.parse.bytes"]
        out["pbf.points"] = c["pbf.points"]
        out["pbf.points_per_s"] = c["pbf.points"] / cube_busy if cube_busy else 0.0
        out["symmetric.exact_roots"] = c["symmetric.exact_roots"]
        out["symmetric.numeric_roots"] = c["symmetric.numeric_roots"]
        out["pauli.apply.term_amps"] = c["pauli.apply.term_amps"]
        out["stabilizer.apply_circuit.gate_amps"] = c["stabilizer.apply_circuit.gate_amps"]
        gates = c["gadgets.gate_instances"]
        out["gadgets.builds_per_gate"] = self.stats["gadgets.build"][0] / gates if gates else 0.0
        out["ising_kernel.lp_cols"] = c["ising_kernel.lp_cols"]
        decided = self.stats["ising_kernel.quadratic_realizability"][0]
        out["ising_kernel.feasible_frac"] = c["ising_kernel.feasible"] / decided if decided else 0.0
        return out
