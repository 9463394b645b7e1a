"""Self-test of the benchmark at toy sizes.

Run from the root of the checkout::

    python3 -m pytest -q perfbench

Every workload runs in both modes at toy sizes, every checker must flag
a deliberately corrupted answer, and the command keeps its output
contract.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess

import pytest

import run

run.load_pbkernel()

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pbkernel.gadgets import MinimizeResult  # noqa: E402
from pbkernel.pbf import NonNegativity  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy_pool(workload, tmp_path, seed=3):
    return workloads.build(workload, seed, tmp_path, toy=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_run_untraced(workload, tmp_path):
    samples, failures = run.run_jobs(toy_pool(workload, tmp_path), seconds=0)
    assert failures == []
    assert samples and all(s.ok and not s.traced for s in samples)
    jobs_per_s, p50, cpu = run.cycle_summary(samples, [j.label for j in toy_pool(workload, tmp_path)[0]])
    assert jobs_per_s > 0 and p50 > 0 and cpu > 0


ENUM_CALLS = {
    "pbf.kernel", "pbf.is_nonnegative", "pbf.to_disjoint_form", "pbf.from_disjoint_form",
    "symmetric.detect_symmetric", "symmetric.profile_to_pbf", "gadgets.minimize_bruteforce",
}
REALIZE_CALLS = {"ising_kernel.quadratic_realizability", "ising_kernel.simplex_solve", "ising_kernel.verify"}
#: entry points each workload's traced pass must reach
EXPECTED_CALLS = {
    "enum": ENUM_CALLS,
    "realize": REALIZE_CALLS,
    "cli-mix": set(tracing.SPAN_NAMES) - {"pbf.from_disjoint_form", "symmetric.profile_to_pbf"},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_run_traced(workload, tmp_path):
    tracer = tracing.Tracer()
    samples, failures = run.run_jobs(toy_pool(workload, tmp_path), seconds=0, tracer=tracer)
    assert failures == []
    assert {s.traced for s in samples} == {False, True}
    values = tracer.metrics()
    names = {name for name, _, _ in tracing.per_layer_metric_specs()}
    assert names - set(values) == {"trace.jobs", "trace.overhead_jobs_per_s", "trace.overhead_frac"}
    assert tracer.span_count > 0
    called = {name for name in tracing.SPAN_NAMES if values[f"{name}.calls"]}
    assert called == EXPECTED_CALLS[workload]
    if workload == "cli-mix":
        assert values["cli.main.calls"] == sum(s.traced for s in samples)
        assert values["gadgets.builds_per_gate"] == 3.0
    if workload == "enum":
        assert values["pbf.points"] > 0
    if workload == "realize":
        assert values["ising_kernel.quadratic_realizability.calls"] == sum(s.traced for s in samples)
        assert 0 < values["ising_kernel.feasible_frac"] < 1


def test_census_reaches_every_entry_point(tmp_path):
    tracer = tracing.Tracer()
    run.census(tracer, tmp_path)
    assert [name for name in tracing.SPAN_NAMES if tracer.stats[name][0] == 0] == []


def test_tracer_restores_every_patch():
    from pbkernel import expr, gadgets, pbf

    before = (expr.parse, pbf.PseudoBoolean.__mul__, pbf.PseudoBoolean.__rmul__, dict(gadgets.GATE_BUILDERS))
    tracer = tracing.Tracer()
    tracer.install()
    assert expr.parse is not before[0] and pbf.PseudoBoolean.__rmul__ is not before[2]
    assert gadgets.GATE_BUILDERS["and"] is not before[3]["and"]
    x = expr.parse("x1*x2 - 2*x1")
    assert x * x == x * x
    tracer.remove()
    after = (expr.parse, pbf.PseudoBoolean.__mul__, pbf.PseudoBoolean.__rmul__, dict(gadgets.GATE_BUILDERS))
    assert after == before
    assert tracer.stats["expr.parse"][0] == 1 and tracer.stats["pbf.mul"][0] >= 3


def test_self_time_excludes_wrapped_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from pbkernel import expr

        expr.parse(" + ".join(f"x{i}*x{i + 1}" for i in range(1, 40)))
    finally:
        tracer.remove()
    calls, busy, self_s, _ = tracer.stats["expr.parse"]
    assert calls == 1 and 0 < self_s < busy
    assert busy - self_s == pytest.approx(tracer.stats["pbf.mul"][1], rel=1e-6)


# -- each checker flags a corrupted answer ------------------------------------


def corrupt(workload, label, result):
    """A wrong answer of the same shape as ``result``."""
    if workload == "enum":
        op = label.split("-", 1)[1]
        if op == "kernel":
            return set(list(result)[1:]) if result else {(0,) * int(label[1:].split("-")[0])}
        if op == "nonneg":
            return NonNegativity(not result.ok, None)
        if op == "minimize":
            return MinimizeResult(result.value, frozenset(list(result.argmin)[1:]))
        if op.startswith("detect"):
            res, rebuilt = result
            if res.profile is None:
                return res._replace(witness=(res.witness[0], res.witness[0])), rebuilt
            return res, rebuilt + 1
        table, back = result
        return [table[0] + 1] + list(table[1:]), back
    if workload == "realize":
        if result.feasible:
            return dataclasses.replace(result, constant=result.constant + 1)
        cert = [(b, 2 * m if i == 0 else m) for i, (b, m) in enumerate(result.certificate)]
        return dataclasses.replace(result, certificate=cert)
    code, out, err = result
    p = json.loads(out)
    kind = label.split("-")[0]
    if kind == "pbf":
        key = {"kernel": "kernel", "eval": "value", "nonneg": "nonnegative", "pauli": "terms"}[label.split("-")[1]]
        p[key] = {"kernel": lambda v: v[1:] + ["1" * 9], "value": lambda v: v + "1",
                  "nonnegative": lambda v: not v, "terms": lambda v: v[1:]}[key](p[key])
    elif kind == "sym" and "profile" in label:
        p["symmetric"] = not p["symmetric"]
    elif kind == "sym":
        p["exact_roots"] = p["exact_roots"][1:] + ["1/7"]
    elif kind == "clifford":
        p["verify"]["ok"] = False
    elif kind == "support":
        p["support"] = p["support"][1:]
    elif kind == "ghz":
        p["kernel"] = p["kernel"][:1]
    elif kind == "gadget":
        p["argmin"] = p["argmin"][1:]
    elif kind == "ising":
        p["feasible"] = not p["feasible"]
        p.setdefault("certificate", [["0" * 3, "1"]])
        p.setdefault("c0", "1")
        p.setdefault("h", ["0"] * 8)
        p.setdefault("J", [])
    return code, json.dumps(p), err


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checkers_flag_corrupted_answers(workload, tmp_path):
    for job in toy_pool(workload, tmp_path)[0]:
        result = job.run()
        job.check(result)
        with pytest.raises(oracle.CheckFailed):
            job.check(corrupt(workload, job.label, result))


def test_cli_checker_flags_exit_code_and_bad_json(tmp_path):
    job = toy_pool("cli-mix", tmp_path)[0][0]
    code, out, err = job.run()
    with pytest.raises(oracle.CheckFailed):
        job.check((2, out, "error: boom"))
    with pytest.raises(oracle.CheckFailed):
        job.check((0, out[:-3], err))


def test_realize_checker_flags_flipped_known_verdict(tmp_path):
    for job in toy_pool("realize", tmp_path)[0]:
        if job.label.endswith(("pair", "subcube", "parity")):
            result = job.run()
            flipped = dataclasses.replace(result, feasible=not result.feasible, certificate=[], constant=0,
                                          fields=(0,) * 3, couplings={})
            with pytest.raises(oracle.CheckFailed):
                job.check(flipped)


def test_oracle_value_table_matches_direct_evaluation():
    terms = {0: 2, 0b1: -3, 0b110: 4, 0b111: -1}
    vals = oracle.value_table(3, terms)
    for mask in range(8):
        assert vals[mask] == oracle.eval_terms(terms, oracle.bits_of_mask(mask, 3))
    assert oracle.state_order(vals, 3).tolist()[0b100] == vals[0b001]


# -- the command's contract ---------------------------------------------------------


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == tracing.per_layer_metric_specs()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_command_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = BENCHMARK["command"] + ["--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert not (tmp_path / ".perfbench_run").exists()
