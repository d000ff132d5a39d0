"""Tests of the benchmark itself: short runs, planted failures, metric names."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# metrics of the layer functions ROADMAP items 2 and 3 plan to delete
# (`inertia`, `reflection_distances`); they may be reported absent
PLANNED_ABSENT = {"linalg.inertia_s", "reflen.bfs_s", "reflen.bfs_nodes",
                  "reflen.bfs_useful_ratio"}


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def _cheap(op):
    """Ops of a few tens of milliseconds at most."""
    if op["kind"] == "cli":
        return (op["slice"] in ("classify-rank3", "classify-rank4", "filling")
                or op["argv"][:2] == ["reflen", "--inline"] and "--word" in op["argv"])
    if op["kind"] == "ball":
        return op["L"] == 8           # the H3 ball, the cheapest of the three
    return op["expect"].get("len_r", op["expect"].get("upper")) <= 2


def _short_ops(workload, count=4):
    """The first cheap ops of the workload, led by those with a
    reflection-length result, so that `exact_frac` has a base."""
    ops = [op for op in workloads.make_ops(workload, 3) if _cheap(op)]
    return sorted(ops, key=lambda op: op.get("argv", ["reflen"])[0] != "reflen")[:count]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_of_each_workload(workload):
    context, result = run.run_benchmark(workload, 3, 1, False, ops=_short_ops(workload))
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == context["op_samples"] >= 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert context["commit"] is None or len(context["commit"]) == 40
    assert set(context["versions"]) == {"python", "numpy", "sympy"}


def test_traced_run_reports_every_layer_metric():
    context, result = run.run_benchmark("cli-batch", 3, 1, True,
                                        ops=_short_ops("cli-batch"))
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["per_layer"])
    assert set(context["absent_metrics"]) <= PLANNED_ABSENT
    assert context["rounds"]["traced"] >= 1
    assert result["metrics"]["cli.ops"]["value"] >= context["op_list"]


def test_layer_function_that_is_gone_is_reported_absent(monkeypatch):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import coxlen.cli  # noqa: F401  (the worker imports it before tracing)
    import coxlen.linalg
    import coxlen.reflen

    monkeypatch.delattr(coxlen.linalg, "inertia")
    monkeypatch.delattr(coxlen.reflen, "reflection_distances")
    det = coxlen.linalg.det
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert coxlen.linalg.det is not det
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert coxlen.linalg.det is det
    assert {name for name, value in metrics.items() if value is None} == PLANNED_ABSENT
    assert metrics["linalg.det_calls"] == 0


def test_planted_failures_make_the_run_incorrect():
    ops = _short_ops("element-solve", 2)
    wrong_exit = {"id": "planted/exit", "kind": "cli", "slice": "planted", "expect": 1,
                  "argv": ["classify", "--inline", "rank 3; m12=3 m23=3"]}
    wrong_value = dict(ops[0], id="planted/value",
                       expect=dict(ops[0]["expect"], len_r=ops[0]["expect"]["len_r"] + 2))
    # a CoxlenError (InputError) leaves the op without its expected output
    refused = dict(ops[0], id="planted/refused", matrix="rank 3; m14=3")
    context, result = run.run_benchmark("element-solve", 3, 1, False,
                                        ops=ops + [wrong_exit, wrong_value, refused])
    planted = {"planted/exit", "planted/value", "planted/refused"}
    assert {op_id for op_id, _, _ in context["failed_ops"]} == planted
    # every round fails them again
    assert result["failed"] == 3 * context["rounds"]["untraced"]
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - 3 / (len(ops) + 3))


def test_times_are_scaled_by_the_probes_around_them():
    ref = worker.PROBE_REF_S
    probes = [ref] * 4 + [2 * ref] * 8      # the host halves its speed
    assert worker.speed(probes, 0) == 1
    assert worker.speed(probes, 11) == 0.5
    assert worker.speed([], 0) == 1


def test_seeds_keep_the_cost_mix_but_change_the_inputs():
    def shape(op):
        return op["kind"], op.get("slice"), op.get("group"), op.get("expect")

    for workload in workloads.WORKLOADS:
        a, b = workloads.make_ops(workload, 11), workloads.make_ops(workload, 12)
        assert [shape(op) for op in a] == [shape(op) for op in b]
        assert a != b


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable] + SPEC["command"][1:] + [
        "--workload", "cli-batch", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
