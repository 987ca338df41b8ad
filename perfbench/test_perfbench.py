"""Tests of the benchmark itself; run from the repository root with
`python3 -m pytest perfbench` (about a minute)."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Span, layer_totals, self_times, untraced  # noqa: E402

SPEC = run.load_spec()
REFERENCE = run.load_reference()

# Each perturbation is far below anything a reader of the artifacts would
# notice and far above the gate tolerances.
PERTURB = {
    "dist_lithium": lambda ref: ref.update(s=ref["s"] * (1 + 1e-6)),
    "protocol_n40": lambda ref: ref.update(retained_mass=ref["retained_mass"] * (1 + 1e-6)),
    "spectrum_n40": lambda ref: ref.update(vhop_erec=ref["vhop_erec"] * (1 + 1e-6)),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One gated operation of every workload: name -> (Op, output dir)."""
    done = {}
    for name in run.WORKLOADS:
        runner = run.Runner(name, 0, tmp_path_factory.mktemp(name), REFERENCE[name])
        done[name] = (runner.op(), runner.out)
    return done


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_workload_runs_one_operation(outputs, name):
    op, _ = outputs[name]
    assert op.problems == []
    assert op.wall_s > 0 and op.cpu_s > 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_gate_rejects_perturbed_reference(outputs, name):
    _, out = outputs[name]
    ref = copy.deepcopy(REFERENCE[name])
    PERTURB[name](ref)
    assert run.WORKLOADS[name].check(out, ref) != []


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_gate_rejects_a_call_that_writes_nothing(outputs, name, tmp_path, monkeypatch):
    """Correct artifacts left by an earlier call must not pass a call that
    exits 0 without writing any."""
    runner = run.Runner(name, 0, tmp_path, REFERENCE[name])
    shutil.copytree(outputs[name][1], runner.out)
    monkeypatch.setattr(runner.cli, "main", lambda argv: 0)
    assert runner.op().problems != []


def _result(*args: str, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_prints_with_its_unit(trace, section):
    code, lines = _result("--workload", "dist_lithium", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "env" in json.loads(lines[-2])


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _result("--workload", "dist_lithium", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert lines == []


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(REFERENCE) == set(run.WORKLOADS)
    predictions = json.loads((HERE / "predictions.json").read_text())["predictions"]
    predicted = [m for p in predictions for m in p["metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in SPEC["per_layer"])
    for p in predictions:
        assert set(p["workloads"]) | set(p["unmoved"]) <= set(run.WORKLOADS)
        assert set(p["moves"]) <= {m["name"] for m in SPEC["end_to_end"]}


def test_self_time_subtracts_child_spans():
    spans = [
        Span("cli.cmd_dist", "a", None, 1.0, 10.0),
        Span("two_atom.diagonalize", "b", "a", 2.0, 5.0, {"dim": 625}),
        Span("distributions.thermal_momentum_joint", "c", "a", 5.0, 9.0),
        Span("distributions.momentum_grid", "d", "c", 6.0, 7.0),
        Span("distributions.momentum_grid", "e", "c", 7.0, 8.5),
    ]
    assert self_times(spans) == {"a": 2.0, "b": 3.0, "c": 1.5, "d": 1.0, "e": 1.5}
    totals = layer_totals(spans)
    assert totals["distributions.momentum_grid.self_s"] == 2.5
    assert totals["distributions.momentum_grid.calls"] == 2
    assert totals["two_atom.diagonalize.dim"] == 625
    assert untraced(spans, 0.0, 10.5) == 1.5
