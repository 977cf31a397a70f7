"""Tests of the benchmark itself: span self time, name restoration, output contract, smoke runs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, build_overrides  # noqa: E402

from tripletlab.config import config_from_flat  # noqa: E402
from tripletlab.trainer import TrainLoop  # noqa: E402


def smoke_cfg(tmp_path, seed=0):
    cfg, _ = config_from_flat(build_overrides(WORKLOADS["smoke"], seed, tmp_path))
    return cfg


def wrapped_objects():
    return {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in tracing.targets()}


def test_self_time_subtracts_nested_children():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    adam = tracer.wrap("model.adam", lambda: None)

    def update_body():
        adam()
        adam()

    update = tracer.wrap("rl.update", update_body)
    with tracer.block("run"):  # opens at t=0
        update()  # 1..6, with Adam steps at 2..3 and 4..5
        adam()  # 7..8
    # run closes at t=9
    summary = tracing.summarize(tracer)
    assert summary["run"]["self_s"] == 9 - 5 - 1
    assert summary["rl.update"]["self_s"] == 5 - 2
    assert summary["model.adam"] == {"self_s": 3.0, "calls": 3, "durations": [1.0, 1.0, 1.0]}
    assert sum(entry["self_s"] for entry in summary.values()) == 9


def test_traced_run_splits_time_and_restores_every_name(tmp_path):
    cfg = smoke_cfg(tmp_path)
    before = wrapped_objects()
    tracer = tracing.Tracer()
    setup_s, run_s = run.one_run(TrainLoop, cfg, tmp_path / "traced", tracer)
    assert wrapped_objects() == before
    assert all(vars(owner)[attr] is obj for (owner, attr), obj in before.items())

    # self times of all spans add up to the two top-level spans
    summary = tracing.summarize(tracer)
    assert sum(entry["self_s"] for entry in summary.values()) == pytest.approx(setup_s + run_s, abs=1e-9)
    # the policy's Adam steps nest inside rl.update and are subtracted from its self time
    nested = [
        name for name, parent in zip(tracer.names, tracer.parents)
        if name == "model.adam" and parent >= 0 and tracer.names[parent] == "rl.update"
    ]
    assert len(nested) == summary["rl.update"]["calls"] > 0
    anchors = cfg.train.classes_per_batch * cfg.train.samples_per_class
    assert summary["samplers.select"]["calls"] == cfg.train.total_iterations * anchors
    assert summary["data.generate"]["calls"] == 1

    # an untraced run afterwards records nothing
    n_spans = len(tracer.names)
    run.one_run(TrainLoop, cfg, tmp_path / "untraced")
    assert len(tracer.names) == n_spans


def test_names_restored_when_the_traced_block_raises():
    before = wrapped_objects()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert wrapped_objects() != before
            raise RuntimeError("boom")
    assert wrapped_objects() == before


def test_output_checks_catch_broken_artifacts(tmp_path):
    cfg = smoke_cfg(tmp_path)
    out = tmp_path / "run"
    run.one_run(TrainLoop, cfg, out)
    assert run.check_outputs(out, cfg, r1_floor=0.0) == []
    assert run.check_outputs(out, cfg, r1_floor=1.01)  # the floor is enforced

    rows = (out / "metrics.csv").read_text().splitlines()
    fields = rows[-1].split(",")
    fields[1] = "nan"
    (out / "metrics.csv").write_text("\n".join(rows[:-1] + [",".join(fields)]) + "\n")
    pmf = (out / "pmf.jsonl").read_text().splitlines()
    snap = json.loads(pmf[0])
    snap["p"][0] += 0.01
    (out / "pmf.jsonl").write_text("\n".join([json.dumps(snap)] + pmf[1:-1]) + "\n")
    problems = run.check_outputs(out, cfg, r1_floor=0.0)
    assert any("finite" in p for p in problems)
    assert any("pmf.jsonl line 1" in p for p in problems)
    assert any("pmf.jsonl has" in p for p in problems)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    reported = {name: unit for name, (unit, listed) in run.LAYER_UNITS.items() if listed}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == [n for n in WORKLOADS if n != "smoke"]
    assert spec["command"] == ["python3", "perfbench/run.py"]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_workload_end_to_end(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    detail = json.loads(next(ln for ln in proc.stdout.splitlines() if ln.startswith("detail "))[7:])
    assert len({r["metrics_csv_sha256"] for r in detail["runs"]}) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pads-default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
