"""tripletlab benchmark: wall time, set-up time and peak memory of whole training runs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pads-default --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One process does one training run at a time through `TrainLoop(cfg, out)`
and `.run()` (a closed loop with one client). With `--trace 0` it reports
the end-to-end metrics; with `--trace 1` it makes one traced run, whose
per-layer split comes from wrappers around the program's public names, and
untraced runs for the tracing overhead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload in both modes as child processes and
prints a table of every metric with its unit and sample count.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported, so that every run
# measures the same single-threaded numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, build_overrides  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: set-ups timed on their own before the runs, at least this many and for
#: at least SETUP_SECONDS (each run adds one more sample)
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
#: runs per invocation at least, the traced one included, so that run_s is a
#: median of three or more
MIN_RUNS = 3

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

#: per-layer metrics: name -> (unit, on the result line). The ones marked
#: False are zero by construction on a workload that bypasses their layer;
#: they are printed on the detail line but left out of the result line,
#: which lists only per-layer metrics that every workload measures.
LAYER_UNITS = {
    "samplers.select_s": ("s", True),
    "samplers.select_calls": ("count", True),
    "samplers.select_us_p50": ("us", True),
    "samplers.select_us_p99": ("us", True),
    "samplers.pmf_update_s": ("s", False),
    "samplers.fallback_ratio": ("ratio", True),
    "geometry.pairwise_s": ("s", True),
    "model.forward_s": ("s", True),
    "model.loss_s": ("s", True),
    "model.backward_s": ("s", True),
    "model.adam_s": ("s", True),
    "model.active_triplet_ratio": ("ratio", True),
    "metrics.evaluate_s": ("s", True),
    "metrics.evaluate_ms_p50": ("ms", True),
    "metrics.recall_s": ("s", True),
    "metrics.kmeans_nmi_s": ("s", True),
    "metrics.class_stats_s": ("s", True),
    "rl.state_s": ("s", False),
    "rl.policy_s": ("s", False),
    "rl.update_s": ("s", False),
    "rl.updates": ("count", True),
    "data.load_s": ("s", False),
    "data.generate_s": ("s", False),
    "data.rows": ("count", True),
    "trainer.self_s": ("s", True),
    "trace.overhead_s": ("s", True),
}


# ---- the program under test and its environment ----

def import_program():
    """Import tripletlab from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import tripletlab
    except ImportError as exc:
        raise SystemExit(f"cannot import tripletlab from {SRC}: {exc}") from None
    where = Path(tripletlab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"tripletlab resolves to {where}, outside {SRC}; refusing to measure it")
    return tripletlab


def _blas_info(np) -> dict | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return None
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(tripletlab, load_at_start) -> dict:
    import numpy as np

    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "git_commit": _git_commit(),
        "tripletlab_file": tripletlab.__file__,
    }


# ---- output checks ----

def check_outputs(out_dir: Path, cfg, r1_floor: float) -> list:
    """Problems found in one finished run's artifacts; an empty list means the run is correct."""
    problems = []
    episodes = cfg.train.total_iterations // cfg.train.m
    summary = json.loads((out_dir / "summary.json").read_text())
    if summary["episodes"] != episodes:
        problems.append(f"summary.json episodes {summary['episodes']} != {episodes}")
    rows = (out_dir / "metrics.csv").read_text().splitlines()
    if len(rows) != episodes + 1:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {episodes + 1}")
    for lineno, row in enumerate(rows[1:], start=2):
        values = [float(x) for x in row.split(",")]
        if len(values) != 8 or not all(math.isfinite(v) for v in values):
            problems.append(f"metrics.csv line {lineno} is not 8 finite values: {row}")
    if cfg.sampler.kind == "pads":
        lines = (out_dir / "pmf.jsonl").read_text().splitlines()
        if len(lines) != episodes:
            problems.append(f"pmf.jsonl has {len(lines)} lines, expected {episodes}")
        for lineno, line in enumerate(lines, start=1):
            snap = json.loads(line)
            k = cfg.pmf.k
            if len(snap["p"]) != k or len(snap["edges"]) != k + 1 or abs(sum(snap["p"]) - 1.0) > 1e-9:
                problems.append(f"pmf.jsonl line {lineno}: need {k} probabilities summing to 1 and {k + 1} edges")
    r1 = summary["final"]["r1"]
    if r1 < r1_floor:
        problems.append(f"final R@1 {r1} is below the floor {r1_floor}")
    return problems


# ---- measuring ----

def one_run(TrainLoop, cfg, out_dir: Path, tracer=None) -> tuple[float, float]:
    """(setup seconds, run seconds) of one training run; traced when a tracer is given."""
    gc.collect()
    if tracer is None:
        start = time.perf_counter()
        loop = TrainLoop(cfg, out_dir)
        built = time.perf_counter()
        loop.run()
        done = time.perf_counter()
        return built - start, done - built
    with tracing.installed(tracer):
        with tracer.block("setup") as setup_span:
            loop = TrainLoop(cfg, out_dir)
        with tracer.block("run") as run_span:
            loop.run()
    return tracer.duration(setup_span), tracer.duration(run_span)


def time_setups(TrainLoop, cfg, out_dir: Path) -> list:
    """Wall times of `TrainLoop(cfg, out_dir)` alone, SETUP_REPEATS or more, for SETUP_SECONDS or more."""
    setups = []
    started = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - started < SETUP_SECONDS:
        gc.collect()
        start = time.perf_counter()
        loop = TrainLoop(cfg, out_dir)
        setups.append(time.perf_counter() - start)
        del loop
    return setups


def checked_run(TrainLoop, cfg, out_dir: Path, r1_floor: float, tracer=None) -> dict:
    """One run plus its output checks; an exception counts as a failed run."""
    record = {"traced": tracer is not None}
    try:
        record["setup_s"], record["run_s"] = one_run(TrainLoop, cfg, out_dir, tracer)
        summary = json.loads((out_dir / "summary.json").read_text())
        record["r1"] = summary["final"]["r1"]
        record["nmi"] = summary["final"]["nmi"]
        record["metrics_csv_sha256"] = hashlib.sha256((out_dir / "metrics.csv").read_bytes()).hexdigest()
        record["problems"] = check_outputs(out_dir, cfg, r1_floor)
    except Exception as exc:  # a crashed run is a failed operation, not a crashed benchmark
        traceback.print_exc()
        record["problems"] = [f"{type(exc).__name__}: {exc}"]
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def percentile(values, pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def layer_metrics(tracer: tracing.Tracer, untraced_run_s: float) -> dict:
    """name -> (value, sample count) for every per-layer metric of one traced run."""
    spans = tracing.summarize(tracer)

    def op(name):
        return spans.get(name, {"self_s": 0.0, "calls": 0, "durations": []})

    select = op("samplers.select")
    evaluate = op("metrics.evaluate")
    run = op("run")
    counters = tracer.counters
    out = {
        "samplers.select_calls": (select["calls"], 1),
        "samplers.select_us_p50": (percentile(select["durations"], 50) * 1e6, select["calls"]),
        "samplers.select_us_p99": (percentile(select["durations"], 99) * 1e6, select["calls"]),
        "samplers.fallback_ratio": (counters["fallbacks"] / max(select["calls"], 1), select["calls"]),
        "model.active_triplet_ratio": (
            counters["active_triplets"] / max(counters["triplets"], 1),
            counters["triplets"],
        ),
        "metrics.evaluate_ms_p50": (percentile(evaluate["durations"], 50) * 1e3, evaluate["calls"]),
        "rl.updates": (op("rl.update")["calls"], 1),
        "data.rows": (counters["rows"], 1),
        "trainer.self_s": (run["self_s"], 1),
        "trace.overhead_s": (run["durations"][0] - untraced_run_s, 1),
    }
    for name in LAYER_UNITS:
        if name not in out:
            span = op(name.removesuffix("_s"))
            out[name] = (span["self_s"], span["calls"])
    return out


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> tuple[dict, dict]:
    """(result line, detail) for one invocation."""
    from tripletlab.config import config_from_flat
    from tripletlab.trainer import TrainLoop

    flat = build_overrides(workload, seed, work_dir)
    cfg, _ = config_from_flat(flat)
    # a one-episode run of the same config loads code paths and caches before timing
    warm_cfg, _ = config_from_flat(dict(flat, **{"train.total_iterations": str(cfg.train.m)}))
    one_run(TrainLoop, warm_cfg, work_dir / "warmup")
    shutil.rmtree(work_dir / "warmup", ignore_errors=True)

    setups = [] if trace else time_setups(TrainLoop, cfg, work_dir / "setup")
    deadline = time.perf_counter() + seconds
    tracer = tracing.Tracer() if trace else None
    runs = [checked_run(TrainLoop, cfg, work_dir / "run0", workload.r1_floor, tracer)] if trace else []
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        runs.append(checked_run(TrainLoop, cfg, work_dir / f"run{len(runs)}", workload.r1_floor))

    # every run of one seed must write the same metrics.csv bytes, traced or not
    hashes = [r["metrics_csv_sha256"] for r in runs if "metrics_csv_sha256" in r]
    for record in runs:
        if "metrics_csv_sha256" in record and record["metrics_csv_sha256"] != hashes[0]:
            record["problems"].append("metrics.csv differs from the first run of this seed")
    failed = sum(1 for r in runs if r["problems"])
    untraced = [r for r in runs if not r["traced"] and "run_s" in r]
    detail = {"workload": workload.name, "seed": seed, "trace": int(trace), "runs": runs}
    metrics = {}
    if untraced:
        run_q = quartiles([r["run_s"] for r in untraced])
        detail["run_s"] = run_q
    if untraced and not trace:
        setup_q = quartiles(setups + [r["setup_s"] for r in untraced])
        detail["setup_s"] = setup_q
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        metrics = {
            "setup_s": {"value": setup_q["median"], "unit": "s"},
            "run_s": {"value": run_q["median"], "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    if untraced and trace and "run_s" in runs[0]:
        layers = layer_metrics(tracer, run_q["median"])
        detail["layers"] = {
            name: {"value": value, "unit": LAYER_UNITS[name][0], "n": n} for name, (value, n) in layers.items()
        }
        metrics = {
            name: {"value": value, "unit": LAYER_UNITS[name][0]}
            for name, (value, _) in layers.items()
            if LAYER_UNITS[name][1]
        }
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


# ---- the one-command report ----

def report(seed: int, seconds: int) -> int:
    """Run every benchmark workload untraced and traced in child processes; print one table."""
    names = [name for name in WORKLOADS if name != "smoke"]
    rows = []
    all_ok = True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                all_ok = False
                continue
            result = json.loads(lines[-1])
            detail = json.loads(next(ln for ln in lines if ln.startswith("detail ")).removeprefix("detail "))
            all_ok &= result["correct"]
            rows.append((name, trace, result, detail))
    print(f"{'workload':<15} {'metric':<28} {'value':>12} {'unit':<6} samples")
    for name, trace, result, detail in rows:
        if trace == 0:
            for metric, unit in END_TO_END_UNITS.items():
                value = result["metrics"][metric]["value"]
                n = detail[metric]["n"] if metric in detail else 1
                spread = (f"median of {n}, q1 {detail[metric]['q1']:.4g}, q3 {detail[metric]['q3']:.4g}"
                          if metric in detail else "process peak")
                print(f"{name:<15} {metric:<28} {value:>12.5g} {unit:<6} {spread}")
        else:
            for metric, entry in detail["layers"].items():
                print(f"{name:<15} {metric:<28} {entry['value']:>12.5g} {entry['unit']:<6} n={entry['n']}")
        checks = "; ".join(p for r in detail["runs"] for p in r["problems"]) or "all passed"
        r1 = [round(r["r1"], 4) for r in detail["runs"] if "r1" in r]
        nmi = [round(r["nmi"], 4) for r in detail["runs"] if "nmi" in r]
        print(f"{name:<15} trace={trace}: {result['attempted']} runs, {result['failed']} failed; "
              f"R@1 {r1}; NMI {nmi}; output checks: {checks}")
    for name, trace, result, detail in rows:
        if trace == 1:
            overhead = detail["layers"]["trace.overhead_s"]["value"]
            print(f"tracing overhead {name}: {overhead:+.3f} s over an untraced median of "
                  f"{detail['run_s']['median']:.3f} s (n={detail['run_s']['n']})")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_at_start = os.getloadavg()
    tripletlab = import_program()
    if args.workload == "all":
        return report(args.seed, args.seconds)

    work_dir = WORK_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        print("env " + json.dumps(environment(tripletlab, load_at_start)))
        result, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # other invocations still own directories in it
            pass
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
