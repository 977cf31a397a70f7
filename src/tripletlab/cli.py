"""Command-line front end.

Subcommands:
  run        one training run from a config file plus overrides
  compare    sampler list x seeds, shared data split, medians table
  sweep      one config key over a value list x seeds, medians table
  transfer   train a teacher, then its frozen policy and final PMF against
             pads and random on regenerated data, medians table
  gen-data   write a synthetic dataset CSV
  plot-data  flatten a run's pmf.jsonl into long-format CSV for heatmaps

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from .config import ConfigError, config_from_flat, config_to_flat, load_config
from .data import generate_synthetic, save_dataset
from .trainer import train


def _overrides_from_args(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError([f"override {pair!r} is not key=value"])
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _build_config(args):
    overrides = _overrides_from_args(args.set)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    cfg, warns = load_config(args.config, overrides)
    for w in warns:
        print(f"warning: {w}", file=sys.stderr)
    return cfg


def _with_overrides(cfg, overrides: dict):
    flat = config_to_flat(cfg)
    flat.update({k: str(v) for k, v in overrides.items()})
    rebuilt, _ = config_from_flat(flat)
    return rebuilt


def _run_dir_name(sampler: str, seed: int) -> str:
    return f"{sampler}-s{seed}"


def cmd_run(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out) if args.out else Path("runs") / _run_dir_name(cfg.sampler.kind, cfg.seed)
    summary = train(cfg, out)
    print(json.dumps(summary, indent=2))
    return 0


def _final_metrics(summary: dict) -> tuple[float, float]:
    return summary["final"]["r1"], summary["final"]["nmi"]


def _block_configs(cfg, variants: dict, n_seeds: int) -> tuple:
    """Build the config of every (variant, seed) run, seeds counting up from cfg.seed.

    variants maps each variant's name to its config overrides. Building a
    config validates it, so an invalid run anywhere in the block raises
    ConfigError before anything trains. Returns the seeds and a map
    (variant, seed) -> config.
    """
    if n_seeds < 1:
        raise ConfigError([f"--seeds must be at least 1, got {n_seeds}"])
    seeds = range(cfg.seed, cfg.seed + n_seeds)
    runs = {
        (name, seed): _with_overrides(cfg, {**overrides, "seed": seed})
        for name, overrides in variants.items()
        for seed in seeds
    }
    return seeds, runs


def _train_runs(runs: dict, out: Path, run_dir) -> dict:
    """Train each config into out / run_dir(*key); map each key to (final R@1, final NMI)."""
    out.mkdir(parents=True, exist_ok=True)
    return {key: _final_metrics(train(run_cfg, out / run_dir(*key))) for key, run_cfg in runs.items()}


def _medians(values: list, seeds, finals: dict) -> list:
    """(value, median final R@1, median final NMI) for each value, over its seed block."""
    return [
        (value, *(statistics.median(finals[value, seed][i] for seed in seeds) for i in (0, 1)))
        for value in values
    ]


def _write_table(path: Path, rows: list, name: str, medians: list) -> None:
    """Write the CSV rows, print the table's path, then the median rows as a text table."""
    path.write_text("\n".join(rows) + "\n")
    print(path)
    width = max(len(name), *(len(value) for value, _, _ in medians))
    print(f"{name:<{width}}  final R@1  final NMI")
    for value, r1, nmi in medians:
        print(f"{value:<{width}}  {r1:9.4f}  {nmi:9.4f}")


def _block_table(path: Path, name: str, keys: list, seeds, finals: dict) -> None:
    """Write every run's row, then one median row per key, and print the medians.

    A key listed twice gets its rows twice; its runs were trained once.
    """
    rows = [f"{name},seed,final_r1,final_nmi"]
    for key in keys:
        for seed in seeds:
            r1, nmi = finals[key, seed]
            rows.append(f"{key},{seed},{r1!r},{nmi!r}")
    medians = _medians(keys, seeds, finals)
    rows += [f"{key},median,{r1!r},{nmi!r}" for key, r1, nmi in medians]
    _write_table(path, rows, name, medians)


def cmd_compare(args) -> int:
    cfg = _build_config(args)
    samplers = [s.strip() for s in args.samplers.split(",") if s.strip()]
    if len(samplers) < 2:
        raise ConfigError(["compare needs at least 2 sampler kinds"])
    seeds, runs = _block_configs(cfg, {s: {"sampler.kind": s} for s in samplers}, args.seeds)
    out = Path(args.out)
    finals = _train_runs(runs, out, _run_dir_name)
    _block_table(out / "comparison.csv", "sampler", samplers, seeds, finals)
    return 0


def cmd_sweep(args) -> int:
    cfg = _build_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError(["sweep needs at least one value"])
    if args.param == "seed":
        # every run's seed comes from its seed block, which would override the swept value
        raise ConfigError(
            ["sweep cannot sweep seed; give the first seed with --seed and the count with --seeds"]
        )
    seeds, runs = _block_configs(cfg, {v: {args.param: v} for v in values}, args.seeds)

    def run_dir(value: str, seed: int) -> str:
        tag = value.replace("/", "_").replace(":", "_").replace(",", "+")
        return f"{args.param}={tag}-s{seed}"

    out = Path(args.out)
    finals = _train_runs(runs, out, run_dir)
    rows = [f"{args.param},seed,final_r1,final_nmi"]
    medians = _medians(values, seeds, finals)
    for value, med_r1, med_nmi in medians:
        for seed in seeds:
            r1, nmi = finals[value, seed]
            rows.append(f"{value},{seed},{r1!r},{nmi!r}")
        rows.append(f"{value},median,{med_r1!r},{med_nmi!r}")
    _write_table(out / "sweep.csv", rows, args.param, medians)
    return 0


def cmd_transfer(args) -> int:
    cfg = _build_config(args)
    out = Path(args.out)
    teacher_dir = out / "teacher"
    teacher = _with_overrides(cfg, {"seed": args.teacher_seed})
    # only a pads run that learns its own policy writes the policy.json the students load
    if (
        teacher.sampler.kind != "pads"
        or teacher.transfer.mode != "none"
        or teacher.rl.algorithm == "frozen-identity"
    ):
        raise ConfigError([
            "the transfer teacher must write policy.json, so it needs sampler.kind=pads, "
            "transfer.mode=none and an rl.algorithm other than frozen-identity; got "
            f"{teacher.sampler.kind}, {teacher.transfer.mode} and {teacher.rl.algorithm}"
        ])
    variants = {
        "fixed-policy": {
            "transfer.mode": "fixed-policy",
            "transfer.policy_path": teacher_dir / "policy.json",
        },
        "fixed-final-pmf": {
            "transfer.mode": "fixed-final-pmf",
            "transfer.pmf_path": teacher_dir / "final_pmf.json",
        },
        "pads": {},
        "random": {"sampler.kind": "random"},
    }
    students = _with_overrides(cfg, {"data.seed": args.student_data_seed})
    # the teacher's files do not exist yet, and validation does not look for them
    seeds, runs = _block_configs(students, variants, args.seeds)
    train(teacher, teacher_dir)
    finals = _train_runs(runs, out, _run_dir_name)
    _block_table(out / "transfer.csv", "variant", list(variants), seeds, finals)
    return 0


def cmd_gen_data(args) -> int:
    try:
        dataset = generate_synthetic(
            args.classes, args.per_class, args.dim, args.spread, args.std, args.seed
        )
    except ValueError as exc:  # generate_synthetic checks its arguments
        raise ConfigError([str(exc)]) from None
    save_dataset(dataset, args.out)
    print(f"{args.out}: {dataset.n} rows, {dataset.n_classes} classes, dim {dataset.input_dim}")
    return 0


def cmd_plot_data(args) -> int:
    run_dir = Path(args.run)
    src = run_dir / "pmf.jsonl"
    if not src.exists():
        print(f"no PMF stream in {run_dir} (static sampler run)")
        return 0
    rows = ["episode,bin_center,probability"]
    for lineno, line in enumerate(src.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            snap = json.loads(line)
            edges = snap["edges"]
            probs = snap["p"]
            episode = snap["episode"]
        except (json.JSONDecodeError, KeyError) as exc:
            raise RuntimeError(f"{src}:{lineno}: corrupt PMF snapshot ({exc})") from None
        if len(edges) != len(probs) + 1:
            raise RuntimeError(f"{src}:{lineno}: {len(edges)} edges for {len(probs)} bins")
        for lo, hi, p in zip(edges[:-1], edges[1:], probs):
            rows.append(f"{episode},{(lo + hi) / 2!r},{p!r}")
    dest = Path(args.out) if args.out else run_dir / "pmf_long.csv"
    dest.write_text("\n".join(rows) + "\n")
    print(dest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripletlab", description="triplet metric learning lab with adaptive negative sampling"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
        p.add_argument("--seed", type=int, help="shorthand for --set seed=N")

    p_run = sub.add_parser("run", help="execute one training run")
    add_config_args(p_run)
    p_run.add_argument("--out", help="run directory (default runs/<sampler>-s<seed>)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="sampler comparison over shared data")
    add_config_args(p_cmp)
    p_cmp.add_argument("--samplers", required=True, help="comma-separated sampler kinds (>= 2)")
    p_cmp.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    p_cmp.add_argument("--out", required=True, help="directory for runs and comparison.csv")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="sweep one config key over values")
    add_config_args(p_sweep)
    p_sweep.add_argument("--param", required=True, help="config key to sweep, e.g. pmf.k")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--seeds", type=int, default=1)
    p_sweep.add_argument("--out", required=True, help="directory for runs and sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_tr = sub.add_parser(
        "transfer", help="teacher's frozen policy and final PMF against pads and random"
    )
    add_config_args(p_tr)
    p_tr.add_argument("--teacher-seed", type=int, default=0, help="seed of the teacher run")
    p_tr.add_argument("--student-data-seed", type=int, default=1,
                      help="data.seed of the students' regenerated dataset")
    p_tr.add_argument("--seeds", type=int, default=3, help="student seeds per variant")
    p_tr.add_argument("--out", default="runs/transfer",
                      help="directory for teacher/, the student runs and transfer.csv")
    p_tr.set_defaults(func=cmd_transfer)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--classes", type=int, default=8)
    p_gen.add_argument("--per-class", type=int, default=200)
    p_gen.add_argument("--dim", type=int, default=20)
    p_gen.add_argument("--spread", type=float, default=1.0)
    p_gen.add_argument("--std", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen_data)

    p_plot = sub.add_parser("plot-data", help="PMF progression as long-format CSV")
    p_plot.add_argument("--run", required=True, help="run directory containing pmf.jsonl")
    p_plot.add_argument("--out", help="output CSV (default <run>/pmf_long.csv)")
    p_plot.set_defaults(func=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - single CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
