"""Benchmark workloads: config overrides, generated inputs and output floors.

Every workload is one full training run through `TrainLoop(cfg, out).run()`.
Its inputs derive from the workload seed alone: the run seed and `data.seed`
are both set to it, and the eval-heavy CSV corpus is generated from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    r1_floor: float  # final validation R@1 may not fall below this (untrained nets start well below)
    corpus: tuple | None = None  # (classes, rows per class, dims) of a generated CSV passed as data.path


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's method at the default config (PPO-A2C, 150x30 iterations,
        # 16 anchors): per-anchor sampler selection dominates, rl runs only here
        Workload(
            "pads-default",
            {"sampler.kind": "pads"},
            r1_floor=0.55,
        ),
        # wide model and 64-anchor batches: forward, backward and Adam are about
        # half the work, and selection is a deterministic argmin over larger batches
        Workload(
            "semihard-wide",
            {
                "sampler.kind": "semihard",
                "data.n_classes": 16,
                "data.input_dim": 64,
                "model.hidden": "256,256",
                "model.embedding_dim": 64,
                "train.classes_per_batch": 8,
                "train.samples_per_class": 8,
                "train.m": 50,
                "train.total_iterations": 1500,
            },
            r1_floor=0.8,
        ),
        # a 12 MB CSV corpus and 1200 validation points: evaluation is nearly all
        # of the run and CSV loading nearly all of set-up; the PMF sampler and rl
        # are bypassed
        Workload(
            "eval-heavy",
            {
                "sampler.kind": "random",
                "train.val_fraction": 0.075,
                "train.m": 10,
                "train.total_iterations": 400,
                "loss.kind": "margin",
                "loss.learnable_beta": "true",
            },
            r1_floor=0.6,
            corpus=(16, 1000, 64),
        ),
        # the acceptance suite's SMALL config under pads, for the benchmark's own
        # tests; 40 iterations teach it little, so its floor checks nothing
        Workload(
            "smoke",
            {
                "sampler.kind": "pads",
                "data.n_classes": 5,
                "data.per_class": 16,
                "data.input_dim": 6,
                "model.hidden": "24",
                "model.embedding_dim": 8,
                "pmf.k": 10,
                "rl.hidden": 16,
                "train.m": 8,
                "train.total_iterations": 40,
                "train.classes_per_batch": 3,
                "train.samples_per_class": 3,
                "train.val_fraction": 0.25,
            },
            r1_floor=0.0,
        ),
    )
}


def build_overrides(workload: Workload, seed: int, work_dir: Path) -> dict:
    """Flat config overrides for one seed, writing the generated corpus into work_dir if needed."""
    from tripletlab.data import generate_synthetic, save_dataset

    flat = dict(workload.overrides, seed=seed)
    flat["data.seed"] = seed
    if workload.corpus is not None:
        classes, per_class, dims = workload.corpus
        path = work_dir / "corpus.csv"
        save_dataset(generate_synthetic(classes, per_class, dims, seed=seed), path)
        flat["data.path"] = str(path)
    return {key: str(value) for key, value in flat.items()}
