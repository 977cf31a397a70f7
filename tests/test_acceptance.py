"""Acceptance gate: the nine behaviors this lab promises, end to end.

One test per criterion, run in order. Each prints a single
`criterion N (<label>): PASS` or `: FAIL` line (visible with -s or -rA;
the pytest -v status line mirrors it). Criterion 7 trains 15 full runs
and dominates the suite's wall clock.
"""

import json
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from tripletlab.cli import main as cli_main
from tripletlab.config import config_from_flat
from tripletlab.geometry import log_analytic_density, pairwise_distances
from tripletlab.metrics import EvalPlan, class_distance_stats, nmi, recall_at_k
from tripletlab.model import EmbeddingModel, LossConfig, backward, json_text, triplet_losses
from tripletlab.rl import (
    PolicyNetwork,
    PolicyUpdater,
    Transition,
    compute_reward,
    log_prob_and_score,
    sample_action,
)
from tripletlab.samplers import SamplingPMF, apply_action, init_pmf, sample_negative_semihard
from tripletlab.trainer import train

from conftest import log_prob_grad, maintain_policy, pre_activations, row_weights, value_grad


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    print(f"criterion {n} ({label}): PASS")


def build_cfg(**overrides):
    cfg, _ = config_from_flat({k: str(v) for k, v in overrides.items()})
    return cfg


SMALL = {
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
}


# ---- shared finite-difference helpers ----

def fd_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-7)))


def kink_free_model_setup(seed, loss_kind):
    """Model, inputs and triplets with every hinge and ReLU off its kink."""
    rng = np.random.default_rng(seed)
    labels = np.array([0, 0, 0, 1, 1, 1])
    for _ in range(60):
        model = EmbeddingModel(5, (8, 6), 4, rng)
        x = rng.normal(size=(6, 5))
        loss = LossConfig(
            kind=loss_kind,
            gamma=float(rng.uniform(0.1, 0.4)),
            beta_margin=float(rng.uniform(0.8, 1.3)),
        )
        triplets = []
        for a in range(6):
            same = [j for j in range(6) if labels[j] == labels[a] and j != a]
            diff = [j for j in range(6) if labels[j] != labels[a]]
            triplets.append(
                (a, same[int(rng.integers(len(same)))], diff[int(rng.integers(len(diff)))])
            )
        triplets = np.asarray(triplets)
        emb, cache = model.forward(x)
        a, p, n = triplets[:, 0], triplets[:, 1], triplets[:, 2]
        d_ap = np.linalg.norm(emb[a] - emb[p], axis=1)
        d_an = np.linalg.norm(emb[a] - emb[n], axis=1)
        if loss_kind == "triplet":
            margins = d_ap**2 - d_an**2 + loss.gamma
        else:
            margins = np.concatenate(
                [loss.gamma + d_ap - loss.beta_margin, loss.gamma - d_an + loss.beta_margin]
            )
        pre_ok = all(np.min(np.abs(z)) > 1e-3 for z in pre_activations(cache, model.weights, model.biases))
        if np.min(np.abs(margins)) > 1e-3 and pre_ok:
            return model, x, triplets, loss
    raise AssertionError("could not build a kink-free configuration")


def kink_free_policy_setup(seed, has_value):
    policy = PolicyNetwork(5, 2, has_value, np.random.default_rng(seed), hidden=8)
    rng = np.random.default_rng(seed + 1000)
    for _ in range(60):
        s = rng.standard_normal(5)
        cache = policy.forward(s)
        if min(np.abs(z).min() for z in pre_activations(cache, policy.weights, policy.biases)) > 1e-3:
            return policy, s
    raise AssertionError("could not find a kink-free probe state")


# ---- criteria ----

def test_01_pmf_algebra():
    with criterion(1, "PMF algebra"):
        started = time.perf_counter()
        pmf = SamplingPMF(0.1, 1.4, np.full(3, 1.0 / 3.0))
        out = apply_action(pmf, np.array([1.25, 1.0, 0.8]))
        assert np.max(np.abs(out.p - [0.4098, 0.3279, 0.2623])) < 1e-4
        rng = np.random.default_rng(31)
        pmf = init_pmf(0.1, 1.4, 30)
        for _ in range(1000):
            pmf = apply_action(pmf, rng.choice([0.8, 1.0, 1.25], size=30))
            assert abs(pmf.p.sum() - 1.0) <= 1e-9
            assert np.all(pmf.p >= 0.0)
        assert time.perf_counter() - started < 1.0


def test_02_inverse_density_flattens_distances():
    with criterion(2, "distance flattening"):
        started = time.perf_counter()
        rng = np.random.default_rng(20)
        n, dim = 512, 128
        v = rng.standard_normal((n, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        dist = pairwise_distances(v)
        draws, pool = [], []
        per = 100_000 // n
        for anchor in range(n):
            d = np.delete(dist[anchor], anchor)
            w = row_weights(d, dim)
            # weights at the cap are not flattened; restrict to the rest
            log_inv = -log_analytic_density(np.clip(d, 1e-9, 2.0 - 1e-9), dim)
            unclipped = log_inv < math.log(4.0) + np.median(log_inv)
            pool.append(d[unclipped])
            idx = rng.choice(d.size, size=per, p=w)
            draws.append(d[idx[unclipped[idx]]])
        draws = np.concatenate(draws)
        pool = np.concatenate(pool)
        assert draws.size > 50_000
        lo, hi = pool.min(), pool.max()
        result = stats.kstest(draws, "uniform", args=(lo, hi - lo))
        assert result.statistic < 0.05
        assert time.perf_counter() - started < 30.0


def test_03_oracle_equivalence():
    with criterion(3, "oracle equivalence"):
        started = time.perf_counter()
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(5, 33))
            dim = int(rng.integers(4, 9))
            v = rng.standard_normal((n, dim))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
            labels[: labels.max() + 1] = np.arange(labels.max() + 1)
            dist = pairwise_distances(v)
            plan = EvalPlan(labels)

            # semihard: exhaustive scan, exact discrete match
            anchor = int(rng.integers(n))
            cand = np.where(labels != labels[anchor])[0]
            if cand.size:
                d_ap = float(rng.uniform(0.0, 2.0))
                d_an = dist[anchor, cand]
                got = sample_negative_semihard(
                    np.array([d_ap]), (labels != labels[anchor])[None, :], dist[anchor][None, :]
                )[0]
                beyond = [(d, c) for c, d in zip(cand, d_an) if d > d_ap]
                want = (
                    min(beyond, key=lambda t: (t[0], t[1]))
                    if beyond
                    else max(zip(d_an, cand), key=lambda t: (t[0], -t[1]))
                )[1]
                assert got == want

            # recall@k: per-point scan with (distance, index) ordering
            got_rec = recall_at_k(dist, plan, ks=(1, 2, 4))
            for k in (1, 2, 4):
                hits = 0
                for i in range(n):
                    order = sorted(
                        (j for j in range(n) if j != i), key=lambda j: (dist[i, j], j)
                    )
                    hits += any(labels[j] == labels[i] for j in order[:k])
                assert abs(got_rec[k] - hits / n) < 1e-9

            # NMI: dict-counted mutual information
            other = rng.integers(0, 3, size=n)
            joint: dict = {}
            for xy in zip(labels.tolist(), other.tolist()):
                joint[xy] = joint.get(xy, 0) + 1
            pa: dict = {}
            pb: dict = {}
            for (x, y), c in joint.items():
                pa[x] = pa.get(x, 0) + c
                pb[y] = pb.get(y, 0) + c
            mi = sum(
                (c / n) * math.log((c / n) / ((pa[x] / n) * (pb[y] / n)))
                for (x, y), c in joint.items()
            )
            ha = -sum((c / n) * math.log(c / n) for c in pa.values())
            hb = -sum((c / n) * math.log(c / n) for c in pb.values())
            want_nmi = 0.0 if ha == 0.0 or hb == 0.0 else mi / (0.5 * (ha + hb))
            assert abs(nmi(labels, other) - want_nmi) < 1e-9

            # class-distance stats: explicit pair enumeration
            intra_pairs, inter_pairs = [], []
            for i in range(n):
                for j in range(i + 1, n):
                    (intra_pairs if labels[i] == labels[j] else inter_pairs).append(dist[i, j])
            import warnings as _warnings

            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                intra, inter = class_distance_stats(dist, plan)
            if intra_pairs:
                assert abs(intra - np.mean(intra_pairs)) < 1e-9
            if inter_pairs:
                assert abs(inter - np.mean(inter_pairs)) < 1e-9
        assert time.perf_counter() - started < 30.0


def test_04_gradient_suite():
    with criterion(4, "gradient suite"):
        started = time.perf_counter()
        checked = 0

        for seed, loss_kind in [(s, "triplet") for s in range(15)] + [
            (s, "margin") for s in range(15, 30)
        ]:
            model, x, triplets, loss = kink_free_model_setup(seed, loss_kind)
            _, cache = model.forward(x)
            grad = backward(model, cache, triplets, loss)

            def objective(flat, model=model, x=x, triplets=triplets, loss=loss):
                probe = EmbeddingModel.from_dict(model.to_dict())
                probe.set_params(flat)
                emb, _ = probe.forward(x)
                return float(np.mean(triplet_losses(emb, triplets, loss)))

            assert max_rel_err(grad, fd_grad(objective, model.get_params())) < 1e-4
            checked += 1

        for seed in range(12):
            policy, s = kink_free_policy_setup(seed, has_value=False)
            trits = np.random.default_rng(seed).integers(0, 3, size=policy.k_bins)
            _, grad = log_prob_grad(policy, s, trits)

            def objective(flat, policy=policy, s=s, trits=trits):
                probe = PolicyNetwork.from_dict(policy.to_dict())
                probe.set_params(flat)
                return log_prob_and_score(probe.forward(s).logits, trits)[0]

            assert max_rel_err(grad, fd_grad(objective, policy.get_params())) < 1e-4
            checked += 1

        for seed in range(100, 108):
            policy, s = kink_free_policy_setup(seed, has_value=True)
            _, grad = value_grad(policy, s)

            def objective(flat, policy=policy, s=s):
                probe = PolicyNetwork.from_dict(policy.to_dict())
                probe.set_params(flat)
                return probe.forward(s).value

            assert max_rel_err(grad, fd_grad(objective, policy.get_params())) < 1e-4
            checked += 1

        assert checked >= 50
        assert time.perf_counter() - started < 60.0


def test_05_rl_correctness():
    with criterion(5, "policy update rules"):
        # sign reward with exact tie -> 0
        assert compute_reward(1.2, 0.8) == 1
        assert compute_reward(0.8, 1.2) == -1
        assert compute_reward(0.77, 0.77) == 0

        # a clipped transition contributes zero policy gradient
        rng = np.random.default_rng(50)
        policy = PolicyNetwork(6, 3, False, rng, hidden=12)
        updater = PolicyUpdater(policy, "ppo-ema", lr=1e-3, epsilon=0.2)
        s = rng.standard_normal(6)
        cache = policy.forward(s)
        trits = np.argmax(cache.logits, axis=1)
        old = policy.get_params()
        for k in range(policy.k_bins):
            old[-policy.n_out + 3 * k + trits[k]] -= 2.0
        updater.old_params = old
        before = policy.get_params()
        lp = log_prob_and_score(cache.logits, trits)[0]
        diag = updater.update(Transition(1, s, trits, lp, reward=1))
        assert abs(diag["ratio"] - 1.0) > updater.epsilon
        assert diag["coef"] == 0.0
        assert np.array_equal(policy.get_params(), before)

        # huge clip + synced reference makes the clipped rule collapse to a2c
        pol_a = PolicyNetwork(6, 3, True, np.random.default_rng(51), hidden=12)
        pol_b = PolicyNetwork(6, 3, True, np.random.default_rng(51), hidden=12)
        upd_a = PolicyUpdater(pol_a, "a2c", lr=1e-3)
        upd_b = PolicyUpdater(pol_b, "ppo-a2c", lr=1e-3, epsilon=1e9, old_refresh=1)
        s = np.random.default_rng(52).standard_normal(6)
        cache = pol_a.forward(s)
        trits, lp = sample_action(cache.logits, np.random.default_rng(53))
        tr = Transition(1, s, trits, lp, reward=1, value=cache.value)
        upd_a.update(tr)
        diag_b = upd_b.update(tr)
        assert diag_b["ratio"] == 1.0
        assert np.array_equal(pol_a.get_params(), pol_b.get_params())


def test_06_identity_policy_reduction(tmp_path):
    with criterion(6, "identity-policy reduction"):
        small = {**SMALL, "pmf.init": "gaussian:0.9:0.3"}  # uneven, so a rescaled PMF shows
        control = build_cfg(**small, **{"transfer.mode": "fixed-final-pmf"})
        train(control, tmp_path / "control")
        for has_value in (False, True):
            # a transferred policy runs the adaptive step every episode: state, policy
            # forward, action draw, multipliers and PMF update, all with "maintain"
            run = tmp_path / f"identity-value-{has_value}"
            checkpoint = tmp_path / f"{run.name}.json"
            checkpoint.write_text(json_text(maintain_policy(control, has_value).to_dict()))
            identity = build_cfg(**small, **{"transfer.mode": "fixed-policy",
                                             "transfer.policy_path": checkpoint})
            train(identity, run)
            for name in ("metrics.csv", "pmf.jsonl"):
                a = (run / name).read_bytes()
                b = (tmp_path / "control" / name).read_bytes()
                assert a == b, f"{name} differs between identity policy and frozen PMF"
            lines = (run / "transitions.jsonl").read_text().splitlines()
            assert len(lines) == control.n_episodes - 1  # the last action is never rewarded
            assert all(set(json.loads(line)["action"]) == {1} for line in lines)


def test_07_comparative_protocol(tmp_path):
    with criterion(7, "comparative protocol"):
        finals: dict = {}
        for kind in ("pads", "random", "distweighted"):
            finals[kind] = []
            for seed in range(5):
                cfg = build_cfg(**{"sampler.kind": kind, "seed": seed})
                summary = train(cfg, tmp_path / f"{kind}-s{seed}")
                assert summary["episodes"] == 150
                assert summary["seconds"] < 600.0
                finals[kind].append(summary["final"]["r1"])
        med = {k: statistics.median(v) for k, v in finals.items()}
        print(
            "    medians: pads {pads:.4f} random {random:.4f} "
            "distweighted {distweighted:.4f}".format(**med)
        )
        assert med["pads"] >= med["random"], (
            f"adapted sampling (median R@1 {med['pads']:.4f}) fell below "
            f"random sampling ({med['random']:.4f})"
        )
        assert med["pads"] >= med["distweighted"] - 0.01, (
            f"adapted sampling (median R@1 {med['pads']:.4f}) fell more than 0.01 below "
            f"static distance-weighted ({med['distweighted']:.4f})"
        )


def test_08_byte_identical_reruns(tmp_path):
    with criterion(8, "determinism"):
        cfg = build_cfg(**SMALL, **{"seed": 3})
        train(cfg, tmp_path / "a")
        train(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()
        # and again from the resolved config echo, as a fresh object
        from tripletlab.config import parse_kv_file

        reloaded, _ = config_from_flat(parse_kv_file(tmp_path / "a" / "config.resolved"))
        train(reloaded, tmp_path / "c")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "c" / "metrics.csv"
        ).read_bytes()


def test_09_pmf_stream_integrity(tmp_path, capsys):
    with criterion(9, "PMF artifact integrity"):
        cfg = build_cfg(**{**SMALL, "pmf.k": 30, "train.m": 5, "train.total_iterations": 30})
        out = tmp_path / "run"
        train(cfg, out)
        lines = (out / "pmf.jsonl").read_text().splitlines()
        assert len(lines) == 6
        for ep, line in enumerate(lines, start=1):
            snap = json.loads(line)
            assert snap["episode"] == ep
            assert len(snap["p"]) == 30
            assert len(snap["edges"]) == 31
            assert abs(sum(snap["p"]) - 1.0) <= 1e-6
        assert cli_main(["plot-data", "--run", str(out)]) == 0
        capsys.readouterr()
        rows = (out / "pmf_long.csv").read_text().splitlines()
        assert rows[0] == "episode,bin_center,probability"
        assert len(rows) == 1 + 6 * 30
