"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5, 6, and 7 share the two 10-trial synthetic experiments, which run once
per session in fixtures; everything else is self-contained.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from oracle_utils import pair_accuracy_oracle, slab_oracle, soft_oracle, sphere_oracle
from tvclust import fileio
from tvclust.cli import main as cli_main
from tvclust.clustering import static_sc, tv_cluster_multi, tv_cluster_two
from tvclust.experiments import (
    DENSE_DESK,
    SPARSE_DESK,
    cloud_to_graphs,
    compare_methods,
    make_articulated_cloud,
)
from tvclust.generators import SbmTvParams, sbm_static, sbm_tv_sequence
from tvclust.graphs import TVGraphSequence, build_laplacian, smallest_eigenvectors
from tvclust.metrics import accuracy_report, eigengap_profile, pair_accuracy
from tvclust.prox import prox_conjugate, prox_slab, prox_sphere, soft_threshold
from tvclust.solver import SolverConfig

N_TRIALS = 10
EXPERIMENT_SEED = 1234


def report(criterion, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def dense_outcomes():
    start = time.perf_counter()
    outs = compare_methods(DENSE_DESK, n_trials=N_TRIALS, base_seed=EXPERIMENT_SEED)
    return outs, time.perf_counter() - start


@pytest.fixture(scope="module")
def sparse_outcomes():
    start = time.perf_counter()
    outs = compare_methods(SPARSE_DESK, n_trials=N_TRIALS, base_seed=EXPERIMENT_SEED)
    return outs, time.perf_counter() - start


def test_c01_prox_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        z = rng.standard_normal(dim) * rng.uniform(0.1, 5.0)
        v = rng.standard_normal(dim)
        eps = float(rng.uniform(0.0, 0.3))
        tau = float(rng.uniform(0.0, 2.0))
        worst = max(worst, float(np.abs(prox_sphere(z) - sphere_oracle(z)).max()))
        worst = max(worst, float(np.abs(prox_slab(z, v, eps) - slab_oracle(z, v, eps)).max()))
        worst = max(worst, float(np.abs(soft_threshold(z, tau) - soft_oracle(z, tau)).max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-6 and elapsed < 10.0,
        f"prox vs oracles max error {worst:.2e} (tol 1e-6) in {elapsed:.1f}s (< 10s)",
    )


def test_c02_moreau_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        z = rng.standard_normal(dim) * rng.uniform(0.1, 5.0)
        gamma = float(rng.uniform(0.1, 4.0))
        alpha = float(rng.uniform(0.1, 3.0))
        # f = alpha * l1: prox of gamma*f and the prox of (gamma*f)^* must split z
        tau = gamma * alpha
        x = soft_threshold(z, tau)
        y = prox_conjugate(
            lambda w, s: soft_threshold(w, s * tau), float(rng.uniform(0.5, 2.0)), z
        )
        worst = max(worst, float(np.abs(x + y - z).max()))
        # f = slab indicator: scaling by gamma leaves the indicator unchanged
        v = rng.standard_normal(dim)
        eps = float(rng.uniform(0.0, 0.4))
        x = prox_slab(z, v, eps)
        y = prox_conjugate(lambda w, s: prox_slab(w, v, eps), 1.0, z)
        worst = max(worst, float(np.abs(x + y - z).max()))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-12 and elapsed < 1.0,
        f"Moreau identity max residual {worst:.2e} (tol 1e-12) in {elapsed:.2f}s (< 1s)",
    )


def test_c03_constraint_feasibility_on_converged_solves():
    rng = np.random.default_rng(103)
    checked = 0
    worst_slab = 0.0
    worst_norm = 0.0
    solves = []
    # battery: single frame, identical frames, drifting frames, deflated multi-way
    lab2 = np.repeat([0, 1], 20)
    solves.append((TVGraphSequence((sbm_static(lab2, 0.9, 0.05, rng),)), 2))
    g = sbm_static(lab2, 0.9, 0.05, rng)
    solves.append((TVGraphSequence((g,) * 4), 2))
    params = SbmTvParams(10, 3, 5, 0.9, 0.05, 0.05, seed=1031)
    seq3, _ = sbm_tv_sequence(params)
    solves.append((seq3, 3))
    for seq, k in solves:
        n = seq.n
        eps = 1e-6 * np.sqrt(n)
        cfg = SolverConfig(alpha=1.0, seed=7)
        if k == 2:
            _, res = tv_cluster_two(seq, cfg)
            results = [res]
            bases = [np.ones((seq.t_len, 1, n))]
        else:
            from tvclust.clustering import tv_cluster_multi_detailed

            _, emb, results = tv_cluster_multi_detailed(seq, k, cfg)
            bases = []
            dirs = np.ones((seq.t_len, 1, n))
            for r in results:
                bases.append(dirs.copy())
                C = r.c
                unit = C / np.linalg.norm(C, axis=1, keepdims=True)
                dirs = np.concatenate([dirs, unit[:, None, :]], axis=1)
        for r, V in zip(results, bases):
            if not r.converged:
                continue
            checked += 1
            C = r.c
            worst_slab = max(worst_slab, float(np.abs(np.einsum("tn,tln->tl", C, V)).max()) - eps)
            worst_norm = max(
                worst_norm, float(np.abs(np.einsum("tn,tn->t", C, C) - n).max()) / n
            )
    ok = checked >= 3 and worst_slab <= 1e-8 and worst_norm <= 1e-6
    report(
        3,
        ok,
        f"{checked} converged solves: slab excess {worst_slab:.2e} (tol 1e-8), "
        f"norm error {worst_norm:.2e} (tol 1e-6)",
    )


def test_c04_static_sc_consistency():
    start = time.perf_counter()
    matched = 0
    total = 0
    for seed in range(10):
        params = SbmTvParams(20, 2, 5, 0.9, 0.05, 0.0, seed=2000 + seed)
        seq, _ = sbm_tv_sequence(params)
        labels, res = tv_cluster_two(seq, SolverConfig(alpha=0.0, seed=seed))
        for t, g in enumerate(seq.graphs):
            _, vecs = smallest_eigenvectors(build_laplacian(g), 2)
            fied = (vecs[:, 1] < 0).astype(int)
            agree = float((labels.frame(t) == fied).mean())
            total += 1
            if max(agree, 1.0 - agree) == 1.0:
                matched += 1
    elapsed = time.perf_counter() - start
    frac = matched / total
    report(
        4,
        frac >= 0.95 and elapsed < 30.0,
        f"PDS sign pattern matched Fiedler signs on {matched}/{total} frames "
        f"({frac:.0%}, need >= 95%) in {elapsed:.1f}s (< 30s)",
    )


def test_c05_dense_synthetic_experiment(dense_outcomes):
    outs, elapsed = dense_outcomes
    tv = float(np.mean([o.accuracy_tv for o in outs]))
    st = float(np.mean([o.accuracy_static for o in outs]))
    report(
        5,
        tv >= st + 0.05 and elapsed < 300.0,
        f"dense preset mean accuracy tv-pds {tv:.3f} vs static-sc {st:.3f} "
        f"(need +0.05) in {elapsed:.0f}s (< 300s)",
    )


def test_c06_sparse_synthetic_experiment(sparse_outcomes):
    outs, elapsed = sparse_outcomes
    tv = float(np.mean([o.accuracy_tv for o in outs]))
    st = float(np.mean([o.accuracy_static for o in outs]))
    report(
        6,
        tv >= st + 0.10,
        f"sparse preset mean accuracy tv-pds {tv:.3f} vs static-sc {st:.3f} (need +0.10), "
        f"{elapsed:.0f}s",
    )


def test_c07_smoothness_delivered(dense_outcomes, sparse_outcomes):
    passed = True
    details = []
    for name, (outs, _) in (("dense", dense_outcomes), ("sparse", sparse_outcomes)):
        wins = sum(1 for o in outs if o.mismatch_tv <= o.mismatch_static)
        details.append(f"{name} {wins}/{N_TRIALS}")
        passed = passed and wins >= 8
    report(7, passed, "mismatch(tv-pds) <= mismatch(static-sc) in " + ", ".join(details) + " trials (need >= 8)")


def test_c08_eigengap_diagnostic():
    start = time.perf_counter()
    means = {}
    for name, params in (("dense", DENSE_DESK), ("sparse", SPARSE_DESK)):
        gaps = []
        for seed in range(10):
            seq, _ = sbm_tv_sequence(replace(params, seed=3000 + seed))
            gaps.extend(
                float(eigengap_profile(build_laplacian(g), 4)[2]) for g in seq.graphs
            )
        means[name] = float(np.mean(gaps))
    elapsed = time.perf_counter() - start
    report(
        8,
        means["dense"] > means["sparse"] and elapsed < 60.0,
        f"mean gap (4th - 3rd eigenvalue): dense {means['dense']:.2f} > sparse "
        f"{means['sparse']:.2f} in {elapsed:.0f}s (< 60s)",
    )


def test_c09_generator_statistics():
    params = SbmTvParams(50, 3, 100, 0.3, 0.2, 0.01, seed=104)
    seq, labels = sbm_tv_sequence(params)
    n = params.n
    iu, ju = np.triu_indices(n, k=1)
    intra_count = inter_count = intra_pairs = inter_pairs = 0
    for t, g in enumerate(seq.graphs):
        lab = labels.frame(t)
        same = lab[iu] == lab[ju]
        adj = g.adjacency().toarray()[iu, ju] > 0
        intra_count += int((adj & same).sum())
        inter_count += int((adj & ~same).sum())
        intra_pairs += int(same.sum())
        inter_pairs += int((~same).sum())
    ok = True
    details = []
    for count, pairs, p, tag in (
        (intra_count, intra_pairs, params.p_intra, "intra"),
        (inter_count, inter_pairs, params.p_inter, "inter"),
    ):
        sigma = np.sqrt(pairs * p * (1 - p))
        dev = abs(count - pairs * p) / sigma
        details.append(f"{tag} {dev:.1f} sigma")
        ok = ok and dev <= 3.0
    changes = [
        int((labels.frame(t) != labels.frame(t - 1)).sum()) for t in range(1, params.t_len)
    ]
    sigma_mean = np.sqrt(n * 0.01 * 0.99 / len(changes))
    dev = abs(float(np.mean(changes)) - n * 0.01) / sigma_mean
    details.append(f"flips {dev:.1f} sigma")
    ok = ok and dev <= 3.0
    report(9, ok, "generator deviations within 3 sigma: " + ", ".join(details))


def test_c10_metric_correctness():
    rng = np.random.default_rng(105)
    exact = True
    for _ in range(100):
        n = int(rng.integers(2, 31))
        truth = rng.integers(0, int(rng.integers(1, 5)), n)
        est = rng.integers(0, int(rng.integers(1, 5)), n)
        if pair_accuracy(est, truth) != pair_accuracy_oracle(est, truth):
            exact = False
            break
    labels = rng.integers(0, 3, 20)
    perm = np.array([2, 0, 1])
    identical = pair_accuracy(labels, labels) == 1.0
    permuted = pair_accuracy(perm[labels], labels) == 1.0
    report(
        10,
        exact and identical and permuted,
        f"pair accuracy exact on 100 oracle pairs: {exact}; identical -> 1.0: "
        f"{identical}; name-permuted -> 1.0: {permuted}",
    )


def test_c11_cli_determinism(tmp_path):
    runner = CliRunner()

    def pipeline(root):
        gen = root / "data"
        run = root / "run"
        ev = root / "eval"
        for args in (
            ["generate-sbm", "--out", str(gen), "--n-per-cluster", "8", "--k", "3",
             "--t-len", "8", "--p-intra", "0.8", "--p-inter", "0.1",
             "--flip-prob", "0.02", "--seed", "99", "--trials", "2"],
            ["cluster", "--graph", str(gen), "--method", "tv-pds", "--k", "3",
             "--alpha", "2.0", "--seed", "42", "--out", str(run)],
            ["evaluate", "--est", str(run), "--truth", str(gen), "--out", str(ev), "--svg"],
        ):
            res = runner.invoke(cli_main, args)
            assert res.exit_code == 0, res.output
        files = {}
        for d in (gen, run, ev):
            for p in sorted(d.iterdir()):
                files[f"{d.name}/{p.name}"] = p.read_bytes()
        return files

    a = pipeline(tmp_path / "a")
    b = pipeline(tmp_path / "b")
    assert a.keys() == b.keys()
    mismatched = []
    for name in a:
        if name.startswith("run/report_"):
            # the run report carries wall time; its other fields must match
            ra, rb = json.loads(a[name]), json.loads(b[name])
            ra.pop("wall_time_s"), rb.pop("wall_time_s")
            if ra != rb:
                mismatched.append(name)
        elif a[name] != b[name]:
            mismatched.append(name)
    report(
        11,
        not mismatched,
        f"two seeded end-to-end runs identical across {len(a)} files "
        f"(run reports compared without wall time); mismatches: {mismatched}",
    )


def test_c12_point_cloud_substitute():
    cloud, truth = make_articulated_cloud(n_per_part=30, t_len=20, seed=0)
    seq = cloud_to_graphs(cloud, k=8)
    est, _ = tv_cluster_multi(seq, 5, SolverConfig(alpha=1.0, seed=0))
    rep = accuracy_report(est, truth)
    report(
        12,
        rep.mean >= 0.95,
        f"articulated 5-part cloud (k=8, 20 frames): mean pair accuracy "
        f"{rep.mean:.3f} (need >= 0.95)",
    )
