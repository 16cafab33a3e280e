"""Each reference computation against brute force on random inputs.

    python3 -m pytest perfbench/test_reference.py -q
"""

import itertools

import numpy as np
import pytest

import reference as ref

SEEDS = range(20)


def brute_pair_accuracy(est, truth):
    n = len(est)
    agree = sum(
        (est[a] == est[b]) == (truth[a] == truth[b]) for a, b in itertools.combinations(range(n), 2)
    )
    return 2.0 * agree / (n * (n - 1))


@pytest.mark.parametrize("seed", SEEDS)
def test_pair_accuracy_matches_all_pairs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    est = rng.integers(0, int(rng.integers(1, 6)), size=n)
    truth = rng.integers(0, int(rng.integers(1, 6)), size=n)
    assert ref.pair_accuracy(est, truth) == brute_pair_accuracy(est, truth)
    assert ref.same_partition(est, est + 7)
    assert ref.same_partition(est, truth) == (brute_pair_accuracy(est, truth) == 1.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_label_changes_match_relabel_search(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n = int(rng.integers(1, 30))
    prev, cur = rng.integers(0, k, size=n), rng.integers(0, k, size=n)
    # every relabeling, written out as a mapping rather than a permutation array
    best = min(
        sum(mapping[c] != p for c, p in zip(cur, prev))
        for mapping in (dict(zip(range(k), perm)) for perm in itertools.permutations(range(k)))
    )
    assert ref.label_changes(prev, cur, k) == best
    labels = rng.integers(0, k, size=(5, n))
    expected = sum(ref.label_changes(labels[t - 1], labels[t], k) for t in range(1, 5))
    assert ref.total_label_changes(labels, k) == expected
    assert ref.label_changes(cur, (cur + 1) % k, k) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_parsers_read_what_was_written(seed, tmp_path):
    rng = np.random.default_rng(seed)
    n, t_len, k = int(rng.integers(2, 12)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
    frames = []
    lines = [f"tvg 1 {n} {t_len}"]
    for t in range(t_len):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        w = rng.random(len(pairs))
        frames.append(np.array([(i, j, x) for (i, j), x in zip(pairs, w)]).reshape(-1, 3))
        lines += [f"{t} {i} {j} {float(x)!r}" for (i, j), x in zip(pairs, w)]
    (tmp_path / "g.tvg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    got_n, got = ref.parse_tvg(tmp_path / "g.tvg")
    assert got_n == n and len(got) == t_len
    for a, b in zip(got, frames):
        assert np.array_equal(a, b)

    labels = rng.integers(0, k, size=(t_len, n))
    text = f"lbl 1 {n} {t_len} {k}\n" + "".join(" ".join(map(str, r)) + "\n" for r in labels)
    (tmp_path / "l.lbl").write_text(text, encoding="utf-8")
    got_k, got_labels = ref.parse_lbl(tmp_path / "l.lbl")
    assert got_k == k and np.array_equal(got_labels, labels)

    (tmp_path / "bad.lbl").write_text(text.replace("\n", "\r\n"), encoding="utf-8", newline="")
    with pytest.raises(ValueError):
        ref.parse_lbl(tmp_path / "bad.lbl")


def brute_components(n, edges):
    """Union-find over the edge list."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j, _ in edges:
        parent[find(int(i))] = find(int(j))
    return [find(a) for a in range(n)]


@pytest.mark.parametrize("seed", SEEDS)
def test_components_match_union_find(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    m = int(rng.integers(0, n + 1))
    i, j = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    keep = i != j
    edges = np.column_stack([i[keep], j[keep], np.ones(int(keep.sum()))])
    count, labels = ref.components(n, edges)
    roots = brute_components(n, edges)
    assert count == len(set(roots))
    assert ref.same_partition(labels, roots) or n < 2


@pytest.mark.parametrize("seed", SEEDS)
def test_objective_matches_edge_sums(seed):
    rng = np.random.default_rng(seed)
    n, t_len = int(rng.integers(2, 10)), int(rng.integers(1, 5))
    alpha = float(rng.random() * 3)
    C = rng.standard_normal((t_len, n))
    frames = []
    for _ in range(t_len):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        frames.append(np.array([(i, j, rng.random()) for i, j in pairs]).reshape(-1, 3))
    expected = 0.0
    for c, edges in zip(C, frames):
        # c' L c is the weighted sum of squared differences across edges
        expected += 0.5 * sum(w * (c[int(i)] - c[int(j)]) ** 2 for i, j, w in edges)
    for t in range(1, t_len):
        expected += alpha * sum(abs(C[t, a] - C[t - 1, a]) for a in range(n))
    got = ref.objective(C, [ref.laplacian(n, e) for e in frames], alpha)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_density_bounds(seed):
    rng = np.random.default_rng(seed)
    n, k, t_len = 30, 3, 20
    labels = np.tile(np.repeat(np.arange(k), n // k), (t_len, 1))
    frames = []
    for lab in labels:
        iu, ju = np.triu_indices(n, 1)
        p = np.where(lab[iu] == lab[ju], 0.3, 0.2)
        keep = rng.random(iu.size) < p
        frames.append(np.column_stack([iu[keep], ju[keep], np.ones(int(keep.sum()))]))
    assert ref.edge_density_ok(frames, labels, 0.3, 0.2)
    assert not ref.edge_density_ok(frames, labels, 0.2, 0.3)
