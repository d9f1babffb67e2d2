"""Brute-force oracles and enumerators used as independent checks.

Everything here computes from ground truth by direct definition, never
through the query machinery under test.
"""

import functools

import numpy as np


def brute_rank(parts, capacities, subset):
    """Direct sum of min(|S ∩ P_i|, r_i)."""
    s = set(int(e) for e in subset)
    total = 0
    for i, part in enumerate(parts):
        hit = sum(1 for e in part if int(e) in s)
        cap = 1 if capacities is None else int(capacities[i])
        total += min(hit, cap)
    return total


def brute_sum_query(parts, subset, i2):
    """Count elements of S whose part intersects I2."""
    i2 = set(int(e) for e in i2)
    count = 0
    for e in subset:
        e = int(e)
        for part in parts:
            members = set(int(v) for v in part)
            if e in members:
                if members & i2:
                    count += 1
                break
    return count


def brute_add_query(parts, subset):
    """Pairs of same-part elements fully inside S, assuming <= 2 per part in S."""
    s = set(int(e) for e in subset)
    pairs = 0
    for part in parts:
        inside = sum(1 for e in part if int(e) in s)
        pairs += inside * (inside - 1) // 2
    return pairs


def enumerate_set_partitions(n):
    """All set partitions of {0..n-1} via restricted growth strings."""
    if n == 0:
        yield []
        return
    rgs = [0] * n

    def rec(i, max_label):
        if i == n:
            parts = {}
            for e, lab in enumerate(rgs):
                parts.setdefault(lab, []).append(e)
            yield [parts[lab] for lab in sorted(parts)]
            return
        for lab in range(max_label + 2):
            rgs[i] = lab
            yield from rec(i + 1, max(max_label, lab))

    yield from rec(1, 0)


def enumerate_capacitated(n):
    """All (partition, capacities) with every part >= 2 and 1 <= r_i < |P_i|."""
    from itertools import product

    for parts in enumerate_set_partitions(n):
        if any(len(p) < 2 for p in parts):
            continue
        ranges = [range(1, len(p)) for p in parts]
        for caps in product(*ranges):
            yield parts, list(caps)


def canonical(parts):
    return tuple(tuple(sorted(int(e) for e in p)) for p in sorted(parts, key=lambda p: min(p)))


def random_partition(n, k, seed):
    rng = np.random.default_rng(seed)
    assign = np.concatenate((np.arange(k), rng.integers(0, k, n - k)))
    rng.shuffle(assign)
    return [np.flatnonzero(assign == i).tolist() for i in range(k)]


def brute_components(parent):
    """Parts of a parent-array forest (-1 marks roots) by union-find, first element order."""
    n = len(parent)
    uf = list(range(n))

    def find(u):
        while uf[u] != u:
            u = uf[u]
        return u

    for e in range(n):
        if parent[e] >= 0:
            uf[find(e)] = find(int(parent[e]))
    groups = {}
    for e in range(n):
        groups.setdefault(find(e), []).append(e)
    return sorted(groups.values(), key=lambda p: p[0])


@functools.cache
def family_block(n_cols):
    """The Cantor-Mills block A_k of ``n_cols`` columns, from its recursion.

    A_1 = [[1, 0], [1, 1]] and A_{k+1} stacks [A_k, A_k, I'] over
    [A_k, 1 - A_k, 0], where I' has a 1 at (i, i) for every row i of A_k but
    its last.
    """
    d = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    while d.shape[1] < n_cols:
        m, n = d.shape
        nxt = np.zeros((2 * m, 2 * n + m - 1), dtype=np.uint8)
        nxt[:m, :n] = d
        nxt[:m, n : 2 * n] = d
        nxt[np.arange(m - 1), 2 * n + np.arange(m - 1)] = 1
        nxt[m:, :n] = d
        nxt[m:, n : 2 * n] = 1 - d
        d = nxt
    if d.shape[1] != n_cols:
        raise AssertionError(f"no Cantor-Mills block has {n_cols} columns")
    return d


def as_dense(design):
    """A detecting design's 0/1 matrix by definition (int64).

    The A_k blocks of ``design._blocks`` sit side by side on the diagonal,
    each repeated ``count`` times, then the cut block ``design._cut``, if
    any: the first ``width`` columns of its kind's matrix, every row of it,
    then one identity row per remaining column.
    """
    mats = []
    for block, count in design._blocks:
        mats += [family_block(block.n_cols)] * count
    if design._cut:
        block, width = design._cut
        mats.append(family_block(block.n_cols)[:, :width])
    tail = design.n_cols - sum(b.shape[1] for b in mats)
    dense = np.zeros((sum(b.shape[0] for b in mats) + tail, design.n_cols), dtype=np.int64)
    r = c = 0
    for b in mats:
        dense[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    dense[r + np.arange(tail), c + np.arange(tail)] = 1
    return dense
