"""Brute-force oracles and enumerators used as independent checks.

Everything here computes from ground truth by direct definition, never
through the query machinery under test.
"""

import functools

import numpy as np

from rankprobe.weighing import _B16


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
    """The design block of ``n_cols`` columns, from its family's recursion.

    Cantor-Mills A_k: A_1 = [[1, 0], [1, 1]] and A_{k+1} stacks
    [A_k, A_k, I'] over [A_k, 1 - A_k, 0], where I' has a 1 at (i, i) for
    every row i of A_k but its last.  Seeded D_k: D'_1 = [B16; all-ones] and
    D'_{j+1} stacks [D'_j, D'_j, I'], [D'_j, 1 - D'_j, 0] and an all-ones row,
    I' as above, its last row the all-ones row; D_k is D'_k without that last
    row.  No column count occurs in both families.
    """
    # (seed, rows added per level beyond the two halves: the all-ones row)
    for seed, ones in (([[1, 0], [1, 1]], 0), (np.vstack((_B16, np.ones(16, dtype=np.int64))), 1)):
        d = np.array(seed, dtype=np.uint8)
        while d.shape[1] < n_cols:
            m, n = d.shape
            nxt = np.zeros((2 * m + ones, 2 * n + m - 1), dtype=np.uint8)
            nxt[:m, :n] = d
            nxt[:m, n : 2 * n] = d
            nxt[np.arange(m - 1), 2 * n + np.arange(m - 1)] = 1
            nxt[m : 2 * m, :n] = d
            nxt[m : 2 * m, n : 2 * n] = 1 - d
            nxt[2 * m :] = 1
            d = nxt
        if d.shape[1] == n_cols:
            return d[: d.shape[0] - ones]
    raise AssertionError(f"no family block has {n_cols} columns")


def as_dense(design):
    """A detecting design's 0/1 matrix by definition (int64).

    The blocks of ``design._blocks`` (B16 for 16 columns, A_k or the seeded
    D_k otherwise) sit side by side on the diagonal, each repeated ``count``
    times, then the cut block ``design._cut``, if any: the first ``width``
    columns of its kind's matrix without the rows left all zero, then one
    identity row per remaining column.
    """
    mats = []
    for block, count in design._blocks:
        mats += [_B16 if block.n_cols == 16 else family_block(block.n_cols)] * count
    if design._cut:
        block, width = design._cut
        cut = (_B16 if block.n_cols == 16 else family_block(block.n_cols))[:, :width]
        mats.append(cut[cut.any(axis=1)])
    tail = design.n_cols - sum(b.shape[1] for b in mats)
    dense = np.zeros((sum(b.shape[0] for b in mats) + tail, design.n_cols), dtype=np.int64)
    r = c = 0
    for b in mats:
        dense[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    dense[r + np.arange(tail), c + np.arange(tail)] = 1
    return dense
