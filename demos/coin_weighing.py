"""The coin-weighing primitives underneath the learners.

A detecting design recovers any binary vector from one round of subset sums
using noticeably fewer sums than coordinates; adaptive splitting finds small
supports quickly; and a hidden perfect matching is reconstructed from
counting queries.
"""

import numpy as np

from rankprobe import build_detecting_matrix, recover_matching, recover_sparse

# --- full vector recovery from non-adaptive subset sums ---
N = 1440
design = build_detecting_matrix(N)
print(f"detecting design: {N} columns, {design.n_rows} rows ({design.n_rows / N:.3f} per column)")

rng = np.random.default_rng(11)
x = (rng.random(N) < 0.37).astype(np.int64)
measurements = design.measure(x)
recovered = design.decode(measurements)
print(f"decode round trip exact: {np.array_equal(recovered, x)} (|x| = {int(x.sum())})")

# --- adaptive sparse recovery from a block sum-query callback ---
# Each call answers one block of rows: a whole detecting design at once, or a
# single halving query.  Row i is cols[bounds[i]:bounds[i + 1]], and each row
# is one sum query, so the callback is where queries are counted.
support = set(rng.choice(4096, size=64, replace=False).tolist())
hidden = np.zeros(4096, dtype=np.int64)
hidden[list(support)] = 1
blocks = []  # rows per block


def sum_oracle(cols, bounds):
    blocks.append(len(bounds) - 1)
    return [int(hidden[cols[a:b]].sum()) for a, b in zip(bounds[:-1], bounds[1:])]


found = recover_sparse(4096, sum_oracle)
strategy = "hybrid" if max(blocks) > 1 else "binary-split"  # a block of several rows is a design
print(
    f"sparse recovery: found {found.size} of 64 ones in 4096 columns "
    f"using {sum(blocks)} sum queries in {len(blocks)} blocks ({strategy})"
)
assert set(found.tolist()) == support

# --- hidden perfect matching from additive queries ---
d = 512
xs = np.arange(d)
ys = np.arange(d, 2 * d)
perm = rng.permutation(d)
partner = {int(xs[perm[j]]): int(ys[j]) for j in range(d)}
pair_arr = np.full(2 * d, -1, dtype=np.int64)
for a, b in partner.items():
    pair_arr[a] = b
    pair_arr[b] = a


add_queries = [0]


def add_oracle(subset):
    add_queries[0] += 1
    arr = np.asarray(subset, dtype=np.int64)
    mask = np.zeros(2 * d, dtype=bool)
    mask[arr] = True
    return int(np.count_nonzero(mask[arr] & mask[pair_arr[arr]])) // 2


match = recover_matching(xs, ys, add_oracle)
print(
    f"matching reconstruction: {d} pairs from {add_queries[0]} add queries "
    f"({add_queries[0] / d:.2f} per pair), exact: {match == partner}"
)
