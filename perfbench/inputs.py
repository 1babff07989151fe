"""Seeded inputs of the benchmark workloads, made without calling cf3.

Matrices are plain tuples of three row tuples.  Everything here is integer
arithmetic on Python ints, so the inputs (and the independent checks in
checks.py) do not depend on the program under test.
"""

from __future__ import annotations

import json
import os
import random
from functools import lru_cache

from checks import is_irreducible

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "pool.json")

# The paper's smallest matrix outside Frobenius type (norm 42).
COUNTEREXAMPLE = ((1, 2, 0), (0, 1, 2), (-7, 0, 29))

# Frobenius matrices M(a1, a2, a3): ones above the diagonal, bottom row
# (a3, a2, a1).  These are the three reference classes of the paper.
REFERENCES = {
    "golden_ratio": (-1, 2, 1),
    "M_-1_3_1": (-1, 3, 1),
    "M_0_3_1": (0, 3, 1),
}


def frobenius_matrix(params):
    a1, a2, a3 = params
    return ((0, 1, 0), (0, 0, 1), (a3, a2, a1))


def fmt(m):
    return ";".join(",".join(str(v) for v in row) for row in m)


def parse(text):
    return tuple(tuple(int(v) for v in row.split(",")) for row in text.split(";"))


def flat_to_matrix(flat):
    return (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))


@lru_cache(maxsize=None)
def sphere_count(length, n):
    """Number of integer vectors of the given length with L1 norm n."""
    if length == 0:
        return 1 if n == 0 else 0
    return sum((1 if v == 0 else 2) * sphere_count(length - 1, n - v)
               for v in range(n + 1))


def sample_sphere(rng, length, n):
    """Uniform integer vector of the given length with L1 norm exactly n."""
    out = []
    for slot in range(length, 0, -1):
        pick = rng.randrange(sphere_count(slot, n))
        for mag in range(n + 1):
            ways = sphere_count(slot - 1, n - mag)
            options = 1 if mag == 0 else 2
            if pick < options * ways:
                out.append(0 if mag == 0 else (mag if pick < ways else -mag))
                n -= mag
                break
            pick -= options * ways
    return tuple(out)


def sl3_word(rng, steps):
    """(P, P^-1) for a product of ``steps`` elementary row additions."""
    p = [[int(i == j) for j in range(3)] for i in range(3)]
    q = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((1, -1))
        # P <- (E + s e_ij) P and P^-1 <- P^-1 (E - s e_ij)
        for k in range(3):
            p[i][k] += s * p[j][k]
        for k in range(3):
            q[k][j] -= s * q[k][i]
    return tuple(map(tuple, p)), tuple(map(tuple, q))


def load_pool():
    with open(POOL_PATH) as fh:
        return json.load(fh)


def stratified_rounds(rng, entries, recipe, rounds, key):
    """``rounds`` lists of pool entries holding ``recipe[k]`` entries of each
    stratum ``k = key(entry)``, drawn without replacement across the run."""
    by_key = {}
    for entry in entries:
        by_key.setdefault(key(entry), []).append(entry)
    picks = {}
    for k, per_round in recipe.items():
        members = by_key.get(k, [])
        if len(members) < per_round * rounds:
            raise ValueError("pool has %d entries of stratum %r, a run needs %d"
                             % (len(members), k, per_round * rounds))
        picks[k] = rng.sample(members, per_round * rounds)
    out = []
    for r in range(rounds):
        batch = []
        for k, per_round in recipe.items():
            batch.extend(picks[k][r * per_round:(r + 1) * per_round])
        rng.shuffle(batch)
        out.append(batch)
    return out


def hunt_candidates(seed, norms, per_norm):
    """Seeded uniform irreducible 3x3 matrices, ``per_norm`` at each norm."""
    rng = random.Random(seed)
    out = []
    for n in norms:
        got = 0
        while got < per_norm:
            m = flat_to_matrix(sample_sphere(rng, 9, n))
            if is_irreducible(m):
                out.append(m)
                got += 1
    return out
