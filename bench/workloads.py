"""Benchmark inputs: the three workloads and the fixed known-bad instances.

Every workload function takes the freshly imported ``divmatch`` package and
calls the ``divmatch.instance`` functions through that module, so that a
traced run sees them. Inputs come only from ``generate_reviewer_instance``
(plus a weight override or a cost-mode conversion) and reach the solver
after a JSON round trip.
"""

from __future__ import annotations

import dataclasses
import math
import random

# Criterion 7's ladder shape: (papers t, reviewers n), 5 clusters of n/5
# reviewers, balanced genders, demand 4, class costs, lambda0 = 1,
# lambdas = (1, 1). The rungs stop where one solve takes a
# few seconds, so that a run repeats every solve several times: on a shared
# host a single 20-s solve (criterion 7's n=400 rung) reads anywhere from
# 17 to 28 s. Worker mode needs (t+1)*n^2 intra edges, so its rungs stop
# lower (its n=100 rung takes 12-17 s).
CLASS_LADDER = ((10, 40), (25, 100), (50, 200))
WORKER_LADDER = ((10, 40), (20, 80))
LADDER_CLUSTERS = 5
LADDER_DEMAND = 4
# The ladder keeps criterion 7's instance seed. Solve time is heavy-tailed
# in the instance seed (n=400 takes 17-24 s on seeds 1-6 but keeps
# re-detecting spurious walks for many minutes on seed 7), so a run-seeded
# ladder could not promise to finish; the run seed drives certify-small.
LADDER_SEED = 1

SMALL_COUNT = 2000
SMALL_MAX_TEAMS = 3
SMALL_MAX_WORKERS = 14
SMALL_WORKER_SHARE = 0.25
SMALL_SHAPE_SEED = 0
# Oracle time is heavy-tailed in the number of candidate matrices; the cap
# keeps a few run-seeded instances from dominating a pass.
SMALL_MAX_SPACE = 1_000_000

# Instances the solver gets wrong at the commit that defined the benchmark:
# generator arguments, then (lambda0, lambdas). They exercise both failure
# paths of the accounting: a gap against the oracle and a raised error.
KNOWN_BAD = (
    ((3, (3, 3, 3, 3), "random", 4, 397), (2, (3, 2))),     # 198 vs 196
    ((3, (3, 4, 2, 3), "balanced", 4, 1070), (1, (1, 1))),  # 96 vs 95
    ((4, (4, 2, 3, 2), "balanced", 2, 196), (1, (1, 1))),   # RuntimeError
)


def round_trip(dm, inst):
    """The instance as the program receives it: dumped and parsed back."""
    parsed = dm.instance.parse_instance(dm.instance.dump_instance(inst))
    if parsed != inst:
        raise ValueError("instance changed in the JSON round trip")
    return parsed


def _with_weights(dm, inst, lambda0, lambdas):
    return dataclasses.replace(
        inst, weights=dm.instance.TradeoffWeights(lambda0, tuple(lambdas)))


def ladder(dm, rungs, mode):
    out = []
    for papers, reviewers in rungs:
        inst = dm.instance.generate_reviewer_instance(
            papers, [reviewers // LADDER_CLUSTERS] * LADDER_CLUSTERS,
            "balanced", LADDER_DEMAND, seed=LADDER_SEED)
        out.append(round_trip(dm, dm.instance.convert_cost_mode(inst, mode)))
    return out


def small_instance(dm, shape, rng):
    """One reviewer instance with t <= 3 and n <= 14: ``shape`` fixes its
    size, weights and cost mode, ``rng`` draws its labels and costs."""
    teams, clusters, demand, lambda0, lambdas, worker_costs = shape
    inst = dm.instance.generate_reviewer_instance(
        teams, clusters, rng.choice(("balanced", "random")), demand,
        seed=rng.randrange(1 << 30))
    inst = _with_weights(dm, inst, lambda0, lambdas)
    if worker_costs:
        inst = dm.instance.convert_cost_mode(inst, "worker")
    return inst


def _oracle_space_bound(teams, clusters):
    """Most count matrices the oracle can face for this shape, over every
    gender split of the clusters."""
    return math.prod(
        max(math.comb(f + teams, teams) * math.comb(m - f + teams, teams)
            for f in range(m + 1))
        for m in clusters)


def small_shapes():
    """The fixed shapes of certify-small. They are the same for every run
    seed, so that the work of a pass depends little on the seed."""
    rng = random.Random(SMALL_SHAPE_SEED)
    shapes = []
    for _ in range(SMALL_COUNT):
        teams = rng.randint(1, SMALL_MAX_TEAMS)
        while True:
            clusters = [rng.randint(1, 3) for _ in range(rng.randint(2, 5))]
            if teams <= sum(clusters) <= SMALL_MAX_WORKERS and \
                    _oracle_space_bound(teams, clusters) <= SMALL_MAX_SPACE:
                break
        shapes.append((teams, clusters, rng.randint(1, sum(clusters) // teams),
                       rng.choice((1, 2)),
                       (rng.randint(0, 3), rng.randint(0, 3)),
                       rng.random() < SMALL_WORKER_SHARE))
    return shapes


def certify_small(dm, seed):
    rng = random.Random(seed)
    return [round_trip(dm, small_instance(dm, shape, rng))
            for shape in small_shapes()]


def known_bad(dm):
    out = []
    for (papers, clusters, genders, demand, seed), weights in KNOWN_BAD:
        inst = dm.instance.generate_reviewer_instance(
            papers, list(clusters), genders, demand, seed=seed)
        out.append(round_trip(dm, _with_weights(dm, inst, *weights)))
    return out


# name -> (function(dm, seed) returning the instances of one pass,
#          nominal wall seconds of one checked pass on the tuning host)
WORKLOADS = {
    "ladder-class": (lambda dm, seed: ladder(dm, CLASS_LADDER, "class"), 7.0),
    "ladder-worker": (lambda dm, seed: ladder(dm, WORKER_LADDER, "worker"),
                      7.0),
    "certify-small": (certify_small, 10.0),
}
