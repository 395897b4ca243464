"""Pinned work counters and CSR answers of the predicate joins.

The ε-range, self-join and reverse-KNN engines run the same TI driver
as the top-k engines; this pins what they compute on one seeded
fixture — every ``JoinStats`` counter and a digest of each CSR result —
so a refactor of the driver that moves any count or pair fails here.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import knn_join


@pytest.fixture(scope="module")
def fixture_sets():
    rng = np.random.default_rng(2024)
    a = rng.normal(size=(90, 5))
    b = rng.normal(size=(90, 5)) + 4.0
    points = np.concatenate([a, b])
    rng.shuffle(points)
    return points[::3] + 0.05, points


def _csr_digest(result):
    digest = hashlib.sha256(result.indptr.astype("<i8").tobytes())
    digest.update(result.indices.astype("<i8").tobytes())
    return digest.hexdigest()[:16]


def _counters(**values):
    shape = {"n_targets": 180, "dim": 5, "mt": 40}
    return dict(shape, **values)


# name -> (knn_join arguments, pair count, CSR digest, distance sum,
#          JoinStats counters, pinned JoinStats.extra entries)
PINNED = {
    "range-join": (
        dict(queries=0, k=1, method="range-join", eps=1.2),
        154, "b5b08b6c7105c58a", 97.19787040639059,
        _counters(n_queries=60, k=0, mq=23,
                  level2_distance_computations=2042,
                  center_distance_computations=1077,
                  init_distance_computations=8580, examined_points=2042,
                  candidate_cluster_pairs=370, level1_survivor_pairs=5035,
                  heap_updates=154, predicate_accepted_pairs=154),
        {"predicate": "eps-range"}),
    "self-join-eps": (
        dict(queries=1, k=1, method="self-join-eps", eps=1.2),
        278, "c7a23ca7f9d17aeb", 267.84182594503716,
        _counters(n_queries=180, k=0, mq=40,
                  level2_distance_computations=2854,
                  center_distance_computations=3216,
                  init_distance_computations=14400, examined_points=5867,
                  candidate_cluster_pairs=627, level1_survivor_pairs=15437,
                  heap_updates=139, predicate_accepted_pairs=139),
        {"predicate": "eps-range"}),
    # Two tiles: a pair whose partner sits in the other tile is computed
    # from both sides, so the distance count rises; the answer does not.
    "self-join-eps/2-tiles": (
        dict(queries=1, k=1, method="self-join-eps", eps=1.2,
             query_batch_size=90),
        278, "c7a23ca7f9d17aeb", 267.84182594503716,
        _counters(n_queries=180, k=0, mq=40,
                  level2_distance_computations=4348,
                  center_distance_computations=3216,
                  init_distance_computations=14400, examined_points=5867,
                  candidate_cluster_pairs=627, level1_survivor_pairs=15437,
                  heap_updates=219, predicate_accepted_pairs=219),
        {"predicate": "eps-range", "query_batches": 2}),
    "rknn": (
        dict(queries=0, k=4, method="rknn"),
        274, "cad8ebf519622ca2", 299.7527645525671,
        _counters(n_queries=60, k=4, mq=23,
                  level2_distance_computations=3642,
                  center_distance_computations=1169,
                  init_distance_computations=21589, examined_points=3642,
                  candidate_cluster_pairs=421, level1_survivor_pairs=5429,
                  heap_updates=274, predicate_accepted_pairs=274),
        {"predicate": "rknn", "rknn_prep_distances": 13009}),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_predicate_join_counters_are_pinned(fixture_sets, name):
    args, n_pairs, digest, dist_sum, counters, pinned_extra = PINNED[name]
    args = dict(args)
    queries = fixture_sets[args.pop("queries")]
    k = args.pop("k")
    result = knn_join(queries, fixture_sets[1], k, seed=11, **args)

    stats = dataclasses.asdict(result.stats)
    extra = stats.pop("extra")
    assert stats == counters
    assert {key: extra.get(key) for key in pinned_extra} == pinned_extra
    assert result.n_pairs == n_pairs
    assert _csr_digest(result) == digest
    assert float(result.distances.sum()) == pytest.approx(dist_sum,
                                                          rel=1e-12)
