"""A tour of Sweet KNN's adaptive scheme (Fig. 8 of the paper).

Walks one dataset shape after another past the adaptive scheme and
shows which configuration it picks — filter strength, kNearests
placement, threads per query — and what each choice buys against
running the same problem with the decision forced the other way.

Usage::

    python examples/adaptive_tour.py
"""

import numpy as np

from repro import knn_join, tesla_k20c

DEVICE = tesla_k20c()
#: Points in each of the first three scenarios.
N = 2500


def scenario(title, points, k, forced):
    """Run adaptively and with one decision forced; report both."""
    adaptive = knn_join(points, points, k, method="sweet", seed=0,
                        device=DEVICE)
    forced_run = knn_join(points, points, k, method="sweet", seed=0,
                          device=DEVICE, **forced)
    decisions = adaptive.stats.extra
    print(title)
    print("  problem: |Q|=|T|=%d d=%d k=%d  (k/d=%.2f)" % (
        points.shape[0], points.shape[1], k, k / points.shape[1]))
    print("  adaptive picked: filter=%s placement=%s tpq=%d" % (
        decisions["filter"], decisions["placement"],
        decisions["threads_per_query"]))
    print("  forced %-38s" % (forced,))
    print("  simulated time: adaptive %.3f ms vs forced %.3f ms" % (
        adaptive.sim_time_s * 1e3, forced_run.sim_time_s * 1e3))
    assert adaptive.matches(forced_run)
    print()


def clustered(n, dim, rng, n_clusters=30, spread=10.0):
    centers = rng.normal(scale=spread, size=(n_clusters, dim))
    points = centers[rng.integers(n_clusters, size=n)] + rng.normal(
        size=(n, dim))
    rng.shuffle(points)
    return points


def main():
    rng = np.random.default_rng(5)

    # 1. Large k on low-dimensional data: k/d = 64 > 8, so the scheme
    #    weakens the level-2 filter (Table V's regime).
    scenario("1. partial filtering kicks in at large k/d",
             clustered(N, 4, rng), k=256,
             forced={"force_filter": "full"})

    # 2. Tiny k: the kNearests array fits under th1 = 24 bytes, so it
    #    goes to shared memory.
    scenario("2. tiny kNearests lives in shared memory",
             clustered(N, 24, rng), k=6,
             forced={"force_placement": "global"})

    # 3. Moderate k: registers (th1 < k*4 <= th2).
    scenario("3. moderate kNearests lives in registers",
             clustered(N, 24, rng), k=32,
             forced={"force_placement": "global"})

    # 4. A small query set cannot fill the device with one thread per
    #    query; the scheme splits each query across many threads.
    scenario("4. small |Q| triggers multi-thread-per-query",
             clustered(96, 48, rng, n_clusters=8), k=8,
             forced={"threads_per_query": 1})


if __name__ == "__main__":
    main()
