"""Synthetic point-set generators.

These generators produce the *stand-ins* for the paper's nine UCI
datasets (Table III).  What matters for reproducing the paper is not
the actual UCI values but the properties TI filtering responds to:

* **cluster structure** — how much of the pairwise-distance mass the
  landmark bounds can prune (intrinsic dimensionality, cluster
  separation);
* **dimensionality** — the cost of one exact distance and the k/d
  adaptive threshold;
* **cardinality** — parallelism and memory pressure.

Every generator shuffles its output: real datasets are not stored in
cluster order, and an unshuffled set would hand the basic GPU
implementation warp-uniform work for free, hiding exactly the
divergence Sweet KNN's thread-data remapping repairs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gaussian_mixture", "road_network_3d", "color_clusters",
    "high_dim_weakly_clustered", "sparse_high_dim", "repeated_records",
    "skewed_features",
]


def _shuffled(points, rng):
    points = np.ascontiguousarray(points, dtype=np.float64)
    rng.shuffle(points)
    return points


def gaussian_mixture(n, dim, rng, n_clusters=32, separation=10.0,
                     cluster_std=1.0, intrinsic_dim=None):
    """Clustered tabular data (the kegg/keggD/ipums/blog regime).

    ``intrinsic_dim`` embeds the clusters in a lower-dimensional
    subspace plus small ambient noise — real tabular UCI sets have low
    intrinsic dimension, which is why TI filtering prunes >99 % of
    their distance computations.
    """
    n = int(n)
    dim = int(dim)
    latent = int(intrinsic_dim) if intrinsic_dim else dim
    latent = min(latent, dim)

    centers = rng.normal(scale=separation, size=(n_clusters, latent))
    sizes = rng.multinomial(n, np.ones(n_clusters) / n_clusters)
    chunks = []
    for center, size in zip(centers, sizes):
        if size == 0:
            continue
        chunks.append(center + rng.normal(scale=cluster_std,
                                          size=(size, latent)))
    latent_points = np.concatenate(chunks)

    if latent == dim:
        points = latent_points
    else:
        basis = rng.normal(size=(latent, dim)) / np.sqrt(latent)
        points = latent_points @ basis
        points += rng.normal(scale=0.01 * cluster_std, size=(n, dim))
    return _shuffled(points, rng)


def road_network_3d(n, rng, n_roads=40, dim=4):
    """Points along 3-D road polylines (the *3DNet* regime).

    The UCI 3D spatial network dataset holds road-segment coordinates
    with altitude: locally one-dimensional structure in low ambient
    dimension — extremely clusterable.
    """
    n = int(n)
    per_road = np.maximum(1, rng.multinomial(n, np.ones(n_roads) / n_roads))
    chunks = []
    for count in per_road:
        start = rng.uniform(-220, 220, size=3)
        heading = rng.normal(size=3)
        heading /= np.linalg.norm(heading)
        # A road: a smooth random walk.
        steps = rng.normal(scale=0.4, size=(count, 3)) + heading
        path = start + np.cumsum(steps, axis=0)
        jitter = rng.normal(scale=0.05, size=(count, 3))
        road_points = path + jitter
        extra = np.full((count, dim - 3),
                        rng.uniform(0, 1)) + rng.normal(
                            scale=0.02, size=(count, dim - 3))
        chunks.append(np.hstack([road_points, extra]))
    points = np.concatenate(chunks)[:n]
    return _shuffled(points, rng)


def color_clusters(n, rng, dim=4, n_clusters=60):
    """Dense colour-space blobs (the *skin* segmentation regime).

    RGB-like values in a bounded cube, concentrated in a few dense
    regions (skin tones / background tones).
    """
    n = int(n)
    centers = rng.uniform(30, 225, size=(n_clusters, dim))
    weights = rng.dirichlet(np.ones(n_clusters) * 3.0)
    sizes = rng.multinomial(n, weights)
    chunks = []
    for center, size in zip(centers, sizes):
        if size == 0:
            continue
        std = rng.uniform(0.8, 2.5)
        chunks.append(center + rng.normal(scale=std, size=(size, dim)))
    points = np.clip(np.concatenate(chunks), 0, 255)
    return _shuffled(points, rng)


def high_dim_weakly_clustered(n, dim, rng, intrinsic_dim=64):
    """High-dimensional, weakly clusterable data (the *arcene* regime).

    Mass-spectrometry features: thousands of dimensions with a fairly
    high intrinsic dimension, so triangle-inequality bounds are loose
    and filtering saves little (the paper measures 26.9 % on arcene
    versus >99 % on the tabular sets).
    """
    n = int(n)
    dim = int(dim)
    latent = rng.normal(size=(n, intrinsic_dim))
    basis = rng.normal(size=(intrinsic_dim, dim)) / np.sqrt(intrinsic_dim)
    points = latent @ basis + rng.normal(scale=0.6, size=(n, dim))
    return _shuffled(points, rng)


def sparse_high_dim(n, dim, rng, n_groups=12, intrinsic_dim=24):
    """Sparse-ish, moderately clusterable high-dim data (*dor* regime).

    Dorothea is binary drug-screening data: very high dimension with
    group structure but enough within-group variation that TI filtering
    saves a large-but-not-overwhelming share (91.5 % in the paper).
    Modelled as well-separated groups with a moderate intrinsic
    dimension so the k-NN radius sits well inside the group radius.
    """
    n = int(n)
    dim = int(dim)
    centers = rng.normal(scale=10.0, size=(n_groups, intrinsic_dim))
    sizes = rng.multinomial(n, np.ones(n_groups) / n_groups)
    chunks = []
    for center, size in zip(centers, sizes):
        if size == 0:
            continue
        chunks.append(center + rng.normal(size=(size, intrinsic_dim)))
    latent = np.concatenate(chunks)
    basis = rng.normal(size=(intrinsic_dim, dim)) / np.sqrt(intrinsic_dim)
    points = latent @ basis
    points += rng.normal(scale=0.1, size=(n, dim))
    return _shuffled(points, rng)


def repeated_records(n, dim, rng, n_patterns=200, noise=0.02):
    """Heavily repeated traffic records (the *kdd* cup regime).

    Network-connection records repeat the same few patterns millions
    of times; nearly all distance computations collapse under TI.
    """
    n = int(n)
    patterns = rng.normal(scale=5.0, size=(n_patterns, dim))
    weights = rng.dirichlet(np.ones(n_patterns) * 8.0)
    assignment = rng.choice(n_patterns, size=n, p=weights)
    points = patterns[assignment] + rng.normal(scale=noise, size=(n, dim))
    return _shuffled(points, rng)


def skewed_features(n, dim, rng, n_clusters=36, intrinsic_dim=6,
                    skew_tau=6.0):
    """Skewed count-like features (the *blog* feedback regime).

    A low-intrinsic-dimension Gaussian mixture warped through an
    exponential, giving the heavy-tailed positive features of blog
    statistics while preserving the cluster structure TI exploits.
    """
    mixture = gaussian_mixture(n, dim, rng, n_clusters=n_clusters,
                               separation=12.0, intrinsic_dim=intrinsic_dim)
    points = np.exp(mixture / skew_tau)
    return _shuffled(points, rng)
