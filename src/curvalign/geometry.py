"""Exact k-nearest-neighbor search and discrete curvature scores.

A point is treated as the apex of a small polyhedron spanned by its k
nearest neighbors.  Translating the neighbors to the origin and projecting
them onto the unit sphere, the curvature score is the sum of cosine
similarities over all neighbor pairs; nearly colinear neighborhoods score
high, spread-out ones score low or negative.  A bundle is scored by the
curvature primitive's own kernels, as a batch of one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import InvariantViolationError, KTooLargeError
from .numerics import (
    _BLOCK_ELEMENTS,
    EDGE_FLOOR,
    Graph,
    Var,
    cosine_curvature,
    sq_distance_matrix,
    unit_edges,
)

if TYPE_CHECKING:
    from .rkhs import KernelSpec


@dataclass
class NeighborGraph:
    """Per-row neighbor indices, sorted by ascending distance then index.

    ``kernel`` is the resolved KernelSpec of an RKHS kNN, None for a
    Euclidean one.  An rbf kNN also keeps the kernel matrix it selected
    from, ``kernel_matrix``, and the array it was built from, ``points``:
    scoring that very array under the same spec reads the matrix instead of
    building it again.
    """

    indices: np.ndarray  # (b, k) int64
    kernel: Optional[KernelSpec] = None
    points: Optional[np.ndarray] = field(default=None, repr=False)
    kernel_matrix: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        b, _ = self.indices.shape
        rows = np.arange(b)[:, None]
        if np.any(self.indices == rows):
            raise ValueError("neighbor list contains the point itself")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= b):
            raise ValueError("neighbor index out of range")

    @property
    def metric(self):
        """The metric to score these neighbors under: "euclidean" or the kernel."""
        return "euclidean" if self.kernel is None else self.kernel


@dataclass
class EdgeBundle:
    """A center point and the edge vectors to its neighbors (rows)."""

    center: np.ndarray   # (d,)
    edges: np.ndarray    # (k, d), row a is neighbor_a - center


def knn_from_sq_distances(d2: np.ndarray, k: int,
                          key: Optional[Callable[[np.ndarray], np.ndarray]] = None
                          ) -> NeighborGraph:
    """Exact kNN given a full squared-distance matrix.

    Self-distances are ignored; ties are broken by ascending point index.
    Rows are selected in blocks of at most _BLOCK_ELEMENTS entries, so the
    temporaries stay bounded and ``d2`` is never copied whole.  ``key``, when
    given, maps a block of ``d2``'s rows to the distances to select on (the
    rbf kNN passes its kernel matrix K, and the RKHS distance 2 - 2K as the key).
    """
    b = d2.shape[0]
    if not 1 <= k <= b - 1:
        raise KTooLargeError(f"k={k} requires 1 <= k <= b-1 with b={b}")
    indices = np.empty((b, k), dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // b)
    for first in range(0, b, step):
        block = d2[first:first + step]
        indices[first:first + step] = _select(block if key is None else key(block), first, k)
    return NeighborGraph(indices)


def _select(dist: np.ndarray, first: int, k: int) -> np.ndarray:
    """The k nearest of rows first, first + 1, ... given their distances (m, b).

    Each row's k-th smallest distance comes from a partition; when exactly k
    entries lie at or below it they are the neighbors, ordered by (distance,
    index).  Rows whose ties straddle position k fall back to a stable sort.
    """
    m, b = dist.shape
    rows = np.arange(first, first + m)
    own = (np.arange(m), rows)  # a point is not its own neighbor
    part = dist.copy()
    part[own] = np.inf
    part.partition(k - 1, axis=1)
    chosen = dist <= part[:, [k - 1]]
    chosen[own] = False
    tied = np.count_nonzero(chosen, axis=1) != k
    chosen[tied] = False
    cols = np.nonzero(chosen)[1].reshape(-1, k)  # ascending index within a row
    order = np.argsort(dist[np.flatnonzero(~tied)[:, None], cols], axis=1, kind="stable")
    indices = np.empty((m, k), dtype=np.int64)
    indices[~tied] = np.take_along_axis(cols, order, axis=1)
    tied_rows = np.flatnonzero(tied)
    order = np.argsort(dist[tied_rows], axis=1, kind="stable")
    indices[tied_rows] = order[order != rows[tied_rows, None]].reshape(tied_rows.size, b - 1)[:, :k]
    return indices


def knn_euclidean(points: np.ndarray, k: int) -> NeighborGraph:
    """Brute-force Euclidean kNN over the rows of ``points``."""
    return knn_from_sq_distances(sq_distance_matrix(points), k)


def edge_bundle(points: np.ndarray, neighbors: NeighborGraph, row: int) -> EdgeBundle:
    points = np.asarray(points, dtype=np.float64)
    center = points[row]
    return EdgeBundle(center=center, edges=points[neighbors.indices[row]] - center)


def knn_metric(points: np.ndarray, k: int, metric) -> NeighborGraph:
    """kNN under a metric: the string "euclidean" or a KernelSpec.

    A kernel metric runs ``rkhs.knn_rkhs``, which resolves an unset rbf
    bandwidth; the graph's ``metric`` then carries the resolved spec.
    """
    if isinstance(metric, str) and metric == "euclidean":
        return knn_euclidean(points, k)
    from . import rkhs  # local import; rkhs depends on this module

    if not isinstance(metric, rkhs.KernelSpec):
        raise InvariantViolationError(f"metric must be 'euclidean' or a KernelSpec, got {metric!r}")
    return rkhs.knn_rkhs(points, k, metric)


def curvature_score(bundle: EdgeBundle) -> float:
    """Sum of pairwise cosine similarities between the bundle's edges.

    Bounded by k(k-1)/2 in absolute value.  Raises ValueError for fewer than
    two edges, and DegenerateEdgeError when an edge is shorter than
    EDGE_FLOOR (a zero edge has no direction).
    """
    edges = np.asarray(bundle.edges, dtype=np.float64)
    return float(cosine_curvature(*unit_edges(edges[None], 0)[1:])[0])


def batch_curvature(points: np.ndarray, k: int, metric="euclidean") -> np.ndarray:
    """Curvature score of every row against its k nearest neighbors.

    ``metric`` is either the string "euclidean" or a KernelSpec; the kernel
    branch finds neighbors by RKHS distance and scores with the normalized
    kernel.  Plain evaluation of the same primitive the trainer
    differentiates through curvature_scores_graph.
    """
    points = np.asarray(points, dtype=np.float64)
    neighbors = knn_metric(points, k, metric)
    return curvature_scores_graph(Graph().leaf(points), neighbors, neighbors.metric).value[:, 0]


def curvature_scores_graph(z: Var, neighbors: NeighborGraph, metric="euclidean") -> Var:
    """Build the curvature score vector (shape (b, 1)) on z's graph.

    Neighbor selection is fixed; gradients flow through the center and the
    selected neighbor coordinates only.  ``metric`` must be "euclidean" or a
    KernelSpec with a concrete bandwidth.  The kernel matrix of an rbf kNN
    under the same spec goes along; the primitive reads it only if the kNN
    was built from the very array z holds.
    """
    kind = "euclidean" if metric == "euclidean" else getattr(metric, "kind", None)
    if kind in ("euclidean", "linear"):
        aux = {"score": "cosine"}
    elif kind == "rbf":
        aux = {"score": "rbf", "gamma": metric.gamma}
        if neighbors.kernel_matrix is not None and neighbors.kernel == metric:
            aux["kernel"] = (neighbors.points, neighbors.kernel_matrix)
    else:
        raise InvariantViolationError(f"unknown metric {metric!r}")
    return z.graph.apply("curvature", z, neighbors=neighbors.indices, **aux)
