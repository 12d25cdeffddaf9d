"""Exact k-nearest-neighbor search and discrete curvature scores.

A point is treated as the apex of a small polyhedron spanned by its k
nearest neighbors.  Translating the neighbors to the origin and projecting
them onto the unit sphere, the curvature score is the sum of cosine
similarities over all neighbor pairs; nearly colinear neighborhoods score
high, spread-out ones score low or negative.  Every kNN selects on the
squared distances of the centred points and keeps them for the scores to
read; a bundle is scored by the curvature primitive's kernel, as a batch of
one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InvariantViolationError, KTooLargeError
from .numerics import (
    _BLOCK_ELEMENTS,
    Graph,
    Var,
    curvature_rows,
    rbf_kernel_from_sq,
    sq_distance_matrix,
)

if TYPE_CHECKING:
    from .rkhs import KernelSpec


@dataclass
class NeighborGraph:
    """Per-row neighbor indices, sorted by ascending distance then index.

    ``kernel`` is the resolved KernelSpec of an RKHS kNN, None for a
    Euclidean one.  A kNN also keeps the array it was built from, ``points``,
    and its ``pair_matrix``: the D^2 it selected on, or K for rbf.  Scoring
    that very array reads the matrix instead of building it again.
    """

    indices: np.ndarray  # (b, k) int64
    kernel: Optional[KernelSpec] = None
    points: Optional[np.ndarray] = field(default=None, repr=False)
    pair_matrix: Optional[np.ndarray] = field(default=None, repr=False)

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


def knn_from_sq_distances(d2: np.ndarray, k: int) -> NeighborGraph:
    """Exact kNN given a full squared-distance matrix, which the graph keeps.

    Self-distances are ignored; ties are broken by ascending point index.
    Rows are selected in blocks of at most _BLOCK_ELEMENTS entries, so the
    temporaries stay bounded and ``d2`` is never copied whole.  Every kNN in
    the package selects on ``sq_distance_matrix(points)``.
    """
    b = d2.shape[0]
    if not 1 <= k <= b - 1:
        raise KTooLargeError(f"k={k} requires 1 <= k <= b-1 with b={b}")
    indices = np.empty((b, k), dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // b)
    for first in range(0, b, step):
        indices[first:first + step] = _select(d2[first:first + step], first, k)
    return NeighborGraph(indices, pair_matrix=d2)


def _select(dist: np.ndarray, first: int, k: int) -> np.ndarray:
    """The k nearest of rows first, first + 1, ... given their distances (m, b).

    Each row's k-th smallest distance comes from a partition; when exactly k
    entries lie at or below it, one flat scan finds them, ordered by (distance,
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
    cols = np.flatnonzero(chosen).reshape(-1, k) % b  # ascending within a row
    order = np.argsort(dist[np.flatnonzero(~tied)[:, None], cols], axis=1, kind="stable")
    indices = np.empty((m, k), dtype=np.int64)
    indices[~tied] = np.take_along_axis(cols, order, axis=1)
    tied_rows = np.flatnonzero(tied)
    order = np.argsort(dist[tied_rows], axis=1, kind="stable")
    indices[tied_rows] = order[order != rows[tied_rows, None]].reshape(tied_rows.size, b - 1)[:, :k]
    return indices


def knn_euclidean(points: np.ndarray, k: int) -> NeighborGraph:
    """Brute-force Euclidean kNN over the rows of ``points``."""
    points = np.asarray(points, dtype=np.float64)
    graph = knn_from_sq_distances(sq_distance_matrix(points), k)
    graph.points = points
    return graph


def bundle_batch(edges: np.ndarray, gamma: Optional[float] = None):
    """A bundle as a batch of one row: its center at the origin (row 0) and
    its k edges as points.  Returns the batch's pair matrix, row 0's neighbor
    table [[1, ..., k]] and the score that reads the matrix: cosine on D^2
    of the centred points, or with ``gamma`` rbf on the kernel matrix."""
    edges = np.asarray(edges, dtype=np.float64)
    points = np.concatenate([np.zeros((1, edges.shape[1])), edges])
    sq, neighbors = sq_distance_matrix(points), np.arange(1, len(points))[None]
    if gamma is None:
        return sq, neighbors, "cosine"
    return rbf_kernel_from_sq(sq, gamma), neighbors, "rbf"


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

    Bounded by k(k-1)/2 in absolute value.  Raises ValueError for fewer
    than two edges, and DegenerateEdgeError for an edge too short to resolve
    against the bundle's spread (numerics.SHORT_EDGE).
    """
    return float(curvature_rows(*bundle_batch(bundle.edges))[0])


def batch_curvature(points: np.ndarray, k: int, metric="euclidean") -> np.ndarray:
    """Curvature score of every row against its k nearest neighbors.

    ``metric`` is either the string "euclidean" or a KernelSpec; the kernel
    branch finds neighbors by RKHS distance and scores with the normalized
    kernel.  Plain evaluation of the same primitive the trainer
    differentiates through curvature_scores_graph.
    """
    return graph_curvature(knn_metric(np.asarray(points, dtype=np.float64), k, metric))


def graph_curvature(graph: NeighborGraph) -> np.ndarray:
    """Curvature score of every row of a kNN's own ``points`` under its metric."""
    return curvature_scores_graph(Graph().leaf(graph.points), graph, graph.metric).value[:, 0]


def curvature_scores_graph(z: Var, neighbors: NeighborGraph, metric="euclidean") -> Var:
    """Build the curvature score vector (shape (b, 1)) on z's graph.

    Neighbor selection is fixed; gradients flow through the center and the
    selected neighbor coordinates only.  ``metric`` must be "euclidean" or a
    KernelSpec with a concrete bandwidth.  The kNN's pair matrix goes along
    when the kNN ran under this very metric; the primitive reads it only if
    the kNN was built from the very array z holds.
    """
    kind = "euclidean" if metric == "euclidean" else getattr(metric, "kind", None)
    if kind in ("euclidean", "linear"):
        aux = {"score": "cosine"}
    elif kind == "rbf":
        aux = {"score": "rbf", "gamma": metric.gamma}
    else:
        raise InvariantViolationError(f"unknown metric {metric!r}")
    if neighbors.pair_matrix is not None and neighbors.metric == metric:
        aux["pairs"] = (neighbors.points, neighbors.pair_matrix)
    return z.graph.apply("curvature", z, neighbors=neighbors.indices, **aux)
