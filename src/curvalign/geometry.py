"""Exact k-nearest-neighbor search and discrete curvature scores.

A point is treated as the apex of a small polyhedron spanned by its k
nearest neighbors.  Translating the neighbors to the origin and projecting
them onto the unit sphere, the curvature score is the sum of cosine
similarities over all neighbor pairs; nearly colinear neighborhoods score
high, spread-out ones score low or negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InvariantViolationError, KTooLargeError
from .numerics import EDGE_FLOOR, Graph, Var, edge_curvature, sq_distance_matrix

if TYPE_CHECKING:
    from .rkhs import KernelSpec


@dataclass
class NeighborGraph:
    """Per-row neighbor indices, sorted by ascending distance then index.

    ``kernel`` is the resolved KernelSpec of an RKHS kNN, None for a
    Euclidean one.
    """

    indices: np.ndarray  # (b, k) int64
    source: str = "batch"
    kernel: Optional[KernelSpec] = None

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


def knn_from_sq_distances(d2: np.ndarray, k: int, source: str) -> NeighborGraph:
    """Exact kNN given a full squared-distance matrix.

    Self-distances are ignored; ties are broken by ascending point index.
    Each row's k-th smallest distance comes from a partition; when exactly k
    entries lie at or below it they are the neighbors, ordered by (distance,
    index).  Rows whose ties straddle position k fall back to a stable sort.
    """
    b = d2.shape[0]
    if not 1 <= k <= b - 1:
        raise KTooLargeError(f"k={k} requires 1 <= k <= b-1 with b={b}")
    part = d2.copy()
    np.fill_diagonal(part, np.inf)  # a point is not its own neighbor
    part.partition(k - 1, axis=1)
    chosen = d2 <= part[:, [k - 1]]
    np.fill_diagonal(chosen, False)
    tied = np.count_nonzero(chosen, axis=1) != k
    chosen[tied] = False
    cols = np.nonzero(chosen)[1].reshape(-1, k)  # ascending index within a row
    order = np.argsort(d2[np.flatnonzero(~tied)[:, None], cols], axis=1, kind="stable")
    indices = np.empty((b, k), dtype=np.int64)
    indices[~tied] = np.take_along_axis(cols, order, axis=1)
    rows = np.flatnonzero(tied)
    order = np.argsort(d2[rows], axis=1, kind="stable")
    indices[rows] = order[order != rows[:, None]].reshape(rows.size, b - 1)[:, :k]
    return NeighborGraph(indices, source=source)


def knn_euclidean(points: np.ndarray, k: int, source: str = "batch") -> NeighborGraph:
    """Brute-force Euclidean kNN over the rows of ``points``."""
    return knn_from_sq_distances(sq_distance_matrix(points), k, source)


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


def _score_aux(metric) -> dict:
    """Aux of the ``curvature`` primitive for a metric: cosine scores for
    "euclidean" and the linear kernel, rbf scores with the spec's gamma."""
    kind = "euclidean" if metric == "euclidean" else getattr(metric, "kind", None)
    if kind in ("euclidean", "linear"):
        return {"score": "cosine"}
    if kind == "rbf":
        return {"score": "rbf", "gamma": metric.gamma}
    raise InvariantViolationError(f"unknown metric {metric!r}")


def bundle_score(bundle: EdgeBundle, metric) -> float:
    """Curvature score of one edge bundle under a metric (see _score_aux)."""
    edges = np.asarray(bundle.edges, dtype=np.float64)
    return float(edge_curvature(edges[None], **_score_aux(metric))[0])


def curvature_score(bundle: EdgeBundle) -> float:
    """Sum of pairwise cosine similarities between the bundle's edges.

    Bounded by k(k-1)/2 in absolute value.  Raises DegenerateEdgeError when
    an edge is shorter than EDGE_FLOOR (a zero edge has no direction).
    """
    return bundle_score(bundle, "euclidean")


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
    KernelSpec with a concrete bandwidth.
    """
    return z.graph.apply("curvature", z, neighbors=neighbors.indices, **_score_aux(metric))
