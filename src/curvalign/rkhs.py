"""Kernel functions, RKHS distances and the kernelized curvature score.

Edge vectors are kernelized directly: the feature map is never
materialized, every quantity is expressed through k(., .).  With the linear
kernel everything here reduces exactly to the Euclidean machinery in
``geometry``.  The rbf kNN selects on the same centred D^2 as the Euclidean
one and lends K; a bundle is scored as a batch of one row, as in ``geometry``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvariantViolationError, ShapeMismatchError
from .geometry import (
    EdgeBundle,
    NeighborGraph,
    bundle_batch,
    knn_euclidean,
    knn_from_sq_distances,
    sq_distance_matrix,
)
from .numerics import curvature_rows, pair_terms, rbf_kernel_from_sq, unordered_pairs

# the median heuristic falls back to gamma = 1.0 at or below this median distance
EDGE_FLOOR = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Choice of kernel; gamma=None on an rbf spec means "median heuristic
    at the point of use"."""

    kind: str
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise InvariantViolationError(f"kernel kind must be linear|rbf, got {self.kind!r}")
        if self.gamma is not None and not 0.0 < self.gamma < np.inf:
            raise InvariantViolationError(
                f"rbf_gamma must be > 0 and finite, or empty, got {self.gamma!r}"
            )


def median_heuristic_gamma(points: np.ndarray) -> float:
    """gamma = 1 / (2 * median(pairwise distance)^2) over the b(b - 1)/2
    pairs of distinct rows (Garreau et al., arXiv:1707.07269).

    Falls back to 1.0 when the points are (numerically) all identical.
    ``knn_rkhs`` takes the same bandwidth, bit for bit, from the centred
    distance matrix it builds for the kNN, so it does not call this.
    """
    return _median_gamma(sq_distance_matrix(points))


def _median_gamma(sq: np.ndarray) -> float:
    """The median-heuristic gamma from a squared-distance matrix; ``sq`` is not changed.

    sqrt is monotone, so one partition of the strict upper triangle at N // 2
    finds the middle squared distances, and the median of their roots equals
    ``np.median`` of all N distances bit for bit.
    """
    n = sq.shape[0]
    if n < 2:
        return 1.0
    upper, end = np.empty(n * (n - 1) // 2), 0
    for i in range(n - 1):  # the strict upper triangle, row by row
        upper[end:end + n - 1 - i] = sq[i, i + 1:]
        end += n - 1 - i
    half = end // 2
    upper.partition(half)
    middle = upper[half:half + 1] if end % 2 else np.array([upper[:half].max(), upper[half]])
    med = float(np.median(np.sqrt(middle)))
    if med <= EDGE_FLOOR:
        return 1.0
    return 1.0 / (2.0 * med * med)


def resolve_spec(spec: KernelSpec, points: np.ndarray) -> KernelSpec:
    """Fill in the rbf bandwidth from the batch when left unspecified."""
    if spec.kind == "rbf" and spec.gamma is None:
        return KernelSpec("rbf", median_heuristic_gamma(points))
    return spec


def kernel_eval(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeMismatchError(f"kernel_eval: {a.shape} vs {b.shape}")
    if spec.kind == "linear":
        return float(a @ b)
    d = a - b
    return float(np.exp(-_gamma(spec) * (d @ d)))


def _gamma(spec: KernelSpec) -> Optional[float]:
    """The rbf bandwidth; None for the linear kernel."""
    if spec.kind == "linear":
        return None
    if spec.gamma is None:
        raise ValueError("rbf spec has no bandwidth; resolve it against a batch first")
    return spec.gamma


def rkhs_distance(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Distance between the images of a and b in the kernel's feature space."""
    radicand = kernel_eval(spec, a, a) - 2.0 * kernel_eval(spec, a, b) + kernel_eval(spec, b, b)
    return float(np.sqrt(max(radicand, 0.0)))


def knn_rkhs(points: np.ndarray, k: int, spec: KernelSpec) -> NeighborGraph:
    """Brute-force kNN under the RKHS distance; same tie rule as knn_euclidean.

    The linear kernel's kNN is ``knn_euclidean``.  The rbf kNN selects on
    D^2 of the centred points and hands the graph to ``rbf_graph``.
    """
    points = np.asarray(points, dtype=np.float64)
    if spec.kind == "rbf":
        graph = knn_from_sq_distances(sq_distance_matrix(points), k)
        graph.points = points
        return rbf_graph(graph, spec)
    graph = knn_euclidean(points, k)
    graph.kernel = spec
    return graph


def rbf_graph(graph: NeighborGraph, spec: KernelSpec) -> NeighborGraph:
    """A Euclidean kNN turned, in place, into the rbf kNN of the same points:
    2 - 2 exp(-gamma D^2) grows with D^2, so the neighbors stay.  The median
    bandwidth, when ``spec`` leaves it unset, comes from the graph's D^2,
    which then becomes K; the graph's ``kernel`` is the resolved spec."""
    if spec.gamma is None:
        spec = KernelSpec("rbf", _median_gamma(graph.pair_matrix))
    rbf_kernel_from_sq(graph.pair_matrix, spec.gamma)
    graph.kernel = spec
    return graph


def normalized_gram(edges: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix of the edges rescaled to unit diagonal.

    For the kernels in scope all entries land in [-1, 1]; the diagonal is
    exactly 1.  The others are the curvature primitive's pair terms of the
    bundle as a batch of one row, mirrored across the diagonal; a linear edge
    too short to resolve (a zero edge has no direction) raises
    DegenerateEdgeError.
    """
    terms = pair_terms(*bundle_batch(edges, _gamma(spec)))[0]
    values = np.eye(len(edges))
    a, b = unordered_pairs(len(edges))
    values[a, b] = values[b, a] = terms
    return values


def kernel_curvature_score(bundle: EdgeBundle, spec: KernelSpec) -> float:
    """Sum of the strict upper triangle of the normalized edge kernel matrix
    (``curvature_score`` for the linear kernel); ValueError below two edges."""
    return float(curvature_rows(*bundle_batch(bundle.edges, _gamma(spec)))[0])
