"""Kernel functions, RKHS distances and the kernelized curvature score.

Edge vectors are kernelized directly: the feature map is never
materialized, every quantity is expressed through k(., .).  With the linear
kernel everything here reduces exactly to the Euclidean machinery in
``geometry``.  An rbf bundle is scored by the curvature primitive's
``rbf_curvature`` over its normalized Gram matrix, every edge a neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvariantViolationError, ShapeMismatchError
from .geometry import (
    EDGE_FLOOR,
    EdgeBundle,
    NeighborGraph,
    curvature_score,
    knn_euclidean,
    knn_from_sq_distances,
    sq_distance_matrix,
)
from .numerics import centred, rbf_curvature, rbf_kernel_from_sq, rbf_kernel_matrix, unit_edges


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
    """gamma = 1 / (2 * median(pairwise distance)^2) over the batch.

    Falls back to 1.0 when the points are (numerically) all identical.  The
    distances come from the column-centred points, as in ``knn_rkhs``,
    which takes the same bandwidth, bit for bit, from the distance matrix
    it builds for the kNN, so it does not call this.
    """
    return _median_gamma(sq_distance_matrix(centred(points)))


def _median_gamma(sq: np.ndarray) -> float:
    """The median-heuristic gamma from a squared-distance matrix; ``sq`` is not changed."""
    n = sq.shape[0]
    if n < 2:
        return 1.0
    dist = sq[np.arange(n)[:, None] < np.arange(n)]  # strict upper triangle, a copy
    np.sqrt(dist, out=dist)
    med = float(np.median(dist, overwrite_input=True))
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


def _gamma(spec: KernelSpec) -> float:
    if spec.gamma is None:
        raise ValueError("rbf spec has no bandwidth; resolve it against a batch first")
    return spec.gamma


def rkhs_distance(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Distance between the images of a and b in the kernel's feature space."""
    radicand = kernel_eval(spec, a, a) - 2.0 * kernel_eval(spec, a, b) + kernel_eval(spec, b, b)
    return float(np.sqrt(max(radicand, 0.0)))


def knn_rkhs(points: np.ndarray, k: int, spec: KernelSpec) -> NeighborGraph:
    """Brute-force kNN under the RKHS distance; same tie rule as knn_euclidean.

    The linear kernel's RKHS distance is the Euclidean one.  For rbf, one
    squared-distance matrix of the column-centred points feeds the
    median-heuristic bandwidth (when ``spec`` leaves it unset), then turns
    into the kernel matrix K = exp(-gamma sq) in place; the kNN selects on
    the RKHS distance 2 - 2K, formed one row block at a time.  The
    returned graph records the resolved spec as ``kernel``, and for rbf
    keeps K and ``points`` so that scoring these points reads K.
    """
    points = np.asarray(points, dtype=np.float64)
    if spec.kind == "linear":
        graph = knn_euclidean(points, k)
    else:
        kernel = sq_distance_matrix(centred(points))
        if spec.gamma is None:
            spec = KernelSpec("rbf", _median_gamma(kernel))
        rbf_kernel_from_sq(kernel, spec.gamma)
        graph = knn_from_sq_distances(kernel, k, key=_rkhs_sq_distance)
        graph.points, graph.kernel_matrix = points, kernel
    graph.kernel = spec
    return graph


def _rkhs_sq_distance(kernel_rows: np.ndarray) -> np.ndarray:
    """2 - 2K of rows of an rbf kernel matrix, a new array (K in [0, 1]: no clamp)."""
    out = np.multiply(kernel_rows, 2.0)
    return np.subtract(2.0, out, out=out)


def normalized_gram(edges: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix of the edges rescaled to unit diagonal.

    For the kernels in scope all entries land in [-1, 1]; the diagonal is
    exactly 1.  A linear kernel with a zero edge has a zero self-kernel and
    raises DegenerateEdgeError.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if spec.kind == "linear":
        unit = unit_edges(edges[None], 0)[1][0]
        values = unit @ unit.T
        np.fill_diagonal(values, 1.0)
        return values
    return rbf_kernel_matrix(edges, _gamma(spec))


def kernel_curvature_score(bundle: EdgeBundle, spec: KernelSpec) -> float:
    """Sum of the strict upper triangle of the normalized edge kernel matrix
    (``curvature_score`` for the linear kernel); ValueError below two edges."""
    if spec.kind == "linear":
        return curvature_score(bundle)
    edges = np.asarray(bundle.edges, dtype=np.float64)
    every_edge = np.arange(edges.shape[0])[None]  # one row, all k edges its neighbors
    return float(rbf_curvature(normalized_gram(edges, spec), every_edge)[0])
