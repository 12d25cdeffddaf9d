"""Straight-line recomputation of eager curvature scores for single rows.

Kept with the benchmark so a rewrite of ``geometry``/``rkhs`` is checked
against code that shares nothing with it: distances by direct
differences, neighbours by a plain sort on (distance, index), and scores
by an explicit loop over neighbour pairs.
"""

from __future__ import annotations

import math

import numpy as np


def _neighbours(sq_dist: np.ndarray, row: int, k: int) -> list[int]:
    order = sorted((float(d), j) for j, d in enumerate(sq_dist) if j != row)
    return [j for _, j in order[:k]]


def _direct_sq_dist(points: np.ndarray, row: int) -> np.ndarray:
    diff = points - points[row]
    return np.einsum("ij,ij->i", diff, diff)


def euclidean_score(points: np.ndarray, row: int, k: int) -> float:
    """Sum of pairwise cosines between the edges to the k nearest rows."""
    nb = _neighbours(_direct_sq_dist(points, row), row, k)
    edges = [points[j] - points[row] for j in nb]
    units = [e / math.sqrt(float(e @ e)) for e in edges]
    return sum(
        float(units[a] @ units[b]) for a in range(k) for b in range(a + 1, k)
    )


def median_gamma(points: np.ndarray) -> float:
    """1 / (2 median^2) over all pairwise Euclidean distances."""
    norms = np.einsum("ij,ij->i", points, points)
    sq = np.maximum(norms[:, None] + norms[None, :] - 2.0 * (points @ points.T), 0.0)
    upper = np.sqrt(sq[np.triu_indices(points.shape[0], 1)])
    med = float(np.median(upper))
    return 1.0 / (2.0 * med * med)


def rbf_score(points: np.ndarray, row: int, k: int, gamma: float) -> float:
    """Sum of RBF kernel values between edge pairs, neighbours chosen by
    the RKHS distance 2 - 2 exp(-gamma d^2)."""
    rkhs_sq = 2.0 - 2.0 * np.exp(-gamma * _direct_sq_dist(points, row))
    nb = _neighbours(np.maximum(rkhs_sq, 0.0), row, k)
    edges = [points[j] - points[row] for j in nb]
    total = 0.0
    for a in range(k):
        for b in range(a + 1, k):
            diff = edges[a] - edges[b]
            total += math.exp(-gamma * float(diff @ diff))
    return total
