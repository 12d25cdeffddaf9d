"""The full training objective.

Two ingredients, both built on the differentiation graph:

* a redundancy-reduction loss on standardized projected features, pushing
  the two-view cross-correlation matrix toward the identity;
* the same loss shape applied to the rank-one matrix M = (1/b) c~ c~'^T of
  standardized curvature scores, aligning local neighborhood bending across
  views.  Standardized columns give ||M||_F = 1, so at eps = 0 and
  lambda_curv = 1 the term is exactly b + 1 - 2 rho, with rho the Pearson
  correlation of the two views' scores: its off-diagonal part cannot
  vanish, and the term does not decorrelate samples, it only raises rho.

Because M is rank one, ``curvature_penalty`` computes that penalty in closed
form from p = c~ o c~' and two norms, so no (b, b) node reaches the tape;
``curvature_loss(curvature_matrix(c~, c~'), lambda_curv)`` is its eager
reference.

All functions here take and return graph Vars so the trainer can
differentiate end-to-end; ``total_loss_arrays`` is the plain-array
convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import BatchTooSmallError, ShapeMismatchError
from .geometry import curvature_scores_graph, knn_metric
from .numerics import Graph, Var
from .rkhs import KernelSpec
# not called here: perfbench/tracer.py wraps these module attributes by name
from .geometry import knn_euclidean  # noqa: F401
from .rkhs import knn_rkhs, resolve_spec  # noqa: F401

Metric = Union[str, KernelSpec]


class Weights(NamedTuple):
    lambda_emb: float = 1.0
    lambda_curv: float = 1.0
    alpha_curv: float = 1.0


@dataclass
class LossBreakdown:
    total: float
    emb_diag: float
    emb_offdiag: float
    curv_diag: float
    curv_offdiag: float
    weights: Weights

    def as_tuple(self):
        return (self.total, self.emb_diag, self.emb_offdiag, self.curv_diag, self.curv_offdiag)


def standardize_features(z: Var, eps: float) -> Var:
    """Per-column (z - mean) / (population std + eps) over the batch."""
    b = z.shape[0]
    if b < 2:
        raise BatchTooSmallError(f"standardization needs at least 2 rows, got {b}")
    return z.standardize(eps)


def cross_correlation(za: Var, zb: Var) -> Var:
    """(1/b) za^T zb over standardized features; entries are correlations."""
    if za.shape != zb.shape:
        raise ShapeMismatchError(f"cross_correlation: {za.shape} vs {zb.shape}")
    b = za.shape[0]
    return (za.T @ zb) * (1.0 / b)


def _identity_penalty(m: Var, off_weight: float) -> tuple[Var, Var, Var]:
    """sum((M_ii - 1)^2) + w * sum(M_ij^2, i != j), parts kept separate."""
    n = m.shape[0]
    g = m.graph
    eye = g.leaf(np.eye(n))
    off_mask = g.leaf(1.0 - np.eye(n))
    diag_term = ((m * eye) - eye).square().sum()
    off_term = (m * off_mask).square().sum()
    return diag_term + off_term * off_weight, diag_term, off_term


def barlow_loss(corr: Var, lambda_emb: float) -> tuple[Var, Var, Var]:
    """Redundancy-reduction penalty on a cross-correlation matrix.

    Returns (total, diagonal part, off-diagonal part).
    """
    if corr.shape[0] != corr.shape[1]:
        raise ShapeMismatchError(f"barlow_loss: matrix must be square, got {corr.shape}")
    return _identity_penalty(corr, lambda_emb)


def standardize_scores(c: Var, eps: float) -> Var:
    """Standardize a (b, 1) column of curvature scores across the batch."""
    if c.shape[1] != 1:
        raise ShapeMismatchError(f"scores must form a column, got {c.shape}")
    return standardize_features(c, eps)


def curvature_matrix(ct: Var, ctp: Var) -> Var:
    """(1/b) outer product of standardized score columns; rank one, trace <= 1."""
    if ct.shape != ctp.shape:
        raise ShapeMismatchError(f"curvature_matrix: {ct.shape} vs {ctp.shape}")
    b = ct.shape[0]
    return (ct @ ctp.T) * (1.0 / b)


def curvature_loss(m: Var, lambda_curv: float) -> tuple[Var, Var, Var]:
    """Identity-target penalty on the curvature-derived matrix."""
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"curvature_loss: matrix must be square, got {m.shape}")
    return _identity_penalty(m, lambda_curv)


def curvature_penalty(ct: Var, ctp: Var, lambda_curv: float) -> tuple[Var, Var, Var]:
    """``curvature_loss(curvature_matrix(ct, ctp), lambda_curv)`` in O(b).

    With p = ct o ctp the diagonal of M is p / b and its squared entries sum
    to ||ct||^2 ||ctp||^2 / b^2, so sum((p_i / b - 1)^2) is the diagonal part
    and (||ct||^2 ||ctp||^2 - ||p||^2) / b^2 the off-diagonal part.
    """
    if ct.shape != ctp.shape:
        raise ShapeMismatchError(f"curvature_penalty: {ct.shape} vs {ctp.shape}")
    b = ct.shape[0]
    p = ct * ctp
    diag_term = (p * (1.0 / b) - 1.0).square().sum()
    off_term = (ct.square().sum() * ctp.square().sum() - p.square().sum()) * (1.0 / (b * b))
    return diag_term + off_term * lambda_curv, diag_term, off_term


def total_loss(
    z: Var,
    zp: Var,
    k: int,
    metric: Metric = "euclidean",
    weights: Weights = Weights(),
    eps: float = 1e-5,
    include_curvature: bool = True,
) -> tuple[LossBreakdown, Var]:
    """Assemble the full objective on the graph shared by z and zp.

    Neighbor indices are selected from the current values of each view
    separately and held fixed, so the returned scalar is differentiable with
    respect to both embedding matrices.  Returns the numeric breakdown and
    the scalar total Var for reverse_grad.
    """
    if z.shape != zp.shape:
        raise ShapeMismatchError(f"total_loss: {z.shape} vs {zp.shape}")
    b = z.shape[0]
    if not b > k:
        raise BatchTooSmallError(f"batch size {b} must exceed k={k}")
    weights = Weights(*weights)

    zt = standardize_features(z, eps)
    zpt = standardize_features(zp, eps)
    corr = cross_correlation(zt, zpt)
    total, emb_diag, emb_off = barlow_loss(corr, weights.lambda_emb)

    curv_parts = (0.0, 0.0)
    if include_curvature:
        nb = knn_metric(z.value, k, metric)
        nbp = knn_metric(zp.value, k, metric)
        ct = standardize_scores(curvature_scores_graph(z, nb, nb.metric), eps)
        ctp = standardize_scores(curvature_scores_graph(zp, nbp, nbp.metric), eps)
        curv_total, curv_diag, curv_off = curvature_penalty(ct, ctp, weights.lambda_curv)
        total = total + curv_total * weights.alpha_curv
        curv_parts = (float(curv_diag.value), float(curv_off.value))
    breakdown = LossBreakdown(float(total.value), float(emb_diag.value),
                              float(emb_off.value), *curv_parts, weights=weights)
    return breakdown, total


def total_loss_arrays(
    z: np.ndarray,
    zp: np.ndarray,
    k: int,
    metric: Metric = "euclidean",
    weights: Weights = Weights(),
    eps: float = 1e-5,
) -> LossBreakdown:
    """Evaluate the objective on plain arrays (fresh graph, values only)."""
    g = Graph()
    breakdown, _ = total_loss(
        g.leaf(np.asarray(z, dtype=np.float64)),
        g.leaf(np.asarray(zp, dtype=np.float64)),
        k,
        metric=metric,
        weights=weights,
        eps=eps,
    )
    return breakdown
