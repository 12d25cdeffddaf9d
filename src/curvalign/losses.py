"""The full training objective.

Two ingredients, both built on the differentiation graph:

* ``barlow``: a redundancy-reduction loss on standardized projected
  features, pushing the two-view cross-correlation matrix toward the
  identity;
* ``score_penalty``: the same loss shape on the rank-one matrix M = (1/b)
  c~ c~'^T of standardized curvature scores, in O(b), aligning local
  neighborhood bending across views.  Standardized columns give ||M||_F =
  1, so at eps = 0 and lambda_curv = 1 the term is exactly b + 1 - 2 rho,
  with rho the Pearson correlation of the two views' scores: it does not
  decorrelate samples, it only raises rho.

Both are single primitives with hand-written adjoints.  The four parts of
``LossBreakdown`` come from ``numerics.barlow_parts`` and
``score_penalty_parts``, which their forward rules call, applied to the
nodes' inputs.  ``total_loss_arrays`` is the plain-array wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import BatchTooSmallError, ShapeMismatchError
from .geometry import curvature_scores_graph, knn_metric
from .numerics import Graph, Var, barlow_parts, score_penalty_parts
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


def standardize_scores(c: Var, eps: float) -> Var:
    """Standardize a (b, 1) column of curvature scores across the batch."""
    if c.shape[1] != 1:
        raise ShapeMismatchError(f"scores must form a column, got {c.shape}")
    return standardize_features(c, eps)


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

    g = z.graph
    zt = standardize_features(z, eps)
    zpt = standardize_features(zp, eps)
    total = g.apply("barlow", zt, zpt, lambda_emb=weights.lambda_emb)
    emb_parts = barlow_parts(zt.value, zpt.value)

    curv_parts = (0.0, 0.0)
    if include_curvature:
        nb = knn_metric(z.value, k, metric)
        nbp = knn_metric(zp.value, k, metric)
        ct = standardize_scores(curvature_scores_graph(z, nb, nb.metric), eps)
        ctp = standardize_scores(curvature_scores_graph(zp, nbp, nbp.metric), eps)
        total = total + g.apply("score_penalty", ct, ctp, lambda_curv=weights.lambda_curv,
                                alpha_curv=weights.alpha_curv)
        curv_parts = score_penalty_parts(ct.value, ctp.value)
    breakdown = LossBreakdown(float(total.value), *emb_parts, *curv_parts, weights=weights)
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
    breakdown, _ = total_loss(g.leaf(z), g.leaf(zp), k, metric=metric, weights=weights, eps=eps)
    return breakdown
