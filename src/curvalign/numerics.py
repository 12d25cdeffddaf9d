"""Dense float64 tensors and a minimal reverse-mode differentiation engine.

The engine records an append-only tape of primitive operations.  Forward
values are computed eagerly and cached on the tape, so a freshly built node
can be inspected immediately (the trainer relies on this to pick nearest
neighbors from current embeddings before extending the graph with the
curvature terms).  ``reverse_grad`` walks the tape backwards once and
accumulates adjoints in a fixed order, which makes repeated runs
bit-identical.

Each node records at build time whether it depends on a parameter leaf.
Only such a node can carry gradient, so only its forward rule keeps saved
residuals: what its adjoint would otherwise recompute (the curvature
kernel matrix, or its unit edges and norms).  Eager evaluation saves
nothing.

Only the primitives below exist; there is no general broadcasting.  Shapes
are scalars ``()``, vectors ``(n,)`` and matrices ``(m, n)``.  Two fused
primitives carry the training graph: ``affine`` is one layer's x W + b (a
bias vector added to every row), and ``standardize`` is (x - mean) /
(population std + eps) per column, whose adjoint runs the rules of the
unfused sub, std_rows, add and div composition in their order, so a
single-consumer input gets that composition's gradient bit for bit.
``model``'s eager passes run the same rules through ``eval_primitive``.
Nothing in the package calls ``broadcast_row``, ``mean_rows``,
``std_rows``, ``gather_rows``, ``sqrt`` or ``exp``; they stay registered
because the benchmark's per-layer metric list names every primitive.

``curvature`` maps embeddings (b, d) to one kNN curvature score per row
(b, 1).  Its cosine scores run over bounded row blocks of (rows, k, d) edge
tensors; its RBF scores read every neighbor pair's kernel value from one
(b, b) kernel matrix of the batch: the one the rbf kNN built from the same
array when it lends it, else one built here from ``sq_distance_matrix`` of
the centred points, the gram expansion every kNN and bandwidth in the
package uses.  Its block kernels ``cosine_curvature`` and ``rbf_curvature``
also score single edge bundles in ``geometry`` and ``rkhs``, and own the
rule that every score needs two edges (ValueError).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateEdgeError,
    NonFiniteError,
    NotScalarOutputError,
    ShapeMismatchError,
)

Array = np.ndarray


def _as_f64(x) -> Array:
    arr = np.asarray(x, dtype=np.float64)
    return arr


def _require_finite(arr: Array, context: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite value produced by {context}")


def _require_2d(arr: Array, op: str) -> None:
    if arr.ndim != 2:
        raise ShapeMismatchError(f"{op}: expected a matrix, got shape {arr.shape}")


# ---------------------------------------------------------------------------
# primitive forward rules
# ---------------------------------------------------------------------------

def _fwd_matmul(a, b):
    _require_2d(a, "matmul")
    _require_2d(b, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: {a.shape} @ {b.shape}")
    return a @ b


def _fwd_affine(x, w, b):
    _require_2d(x, "affine")
    _require_2d(w, "affine")
    if x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatchError(f"affine: {x.shape} @ {w.shape} + {b.shape}")
    out = x @ w
    out += b
    return out


def _same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: {a.shape} vs {b.shape}")


def _fwd_add(a, b):
    _same_shape(a, b, "add")
    return a + b


def _fwd_sub(a, b):
    _same_shape(a, b, "sub")
    return a - b


def _fwd_mul(a, b):
    _same_shape(a, b, "mul")
    return a * b


def _fwd_div(a, b):
    _same_shape(a, b, "div")
    return a / b


def _fwd_smul(a, *, c):
    return a * np.float64(c)


def _fwd_relu(a):
    return np.maximum(a, 0.0)


def _fwd_sum(a):
    return np.asarray(np.sum(a), dtype=np.float64)


def _fwd_mean_rows(a):
    _require_2d(a, "mean_rows")
    return np.mean(a, axis=0)


def _centered_std(a):
    """The columns minus their means, and the population std per column
    (divided by the number of rows, not rows - 1)."""
    centered = a - np.mean(a, axis=0)
    return centered, np.sqrt(np.mean(centered ** 2, axis=0))


def _fwd_std_rows(a):
    _require_2d(a, "std_rows")
    return _centered_std(a)[1]


def _fwd_standardize(a, *, eps):
    # the arithmetic of the sub, std_rows, add and div composition, bit for bit
    _require_2d(a, "standardize")
    centered, sigma = _centered_std(a)
    return centered / (sigma + eps)


def _fwd_sqrt(a):
    return np.sqrt(a)


def _fwd_square(a):
    return a * a


def _fwd_exp(a):
    return np.exp(a)


def _fwd_transpose(a):
    _require_2d(a, "transpose")
    return np.ascontiguousarray(a.T)


def _fwd_gather_rows(a, *, rows):
    _require_2d(a, "gather_rows")
    idx = np.asarray(rows, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeMismatchError(f"gather_rows: index array must be 1-d, got {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeMismatchError(
            f"gather_rows: index out of range for {a.shape[0]} rows"
        )
    return a[idx]


def _fwd_broadcast_row(a, *, count):
    if a.ndim != 1:
        raise ShapeMismatchError(f"broadcast_row: expected a vector, got {a.shape}")
    if count < 1:
        raise ShapeMismatchError("broadcast_row: count must be >= 1")
    return np.tile(a, (count, 1))


# ---------------------------------------------------------------------------
# curvature: one score per row from the edges to its neighbors
# ---------------------------------------------------------------------------

EDGE_FLOOR = 1e-12
# elements of one row block's (rows, k, max(d, k)) cosine temporaries, 1 MiB
# each: a training batch is one or two blocks, and eager scoring of 784-d rows
# adds MiBs; rbf scores read one (b, b) kernel matrix, gathering its neighbor
# pairs in (rows, k, k) blocks, and sq_distance_matrix and the kNN selection
# work on that matrix in (rows, b) blocks of the same size
_BLOCK_ELEMENTS = 1 << 17


def _row_blocks(b: int, k: int, d: int) -> list[slice]:
    step = max(1, _BLOCK_ELEMENTS // max(1, k * max(d, k)))
    return [slice(i, min(i + step, b)) for i in range(0, b, step)]


def sq_distance_matrix(points: Array) -> Array:
    """All pairwise squared Euclidean distances, O(b^2) memory.

    The gram expansion keeps bit-identical rows at exactly 0, so duplicate
    tie-breaking stays deterministic; tiny negative values are clamped.  It
    overwrites the gram matrix in row blocks, so one (b, b) array is live.  A
    row whose squared norm is not finite raises NonFiniteError naming it.
    """
    points = np.asarray(points, dtype=np.float64)
    sq = points @ points.T
    diag = sq.diagonal().copy()
    _require_finite_rows(diag)
    step = max(1, _BLOCK_ELEMENTS // max(1, sq.shape[0]))
    for i in range(0, sq.shape[0], step):
        rows = sq[i:i + step]
        rows *= 2.0
        np.subtract(diag[i:i + step, None] + diag, rows, out=rows)
    return np.maximum(sq, 0.0, out=sq)


def _require_finite_rows(sq_norms: Array) -> None:
    if not np.all(np.isfinite(sq_norms)):
        row = int(np.flatnonzero(~np.isfinite(sq_norms))[0])
        raise NonFiniteError(f"point row {row} has a non-finite squared norm")


def centred(points: Array) -> Array:
    """The points minus their column means, a new array.

    A shared offset cancels in every difference, and centring keeps the gram
    expansion's magnitudes at the spread of the points.  Each row's squared
    norm is checked first: centring would spread one non-finite row over
    every row, and the NonFiniteError names the row that holds it.  Zero
    rows have no mean and stay zero rows.
    """
    points = np.asarray(points, dtype=np.float64)
    _require_finite_rows(np.einsum("ij,ij->i", points, points))
    return points - points.mean(axis=0) if len(points) else points.copy()


def rbf_kernel_from_sq(sq: Array, gamma: float) -> Array:
    """exp(-gamma sq), written over the squared-distance matrix ``sq``."""
    if gamma is None or not gamma > 0.0:
        raise ValueError("rbf curvature needs a positive gamma; resolve the spec first")
    np.multiply(sq, -gamma, out=sq)
    return np.exp(sq, out=sq)


def rbf_kernel_matrix(points: Array, gamma: float) -> Array:
    """exp(-gamma ||x_p - x_q||^2) over all row pairs (b, b); diagonal exactly 1.

    The distances are the gram expansion of the column-centred points, the
    same steps ``rkhs.knn_rkhs`` takes, so the two matrices are equal bit
    for bit.
    """
    return rbf_kernel_from_sq(sq_distance_matrix(centred(points)), gamma)


def _require_two_edges(k: int) -> None:
    if k < 2:
        raise ValueError("curvature needs at least two edges")


def rbf_curvature(kernel: Array, neighbors: Array) -> Array:
    """Sum of kernel[n_a, n_b] over each row's neighbor pairs a < b, (b,).

    The (rows, k, k) gathered pairs run over row blocks."""
    k = neighbors.shape[1]
    _require_two_edges(k)
    diag = np.arange(k)
    out = np.empty(neighbors.shape[0])
    for rows in _row_blocks(*neighbors.shape, k):
        nb = neighbors[rows]
        pairs = kernel[nb[:, :, None], nb[:, None, :]]
        pairs[:, diag, diag] = 0.0
        out[rows] = pairs.sum(axis=(1, 2)) / 2.0
    return out


def unit_edges(edges: Array, first_row: int):
    """Norms (m, k), unit edges (m, k, d) and their per-row sum (m, d)."""
    norms = np.sqrt(np.einsum("mkd,mkd->mk", edges, edges))
    if norms.size and norms.min() <= EDGE_FLOOR:
        row, a = np.unravel_index(np.argmin(norms), norms.shape)
        raise DegenerateEdgeError(
            f"row {first_row + row}: edge to neighbor {a} has norm <= {EDGE_FLOOR}"
        )
    unit = edges / norms[..., None]
    return norms, unit, unit.sum(axis=1)


def cosine_curvature(unit: Array, total: Array) -> Array:
    """Sum of cosines over edge pairs, (||s||^2 - sum_a ||u_a||^2) / 2 per row."""
    _require_two_edges(unit.shape[1])
    return (np.einsum("md,md->m", total, total) - np.einsum("mkd,mkd->m", unit, unit)) / 2.0


def _fwd_curvature(z, *, neighbors, score, gamma=None, kernel=None, save=False):
    """Scores (b, 1) and, with ``save``, the residuals the adjoint reads.

    ``kernel`` is an rbf kNN's (points, K) pair: K is used only when
    ``points`` is the very array ``z``, so a re-evaluation on other inputs
    (``forward_values``, finite differences) builds its own.  Saved: K for
    rbf; each row block's (norms, unit edges, their sum) for cosine.
    """
    _require_2d(z, "curvature")
    nb = np.asarray(neighbors, dtype=np.int64)
    if nb.ndim != 2 or nb.shape[0] != z.shape[0]:
        raise ShapeMismatchError(f"curvature: neighbors {nb.shape} for {z.shape[0]} rows")
    if nb.size and (nb.min() < 0 or nb.max() >= z.shape[0]):
        raise ShapeMismatchError(f"curvature: neighbor index out of range for {z.shape[0]} rows")
    if score == "rbf":
        lent = kernel is not None and kernel[0] is z
        matrix = kernel[1] if lent else rbf_kernel_matrix(z, gamma)
        return rbf_curvature(matrix, nb)[:, None], matrix if save else None
    if score != "cosine":
        raise ValueError(f"unknown curvature score {score!r}")
    out = np.empty((z.shape[0], 1))
    blocks = []
    for rows in _row_blocks(*nb.shape, z.shape[1]):
        norms, unit, total = unit_edges(z[nb[rows]] - z[rows, None, :], rows.start)
        out[rows, 0] = cosine_curvature(unit, total)
        if save:
            blocks.append((norms, unit, total))
    return out, blocks if save else None


# ---------------------------------------------------------------------------
# primitive backward rules
# ---------------------------------------------------------------------------
# one rule per input maps (input values, cached output, upstream adjoint,
# aux) to that input's adjoint; reverse_grad calls only the rules of inputs
# that depend on a parameter leaf, with the forward's saved residuals, if
# any, as aux["saved"]

def _segment_sum(values: Array, rows, n: int) -> Array:
    """Rows of ``values`` (m, d) summed into n rows by index, each output
    row's terms added in input order (as np.add.at does)."""
    d = values.shape[1]
    flat = (np.asarray(rows, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * d).reshape(n, d)


def _std_adjoint(centered: Array, sigma: Array, g: Array) -> Array:
    """The adjoint of the population std per column; a column with sigma = 0
    gets none."""
    b = centered.shape[0]
    scale = np.where(sigma > 0.0, g / (b * np.where(sigma > 0.0, sigma, 1.0)), 0.0)
    return centered * scale


def _bwd_std_rows(ins, out, g, aux):
    a = ins[0]
    return _std_adjoint(a - np.mean(a, axis=0), out, g)


def _bwd_standardize(ins, out, g, aux):
    """The adjoint chain of (a - mean) / (std + eps) as the unfused div, sub,
    add, std_rows and mean_rows rules run it, in their order and arithmetic,
    so a single-consumer input gets the composition's gradient bit for bit."""
    centered, sigma = _centered_std(ins[0])
    scale = sigma + aux["eps"]
    g_centered = g / scale
    g_sigma = np.sum(-g * centered / (scale * scale), axis=0)
    g_mean = np.sum(-g_centered, axis=0)
    adj = g_centered + _std_adjoint(centered, sigma, g_sigma)
    adj += g_mean / centered.shape[0]
    return adj


def _bwd_curvature(ins, out, g, aux):
    """Closed-form adjoint of the curvature scores.

    It reads the forward's saved residuals (``aux["saved"]``, which
    ``reverse_grad`` passes), or runs the forward again to get them when
    called without.
    cosine: d/de_a = g (s - (u_a . s) u_a) / ||e_a||, added to the neighbor row
    and subtracted from the center row, over the forward's row blocks.
    rbf: each pair term K_pq = exp(-gamma ||x_p - x_q||^2) is one entry of the
    batch kernel matrix K whichever row's neighborhood holds it, so the rows
    sum into one pair weight C_pq = sum_i g_i #{(a, b): n_a = p, n_b = q},
    p != q, over the ordered neighbor pairs of each row i (the diagonal
    carries no gradient: x_p - x_p = 0), counted over the same row blocks
    as the forward's gathered pairs.  With W = C o K (K the saved matrix),
    d/dx = 2 gamma (W x - rowsum(W) o x), on column-centred x: the center
    row cancels, and so does a shared offset.
    """
    z = ins[0]
    nb = np.asarray(aux["neighbors"], dtype=np.int64)
    saved = aux["saved"] if "saved" in aux else _fwd_curvature(z, save=True, **aux)[1]
    if aux["score"] == "rbf":
        b, k = nb.shape
        w = None
        for rows in _row_blocks(b, k, k):
            pairs = (nb[rows, :, None] * b + nb[rows, None, :]).ravel()
            part = np.bincount(pairs, weights=np.repeat(g[rows, 0], k * k), minlength=b * b)
            w = part if w is None else np.add(w, part, out=w)
        del pairs, part  # the centred points and products reuse their memory
        w = w.reshape(b, b)
        np.fill_diagonal(w, 0.0)
        w *= saved
        centred_z = z - z.mean(axis=0)
        adj = w @ centred_z
        adj -= w.sum(axis=1)[:, None] * centred_z
        adj *= 2.0 * aux["gamma"]
        return adj
    adj = np.zeros_like(z)
    for rows, (norms, unit, total) in zip(_row_blocks(*nb.shape, z.shape[1]), saved):
        along = np.einsum("mkd,md->mk", unit, total)[..., None]
        ge = (total[:, None, :] - along * unit) * (g[rows, :, None] / norms[..., None])
        adj[rows] -= ge.sum(axis=1)
        adj += _segment_sum(ge.reshape(-1, z.shape[1]), nb[rows].ravel(), z.shape[0])
    return adj


_FORWARD: dict[str, Callable] = {
    "matmul": _fwd_matmul,
    "affine": _fwd_affine,
    "add": _fwd_add,
    "sub": _fwd_sub,
    "mul": _fwd_mul,
    "div": _fwd_div,
    "smul": _fwd_smul,
    "relu": _fwd_relu,
    "sum": _fwd_sum,
    "mean_rows": _fwd_mean_rows,
    "std_rows": _fwd_std_rows,
    "standardize": _fwd_standardize,
    "sqrt": _fwd_sqrt,
    "square": _fwd_square,
    "exp": _fwd_exp,
    "transpose": _fwd_transpose,
    "gather_rows": _fwd_gather_rows,
    "broadcast_row": _fwd_broadcast_row,
    "curvature": _fwd_curvature,
}

_MATMUL_RULES = (lambda ins, out, g, aux: g @ ins[1].T, lambda ins, out, g, aux: ins[0].T @ g)
_ROW_SUM_RULE = (lambda ins, out, g, aux: np.sum(g, axis=0),)

_BACKWARD: dict[str, tuple[Callable, ...]] = {
    "matmul": _MATMUL_RULES,
    "affine": _MATMUL_RULES + _ROW_SUM_RULE,
    "add": (lambda ins, out, g, aux: g,) * 2,
    "sub": (lambda ins, out, g, aux: g, lambda ins, out, g, aux: -g),
    "mul": (lambda ins, out, g, aux: g * ins[1], lambda ins, out, g, aux: g * ins[0]),
    "div": (lambda ins, out, g, aux: g / ins[1],
            lambda ins, out, g, aux: -g * ins[0] / (ins[1] * ins[1])),
    "smul": (lambda ins, out, g, aux: g * np.float64(aux["c"]),),
    # the derivative at exactly 0 is defined as 0
    "relu": (lambda ins, out, g, aux: g * (ins[0] > 0.0),),
    "sum": (lambda ins, out, g, aux: np.full_like(ins[0], float(g)),),
    "mean_rows": (lambda ins, out, g, aux: np.tile(g / ins[0].shape[0], (ins[0].shape[0], 1)),),
    "std_rows": (_bwd_std_rows,),
    "standardize": (_bwd_standardize,),
    "sqrt": (lambda ins, out, g, aux: g / (2.0 * out),),
    "square": (lambda ins, out, g, aux: 2.0 * ins[0] * g,),
    "exp": (lambda ins, out, g, aux: g * out,),
    "transpose": (lambda ins, out, g, aux: np.ascontiguousarray(g.T),),
    "gather_rows": (lambda ins, out, g, aux: _segment_sum(g, aux["rows"], ins[0].shape[0]),),
    "broadcast_row": _ROW_SUM_RULE,
    "curvature": (_bwd_curvature,),
}

PRIMITIVES = tuple(sorted(_FORWARD))
# forward rules that take ``save`` and return (value, saved residuals)
_SAVING = frozenset({"curvature"})


def eval_primitive(kind: str, inputs: list[Array], *, save: bool = False, **aux):
    """Evaluate one primitive on concrete arrays.

    Pure: inputs are never mutated.  Raises ShapeMismatchError for
    incompatible extents and NonFiniteError if the result contains NaN/Inf.
    With ``save`` it returns (value, saved): the residuals the primitive's
    adjoint reads instead of recomputing them, None for a primitive that
    saves nothing.
    """
    if kind not in _FORWARD:
        raise KeyError(f"unknown primitive {kind!r}")
    vals = [_as_f64(x) for x in inputs]
    with np.errstate(all="ignore"):  # finiteness is checked explicitly below
        if kind in _SAVING:
            out, saved = _FORWARD[kind](*vals, save=save, **aux)
        else:
            out, saved = _FORWARD[kind](*vals, **aux), None
    out = np.asarray(out, dtype=np.float64)
    _require_finite(out, f"primitive {kind!r}")
    return (out, saved) if save else out


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

@dataclass
class Node:
    op: str                      # "leaf" or a primitive kind
    inputs: tuple[int, ...]
    aux: dict
    value: Array                 # cached forward value
    param: bool = False
    name: Optional[str] = None
    active: bool = False         # depends on a parameter leaf, set at build time
    saved: object = None         # the forward's residuals, kept on active nodes only


class Var:
    """Handle to one node of a Graph, with operator sugar."""

    __slots__ = ("graph", "idx")

    def __init__(self, graph: "Graph", idx: int):
        self.graph = graph
        self.idx = idx

    @property
    def value(self) -> Array:
        return self.graph.nodes[self.idx].value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def _coerce(self, other) -> "Var":
        if isinstance(other, Var):
            if other.graph is not self.graph:
                raise ValueError("cannot combine Vars from different graphs")
            return other
        return self.graph.leaf(np.full(self.shape, float(other)))

    def __add__(self, other):
        return self.graph.apply("add", self, self._coerce(other))

    def __sub__(self, other):
        return self.graph.apply("sub", self, self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, Var):
            return self.graph.apply("mul", self, other)
        return self.graph.apply("smul", self, c=float(other))

    def __truediv__(self, other: "Var"):
        return self.graph.apply("div", self, other)

    def __matmul__(self, other):
        return self.graph.apply("matmul", self, self._coerce(other))

    def relu(self):
        return self.graph.apply("relu", self)

    def sqrt(self):
        return self.graph.apply("sqrt", self)

    def square(self):
        return self.graph.apply("square", self)

    def exp(self):
        return self.graph.apply("exp", self)

    def sum(self):
        return self.graph.apply("sum", self)

    def mean_rows(self):
        return self.graph.apply("mean_rows", self)

    def std_rows(self):
        return self.graph.apply("std_rows", self)

    def standardize(self, eps: float):
        return self.graph.apply("standardize", self, eps=float(eps))

    def affine(self, w: "Var", b: "Var"):
        return self.graph.apply("affine", self, w, b)

    @property
    def T(self):
        return self.graph.apply("transpose", self)

    def gather_rows(self, rows):
        return self.graph.apply("gather_rows", self, rows=np.asarray(rows, dtype=np.int64))

    def broadcast_row(self, count: int):
        return self.graph.apply("broadcast_row", self, count=int(count))


class Graph:
    """Append-only tape of primitive applications.

    Node order is a topological order by construction; a single Graph must
    not be mutated from multiple threads.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, value, *, param: bool = False, name: Optional[str] = None) -> Var:
        arr = _as_f64(value)
        _require_finite(arr, "leaf")
        self.nodes.append(Node("leaf", (), {}, arr, param=param, name=name, active=param))
        return Var(self, len(self.nodes) - 1)

    def apply(self, op: str, *args: Var, **aux) -> Var:
        ids = tuple(a.idx for a in args)
        vals = [self.nodes[i].value for i in ids]
        active = any(self.nodes[i].active for i in ids)
        result = eval_primitive(op, vals, save=active, **aux)
        out, saved = result if active else (result, None)
        self.nodes.append(Node(op, ids, aux, out, active=active, saved=saved))
        return Var(self, len(self.nodes) - 1)

    def param_leaves(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.op == "leaf" and n.param]

    def forward_values(self, overrides: Optional[dict[int, Array]] = None) -> list[Array]:
        """Re-evaluate the whole tape, optionally overriding leaf values.

        Does not touch the cached values or the saved residuals, and
        recomputes every node from its re-evaluated inputs; used by finite
        differencing and by the cache-consistency tests.
        """
        overrides = overrides or {}
        vals: list[Array] = []
        for i, node in enumerate(self.nodes):
            if node.op == "leaf":
                vals.append(overrides.get(i, node.value))
            else:
                vals.append(eval_primitive(node.op, [vals[j] for j in node.inputs], **node.aux))
        return vals


def _check_scalar(graph: Graph, output: Var) -> None:
    if output.graph is not graph:
        raise ValueError("output Var does not belong to this graph")
    if graph.nodes[output.idx].value.size != 1:
        raise NotScalarOutputError(
            f"reverse_grad needs a scalar output, got shape {graph.nodes[output.idx].value.shape}"
        )


def reverse_grad(graph: Graph, output: Var) -> dict[int, Array]:
    """Gradient of a scalar output with respect to every parameter leaf.

    Returns a map node-id -> adjoint array.  Leaves the output does not
    depend on get explicit zero gradients.  Only nodes that depend on a
    parameter leaf get adjoints, read from each node's ``active`` flag that
    ``Graph.apply`` set at build time: the backward rules of constants and
    data never run, and no adjoint is computed for an input that depends on
    no parameter.  A rule whose forward saved residuals gets them as
    ``aux["saved"]``.  Accumulation order is fixed by node index, so
    repeated calls are bit-identical.
    """
    _check_scalar(graph, output)
    nodes = graph.nodes
    adjoints: dict[int, Array] = {}
    if nodes[output.idx].active:
        adjoints[output.idx] = np.ones_like(nodes[output.idx].value)
    for i in range(output.idx, -1, -1):
        node = nodes[i]
        if node.op == "leaf":
            continue
        g = adjoints.pop(i, None)  # an interior adjoint is dead once used
        if g is None:
            continue
        ins = [nodes[j].value for j in node.inputs]
        aux = node.aux if node.saved is None else {**node.aux, "saved": node.saved}
        for j, rule in zip(node.inputs, _BACKWARD[node.op]):
            if nodes[j].active:
                contrib = rule(ins, node.value, g, aux)
                adjoints[j] = adjoints[j] + contrib if j in adjoints else contrib
    result: dict[int, Array] = {}
    for i in graph.param_leaves():
        grad = adjoints.get(i)
        if grad is None:
            grad = np.zeros_like(nodes[i].value)
        _require_finite(grad, f"gradient of leaf {i}")
        result[i] = grad
    return result


@dataclass
class GradReport:
    """Outcome of comparing analytic gradients against central differences."""

    per_leaf: dict = field(default_factory=dict)  # key -> (max_rel, max_abs)
    passed: bool = True
    tol: float = 1e-4
    floor: float = 1e-6

    def worst(self) -> float:
        if not self.per_leaf:
            return 0.0
        return max(rel for rel, _ in self.per_leaf.values())


def finite_diff_check(
    graph: Graph,
    output: Var,
    step: float = 1e-5,
    tol: float = 1e-4,
    floor: float = 1e-6,
) -> GradReport:
    """Compare reverse_grad against central finite differences.

    Every coordinate of every parameter leaf is perturbed by +/- step and
    the scalar output re-evaluated.  A coordinate participates in the
    verdict only when |analytic| + |numeric| > floor; below that both are
    treated as zero.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    _check_scalar(graph, output)
    analytic = reverse_grad(graph, output)
    out_idx = output.idx
    report = GradReport(tol=tol, floor=floor)
    for leaf_idx in graph.param_leaves():
        base = graph.nodes[leaf_idx].value
        numeric = np.zeros_like(base)
        flat = base.ravel()
        num_flat = numeric.ravel()
        for c in range(flat.size):
            bumped = base.copy()
            bumped.ravel()[c] = flat[c] + step
            f_plus = float(graph.forward_values({leaf_idx: bumped})[out_idx])
            bumped.ravel()[c] = flat[c] - step
            f_minus = float(graph.forward_values({leaf_idx: bumped})[out_idx])
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NonFiniteError("objective non-finite at a perturbed point")
            num_flat[c] = (f_plus - f_minus) / (2.0 * step)
        a = analytic[leaf_idx].ravel()
        n = num_flat
        scale = np.abs(a) + np.abs(n)
        active = scale > floor
        rel = np.zeros_like(scale)
        rel[active] = np.abs(a - n)[active] / scale[active]
        max_rel = float(rel.max()) if rel.size else 0.0
        max_abs = float(np.abs(a - n).max()) if a.size else 0.0
        key = graph.nodes[leaf_idx].name or leaf_idx
        report.per_leaf[key] = (max_rel, max_abs)
        if max_rel > tol:
            report.passed = False
    return report
