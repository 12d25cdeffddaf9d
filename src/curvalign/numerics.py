"""Dense float64 tensors and a minimal reverse-mode differentiation engine.

The engine records an append-only tape of primitive operations.  Forward
values are computed eagerly and cached on the tape, so a freshly built node
can be inspected immediately (the trainer relies on this to pick nearest
neighbors from current embeddings before extending the graph with the
curvature terms).  ``reverse_grad`` walks the tape backwards once and
accumulates adjoints in a fixed order, which makes repeated runs
bit-identical.  ``seeded_grad`` runs the same walk from adjoints that
another graph computed for some of this graph's nodes: a training step
differentiates its loss on a joint graph whose leaves are each view's
embedding, then walks each view's MLP graph from that leaf's adjoint, and
``add_grads`` sums the two views' shares of every parameter's gradient.
Each node records at build time whether it depends on a parameter leaf;
only such a node can carry gradient.

Finiteness is checked at a graph's boundary: every leaf as it is built
(but one whose value the caller has scanned or checks elsewhere), the
differentiated output and every gradient in ``reverse_grad``, or every
summed gradient in ``add_grads``.  The nodes in between are checked as they
are built only when they depend on no parameter, which covers every node of
an eager graph; a caller that meets a NonFiniteError replays the tape with
``forward_values``, which checks every primitive and names the first one
that made a NaN or inf.

Only the primitives below exist; there is no general broadcasting.  Shapes
are scalars ``()``, vectors ``(n,)`` and matrices ``(m, n)``.  Two fused
primitives carry the training graph: ``affine`` is one layer's x W + b (a
bias vector added to every row), and ``standardize`` is (x - mean) /
(population std + eps) per column, whose adjoint runs the rules of the
unfused sub, std_rows, add and div composition in their order, so a
single-consumer input gets that composition's gradient bit for bit.
``model``'s eager passes run the same rules through ``eval_primitive``.
``barlow`` and ``score_penalty`` are the loss head's two identity-target
penalties in closed form, with adjoints by hand.  ``Var`` spells only the
objective's operators (``+``, ``relu``, ``affine``, ``standardize``, and
the ``@`` and ``.T`` tests build M = c~ c~'^T / b with); ``Graph.apply``
appends every other primitive and owns the same-graph rule.  Nothing in
the package calls ``broadcast_row``, ``div``, ``exp``, ``gather_rows``,
``mean_rows``, ``mul``, ``smul``, ``sqrt``, ``square``, ``std_rows``,
``sub`` or ``sum``; they stay registered because the benchmark's
per-layer metric list names every primitive.

``curvature`` maps embeddings (b, d) to one kNN curvature score per row
(b, 1).  Both score kinds read one (b, b) pair matrix: the squared
distances D^2 of the centred points, which every kNN selects on, or the rbf
kernel matrix K = exp(-gamma D^2).  ``pair_matrix`` owns it for the forward,
the adjoint and a bundle: the kNN's lent matrix, else one built from z.
Every term is symmetric in its pair, so ``pair_terms`` gathers each of a
row block's k(k - 1)/2 unordered neighbor pairs once, with one flat
``take`` (cosines from D^2, or K), ``curvature_rows`` sums them for batches
and single edge bundles over 64 KiB row blocks and owns the rule that every
score needs two edges (ValueError), and both adjoints are one (b, b) pair
weight followed by the same matmuls.
"""

from __future__ import annotations

import functools
import os
import threading
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
    return np.asarray(x, dtype=np.float64)


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
# curvature: one score per row from the pairs of its neighbors
# ---------------------------------------------------------------------------

# the gram expansion resolves D^2 to about 1e-16 of the batch's largest entry;
# a cosine whose edge has D^2 <= SHORT_EDGE times that raises DegenerateEdgeError
SHORT_EDGE = 1e-8
# elements of one row block's temporaries, 1 MiB each: the cosine adjoint's
# (rows, k, k) gathered pairs (a training batch is one block);
# sq_distance_matrix and the kNN selection work on the (b, b) matrix in
# (rows, b) blocks of the same size, one block at a time on each thread
_BLOCK_ELEMENTS = 1 << 17
# elements of one row block's pair terms and their flat index in the
# curvature sums, and of its (rows, k, k) pair index and weights in the rbf
# adjoint, 64 KiB each: temporaries this small are reused from the heap step
# after step, where 1 MiB ones are returned to the kernel and faulted back
_PAIR_ELEMENTS = 1 << 13
# multiply-adds of work from which a second thread pays, the one rule for
# threads: the trainer's worker (one view's MLP forward, batch rows x
# weights) and the row halves below.  Smaller numpy calls are too short to
# leave the GIL for long, so a thread only adds hand-offs: lowdim-rbf's 3.1M
# MLP ran 5% faster with its lanes on the calling thread and 4.6% faster
# again with no worker at all; desk-euclid's 65M ran 10% faster on the
# worker, and a scoring pass of 1024 x 784 points (a 411M gram) a third
# faster in halves
_THREAD_MACS = 1 << 24


def _row_blocks(b: int, k: int, d: int, elements: int = _BLOCK_ELEMENTS) -> list[slice]:
    step = max(1, elements // max(1, k * max(d, k)))
    return [slice(i, min(i + step, b)) for i in range(0, b, step)]


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _halves(rows: int, macs: float) -> list[slice]:
    """Rows [0, h) and [h, rows), h = ceil(rows / 2), when ``macs`` reaches
    _THREAD_MACS, else one block of every row: a function of the shape alone,
    so no bit depends on the threads that run the halves."""
    if macs < _THREAD_MACS or rows < 2:
        return [slice(0, rows)]
    return [slice(0, (rows + 1) // 2), slice((rows + 1) // 2, rows)]


def _gram_halves(points: Array) -> list[slice]:
    """The row halves of ``sq_distance_matrix(points)``'s gram, b^2 d / 2
    multiply-adds, and of every pass over the (b, b) matrix it returns: a
    pass splits exactly where its gram does."""
    b = len(points)
    return _halves(b, b * b * np.shape(points)[-1] / 2)


def _scratch(halves: list[slice], step: int, b: int) -> dict[int, Array]:
    """One (step, b) block buffer per half, keyed by its first row and
    allocated on this thread: a worker's own 1 MiB temporaries would stay
    in its malloc arena after it exits and add to every later peak."""
    return {half.start: np.empty((min(step, half.stop - half.start), b)) for half in halves}


def _in_halves(task: Callable[[slice], None], halves: list[slice]) -> None:
    """``task(half)`` for every half, in order, on this thread; with two
    halves and two usable CPUs the second runs on a short-lived worker under
    this thread's ``np.errstate``, joined before returning, also on an
    error or on a KeyboardInterrupt that arrives while this thread waits for
    it.  The first half's error wins, as it would in order.  A worker calls
    nothing through the module attributes a tracer wraps."""
    if len(halves) < 2 or _usable_cpus() < 2:
        for half in halves:
            task(half)
        return
    errors, state, done = [], np.geterr(), threading.Event()

    def run() -> None:
        try:
            with np.errstate(**state):
                task(halves[1])
        except BaseException as err:
            errors.append(err)
        finally:
            done.set()

    worker = threading.Thread(target=run, name="curvalign-half")
    worker.start()
    try:
        task(halves[0])
    finally:
        # a Ctrl-C while waiting is raised once the worker is done; the event,
        # since an interrupted join marks a running thread stopped (3.11)
        interrupt = None
        while True:
            try:
                done.wait()
                worker.join()
                break
            except BaseException as err:
                interrupt = interrupt or err
        if interrupt is not None:
            raise interrupt
    if errors:
        raise errors.pop()


def sq_distance_matrix(points: Array) -> Array:
    """All pairwise squared Euclidean distances, O(b^2) memory: the gram
    expansion of the ``centred`` points, which every kNN, bandwidth and score
    reads.  Tiny negative values are clamped, and the matrix is exactly
    symmetric.  Once the centred copy is freed the gram matrix is
    overwritten in row blocks, so one (b, b) array is live.  A row whose
    squared norm is not finite raises NonFiniteError naming it.

    From b^2 d / 2 = _THREAD_MACS multiply-adds (``_gram_halves``) the gram
    and the distance rows run in two row halves: each half's diagonal block
    of the gram from syrk (``x @ x.T``), the block between them from gemm,
    split by rows and mirrored.  The two routines round a pair of identical
    rows differently, so every pair of identical centred rows is then set to
    exactly 0 (``_identical_rows``).
    Below that the gram is one syrk, which leaves most such pairs at 0.
    """
    x = centred(points)
    b = len(x)
    halves = _gram_halves(x)
    twins = _identical_rows(x) if len(halves) > 1 else []
    sq = np.empty((b, b))

    def gram(half: slice) -> None:  # its diagonal block, and a share of the one between
        np.matmul(x[half], x[half].T, out=sq[half, half])
        if len(halves) > 1:
            first, second = halves
            cut = (first.stop + 1) // 2
            rows = slice(0, cut) if half == first else slice(cut, first.stop)
            np.matmul(x[rows], x[second].T, out=sq[rows, second])
            for i in range(rows.start, rows.stop, 64):  # mirrored in 64-row strips
                strip = slice(i, min(i + 64, rows.stop))
                sq[second, strip] = sq[strip, second].T

    with np.errstate(all="ignore"):  # a non-finite row is named below
        _in_halves(gram, halves)
    del x
    diag = sq.diagonal().copy()
    _require_finite_rows(diag)
    step = max(1, _BLOCK_ELEMENTS // max(1, b))
    sums = _scratch(halves, step, b)

    def distances(half: slice) -> None:
        for i in range(half.start, half.stop, step):
            rows = sq[i:min(i + step, half.stop)]
            rows *= 2.0
            block = np.add(diag[i:i + len(rows), None], diag, out=sums[half.start][:len(rows)])
            np.subtract(block, rows, out=rows)
            np.maximum(rows, 0.0, out=rows)

    _in_halves(distances, halves)
    for rows in twins:
        sq[np.ix_(rows, rows)] = 0.0
    return sq


def _identical_rows(x: Array) -> list[Array]:
    """The groups of two or more identical rows of ``x``: candidates by equal
    row sums, confirmed by an exact compare (``np.unique`` on rows, where
    -0.0 equals 0.0)."""
    sums = x.sum(axis=1)
    values, counts = np.unique(sums, return_counts=True)
    rows = np.flatnonzero(np.isin(sums, values[counts > 1]))
    if not rows.size:
        return []
    label = np.unique(x[rows], axis=0, return_inverse=True)[1].reshape(-1)
    order = np.argsort(label, kind="stable")
    groups = np.split(rows[order], np.flatnonzero(np.diff(label[order])) + 1)
    return [group for group in groups if len(group) > 1]


def _require_finite_rows(sq_norms: Array) -> None:
    if not np.all(np.isfinite(sq_norms)):
        row = int(np.flatnonzero(~np.isfinite(sq_norms))[0])
        raise NonFiniteError(f"point row {row} has a non-finite squared norm")


def centred(points: Array) -> Array:
    """The points minus their column midranges (min + max) / 2, a new array.

    A shared offset cancels in every difference, and centring keeps the gram
    expansion's magnitudes at the spread of the points.  The midrange of
    integer-valued columns is exact, so tied distances there stay tied.
    Each row's squared norm is checked first: centring would spread one
    non-finite row over every row, and the NonFiniteError names the row.
    """
    points = np.asarray(points, dtype=np.float64)
    _require_finite_rows(np.einsum("ij,ij->i", points, points))
    mid = (points.min(axis=0) + points.max(axis=0)) / 2.0 if len(points) else 0.0
    return points - mid


def rbf_kernel_from_sq(sq: Array, gamma: float,
                       halves: Optional[list[slice]] = None) -> Array:
    """exp(-gamma sq), written over the squared-distance matrix ``sq`` in the
    row ``halves`` of its gram (``_gram_halves``; default one block)."""
    if gamma is None or not gamma > 0.0:
        raise ValueError("rbf curvature needs a positive gamma; resolve the spec first")

    def kernel(half: slice) -> None:
        rows = sq[half]
        np.multiply(rows, -gamma, out=rows)
        np.exp(rows, out=rows)

    _in_halves(kernel, [slice(0, len(sq))] if halves is None else halves)
    return sq


def rbf_kernel_matrix(points: Array, gamma: float) -> Array:
    """exp(-gamma ||x_p - x_q||^2) over all row pairs (b, b); diagonal exactly 1.

    The distances are ``sq_distance_matrix``'s, as in ``rkhs.knn_rkhs``, so
    the two matrices are equal bit for bit.
    """
    return rbf_kernel_from_sq(sq_distance_matrix(points), gamma, _gram_halves(points))


@functools.cache
def unordered_pairs(k: int) -> tuple[Array, Array]:
    """(a, b) of every unordered pair a < b of k neighbors, ``np.triu_indices(k, 1)``;
    read-only, since every caller shares them."""
    pairs = np.triu_indices(k, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def pair_terms(matrix: Array, neighbors: Array, score: str, first: int = 0,
               floor: Optional[float] = None) -> Array:
    """The terms t(a, b) over each row's unordered neighbor pairs a < b,
    (m, k(k - 1)/2) in ``unordered_pairs`` order, for rows first, first + 1,
    ... of the pair matrix, gathered with one flat ``take``: K[n_a, n_b] for
    rbf; for cosine (r_a^2 + r_b^2 - D^2[n_a, n_b]) / (2 r_a r_b) with
    r_a^2 = D^2[i, n_a], where r_a^2 <= ``floor`` (by default SHORT_EDGE
    max(D^2)) raises DegenerateEdgeError.
    """
    a, b = unordered_pairs(neighbors.shape[1])
    flat = neighbors[:, a]
    flat *= matrix.shape[0]
    flat += neighbors[:, b]
    terms = matrix.take(flat)
    del flat
    if score == "cosine":
        r2 = matrix[np.arange(first, first + len(neighbors))[:, None], neighbors]
        if floor is None:
            floor = SHORT_EDGE * matrix.max()
        if r2.size and r2.min() <= floor:
            row, col = np.unravel_index(np.argmin(r2), r2.shape)
            raise DegenerateEdgeError(f"row {first + row}: edge to neighbor {col} has a squared "
                                      f"length <= {SHORT_EDGE:g} of the largest in its batch")
        inv = 1.0 / np.sqrt(r2)
        np.subtract(r2[:, a] + r2[:, b], terms, out=terms)
        terms *= inv[:, a]
        terms *= (0.5 * inv)[:, b]
    return terms


def curvature_rows(matrix: Array, neighbors: Array, score: str) -> Array:
    """Each row's sum of ``pair_terms`` over its neighbor pairs a < b, (m,).

    Row i of ``neighbors`` lists row i's neighbors in the pair matrix: the
    kernel matrix for rbf, the squared distances for cosine.  The terms run
    over row blocks of at most _PAIR_ELEMENTS pairs."""
    m, k = neighbors.shape
    if k < 2:
        raise ValueError("curvature needs at least two edges")
    floor = SHORT_EDGE * matrix.max() if score == "cosine" else None
    step = max(1, _PAIR_ELEMENTS // (k * (k - 1) // 2))
    out = np.empty(m)
    for first in range(0, m, step):
        rows = slice(first, first + step)
        out[rows] = pair_terms(matrix, neighbors[rows], score, first, floor).sum(axis=1)
    return out


def pair_matrix(z: Array, score: str, gamma=None, pairs=None) -> Array:
    """The (b, b) matrix the curvature scores of ``z`` read: D^2 for cosine,
    K for rbf.  ``pairs`` is a kNN's (points, pair matrix), lent only when
    ``points`` is the very array ``z``, so a re-evaluation on other inputs
    (``forward_values``, finite differences) builds its own."""
    if pairs is not None and pairs[0] is z:
        return pairs[1]
    if score == "rbf":
        return rbf_kernel_matrix(z, gamma)
    return sq_distance_matrix(z)


def _fwd_curvature(z, *, neighbors, score, gamma=None, pairs=None):
    """Scores (b, 1) of each row against its ``neighbors`` rows."""
    _require_2d(z, "curvature")
    nb = np.asarray(neighbors, dtype=np.int64)
    if nb.ndim != 2 or nb.shape[0] != z.shape[0]:
        raise ShapeMismatchError(f"curvature: neighbors {nb.shape} for {z.shape[0]} rows")
    if nb.size and (nb.min() < 0 or nb.max() >= z.shape[0]):
        raise ShapeMismatchError(f"curvature: neighbor index out of range for {z.shape[0]} rows")
    if score not in ("cosine", "rbf"):
        raise ValueError(f"unknown curvature score {score!r}")
    return curvature_rows(pair_matrix(z, score, gamma, pairs), nb, score)[:, None]


# ---------------------------------------------------------------------------
# the loss head: identity-target penalties in closed form
# ---------------------------------------------------------------------------

def _cross_correlation(za: Array, zb: Array) -> Array:
    """C = za^T zb / b, the Barlow Twins matrix, a new (d, d) array."""
    if za.ndim != 2 or za.shape != zb.shape:
        raise ShapeMismatchError(f"barlow: {za.shape} vs {zb.shape}")
    return za.T @ zb / za.shape[0]


def barlow_parts(za: Array, zb: Array) -> tuple[float, float]:
    """sum((C_ii - 1)^2) and sum(C_ij^2, i != j) for C = za^T zb / b."""
    c = _cross_correlation(za, zb)
    diag = np.diagonal(c) - 1.0
    c *= c
    np.fill_diagonal(c, 0.0)
    return float(diag @ diag), float(c.sum())


def _fwd_barlow(za, zb, *, lambda_emb):
    diag, off = barlow_parts(za, zb)
    return diag + off * lambda_emb


def score_penalty_parts(ct: Array, ctp: Array) -> tuple[float, float]:
    """The identity-target penalty's parts on M = ct ctp^T / b in O(b): M's
    diagonal is p / b, p = ct o ctp, and its squares sum to ||ct||^2 ||ctp||^2
    / b^2, so sum((p_i / b - 1)^2) and (||ct||^2 ||ctp||^2 - ||p||^2) / b^2."""
    _same_shape(ct, ctp, "score_penalty")
    ct, ctp = ct.ravel(), ctp.ravel()
    b = ct.size
    p = ct * ctp
    diag = p / b - 1.0
    return float(diag @ diag), float(((ct @ ct) * (ctp @ ctp) - p @ p) / (b * b))


def _fwd_score_penalty(ct, ctp, *, lambda_curv, alpha_curv):
    diag, off = score_penalty_parts(ct, ctp)
    return alpha_curv * (diag + off * lambda_curv)


# ---------------------------------------------------------------------------
# primitive backward rules
# ---------------------------------------------------------------------------
# one rule per input maps (input values, cached output, upstream adjoint,
# aux) to that input's adjoint; reverse_grad calls only the rules of inputs
# that depend on a parameter leaf

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

    It reads the pair matrix the forward read, from ``pair_matrix``.  Every
    entry P_pq is a function of ||x_p - x_q||^2, so the scores' derivatives
    sum into one symmetric pair weight W (the diagonal carries none), and
    d/dx = scale (W x - rowsum(W) o x) on the centred x.  ``np.add.at`` adds
    each row block's weights into one zeroed (b * b,) vector in input order:
    cosine re-gathers the matrix over _BLOCK_ELEMENTS row blocks (fewer numpy
    calls measured faster on desk-euclid), rbf over _PAIR_ELEMENTS blocks.
    rbf: W = C o K with C_pq = sum_i g_i #{(a, b): n_a = p, n_b = q} over each
    row i's ordered neighbor pairs; scale 2 gamma.  cosine: W_pq = d/dD^2_pq,
    -g_i / (2 r_a r_b) at (n_a, n_b) and g_i / (4 r_a^3) sum_b (D^2[n_a, n_b]
    + r_a^2 - r_b^2) / r_b at (i, n_a) and (n_a, i); scale -2.
    """
    z = ins[0]
    nb = np.asarray(aux["neighbors"], dtype=np.int64)
    matrix = pair_matrix(z, aux["score"], aux.get("gamma"), aux.get("pairs"))
    b, k = nb.shape
    w = np.zeros(b * b)
    rbf = aux["score"] == "rbf"
    for rows in _row_blocks(b, k, k, _PAIR_ELEMENTS if rbf else _BLOCK_ELEMENTS):
        pairs = nb[rows, :, None] * b + nb[rows, None, :]
        if rbf:
            np.add.at(w, pairs.ravel(), np.repeat(g[rows, 0], k * k))
            continue
        centre = np.arange(rows.start, rows.stop)[:, None]
        r2 = matrix[centre, nb[rows]]
        inv = 1.0 / np.sqrt(r2)
        d2 = matrix.take(pairs) + r2[:, :, None] - r2[:, None, :]
        g_inv = g[rows] * inv
        pair_w = g_inv[:, :, None] * (-0.5 * inv)[:, None, :]
        edge_w = 0.25 * g_inv * inv * inv * (d2 @ inv[:, :, None])[..., 0]
        np.add.at(w, np.concatenate([pairs.ravel(), (centre * b + nb[rows]).ravel(),
                                     (nb[rows] * b + centre).ravel()]),
                  np.concatenate([pair_w.ravel(), edge_w.ravel(), edge_w.ravel()]))
    w = w.reshape(b, b)
    np.fill_diagonal(w, 0.0)
    if rbf:
        w *= matrix
    x = centred(z)
    adj = w @ x
    adj -= w.sum(axis=1)[:, None] * x
    adj *= 2.0 * aux["gamma"] if rbf else -2.0
    return adj


def _barlow_weight(ins, g, aux) -> Array:
    """W = g dL/dC / b, the adjoints being zb W^T and za W: dL/dC is 2 (C - I)
    on the diagonal and 2 lambda_emb C off it."""
    c = _cross_correlation(*ins)
    w = c * (2.0 * aux["lambda_emb"])
    np.fill_diagonal(w, 2.0 * (np.diagonal(c) - 1.0))
    w *= g / ins[0].shape[0]
    return w


def _score_penalty_adjoint(x: Array, y: Array, g, aux) -> Array:
    """``score_penalty``'s adjoint at column x, y the other (it is symmetric):
    2 alpha ((p / b - 1) y / b + lambda (x ||y||^2 - p y) / b^2), p = x o y."""
    b = x.size
    p = x * y
    adj = (p / b - 1.0) * y / b + aux["lambda_curv"] * (x * np.sum(y * y) - p * y) / (b * b)
    adj *= 2.0 * aux["alpha_curv"] * g
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
    "barlow": _fwd_barlow,
    "score_penalty": _fwd_score_penalty,
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
    "barlow": (lambda ins, out, g, aux: ins[1] @ _barlow_weight(ins, g, aux).T,
               lambda ins, out, g, aux: ins[0] @ _barlow_weight(ins, g, aux)),
    "score_penalty": (lambda ins, out, g, aux: _score_penalty_adjoint(ins[0], ins[1], g, aux),
                      lambda ins, out, g, aux: _score_penalty_adjoint(ins[1], ins[0], g, aux)),
}

PRIMITIVES = tuple(sorted(_FORWARD))


def eval_primitive(kind: str, inputs: list[Array], *, check: bool = True, **aux) -> Array:
    """Evaluate one primitive on concrete arrays.

    Pure: inputs are never mutated.  Raises ShapeMismatchError for
    incompatible extents and, with ``check`` (the default), NonFiniteError
    if the result contains NaN/Inf; ``Graph.apply`` passes ``check=False``
    for a parameter-dependent node, whose graph checks its boundary instead.
    """
    if kind not in _FORWARD:
        raise KeyError(f"unknown primitive {kind!r}")
    vals = [_as_f64(x) for x in inputs]
    with np.errstate(all="ignore"):  # finiteness is checked explicitly below
        out = np.asarray(_FORWARD[kind](*vals, **aux), dtype=np.float64)
    if check:
        _require_finite(out, f"primitive {kind!r}")
    return out


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


class Var:
    """Handle to one node of a Graph.  Its sugar is the objective's operators
    (``+``, ``@``, ``.T``, ``relu``, ``affine``, ``standardize``); every other
    primitive goes through ``Graph.apply``, which owns the same-graph rule."""

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

    def __add__(self, other: "Var"):
        return self.graph.apply("add", self, other)

    def __matmul__(self, other: "Var"):
        return self.graph.apply("matmul", self, other)

    def relu(self):
        return self.graph.apply("relu", self)

    def standardize(self, eps: float):
        return self.graph.apply("standardize", self, eps=float(eps))

    def affine(self, w: "Var", b: "Var"):
        return self.graph.apply("affine", self, w, b)

    @property
    def T(self):
        return self.graph.apply("transpose", self)


class Graph:
    """Append-only tape of primitive applications.

    Node order is a topological order by construction.  A graph belongs to
    one thread: a training step builds one graph per lane (each view's MLP)
    and one joint graph for the loss, and no graph is shared between
    threads while it is built or walked.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, value, *, param: bool = False, name: Optional[str] = None,
             check: bool = True) -> Var:
        """Append a leaf.  ``param`` leaves get gradients.  ``check=False``
        skips the finiteness scan of a value scanned elsewhere in the step
        (the parameters a second lane loads) or made by an active node of
        another graph (a lane's embedding on the joint graph), whose own
        boundary checks it."""
        arr = _as_f64(value)
        if check:
            _require_finite(arr, "leaf")
        self.nodes.append(Node("leaf", (), {}, arr, param=param, name=name, active=param))
        return Var(self, len(self.nodes) - 1)

    def apply(self, op: str, *args: Var, **aux) -> Var:
        """Evaluate ``op`` on the inputs' cached values and append its node.

        A node that depends on a parameter leaf is not scanned for NaN/inf:
        ``reverse_grad`` checks the output and the gradients, and
        ``forward_values`` names the op that made a non-finite value.  A node
        that depends on no parameter, every node of an eager graph, raises
        NonFiniteError at the op itself; an input of another graph, ValueError.
        """
        if any(a.graph is not self for a in args):
            raise ValueError("cannot combine Vars from different graphs")
        ids = tuple(a.idx for a in args)
        vals = [self.nodes[i].value for i in ids]
        active = any(self.nodes[i].active for i in ids)
        out = eval_primitive(op, vals, check=not active, **aux)
        self.nodes.append(Node(op, ids, aux, out, active=active))
        return Var(self, len(self.nodes) - 1)

    def param_leaves(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.op == "leaf" and n.param]

    def forward_values(self, overrides: Optional[dict[int, Array]] = None) -> list[Array]:
        """Re-evaluate the whole tape, optionally overriding leaf values.

        Does not touch the cached values, and recomputes every node from its
        re-evaluated inputs, checking each one: the first primitive that
        makes a NaN or inf raises NonFiniteError naming it.  Used by finite
        differencing, by the cache-consistency tests and to locate a
        non-finite value that the graph's boundary checks met.
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


def _reverse_walk(graph: Graph, seeds: dict[int, Array]) -> dict[int, Array]:
    """Adjoints of every parameter leaf, walked back from the adjoints
    ``seeds`` (node id -> adjoint) in node order; a leaf nothing reaches
    gets zeros.  Unchecked."""
    nodes = graph.nodes
    adjoints = {i: g for i, g in seeds.items() if nodes[i].active}
    for i in range(max(seeds, default=-1), -1, -1):
        node = nodes[i]
        if node.op == "leaf":
            continue
        g = adjoints.pop(i, None)  # an interior adjoint is dead once used
        if g is None:
            continue
        ins = [nodes[j].value for j in node.inputs]
        for j, rule in zip(node.inputs, _BACKWARD[node.op]):
            if nodes[j].active:
                contrib = rule(ins, node.value, g, node.aux)
                adjoints[j] = adjoints[j] + contrib if j in adjoints else contrib
    return {i: adjoints[i] if i in adjoints else np.zeros_like(nodes[i].value)
            for i in graph.param_leaves()}


def _checked(grads: dict[int, Array]) -> dict[int, Array]:
    for i, grad in grads.items():
        _require_finite(grad, f"gradient of leaf {i}")
    return grads


def reverse_grad(graph: Graph, output: Var) -> dict[int, Array]:
    """Gradient of a scalar output with respect to every parameter leaf.

    Returns a map node-id -> adjoint array.  Leaves the output does not
    depend on get explicit zero gradients.  Only nodes that depend on a
    parameter leaf get adjoints, read from each node's ``active`` flag that
    ``Graph.apply`` set at build time: the backward rules of constants and
    data never run, and no adjoint is computed for an input that depends on
    no parameter.  Accumulation order is fixed by node index, so
    repeated calls are bit-identical.

    This is where a parameter-dependent graph's finiteness is checked: the
    output's value before the pass and every gradient after it raise
    NonFiniteError; ``Graph.forward_values`` names the primitive behind a
    non-finite output.
    """
    _check_scalar(graph, output)
    value = graph.nodes[output.idx].value
    _require_finite(value, f"output node {output.idx}")
    return _checked(_reverse_walk(graph, {output.idx: np.ones_like(value)}))


def seeded_grad(graph: Graph, seeds: dict[int, Array]) -> dict[int, Array]:
    """The parameter leaves' gradients, by ``reverse_grad``'s walk, from the
    adjoints ``seeds`` (node id -> adjoint of that node's value): a lane's
    share of a gradient whose scalar lives on another graph that took the
    seeded nodes' values as leaves.  Nothing is checked here; the caller
    adds the lanes' shares with ``add_grads``."""
    for i, g in seeds.items():
        if g.shape != graph.nodes[i].value.shape:
            raise ShapeMismatchError(f"seed for node {i}: {g.shape} vs {graph.nodes[i].value.shape}")
    return _reverse_walk(graph, seeds)


def add_grads(first: dict[int, Array], second: dict[int, Array]) -> dict[int, Array]:
    """Two lanes' ``seeded_grad`` shares summed per leaf id, every sum
    checked for finiteness as ``reverse_grad`` checks its gradients.  Both
    shares are emptied as they are added, so no third copy builds up."""
    return _checked({i: first.pop(i) + second.pop(i) for i in list(first)})


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
