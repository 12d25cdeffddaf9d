"""Two-view pretraining with Adam, frozen-encoder probing, and metrics.

The loop is deliberately functional: every step maps (params, state) to new
values, so identical configs replay bit-identically and nothing the probe
does can touch encoder weights.  While one step runs, a worker thread
builds the next batch's two views; the loop joins it before ``on_step``,
and since every draw is keyed by (epoch, batch, view) the overlap cannot
change a bit.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .data import AugmentationPolicy, BatchPlan, Dataset, augment_view, batches, stream, write_csv
from .errors import EmptyDatasetError, InvariantViolationError, NonFiniteError, ShapeMismatchError
from .losses import LossBreakdown, Weights, total_loss
from .model import (
    Architecture,
    Checkpoint,
    Params,
    encode,
    forward_graph,
    init_params,
    param_leaves,
)
from .numerics import Graph, reverse_grad
from .rkhs import KernelSpec

BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    architecture: Architecture
    epochs: int = 100
    batch_size: int = 256
    k: int = 10
    weights: Weights = Weights(1.0, 1.0, 1.0)
    metric: str = "euclidean"          # euclidean | linear | rbf
    rbf_gamma: Optional[float] = None  # None -> median heuristic per batch
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    eps: float = 1e-5
    seed: int = 0
    augmentation: AugmentationPolicy = AugmentationPolicy()
    track_curvature: bool = True       # False: pure redundancy-reduction run

    def __post_init__(self):
        if self.epochs < 1:
            raise InvariantViolationError(f"epochs must be >= 1, got {self.epochs}")
        if self.k < 2:
            raise InvariantViolationError(f"k must be >= 2 (two edges per score), got {self.k}")
        if not self.batch_size > self.k + 1:
            raise InvariantViolationError(
                f"batch_size must exceed k+1 ({self.batch_size} vs k={self.k})"
            )
        if not self.learning_rate > 0.0:
            raise InvariantViolationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.eps >= 0.0:
            raise InvariantViolationError(f"eps must be >= 0, got {self.eps}")
        if self.metric not in ("euclidean", "linear", "rbf"):
            raise InvariantViolationError(
                f"metric must be euclidean|linear|rbf, got {self.metric!r}"
            )
        KernelSpec("rbf", self.rbf_gamma)  # its bandwidth rule, whatever the metric

    def metric_spec(self):
        if self.metric == "euclidean":
            return "euclidean"
        return KernelSpec(self.metric, self.rbf_gamma)

    def digest(self) -> str:
        parts = [
            f"arch={self.architecture.input_dim}:"
            f"{','.join(map(str, self.architecture.encoder_widths))}:"
            f"{','.join(map(str, self.architecture.projector_widths))}",
            f"epochs={self.epochs}",
            f"batch_size={self.batch_size}",
            f"k={self.k}",
            f"weights={tuple(self.weights)}",
            f"metric={self.metric}",
            f"rbf_gamma={self.rbf_gamma}",
            f"lr={self.learning_rate}",
            f"wd={self.weight_decay}",
            f"eps={self.eps}",
            f"seed={self.seed}",
            f"augmentation={self.augmentation}",
            f"track_curvature={self.track_curvature}",
        ]
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def init_adam_state(params: Params) -> AdamState:
    zeros = lambda p: {k: (np.zeros_like(w), np.zeros_like(b)) for k, (w, b) in p.items()}
    return AdamState(m=zeros(params), v=zeros(params), t=0)


def adam_step(
    params: Params,
    grads: Params,
    state: AdamState,
    lr: float,
    weight_decay: float,
) -> tuple[Params, AdamState]:
    """One Adam update.  Weight decay enters the gradient (g + wd * theta)
    before the moment updates; bias-corrected step with eps outside sqrt."""
    t = state.t + 1
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    new_params: Params = {}
    new_m, new_v = {}, {}
    for name, (w, b) in params.items():
        if grads[name][0].shape != w.shape or grads[name][1].shape != b.shape:
            raise ShapeMismatchError(f"gradient shape mismatch for layer {name!r}")
        outs = []
        for theta, g, m, v in zip((w, b), grads[name], state.m[name], state.v[name]):
            if weight_decay != 0.0:
                g = g + weight_decay * theta
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * (g * g)
            theta = theta - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
            outs.append((theta, m, v))
        new_params[name] = (outs[0][0], outs[1][0])
        new_m[name] = (outs[0][1], outs[1][1])
        new_v[name] = (outs[0][2], outs[1][2])
    return new_params, AdamState(m=new_m, v=new_v, t=t)


@dataclass
class History:
    """Per-epoch mean loss components plus wall-clock seconds."""

    entries: list = field(default_factory=list)  # (LossBreakdown, seconds)

    CSV_HEADER = "epoch,total,emb_diag,emb_offdiag,curv_diag,curv_offdiag,seconds"

    def append(self, breakdown: LossBreakdown, seconds: float) -> None:
        self.entries.append((breakdown, seconds))

    def breakdowns(self) -> list[LossBreakdown]:
        return [b for b, _ in self.entries]

    def to_csv(self, path) -> None:
        rows = ((epoch, *b.as_tuple(), secs) for epoch, (b, secs) in enumerate(self.entries))
        write_csv(path, self.CSV_HEADER.split(","), rows)


def _two_views(
    dataset: Dataset,
    policy: AugmentationPolicy,
    seed: int,
    epoch: int,
    batch_idx: int,
    idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    rows = dataset.features[idx]
    return tuple(
        augment_view(rows, policy, stream(seed, "augment", epoch, batch_idx, view))
        for view in (0, 1)
    )


def _first_views(
    pool: ThreadPoolExecutor,
    dataset: Dataset,
    policy: AugmentationPolicy,
    seed: int,
    epoch: int,
    batch_idx: int,
    idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The first batch's views side by side, view 1 on the worker and view 0
    here; both streams are made here, in view order."""
    rows = dataset.features[idx]
    rng0, rng1 = (stream(seed, "augment", epoch, batch_idx, view) for view in (0, 1))
    view1 = pool.submit(augment_view, rows, policy, rng1)
    return augment_view(rows, policy, rng0), view1.result()


def pretrain(
    config: TrainConfig,
    dataset: Dataset,
    on_step: Optional[Callable[[int, int, LossBreakdown], None]] = None,
) -> tuple[Checkpoint, History]:
    """Full two-view pretraining loop.

    Per batch: draw two augmented views, push both through the shared
    encoder/projector on one graph, assemble the objective, backpropagate,
    take an Adam step.  Neighbor search runs on the current embeddings of
    each step (never cached across steps).  The next batch's views, across
    epoch boundaries too, are built on a worker thread while the step runs;
    the loop waits for them before ``on_step``, so no background work
    outlives a step, and an augmentation error is raised there with its
    own class.
    """
    arch = config.architecture
    if dataset.dim != arch.input_dim:
        raise ShapeMismatchError(
            f"dataset dim {dataset.dim} vs architecture input {arch.input_dim}"
        )
    params = init_params(arch, config.seed)
    state = init_adam_state(params)
    plan = BatchPlan(seed=config.seed, batch_size=config.batch_size, min_batch=config.k + 2)
    metric = config.metric_spec()
    policy = config.augmentation
    history = History()
    schedule = [
        (epoch, batch_idx, idx)
        for epoch in range(config.epochs)
        for batch_idx, idx in enumerate(batches(len(dataset), plan, epoch))
    ]

    started = time.perf_counter()
    sums = np.zeros(5)
    count = 0
    with ThreadPoolExecutor(max_workers=1) as pool:
        x1, x2 = _first_views(pool, dataset, policy, config.seed, *schedule[0])
        for (epoch, batch_idx, _), ahead in zip(schedule, schedule[1:] + [None]):
            if ahead is not None:
                next_views = pool.submit(_two_views, dataset, policy, config.seed, *ahead)
            graph = Graph()
            try:
                leaves = param_leaves(graph, params)
                z1 = forward_graph(leaves, arch, graph.leaf(x1))[1]
                z2 = forward_graph(leaves, arch, graph.leaf(x2))[1]
                breakdown, total = total_loss(
                    z1,
                    z2,
                    config.k,
                    metric=metric,
                    weights=config.weights,
                    eps=config.eps,
                    include_curvature=config.track_curvature,
                )
                by_id = reverse_grad(graph, total)
            except NonFiniteError as err:
                raise NonFiniteError(f"epoch {epoch}, batch {batch_idx}: {err}") from err
            grads = {
                name: (by_id[wv.idx], by_id[bv.idx]) for name, (wv, bv) in leaves.items()
            }
            # Adam is the step's memory peak: release the tape and views first
            del graph, leaves, by_id, z1, z2, total, x1, x2
            params, state = adam_step(
                params, grads, state, config.learning_rate, config.weight_decay
            )
            del grads
            sums += np.asarray(breakdown.as_tuple())
            count += 1
            if ahead is not None:
                x1, x2 = next_views.result()
            if on_step is not None:
                on_step(epoch, batch_idx, breakdown)
            if ahead is None or ahead[0] != epoch:
                mean = sums / count
                history.append(
                    LossBreakdown(*(float(v) for v in mean), weights=config.weights),
                    time.perf_counter() - started,
                )
                started = time.perf_counter()
                sums = np.zeros(5)
                count = 0

    ckpt = Checkpoint(
        architecture=arch,
        params=params,
        seed=config.seed,
        epochs=config.epochs,
        config_digest=config.digest(),
        history=history.breakdowns(),
    )
    return ckpt, history


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def top1_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label; ties go to the
    lowest class index."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] != labels.shape[0]:
        raise ShapeMismatchError(f"logits {logits.shape} vs labels {labels.shape}")
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def linear_probe(
    ckpt: Checkpoint,
    train: Dataset,
    test: Dataset,
    probe_epochs: int = 50,
    probe_lr: float = 0.1,
    probe_batch: int = 256,
    seed: int = 0,
) -> float:
    """Freeze the encoder, fit an affine softmax classifier on h by
    mini-batch SGD, report top-1 test accuracy."""
    if len(train) == 0 or len(test) == 0:
        raise EmptyDatasetError("probe needs non-empty train and test sets")
    arch = ckpt.architecture
    if train.dim != arch.input_dim or test.dim != arch.input_dim:
        raise ShapeMismatchError("dataset dimension does not match the checkpoint")
    h_train = encode(ckpt.params, arch, train.features)
    h_test = encode(ckpt.params, arch, test.features)
    n, d_h = h_train.shape
    num_classes = max(train.num_classes, int(train.labels.max()) + 1)
    weight = np.zeros((d_h, num_classes))
    bias = np.zeros(num_classes)
    onehot = np.eye(num_classes)[train.labels]
    bsize = min(probe_batch, n)
    for epoch in range(probe_epochs):
        order = stream(seed, "probe", epoch).permutation(n)
        for start in range(0, n, bsize):
            rows = order[start : start + bsize]
            hb = h_train[rows]
            logits = hb @ weight + bias
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            g = (p - onehot[rows]) / rows.size
            weight = weight - probe_lr * (hb.T @ g)
            bias = bias - probe_lr * g.sum(axis=0)
    return top1_accuracy(h_test @ weight + bias, test.labels)


def export_embeddings(ckpt: Checkpoint, dataset: Dataset, path) -> None:
    """CSV of encoder features: label,h0,...,h_{d_h-1}; one row per sample."""
    h = encode(ckpt.params, ckpt.architecture, dataset.features)
    header = ["label"] + [f"h{i}" for i in range(h.shape[1])]
    write_csv(path, header, ((label, *row) for label, row in zip(dataset.labels, h)))
