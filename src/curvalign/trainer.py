"""Two-view pretraining with Adam, frozen-encoder probing, and metrics.

The loop is deliberately functional: every step maps (params, state) to new
values, so identical configs replay bit-identically and nothing the probe
does can touch encoder weights.

A step runs on two lanes.  Each view's encoder/projector MLP is built on
its own graph, view 0's on the main thread and view 1's on one worker
thread; a joint graph takes the two embeddings as leaves and holds the
whole objective.  Its ``reverse_grad`` gives the embeddings' adjoints,
from which each lane runs its MLP backward, and each parameter's gradient
is the sum of its two per-view shares: the single graph's gradient bit for
bit, since IEEE addition of two terms commutes.  Between its lane tasks
the worker builds the next batch's two views.  For an MLP too small to
gain from a second thread there is no worker: the same tasks run, in the
same order, on the calling thread.  The loop joins every task before
``on_step``, and since every draw is keyed by (epoch, batch, view) neither
the overlap nor the thread a task runs on can change a bit.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import nullcontext
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
from .numerics import Graph, Var, add_grads, reverse_grad, seeded_grad
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


# elements of one Adam chunk (512 KiB of float64)
_ADAM_CHUNK = 1 << 16


def _adam_update(theta, g, m, v, lr, weight_decay, c1, c2, buffers):
    """``adam_step``'s update of one array: fresh (theta, m, v)."""
    outs = tuple(np.empty(theta.shape) for _ in range(3))
    arrays = (theta, g, m, v, *outs)
    if theta.size <= _ADAM_CHUNK:  # the arrays themselves: no slicing cost on small layers
        chunks = [arrays]
    else:
        flat = [a.reshape(-1) for a in arrays]
        chunks = ([a[start:start + _ADAM_CHUNK] for a in flat]
                  for start in range(0, theta.size, _ADAM_CHUNK))
    for theta_c, g_c, m_c, v_c, theta_new, m_new, v_new in chunks:
        tmp, den = buffers[:, :theta_c.size].reshape((2,) + theta_c.shape)
        if weight_decay != 0.0:
            np.multiply(weight_decay, theta_c, out=tmp)
            g_c = np.add(g_c, tmp, out=tmp)
        np.multiply(BETA1, m_c, out=m_new)
        np.multiply(1.0 - BETA1, g_c, out=den)
        m_new += den
        np.multiply(g_c, g_c, out=den)
        den *= 1.0 - BETA2
        np.multiply(BETA2, v_c, out=v_new)
        v_new += den
        np.divide(v_new, c2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        np.divide(m_new, c1, out=tmp)
        tmp *= lr
        tmp /= den
        np.subtract(theta_c, tmp, out=theta_new)
    return outs


def adam_step(
    params: Params,
    grads: Params,
    state: AdamState,
    lr: float,
    weight_decay: float,
) -> tuple[Params, AdamState]:
    """One Adam update.  Weight decay enters the gradient (g + wd * theta)
    before the moment updates; bias-corrected step with eps outside sqrt:

        g = g + wd * theta                      (when wd != 0)
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * (g * g)
        theta = theta - lr * (m / c1) / (sqrt(v / c2) + eps)

    Each new theta, m and v is a fresh array, written _ADAM_CHUNK elements
    at a time through two work buffers that every chunk reuses, so the
    step makes no full-size temporaries.  Each chunk runs the IEEE
    operations above in their order (a product's two factors may swap), so
    the result is the whole-array expressions' bit for bit."""
    t = state.t + 1
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for name, (w, b) in params.items():
        if grads[name][0].shape != w.shape or grads[name][1].shape != b.shape:
            raise ShapeMismatchError(f"gradient shape mismatch for layer {name!r}")
    largest = max((a.size for pair in params.values() for a in pair), default=1)
    buffers = np.empty((2, min(_ADAM_CHUNK, largest)))
    new_params: Params = {}
    new_m, new_v = {}, {}
    for name, (w, b) in params.items():
        outs = [_adam_update(theta, g, m, v, lr, weight_decay, c1, c2, buffers)
                for theta, g, m, v in zip((w, b), grads[name], state.m[name], state.v[name])]
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


def _first_views(
    submit: Callable[..., Future],
    dataset: Dataset,
    policy: AugmentationPolicy,
    seed: int,
    epoch: int,
    batch_idx: int,
    idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The first batch's views side by side: view 1 through ``submit`` (the
    worker's, or ``_run_here`` when there is no worker) and view 0 here;
    both streams are made here, in view order."""
    rows = dataset.features[idx]
    rng0, rng1 = (stream(seed, "augment", epoch, batch_idx, view) for view in (0, 1))
    view1 = submit(augment_view, rows, policy, rng1)
    return augment_view(rows, policy, rng0), view1.result()


def _first_non_finite(lanes: tuple[Graph, Graph], joint: Optional[Graph],
                      err: NonFiniteError) -> NonFiniteError:
    """The replay's error when re-evaluating the step's tapes, in build
    order, meets a NaN or inf: a training graph checks its leaves, loss and
    gradients only, and ``forward_values`` checks every op, so it names the
    primitive that made the value ``err`` met later.  The joint graph is
    replayed on the lanes' replayed embeddings (each lane's last node is
    the joint's leaf 0 or 1), so the whole step is re-evaluated from its
    parameters and views.  ``err`` itself when every op is finite."""
    try:
        replays = [lane.forward_values() for lane in lanes]
        if joint is not None:
            joint.forward_values({view: values[-1] for view, values in enumerate(replays)})
    except NonFiniteError as replayed:
        return replayed
    return err


# multiply-adds of one view's MLP forward (batch rows x weights) from which
# pretrain has a worker thread for view 1's lane and the next batch's views.
# A smaller MLP's numpy calls are too short to leave the GIL for long, so
# there a second thread only adds hand-offs: lowdim-rbf's 3.1M ran 5%
# faster with its lanes on the calling thread, and 4.6% faster again with
# no worker at all; desk-euclid's 65M ran 10% faster on the worker
_LANE_MACS = 1 << 24


def _run_here(fn: Callable, *args) -> Future:
    """``fn(*args)`` run on this thread, as a finished Future."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as err:
        future.set_exception(err)
    return future


def _lane_forward(graph: Graph, leaves: dict[str, tuple[Var, Var]], arch: Architecture,
                  x: np.ndarray) -> Var:
    """One view's MLP on its lane's graph, which holds the parameter leaves: z."""
    return forward_graph(leaves, arch, graph.leaf(x))[1]


def _lane_step(
    run_lane: Callable[..., Future],
    params: Params,
    config: TrainConfig,
    views: tuple[np.ndarray, np.ndarray],
    prefetch: Callable[[int], None],
    where: str,
) -> tuple[LossBreakdown, Params]:
    """One step's loss breakdown and parameter gradients over two lanes.

    ``run_lane(fn, *args)`` runs view 1's lane, the worker's ``submit`` or
    ``_run_here``: its forward, then, once the joint graph's
    ``reverse_grad`` has given z' its adjoint, its backward.
    ``prefetch(view)`` is called after each lane task is queued, so a
    worker builds the next batch's view 0 while this thread runs the loss
    and view 1 while it runs view 0's backward.  View 1's forward is queued
    before view 0's lane scans the parameters, so a worker starts it at
    once.  A NonFiniteError is raised prefixed with ``where``, after the
    lane tasks have finished: the scan's own error when a parameter is not
    finite, else the first error of the step's graphs replayed in build
    order.
    """
    arch = config.architecture
    lanes, joint = (Graph(), Graph()), None
    tasks = [run_lane(_lane_forward, lanes[1], param_leaves(lanes[1], params, check=False),
                      arch, views[1])]
    try:
        leaves = param_leaves(lanes[0], params)  # the step's one scan of the parameters
    except NonFiniteError as err:
        wait(tasks)  # view 1's lane ran on the unscanned parameters; it is not replayed
        raise NonFiniteError(f"{where}: {err}") from err
    try:
        prefetch(0)
        z0 = _lane_forward(lanes[0], leaves, arch, views[0])
        z1 = tasks[0].result()
        joint = Graph()
        z, zp = (joint.leaf(v.value, param=True, name=name, check=False)
                 for v, name in ((z0, "z"), (z1, "z'")))
        breakdown, total = total_loss(
            z,
            zp,
            config.k,
            metric=config.metric_spec(),
            weights=config.weights,
            eps=config.eps,
            include_curvature=config.track_curvature,
        )
        adjoints = reverse_grad(joint, total)
        tasks.append(run_lane(seeded_grad, lanes[1], {z1.idx: adjoints[zp.idx]}))
        prefetch(1)
        share = seeded_grad(lanes[0], {z0.idx: adjoints[z.idx]})
        # both lanes loaded the parameters first, in one order: the same leaf ids
        by_id = add_grads(share, tasks[1].result())
    except NonFiniteError as err:
        wait(tasks)
        raise NonFiniteError(f"{where}: {_first_non_finite(lanes, joint, err)}") from err
    return breakdown, {name: (by_id[w.idx], by_id[b.idx]) for name, (w, b) in leaves.items()}


def pretrain(
    config: TrainConfig,
    dataset: Dataset,
    on_step: Optional[Callable[[int, int, LossBreakdown], None]] = None,
) -> tuple[Checkpoint, History]:
    """Full two-view pretraining loop.

    Per batch: draw two augmented views, push each through the shared
    encoder/projector on its own lane (``_lane_step``), assemble the
    objective on the joint graph, backpropagate, take an Adam step.
    Neighbor search runs on the current embeddings of each step (never
    cached across steps).  The next batch's views, across epoch boundaries
    too, are built while the step runs: on the worker thread when the MLP
    reaches ``_LANE_MACS`` multiply-adds per view, else on the calling
    thread, where no worker is started at all.  The loop waits for them
    before ``on_step``, so no background work outlives a step, and an error
    in a view's task is raised there with its own class.
    A NonFiniteError in a step is raised with the prefix "epoch E, batch
    B:", naming the first primitive of the step's tapes that made a NaN or
    inf when there is one.
    """
    arch = config.architecture
    if dataset.dim != arch.input_dim:
        raise ShapeMismatchError(
            f"dataset dim {dataset.dim} vs architecture input {arch.input_dim}"
        )
    params = init_params(arch, config.seed)
    state = init_adam_state(params)
    plan = BatchPlan(seed=config.seed, batch_size=config.batch_size, min_batch=config.k + 2)
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
    macs = config.batch_size * sum(fan_in * fan_out for _, fan_in, fan_out, _ in arch.layers())
    with ThreadPoolExecutor(max_workers=1) if macs >= _LANE_MACS else nullcontext() as pool:
        submit = _run_here if pool is None else pool.submit
        views = _first_views(submit, dataset, policy, config.seed, *schedule[0])
        for (epoch, batch_idx, _), ahead in zip(schedule, schedule[1:] + [None]):
            upcoming: list[Future] = []
            rows: list[np.ndarray] = []

            def prefetch(view: int) -> None:
                if ahead is not None:
                    if not rows:  # gathered here while the worker runs view 1's forward
                        rows.append(dataset.features[ahead[2]])
                    rng = stream(config.seed, "augment", *ahead[:2], view)
                    upcoming.append(submit(augment_view, rows[0], policy, rng))

            breakdown, grads = _lane_step(submit, params, config, views, prefetch,
                                          f"epoch {epoch}, batch {batch_idx}")
            del views  # Adam is the step's memory peak
            params, state = adam_step(
                params, grads, state, config.learning_rate, config.weight_decay
            )
            del grads
            sums += np.asarray(breakdown.as_tuple())
            count += 1
            views = tuple(view.result() for view in upcoming)
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
