"""Run one benchmark workload in this (fresh) process.

Started by ``run.py`` with BLAS pinned to one thread in its environment.
Builds the workload's inputs from the seed, drives the package through its
public API for about ``--seconds`` seconds, checks every output, and prints
one JSON object as its last line.  With ``--setup-only`` it stops right
before the first call into ``pretrain``/``batch_curvature`` and reports
when it got there.  Untraced, it also times the reference loop (``Pace``)
after set-up and between ops, so that ``run.py`` can express times at the
reference speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import curvalign as ca
import oracle  # beside this script, so on sys.path
from curvalign.errors import CurvalignError

ROUNDING = 1e-9


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def desk_euclid(seed: int, workdir: Path):
    """Criterion-7 desk data: 28x28 pattern images through the IDX path."""
    full = ca.make_pattern_images(3048, 10, 28, seed=seed)
    img, lab = workdir / "images-idx3-ubyte", workdir / "labels-idx1-ubyte"
    ca.save_idx(full.features, full.labels, 28, 28, img, lab)
    loaded = ca.load_idx(img, lab)
    train = ca.Dataset(loaded.features[:2048], loaded.labels[:2048], "patterns", 10, (28, 28))
    test = ca.Dataset(loaded.features[2048:], loaded.labels[2048:], "patterns", 10, (28, 28))
    config = ca.TrainConfig(
        architecture=ca.Architecture(784, (256, 128), (128, 32)),
        epochs=2, batch_size=256, k=10, weights=ca.Weights(1.0, 1.0, 1.0),
        metric="euclidean", learning_rate=1e-3, weight_decay=1e-4, seed=seed,
        augmentation=ca.AugmentationPolicy(0.1, 0.1, 2, image_shape=(28, 28)),
    )
    return train, test, config


def lowdim_rbf(seed: int, workdir: Path):
    """32-d blobs on the kernel branch with the median-heuristic bandwidth."""
    train = ca.make_blobs(1024, 8, 32, 0.08, seed=seed)
    config = ca.TrainConfig(
        architecture=ca.Architecture(32, (64, 64), (64, 32)),
        epochs=2, batch_size=256, k=20, metric="rbf", rbf_gamma=None, seed=seed,
        augmentation=ca.AugmentationPolicy(0.05, 0.1, 0),
    )
    return train, None, config


def score_eager(seed: int, workdir: Path):
    """The rows `curvalign curvature` scores for the patterns config with
    train_limit = 1024: enough rows for O(n^2) distances and selection to
    dominate, few enough for 20+ passes in a run, so the tail is a percentile."""
    full = ca.make_pattern_images(3048, 10, 28, seed=seed)
    return full.features[:1024], None, None


WORKLOADS = {"desk-euclid": desk_euclid, "lowdim-rbf": lowdim_rbf, "score-eager": score_eager}
SCORE_K = 10
ORACLE_ROWS = 24


class Pace:
    """A fixed loop of numpy and Python work that never touches curvalign.

    The host is shared, and its speed drifts by 10-25% within minutes; the
    loop slows with it.  Timed right before and after each op, it gives the
    host's speed at that moment, so an op time can be scaled to the
    reference speed (``run.py``).  A change to the package moves the op
    times and not the loop.  The mix follows a training step: a matmul,
    elementwise passes over 8 MiB, an interpreter loop and small numpy
    calls.  Its arrays add 11 MiB to the worker's peak RSS."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 784))
        self.b = rng.standard_normal((784, 256))
        self.buf = np.ones((512, 2048))
        self.small = rng.standard_normal((28, 28))
        self.ms()  # first touch

    def ms(self) -> float:
        start = time.perf_counter_ns()
        self.a @ self.b
        for _ in range(2):  # x <- sqrt(x / 2 + 1) stays near 1.13
            np.multiply(self.buf, 0.5, out=self.buf)
            np.add(self.buf, 1.0, out=self.buf)
            np.sqrt(self.buf, out=self.buf)
        acc = 0
        for i in range(15000):
            acc += i * i
        g = np.random.default_rng(1)
        for _ in range(150):
            np.roll(self.small, int(g.integers(-2, 3)), axis=0) + g.normal(0, 0.1, (28, 28))
        return (time.perf_counter_ns() - start) / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repetitions(seconds: float, tracer):
    """Yield (repetition, traced) until ``seconds`` have passed, at least
    twice; with a tracer every odd repetition is traced."""
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < 2 or time.perf_counter() < deadline:
        yield rep, tracer is not None and rep % 2 == 1
        rep += 1


class Checks:
    """Counts attempted and failed operations and keeps the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, ops: int, reason: str) -> None:
        self.failed += ops
        if len(self.reasons) < 20:
            self.reasons.append(reason)


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

def check_breakdown(bd, batch_size: int) -> str | None:
    parts = bd.as_tuple()
    if not all(math.isfinite(v) for v in parts):
        return f"non-finite loss breakdown {parts}"
    w = bd.weights
    weighted = (bd.emb_diag + w.lambda_emb * bd.emb_offdiag
                + w.alpha_curv * (bd.curv_diag + w.lambda_curv * bd.curv_offdiag))
    if abs(bd.total - weighted) > ROUNDING * max(1.0, abs(weighted)):
        return f"total {bd.total!r} differs from its weighted parts {weighted!r}"
    floor = batch_size - 2 + 1 / batch_size
    if bd.curv_diag < floor - ROUNDING * floor:
        return f"curv_diag {bd.curv_diag!r} below the rank-one floor {floor!r}"
    return None


def run_training(train, test, config, seconds: float, tracer, pace, workdir: Path,
                 checks: Checks):
    b = config.batch_size
    if len(train) % b:
        raise ValueError("workload rows must be a multiple of the batch size")
    rows_per_rep = config.epochs * len(train)
    # warm-up: one step on the same config fills lazy caches before timing
    head = ca.Dataset(train.features[:b], train.labels[:b], train.name,
                      train.num_classes, train.image_shape)
    ca.pretrain(replace(config, epochs=1), head)

    untraced_ms, traced_ms, pace_ms = [], [], []
    rows = busy_ns = 0
    reference = None
    clock = time.perf_counter_ns
    for rep, traced in repetitions(seconds, tracer):
        marks = []      # (end of a step, its breakdown)
        starts = []     # start of each step; a pace run separates it from the last end
        paces = [pace.ms()] if pace else []

        def on_step(epoch, batch_idx, breakdown):
            now = clock()
            marks.append((now, breakdown))
            if traced:
                tracer.end_step(now)
            if pace:
                paces.append(pace.ms())
                now = clock()
            starts.append(now)

        if traced:
            tracer.install()
        start = clock()
        starts.append(start)
        if traced:
            tracer.begin_step(start)
        try:
            ckpt, history = ca.pretrain(config, train, on_step=on_step)
        except CurvalignError as err:
            checks.attempted += len(marks) + 1
            checks.fail(1, f"pretrain raised {type(err).__name__}: {err}")
            return None
        finally:
            if traced:
                tracer.uninstall()
        if rep == 0:
            peak_mb = peak_rss_mb()

        step_ns = [t1 - t0 for t0, (t1, _) in zip(starts, marks)]
        (traced_ms if traced else untraced_ms).extend(ns / 1e6 for ns in step_ns)
        if not traced:
            rows += rows_per_rep
            busy_ns += sum(step_ns)
        pace_ms.extend((p0 + p1) / 2 for p0, p1 in zip(paces, paces[1:]))
        checks.attempted += len(marks)
        for _, bd in marks:
            reason = check_breakdown(bd, b)
            if reason:
                checks.fail(1, reason)

        path = workdir / f"rep{rep}.ckpt"
        ca.save_checkpoint(ckpt, path)
        result = (hashlib.sha256(path.read_bytes()).hexdigest(),
                  [tuple(map(repr, bd.as_tuple())) for bd in history.breakdowns()])
        if reference is None:
            reference = (result, ckpt, history, path)
        elif result != reference[0]:
            what = "traced" if traced else "untraced"
            checks.fail(len(marks), f"{what} repetition {rep} changed the checkpoint "
                                    f"or history loss columns")

    (sha, _), ckpt, history, path = reference
    anchors = {"sha256": sha, "final_loss": history.breakdowns()[-1].total}
    if test is not None:
        loaded = ca.load_checkpoint(path)
        same = all(np.array_equal(loaded.params[n][i], ckpt.params[n][i])
                   for n in ckpt.params for i in (0, 1))
        if not same:
            checks.fail(1, "checkpoint round trip changed a tensor")
        anchors["probe_accuracy"] = ca.linear_probe(loaded, train, test, seed=config.seed)
    return {"step_ms": untraced_ms, "traced_step_ms": traced_ms, "pace_ms": pace_ms,
            "peak_rss_mb": peak_mb, "rows": rows, "busy_s": busy_ns / 1e9, "anchors": anchors}


# ---------------------------------------------------------------------------
# eager scoring workload
# ---------------------------------------------------------------------------

def score_pass(points):
    return (ca.batch_curvature(points, SCORE_K, "euclidean"),
            ca.batch_curvature(points, SCORE_K, ca.KernelSpec("rbf", None)))


def check_scores(points, scores, seed: int, checks: Checks) -> None:
    bound = SCORE_K * (SCORE_K - 1) / 2 + ROUNDING
    bad = np.zeros(points.shape[0], dtype=bool)
    for s in scores:
        bad |= ~np.isfinite(s) | (np.abs(s) > bound)
    if bad.any():
        checks.fail(int(bad.sum()), f"{int(bad.sum())} rows outside |s| <= k(k-1)/2")
    gamma = oracle.median_gamma(points)
    rows = np.random.default_rng(seed).choice(points.shape[0], ORACLE_ROWS, replace=False)
    for i in rows:
        want = (oracle.euclidean_score(points, int(i), SCORE_K),
                oracle.rbf_score(points, int(i), SCORE_K, gamma))
        got = (float(scores[0][i]), float(scores[1][i]))
        if any(abs(w - g) > ROUNDING for w, g in zip(want, got)):
            checks.fail(1, f"row {int(i)}: scores {got} vs oracle {want}")


def run_scoring(points, seconds: float, seed: int, tracer, pace, checks: Checks):
    score_pass(points[:64])  # warm-up
    untraced_ms, traced_ms = [], []
    paces = [pace.ms()] if pace else []
    rows = busy_ns = 0
    reference = None
    n = points.shape[0]
    for rep, traced in repetitions(seconds, tracer):
        if traced:
            tracer.install()
        start = time.perf_counter_ns()
        if traced:
            tracer.begin_step(start)
        try:
            scores = score_pass(points)
        except CurvalignError as err:
            checks.attempted += n
            checks.fail(n, f"batch_curvature raised {type(err).__name__}: {err}")
            return None
        finally:
            if traced:
                tracer.end_step(time.perf_counter_ns())
                tracer.uninstall()
        end = time.perf_counter_ns()
        if rep == 0:
            peak_mb = peak_rss_mb()
        if pace:
            paces.append(pace.ms())
        (traced_ms if traced else untraced_ms).append((end - start) / 1e6)
        if not traced:
            rows += n
            busy_ns += end - start
        checks.attempted += n
        if reference is None:
            reference = scores
            check_scores(points, scores, seed, checks)
        else:
            differ = np.zeros(n, dtype=bool)
            for s, r in zip(scores, reference):
                differ |= s.view(np.int64) != r.view(np.int64)
            if differ.any():
                checks.fail(int(differ.sum()), f"pass {rep} changed {int(differ.sum())} scores")
    digest = hashlib.sha256(reference[0].tobytes() + reference[1].tobytes()).hexdigest()
    return {"step_ms": untraced_ms, "traced_step_ms": traced_ms,
            "pace_ms": [(p0 + p1) / 2 for p0, p1 in zip(paces, paces[1:])],
            "peak_rss_mb": peak_mb, "rows": rows, "busy_s": busy_ns / 1e9,
            "anchors": {"sha256": digest, "mean_euclidean": float(np.mean(reference[0])),
                        "mean_kernel": float(np.mean(reference[1]))}}


# ---------------------------------------------------------------------------

def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')}-{blas.get('version')}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", default=None, help="write spans here and trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    started = time.perf_counter()
    inputs = WORKLOADS[args.workload](args.seed, workdir)
    dataset_ms = (time.perf_counter() - started) * 1e3
    ready = time.time()
    tracer = pace = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
    else:
        pace = Pace()
        setup_pace_ms = sorted(pace.ms() for _ in range(3))[1]
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_pace_ms": setup_pace_ms}))
            return 0

    checks = Checks()
    if args.workload == "score-eager":
        out = run_scoring(inputs[0], args.seconds, args.seed, tracer, pace, checks)
    else:
        out = run_training(*inputs, args.seconds, tracer, pace, workdir, checks)
    out = out or {}
    if pace:
        out["setup_pace_ms"] = setup_pace_ms
    out.update(ready=ready, dataset_ms=dataset_ms, env=environment(),
               attempted=checks.attempted, failed=checks.failed, reasons=checks.reasons)
    if tracer is not None and tracer.steps:
        try:
            out["trace"] = tracer.per_layer()
        except ValueError as err:
            checks.fail(1, f"trace: {err}")
            out.update(failed=checks.failed, reasons=checks.reasons)
        tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
