"""In-memory span recorder for the traced benchmark run.

The tracer replaces public functions at the module attribute where their
caller looks them up (``trainer.total_loss``, ``losses.knn_euclidean``,
``numerics.eval_primitive``, ...) with a wrapper that records one span per
call: (name, start ns, end ns, parent span, step id).  The wrapper only
calls through, so a traced run computes the same bits as an untraced one;
the benchmark checks that on every traced run.

A span's self time is its duration minus the durations of its direct
children.  Self times are summed per layer and divided by the number of
steps; ``trainer.step_other_ms`` is what the step spends outside every
top-level span, so the self times plus that remainder add up to the step.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import curvalign.geometry as geometry
import curvalign.losses as losses
import curvalign.numerics as numerics
import curvalign.rkhs as rkhs
import curvalign.trainer as trainer

# (module, attribute, span name); a module appears once per binding its
# callers use, so every call path into a layer is covered exactly once
BINDINGS = (
    (trainer, "augment_view", "data.augment"),
    (trainer, "stream", "data.stream"),
    (trainer, "forward_graph", "model.forward"),
    (trainer, "total_loss", "losses.total"),
    (trainer, "reverse_grad", "numerics.backward"),
    (trainer, "adam_step", "trainer.adam"),
    (losses, "knn_euclidean", "geometry.knn"),
    (losses, "knn_rkhs", "rkhs.knn"),
    (losses, "resolve_spec", "rkhs.gamma"),
    (losses, "curvature_scores_graph", "geometry.curv_graph"),
    (geometry, "knn_euclidean", "geometry.knn"),
    (geometry, "sq_distance_matrix", "geometry.sqdist"),
    (geometry, "knn_from_sq_distances", "geometry.knn_select"),
    (geometry, "curvature_score", "geometry.score"),
    (rkhs, "sq_distance_matrix", "geometry.sqdist"),
    (rkhs, "knn_from_sq_distances", "geometry.knn_select"),
    (rkhs, "resolve_spec", "rkhs.gamma"),
    (rkhs, "median_heuristic_gamma", "rkhs.gamma"),
    (rkhs, "knn_rkhs", "rkhs.knn"),
    (rkhs, "kernel_curvature_score", "rkhs.score"),
    (numerics, "eval_primitive", None),  # named numerics.fwd.<primitive>
)

# per-step self-time metrics and the span names they sum
SELF_MS = {
    "data.augment_ms": ("data.augment", "data.stream"),
    "model.forward_ms": ("model.forward",),
    "numerics.backward_ms": ("numerics.backward",),
    "geometry.knn_ms": ("geometry.knn",),
    "geometry.sqdist_ms": ("geometry.sqdist",),
    "geometry.knn_select_ms": ("geometry.knn_select",),
    "geometry.curv_graph_ms": ("geometry.curv_graph",),
    "geometry.score_ms": ("geometry.score",),
    "rkhs.score_ms": ("rkhs.score",),
    "rkhs.knn_ms": ("rkhs.knn",),
    "rkhs.gamma_ms": ("rkhs.gamma",),
    "losses.self_ms": ("losses.total",),
    "trainer.adam_ms": ("trainer.adam",),
}
for _kind in numerics.PRIMITIVES:
    SELF_MS[f"numerics.fwd.{_kind}_ms"] = (f"numerics.fwd.{_kind}",)

# per-step call counts
CALLS = {
    "data.stream_calls": "data.stream",
    "geometry.score_calls": "geometry.score",
    "rkhs.score_calls": "rkhs.score",
}
for _kind in numerics.PRIMITIVES:
    CALLS[f"numerics.fwd.{_kind}_calls"] = f"numerics.fwd.{_kind}"

MIB = float(1 << 20)


def tape_accounting(graph, output) -> dict:
    """Exact sizes of the tape handed to reverse_grad, computed from outside.

    Adjoint bytes assume one adjoint per node the output depends on (the
    engine allocates exactly that); a node's adjoint is useful when the node
    depends on a parameter leaf, i.e. when it can carry gradient to one.
    """
    nodes = graph.nodes
    distinct = {id(n.value): n.value.nbytes for n in nodes}
    reaches_output = [False] * len(nodes)
    reaches_output[output.idx] = True
    for i in range(output.idx, -1, -1):
        if reaches_output[i]:
            for j in nodes[i].inputs:
                reaches_output[j] = True
    from_param = [False] * len(nodes)
    for i, n in enumerate(nodes):
        from_param[i] = n.param or any(from_param[j] for j in n.inputs)
    adjoint = useful = 0
    for i, n in enumerate(nodes):
        if reaches_output[i]:
            adjoint += n.value.nbytes
            if from_param[i]:
                useful += n.value.nbytes
    return {
        "nodes": len(nodes),
        "tape_bytes": sum(distinct.values()),
        "adjoint_bytes": adjoint,
        "useful_adjoint_bytes": useful,
    }


class Tracer:
    """Records spans while installed; steps are marked by the caller."""

    def __init__(self):
        self.spans: list = []      # (name, start_ns, end_ns, parent, step)
        self.steps: list = []      # (step, start_ns, end_ns)
        self.tapes: list = []      # one tape_accounting dict per backward
        self._stack: list = []
        self._step = 0
        self._step_start = 0
        self._saved: list = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if name is not None else "numerics.fwd." + args[0]
                spans[idx] = (label, start, end, parent, self._step)

        if name == "numerics.backward":
            def traced_backward(graph, output):
                result = traced(graph, output)
                self.tapes.append(tape_accounting(graph, output))
                return result
            return traced_backward
        return traced

    def install(self) -> None:
        for module, attr, name in BINDINGS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def begin_step(self, now_ns: int) -> None:
        self._step_start = now_ns

    def end_step(self, now_ns: int) -> None:
        self.steps.append((self._step, self._step_start, now_ns))
        self._step += 1
        self._step_start = now_ns

    def per_layer(self) -> dict:
        """Per-step layer metrics derived from the recorded spans."""
        n_steps = len(self.steps)
        if n_steps == 0:
            raise ValueError("no traced steps")
        children = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        self_ns: dict = defaultdict(int)
        incl_ns: dict = defaultdict(int)
        calls: Counter = Counter()
        top_ns: dict = defaultdict(int)
        for i, (name, start, end, parent, step) in enumerate(self.spans):
            self_ns[name] += end - start - children[i]
            incl_ns[name] += end - start
            calls[name] += 1
            if parent < 0:
                top_ns[step] += end - start
        step_ns = sum(end - start for _, start, end in self.steps)
        other_ns = sum(end - start - top_ns[step] for step, start, end in self.steps)

        per_step_ms = lambda ns: ns / 1e6 / n_steps
        out = {m: per_step_ms(sum(self_ns[s] for s in names)) for m, names in SELF_MS.items()}
        out["losses.total_ms"] = per_step_ms(incl_ns["losses.total"])
        out["trainer.step_other_ms"] = per_step_ms(other_ns)
        out.update({m: calls[s] / n_steps for m, s in CALLS.items()})

        if self.tapes:
            last = self.tapes[-1]
            if any(t != last for t in self.tapes):
                raise ValueError("tape layout changed between steps")
            out["numerics.tape_nodes"] = last["nodes"]
            out["numerics.tape_mb"] = last["tape_bytes"] / MIB
            out["numerics.adjoint_mb"] = last["adjoint_bytes"] / MIB
            out["numerics.useful_adjoint_share"] = (
                last["useful_adjoint_bytes"] / last["adjoint_bytes"]
            )
            bases = last
        else:
            out.update({"numerics.tape_nodes": 0, "numerics.tape_mb": 0.0,
                        "numerics.adjoint_mb": 0.0, "numerics.useful_adjoint_share": 0.0})
            bases = None
        accounted = sum(out[m] for m in SELF_MS) + out["trainer.step_other_ms"]
        return {
            "metrics": out,
            "steps": n_steps,
            "step_mean_ms": per_step_ms(step_ns),
            "accounted_ms": accounted,
            "tape": bases,
        }

    def write(self, path) -> None:
        """Spans as CSV; parent is the span's row among the span rows (-1
        for a top-level span).  The steps follow as rows named "step"."""
        with open(path, "w", encoding="ascii") as f:
            f.write("name,start_ns,end_ns,parent,step\n")
            for name, start, end, parent, step in self.spans:
                f.write(f"{name},{start},{end},{parent},{step}\n")
            for step, start, end in self.steps:
                f.write(f"step,{start},{end},-1,{step}\n")
