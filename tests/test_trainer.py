import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from curvalign import trainer
from curvalign.data import (
    AugmentationPolicy,
    Dataset,
    augment_view,
    make_blobs,
    make_pattern_images,
    stream,
)
from curvalign.errors import (
    EmptyDatasetError,
    InvariantViolationError,
    NonFiniteError,
    ShapeMismatchError,
)
from curvalign.losses import LossBreakdown, Weights, total_loss
from curvalign.model import (
    Architecture,
    Checkpoint,
    forward_graph,
    init_params,
    param_leaves,
    save_checkpoint,
)
from curvalign.numerics import Graph, reverse_grad
from curvalign.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    export_embeddings,
    init_adam_state,
    linear_probe,
    pretrain,
    top1_accuracy,
)
from oracles import adam_whole_arrays

SMALL_ARCH = Architecture(16, (32, 16), (16, 8))


def _small_config(**overrides):
    base = dict(
        architecture=SMALL_ARCH,
        epochs=2,
        batch_size=64,
        k=5,
        seed=1,
        augmentation=AugmentationPolicy(0.05, 0.1, 0),
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_train_config_invariants():
    with pytest.raises(ValueError):
        _small_config(epochs=0)
    with pytest.raises(ValueError):
        _small_config(batch_size=6, k=5)  # needs b > k+1
    with pytest.raises(ValueError):
        _small_config(learning_rate=0.0)
    with pytest.raises(ValueError):
        _small_config(metric="cosine")


@pytest.mark.parametrize("overrides", [dict(k=1), dict(k=0), dict(eps=-1e-5), dict(rbf_gamma=-1.0)])
def test_train_config_owns_k_eps_and_gamma_rules(overrides):
    with pytest.raises(InvariantViolationError) as info:
        _small_config(**overrides)
    assert isinstance(info.value, ValueError)
    assert next(iter(overrides)) in str(info.value)


def test_adam_first_step_closed_form():
    params = {"enc0": (np.zeros((1, 1)), np.zeros(1))}
    grads = {"enc0": (np.ones((1, 1)), np.zeros(1))}
    state = init_adam_state(params)
    new_params, new_state = adam_step(params, grads, state, lr=1e-3, weight_decay=0.0)
    # m_hat = v_hat = 1 exactly on the first step
    expected = -1e-3 / (1.0 + 1e-8)
    assert new_params["enc0"][0][0, 0] == expected
    assert expected == pytest.approx(-0.0009999999900000001, abs=1e-18)
    assert new_state.t == 1
    assert params["enc0"][0][0, 0] == 0.0  # inputs untouched


def test_adam_zero_gradient_fixed_point():
    rng = np.random.default_rng(0)
    params = {"enc0": (rng.normal(size=(3, 2)), rng.normal(size=2))}
    grads = {"enc0": (np.zeros((3, 2)), np.zeros(2))}
    state = init_adam_state(params)
    new_params, _ = adam_step(params, grads, state, lr=1e-3, weight_decay=0.0)
    assert np.array_equal(new_params["enc0"][0], params["enc0"][0])
    assert np.array_equal(new_params["enc0"][1], params["enc0"][1])


def test_adam_deterministic_and_weight_decay():
    rng = np.random.default_rng(1)
    params = {"enc0": (rng.normal(size=(2, 2)), rng.normal(size=2))}
    grads = {"enc0": (rng.normal(size=(2, 2)), rng.normal(size=2))}
    state = init_adam_state(params)
    a, sa = adam_step(params, grads, state, lr=1e-2, weight_decay=0.1)
    b, sb = adam_step(params, grads, state, lr=1e-2, weight_decay=0.1)
    assert np.array_equal(a["enc0"][0], b["enc0"][0])
    assert sa.t == sb.t == 1

    # decay enters the gradient: g' = g + wd * theta
    g_eff = grads["enc0"][0] + 0.1 * params["enc0"][0]
    m_hat = g_eff  # first step bias correction
    v_hat = g_eff * g_eff
    expected = params["enc0"][0] - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(a["enc0"][0], expected, atol=1e-15)

    with pytest.raises(ShapeMismatchError):
        adam_step(params, {"enc0": (np.zeros((3, 3)), np.zeros(2))}, state, 1e-3, 0.0)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_chunked_adam_equals_the_whole_array_expressions_bit_for_bit(weight_decay):
    chunk = trainer._ADAM_CHUNK
    rng = np.random.default_rng(4)
    params = {
        "small": (rng.normal(size=(3, 5)), rng.normal(size=7)),    # under one chunk
        "one": (rng.normal(size=(256, chunk // 256)), np.zeros(1)),  # exactly one chunk
        "enc0": (rng.normal(size=(784, 256)), rng.normal(size=256)),  # 3 chunks + 4096
    }
    assert 784 * 256 == 3 * chunk + 4096
    state = init_adam_state(params)
    flat = lambda tree: {f"{name}.{i}": a for name, pair in tree.items() for i, a in enumerate(pair)}
    want, m, v = flat(params), flat(state.m), flat(state.v)
    for t in range(1, 6):
        grads = {name: tuple(rng.normal(size=a.shape) for a in pair) for name, pair in params.items()}
        params, state = adam_step(params, grads, state, 1e-3, weight_decay)
        want, m, v = adam_whole_arrays(want, flat(grads), m, v, t, 1e-3, weight_decay)
        for got, expected in ((params, want), (state.m, m), (state.v, v)):
            assert all(np.array_equal(a, expected[key]) for key, a in flat(got).items())
    assert state.t == 5


def test_adam_step_holds_its_outputs_and_two_chunk_buffers_only():
    arch = Architecture(784, (256, 128), (128, 32))  # the desk architecture
    params = init_params(arch, 0)
    grads = {name: (np.full_like(w, 0.1), np.full_like(b, 0.1)) for name, (w, b) in params.items()}
    state = adam_step(params, grads, init_adam_state(params), 1e-3, 1e-4)[1]
    outputs = 3 * sum(w.nbytes + b.nbytes for w, b in params.values())
    tracemalloc.start()
    try:
        adam_step(params, grads, state, 1e-3, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= outputs + 2 * trainer._ADAM_CHUNK * 8 + (1 << 20)


def test_top1_accuracy_examples():
    labels = np.array([0, 1, 2])
    onehot = np.eye(3)
    assert top1_accuracy(onehot, labels) == 1.0
    assert top1_accuracy(np.zeros((4, 3)), np.zeros(4, dtype=int)) == 1.0  # tie -> class 0
    logits = np.array([[1.0, 0], [1.0, 0], [1.0, 0], [0, 1.0]])
    assert top1_accuracy(logits, np.array([0, 0, 0, 0])) == 0.75
    with pytest.raises(ShapeMismatchError):
        top1_accuracy(np.zeros((3, 2)), np.zeros(4, dtype=int))


def test_pretrain_loss_decreases_on_blobs():
    ds = make_blobs(512, 4, 16, 0.05, seed=3)
    cfg = _small_config(epochs=10, seed=3)
    ckpt, history = pretrain(cfg, ds)
    totals = [b.total for b in history.breakdowns()]
    assert len(totals) == 10
    assert totals[-1] < totals[0]
    assert all(np.isfinite(b.as_tuple()).all() for b in history.breakdowns())
    assert ckpt.epochs == 10 and ckpt.seed == 3
    assert len(ckpt.history) == 10


def test_pretrain_bit_deterministic(tmp_path):
    ds = make_blobs(256, 4, 16, 0.05, seed=4)
    cfg = _small_config(epochs=2, seed=4)
    ckpt1, hist1 = pretrain(cfg, ds)
    ckpt2, hist2 = pretrain(cfg, ds)
    for (b1, _), (b2, _) in zip(hist1.entries, hist2.entries):
        assert b1.as_tuple() == b2.as_tuple()
    for name in ckpt1.params:
        assert np.array_equal(ckpt1.params[name][0], ckpt2.params[name][0])
        assert np.array_equal(ckpt1.params[name][1], ckpt2.params[name][1])


def test_linear_metric_trains_bit_identically_to_euclidean():
    # the linear kernel's kNN is the Euclidean one and its scores are cosines
    ds = make_blobs(128, 4, 16, 0.05, seed=6)
    runs = [pretrain(_small_config(batch_size=32, k=4, seed=6, metric=m), ds)
            for m in ("euclidean", "linear")]
    (ckpt1, hist1), (ckpt2, hist2) = runs
    assert [b.as_tuple() for b in hist1.breakdowns()] == [b.as_tuple() for b in hist2.breakdowns()]
    for name in ckpt1.params:
        assert np.array_equal(ckpt1.params[name][0], ckpt2.params[name][0])
        assert np.array_equal(ckpt1.params[name][1], ckpt2.params[name][1])


def test_alpha_zero_matches_curvature_free_pipeline():
    ds = make_blobs(256, 4, 16, 0.05, seed=5)
    steps_with, steps_without = [], []
    pretrain(
        _small_config(epochs=2, seed=5, weights=Weights(1.0, 1.0, 0.0)),
        ds,
        on_step=lambda e, b, bd: steps_with.append(bd),
    )
    pretrain(
        _small_config(epochs=2, seed=5, weights=Weights(1.0, 1.0, 0.0), track_curvature=False),
        ds,
        on_step=lambda e, b, bd: steps_without.append(bd),
    )
    assert len(steps_with) == len(steps_without) > 0
    for with_curv, without in zip(steps_with, steps_without):
        assert abs(with_curv.emb_diag - without.emb_diag) <= 1e-12
        assert abs(with_curv.emb_offdiag - without.emb_offdiag) <= 1e-12
        assert with_curv.curv_diag > 0.0 and without.curv_diag == 0.0


def test_pretrain_dimension_mismatch():
    ds = make_blobs(128, 4, 8, 0.05, seed=0)
    with pytest.raises(ShapeMismatchError):
        pretrain(_small_config(), ds)


def test_nonfinite_abort_reports_location():
    ds = make_blobs(256, 4, 16, 0.05, seed=6)
    cfg = _small_config(epochs=1, seed=6, learning_rate=1e150)
    with pytest.raises(NonFiniteError) as err:
        pretrain(cfg, ds)
    assert "epoch 0" in str(err.value)


def test_non_finite_parameter_is_reported_with_its_step(monkeypatch):
    def nan_weight(params, grads, state, lr, weight_decay):
        params, state = adam_step(params, grads, state, lr, weight_decay)
        params["enc0"][0][0, 0] = np.nan  # adam_step returns new arrays
        return params, state

    monkeypatch.setattr(trainer, "adam_step", nan_weight)
    ds = make_blobs(128, 4, 16, 0.05, seed=6)
    with pytest.raises(NonFiniteError, match=r"^epoch 0, batch 1: non-finite value produced by leaf"):
        pretrain(_small_config(epochs=1), ds)


def test_non_finite_parameter_on_a_worker_is_named_by_the_scan_and_no_thread_survives(monkeypatch):
    # view 1's forward runs on the worker before view 0's lane scans the
    # NaN parameter; the scan's error is raised, and lane 1 is not replayed
    monkeypatch.setattr(trainer, "_LANE_MACS", 0)

    def nan_weight(params, grads, state, lr, weight_decay):
        params, state = adam_step(params, grads, state, lr, weight_decay)
        params["enc0"][0][0, 0] = np.nan
        return params, state

    monkeypatch.setattr(trainer, "adam_step", nan_weight)
    ds = make_blobs(128, 4, 16, 0.05, seed=6)
    before = threading.active_count()
    with pytest.raises(NonFiniteError) as info:
        pretrain(_small_config(epochs=1), ds)
    assert str(info.value) == "epoch 0, batch 1: non-finite value produced by leaf"
    assert threading.active_count() == before


def test_constant_embedding_column_at_zero_eps_names_standardize(monkeypatch):
    def constant_column(arch, seed):  # a zero last-layer column: z[:, 0] == 0
        params = init_params(arch, seed)
        w, b = params["proj1"]
        params["proj1"] = (np.where(np.arange(w.shape[1]) == 0, 0.0, w), b)
        return params

    monkeypatch.setattr(trainer, "init_params", constant_column)
    ds = make_blobs(128, 4, 16, 0.05, seed=6)
    with pytest.raises(NonFiniteError, match=r"^epoch 0, batch 0: .*primitive 'standardize'"):
        pretrain(_small_config(epochs=1, eps=0.0), ds)


def _record_tapes(monkeypatch):
    """Record each step's tapes as trainer walks them: ("lane", ops) for a
    lane's ``seeded_grad`` and ("joint", ops) for ``reverse_grad``, in the
    order the walks start."""
    tapes = []
    reverse_grad, seeded_grad = trainer.reverse_grad, trainer.seeded_grad

    def recording(graph, output):
        tapes.append(("joint", [node.op for node in graph.nodes]))
        return reverse_grad(graph, output)

    def recording_lane(graph, seeds):
        tapes.append(("lane", [node.op for node in graph.nodes]))
        return seeded_grad(graph, seeds)

    monkeypatch.setattr(trainer, "reverse_grad", recording)
    monkeypatch.setattr(trainer, "seeded_grad", recording_lane)
    return tapes


@pytest.mark.parametrize("metric", ["euclidean", "rbf"])
def test_desk_step_tape_has_33_nodes(monkeypatch, metric):
    # the single tape's 33 nodes, split: each lane holds the 8 params, its
    # view and 4 affine + 3 relu; the joint tape holds z, z' and the closed-form
    # loss head: a tape regression fails here, not only when traced
    tapes = _record_tapes(monkeypatch)
    desk = Architecture(784, (256, 128), (128, 32))
    config = _small_config(architecture=desk, epochs=1, batch_size=16, k=3, metric=metric)
    pretrain(config, make_blobs(16, 2, 784, 0.1, seed=1))
    assert [kind for kind, _ in tapes] == ["joint", "lane", "lane"]
    joint, lanes = tapes[0][1], [ops for _, ops in tapes[1:]]
    for ops in lanes:
        assert ops == ["leaf"] * 9 + ["affine", "relu"] * 3 + ["affine"]
    assert joint == ["leaf", "leaf", "standardize", "standardize", "barlow",
                     "curvature", "standardize", "curvature", "standardize", "score_penalty",
                     "add"]
    assert len(joint) + sum(map(len, lanes)) - 8 - 2 == 33


def _single_graph_step(params, config, views):
    """The step on one tape: both views' MLPs and the loss on one graph and
    one ``reverse_grad``, the composition the lanes split; their reference."""
    graph = Graph()
    leaves = param_leaves(graph, params)
    z, zp = (forward_graph(leaves, config.architecture, graph.leaf(x))[1] for x in views)
    breakdown, total = total_loss(z, zp, config.k, metric=config.metric_spec(),
                                  weights=config.weights, eps=config.eps,
                                  include_curvature=config.track_curvature)
    by_id = reverse_grad(graph, total)
    return breakdown, {name: (by_id[w.idx], by_id[b.idx]) for name, (w, b) in leaves.items()}


def _lane_cases():
    images = make_pattern_images(128, 10, 28, seed=19)
    desk = TrainConfig(
        architecture=Architecture(784, (256, 128), (128, 32)), batch_size=128, k=10, seed=19,
        augmentation=AugmentationPolicy(0.1, 0.1, 2, image_shape=(28, 28)),
    )
    blobs = make_blobs(256, 8, 32, 0.08, seed=20)
    rbf = TrainConfig(
        architecture=Architecture(32, (64, 64), (64, 32)), batch_size=256, k=20, seed=20,
        metric="rbf", augmentation=AugmentationPolicy(0.05, 0.1, 0),
    )
    return [(desk, images), (rbf, blobs)]


@pytest.mark.parametrize("on_worker", [True, False], ids=["worker", "here"])
@pytest.mark.parametrize("case", [0, 1], ids=["desk-euclidean", "lowdim-rbf"])
def test_lane_gradients_equal_the_single_graph_gradients(case, on_worker):
    config, dataset = _lane_cases()[case]
    views = tuple(augment_view(dataset.features, config.augmentation,
                               stream(config.seed, "augment", 0, 0, view)) for view in (0, 1))
    params = init_params(config.architecture, config.seed)
    want_breakdown, want = _single_graph_step(params, config, views)
    with ThreadPoolExecutor(max_workers=1) as pool:
        run_lane = pool.submit if on_worker else trainer._run_here
        breakdown, grads = trainer._lane_step(run_lane, params, config, views,
                                              lambda view: None, "epoch 0, batch 0")
    assert breakdown.as_tuple() == want_breakdown.as_tuple()
    assert list(grads) == list(want)
    for name in want:
        assert np.any(want[name][0] != 0.0)
        for got, ref in zip(grads[name], want[name]):
            assert np.array_equal(got, ref)


def test_probe_constant_encoder_hits_majority_rate():
    arch = Architecture(4, (3,), (3, 2))
    params = {name: (np.zeros((i, o)), np.zeros(o)) for name, i, o, _ in arch.layers()}
    ckpt = Checkpoint(arch, params, seed=0, epochs=0)
    rng = np.random.default_rng(7)
    train = Dataset(rng.uniform(0, 1, (40, 4)), np.array([0] * 30 + [1] * 10), "t", 2)
    test = Dataset(rng.uniform(0, 1, (20, 4)), np.array([0] * 12 + [1] * 8), "t", 2)
    acc = linear_probe(ckpt, train, test, probe_epochs=20, seed=0)
    assert acc == 12 / 20  # constant features -> predicts the majority class


def test_probe_separable_blobs_perfect():
    ds = make_blobs(320, 4, 16, 0.02, seed=8)
    train = Dataset(ds.features[:256], ds.labels[:256], "blobs", 4)
    test = Dataset(ds.features[256:], ds.labels[256:], "blobs", 4)
    arch = Architecture(16, (32, 16), (16, 4))
    cfg = TrainConfig(
        architecture=arch, epochs=10, batch_size=64, k=5, seed=8, weight_decay=0.0,
        augmentation=AugmentationPolicy(0.01, 0.0, 0),
    )
    ckpt, _ = pretrain(cfg, train)
    # trained features are small in scale, so give the probe room to converge
    assert linear_probe(ckpt, train, test, probe_epochs=200, seed=8) == 1.0


def test_probe_deterministic_and_encoder_frozen():
    ds = make_blobs(200, 4, 16, 0.02, seed=9)
    arch = SMALL_ARCH
    ckpt = Checkpoint(arch, init_params(arch, 9), seed=9, epochs=0)
    before = {n: (w.copy(), b.copy()) for n, (w, b) in ckpt.params.items()}
    a = linear_probe(ckpt, ds, ds, probe_epochs=5, seed=2)
    b = linear_probe(ckpt, ds, ds, probe_epochs=5, seed=2)
    assert a == b
    for name in before:
        assert np.array_equal(ckpt.params[name][0], before[name][0])
        assert np.array_equal(ckpt.params[name][1], before[name][1])
    with pytest.raises(EmptyDatasetError):
        empty = Dataset(np.zeros((0, 16)), np.zeros(0, dtype=int), "e", 2)
        linear_probe(ckpt, empty, ds)
    with pytest.raises(ShapeMismatchError):
        wrong_dim = Dataset(np.zeros((8, 3)), np.zeros(8, dtype=int), "w", 2)
        linear_probe(ckpt, wrong_dim, wrong_dim)


def test_history_csv_format(tmp_path):
    ds = make_blobs(128, 4, 16, 0.05, seed=10)
    cfg = _small_config(epochs=2, seed=10, batch_size=32)
    _, history = pretrain(cfg, ds)
    path = tmp_path / "history.csv"
    history.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,total,emb_diag,emb_offdiag,curv_diag,curv_offdiag,seconds"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "0"
    assert float(row[1]) == history.breakdowns()[0].total


def test_history_and_embedding_csv_bytes(tmp_path):
    history = trainer.History()
    weights = Weights(1.0, 1.0, 1.0)
    history.append(LossBreakdown(np.float64(1.5), 2.0, -0.0, 1e-300, 0.25, weights), 0.125)
    history.append(LossBreakdown(3.0, np.float64(-0.0), 0.1, 0.0, 7.0, weights), np.float64(2.5))
    history.to_csv(tmp_path / "history.csv")
    assert (tmp_path / "history.csv").read_bytes() == (
        b"epoch,total,emb_diag,emb_offdiag,curv_diag,curv_offdiag,seconds\n"
        b"0,1.5,2.0,-0.0,1e-300,0.25,0.125\n"
        b"1,3.0,-0.0,0.1,0.0,7.0,2.5\n"
    )

    arch = Architecture(2, (2,), (2, 2))
    params = {name: (np.eye(2), np.zeros(2)) for name, *_ in arch.layers()}
    data = Dataset(np.array([[0.5, 1e-300], [0.0, 1.0]]), np.array([7, 2], dtype=np.int64), "e", 8)
    export_embeddings(Checkpoint(arch, params, 0, 1), data, tmp_path / "emb.csv")
    assert (tmp_path / "emb.csv").read_bytes() == b"label,h0,h1\n7,0.5,1e-300\n2,0.0,1.0\n"


class _InlineExecutor:
    """Stands in for the prefetch thread: runs each task when it is submitted."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as err:
            future.set_exception(err)
        return future


def _prefetch_cases():
    images = make_pattern_images(256, 4, 8, seed=11, max_shift=2)
    image_cfg = TrainConfig(
        architecture=Architecture(64, (32,), (32, 8)), epochs=2, batch_size=64, k=5, seed=11,
        augmentation=AugmentationPolicy(0.1, 0.1, 2, image_shape=(8, 8)),
    )
    blobs = make_blobs(256, 4, 16, 0.05, seed=12)
    rbf_cfg = _small_config(epochs=2, seed=12, metric="rbf", k=8)
    return [(image_cfg, images), (rbf_cfg, blobs)]


@pytest.mark.parametrize("case", [0, 1], ids=["shifted-images", "rbf-blobs"])
def test_prefetched_views_train_bit_identically_to_inline_views(case, tmp_path, monkeypatch):
    config, dataset = _prefetch_cases()[case]
    runs = []
    for inline in (False, True):
        if inline:
            monkeypatch.setattr(trainer, "ThreadPoolExecutor", _InlineExecutor)
        ckpt, history = pretrain(config, dataset)
        path = tmp_path / f"inline{inline}.ckpt"
        save_checkpoint(ckpt, path)
        runs.append((path.read_bytes(), [b.as_tuple() for b in history.breakdowns()]))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 2


@pytest.mark.parametrize("case", [0, 1], ids=["shifted-images", "rbf-blobs"])
def test_a_worker_and_the_calling_thread_train_bit_identically(case, tmp_path, monkeypatch):
    # both configs are below _LANE_MACS; at 0 every lane and view task runs on a worker
    config, dataset = _prefetch_cases()[case]
    runs = []
    for lane_macs in (trainer._LANE_MACS, 0):
        monkeypatch.setattr(trainer, "_LANE_MACS", lane_macs)
        ckpt, history = pretrain(config, dataset)
        path = tmp_path / f"lane_macs{lane_macs}.ckpt"
        save_checkpoint(ckpt, path)
        runs.append((path.read_bytes(), [b.as_tuple() for b in history.breakdowns()]))
    assert runs[0] == runs[1]


class _InjectedError(Exception):
    pass


def _logged_calls(monkeypatch, events, fail_on_call=None, attr="augment_view"):
    """Wrap trainer.<attr> (``augment_view`` by default) to log (kind,
    (attr, call), thread) events, counting calls per attr.  A call off the
    main thread first sleeps for longer than a step takes, so a task still
    running at ``on_step`` would show in the log."""
    real = getattr(trainer, attr)
    calls = []
    main = threading.get_ident()

    def logged(*args):
        call = len(calls)
        calls.append(call)
        events.append(("start", (attr, call), threading.get_ident()))
        try:
            if threading.get_ident() != main:
                time.sleep(0.02)
            if call == fail_on_call:
                raise _InjectedError(f"call {call}")
            return real(*args)
        finally:
            events.append(("end", (attr, call), threading.get_ident()))

    monkeypatch.setattr(trainer, attr, logged)


def test_prefetch_is_joined_before_every_on_step(monkeypatch):
    monkeypatch.setattr(trainer, "_LANE_MACS", 0)  # view 1's lane on the worker
    events = []
    for attr in ("augment_view", "_lane_forward", "seeded_grad"):
        _logged_calls(monkeypatch, events, attr=attr)
    ds = make_blobs(128, 4, 16, 0.05, seed=13)
    before = threading.active_count()
    pretrain(_small_config(epochs=2, seed=13, batch_size=32), ds,
             on_step=lambda e, b, bd: events.append(("on_step", (e, b), threading.get_ident())))
    assert threading.active_count() == before

    steps = [i for i, ev in enumerate(events) if ev[0] == "on_step"]
    assert [events[i][1] for i in steps] == [(e, b) for e in (0, 1) for b in range(4)]
    starts = {ev[1]: i for i, ev in enumerate(events) if ev[0] == "start"}
    ends = {ev[1]: i for i, ev in enumerate(events) if ev[0] == "end"}
    assert sorted(starts) == sorted(ends)
    for attr, calls in (("augment_view", 16), ("_lane_forward", 16), ("seeded_grad", 16)):
        assert sorted(call for a, call in starts if a == attr) == list(range(calls))
    for at in steps:
        assert all(ends[call] < at for call, started in starts.items() if started < at)
    main = threading.get_ident()
    on_main = [ev[1] for ev in events if ev[0] == "start" and ev[2] == main]
    augments = [call for call in on_main if call[0] == "augment_view"]
    assert len(augments) == 1 and starts[augments[0]] < steps[0]  # view 0 of the first batch
    assert len(on_main) == 1 + 2 * 8  # and view 0's lane, forward and backward, per step
    # the worker's queue per step: view 1's forward, the next batch's view
    # 0, view 1's backward, the next batch's view 1
    lane = ["_lane_forward", "augment_view", "seeded_grad", "augment_view"]
    on_worker = [ev[1][0] for ev in events if ev[0] == "start" and ev[2] != main]
    assert on_worker == ["augment_view"] + lane * 7 + lane[::2]


def test_a_small_mlp_runs_both_lanes_on_the_calling_thread(monkeypatch):
    events, threads = [], []
    for attr in ("augment_view", "_lane_forward", "seeded_grad"):
        _logged_calls(monkeypatch, events, attr=attr)
    before = threading.active_count()
    pretrain(_small_config(epochs=2, seed=13, batch_size=32), make_blobs(128, 4, 16, 0.05, seed=13),
             on_step=lambda *a: threads.append(threading.active_count()))
    main = threading.get_ident()
    assert sum(ev[0] == "start" for ev in events) == 3 * 16  # every view and lane task ran
    assert [ev for ev in events if ev[2] != main] == []  # and none off the calling thread
    assert threads == [before] * 8  # no worker thread was started
    assert 32 * sum(i * o for _, i, o, _ in SMALL_ARCH.layers()) < trainer._LANE_MACS


def test_the_lanes_and_the_gram_split_at_one_threshold():
    from curvalign import numerics

    assert trainer._LANE_MACS == numerics._THREAD_MACS == 1 << 24


def test_augmentation_error_surfaces_with_its_class_and_no_thread_survives(monkeypatch):
    events = []
    _logged_calls(monkeypatch, events, fail_on_call=3)  # batch 1, built while step 0 runs
    ds = make_blobs(128, 4, 16, 0.05, seed=14)
    before = threading.active_count()
    with pytest.raises(_InjectedError):
        pretrain(_small_config(seed=14, batch_size=32), ds)
    assert threading.active_count() == before


def test_interrupt_from_on_step_propagates_and_no_thread_survives():
    ds = make_blobs(128, 4, 16, 0.05, seed=15)
    interrupt = KeyboardInterrupt("stop")

    def on_step(epoch, batch_idx, breakdown):
        if (epoch, batch_idx) == (0, 1):
            raise interrupt

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt) as info:
        pretrain(_small_config(seed=15, batch_size=32), ds, on_step=on_step)
    assert info.value is interrupt
    assert threading.active_count() == before


def test_lane_error_surfaces_with_its_step_and_no_thread_survives(monkeypatch):
    # a relu of step 1 on the worker's lane makes z' row 0 NaN; the joint
    # kNN's row check meets it, and the replay, run here, finds every op finite
    monkeypatch.setattr(trainer, "_LANE_MACS", 0)  # view 1's lane on the worker
    main, steps = threading.get_ident(), []
    calls = _poisoned(monkeypatch, "relu", np.nan,
                      when=lambda: len(steps) == 1 and threading.get_ident() != main)
    ds = make_blobs(128, 4, 16, 0.05, seed=18)
    before = threading.active_count()
    with pytest.raises(NonFiniteError) as info:
        pretrain(_small_config(epochs=1, seed=18, batch_size=32), ds,
                 on_step=lambda *a: steps.append(a))
    assert str(info.value) == "epoch 0, batch 1: point row 0 has a non-finite squared norm"
    assert len(steps) == 1 and len(calls) == (2 + 1) * 2 * 3  # 2 steps and the replay, 2 lanes, 3 relus
    assert threading.active_count() == before


def test_nonfinite_step_leaves_no_thread_behind():
    ds = make_blobs(128, 4, 16, 0.05, seed=17)
    before = threading.active_count()
    with pytest.raises(NonFiniteError):  # raised while the next batch's views are built
        pretrain(_small_config(epochs=1, seed=17, batch_size=32, learning_rate=1e150), ds)
    assert threading.active_count() == before


def test_pretrain_rejects_an_image_shape_that_does_not_fit_the_rows():
    ds = make_blobs(128, 4, 32, 0.05, seed=16)
    policy = AugmentationPolicy(0.05, 0.1, 1, image_shape=(4, 4))  # 16 pixels, 32-d rows
    config = _small_config(architecture=Architecture(32, (32, 16), (16, 8)), seed=16,
                           augmentation=policy)
    before = threading.active_count()
    with pytest.raises(ShapeMismatchError):
        pretrain(config, ds)
    assert threading.active_count() == before


# -- finiteness at the graph's boundary --------------------------------------

def _poisoned(monkeypatch, kind, bad, when=lambda: True):
    """Make primitive ``kind``'s forward put ``bad`` in its first entry
    while ``when()`` holds; returns the list of its calls."""
    from curvalign import numerics

    rule, calls = numerics._FORWARD[kind], []

    def poisoned(*args, **kwargs):
        calls.append(kind)
        result = rule(*args, **kwargs)
        out = result[0] if isinstance(result, tuple) else result
        if when():
            out.flat[0] = bad
        return result

    monkeypatch.setitem(numerics._FORWARD, kind, poisoned)
    return calls


@pytest.mark.parametrize("bad,metric", [(np.nan, "euclidean"), (np.inf, "rbf")])
def test_non_finite_embedding_is_named_by_the_replay(monkeypatch, bad, metric):
    # a relu of step 1 (and of its replay) makes z's row 0 non-finite; the
    # kNN's row check meets it first, and the replay names the relu
    steps = []
    _poisoned(monkeypatch, "relu", bad, when=lambda: len(steps) == 1)
    ds = make_blobs(128, 4, 16, 0.05, seed=6)
    with pytest.raises(NonFiniteError) as info:
        pretrain(_small_config(epochs=1, metric=metric), ds, on_step=lambda *a: steps.append(a))
    assert str(info.value) == "epoch 0, batch 1: non-finite value produced by primitive 'relu'"
    assert "point row 0 " in str(info.value.__cause__)
    assert len(steps) == 1


def test_eager_graphs_raise_at_the_op_itself(monkeypatch):
    from curvalign.geometry import batch_curvature
    from curvalign.losses import total_loss_arrays
    from curvalign.model import encode
    from curvalign.rkhs import KernelSpec

    rng = np.random.default_rng(7)
    x = rng.normal(size=(12, 16))
    for kind, run in (
        ("curvature", lambda: batch_curvature(x, 3)),
        ("curvature", lambda: batch_curvature(x, 3, KernelSpec("rbf"))),
        ("affine", lambda: encode(init_params(SMALL_ARCH, 0), SMALL_ARCH, x)),
        ("standardize", lambda: total_loss_arrays(x, x + 0.1, 3)),
    ):
        with monkeypatch.context() as patch:
            calls = _poisoned(patch, kind, np.nan)
            with pytest.raises(NonFiniteError, match=f"^non-finite value produced by primitive '{kind}'$"):
                run()
        assert calls == [kind]  # the first call raised: no later op, no replay


def test_clean_step_checks_only_the_graph_boundary(monkeypatch):
    from curvalign import numerics

    contexts, tapes = [], []
    require = numerics._require_finite
    reverse_grad, seeded_grad = trainer.reverse_grad, trainer.seeded_grad

    def recording(arr, context):
        contexts.append(context)
        require(arr, context)

    def recording_grad(graph, output):
        tapes.append((graph.nodes, output.idx))
        return reverse_grad(graph, output)

    def recording_lane(graph, seeds):
        tapes.append((graph.nodes, None))
        return seeded_grad(graph, seeds)

    monkeypatch.setattr(numerics, "_require_finite", recording)
    monkeypatch.setattr(trainer, "reverse_grad", recording_grad)
    monkeypatch.setattr(trainer, "seeded_grad", recording_lane)
    config = _small_config(epochs=1, metric="rbf")
    pretrain(config, make_blobs(64, 4, 16, 0.05, seed=6))
    (joint, out), (lane_a, _), (lane_b, _) = tapes  # the lanes' walks start in either order
    for nodes, n_ops in ((joint, 9), (lane_a, 7), (lane_b, 7)):
        ops = [n for n in nodes if n.op != "leaf"]
        assert len(ops) == n_ops and all(n.active for n in ops)  # nothing else is scanned
    params = [i for i, n in enumerate(lane_a) if n.op == "leaf" and n.param]
    assert params == [i for i, n in enumerate(lane_b) if n.op == "leaf" and n.param] == list(range(8))
    assert [i for i, n in enumerate(joint) if n.param] == [0, 1]  # z and z', not scanned
    # every parameter is scanned once for the step, each view once; the
    # joint graph scans its output and the adjoints of z and z'; each
    # parameter's summed gradient is scanned once
    assert contexts == (["leaf"] * (8 + 2) + [f"output node {out}"]
                        + ["gradient of leaf 0", "gradient of leaf 1"]
                        + [f"gradient of leaf {i}" for i in params])
