import dataclasses
import re
import threading
import zlib

import numpy as np
import pytest

from curvalign.errors import (
    NonFiniteError,
    NotScalarOutputError,
    ShapeMismatchError,
)
from curvalign import numerics
from curvalign.numerics import (
    PRIMITIVES,
    Graph,
    add_grads,
    eval_primitive,
    finite_diff_check,
    reverse_grad,
    seeded_grad,
)
from curvalign.rkhs import KernelSpec


def test_eval_primitive_examples():
    out = eval_primitive("matmul", [np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2)])
    assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(eval_primitive("relu", [np.array([-1.0, 0.0, 2.0])]), [0.0, 0.0, 2.0])
    assert np.array_equal(
        eval_primitive("mean_rows", [np.array([[1.0, 3.0], [3.0, 5.0]])]), [2.0, 4.0]
    )


def test_eval_primitive_does_not_mutate_inputs():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0], [4.0]])
    eval_primitive("matmul", [a, b])
    assert np.array_equal(a, [[1.0, 2.0]]) and np.array_equal(b, [[3.0], [4.0]])


def test_eval_primitive_errors():
    with pytest.raises(ShapeMismatchError):
        eval_primitive("matmul", [np.ones((2, 3)), np.ones((2, 3))])
    with pytest.raises(ShapeMismatchError):
        eval_primitive("add", [np.ones(3), np.ones(4)])
    with pytest.raises(NonFiniteError):
        eval_primitive("div", [np.ones(2), np.zeros(2)])
    with pytest.raises(KeyError):
        eval_primitive("convolve", [np.ones(2)])


def test_square_graph_gradient():
    g = Graph()
    w = g.leaf(np.float64(3.0), param=True)
    f = g.apply("square", w)
    assert float(reverse_grad(g, f)[w.idx]) == 6.0
    report = finite_diff_check(g, f, step=1e-5, tol=1e-8)
    assert report.passed
    # quadratic is differenced exactly up to float noise
    assert report.worst() <= 1e-8


def _row_sum(row):
    """The (1, 1) sum of a (1, n) row, as a matmul by a column of ones."""
    return row @ row.graph.leaf(np.ones((row.shape[1], 1)))


def test_relu_subgradient_and_matmul_gradient():
    g = Graph()
    w = g.leaf(np.array([[-1.0, 2.0]]), param=True)
    f = _row_sum(w.relu())
    assert np.array_equal(reverse_grad(g, f)[w.idx], [[0.0, 1.0]])

    g2 = Graph()
    W = g2.leaf(np.array([[0.5], [0.25]]), param=True)
    x = g2.leaf(np.array([[1.0, 2.0]]))
    f2 = x @ W  # (1, 1): one element is a scalar output
    assert np.array_equal(reverse_grad(g2, f2)[W.idx], [[1.0], [2.0]])


def test_relu_derivative_zero_at_exactly_zero():
    g = Graph()
    w = g.leaf(np.array([[0.0, 1.0]]), param=True)
    f = _row_sum(w.relu())
    assert np.array_equal(reverse_grad(g, f)[w.idx], [[0.0, 1.0]])


def test_constant_function_passes_check():
    g = Graph()
    w = g.leaf(np.array([1.0, 2.0]), param=True)
    c = g.leaf(np.float64(5.0))
    out = c + c
    grads = reverse_grad(g, out)
    assert np.array_equal(grads[w.idx], [0.0, 0.0])  # unreachable leaf -> zeros
    assert finite_diff_check(g, out).passed


def test_not_scalar_output_rejected():
    g = Graph()
    w = g.leaf(np.ones((2, 2)), param=True)
    with pytest.raises(NotScalarOutputError):
        reverse_grad(g, w.relu())


def test_reverse_grad_linearity():
    rng = np.random.default_rng(11)
    x0 = rng.uniform(-2, 2, size=(4, 3))
    u, v = rng.uniform(0.5, 1.5, size=(3, 1)), rng.uniform(0.5, 1.5, size=(3, 1))

    def build(parts):
        g = Graph()
        x = g.leaf(x0, param=True)
        terms = []
        if "barlow" in parts:
            terms.append(g.apply("barlow", x.relu(), x.standardize(0.1), lambda_emb=0.7))
        if "score_penalty" in parts:
            terms.append(g.apply("score_penalty", x @ g.leaf(u), x.relu() @ g.leaf(v),
                                 lambda_curv=1.3, alpha_curv=0.8))
        out = terms[0]
        for t in terms[1:]:
            out = out + t
        return reverse_grad(g, out)[x.idx]

    combined = build(("barlow", "score_penalty"))
    separate = build(("barlow",)) + build(("score_penalty",))
    assert np.max(np.abs(combined - separate)) <= 1e-12


def test_seeded_walks_of_two_lanes_add_up_to_the_one_graph_gradient():
    # loss = barlow(relu(x0 W), relu(x1 W)): one graph, or a lane per input
    # whose outputs are the joint graph's parameter leaves
    rng = np.random.default_rng(4)
    w, xs = rng.normal(size=(3, 2)), [rng.normal(size=(5, 3)) for _ in range(2)]

    def loss(ys):
        return ys[0].graph.apply("barlow", *ys, lambda_emb=0.7)

    g = Graph()
    wv = g.leaf(w, param=True)
    want = reverse_grad(g, loss([(g.leaf(x) @ wv).relu() for x in xs]))[wv.idx]

    lanes = [Graph() for _ in xs]
    ws = [lane.leaf(w, param=True) for lane in lanes]
    ys = [(lane.leaf(x) @ lw).relu() for lane, lw, x in zip(lanes, ws, xs)]
    joint = Graph()
    yl = [joint.leaf(y.value, param=True, check=False) for y in ys]
    adjoints = reverse_grad(joint, loss(yl))
    shares = [seeded_grad(lane, {y.idx: adjoints[leaf.idx]}) for lane, y, leaf in zip(lanes, ys, yl)]
    assert list(shares[0]) == [ws[0].idx]
    got = add_grads(*shares)
    assert np.array_equal(got[ws[0].idx], want)
    assert shares == [{}, {}]  # both shares were handed over

    with pytest.raises(ShapeMismatchError):
        seeded_grad(lanes[0], {ys[0].idx: np.ones((2, 5))})


def test_add_grads_checks_every_sum():
    big = np.array([1e308])
    assert add_grads({3: np.array([1.0])}, {3: np.array([2.0])})[3][0] == 3.0
    with np.errstate(over="ignore"), pytest.raises(
            NonFiniteError, match="^non-finite value produced by gradient of leaf 3$"):
        add_grads({3: big}, {3: big})  # finite shares whose sum overflows


def test_rerun_is_bit_identical():
    rng = np.random.default_rng(5)
    g = Graph()
    x = g.leaf(rng.uniform(-1, 1, size=(6, 4)), param=True)
    w = g.leaf(rng.uniform(-1, 1, size=(4, 4)), param=True)
    b = g.leaf(rng.uniform(-1, 1, size=4), param=True)
    h = (x.affine(w, b).relu() + x).standardize(1e-5)
    nb = _neighbor_table(rng, 6, 3)
    ct, ctp = (g.apply("curvature", v, neighbors=nb, score="cosine").standardize(1e-5)
               for v in (h, x))
    out = (g.apply("barlow", h, x, lambda_emb=0.5)
           + g.apply("score_penalty", ct, ctp, lambda_curv=1.0, alpha_curv=1.0))

    cached = [n.value for n in g.nodes]
    recomputed = g.forward_values()
    for a, b in zip(cached, recomputed):
        assert np.array_equal(a, b)

    g1 = reverse_grad(g, out)
    g2 = reverse_grad(g, out)
    for key in g1:
        assert np.array_equal(g1[key], g2[key])


def test_apply_rejects_a_var_of_another_graph():
    # y's index names x2 on g, which an unchecked apply would read instead
    g, other = Graph(), Graph()
    x, x2, bias = g.leaf(np.ones((2, 2))), g.leaf(np.full((2, 2), 2.0)), g.leaf(np.ones(2))
    other.leaf(np.zeros((2, 2)))
    y = other.leaf(np.full((2, 2), 3.0))
    assert y.idx == x2.idx
    for build in (lambda: g.apply("relu", y), lambda: g.apply("add", x, y),
                  lambda: x + y, lambda: x @ y, lambda: x.affine(y, bias)):
        with pytest.raises(ValueError, match="^cannot combine Vars from different graphs$"):
            build()
    assert len(g.nodes) == 3


def test_no_var_operator_appends_a_benchmark_only_primitive():
    # the sugar stays the objective's: every other primitive goes through
    # Graph.apply, and there is no scalar coercion
    import inspect

    g = Graph()
    x = g.leaf(np.arange(1.0, 10.0).reshape(3, 3))
    calls = {
        "value": lambda: x.value, "shape": lambda: x.shape,
        "__add__": lambda: x + x, "__matmul__": lambda: x @ x, "T": lambda: x.T,
        "relu": lambda: x.relu(), "standardize": lambda: x.standardize(0.1),
        "affine": lambda: x.affine(x, g.leaf(np.ones(3))),
    }
    surface = {name for name, attr in vars(numerics.Var).items()
               if inspect.isfunction(attr) or isinstance(attr, property)} - {"__init__"}
    assert surface == calls.keys()
    for name, call in calls.items():
        before = len(g.nodes)
        call()
        appended = {node.op for node in g.nodes[before:]}
        assert not appended & set(BENCHMARK_ONLY), name
    before = len(g.nodes)
    with pytest.raises(AttributeError):  # a constant is not made a leaf
        x + 1.0
    assert len(g.nodes) == before


# -- per-primitive gradient property ----------------------------------------
# central differences at h=1e-5 within rel 1e-6, inputs in [-2, 2] and away
# from relu kinks / division by zero / sqrt(0)

def _rand(rng, shape, low=-2.0, high=2.0):
    return rng.uniform(low, high, size=shape)


def _weighted_sum(var, weights):
    """sum(var o weights), the weights a constant leaf."""
    g = var.graph
    return g.apply("sum", g.apply("mul", var, g.leaf(weights)))


def _scalarize(g, rng, var):
    return _weighted_sum(var, rng.uniform(0.5, 1.5, size=var.shape))


def _neighbor_table(rng, b, k):
    """Random neighbor rows: repeats within a row, and row 0 is every other
    row's first neighbor, so a center is also other rows' neighbor."""
    table = np.array([rng.choice(np.delete(np.arange(b), i), size=k) for i in range(b)])
    table[:, 2] = table[:, 1]
    table[1:, 0] = 0
    return table


CASES = [
    ("matmul", lambda g, rng: g.apply(
        "matmul",
        g.leaf(_rand(rng, (3, 4)), param=True),
        g.leaf(_rand(rng, (4, 2)), param=True),
    )),
    ("add", lambda g, rng: g.apply(
        "add", g.leaf(_rand(rng, (3, 3)), param=True), g.leaf(_rand(rng, (3, 3)), param=True)
    )),
    ("sub", lambda g, rng: g.apply(
        "sub", g.leaf(_rand(rng, (3, 3)), param=True), g.leaf(_rand(rng, (3, 3)), param=True)
    )),
    ("mul", lambda g, rng: g.apply(
        "mul", g.leaf(_rand(rng, (4, 2)), param=True), g.leaf(_rand(rng, (4, 2)), param=True)
    )),
    ("div", lambda g, rng: g.apply(
        "div",
        g.leaf(_rand(rng, (4, 2)), param=True),
        g.leaf(_rand(rng, (4, 2), 0.5, 2.0) * rng.choice([-1.0, 1.0], size=(4, 2)), param=True),
    )),
    ("smul", lambda g, rng: g.apply("smul", g.leaf(_rand(rng, (3, 3)), param=True), c=-1.7)),
    ("relu", lambda g, rng: g.apply(
        "relu",
        g.leaf(np.where(np.abs(x := _rand(rng, (4, 3))) < 1e-3, 0.5, x), param=True),
    )),
    ("affine", lambda g, rng: g.leaf(_rand(rng, (4, 3)), param=True).affine(
        g.leaf(_rand(rng, (3, 2)), param=True), g.leaf(_rand(rng, (2,)), param=True),
    )),
    ("sum", lambda g, rng: g.apply("sum", g.leaf(_rand(rng, (3, 4)), param=True))),
    ("mean_rows", lambda g, rng: g.apply("mean_rows", g.leaf(_rand(rng, (5, 3)), param=True))),
    ("std_rows", lambda g, rng: g.apply("std_rows", g.leaf(_rand(rng, (6, 3)), param=True))),
    # an eps of the order of the std, so one misplaced eps term would show
    ("standardize", lambda g, rng: g.leaf(_rand(rng, (6, 3)), param=True).standardize(0.3)),
    ("sqrt", lambda g, rng: g.apply("sqrt", g.leaf(_rand(rng, (3, 3), 0.25, 2.0), param=True))),
    ("square", lambda g, rng: g.apply("square", g.leaf(_rand(rng, (3, 3)), param=True))),
    ("exp", lambda g, rng: g.apply("exp", g.leaf(_rand(rng, (3, 3)), param=True))),
    ("transpose", lambda g, rng: g.leaf(_rand(rng, (3, 5)), param=True).T),
    ("gather_rows", lambda g, rng: g.apply("gather_rows", g.leaf(_rand(rng, (6, 3)), param=True),
                                           rows=rng.integers(0, 6, size=8))),
    ("broadcast_row", lambda g, rng: g.apply("broadcast_row", g.leaf(_rand(rng, (4,)), param=True),
                                             count=5)),
    ("curvature:cosine", lambda g, rng: g.apply(
        "curvature", g.leaf(_rand(rng, (7, 3), -1.0, 1.0), param=True),
        neighbors=_neighbor_table(rng, 7, 4), score="cosine",
    )),
    ("curvature:rbf", lambda g, rng: g.apply(
        "curvature", g.leaf(_rand(rng, (7, 3), -1.0, 1.0), param=True),
        neighbors=_neighbor_table(rng, 7, 4), score="rbf", gamma=0.7,
    )),
    # k = b - 1: every row's neighbors are all other rows, so each pair's
    # weight in the adjoint collects from the b - 2 rows that hold it
    ("curvature:rbf:k=b-1", lambda g, rng: g.apply(
        "curvature", g.leaf(_rand(rng, (7, 3), -1.0, 1.0), param=True),
        neighbors=np.array([np.delete(np.arange(7), i) for i in range(7)]),
        score="rbf", gamma=0.7,
    )),
    ("barlow", lambda g, rng: g.apply(
        "barlow", g.leaf(_rand(rng, (6, 3)), param=True), g.leaf(_rand(rng, (6, 3)), param=True),
        lambda_emb=0.7,
    )),
    ("score_penalty", lambda g, rng: g.apply(
        "score_penalty", g.leaf(_rand(rng, (7, 1)), param=True),
        g.leaf(_rand(rng, (7, 1)), param=True), lambda_curv=1.3, alpha_curv=0.8,
    )),
]

# The curvature scores are transcendental: at h=1e-5 central differences of
# them carry ~1e-10 absolute error, so a coordinate whose gradient happens to
# be ~1e-5 misses 1e-6 relative although the adjoint is exact.  They use the
# 1e-4 every other curvature gradient check in the suite uses (worst seen
# over 6000 draws each: 1.2e-5).
TOLERANCE = {"curvature:cosine": 1e-4, "curvature:rbf": 1e-4, "curvature:rbf:k=b-1": 1e-4}


def test_every_primitive_has_a_gradient_case():
    assert {name.split(":")[0] for name, _ in CASES} == set(PRIMITIVES)


# the primitives no package code evaluates: they stay registered only because
# the benchmark's per-layer metric list names every primitive
BENCHMARK_ONLY = ("broadcast_row", "div", "exp", "gather_rows", "mean_rows", "mul", "smul",
                  "sqrt", "square", "std_rows", "sub", "sum")


def test_benchmark_only_primitives_match_the_numerics_docstring():
    listed = re.search(r"Nothing in the package calls (.*?); they stay registered",
                       " ".join(numerics.__doc__.split())).group(1)
    assert tuple(sorted(re.findall(r"``(\w+)``", listed))) == BENCHMARK_ONLY


def test_package_code_evaluates_every_primitive_but_the_benchmark_only_ones(monkeypatch):
    # every forward and backward rule the package runs in training (on the
    # worker path and inline), eager scoring, the eager passes and the probe;
    # matmul and transpose are left for the tests that build M = c~ c~'^T / b
    from curvalign import trainer
    from curvalign.data import AugmentationPolicy, make_blobs
    from curvalign.geometry import batch_curvature
    from curvalign.model import Architecture, encode, project
    from curvalign.trainer import TrainConfig, linear_probe, pretrain

    used = {"forward": set(), "backward": set(), "threads": set()}

    def spy(direction, kind, rule):
        def wrapped(*args, **kwargs):
            used[direction].add(kind)
            used["threads"].add(threading.get_ident())
            return rule(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(numerics, "_FORWARD", {
        kind: spy("forward", kind, rule) for kind, rule in numerics._FORWARD.items()})
    monkeypatch.setattr(numerics, "_BACKWARD", {
        kind: tuple(spy("backward", kind, rule) for rule in rules)
        for kind, rules in numerics._BACKWARD.items()})
    data = make_blobs(64, 2, 8, 0.1, seed=5)
    arch = Architecture(8, (16,), (16, 4))
    config = TrainConfig(architecture=arch, epochs=1, batch_size=32, k=5, metric="rbf", seed=5,
                         augmentation=AugmentationPolicy(0.05, 0.1, 0))
    pretrain(config, data)
    assert used["threads"] == {threading.get_ident()}
    with monkeypatch.context() as patch:
        patch.setattr(trainer, "_LANE_MACS", 0)
        ckpt, _ = pretrain(dataclasses.replace(config, metric="euclidean"), data)
    assert len(used["threads"]) == 2  # view 1's lane ran on the worker
    for metric in ("euclidean", KernelSpec("rbf")):
        batch_curvature(data.features, 5, metric)
    project(ckpt.params, arch, encode(ckpt.params, arch, data.features))
    linear_probe(ckpt, data, data, probe_epochs=1)

    expected = set(PRIMITIVES) - set(BENCHMARK_ONLY) - {"matmul", "transpose"}
    assert used["forward"] == expected
    assert used["backward"] == expected


def test_every_forward_rule_has_one_backward_rule_per_input():
    import inspect

    assert numerics._FORWARD.keys() == numerics._BACKWARD.keys()
    for kind, forward in numerics._FORWARD.items():
        inputs = [p for p in inspect.signature(forward).parameters.values()
                  if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD]
        assert len(numerics._BACKWARD[kind]) == len(inputs), kind


@pytest.mark.parametrize("name,builder", CASES, ids=[c[0] for c in CASES])
def test_primitive_backward_matches_central_differences(name, builder):
    for trial in range(7):
        rng = np.random.default_rng([zlib.crc32(name.encode()), trial])
        g = Graph()
        var = builder(g, rng)
        out = var if var.shape == () else _scalarize(g, rng, var)
        report = finite_diff_check(g, out, step=1e-5, tol=TOLERANCE.get(name, 1e-6))
        assert report.passed, f"{name} trial {trial}: {report.per_leaf}"


# -- fused affine and standardize against their unfused compositions --------

def _unfused_standardize(z, eps):
    """(z - mean) / (std + eps) by the sub, std_rows, add and div rules, the
    nodes appended in the composition's order."""
    g, b = z.graph, z.shape[0]
    centered = g.apply("sub", z, g.apply("broadcast_row", g.apply("mean_rows", z), count=b))
    scale = g.apply("add", g.apply("std_rows", z), g.leaf(np.full(z.shape[1], eps)))
    return g.apply("div", centered, g.apply("broadcast_row", scale, count=b))


def _affine_then_standardize(x0, w0, b0, eps, weights, fused):
    """Forward value and the gradients of x, W and b, each a leaf with a
    single consumer, through the fused primitives or their compositions."""
    g = Graph()
    x, w, b = (g.leaf(v, param=True) for v in (x0, w0, b0))
    if fused:
        out = x.affine(w, b).standardize(eps)
    else:
        out = _unfused_standardize(x @ w + g.apply("broadcast_row", b, count=x0.shape[0]), eps)
    grads = reverse_grad(g, _weighted_sum(out, weights))
    return out.value, [grads[leaf.idx] for leaf in (x, w, b)]


@pytest.mark.parametrize("eps", [1e-5, 0.0, 0.3])
def test_affine_and_standardize_equal_their_compositions_bit_for_bit(eps):
    rng = np.random.default_rng(13)
    x0, w0, b0 = rng.normal(size=(256, 64)), rng.normal(size=(64, 32)) * 0.1, rng.normal(size=32)
    weights = rng.uniform(0.5, 1.5, size=(256, 32))
    fused, fused_grads = _affine_then_standardize(x0, w0, b0, eps, weights, True)
    plain, plain_grads = _affine_then_standardize(x0, w0, b0, eps, weights, False)
    assert np.array_equal(fused, plain)
    for got, want in zip(fused_grads, plain_grads):
        assert np.array_equal(got, want)


def test_standardize_constant_column_gradient_matches_the_composition():
    # sigma = 0 in column 1: the std adjoint's zero rule, reached through eps > 0
    rng = np.random.default_rng(14)
    z0 = rng.normal(size=(8, 3))
    z0[:, 1] = 5.0
    weights = rng.uniform(0.5, 1.5, size=(8, 3))
    grads = []
    for build in (lambda z: z.standardize(1e-5), lambda z: _unfused_standardize(z, 1e-5)):
        g = Graph()
        z = g.leaf(z0, param=True)
        out = build(z)
        assert np.array_equal(out.value[:, 1], np.zeros(8))
        grads.append(reverse_grad(g, _weighted_sum(out, weights))[z.idx])
    assert np.all(np.isfinite(grads[0]))
    assert np.array_equal(grads[0], grads[1])


def test_affine_checks_every_shape():
    x, w = np.ones((4, 3)), np.ones((3, 2))
    assert np.array_equal(eval_primitive("affine", [x, w, np.arange(2.0)]),
                          [[3.0, 4.0]] * 4)
    for bad in ([x, w, np.ones(3)], [x, w, np.ones((1, 2))], [x, np.ones((2, 2)), np.ones(2)],
                [np.ones(3), w, np.ones(2)]):
        with pytest.raises(ShapeMismatchError, match="affine"):
            eval_primitive("affine", bad)


def test_standardize_constant_column_at_zero_eps_names_the_primitive():
    z = np.array([[1.0, 2.0], [3.0, 2.0], [5.0, 2.0]])
    with pytest.raises(NonFiniteError, match="primitive 'standardize'"):
        eval_primitive("standardize", [z], eps=0.0)


def test_full_objective_gradient_small_instance():
    # b=8, d=4, k=3 random instance: the finite-difference check is the oracle
    from curvalign.losses import total_loss

    rng = np.random.default_rng(42)
    g = Graph()
    z = g.leaf(rng.normal(size=(8, 4)), param=True, name="z")
    zp = g.leaf(rng.normal(size=(8, 4)), param=True, name="zp")
    _, total = total_loss(z, zp, k=3)
    report = finite_diff_check(g, total, step=1e-5, tol=1e-4)
    assert report.passed, report.per_leaf


def _unpruned_grad(graph, output):
    """reverse_grad without activity analysis: every rule of every node the
    output reaches runs, constants and data included."""
    nodes = graph.nodes
    adjoints = {output.idx: np.ones_like(nodes[output.idx].value)}
    for i in range(output.idx, -1, -1):
        node = nodes[i]
        g = adjoints.get(i)
        if g is None or node.op == "leaf":
            continue
        ins = [nodes[j].value for j in node.inputs]
        for j, rule in zip(node.inputs, numerics._BACKWARD[node.op]):
            contrib = rule(ins, node.value, g, node.aux)
            adjoints[j] = adjoints[j] + contrib if j in adjoints else contrib
    return {i: adjoints.get(i, np.zeros_like(nodes[i].value)) for i in graph.param_leaves()}


@pytest.mark.parametrize("metric", ["euclidean", KernelSpec("rbf", 0.8)], ids=["cosine", "rbf"])
def test_reverse_grad_skips_inputs_without_a_parameter(monkeypatch, metric):
    from curvalign.losses import total_loss
    from curvalign.model import Architecture, forward_graph, init_params, param_leaves

    arch = Architecture(6, (8,), (6, 4))
    rng = np.random.default_rng(21)
    g = Graph()
    leaves = param_leaves(g, init_params(arch, seed=3))
    x1 = g.leaf(rng.uniform(size=(12, 6)))
    x2 = g.leaf(rng.uniform(size=(12, 6)))
    _, z1 = forward_graph(leaves, arch, x1)
    _, z2 = forward_graph(leaves, arch, x2)
    _, total = total_loss(z1, z2, k=3, metric=metric)

    passive = set()  # nodes that depend on no parameter leaf
    for i, node in enumerate(g.nodes):
        if not node.param and all(j in passive for j in node.inputs):
            passive.add(i)
    # the views are the only data: the closed-form loss head has no constant leaves
    assert passive == {x1.idx, x2.idx}
    by_value = {id(n.value): i for i, n in enumerate(g.nodes)}
    assert len(by_value) == len(g.nodes)
    reference = _unpruned_grad(g, total)

    served = []  # the node each backward rule call computed an adjoint for
    def spy(rule, pos):
        def wrapped(ins, out, grad, aux):
            served.append(by_value[id(ins[pos])])
            return rule(ins, out, grad, aux)
        return wrapped
    monkeypatch.setattr(numerics, "_BACKWARD", {
        op: tuple(spy(rule, pos) for pos, rule in enumerate(rules))
        for op, rules in numerics._BACKWARD.items()
    })
    pruned = reverse_grad(g, total)

    assert served and not passive.intersection(served)
    assert pruned.keys() == reference.keys()
    for i in pruned:
        assert np.array_equal(pruned[i], reference[i]), g.nodes[i].name


# -- the curvature adjoint reads the pair matrix its forward read ----------

@pytest.mark.parametrize("lend", [False, True], ids=["case", "from-knn"])
@pytest.mark.parametrize("name", ["curvature:cosine", "curvature:rbf"])
def test_curvature_adjoint_reads_the_lent_pair_matrix(monkeypatch, name, lend):
    # a kNN's lent matrix serves the adjoint too, and both variants pass
    # finite differences and replay through forward_values
    from curvalign.geometry import curvature_scores_graph, knn_metric

    def no_second_matrix(*args, **kwargs):
        raise AssertionError("the adjoint built a pair matrix the kNN had lent")

    for trial in range(3):
        rng = np.random.default_rng([zlib.crc32(name.encode()), trial, 1])
        g = Graph()
        if lend:  # scored from a kNN of the leaf: the kNN lends its pair matrix
            z = g.leaf(_rand(rng, (9, 3), -1.0, 1.0), param=True)
            metric = KernelSpec("rbf") if name == "curvature:rbf" else "euclidean"
            nb = knn_metric(z.value, 4, metric)
            scores = curvature_scores_graph(z, nb, nb.metric)
            assert "pairs" in g.nodes[scores.idx].aux
        else:
            scores = dict(CASES)[name](g, rng)
        node = g.nodes[scores.idx]
        assert node.active
        out = _scalarize(g, rng, scores)
        if lend:
            with monkeypatch.context() as patch:
                patch.setattr(numerics, "sq_distance_matrix", no_second_matrix)
                patch.setattr(numerics, "rbf_kernel_matrix", no_second_matrix)
                reverse_grad(g, out)
        report = finite_diff_check(g, out, step=1e-5, tol=TOLERANCE[name])
        assert report.passed, f"{name} trial {trial}: {report.per_leaf}"

        leaf = node.inputs[0]
        other = g.nodes[leaf].value + rng.uniform(-0.1, 0.1, size=g.nodes[leaf].value.shape)
        aux = {key: v for key, v in node.aux.items() if key != "pairs"}
        fresh = eval_primitive("curvature", [other], **aux)
        assert np.array_equal(g.forward_values({leaf: other})[scores.idx], fresh)


def test_rbf_training_step_builds_one_distance_matrix_per_view(monkeypatch):
    # the kNN's matrix serves the bandwidth, the selection, the scores and
    # the adjoint: no second matrix anywhere in the step
    from curvalign import geometry, rkhs
    from curvalign.data import AugmentationPolicy, make_blobs
    from curvalign.model import Architecture
    from curvalign.trainer import TrainConfig, pretrain

    built = []

    def counting(fn):
        def wrapped(points):
            built.append(np.shape(points))
            return fn(points)
        return wrapped

    def unexpected(points, gamma):
        raise AssertionError("rbf_kernel_matrix called")

    for module in (numerics, geometry, rkhs):
        monkeypatch.setattr(module, "sq_distance_matrix", counting(module.sq_distance_matrix))
    monkeypatch.setattr(numerics, "rbf_kernel_matrix", unexpected)
    steps = []
    config = TrainConfig(architecture=Architecture(8, (16,), (16, 4)), epochs=1,
                         batch_size=32, k=5, metric="rbf", seed=3,
                         augmentation=AugmentationPolicy(0.05, 0.1, 0))
    pretrain(config, make_blobs(32, 2, 8, 0.1, seed=3), on_step=lambda *a: steps.append(a))
    assert len(steps) == 1
    assert built == [(32, 4), (32, 4)]


@pytest.mark.parametrize("metric", ["euclidean", "linear"])
def test_euclidean_training_step_builds_one_distance_matrix_per_view(monkeypatch, metric):
    # the kNN's D^2 (Euclidean, or the linear kernel's through knn_rkhs)
    # serves the selection, the cosine scores and their adjoint: no second
    # matrix anywhere in the step
    from curvalign import geometry, rkhs
    from curvalign.data import AugmentationPolicy, make_blobs
    from curvalign.model import Architecture
    from curvalign.trainer import TrainConfig, pretrain

    built = []

    def counting(fn):
        def wrapped(points):
            built.append(np.shape(points))
            return fn(points)
        return wrapped

    for module in (numerics, geometry, rkhs):
        monkeypatch.setattr(module, "sq_distance_matrix", counting(module.sq_distance_matrix))
    steps = []
    config = TrainConfig(architecture=Architecture(8, (16,), (16, 4)), epochs=1,
                         batch_size=32, k=5, metric=metric, seed=3,
                         augmentation=AugmentationPolicy(0.05, 0.1, 0))
    pretrain(config, make_blobs(32, 2, 8, 0.1, seed=3), on_step=lambda *a: steps.append(a))
    assert len(steps) == 1
    assert built == [(32, 4), (32, 4)]


# -- rbf curvature: one batch kernel matrix against the per-row edge kernels --

def _edge_rbf_gram(edges, gamma):
    """Per-row RBF kernel matrix (m, k, k) of the edges, diagonal zeroed."""
    sq = np.einsum("mkd,mkd->mk", edges, edges)
    dist = sq[:, :, None] + sq[:, None, :] - 2.0 * (edges @ edges.transpose(0, 2, 1))
    gram = np.exp(-gamma * np.maximum(dist, 0.0))
    diag = np.arange(edges.shape[1])
    gram[:, diag, diag] = 0.0
    return gram


def _edge_rbf_scores_and_adjoint(z, nb, gamma, g):
    """The per-row edge formulation over bounded row blocks: a k x k kernel
    per row from its edges, scores summed over it and the adjoint
    -2 gamma g (rowsum(K) e - K e) scattered onto the neighbor rows."""
    scores = np.empty(z.shape[0])
    adj = np.zeros_like(z)
    for rows in numerics._row_blocks(*nb.shape, z.shape[1]):
        edges = z[nb[rows]] - z[rows, None, :]
        gram = _edge_rbf_gram(edges, gamma)
        scores[rows] = gram.sum(axis=(1, 2)) / 2.0
        rowsum = gram.sum(axis=2)[..., None]
        ge = (gram @ edges - rowsum * edges) * (2.0 * gamma * g[rows, :, None])
        np.add.at(adj, nb[rows].ravel(), ge.reshape(-1, z.shape[1]))
    return scores, adj


def _rbf_scores_and_adjoint(z, nb, gamma, g):
    aux = {"neighbors": nb, "score": "rbf", "gamma": gamma}
    scores = eval_primitive("curvature", [z], **aux)[:, 0]
    return scores, numerics._BACKWARD["curvature"][0]([z], None, g, aux)


def _rel_err(got, want):
    """Largest deviation relative to the largest reference entry; a
    reference of exact zeros (k = 2 with both neighbors the same row) must
    be matched exactly."""
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), np.finfo(float).tiny)


def _rbf_point_sets(rng, b):
    side = int(np.ceil(np.sqrt(b)))
    grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)[:b]
    base = rng.normal(size=(-(-b // 2), 6))
    return {
        "random": rng.normal(size=(b, 6)),
        "grid": grid.astype(np.float64),  # tied distances everywhere
        "duplicated": np.vstack([base, base])[:b],  # zero edges; rbf scores them
    }


def _rbf_tables(rng, points, k):
    from curvalign.geometry import knn_euclidean

    b = points.shape[0]
    tables = {"knn": knn_euclidean(points, k).indices}
    table = knn_euclidean(points, k).indices.copy()
    table[:, -1] = table[:, 0]  # a repeated index within every row
    tables["repeated"] = table
    hub = np.array([rng.permutation(np.delete(np.arange(b), i))[:k] for i in range(b)])
    hub[1:, 0] = 0  # row 0 is every other row's neighbor
    tables["hub"] = hub
    return tables


@pytest.mark.parametrize("b", [3, 64, 256])
def test_rbf_curvature_equals_the_per_row_edge_formulation(b):
    from curvalign.rkhs import median_heuristic_gamma

    rng = np.random.default_rng([8, b])
    for k in sorted({2, min(10, b - 1), b - 1}):
        for set_name, points in _rbf_point_sets(rng, b).items():
            gamma = median_heuristic_gamma(points)
            g = rng.uniform(-1.5, 1.5, size=(b, 1))
            for table_name, nb in _rbf_tables(rng, points, k).items():
                want_s, want_adj = _edge_rbf_scores_and_adjoint(points, nb, gamma, g)
                got_s, got_adj = _rbf_scores_and_adjoint(points, nb, gamma, g)
                case = f"b={b} k={k} {set_name} {table_name}"
                assert _rel_err(got_s, want_s) <= 1e-12, case
                assert _rel_err(got_adj, want_adj) <= 1e-12, case


def test_rbf_curvature_temporaries_stay_bounded_at_large_k():
    # the gathered pairs, pair index and pair weights grow as b k^2 (127.6 MiB
    # forward and 254.5 MiB adjoint at b = 256, k = 255 in one block); row
    # blocks bound them
    import tracemalloc

    from curvalign.geometry import knn_euclidean

    rng = np.random.default_rng(31)
    b, k = 256, 255
    z = rng.normal(size=(b, 6))
    nb = knn_euclidean(z, k).indices
    g = rng.uniform(-1.5, 1.5, size=(b, 1))
    tracemalloc.start()
    try:
        _rbf_scores_and_adjoint(z, nb, 0.1, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("b,d,k,score", [(256, 32, 20, "rbf"), (1024, 784, 10, "cosine")])
def test_curvature_sums_hold_only_small_temporaries(b, d, k, score):
    # each row block's pair terms and their flat index stay within
    # _PAIR_ELEMENTS; 1 MiB blocks of ordered pairs peaked at 0.91 and 1.09 MiB
    import tracemalloc

    from curvalign.geometry import knn_euclidean

    z = np.random.default_rng([36, b]).normal(size=(b, d))
    knn = knn_euclidean(z, k)
    matrix = numerics.rbf_kernel_from_sq(knn.pair_matrix, 0.02) if score == "rbf" else knn.pair_matrix
    tracemalloc.start()
    try:
        numerics.curvature_rows(matrix, knn.indices, score)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19, f"peak {peak / 2**20:.2f} MiB"


def test_rbf_curvature_is_translation_robust():
    from curvalign.geometry import knn_euclidean

    rng = np.random.default_rng(30)
    z = rng.normal(size=(64, 8))
    nb = knn_euclidean(z, 10).indices
    g = rng.uniform(0.5, 1.5, size=(64, 1))
    scores, adj = _rbf_scores_and_adjoint(z, nb, 0.1, g)
    shifted_scores, shifted_adj = _rbf_scores_and_adjoint(z + 1e3, nb, 0.1, g)
    assert np.max(np.abs(shifted_scores - scores)) <= 1e-9
    assert np.max(np.abs(shifted_adj - adj)) <= 1e-9


# -- cosine curvature: the kNN's D^2 against the per-row unit edges ---------

def _edge_cosine_scores_and_adjoint(z, nb, g):
    """The unit-edge formulation over bounded row blocks: the (rows, k, d)
    edges e_a = x_{n_a} - x_i of each row, their unit vectors u_a and sum s,
    scores (||s||^2 - sum_a ||u_a||^2) / 2 and the adjoint
    g (s - (u_a . s) u_a) / ||e_a||, added to the neighbor rows and
    subtracted from the center row."""
    scores = np.empty(z.shape[0])
    adj = np.zeros_like(z)
    for rows in numerics._row_blocks(*nb.shape, z.shape[1]):
        edges = z[nb[rows]] - z[rows, None, :]
        norms = np.sqrt(np.einsum("mkd,mkd->mk", edges, edges))
        unit = edges / norms[..., None]
        total = unit.sum(axis=1)
        scores[rows] = (np.einsum("md,md->m", total, total)
                        - np.einsum("mkd,mkd->m", unit, unit)) / 2.0
        along = np.einsum("mkd,md->mk", unit, total)[..., None]
        ge = (total[:, None, :] - along * unit) * (g[rows, :, None] / norms[..., None])
        adj[rows] -= ge.sum(axis=1)
        np.add.at(adj, nb[rows].ravel(), ge.reshape(-1, z.shape[1]))
    return scores, adj


def _cosine_scores_and_adjoint(z, nb, g):
    aux = {"neighbors": nb, "score": "cosine"}
    scores = eval_primitive("curvature", [z], **aux)[:, 0]
    return scores, numerics._BACKWARD["curvature"][0]([z], None, g, aux)


@pytest.mark.parametrize("b", [3, 64, 256])
def test_cosine_curvature_equals_the_per_row_unit_edge_formulation(b):
    rng = np.random.default_rng([9, b])
    for k in sorted({2, min(10, b - 1), b - 1}):
        sets = _rbf_point_sets(rng, b)
        del sets["duplicated"]  # zero edges have no direction
        for set_name, points in sets.items():
            g = rng.uniform(-1.5, 1.5, size=(b, 1))
            for table_name, nb in _rbf_tables(rng, points, k).items():
                want_s, want_adj = _edge_cosine_scores_and_adjoint(points, nb, g)
                got_s, got_adj = _cosine_scores_and_adjoint(points, nb, g)
                case = f"b={b} k={k} {set_name} {table_name}"
                assert _rel_err(got_s, want_s) <= 1e-12, case
                # relative to the adjoint's unit g / r as well: a row of one
                # neighbor listed twice scores a constant, so both adjoints of
                # k = 2 with a repeated neighbor are round-off
                unit = np.max(np.abs(g)) / np.min(np.linalg.norm(points[nb] - points[:, None], axis=2))
                err = np.max(np.abs(got_adj - want_adj)) / max(np.max(np.abs(want_adj)), unit)
                assert err <= 1e-12, case


def test_cosine_curvature_temporaries_stay_bounded_at_large_k():
    # the gathered pairs and pair weights grow as b k^2, as for rbf; row
    # blocks bound them
    import tracemalloc

    from curvalign.geometry import knn_euclidean

    rng = np.random.default_rng(32)
    b, k = 256, 255
    z = rng.normal(size=(b, 6))
    nb = knn_euclidean(z, k).indices
    g = rng.uniform(-1.5, 1.5, size=(b, 1))
    tracemalloc.start()
    try:
        _cosine_scores_and_adjoint(z, nb, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_cosine_curvature_is_translation_robust():
    from curvalign.geometry import knn_euclidean

    rng = np.random.default_rng(33)
    z = rng.normal(size=(64, 8))
    nb = knn_euclidean(z, 10).indices
    g = rng.uniform(0.5, 1.5, size=(64, 1))
    scores, adj = _cosine_scores_and_adjoint(z, nb, g)
    shifted_scores, shifted_adj = _cosine_scores_and_adjoint(z + 1e3, nb, g)
    assert np.max(np.abs(shifted_scores - scores)) <= 1e-9
    assert np.max(np.abs(shifted_adj - adj)) <= 1e-9


# -- rbf pair weight: row-blocked np.add.at against one np.bincount ----------

def _bincount_rbf_adjoint(z, nb, gamma, g, kernel):
    """The rbf adjoint with its pair weight from one np.bincount over every
    ordered neighbor pair of every row, each weighted by its row's g."""
    b, k = nb.shape
    pairs = (nb[:, :, None] * b + nb[:, None, :]).ravel()
    w = np.bincount(pairs, weights=np.repeat(g[:, 0], k * k), minlength=b * b).reshape(b, b)
    np.fill_diagonal(w, 0.0)
    w *= kernel
    centred_z = z - (z.min(axis=0) + z.max(axis=0)) / 2.0
    adj = w @ centred_z
    adj -= w.sum(axis=1)[:, None] * centred_z
    adj *= 2.0 * gamma
    return adj


def _rbf_adjoint(z, nb, gamma, g, kernel):
    aux = {"neighbors": nb, "score": "rbf", "gamma": gamma, "pairs": (z, kernel)}
    return numerics._BACKWARD["curvature"][0]([z], None, g, aux)


@pytest.mark.parametrize("b,k", [(256, 20), (256, 2), (64, 63)])
def test_rbf_adjoint_equals_one_bincount_bit_for_bit(b, k):
    # np.add.at adds in input order over the row blocks, the order of one
    # bincount over all pairs; (256, 20) and (64, 63) span many blocks
    from curvalign.geometry import knn_euclidean

    rng = np.random.default_rng([34, b, k])
    z = rng.normal(size=(b, 32))
    g = rng.uniform(-1.5, 1.5, size=(b, 1))
    kernel = numerics.rbf_kernel_matrix(z, 0.02)
    knn = knn_euclidean(z, k).indices
    repeated = knn.copy()
    repeated[:, -1] = repeated[:, 0]  # a neighbor twice in every row
    assert (len(numerics._row_blocks(b, k, k, numerics._PAIR_ELEMENTS)) > 1) == (k > 2)
    for nb in (knn, repeated):
        want = _bincount_rbf_adjoint(z, nb, 0.02, g, kernel)
        assert np.array_equal(_rbf_adjoint(z, nb, 0.02, g, kernel), want)


def test_rbf_adjoint_temporaries_stay_under_one_mib():
    # b = 256, k = 20, d = 32: the (b b) pair weight is 0.5 MiB; one bincount
    # over all pairs held 2.06 MiB
    import tracemalloc

    from curvalign.geometry import knn_euclidean

    rng = np.random.default_rng(35)
    z = rng.normal(size=(256, 32))
    nb = knn_euclidean(z, 20).indices
    g = rng.uniform(-1.5, 1.5, size=(256, 1))
    kernel = numerics.rbf_kernel_matrix(z, 0.02)
    tracemalloc.start()
    try:
        _rbf_adjoint(z, nb, 0.02, g, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("name", ["curvature:rbf", "curvature:rbf:k=b-1"])
def test_rbf_adjoint_in_one_row_blocks_passes_finite_differences(monkeypatch, name):
    monkeypatch.setattr(numerics, "_PAIR_ELEMENTS", 1)  # one row per block
    builder = dict(CASES)[name]
    for trial in range(3):
        rng = np.random.default_rng([zlib.crc32(name.encode()), trial, 2])
        g = Graph()
        out = _scalarize(g, rng, builder(g, rng))
        report = finite_diff_check(g, out, step=1e-5, tol=TOLERANCE[name])
        assert report.passed, f"{name} trial {trial}: {report.per_leaf}"
