import itertools

import numpy as np
import pytest

from curvalign.errors import BatchTooSmallError, InvariantViolationError, ShapeMismatchError
from curvalign.geometry import batch_curvature
from curvalign.losses import (
    LossBreakdown,
    Weights,
    barlow_loss,
    cross_correlation,
    curvature_loss,
    curvature_matrix,
    curvature_penalty,
    standardize_features,
    standardize_scores,
    total_loss,
    total_loss_arrays,
)
from curvalign.numerics import Graph, finite_diff_check, reverse_grad
from curvalign.rkhs import KernelSpec

from oracles import reference_total_loss


def _var(arr, g=None):
    g = g or Graph()
    return g.leaf(np.asarray(arr, dtype=np.float64))


def test_standardize_features_examples():
    out = standardize_features(_var([[1.0], [3.0]]), eps=0.0).value
    assert np.allclose(out, [[-1.0], [1.0]], atol=1e-15)

    const = standardize_features(_var([[5.0], [5.0], [5.0]]), eps=1e-5).value
    assert np.array_equal(const, np.zeros((3, 1)))

    rng = np.random.default_rng(0)
    z = rng.normal(size=(64, 4))
    once = standardize_features(_var(z), eps=1e-5).value
    twice = standardize_features(_var(once), eps=1e-5).value
    assert np.max(np.abs(twice - once)) <= 1e-4  # idempotent up to O(eps)


def test_standardize_batch_too_small():
    with pytest.raises(BatchTooSmallError):
        standardize_features(_var([[1.0, 2.0]]), eps=1e-5)


def test_cross_correlation_examples():
    g = Graph()
    z = g.leaf(np.array([[-1.0], [1.0]]))
    assert np.allclose(cross_correlation(z, z).value, [[1.0]], atol=1e-15)

    g = Graph()
    za = g.leaf(np.array([[-1.0], [1.0]]))
    zb = g.leaf(np.array([[1.0], [-1.0]]))
    assert np.allclose(cross_correlation(za, zb).value, [[-1.0]], atol=1e-15)

    rng = np.random.default_rng(1)
    big = rng.normal(size=(10_000, 3))
    bigp = rng.normal(size=(10_000, 3))
    g = Graph()
    c = cross_correlation(
        standardize_features(g.leaf(big), 0.0), standardize_features(g.leaf(bigp), 0.0)
    ).value
    assert np.max(np.abs(c)) <= 0.05  # independent columns stay near zero

    with pytest.raises(ShapeMismatchError):
        g = Graph()
        cross_correlation(g.leaf(np.ones((4, 2))), g.leaf(np.ones((5, 2))))


def test_correlation_entries_bounded_for_standardized_inputs():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = Graph()
        za = standardize_features(g.leaf(rng.normal(size=(16, 5))), eps=0.0)
        zb = standardize_features(g.leaf(rng.normal(size=(16, 5))), eps=0.0)
        c = cross_correlation(za, zb).value
        assert np.max(np.abs(c)) <= 1.0 + 1e-9


def test_barlow_loss_examples():
    total, diag, off = barlow_loss(_var(np.eye(2)), 1.0)
    assert float(total.value) == 0.0

    total, diag, off = barlow_loss(_var(np.zeros((2, 2))), 1.0)
    assert float(total.value) == 2.0
    assert float(diag.value) == 2.0 and float(off.value) == 0.0

    total, _, _ = barlow_loss(_var([[1.0, 0.5], [0.5, 1.0]]), 1.0)
    assert float(total.value) == pytest.approx(0.5, abs=1e-15)


def test_standardize_scores_examples():
    out = standardize_scores(_var([[1.0], [3.0]]), eps=0.0).value
    assert np.allclose(out, [[-1.0], [1.0]], atol=1e-15)

    assert np.array_equal(
        standardize_scores(_var([[2.0], [2.0], [2.0]]), eps=1e-5).value, np.zeros((3, 1))
    )

    out = standardize_scores(_var([[0.0], [1.0], [2.0]]), eps=0.0).value.ravel()
    root = np.sqrt(1.5)
    assert np.allclose(out, [-root, 0.0, root], atol=1e-12)
    assert root == pytest.approx(1.224744871391589, abs=1e-14)


def test_curvature_matrix_examples():
    g = Graph()
    ct = g.leaf(np.array([[-1.0], [1.0]]))
    m = curvature_matrix(ct, ct).value
    assert np.allclose(m, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
    assert np.trace(m) == pytest.approx(1.0, abs=1e-15)

    g = Graph()
    ct = g.leaf(np.array([[-1.0], [1.0]]))
    ctp = g.leaf(np.array([[1.0], [-1.0]]))
    assert np.trace(curvature_matrix(ct, ctp).value) == pytest.approx(-1.0, abs=1e-15)

    g = Graph()
    col = np.array([[-1.224744871391589], [0.0], [1.224744871391589]])
    trace = np.trace(curvature_matrix(g.leaf(col), g.leaf(col)).value)
    assert trace == pytest.approx(1.0, abs=1e-12)


def test_curvature_loss_examples():
    m = np.array([[0.5, -0.5], [-0.5, 0.5]])
    total, diag, off = curvature_loss(_var(m), 1.0)
    assert float(total.value) == pytest.approx(1.0, abs=1e-15)
    assert float(diag.value) == pytest.approx(0.5, abs=1e-15)
    assert float(off.value) == pytest.approx(0.5, abs=1e-15)

    total, _, _ = curvature_loss(_var(np.eye(4)), 1.0)
    assert float(total.value) == 0.0

    total, _, _ = curvature_loss(_var(np.zeros((2, 2))), 1.0)
    assert float(total.value) == 2.0


def test_total_loss_identical_views():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(8, 4))
    bd = total_loss_arrays(z, z.copy(), k=3, eps=0.0)
    assert bd.emb_diag <= 1e-12  # identical views, exact self-correlation

    # full loss reports the structural floor: M_ii = ct_i^2 / b
    c = batch_curvature(z, 3)
    ct = (c - c.mean()) / c.std()
    expected = np.sum((ct * ct / 8.0 - 1.0) ** 2)
    assert bd.curv_diag == pytest.approx(expected, abs=1e-10)


def test_total_loss_alpha_zero_is_embedding_only():
    rng = np.random.default_rng(3)
    z, zp = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
    bd = total_loss_arrays(z, zp, k=3, weights=Weights(1.0, 1.0, 0.0))
    assert bd.total == bd.emb_diag + bd.emb_offdiag
    # curvature components are still reported
    assert bd.curv_diag > 0.0


def test_total_loss_matches_reference_reimplementation():
    rng = np.random.default_rng(4)
    for metric, kind, gamma in [
        ("euclidean", "euclidean", None),
        (KernelSpec("rbf", 0.8), "rbf", 0.8),
        (KernelSpec("rbf"), "rbf", None),
        (KernelSpec("linear"), "linear", None),
    ]:
        z, zp = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        weights = Weights(0.7, 1.3, 0.9)
        bd = total_loss_arrays(z, zp, k=3, metric=metric, weights=weights, eps=1e-5)
        ref_total, *_ = reference_total_loss(z, zp, 3, kind, gamma, *weights, eps=1e-5)
        assert abs(bd.total - ref_total) <= 1e-12


def test_total_loss_view_swap_and_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        z, zp = rng.normal(size=(10, 5)), rng.normal(size=(10, 5))
        a = total_loss_arrays(z, zp, k=3).total
        b = total_loss_arrays(zp, z, k=3).total
        assert abs(a - b) <= 1e-10
        perm = rng.permutation(10)
        c = total_loss_arrays(z[perm], zp[perm], k=3).total
        assert abs(a - c) <= 1e-10


def test_embedding_loss_affine_invariance_per_feature():
    rng = np.random.default_rng(6)
    z, zp = rng.normal(size=(12, 4)), rng.normal(size=(12, 4))
    base = total_loss_arrays(z, zp, k=3, eps=1e-12)
    scaled = z.copy()
    scaled[:, 1] = 2.5 * scaled[:, 1] + 0.7
    moved = total_loss_arrays(scaled, zp, k=3, eps=1e-12)
    l_emb_base = base.emb_diag + base.emb_offdiag
    l_emb_moved = moved.emb_diag + moved.emb_offdiag
    assert abs(l_emb_base - l_emb_moved) <= 1e-8


def test_trace_bound_and_equality_condition():
    rng = np.random.default_rng(7)
    for _ in range(100):
        z, zp = rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
        g = Graph()
        ct = standardize_scores(g.leaf(batch_curvature(z, 3).reshape(-1, 1)), eps=1e-5)
        ctp = standardize_scores(g.leaf(batch_curvature(zp, 3).reshape(-1, 1)), eps=1e-5)
        m = curvature_matrix(ct, ctp)
        trace = float(np.trace(m.value))
        assert trace <= 1.0 + 1e-9
        # at lambda_curv = 1 the penalty is b + ||M||_F^2 - 2 tr M >= b - 1
        _, diag, off = curvature_loss(m, 1.0)
        assert float(diag.value) + float(off.value) >= 9 - 1
    # equality (to 1e-9) when the score columns agree, in the eps->0 limit
    g = Graph()
    scores = batch_curvature(rng.normal(size=(9, 4)), 3).reshape(-1, 1)
    ct = standardize_scores(g.leaf(scores), eps=1e-12)
    m = curvature_matrix(ct, ct)
    trace = float(np.trace(m.value))
    assert abs(trace - 1.0) <= 1e-9
    _, diag, off = curvature_loss(m, 1.0)
    assert abs(float(diag.value) + float(off.value) - (9 - 1)) <= 1e-9


def test_curvature_penalty_is_b_plus_one_minus_twice_score_correlation():
    # at eps = 0 and lambda_curv = 1 the rank-one penalty reduces to b + 1 - 2 rho
    rng = np.random.default_rng(12)
    for b in (9, 64, 256):
        for metric in ("euclidean", KernelSpec("rbf")):
            z, zp = rng.normal(size=(b, 4)), rng.normal(size=(b, 4))
            bd = total_loss_arrays(z, zp, k=3, metric=metric, weights=Weights(0.5, 1.0, 2.0),
                                   eps=0.0)
            rho = np.corrcoef(batch_curvature(z, 3, metric), batch_curvature(zp, 3, metric))[0, 1]
            assert abs(bd.curv_diag + bd.curv_offdiag - (b + 1 - 2 * rho)) <= 1e-9


def _penalty_and_score_gradients(penalty, scores, scores_p, eps):
    g = Graph()
    c = g.leaf(scores, param=True)
    cp = g.leaf(scores_p, param=True)
    parts = penalty(standardize_scores(c, eps), standardize_scores(cp, eps))
    grads = reverse_grad(g, parts[0])
    return [float(v.value) for v in parts], grads[c.idx], grads[cp.idx]


@pytest.mark.parametrize("b", [9, 64, 256])
def test_closed_form_curvature_penalty_equals_the_eager_reference(b):
    rng = np.random.default_rng([13, b])
    for metric in ("euclidean", KernelSpec("rbf")):
        z, zp = rng.normal(size=(b, 4)), rng.normal(size=(b, 4))
        scores = batch_curvature(z, 3, metric).reshape(-1, 1)
        views = {"distinct": batch_curvature(zp, 3, metric).reshape(-1, 1),
                 "identical": scores.copy()}
        for (view, scores_p), eps, lambda_curv in itertools.product(
                views.items(), (0.0, 1e-5), (1.0, 0.3, 2.5)):
            case = f"{metric} {view} eps={eps} lambda_curv={lambda_curv}"
            got = _penalty_and_score_gradients(
                lambda ct, ctp: curvature_penalty(ct, ctp, lambda_curv), scores, scores_p, eps)
            want = _penalty_and_score_gradients(
                lambda ct, ctp: curvature_loss(curvature_matrix(ct, ctp), lambda_curv),
                scores, scores_p, eps)
            for got_part, want_part in zip(got[0], want[0]):  # total, diagonal, off-diagonal
                assert abs(got_part - want_part) <= 1e-12 * abs(want_part), case
            # identical views at eps = 0 and lambda_curv = 1 sit at the minimum b - 1, where
            # the exact gradient is 0; each part's own gradient scales as 1 / std(scores)
            for got_grad, want_grad, col in zip(got[1:], want[1:], (scores, scores_p)):
                scale = max(np.max(np.abs(want_grad)), 1.0 / col.std())
                assert np.max(np.abs(got_grad - want_grad)) <= 1e-12 * scale, case


def test_total_loss_tape_holds_no_batch_square_node():
    rng = np.random.default_rng(14)
    b = 256
    for metric in ("euclidean", KernelSpec("rbf")):
        g = Graph()
        z = g.leaf(rng.normal(size=(b, 4)), param=True)
        zp = g.leaf(rng.normal(size=(b, 4)), param=True)
        total_loss(z, zp, k=10, metric=metric)
        largest = max(g.nodes, key=lambda node: node.value.size)
        assert largest.value.size < b * b, (metric, largest.op, largest.value.shape)


def test_loss_breakdown_invariant():
    rng = np.random.default_rng(8)
    z, zp = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
    w = Weights(0.5, 2.0, 1.5)
    bd = total_loss_arrays(z, zp, k=3, weights=w)
    recomputed = bd.emb_diag + w.lambda_emb * bd.emb_offdiag + w.alpha_curv * (
        bd.curv_diag + w.lambda_curv * bd.curv_offdiag
    )
    assert bd.total == recomputed
    assert all(v >= 0.0 for v in bd.as_tuple())


def test_total_loss_gradients_both_metrics():
    rng = np.random.default_rng(9)
    inputs = [(Weights(), 1e-5), (Weights(0.7, 2.5, 1.3), 0.0), (Weights(1.2, 0.3, 0.8), 1e-5)]
    for metric in ("euclidean", KernelSpec("rbf", 1.0)):
        for weights, eps in inputs:
            g = Graph()
            z = g.leaf(rng.normal(size=(8, 4)), param=True, name="z")
            zp = g.leaf(rng.normal(size=(8, 4)), param=True, name="zp")
            _, total = total_loss(z, zp, k=3, metric=metric, weights=weights, eps=eps)
            assert finite_diff_check(g, total, step=1e-5, tol=1e-4).passed, (metric, weights, eps)


def test_total_loss_without_curvature_matches_embedding_part():
    rng = np.random.default_rng(10)
    z, zp = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
    g = Graph()
    full, _ = total_loss(g.leaf(z), g.leaf(zp), k=3)
    g = Graph()
    emb_only, _ = total_loss(g.leaf(z), g.leaf(zp), k=3, include_curvature=False)
    assert emb_only.emb_diag == full.emb_diag
    assert emb_only.emb_offdiag == full.emb_offdiag
    assert emb_only.curv_diag == 0.0 and emb_only.curv_offdiag == 0.0
    assert emb_only.total == emb_only.emb_diag + emb_only.emb_offdiag


def test_total_loss_preconditions():
    rng = np.random.default_rng(11)
    g = Graph()
    z = g.leaf(rng.normal(size=(4, 3)))
    zp = g.leaf(rng.normal(size=(4, 3)))
    with pytest.raises(BatchTooSmallError):
        total_loss(z, zp, k=4)
    with pytest.raises(ValueError):
        total_loss(z, zp, k=1)
    for metric in ("linear", "rbf"):
        with pytest.raises(InvariantViolationError, match=repr(metric)):
            total_loss(z, zp, k=2, metric=metric)
