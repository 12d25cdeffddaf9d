import math

import numpy as np
import pytest

import curvalign.rkhs as rkhs
from curvalign.errors import (
    CurvalignError,
    DegenerateEdgeError,
    InvariantViolationError,
    NonFiniteError,
    ShapeMismatchError,
)
from curvalign.geometry import (
    EdgeBundle,
    NeighborGraph,
    batch_curvature,
    curvature_score,
    curvature_scores_graph,
    edge_bundle,
    knn_euclidean,
    knn_from_sq_distances,
    sq_distance_matrix,
)
from curvalign.losses import total_loss_arrays
from curvalign.numerics import Graph, finite_diff_check
from curvalign.rkhs import (
    EDGE_FLOOR,
    KernelSpec,
    kernel_curvature_score,
    kernel_eval,
    knn_rkhs,
    median_heuristic_gamma,
    normalized_gram,
    resolve_spec,
    rkhs_distance,
)

from oracles import knn_full_sort, knn_kernel_full_sort


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("poly")
    with pytest.raises(ValueError):
        KernelSpec("rbf", -1.0)
    for gamma in (np.inf, np.nan):
        with pytest.raises(InvariantViolationError, match="rbf_gamma must be > 0 and finite"):
            KernelSpec("rbf", gamma)
    assert KernelSpec("rbf").gamma is None  # resolved later


def test_kernel_eval_examples():
    assert kernel_eval(KernelSpec("linear"), np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
    a = np.array([0.3, -0.7])
    assert kernel_eval(KernelSpec("rbf", 3.0), a, a) == 1.0
    val = kernel_eval(KernelSpec("rbf", 1.0), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert val == pytest.approx(0.1353352832366127, abs=1e-15)
    with pytest.raises(ShapeMismatchError):
        kernel_eval(KernelSpec("linear"), np.ones(2), np.ones(3))


def test_rkhs_distance_examples():
    lin = KernelSpec("linear")
    assert rkhs_distance(lin, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
        math.sqrt(2.0), abs=1e-15
    )
    x = np.array([0.2, 0.9, -1.1])
    assert rkhs_distance(lin, x, x) == 0.0
    assert rkhs_distance(KernelSpec("rbf", 5.0), x, x) == 0.0
    # sqrt(2 - 2 e^-2), cross-checked against a 40-digit Decimal evaluation
    val = rkhs_distance(KernelSpec("rbf", 1.0), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert val == pytest.approx(1.3150397079657992, abs=1e-15)


def test_knn_rkhs_linear_equals_euclidean():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(20, 4))
    assert np.array_equal(
        knn_rkhs(pts, 5, KernelSpec("linear")).indices, knn_euclidean(pts, 5).indices
    )
    # exact duplicates keep the index tie rule in both metrics
    dup = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(
        knn_rkhs(dup, 2, KernelSpec("linear")).indices, knn_euclidean(dup, 2).indices
    )


def test_knn_rkhs_rbf_equals_euclidean():
    rng = np.random.default_rng(8)
    for _ in range(25):
        b = int(rng.integers(5, 40))
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        pts = rng.uniform(-1, 1, size=(b, d))
        gamma = float(rng.uniform(0.1, 3.0))
        assert np.array_equal(
            knn_rkhs(pts, k, KernelSpec("rbf", gamma)).indices,
            knn_euclidean(pts, k).indices,
        )


def test_every_knn_keeps_the_index_tie_rule_on_integer_grids(monkeypatch):
    # integer grids tie distances exactly; centring on each column's
    # midrange keeps them exact, so every metric breaks ties by index
    import curvalign.geometry as geometry

    monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", 64)
    grid = np.array([[0, 2, 2], [0, 1, 0], [0, 0, 0], [1, 0, 1], [2, 0, 2]], dtype=np.float64)
    assert knn_rkhs(grid, 2, KernelSpec("rbf", 0.5)).indices[3].tolist() == [2, 4]
    rng = np.random.default_rng(13)
    for _ in range(400):
        b = int(rng.integers(4, 65))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(b, 9)))
        pts = rng.integers(0, 3, size=(b, d)).astype(np.float64)
        want = knn_full_sort(pts, k)
        assert np.array_equal(knn_euclidean(pts, k).indices, want)
        for spec in (KernelSpec("rbf", 0.5), KernelSpec("linear")):
            assert np.array_equal(knn_rkhs(pts, k, spec).indices, want), spec


def test_knn_rkhs_line_matches_oracle():
    pts = np.array([[0.0], [1.0], [3.0]])
    got = knn_rkhs(pts, 1, KernelSpec("rbf", 0.8)).indices
    assert np.array_equal(got, knn_kernel_full_sort(pts, 1, "rbf", 0.8))
    assert got.ravel().tolist() == [1, 0, 1]


def test_knn_rkhs_resolves_missing_gamma():
    pts = np.array([[0.0], [1.0], [3.0]])
    auto = knn_rkhs(pts, 2, KernelSpec("rbf"))  # median heuristic inside
    explicit = knn_rkhs(pts, 2, KernelSpec("rbf", 0.125))
    assert np.array_equal(auto.indices, explicit.indices)
    assert auto.kernel == KernelSpec("rbf", 0.125)


def _uncentred_sq_distances(points):
    """The gram expansion of the points as given, which the kNN selected on
    before it centred them."""
    gram = points @ points.T
    diag = gram.diagonal()
    return np.maximum(diag[:, None] + diag - 2.0 * gram, 0.0)


def _two_pass_gamma(points, sq_distances=sq_distance_matrix):
    """The median heuristic on its own distance matrix, with the triu mask."""
    n = points.shape[0]
    if n < 2:
        return 1.0
    dist = np.sqrt(sq_distances(points))
    med = float(np.median(dist[np.triu(np.ones((n, n), dtype=bool), 1)]))
    return 1.0 if med <= EDGE_FLOOR else 1.0 / (2.0 * med * med)


def _two_pass_sq_distances(points, gamma, sq_distances=sq_distance_matrix):
    """The rbf RKHS distances from a second matrix, transformed out of place."""
    return np.maximum(2.0 - 2.0 * np.exp(-gamma * sq_distances(points)), 0.0)


def _scores_or_error(score):
    try:
        return score()
    except CurvalignError as err:
        return f"{type(err).__name__}: {err}"


def test_one_matrix_rbf_knn_is_bit_identical_to_two_passes(monkeypatch):
    # the reference takes two passes, each with its own distance matrix;
    # knn_rkhs selects on the squared distances, and its neighbors must equal
    # those of selecting on the RKHS distance 2 - 2K, also from the
    # uncentred expansion
    selected = []  # the distances knn_rkhs selects from

    def recording(d2, k):
        selected.append(d2.copy())
        return knn_from_sq_distances(d2, k)

    monkeypatch.setattr(rkhs, "knn_from_sq_distances", recording)
    rng = np.random.default_rng(21)
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0)), -1).reshape(-1, 2)
    dup = rng.normal(size=(12, 3))
    cases = [  # (points, k)
        (rng.normal(size=(64, 5)), 7),
        (grid, 4),  # tied distances everywhere
        (np.vstack([dup, dup[::3]]), 3),  # exact duplicates
        (rng.normal(size=(2, 3)), 1),  # one pair
        (rng.normal(size=(3, 3)), 2),  # odd pair count
        (rng.normal(size=(4, 3)), 2),  # even pair count: median of two middles
        (np.full((5, 2), 0.7), 2),  # all identical: gamma falls back to 1.0
    ]
    for points, k in cases:
        gamma = _two_pass_gamma(points)
        d2 = _two_pass_sq_distances(points, gamma)
        raw = _uncentred_sq_distances
        uncentred = knn_from_sq_distances(
            _two_pass_sq_distances(points, _two_pass_gamma(points, raw), raw), k)
        old = knn_from_sq_distances(d2, k)
        selected.clear()
        new = knn_rkhs(points, k, KernelSpec("rbf"))
        assert median_heuristic_gamma(points) == gamma
        assert resolve_spec(KernelSpec("rbf"), points).gamma == gamma
        assert new.kernel == KernelSpec("rbf", gamma)
        assert np.array_equal(new.pair_matrix, np.exp(-gamma * sq_distance_matrix(points)))
        assert np.array_equal(selected[0], sq_distance_matrix(points))
        assert np.array_equal(new.indices, old.indices)
        assert np.array_equal(new.indices, uncentred.indices)
        if k < 2:
            continue
        old_scores = _scores_or_error(lambda: curvature_scores_graph(
            Graph().leaf(points), old, KernelSpec("rbf", gamma)).value[:, 0])
        new_scores = _scores_or_error(lambda: batch_curvature(points, k, KernelSpec("rbf")))
        if isinstance(old_scores, str):  # duplicates leave zero edges
            assert new_scores == old_scores
        else:
            assert np.array_equal(new_scores, old_scores)
    assert _two_pass_gamma(cases[-1][0]) == 1.0


def test_rbf_median_builds_one_distance_matrix_per_point_set(monkeypatch):
    built = []
    original = rkhs.sq_distance_matrix

    def counting(points):
        built.append(np.shape(points))
        return original(points)

    monkeypatch.setattr(rkhs, "sq_distance_matrix", counting)
    rng = np.random.default_rng(22)
    z, zp = rng.normal(size=(16, 4)), rng.normal(size=(16, 4))
    batch_curvature(z, 3, KernelSpec("rbf"))
    assert built == [(16, 4)]
    built.clear()
    total_loss_arrays(z, zp, 3, metric=KernelSpec("rbf"))
    assert built == [(16, 4), (16, 4)]


def test_neighbor_graph_lends_its_kernel_matrix_only_to_its_own_points(monkeypatch):
    from curvalign import numerics

    built = []
    original = numerics.rbf_kernel_matrix

    def counting(points, gamma):
        built.append(gamma)
        return original(points, gamma)

    monkeypatch.setattr(numerics, "rbf_kernel_matrix", counting)
    points = np.random.default_rng(25).normal(size=(20, 3))
    nb = knn_rkhs(points, 4, KernelSpec("rbf"))
    spec = nb.kernel
    plain = NeighborGraph(nb.indices)  # the same neighbors without a matrix

    def scores(z, neighbors, metric):
        return curvature_scores_graph(Graph().leaf(z), neighbors, metric).value[:, 0]

    lent = scores(points, nb, spec)
    assert built == []
    assert np.array_equal(lent, scores(points, plain, spec))
    assert built == [spec.gamma]
    built.clear()
    moved = points + 0.5 * points[::-1]  # other points, the kNN's matrix is stale
    assert np.array_equal(scores(moved, nb, spec), scores(moved, plain, spec))
    assert np.array_equal(scores(points.copy(), nb, spec), lent)  # equal values, other array
    assert built == [spec.gamma] * 3
    other = KernelSpec("rbf", 2.0 * spec.gamma)  # the kNN's array, another bandwidth
    assert np.array_equal(scores(points, nb, other), scores(points, plain, other))
    assert built[-2:] == [other.gamma] * 2


def test_normalized_gram_examples():
    e = np.array([[1.0, 0.0], [0.0, 1.0]])
    lin = normalized_gram(e, KernelSpec("linear"))
    assert np.allclose(lin, np.eye(2), atol=1e-15)

    repeated = np.array([[0.5, 0.5], [2.0, 2.0]])  # same direction, different length
    assert np.allclose(normalized_gram(repeated, KernelSpec("linear")), 1.0, atol=1e-12)

    rbf = normalized_gram(e, KernelSpec("rbf", 0.5))
    assert rbf[0, 1] == pytest.approx(0.36787944117144233, abs=1e-15)
    assert rbf[0, 0] == 1.0 and rbf[1, 1] == 1.0


def test_normalized_gram_invariants():
    rng = np.random.default_rng(9)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        edges = rng.normal(size=(k, d))
        spec = KernelSpec("linear") if rng.uniform() < 0.5 else KernelSpec("rbf", float(rng.uniform(0.1, 2.0)))
        gram = normalized_gram(edges, spec)
        assert np.max(np.abs(gram - gram.T)) <= 1e-12
        assert np.max(np.abs(np.diag(gram) - 1.0)) <= 1e-12
        assert np.max(np.abs(gram)) <= 1.0 + 1e-12


def test_rbf_normalized_gram_is_bit_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(23)
    for _ in range(50):
        k = int(rng.integers(2, 12))
        edges = rng.normal(size=(k, int(rng.integers(1, 9)))) + rng.normal(scale=100.0)
        gram = normalized_gram(edges, KernelSpec("rbf", float(rng.uniform(0.1, 2.0))))
        assert np.array_equal(gram, gram.T)
        assert np.all(np.diag(gram) == 1.0)


def test_normalized_gram_degenerate_linear_only():
    edges = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateEdgeError):
        normalized_gram(edges, KernelSpec("linear"))
    # rbf self-kernel is 1 even for a zero edge
    gram = normalized_gram(edges, KernelSpec("rbf", 1.0))
    assert gram[0, 0] == 1.0


def test_kernel_curvature_examples():
    rng = np.random.default_rng(10)
    bundle = EdgeBundle(np.zeros(3), rng.normal(size=(4, 3)))
    assert kernel_curvature_score(bundle, KernelSpec("linear")) == pytest.approx(
        curvature_score(bundle), abs=1e-12
    )
    pair = EdgeBundle(np.zeros(2), np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert kernel_curvature_score(pair, KernelSpec("rbf", 0.5)) == pytest.approx(
        0.36787944117144233, abs=1e-15
    )
    triple = EdgeBundle(np.zeros(3), np.eye(3))
    assert kernel_curvature_score(triple, KernelSpec("rbf", 0.5)) == pytest.approx(
        1.103638323514327, abs=1e-12
    )


def test_linear_reduction_on_random_bundles():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        bundle = EdgeBundle(rng.normal(size=d), rng.normal(size=(k, d)))
        assert abs(
            kernel_curvature_score(bundle, KernelSpec("linear")) - curvature_score(bundle)
        ) <= 1e-10


@pytest.mark.parametrize("metric", ["euclidean", KernelSpec("linear"), KernelSpec("rbf", 0.3)])
def test_bundle_scores_like_its_row_of_the_batch(metric):
    rng = np.random.default_rng(13)
    points = rng.normal(size=(64, 5))
    nb = knn_euclidean(points, 10)
    rows = curvature_scores_graph(Graph().leaf(points), nb, metric).value[:, 0]
    for i in range(points.shape[0]):
        bundle = edge_bundle(points, nb, i)
        if metric == "euclidean":
            score = curvature_score(bundle)
        else:
            score = kernel_curvature_score(bundle, metric)
        assert abs(score - rows[i]) <= 1e-12, i


def test_one_edge_bundle_raises_value_error():
    bundle = EdgeBundle(np.zeros(3), np.array([[1.0, 2.0, 0.5]]))
    with pytest.raises(ValueError):
        curvature_score(bundle)
    for spec in (KernelSpec("linear"), KernelSpec("rbf", 0.5)):
        with pytest.raises(ValueError):
            kernel_curvature_score(bundle, spec)


def test_bundle_without_edges_raises_value_error():
    bundle = EdgeBundle(np.zeros(3), np.zeros((0, 3)))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", 0.5)):
        with pytest.raises(ValueError, match="at least two edges"):
            kernel_curvature_score(bundle, spec)


def test_rbf_score_bounds():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        bundle = EdgeBundle(np.zeros(5), rng.normal(size=(k, 5)))
        score = kernel_curvature_score(bundle, KernelSpec("rbf", 0.8))
        assert 0.0 <= score <= k * (k - 1) / 2 + 1e-12


def test_median_heuristic():
    pts = np.array([[0.0], [1.0], [3.0]])  # pairwise distances 1, 3, 2 -> median 2
    assert median_heuristic_gamma(pts) == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert median_heuristic_gamma(np.zeros((5, 2))) == 1.0  # degenerate fallback
    spec = resolve_spec(KernelSpec("rbf"), pts)
    assert spec.gamma == pytest.approx(0.125, abs=1e-15)
    assert resolve_spec(KernelSpec("rbf", 2.0), pts).gamma == 2.0
    assert resolve_spec(KernelSpec("linear"), pts).gamma is None


def _triu_median_gamma(sq):
    """The median heuristic over every sqrt'd strict-upper-triangle entry."""
    n = len(sq)
    if n < 2:
        return 1.0
    med = float(np.median(np.sqrt(sq[np.triu_indices(n, 1)])))
    return 1.0 if med <= EDGE_FLOOR else 1.0 / (2.0 * med * med)


def test_median_gamma_is_bit_identical_to_the_median_of_all_distances():
    from curvalign.data import make_pattern_images

    rng = np.random.default_rng(26)
    grid = np.stack(np.meshgrid(np.arange(7.0), np.arange(4.0)), -1).reshape(-1, 2)
    dup = rng.normal(size=(9, 3))
    cases = [rng.normal(size=(n, 3)) for n in range(6)]  # pair counts 0, 0, 1, 3, 6, 10
    cases += [
        grid,  # integer distances, tied everywhere
        np.vstack([dup, dup[::2]]),  # exact duplicates
        np.full((6, 2), -1.5),  # all equal: the EDGE_FLOOR fallback
        make_pattern_images(3048, 10, 28, seed=31).features[:1024],  # score-eager's rows
    ]
    for points in cases:
        sq = sq_distance_matrix(points)
        before = sq.copy()
        assert rkhs._median_gamma(sq) == _triu_median_gamma(sq), len(points)
        assert np.array_equal(sq, before)
    assert rkhs._median_gamma(sq_distance_matrix(np.full((6, 2), -1.5))) == 1.0


def test_rbf_graph_gradient_through_kernel_scores():
    from curvalign.geometry import curvature_scores_graph

    rng = np.random.default_rng(13)
    pts = rng.normal(size=(7, 3))
    nb = knn_euclidean(pts, 3)
    g = Graph()
    z = g.leaf(pts, param=True)
    out = g.apply("sum", curvature_scores_graph(z, nb, KernelSpec("rbf", 0.9)))
    assert finite_diff_check(g, out, step=1e-5, tol=1e-4).passed


@pytest.mark.parametrize("metric", ["euclidean", KernelSpec("linear"), KernelSpec("rbf", 0.5),
                                    KernelSpec("rbf")], ids=["euclidean", "linear", "rbf", "rbf-median"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_raise_non_finite_error_naming_the_row(metric, bad):
    points = np.random.default_rng(24).normal(size=(10, 3))
    points[6, 1] = bad
    with pytest.raises(NonFiniteError, match="point row 6 "):
        batch_curvature(points, 3, metric)


@pytest.mark.parametrize("metric", ["euclidean", KernelSpec("linear"), KernelSpec("rbf", 0.5),
                                    KernelSpec("rbf")], ids=["euclidean", "linear", "rbf", "rbf-median"])
def test_eager_scoring_scans_the_points_once(monkeypatch, metric):
    # centred names a non-finite row before the kNN exists, so the scores'
    # leaf is not scanned again
    from curvalign import numerics

    contexts = []
    require = numerics._require_finite

    def recording(arr, context):
        contexts.append(context)
        require(arr, context)

    monkeypatch.setattr(numerics, "_require_finite", recording)
    batch_curvature(np.random.default_rng(25).normal(size=(10, 3)), 3, metric)
    assert contexts == ["primitive 'curvature'"]
