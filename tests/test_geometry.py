import numpy as np
import pytest

from curvalign.data import make_pattern_images
from curvalign.errors import DegenerateEdgeError, InvariantViolationError, KTooLargeError
from curvalign.geometry import (
    EdgeBundle,
    NeighborGraph,
    batch_curvature,
    curvature_score,
    curvature_scores_graph,
    edge_bundle,
    knn_euclidean,
    knn_from_sq_distances,
    knn_metric,
    sq_distance_matrix,
)
from curvalign.numerics import _BLOCK_ELEMENTS, Graph, finite_diff_check
from curvalign.rkhs import KernelSpec

from oracles import curvature_at_neighbors, curvature_per_point, knn_full_sort

LINE = np.array([[0.0], [1.0], [3.0]])


def test_knn_on_a_line():
    assert knn_euclidean(LINE, 1).indices.ravel().tolist() == [1, 0, 1]
    assert knn_euclidean(LINE, 2).indices.tolist() == [[1, 2], [0, 2], [1, 0]]


def test_knn_tie_breaks_by_index():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    # rows 1, 2, 3 are all at distance 1 from row 0
    assert knn_euclidean(pts, 3).indices[0].tolist() == [1, 2, 3]
    dup = np.array([[0.0], [5.0], [0.0], [0.0]])
    # exact duplicates of row 0 at distance zero, lower index first
    assert knn_euclidean(dup, 2).indices[0].tolist() == [2, 3]


def test_tied_and_untied_rows_of_one_block_match_the_full_sort():
    # grid rows have ties straddling position k (the stable-sort fallback),
    # loose rows do not (the flat scan); the loose points lie inside the
    # grid's range, so the midrange and the grid's D^2 stay exact
    rng = np.random.default_rng(27)
    grid = np.stack(np.meshgrid(np.arange(9.0), np.arange(7.0)), -1).reshape(-1, 2)
    points = np.vstack([grid, rng.uniform(2.0, 5.0, size=(20, 2))])
    k = 3
    d2 = sq_distance_matrix(points)
    assert d2.size <= _BLOCK_ELEMENTS  # one selection block
    ranked = np.sort(d2 + np.diag(np.full(len(points), np.inf)), axis=1)
    tied = ranked[:, k - 1] == ranked[:, k]
    assert tied.any() and not tied.all()
    assert np.array_equal(knn_from_sq_distances(d2, k).indices, knn_full_sort(points, k))


def test_knn_k_too_large():
    with pytest.raises(KTooLargeError):
        knn_euclidean(LINE, 3)
    with pytest.raises(KTooLargeError):
        batch_curvature(LINE, 5)


def test_knn_matches_full_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        b = int(rng.integers(4, 65))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(b, 9)))
        pts = rng.uniform(-1, 1, size=(b, d))
        assert np.array_equal(knn_euclidean(pts, k).indices, knn_full_sort(pts, k))


def test_knn_tie_heavy_matches_full_sort_oracle():
    # grid points: most distances tie, many points coincide, and ties often
    # straddle the k-th neighbor
    rng = np.random.default_rng(12)
    for _ in range(60):
        b = int(rng.integers(4, 65))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(b, 9)))
        grid = rng.integers(0, 3, size=(b, d)).astype(np.float64)
        assert np.array_equal(knn_euclidean(grid, k).indices, knn_full_sort(grid, k))


def test_knn_selection_in_row_blocks_matches_full_sort_oracle(monkeypatch):
    # blocks of a few rows: every batch below spans several, and ties
    # straddle the k-th neighbor within and across them
    import curvalign.geometry as geometry

    monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", 64)
    rng = np.random.default_rng(13)
    for _ in range(40):
        b = int(rng.integers(4, 65))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(b, 9)))
        for pts in (rng.uniform(-1, 1, size=(b, d)),
                    rng.integers(0, 3, size=(b, d)).astype(np.float64)):
            assert np.array_equal(knn_euclidean(pts, k).indices, knn_full_sort(pts, k))


def test_eager_scoring_saves_no_residuals():
    # a node that depends on a parameter saves its (b, b) pair matrix;
    # scoring without a parameter keeps none
    import tracemalloc

    points = np.random.default_rng(14).normal(size=(1024, 784))
    for metric in ("euclidean", KernelSpec("rbf")):
        nb = knn_metric(points, 10, metric)
        g = Graph()
        curvature_scores_graph(g.leaf(points), nb, nb.metric)
        assert not any(n.active or n.saved is not None for n in g.nodes)
        del g, nb
        tracemalloc.start()
        try:
            batch_curvature(points, 10, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, f"{metric}: peak {peak / 2**20:.1f} MiB"


def test_neighbor_graph_validation():
    with pytest.raises(ValueError):
        NeighborGraph(np.array([[0], [0]]))  # row 0 lists itself
    with pytest.raises(ValueError):
        NeighborGraph(np.array([[5], [0]]))  # out of range


def test_curvature_score_examples():
    origin = np.zeros(2)
    assert curvature_score(EdgeBundle(origin, np.array([[1.0, 0.0], [0.0, 1.0]]))) == pytest.approx(0.0, abs=1e-12)
    colinear = EdgeBundle(origin, np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    assert curvature_score(colinear) == pytest.approx(3.0, abs=1e-12)
    cross = EdgeBundle(origin, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    assert curvature_score(cross) == pytest.approx(-2.0, abs=1e-12)
    pair45 = EdgeBundle(origin, np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert curvature_score(pair45) == pytest.approx(0.7071067811865476, abs=1e-12)


def test_curvature_bound():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        bundle = EdgeBundle(rng.normal(size=d), rng.normal(size=(k, d)))
        assert abs(curvature_score(bundle)) <= k * (k - 1) / 2 + 1e-12


def _random_rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def test_rigid_motion_invariance():
    rng = np.random.default_rng(2)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        center = rng.normal(size=d)
        neighbors = center + rng.normal(size=(k, d))
        rot = _random_rotation(rng, d)
        shift = rng.normal(size=d)
        base = curvature_score(EdgeBundle(center, neighbors - center))
        moved_center = rot @ center + shift
        moved_neighbors = neighbors @ rot.T + shift
        moved = curvature_score(EdgeBundle(moved_center, moved_neighbors - moved_center))
        assert abs(base - moved) <= 1e-10


def test_scale_invariance_about_center():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 9))
        d = int(rng.integers(2, 17))
        edges = rng.normal(size=(k, d))
        s = float(rng.uniform(0.01, 100.0))
        assert abs(
            curvature_score(EdgeBundle(np.zeros(d), edges))
            - curvature_score(EdgeBundle(np.zeros(d), s * edges))
        ) <= 1e-10


def test_degenerate_edge_raises():
    bundle = EdgeBundle(np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(DegenerateEdgeError):
        curvature_score(bundle)
    dup_points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DegenerateEdgeError):
        batch_curvature(dup_points, 2)


def test_short_edges_score_to_the_oracle_or_raise():
    # the gram expansion resolves D^2 to about 1e-16 of the spread^2: an edge
    # down to 1e-4 of the spread still scores to 1e-6, a shorter one raises
    rng = np.random.default_rng(15)
    outcomes = []
    for b, d in ((64, 5), (128, 32)):
        base = rng.normal(size=(b, d))
        spread = np.sqrt(max(np.sum((p - q) ** 2) for p in base for q in base))
        for ratio in np.logspace(-3, -12, 10):
            pts = base.copy()
            step = rng.normal(size=d)
            pts[1] = pts[0] + ratio * spread * step / np.linalg.norm(step)
            want = curvature_per_point(pts, 10, "euclidean", None)
            try:
                got = batch_curvature(pts, 10)
            except DegenerateEdgeError as err:
                assert str(err).startswith("row ") and ": edge to neighbor " in str(err), err
                outcomes.append((ratio, "raised"))
                continue
            assert np.max(np.abs(got - want)) <= 1e-6, (b, d, ratio)
            outcomes.append((ratio, "scored"))
    assert (1e-3, "scored") in outcomes and (1e-12, "raised") in outcomes
    edges = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e-9, 0.0, 0.0]])
    with pytest.raises(DegenerateEdgeError, match="row 0: edge to neighbor 2"):
        curvature_score(EdgeBundle(np.zeros(3), edges))


def test_batch_curvature_unit_square():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    # k=3: each corner sees one right angle and two 45-degree angles
    expected = 2.0 * np.cos(np.pi / 4.0)
    assert np.allclose(batch_curvature(square, 3), expected, atol=1e-12)
    assert expected == pytest.approx(1.4142135623730951, abs=1e-12)
    # k=2: the two nearest corners are orthogonal
    assert np.allclose(batch_curvature(square, 2), 0.0, atol=1e-12)


def test_batch_curvature_line_interior_point():
    scores = batch_curvature(np.array([[0.0], [1.0], [2.0]]), 2)
    # opposite-side neighbors of the interior point contribute cos(pi) = -1
    assert scores[1] == pytest.approx(-1.0, abs=1e-12)
    assert scores[0] == pytest.approx(1.0, abs=1e-12)
    assert scores[2] == pytest.approx(1.0, abs=1e-12)


def test_linear_kernel_metric_equals_euclidean():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(16, 5))
    euclid = batch_curvature(pts, 4, "euclidean")
    linear = batch_curvature(pts, 4, KernelSpec("linear"))
    assert np.max(np.abs(euclid - linear)) <= 1e-10


def test_batch_curvature_rejects_metric_names_other_than_euclidean():
    pts = np.random.default_rng(5).normal(size=(8, 3))
    for metric in ("rbf", "linear", "cosine", None):
        with pytest.raises(InvariantViolationError, match=repr(metric)):
            batch_curvature(pts, 3, metric)
        with pytest.raises(InvariantViolationError, match=repr(metric)):
            curvature_scores_graph(Graph().leaf(pts), knn_euclidean(pts, 3), metric)


def test_graph_scores_match_eager_scores():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(12, 5))
    for metric in ("euclidean", KernelSpec("rbf", 0.7)):
        eager = batch_curvature(pts, 4, metric)
        g = Graph()
        z = g.leaf(pts)
        nb = knn_euclidean(pts, 4)
        graph_scores = curvature_scores_graph(z, nb, metric).value.ravel()
        assert np.max(np.abs(eager - graph_scores)) <= 1e-12


def test_graph_scores_raise_on_duplicated_points():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    nb = knn_euclidean(pts, 2)
    for metric in ("euclidean", KernelSpec("linear")):
        g = Graph()
        with pytest.raises(DegenerateEdgeError, match="row 0: edge to neighbor 0"):
            curvature_scores_graph(g.leaf(pts, param=True), nb, metric)


def test_fused_scores_match_straight_line_oracle():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(64, 5))
    for metric, kind, gamma in (
        ("euclidean", "euclidean", None),
        (KernelSpec("linear"), "linear", None),
        (KernelSpec("rbf", 0.3), "rbf", 0.3),
    ):
        want = curvature_per_point(pts, 10, kind, gamma)
        assert np.max(np.abs(batch_curvature(pts, 10, metric) - want)) <= 1e-12
        nb = NeighborGraph(knn_full_sort(pts, 10))
        got = curvature_scores_graph(Graph().leaf(pts), nb, metric).value.ravel()
        assert np.max(np.abs(got - want)) <= 1e-12


def _oracle_cases():
    rng = np.random.default_rng(41)
    small = rng.normal(size=(64, 8))
    return [(rng.normal(size=(256, 32)), 20), (make_pattern_images(1024, 10, 28, seed=41).features, 10),
            (small, 2), (small, 63)]


@pytest.mark.parametrize("case", range(4), ids=["256x32-k20", "1024x784-k10", "k=2", "k=b-1"])
def test_unordered_pair_sums_match_the_per_row_oracle(case):
    # each neighbor pair is scored once; the oracle sums every pair's cosine
    # or kernel from the edges themselves, with fsum
    points, k = _oracle_cases()[case]
    for metric in ("euclidean", KernelSpec("rbf")):
        knn = knn_metric(points, k, metric)
        gamma = None if knn.kernel is None else knn.kernel.gamma
        want = curvature_at_neighbors(points, knn.indices, "cosine" if gamma is None else "rbf", gamma)
        got = batch_curvature(points, k, metric)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (case, metric)


def test_a_neighbor_repeated_in_every_row_scores_to_the_oracle():
    rng = np.random.default_rng(42)
    points = rng.normal(size=(256, 32))
    repeated = knn_euclidean(points, 20).indices
    repeated[:, -1] = repeated[:, 0]  # a pair of equal edges in every row: its term is 1
    for metric, kind, gamma in (("euclidean", "cosine", None), (KernelSpec("rbf", 0.02), "rbf", 0.02)):
        want = curvature_at_neighbors(points, repeated, kind, gamma)
        got = curvature_scores_graph(Graph().leaf(points), NeighborGraph(repeated), metric).value[:, 0]
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), metric


def test_a_short_edge_in_the_last_row_block_names_its_batch_row():
    points = np.random.default_rng(43).normal(size=(1024, 8))
    points[1023] = points[1022]  # rows 1022 and 1023: each the other's zero edge
    with pytest.raises(DegenerateEdgeError, match="^row 1022: edge to neighbor 0 "):
        batch_curvature(points, 10)


def test_graph_scores_gradient():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(8, 3))
    nb = knn_euclidean(pts, 3)
    for metric in ("euclidean", KernelSpec("rbf", 0.5)):
        g = Graph()
        z = g.leaf(pts, param=True)
        weights = g.leaf(rng.uniform(0.5, 1.5, size=(8, 1)))
        out = (curvature_scores_graph(z, nb, metric) * weights).sum()
        report = finite_diff_check(g, out, step=1e-5, tol=1e-4)
        assert report.passed, report.per_leaf


def test_edge_bundle_helper():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    nb = knn_euclidean(pts, 2)
    bundle = edge_bundle(pts, nb, 0)
    assert np.array_equal(bundle.center, [0.0, 0.0])
    assert np.array_equal(bundle.edges, [[2.0, 0.0], [0.0, 3.0]])
