"""The cosine curvature score against its closed form on a circle.

On a circle the chord from a point to the point at angle offset theta
points at sign(theta) pi/2 + theta/2 from the radius, so a score is a sum
of cosines of angle differences (``oracles.circle_score`` and
``oracles.circle_scores_at_neighbors``): it reads no coordinate, and no
radius, rotation or translation can move it.  Each entry point the package
scores through is checked against it: ``batch_curvature``, the
``curvature`` primitive on a ``Graph`` and ``curvalign curvature`` on an
``embeddings_csv``.
"""

import math

import numpy as np
import pytest

from curvalign.cli import main
from curvalign.data import make_ring, write_csv
from curvalign.geometry import batch_curvature, knn_euclidean
from curvalign.numerics import Graph

from oracles import circle_score, circle_scores_at_neighbors

EPS = np.finfo(np.float64).eps


def _resolution(k, sq_ratio):
    """The float error a score may carry: the gram expansion resolves D^2 to
    about eps of the batch's largest entry, so each of the k(k - 1)/2 cosines
    between edges of squared length >= max(D^2) / sq_ratio carries about
    eps sq_ratio."""
    return 4.0 * k * k * EPS * sq_ratio


def _placed(xy, d, rng):
    """Planar points turned by a random orthogonal map into R^d and moved by
    a random translation."""
    frame, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return xy @ frame[:2] + rng.normal(scale=3.0, size=d)


def _circle(n, radius):
    angles = 2.0 * np.pi * np.arange(n) / n
    return angles, radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _graph_scores(points, k):
    g = Graph()
    z = g.leaf(points, param=True)
    return g.apply("curvature", z, neighbors=knn_euclidean(points, k).indices,
                   score="cosine").value[:, 0]


def _cli_scores(points, k, tmp_path):
    emb = tmp_path / "circle.csv"
    write_csv(emb, ["label"] + [f"h{j}" for j in range(points.shape[1])],
              ((0, *row) for row in points))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"k = {k}\nembeddings_csv = {emb}\n")
    assert main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "curvature.csv").read_text().splitlines()
    assert rows[0] == "index,label,euclidean,kernel"
    return np.array([float(row.split(",")[2]) for row in rows[1:]])


ENTRY_POINTS = {
    "batch_curvature": lambda points, k, tmp_path: batch_curvature(points, k),
    "graph": lambda points, k, tmp_path: _graph_scores(points, k),
    "cli": _cli_scores,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("d", [2, 32])
@pytest.mark.parametrize("radius", [0.3, 5.0])
@pytest.mark.parametrize("k", [2, 4, 10])
@pytest.mark.parametrize("n", [12, 40, 1000])
def test_evenly_spaced_circle_scores_to_the_closed_form(tmp_path, n, k, radius, d, entry):
    rng = np.random.default_rng([n, k, int(10 * radius), d])
    points = _placed(_circle(n, radius)[1], d, rng)
    got = ENTRY_POINTS[entry](points, k, tmp_path)
    # max D^2 is the squared diameter, the shortest edge the chord 2 r sin(pi / n)
    tol = _resolution(k, 1.0 / math.sin(math.pi / n) ** 2)
    assert got.shape == (n,)
    assert np.max(np.abs(got - circle_score(n, k))) <= tol


def test_circle_score_rises_from_the_straight_line_as_the_spacing_coarsens():
    # -k/2 is the line's score, which a fine spacing delta approaches (by
    # less than k^3 delta^2); each coarser spacing bends the neighborhood more
    for k in (2, 4, 10):
        scores = [circle_score(n, k) for n in (10**6, 1000, 200, 40, 24)]
        assert -k / 2 < scores[0] < -k / 2 + k**3 * (2.0 * math.pi / 10**6) ** 2
        assert scores == sorted(scores)


@pytest.mark.parametrize("k", [2, 4, 10])
def test_straight_line_scores_minus_half_k_on_interior_rows(k):
    n = 40
    interior = slice(k // 2, n - k // 2)  # rows with k/2 neighbors on each side
    line = np.arange(n, dtype=np.float64)[:, None]
    # integer positions on one axis: every D^2 is exact
    assert np.all(batch_curvature(line, k)[interior] == -k / 2)
    rng = np.random.default_rng([41, k])
    for d in (2, 32):
        points = _placed(np.hstack([0.7 * line, np.zeros_like(line)]), d, rng)
        got = batch_curvature(points, k)[interior]
        assert np.max(np.abs(got + k / 2)) <= _resolution(k, (n - 1) ** 2)


def _sq_ratio(angles, neighbors):
    """max(D^2) / the shortest squared edge, bounded above from the angles:
    the squared diameter over the shortest chord's square."""
    offsets = angles[neighbors] - angles[:, None]
    return 1.0 / np.min(np.sin(offsets / 2.0) ** 2)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("radius", [0.3, 0.45])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_scores_match_the_per_row_closed_form(seed, radius, k):
    # make_ring with ring_noise = 0 puts random angles on one circle; the
    # per-row form reads the neighbors the kNN chose
    ring = make_ring(40, 4, radius, 0.0, seed=seed)
    angles = np.arctan2(ring.features[:, 1] - 0.5, ring.features[:, 0] - 0.5)
    neighbors = knn_euclidean(ring.features, k).indices
    want = circle_scores_at_neighbors(angles, neighbors)
    tol = _resolution(k, _sq_ratio(angles, neighbors))
    assert np.max(np.abs(batch_curvature(ring.features, k) - want)) <= tol
    assert np.max(np.abs(_graph_scores(ring.features, k) - want)) <= tol


@pytest.mark.parametrize("k", [3, 5])
def test_odd_k_on_an_evenly_spaced_circle_scores_to_the_per_row_form(k):
    # one of the two neighbors at offset +-(k + 1)/2 steps is chosen by index
    # (or by the last bit of D^2); the per-row form reads which
    angles, xy = _circle(40, 2.0)
    points = _placed(xy, 32, np.random.default_rng([43, k]))
    neighbors = knn_euclidean(points, k).indices
    want = circle_scores_at_neighbors(angles, neighbors)
    tol = _resolution(k, _sq_ratio(angles, neighbors))
    assert np.max(np.abs(batch_curvature(points, k) - want)) <= tol
