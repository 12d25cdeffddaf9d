"""Straight-line reference implementations, independent of the package.

Everything here is written with explicit loops and scalar math on purpose:
these functions are the oracles the library is checked against, so they
share no code with it.
"""

import math
import operator
import statistics

import numpy as np


def knn_full_sort(points, k):
    """kNN by sorting full (distance, index) lists per row."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    out = []
    for i in range(n):
        ranked = sorted(
            (math.dist(points[i], points[j]), j) for j in range(n) if j != i
        )
        out.append([j for _, j in ranked[:k]])
    return np.asarray(out, dtype=np.int64)


def kernel_value(kind, gamma, a, b):
    if kind == "linear":
        return sum(x * y for x, y in zip(a, b))
    d2 = sum((x - y) ** 2 for x, y in zip(a, b))
    return math.exp(-gamma * d2)


def knn_kernel_full_sort(points, k, kind, gamma):
    """kNN by the kernel-induced distance, same full-sort strategy."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    out = []
    for i in range(n):
        ranked = []
        for j in range(n):
            if j == i:
                continue
            d2 = (
                kernel_value(kind, gamma, points[i], points[i])
                - 2.0 * kernel_value(kind, gamma, points[i], points[j])
                + kernel_value(kind, gamma, points[j], points[j])
            )
            ranked.append((math.sqrt(max(d2, 0.0)), j))
        ranked.sort()
        out.append([j for _, j in ranked[:k]])
    return np.asarray(out, dtype=np.int64)


def curvature_per_point(points, k, kind, gamma):
    """Curvature score of every point: pairwise cosine (or normalized
    kernel) over edges to the k nearest neighbors."""
    points = np.asarray(points, dtype=float)
    if kind == "euclidean":
        neighbors = knn_full_sort(points, k)
    else:
        neighbors = knn_kernel_full_sort(points, k, kind, gamma)
    scores = []
    for i in range(points.shape[0]):
        edges = [points[j] - points[i] for j in neighbors[i]]
        total = 0.0
        for a in range(k - 1):
            for b in range(a + 1, k):
                if kind == "rbf":
                    total += kernel_value("rbf", gamma, edges[a], edges[b]) / math.sqrt(
                        kernel_value("rbf", gamma, edges[a], edges[a])
                        * kernel_value("rbf", gamma, edges[b], edges[b])
                    )
                else:
                    num = sum(x * y for x, y in zip(edges[a], edges[b]))
                    na = math.sqrt(sum(x * x for x in edges[a]))
                    nb = math.sqrt(sum(x * x for x in edges[b]))
                    total += num / (na * nb)
        scores.append(total)
    return np.asarray(scores)


def curvature_at_neighbors(points, neighbors, kind, gamma):
    """Curvature score of every row of ``points`` against the given neighbor
    table (row i lists row i's neighbors, repeats allowed): the sum over its
    unordered edge pairs of the cosine, or for rbf of the kernel of the two
    edges (each edge's self-kernel is 1), each product summed with fsum."""
    points = np.asarray(points, dtype=float)
    scores = []
    for i, row in enumerate(np.asarray(neighbors)):
        center = points[i].tolist()
        edges = [[x - c for x, c in zip(points[j].tolist(), center)] for j in row]
        lengths = [math.hypot(*e) for e in edges]
        terms = []
        for a in range(len(edges) - 1):
            for b in range(a + 1, len(edges)):
                if kind == "rbf":
                    terms.append(math.exp(-gamma * math.dist(edges[a], edges[b]) ** 2))
                else:
                    dot = math.fsum(map(operator.mul, edges[a], edges[b]))
                    terms.append(dot / (lengths[a] * lengths[b]))
        scores.append(math.fsum(terms))
    return np.asarray(scores)


def median_gamma(points):
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    dists = [
        math.dist(points[i], points[j]) for i in range(n) for j in range(i + 1, n)
    ]
    med = statistics.median(dists)
    if med <= 1e-12:
        return 1.0
    return 1.0 / (2.0 * med * med)


def standardize_columns(z, eps):
    z = np.asarray(z, dtype=float)
    b, d = z.shape
    out = np.empty_like(z)
    for u in range(d):
        col = z[:, u]
        mu = sum(col) / b
        var = sum((v - mu) ** 2 for v in col) / b
        sigma = math.sqrt(var)
        for i in range(b):
            out[i, u] = (col[i] - mu) / (sigma + eps)
    return out


def reference_total_loss(z, zp, k, kind, gamma, lam_emb, lam_curv, alpha, eps):
    """The whole objective, reimplemented end to end with loops.

    kind is "euclidean", "linear" or "rbf"; gamma may be None for the
    per-view median heuristic.
    """
    z = np.asarray(z, dtype=float)
    zp = np.asarray(zp, dtype=float)
    b, d = z.shape

    zt = standardize_columns(z, eps)
    zpt = standardize_columns(zp, eps)
    emb_diag = 0.0
    emb_off = 0.0
    for u in range(d):
        for v in range(d):
            c_uv = sum(zt[i, u] * zpt[i, v] for i in range(b)) / b
            if u == v:
                emb_diag += (c_uv - 1.0) ** 2
            else:
                emb_off += c_uv ** 2

    def scores(view):
        g = gamma
        if kind == "rbf" and g is None:
            g = median_gamma(view)
        return curvature_per_point(view, k, kind, g)

    ct = standardize_columns(scores(z).reshape(-1, 1), eps).ravel()
    ctp = standardize_columns(scores(zp).reshape(-1, 1), eps).ravel()
    curv_diag = 0.0
    curv_off = 0.0
    for i in range(b):
        for j in range(b):
            m_ij = ct[i] * ctp[j] / b
            if i == j:
                curv_diag += (m_ij - 1.0) ** 2
            else:
                curv_off += m_ij ** 2

    total = emb_diag + lam_emb * emb_off + alpha * (curv_diag + lam_curv * curv_off)
    return total, emb_diag, emb_off, curv_diag, curv_off


def augment_whole_batch(x, noise_sigma, mask_fraction, shift_max, image_shape, rng):
    """One augmented view with each stage's draws made for the whole (b, d)
    batch at once, in the package's stream order: every row's (dy, dx)
    shift, then one uniform per coordinate whose n_mask smallest per row
    are zeroed, then one Gaussian per coordinate; then a clamp to [0, 1]."""
    out = np.array(x, dtype=float, ndmin=2)
    b, d = out.shape
    if image_shape is not None and shift_max > 0:
        rows, cols = image_shape
        shifts = rng.integers(-shift_max, shift_max + 1, size=(b, 2))
        shifted = np.zeros_like(out)
        for i in range(b):
            dy, dx = (int(v) for v in shifts[i])
            for y in range(rows):
                for c in range(cols):
                    if 0 <= y - dy < rows and 0 <= c - dx < cols:
                        shifted[i, y * cols + c] = out[i, (y - dy) * cols + c - dx]
        out = shifted
    n_mask = int(mask_fraction * d)
    if n_mask > 0:
        ranks = rng.random((b, d))
        for i in range(b):
            for j in sorted(range(d), key=lambda j: ranks[i, j])[:n_mask]:
                out[i, j] = 0.0
    if noise_sigma > 0.0:
        out += rng.normal(0.0, noise_sigma, size=(b, d))
    return np.clip(out, 0.0, 1.0).reshape(np.shape(x))


def shift_batch_grouped(x, shift_max, image_shape, rng):
    """Each image row shifted by its own (dy, dx) in [-s, s]^2 with zero
    fill, drawn as one (b, 2) ``integers`` call; rows grouped by offset and
    each group moved by one slice assignment.  Holds only for
    shift_max < min(image_shape)."""
    rows, cols = image_shape
    s = shift_max
    shifts = rng.integers(-s, s + 1, size=(x.shape[0], 2))
    imgs = x.reshape(-1, rows, cols)
    shifted = np.zeros_like(imgs)
    offsets, group = np.unique(shifts, axis=0, return_inverse=True)
    for g, (dy, dx) in enumerate(offsets):
        members = np.flatnonzero(group == g)
        src_y = slice(max(0, -dy), rows - max(0, dy))
        src_x = slice(max(0, -dx), cols - max(0, dx))
        dst_y = slice(max(0, dy), rows - max(0, -dy))
        dst_x = slice(max(0, dx), cols - max(0, -dx))
        shifted[members, dst_y, dst_x] = imgs[members, src_y, src_x]
    return shifted.reshape(x.shape)


def adam_whole_arrays(params, grads, m, v, t, lr, weight_decay):
    """One Adam step as whole-array expressions over dicts of arrays:
    (params, m, v), each new.  Betas 0.9 and 0.999, eps 1e-8 outside the
    square root, weight decay added to the gradient first."""
    c1 = 1.0 - 0.9 ** t
    c2 = 1.0 - 0.999 ** t
    out = ({}, {}, {})
    for name in params:
        g = grads[name]
        if weight_decay != 0.0:
            g = g + weight_decay * params[name]
        new_m = 0.9 * m[name] + (1.0 - 0.9) * g
        new_v = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
        new = params[name] - lr * (new_m / c1) / (np.sqrt(new_v / c2) + 1e-8)
        for store, value in zip(out, (new, new_m, new_v)):
            store[name] = value
    return out


def pattern_images_loop(n, num_classes, side, rng, max_shift=8, contrast_range=(0.5, 1.0),
                        noise=0.05):
    """The pattern-image features drawn and finished one image at a time:
    the class templates (4 waves each: 2 integer frequencies, a phase and
    an amplitude, shifted to min 0 and scaled to max 1), then per image
    its (dy, dx) roll, its contrast uniform and its (side, side) noise,
    clipped to [0, 1].  Image i is of class i % num_classes."""
    yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    templates = []
    for _ in range(num_classes):
        img = np.zeros((side, side))
        for _ in range(4):
            fy, fx = rng.integers(1, 4, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.5, 1.0)
            img += amp * np.cos(2.0 * np.pi * (fy * yy + fx * xx) / side + phase)
        img -= img.min()
        img /= img.max()
        templates.append(img)
    feats = np.empty((n, side * side))
    for i in range(n):
        dy, dx = rng.integers(-max_shift, max_shift + 1, size=2)
        img = np.roll(templates[i % num_classes], (dy, dx), axis=(0, 1))
        img = img * rng.uniform(*contrast_range)
        if noise > 0.0:
            img = img + rng.normal(0.0, noise, size=img.shape)
        feats[i] = np.clip(img, 0.0, 1.0).reshape(-1)
    return feats
