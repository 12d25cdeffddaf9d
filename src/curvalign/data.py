"""Datasets, two-view augmentation and deterministic batching.

Randomness contract: everything derives from one root seed through
``stream(seed, *path)``, which builds an independent generator per path.
Augmentation is keyed per (epoch, batch, view): one stream draws a view
for every row of a batch.  Reordering parallel work can therefore never
change a single draw.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import (
    BadMagicError,
    BatchTooSmallError,
    CountMismatchError,
    InvalidCountsError,
    InvariantViolationError,
    IoFailureError,
    NonFiniteError,
    ShapeMismatchError,
    TruncatedFileError,
)

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049


def stream(seed: int, *path) -> np.random.Generator:
    """Deterministic generator for a (seed, purpose, epoch, ...) path."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for part in path:
        if isinstance(part, str):
            digest = hashlib.sha256(part.encode("utf-8")).digest()
            entropy.append(int.from_bytes(digest[:8], "big"))
        else:
            entropy.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass
class Dataset:
    features: np.ndarray   # (n, d) float64 in [0, 1]
    labels: np.ndarray     # (n,) int64
    name: str
    num_classes: int
    image_shape: Optional[tuple[int, int]] = None  # set when rows are images

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise CountMismatchError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if self.features.size and not (self.features.min() >= 0.0 and self.features.max() <= 1.0):
            raise ValueError("feature values must lie in [0, 1]")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


# ---------------------------------------------------------------------------
# IDX ingestion
# ---------------------------------------------------------------------------

def _read_be32(buf: bytes, offset: int, path) -> int:
    if offset + 4 > len(buf):
        raise TruncatedFileError(f"{path}: header ends early")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label pair (the MNIST container format).

    Big-endian headers: images carry magic 2051 then count/rows/cols,
    labels carry magic 2049 then count.  Pixels are scaled to [0, 1] and
    flattened row-major.
    """
    try:
        img_buf = Path(images_path).read_bytes()
        lab_buf = Path(labels_path).read_bytes()
    except OSError as err:
        raise IoFailureError(f"cannot read IDX data: {err}") from None

    magic = _read_be32(img_buf, 0, images_path)
    if magic != IMAGE_MAGIC:
        raise BadMagicError(f"{images_path}: magic {magic}, expected {IMAGE_MAGIC}")
    count = _read_be32(img_buf, 4, images_path)
    rows = _read_be32(img_buf, 8, images_path)
    cols = _read_be32(img_buf, 12, images_path)
    if len(img_buf) < 16 + count * rows * cols:
        raise TruncatedFileError(f"{images_path}: payload shorter than header promises")

    lab_magic = _read_be32(lab_buf, 0, labels_path)
    if lab_magic != LABEL_MAGIC:
        raise BadMagicError(f"{labels_path}: magic {lab_magic}, expected {LABEL_MAGIC}")
    lab_count = _read_be32(lab_buf, 4, labels_path)
    if lab_count != count:
        raise CountMismatchError(f"{count} images vs {lab_count} labels")
    if len(lab_buf) < 8 + count:
        raise TruncatedFileError(f"{labels_path}: payload shorter than header promises")

    pixels = np.frombuffer(img_buf, dtype=np.uint8, count=count * rows * cols, offset=16)
    features = pixels.reshape(count, rows * cols).astype(np.float64)
    features /= 255.0
    labels = np.frombuffer(lab_buf, dtype=np.uint8, count=count, offset=8).astype(np.int64)
    return Dataset(
        features,
        labels,
        name="idx",
        num_classes=int(labels.max()) + 1 if count else 0,
        image_shape=(rows, cols),
    )


def save_idx(features01: np.ndarray, labels: np.ndarray, rows: int, cols: int,
             images_path, labels_path) -> None:
    """Write features in [0, 1] and labels as an IDX image/label pair.

    Pixels are ``round(255 * f)`` clipped to [0, 255].  Before any byte is
    written it checks what the format cannot hold: one label per row
    (CountMismatchError), integer labels in [0, 255], the range of the
    format's one-byte label (InvariantViolationError), and finite features
    (NonFiniteError)."""
    feats = np.asarray(features01, dtype=np.float64)
    labs = np.asarray(labels)
    n = feats.shape[0]
    if feats.shape[1] != rows * cols:
        raise ValueError(f"features have {feats.shape[1]} columns, expected {rows * cols}")
    if labs.shape != (n,):
        raise CountMismatchError(f"{n} feature rows vs labels of shape {labs.shape}")
    if n and (labs.dtype.kind not in "iu" or labs.min() < 0 or labs.max() > 255):
        raise InvariantViolationError(
            f"IDX labels must be integers in [0, 255], got {labs.dtype} "
            f"in [{labs.min()}, {labs.max()}]"
        )
    if feats.size and not np.isfinite([feats.min(), feats.max()]).all():
        raise NonFiniteError("IDX features must be finite")
    scaled = feats * 255.0  # the one float64 copy: scaled, rounded and clipped in place
    np.rint(scaled, out=scaled)
    np.clip(scaled, 0, 255, out=scaled)
    pixels = scaled.astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        f.write(pixels.data)
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, n))
        f.write(labs.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic datasets
# ---------------------------------------------------------------------------

def _round_robin_labels(n: int, num_classes: int) -> np.ndarray:
    """0, 1, ..., num_classes - 1, 0, 1, ... for n samples; owns n >= num_classes >= 2."""
    if not n >= num_classes >= 2:
        raise InvalidCountsError(f"need n >= num_classes >= 2, got n={n}, classes={num_classes}")
    return np.arange(n, dtype=np.int64) % num_classes


def _require_noise_scale(key: str, value: float) -> None:
    """A dataset's noise scale, named by its config key, lies in [0, inf)."""
    if not 0.0 <= value < np.inf:
        raise InvariantViolationError(f"{key} must be >= 0 and finite, got {value}")


def make_blobs(n: int, num_classes: int, d: int, spread: float, seed: int) -> Dataset:
    """Gaussian clusters at seeded random centers inside the unit box."""
    labels = _round_robin_labels(n, num_classes)
    if d < 1:
        raise InvariantViolationError(f"blobs_dim must be >= 1, got {d}")
    _require_noise_scale("blobs_spread", spread)
    rng = stream(seed, "blobs")
    centers = rng.uniform(0.25, 0.75, size=(num_classes, d))
    feats = centers[labels]
    if spread > 0.0:
        feats = feats + rng.normal(0.0, spread, size=(n, d))
    feats = np.clip(feats, 0.0, 1.0)
    return Dataset(feats, labels, name="blobs", num_classes=num_classes)


def make_ring(n: int, num_classes: int, radius: float, noise: float, seed: int) -> Dataset:
    """Points on per-class arcs of a circle (centered in the unit square)
    with radial noise."""
    labels = _round_robin_labels(n, num_classes)
    _require_noise_scale("ring_noise", noise)
    rng = stream(seed, "ring")
    arc = 2.0 * np.pi / num_classes
    theta = labels * arc + rng.uniform(0.0, arc, size=n)
    r = radius + (rng.normal(0.0, noise, size=n) if noise > 0.0 else 0.0)
    feats = np.stack([0.5 + r * np.cos(theta), 0.5 + r * np.sin(theta)], axis=1)
    feats = np.clip(feats, 0.0, 1.0)
    return Dataset(feats, labels, name="ring", num_classes=num_classes)


# elements of one row block (256 KiB of float64): the pattern generator and
# augmentation draw and finish their rows block after block, so their
# temporaries stay small while the draws come in the order of one (n, d) draw
_BLOCK_ELEMENTS = 1 << 15


def make_pattern_images(
    n: int,
    num_classes: int,
    side: int,
    seed: int,
    max_shift: int = 8,
    contrast_range: tuple[float, float] = (0.5, 1.0),
    noise: float = 0.05,
) -> Dataset:
    """Cyclically shifted low-frequency class templates as side x side images.

    Each class owns a smooth random template; a sample is that template
    rolled by a random 2-d offset, contrast-scaled and noised.  Class
    information sits in the spatial frequency content rather than in any
    fixed pixel, which makes raw-pixel linear classification hard while the
    class manifold (a torus of shifts) stays simple.

    Randomness contract: one stream, ``stream(seed, "patterns")``, first
    draws the templates class by class (4 waves, each 2 integers and 2
    uniforms), then each image in row order draws, in this order,
    ``integers(-max_shift, max_shift + 1, size=2)`` for its roll (dy, dx),
    ``uniform(lo, hi)`` for its contrast c and, when ``noise > 0``, a
    (side, side) ``normal(0, noise)`` draw z; pixel p is
    ``clip(rolled[p] * c + z[p], 0, 1)``.  The uniform is taken as numpy
    computes it, lo + (hi - lo) * u from one double u, and the normal as
    0.0 + noise * z from side² standard normals.  Rows are finished in
    blocks, so no (n, d) temporary is made besides the output.
    """
    labels = _round_robin_labels(n, num_classes)
    if side < 1 or max_shift < 0:
        raise InvariantViolationError(
            f"patterns_side must be >= 1 and patterns_shift >= 0, got {side} and {max_shift}"
        )
    _require_noise_scale("patterns_noise", noise)
    lo, hi = contrast_range
    if not (lo <= hi and np.isfinite(hi - lo)):
        raise InvariantViolationError(
            "patterns_contrast_min and patterns_contrast_max must be finite and ordered, "
            f"with a finite range, got {contrast_range}"
        )
    rng = stream(seed, "patterns")
    yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    templates = []
    for label in range(num_classes):
        img = np.zeros((side, side))
        for _ in range(4):
            fy, fx = rng.integers(1, 4, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.5, 1.0)
            img += amp * np.cos(2.0 * np.pi * (fy * yy + fx * xx) / side + phase)
        img -= img.min()
        peak = img.max()
        if not peak > 0.0:
            raise InvariantViolationError(
                f"patterns_side = {side} makes the template of class {label} constant"
            )
        img /= peak
        templates.append(img)
    # np.roll(t, (dy, dx)) is the window of the 2 x 2 tiling of t at ((-dy) % side, (-dx) % side)
    tiles = np.tile(np.stack(templates), (1, 2, 2))
    d = side * side
    feats = np.empty((n, d))
    images = feats.reshape(n, side, side)
    step = max(1, _BLOCK_ELEMENTS // d)
    contrast = np.empty((step, 1))
    draws = np.empty((step, d))
    for start in range(0, n, step):
        stop = min(start + step, n)
        for j, label in enumerate(labels[start:stop].tolist()):
            dy, dx = rng.integers(-max_shift, max_shift + 1, size=2).tolist()
            contrast[j] = rng.random()
            if noise > 0.0:
                rng.standard_normal(out=draws[j])
            y0, x0 = -dy % side, -dx % side
            images[start + j] = tiles[label, y0:y0 + side, x0:x0 + side]
        block, m = feats[start:stop], stop - start
        c = contrast[:m]
        c *= hi - lo
        c += lo
        block *= c
        if noise > 0.0:
            z = draws[:m]
            z *= noise
            z += 0.0  # normal(0, noise)'s 0.0 + noise * z, which turns -0.0 into 0.0
            block += z
        np.clip(block, 0.0, 1.0, out=block)
    return Dataset(feats, labels, name="patterns", num_classes=num_classes,
                   image_shape=(side, side))


def write_csv(path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """The package's one CSV format, in ASCII: a header line, then one line
    per row, each integer cell written with ``str`` and every other cell
    with ``repr(float(v))``, so every value parses back exactly."""
    with open(path, "w", encoding="ascii") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            cells = (str(v) if isinstance(v, (int, np.integer)) else repr(float(v)) for v in row)
            f.write(",".join(cells) + "\n")


def save_dataset_csv(dataset: Dataset, path) -> None:
    """CSV export: header label,f0,f1,..., one row per sample."""
    header = ["label"] + [f"f{i}" for i in range(dataset.dim)]
    write_csv(path, header, ((label, *row) for label, row in zip(dataset.labels, dataset.features)))


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AugmentationPolicy:
    noise_sigma: float = 0.1
    mask_fraction: float = 0.1
    shift_max: int = 2
    image_shape: Optional[tuple[int, int]] = None  # shift applies only to images

    def __post_init__(self):
        if not 0.0 <= self.noise_sigma < np.inf:
            raise InvariantViolationError(
                f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}"
            )
        if not 0.0 <= self.mask_fraction < 1.0:
            raise InvariantViolationError("mask_fraction must lie in [0, 1)")
        if self.shift_max < 0:
            raise InvariantViolationError(f"shift_max must be >= 0, got {self.shift_max}")


def _shift_batch(batch: np.ndarray, policy: AugmentationPolicy,
                 rng: np.random.Generator) -> np.ndarray:
    """Shift each image row by its own (dy, dx) in [-s, s]^2, zero-filling
    what slides in: pixel (y, x) of the output is pixel (y - dy, x - dx) of
    the input, or 0.  The batch is copied once into a zero border of s
    pixels, and each row's output is its window at (s - dy, s - dx), taken
    for all rows by one fancy index, so the numpy calls do not grow with
    the number of distinct offsets."""
    rows, cols = policy.image_shape
    s = policy.shift_max
    b = batch.shape[0]
    shifts = rng.integers(-s, s + 1, size=(b, 2))
    padded = np.zeros((b, rows + 2 * s, cols + 2 * s))
    padded[:, s:s + rows, s:s + cols] = batch.reshape(b, rows, cols)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (rows, cols), axis=(1, 2))
    return windows[np.arange(b), s - shifts[:, 0], s - shifts[:, 1]].reshape(batch.shape)


def augment_view(x: np.ndarray, policy: AugmentationPolicy, rng: np.random.Generator) -> np.ndarray:
    """One stochastic view of a (d,) row or of every row of a (b, d) batch:
    pixel shift (zero-fill), coordinate masking, Gaussian noise, then clamp
    to [0, 1].  Consumes only the given stream, each stage drawing for
    every row in row order (in row blocks, so its temporaries stay small)
    before the next stage draws; a (d,) row draws exactly as a 1-row batch.
    A set ``image_shape`` must hold exactly d pixels (ShapeMismatchError)."""
    batch = np.atleast_2d(np.asarray(x, dtype=np.float64))  # read, never written
    b, d = batch.shape
    if policy.image_shape is not None:
        rows, cols = policy.image_shape
        if rows * cols != d:
            raise ShapeMismatchError(
                f"image_shape {policy.image_shape} holds {rows * cols} pixels, rows have {d}"
            )
    if policy.image_shape is not None and policy.shift_max > 0:
        out = _shift_batch(batch, policy, rng)
    else:
        out = batch.copy()
    n_mask = int(policy.mask_fraction * d)
    step = max(1, _BLOCK_ELEMENTS // max(d, 1))
    blocks = [out[i:i + step] for i in range(0, b, step)]
    if n_mask > 0:
        for block in blocks:
            # each row's n_mask smallest uniforms: a uniform draw without replacement
            ranks = rng.random(block.shape)
            masked = np.argpartition(ranks, n_mask - 1, axis=1)[:, :n_mask]
            np.put_along_axis(block, masked, 0.0, axis=1)
    if policy.noise_sigma > 0.0:
        for block in blocks:
            block += rng.normal(0.0, policy.noise_sigma, size=block.shape)
    np.clip(out, 0.0, 1.0, out=out)
    return out.reshape(np.shape(x))


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchPlan:
    seed: int
    batch_size: int
    min_batch: int = 1  # trailing slice dropped below this (trainer uses k+2)


def batches(n: int, plan: BatchPlan, epoch: int) -> list[np.ndarray]:
    """Disjoint index slices covering a seeded per-epoch permutation.

    Full slices always pass; the trailing short slice is dropped when it
    falls below ``min_batch`` (padding would distort neighbor statistics).
    """
    if plan.batch_size > n:
        raise BatchTooSmallError(f"batch size {plan.batch_size} exceeds dataset size {n}")
    order = stream(plan.seed, "batches", epoch).permutation(n)
    out = []
    for start in range(0, n, plan.batch_size):
        piece = order[start : start + plan.batch_size]
        if piece.size == plan.batch_size or piece.size >= plan.min_batch:
            out.append(piece)
    return out
