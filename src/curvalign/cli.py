"""Command-line entry point.

Subcommands: pretrain, probe, curvature, export-embeddings.  Every run
reads a key=value config file, materializes all effective values into
``config.resolved`` beside its outputs, and exits with a per-error-class
status code (table in the README).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import data as data_mod
from . import errors as E
from .data import AugmentationPolicy, Dataset, load_idx, write_csv
from .geometry import batch_curvature
from .losses import Weights
from .model import Architecture, Checkpoint, load_checkpoint, save_checkpoint
from .rkhs import KernelSpec
from .trainer import TrainConfig, export_embeddings, linear_probe, pretrain


@dataclass
class RunConfig:
    # training: the library's own defaults
    seed: int = TrainConfig.seed
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    k: int = TrainConfig.k
    lambda_emb: float = TrainConfig.weights.lambda_emb
    lambda_curv: float = TrainConfig.weights.lambda_curv
    alpha_curv: float = TrainConfig.weights.alpha_curv
    metric: str = TrainConfig.metric
    rbf_gamma: Optional[float] = TrainConfig.rbf_gamma
    learning_rate: float = TrainConfig.learning_rate
    weight_decay: float = TrainConfig.weight_decay
    eps: float = TrainConfig.eps
    encoder_widths: tuple = Architecture.encoder_widths
    projector_widths: tuple = Architecture.projector_widths
    track_curvature: bool = TrainConfig.track_curvature
    # dataset selection
    dataset: str = "blobs"
    mnist_train_images: str = ""
    mnist_train_labels: str = ""
    mnist_test_images: str = ""
    mnist_test_labels: str = ""
    train_limit: int = 0
    test_limit: int = 0
    blobs_n: int = 512
    blobs_test_n: int = 256
    blobs_classes: int = 4
    blobs_dim: int = 16
    blobs_spread: float = 0.05
    ring_n: int = 512
    ring_test_n: int = 256
    ring_classes: int = 4
    ring_radius: float = 0.35
    ring_noise: float = 0.02
    patterns_n: int = 2048
    patterns_test_n: int = 1000
    patterns_classes: int = 10
    patterns_side: int = 28
    patterns_shift: int = 8
    patterns_noise: float = 0.05
    patterns_contrast_min: float = 0.5
    patterns_contrast_max: float = 1.0
    # augmentation: the library's own defaults
    noise_sigma: float = AugmentationPolicy.noise_sigma
    mask_fraction: float = AugmentationPolicy.mask_fraction
    shift_max: int = AugmentationPolicy.shift_max
    # probe
    probe_epochs: int = 50
    probe_lr: float = 0.1
    probe_batch: int = 256
    # curvature command input (empty -> score raw dataset features)
    embeddings_csv: str = ""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_tuple(raw: str) -> tuple:
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def _parse_value(name: str, raw: str, default):
    raw = raw.strip()
    try:
        if name == "rbf_gamma":
            return None if raw == "" else float(raw)
        if isinstance(default, bool):
            return _parse_bool(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            return _parse_int_tuple(raw)
        return raw
    except ValueError as err:
        raise E.ConfigTypeError(f"key {name!r}: {err}") from None


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _validate(cfg: RunConfig) -> RunConfig:
    """Check the CLI's own keys, then every library rule by building the
    library objects the config describes; no data is read."""
    if cfg.dataset not in ("mnist", "blobs", "ring", "patterns"):
        raise E.InvariantViolationError(
            f"dataset must be mnist|blobs|ring|patterns, got {cfg.dataset!r}"
        )
    for key in ("train_limit", "test_limit", "probe_epochs"):
        if getattr(cfg, key) < 0:
            raise E.InvariantViolationError(f"{key} must be >= 0, got {getattr(cfg, key)}")
    if cfg.probe_batch < 1:
        raise E.InvariantViolationError(f"probe_batch must be >= 1, got {cfg.probe_batch}")
    train_config_from(cfg, input_dim=1, image_shape=None)
    return cfg


def parse_config(path) -> RunConfig:
    """Parse a key = value config file; unknown keys and non-finite floats
    are rejected and all missing keys take their documented defaults."""
    defaults = {f.name: getattr(RunConfig(), f.name) for f in fields(RunConfig)}
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise E.IoFailureError(f"cannot read config {path}: {err}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise E.ConfigTypeError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in defaults:
            raise E.UnknownKeyError(f"line {lineno}: unknown key {key!r}")
        value = values[key] = _parse_value(key, raw, defaults[key])
        if isinstance(value, float) and not math.isfinite(value):
            raise E.InvariantViolationError(f"line {lineno}: {key} must be finite, got {value}")
    return _validate(RunConfig(**values))


def resolved_text(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


def write_resolved(cfg: RunConfig, out_dir: Path) -> None:
    (out_dir / "config.resolved").write_text(resolved_text(cfg), encoding="utf-8")


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def _rows(ds: Dataset, rows: slice) -> Dataset:
    """The rows of ``ds`` that ``rows`` selects, as a Dataset of the same kind."""
    return Dataset(ds.features[rows], ds.labels[rows], ds.name, ds.num_classes, ds.image_shape)


def _limited(ds: Dataset, limit: int) -> Dataset:
    return _rows(ds, slice(limit)) if limit and limit < len(ds) else ds


def build_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) per the config's dataset selection."""
    if cfg.dataset == "mnist":
        for key in ("mnist_train_images", "mnist_train_labels",
                    "mnist_test_images", "mnist_test_labels"):
            if not getattr(cfg, key):
                raise E.InvariantViolationError(f"dataset=mnist requires {key}")
        train = load_idx(cfg.mnist_train_images, cfg.mnist_train_labels)
        test = load_idx(cfg.mnist_test_images, cfg.mnist_test_labels)
    elif cfg.dataset == "blobs":
        full = data_mod.make_blobs(cfg.blobs_n + cfg.blobs_test_n, cfg.blobs_classes,
                                   cfg.blobs_dim, cfg.blobs_spread, cfg.seed)
        train, test = _split(full, cfg.blobs_n)
    elif cfg.dataset == "ring":
        full = data_mod.make_ring(cfg.ring_n + cfg.ring_test_n, cfg.ring_classes,
                                  cfg.ring_radius, cfg.ring_noise, cfg.seed)
        train, test = _split(full, cfg.ring_n)
    else:
        full = data_mod.make_pattern_images(
            cfg.patterns_n + cfg.patterns_test_n, cfg.patterns_classes,
            cfg.patterns_side, cfg.seed, max_shift=cfg.patterns_shift,
            contrast_range=(cfg.patterns_contrast_min, cfg.patterns_contrast_max),
            noise=cfg.patterns_noise,
        )
        train, test = _split(full, cfg.patterns_n)
    return _limited(train, cfg.train_limit), _limited(test, cfg.test_limit)


def _split(ds: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    return _rows(ds, slice(n_train)), _rows(ds, slice(n_train, None))


def train_config_from(cfg: RunConfig, input_dim: int, image_shape) -> TrainConfig:
    policy = AugmentationPolicy(
        noise_sigma=cfg.noise_sigma,
        mask_fraction=cfg.mask_fraction,
        shift_max=cfg.shift_max,
        image_shape=image_shape,
    )
    return TrainConfig(
        architecture=Architecture(input_dim, cfg.encoder_widths, cfg.projector_widths),
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        k=cfg.k,
        weights=Weights(cfg.lambda_emb, cfg.lambda_curv, cfg.alpha_curv),
        metric=cfg.metric,
        rbf_gamma=cfg.rbf_gamma,
        learning_rate=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        eps=cfg.eps,
        seed=cfg.seed,
        augmentation=policy,
        track_curvature=cfg.track_curvature,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_pretrain(cfg: RunConfig, out_dir: Path, args) -> int:
    train, _ = build_datasets(cfg)
    tc = train_config_from(cfg, train.dim, train.image_shape)
    ckpt, history = pretrain(tc, train)
    write_resolved(cfg, out_dir)
    history.to_csv(out_dir / "history.csv")
    save_checkpoint(ckpt, out_dir / "checkpoint.ckpt")
    last = history.breakdowns()[-1]
    print(f"pretrain done: {cfg.epochs} epochs, final mean total loss {last.total:.6f}")
    return 0


def _checkpoint_arg(args) -> Checkpoint:
    """The checkpoint that ``--checkpoint`` names, which the command requires."""
    if not args.checkpoint:
        raise E.InvariantViolationError(f"{args.command} requires --checkpoint")
    return load_checkpoint(args.checkpoint)


def _cmd_probe(cfg: RunConfig, out_dir: Path, args) -> int:
    ckpt = _checkpoint_arg(args)
    train, test = build_datasets(cfg)
    acc = linear_probe(ckpt, train, test, probe_epochs=cfg.probe_epochs,
                       probe_lr=cfg.probe_lr, probe_batch=cfg.probe_batch, seed=cfg.seed)
    write_resolved(cfg, out_dir)
    write_csv(out_dir / "probe.csv",
              ("n_train", "n_test", "probe_epochs", "probe_lr", "seed", "accuracy"),
              [(len(train), len(test), cfg.probe_epochs, cfg.probe_lr, cfg.seed, acc)])
    print(f"probe accuracy: {acc:.4f}")
    return 0


def _load_embeddings_csv(path) -> tuple[np.ndarray, np.ndarray]:
    try:
        rows = Path(path).read_text(encoding="ascii").strip().splitlines()
    except OSError as err:
        raise E.IoFailureError(f"cannot read embeddings {path}: {err}") from None
    if not rows or not rows[0].startswith("label,"):
        raise E.ConfigTypeError(f"{path}: expected a label,h0,... CSV header")
    width = rows[0].count(",") + 1
    labels, feats = [], []
    for lineno, row in enumerate(rows[1:], 2):
        parts = row.split(",")
        if len(parts) != width:
            raise E.InvariantViolationError(
                f"{path}, line {lineno}: {len(parts)} fields, the header has {width}"
            )
        try:
            labels.append(int(parts[0]))
            feats.append([float(v) for v in parts[1:]])
        except ValueError as err:
            raise E.InvariantViolationError(f"{path}, line {lineno}: {err}") from None
    return np.asarray(feats), np.asarray(labels, dtype=np.int64)


def _cmd_curvature(cfg: RunConfig, out_dir: Path, args) -> int:
    if cfg.embeddings_csv:
        points, labels = _load_embeddings_csv(cfg.embeddings_csv)
        source = cfg.embeddings_csv
    else:
        train, _ = build_datasets(cfg)
        points, labels = train.features, train.labels
        source = cfg.dataset
    if points.shape[0] <= cfg.k:
        raise E.InvariantViolationError(
            f"curvature needs more than k={cfg.k} points, got {points.shape[0]}"
        )
    euclid = batch_curvature(points, cfg.k, "euclidean")
    kernel = batch_curvature(points, cfg.k, KernelSpec("rbf", cfg.rbf_gamma))
    write_resolved(cfg, out_dir)
    write_csv(out_dir / "curvature.csv", ("index", "label", "euclidean", "kernel"),
              ((i, *row) for i, row in enumerate(zip(labels, euclid, kernel))))
    print(f"curvature scores for {points.shape[0]} rows of {source} "
          f"written to {out_dir / 'curvature.csv'}")
    return 0


def _cmd_export(cfg: RunConfig, out_dir: Path, args) -> int:
    ckpt = _checkpoint_arg(args)
    train, _ = build_datasets(cfg)
    write_resolved(cfg, out_dir)
    export_embeddings(ckpt, train, out_dir / "embeddings.csv")
    print(f"embeddings for {len(train)} samples written to {out_dir / 'embeddings.csv'}")
    return 0


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "probe": _cmd_probe,
    "curvature": _cmd_curvature,
    "export-embeddings": _cmd_export,
}

EXIT_CODES = {
    E.UnknownKeyError: 10,
    E.ConfigTypeError: 11,
    E.InvariantViolationError: 12,
    E.BadMagicError: 20,
    E.CountMismatchError: 21,
    E.TruncatedFileError: 22,
    E.InvalidCountsError: 23,
    E.EmptyDatasetError: 24,
    E.IoFailureError: 30,
    E.FormatVersionMismatchError: 31,
    E.DigestMismatchError: 32,
    E.ShapeMismatchError: 40,
    E.NonFiniteError: 41,
    E.KTooLargeError: 42,
    E.DegenerateEdgeError: 43,
    E.BatchTooSmallError: 44,
    E.NotScalarOutputError: 45,
    E.InvalidArchitectureError: 46,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="curvalign",
        description="curvature-regularized two-view representation learning",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="key = value config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--checkpoint", default=None, help="checkpoint path (probe/export)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise E.IoFailureError(f"cannot create output directory {out_dir}: {err}") from None
        return _COMMANDS[args.command](cfg, out_dir, args)
    except E.CurvalignError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CODES.get(type(err), 1)


if __name__ == "__main__":
    sys.exit(main())
