import numpy as np
import pytest

from curvalign import cli
from curvalign.cli import (
    EXIT_CODES,
    RunConfig,
    build_datasets,
    main,
    parse_config,
    resolved_text,
)
from curvalign.data import make_pattern_images, make_ring, save_idx
from curvalign.errors import (
    ConfigTypeError,
    CurvalignError,
    InvariantViolationError,
    UnknownKeyError,
)

FAST_BLOBS = """
dataset = blobs
blobs_n = 96
blobs_test_n = 48
blobs_dim = 8
epochs = 2
batch_size = 32
k = 4
noise_sigma = 0.02
mask_fraction = 0.0
shift_max = 0
encoder_widths = 16,8
projector_widths = 8,4
probe_epochs = 5
"""


def test_empty_config_gives_documented_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = parse_config(path)
    assert cfg.k == 10
    assert cfg.batch_size == 256
    assert cfg.lambda_emb == cfg.lambda_curv == cfg.alpha_curv == 1.0
    assert cfg.metric == "euclidean"
    assert cfg.rbf_gamma is None
    assert cfg.learning_rate == 1e-3 and cfg.weight_decay == 1e-4
    assert cfg.epochs == 100 and cfg.seed == 0


def test_config_comments_and_values(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# full line comment\n"
        "k = 7  # trailing comment\n"
        "metric = rbf\n"
        "rbf_gamma =\n"          # empty -> median heuristic at runtime
        "encoder_widths = 64,32\n"
        "track_curvature = false\n"
    )
    cfg = parse_config(path)
    assert cfg.k == 7
    assert cfg.metric == "rbf" and cfg.rbf_gamma is None
    assert cfg.encoder_widths == (64, 32)
    assert cfg.track_curvature is False


def test_config_rejections(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("granularity = 3\n")
    with pytest.raises(UnknownKeyError):
        parse_config(path)

    path.write_text("k = soon\n")
    with pytest.raises(ConfigTypeError):
        parse_config(path)

    path.write_text("just some words\n")
    with pytest.raises(ConfigTypeError):
        parse_config(path)

    path.write_text("k = 300\nbatch_size = 256\n")
    with pytest.raises(InvariantViolationError):
        parse_config(path)

    path.write_text("metric = cosine\n")
    with pytest.raises(InvariantViolationError):
        parse_config(path)


def test_resolved_round_trip(tmp_path):
    src = tmp_path / "src.cfg"
    src.write_text(FAST_BLOBS)
    cfg = parse_config(src)
    resolved = tmp_path / "resolved.cfg"
    resolved.write_text(resolved_text(cfg))
    assert parse_config(resolved) == cfg


def test_build_datasets_split_shares_structure():
    cfg = parse_config_text(FAST_BLOBS)
    train, test = build_datasets(cfg)
    assert len(train) == 96 and len(test) == 48
    assert train.dim == test.dim == 8
    assert train.num_classes == test.num_classes == 4


def test_build_datasets_ring_and_limits():
    cfg = parse_config_text("dataset = ring\nring_n = 40\nring_test_n = 20\nring_classes = 5\n")
    train, test = build_datasets(cfg)
    full = make_ring(60, 5, 0.35, 0.02, seed=0)
    assert (len(train), len(test), train.dim, train.num_classes) == (40, 20, 2, 5)
    assert np.array_equal(train.features, full.features[:40])
    assert np.array_equal(test.labels, full.labels[40:])

    limited = parse_config_text(FAST_BLOBS + "train_limit = 10\ntest_limit = 7\n")
    small_train, small_test = build_datasets(limited)
    train, test = build_datasets(parse_config_text(FAST_BLOBS))
    assert (len(small_train), len(small_test)) == (10, 7)
    assert np.array_equal(small_train.features, train.features[:10])
    assert np.array_equal(small_test.labels, test.labels[:7])
    # a limit at or above the size keeps every row
    roomy = parse_config_text(FAST_BLOBS + "train_limit = 96\ntest_limit = 500\n")
    assert [len(ds) for ds in build_datasets(roomy)] == [96, 48]


def test_build_datasets_reads_mnist_idx(tmp_path):
    full = make_pattern_images(30, 3, 4, seed=2)
    lines = ["dataset = mnist", "train_limit = 12"]
    for part, rows in (("train", slice(0, 20)), ("test", slice(20, None))):
        images, labels = tmp_path / f"{part}-images", tmp_path / f"{part}-labels"
        save_idx(full.features[rows], full.labels[rows], 4, 4, images, labels)
        lines += [f"mnist_{part}_images = {images}", f"mnist_{part}_labels = {labels}"]
    train, test = build_datasets(parse_config_text("\n".join(lines) + "\n"))
    assert (len(train), len(test)) == (12, 10)
    assert train.image_shape == test.image_shape == (4, 4)
    assert train.num_classes == 3
    pixels = np.rint(full.features * 255.0) / 255.0
    assert np.array_equal(train.features, pixels[:12])
    assert np.array_equal(test.features, pixels[20:])
    assert np.array_equal(test.labels, full.labels[20:])


def parse_config_text(text):
    import os
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as f:
        f.write(text)
        name = f.name
    try:
        return parse_config(name)
    finally:
        os.unlink(name)


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS)
    out = tmp_path / "out"

    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "history.csv").exists()
    assert (out / "checkpoint.ckpt").exists()
    assert (out / "config.resolved").exists()

    ckpt_path = str(out / "checkpoint.ckpt")
    assert main(["probe", "--config", str(cfg_path), "--out", str(out / "probe"),
                 "--checkpoint", ckpt_path]) == 0
    captured = capsys.readouterr()
    assert "probe accuracy:" in captured.out
    probe_csv = (out / "probe" / "probe.csv").read_text().splitlines()
    assert probe_csv[0] == "n_train,n_test,probe_epochs,probe_lr,seed,accuracy"
    acc = float(probe_csv[1].split(",")[-1])
    assert 0.0 <= acc <= 1.0
    assert probe_csv[1] == f"96,48,5,0.1,0,{acc!r}"

    assert main(["curvature", "--config", str(cfg_path), "--out", str(out / "curv")]) == 0
    curv_lines = (out / "curv" / "curvature.csv").read_text().splitlines()
    assert curv_lines[0] == "index,label,euclidean,kernel"
    assert len(curv_lines) == 97

    assert main(["export-embeddings", "--config", str(cfg_path),
                 "--out", str(out / "emb"), "--checkpoint", ckpt_path]) == 0
    emb_lines = (out / "emb" / "embeddings.csv").read_text().splitlines()
    assert emb_lines[0].startswith("label,h0,")
    assert len(emb_lines) == 97


def test_cli_rerun_from_resolved_is_bit_identical(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["pretrain", "--config", str(out1 / "config.resolved"), "--out", str(out2)]) == 0

    def loss_columns(path):
        rows = path.read_text().splitlines()
        return [",".join(r.split(",")[:-1]) for r in rows]  # drop wall-clock column

    assert loss_columns(out1 / "history.csv") == loss_columns(out2 / "history.csv")
    assert (out1 / "checkpoint.ckpt").read_bytes() == (out2 / "checkpoint.ckpt").read_bytes()
    assert (out1 / "config.resolved").read_text() == (out2 / "config.resolved").read_text()


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS)
    out = tmp_path / "o"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out), "--seed", "5"]) == 0
    assert "seed = 5" in (out / "config.resolved").read_text().splitlines()[0]


def test_cli_rbf_without_gamma_runs(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS + "metric = rbf\n")
    out = tmp_path / "o"
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 0


def test_cli_exit_codes(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS)

    missing = main(["pretrain", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")])
    assert missing == 30  # IoFailure

    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    assert main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "x")]) == 10

    assert main(["probe", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 12
    assert main(["export-embeddings", "--config", str(cfg_path),
                 "--out", str(tmp_path / "x")]) == 12

    corrupt = tmp_path / "c.ckpt"
    corrupt.write_text("not a checkpoint\n")
    code = main(["probe", "--config", str(cfg_path), "--out", str(tmp_path / "x"),
                 "--checkpoint", str(corrupt)])
    assert code == 31  # FormatVersionMismatch

    # distinct codes per error class
    assert len(set(EXIT_CODES.values())) == len(EXIT_CODES)


def test_cli_curvature_from_embeddings_csv(tmp_path):
    emb = tmp_path / "emb.csv"
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 3))
    lines = ["label,h0,h1,h2"] + [
        f"{i % 2}," + ",".join(repr(float(v)) for v in row) for i, row in enumerate(pts)
    ]
    emb.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"k = 4\nembeddings_csv = {emb}\n")
    out = tmp_path / "out"
    assert main(["curvature", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = (out / "curvature.csv").read_text().splitlines()
    assert len(rows) == 21

    from curvalign.geometry import batch_curvature

    got = np.array([float(r.split(",")[2]) for r in rows[1:]])
    assert np.allclose(got, batch_curvature(pts, 4), atol=1e-12)
    from curvalign.rkhs import KernelSpec

    kernel = batch_curvature(pts, 4, KernelSpec("rbf"))
    assert rows[1:] == [f"{i},{i % 2},{float(e)!r},{float(c)!r}"
                        for i, (e, c) in enumerate(zip(got, kernel))]


@pytest.mark.parametrize("gamma", ["", "rbf_gamma = 0.3\n"], ids=["median", "fixed"])
def test_cli_curvature_builds_one_distance_matrix_for_both_metrics(tmp_path, monkeypatch, gamma):
    from curvalign import geometry, numerics, rkhs
    from curvalign.data import write_csv
    from curvalign.geometry import batch_curvature
    from curvalign.rkhs import KernelSpec

    built = []
    original = numerics.sq_distance_matrix

    def counting(points):
        built.append(np.shape(points))
        return original(points)

    for module in (numerics, geometry, rkhs):
        monkeypatch.setattr(module, "sq_distance_matrix", counting)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS + gamma)
    assert main(["curvature", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert built == [(96, 8)]

    # the same bytes as scoring each metric on its own kNN
    cfg = parse_config(cfg_path)
    train, _ = build_datasets(cfg)
    euclid = batch_curvature(train.features, cfg.k, "euclidean")
    kernel = batch_curvature(train.features, cfg.k, KernelSpec("rbf", cfg.rbf_gamma))
    write_csv(tmp_path / "two_kNNs.csv", ("index", "label", "euclidean", "kernel"),
              ((i, *row) for i, row in enumerate(zip(train.labels, euclid, kernel))))
    assert (tmp_path / "curvature.csv").read_bytes() == (tmp_path / "two_kNNs.csv").read_bytes()


MISSING_MNIST = "dataset = mnist\n" + "".join(
    f"mnist_{part} = {{tmp}}/missing/{part}\n"
    for part in ("train_images", "train_labels", "test_images", "test_labels")
)
SMALL_PATTERNS = "dataset = patterns\npatterns_n = 64\npatterns_test_n = 8\n"

# (command, config lines added to FAST_BLOBS, exit code, stderr fragment)
EXIT_CASES = [
    ("pretrain", "epochs = 0", 12, "epochs must be >= 1"),
    ("pretrain", "batch_size = 5", 12, "batch_size must exceed k+1"),
    ("pretrain", "learning_rate = 0", 12, "learning_rate must be > 0"),
    ("pretrain", "metric = cosine", 12, "euclidean|linear|rbf"),
    ("pretrain", "rbf_gamma = -1", 12, "rbf_gamma must be > 0"),
    ("curvature", "rbf_gamma = 0", 12, "rbf_gamma must be > 0"),
    ("pretrain", "mask_fraction = 1", 12, "mask_fraction must lie in [0, 1)"),
    ("pretrain", "noise_sigma = -0.1", 12, "noise_sigma must be >= 0"),
    ("pretrain", "shift_max = -1", 12, "shift_max must be >= 0"),
    ("pretrain", "eps = -1e-5", 12, "eps must be >= 0"),
    ("pretrain", "k = 1", 12, "k must be >= 2"),
    ("curvature", "k = 1", 12, "k must be >= 2"),
    ("curvature", "k = 0", 12, "k must be >= 2"),
    ("curvature", "k = -2", 12, "k must be >= 2"),
    ("pretrain", "dataset = digits", 12, "mnist|blobs|ring|patterns"),
    ("probe", "probe_batch = 0", 12, "probe_batch must be >= 1"),
    ("probe", "probe_epochs = -3", 12, "probe_epochs must be >= 0"),
    ("curvature", "train_limit = -5", 12, "train_limit must be >= 0"),
    ("probe", "test_limit = -5", 12, "test_limit must be >= 0"),
    ("curvature", SMALL_PATTERNS + "patterns_side = 0", 12, "patterns_side"),
    ("pretrain", SMALL_PATTERNS + "patterns_side = 1", 12, "template of class 0 constant"),
    ("curvature", SMALL_PATTERNS + "patterns_shift = -1", 12, "patterns_shift"),
    ("curvature", SMALL_PATTERNS + "patterns_noise = -1", 12, "patterns_noise must be >= 0"),
    ("curvature", "dataset = ring\nring_noise = -1", 12, "ring_noise must be >= 0"),
    ("curvature", "blobs_spread = -1", 12, "blobs_spread must be >= 0 and finite, got -1.0"),
    ("curvature", SMALL_PATTERNS + "patterns_contrast_max = 0.25", 12, "patterns_contrast_min"),
    ("curvature", SMALL_PATTERNS + "patterns_contrast_max = inf", 12, "must be finite"),
    ("curvature", "blobs_dim = -1", 12, "blobs_dim must be >= 1"),
    ("curvature", "embeddings_csv = {tmp}/bad.csv", 12, "bad.csv, line 3"),
    ("curvature", "embeddings_csv = {tmp}/ragged.csv", 12, "ragged.csv, line 3"),
    ("curvature", "embeddings_csv = {tmp}/headless.csv", 11, "expected a label,h0,... CSV header"),
    ("curvature", "train_limit = 4", 12, "curvature needs more than k=4 points, got 4"),
    ("probe", "encoder_widths = 0", 46, "widths must be >= 1"),
    ("curvature", "encoder_widths = 0", 46, "widths must be >= 1"),
    ("export-embeddings", "encoder_widths = 0", 46, "widths must be >= 1"),
    # float keys of every kind: training, loss weight, bandwidth, dataset, augmentation, probe
    ("pretrain", "learning_rate = inf", 12, "learning_rate must be finite, got inf"),
    ("pretrain", "weight_decay = nan", 12, "weight_decay must be finite, got nan"),
    ("pretrain", "lambda_emb = nan", 12, "lambda_emb must be finite"),
    ("curvature", "rbf_gamma = inf", 12, "rbf_gamma must be finite"),
    ("curvature", "dataset = ring\nring_radius = nan", 12, "ring_radius must be finite"),
    ("curvature", "blobs_spread = -inf", 12, "blobs_spread must be finite, got -inf"),
    ("pretrain", "noise_sigma = nan", 12, "noise_sigma must be finite"),
    ("probe", "probe_lr = nan", 12, "probe_lr must be finite"),
    ("pretrain", MISSING_MNIST, 30, "missing/train_images"),
    ("pretrain", MISSING_MNIST + "k = 1", 12, "k must be >= 2"),  # checked before any read
]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    (root / "run.cfg").write_text(FAST_BLOBS)
    assert main(["pretrain", "--config", str(root / "run.cfg"), "--out", str(root)]) == 0
    (root / "bad.csv").write_text("label,h0,h1\n0,0.5,0.25\n1,abc,0.5\n")
    (root / "ragged.csv").write_text("label,h0,h1\n0,0.5,0.25\n1,0.5\n")
    (root / "headless.csv").write_text("0,0.5,0.25\n1,0.25,0.5\n")
    return root


@pytest.mark.parametrize("command,extra,code,fragment", EXIT_CASES,
                         ids=[f"{c[0]}:{c[1].splitlines()[-1]}" for c in EXIT_CASES])
def test_cli_exit_code_per_input(trained, tmp_path, capsys, command, extra, code, fragment):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS + extra.replace("{tmp}", str(trained)) + "\n")
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out"),
            "--checkpoint", str(trained / "checkpoint.ckpt")]
    assert main(argv) == code
    assert fragment in capsys.readouterr().err


def test_cli_probe_exit_code_per_checkpoint_fault(trained, tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS)
    text = (trained / "checkpoint.ckpt").read_text()
    for edited, code, fragment in (
        (text.replace("\nend\n", "\n"), 30, "missing end marker"),
        (text.replace("\nepochs 2\n", "\nepochs 3\n"), 32, "does not match its digest"),
    ):
        ckpt = tmp_path / "edited.ckpt"
        ckpt.write_text(edited)
        assert main(["probe", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--checkpoint", str(ckpt)]) == code
        assert fragment in capsys.readouterr().err


def test_cli_unwritable_out_is_io_failure(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(blocker / "out")]) == 30
    assert "cannot create output directory" in capsys.readouterr().err


def test_cli_bias_of_wrong_length_is_a_shape_mismatch(tmp_path, monkeypatch, capsys):
    from curvalign import trainer
    from curvalign.model import init_params

    def short_bias(arch, seed):
        params = init_params(arch, seed)
        w, b = params["proj1"]
        params["proj1"] = (w, b[:-1])
        return params

    monkeypatch.setattr(trainer, "init_params", short_bias)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS)
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 40
    assert "affine: (32, 8) @ (8, 4) + (3,)" in capsys.readouterr().err


def test_unexpected_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(cfg, out_dir, args):
        raise ValueError("a defect, not a config value")

    monkeypatch.setitem(cli._COMMANDS, "curvature", broken)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS)
    with pytest.raises(ValueError, match="a defect"):
        main(["curvature", "--config", str(cfg_path), "--out", str(tmp_path / "out")])


def test_config_invariants_checked_at_parse(tmp_path):
    path = tmp_path / "c.cfg"
    for text in ("k = 1\n", "eps = -1\n", "probe_batch = 0\n", "train_limit = -1\n"):
        path.write_text(text)
        with pytest.raises(InvariantViolationError):
            parse_config(path)


def test_every_error_class_has_its_own_exit_code():
    def concrete(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from concrete(sub)

    classes = set(concrete(CurvalignError))
    assert classes == set(EXIT_CODES)
    assert len(set(EXIT_CODES.values())) == len(EXIT_CODES)


def test_cli_undecodable_byte_is_a_config_type_error(tmp_path, capsys):
    cfg_path, csv_path = tmp_path / "run.cfg", tmp_path / "emb.csv"
    argv = ["curvature", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    cfg_path.write_bytes(b"k = 3 # caf\xe9\n")
    assert main(argv) == 11
    assert f"config {cfg_path}: byte 0xe9 at offset 11 is not utf-8" in capsys.readouterr().err
    csv_path.write_bytes(b"label,h0\n0,0.\xc3\xa9\n")
    cfg_path.write_text(f"k = 2\nembeddings_csv = {csv_path}\n")
    assert main(argv) == 11
    assert f"embeddings {csv_path}: byte 0xc3 at offset 13 is not ascii" in capsys.readouterr().err
