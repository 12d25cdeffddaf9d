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


def parse_config_text(text):
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as f:
        f.write(text)
        name = f.name
    return parse_config(name)


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
    ("curvature", SMALL_PATTERNS + "patterns_shift = -1", 12, "patterns_shift"),
    ("curvature", SMALL_PATTERNS + "patterns_noise = -1", 0, ""),  # no noise
    ("curvature", SMALL_PATTERNS + "patterns_contrast_max = 0.25", 12, "patterns_contrast_min"),
    ("curvature", "blobs_dim = -1", 12, "blobs_dim must be >= 1"),
    ("curvature", "embeddings_csv = {tmp}/bad.csv", 12, "bad.csv, line 3"),
    ("curvature", "embeddings_csv = {tmp}/ragged.csv", 12, "ragged.csv, line 3"),
    ("probe", "encoder_widths = 0", 46, "widths must be >= 1"),
    ("curvature", "encoder_widths = 0", 46, "widths must be >= 1"),
    ("export-embeddings", "encoder_widths = 0", 46, "widths must be >= 1"),
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


def test_cli_unwritable_out_is_io_failure(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_BLOBS)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["pretrain", "--config", str(cfg_path), "--out", str(blocker / "out")]) == 30
    assert "cannot create output directory" in capsys.readouterr().err


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
