import hashlib

import numpy as np
import pytest

from curvalign.cli import EXIT_CODES
from curvalign.errors import (
    CurvalignError,
    DigestMismatchError,
    FormatVersionMismatchError,
    InvalidArchitectureError,
    IoFailureError,
    NonFiniteError,
    ShapeMismatchError,
)
from curvalign.losses import LossBreakdown, Weights, total_loss
from curvalign.model import (
    Architecture,
    Checkpoint,
    encode,
    forward_graph,
    init_params,
    load_checkpoint,
    param_leaves,
    project,
    save_checkpoint,
)
from curvalign.numerics import Graph, eval_primitive, finite_diff_check

ARCH = Architecture(input_dim=6, encoder_widths=(8, 5), projector_widths=(5, 4))


def test_architecture_validation(tmp_path):
    with pytest.raises(InvalidArchitectureError):
        Architecture(0, (4,), (4, 2))
    with pytest.raises(InvalidArchitectureError):
        Architecture(4, (4,), (2,))  # projector needs two affine layers
    with pytest.raises(InvalidArchitectureError, match="unsupported activation 'tanh'"):
        _load_edited(tmp_path, lambda t: t.replace("arch.activation relu", "arch.activation tanh"))
    arch = Architecture(784)
    assert arch.d_h == 128 and arch.d_z == 32
    names = [name for name, *_ in arch.layers()]
    assert names == ["enc0", "enc1", "proj0", "proj1"]


def test_init_params_deterministic_and_bounded():
    a = init_params(ARCH, seed=3)
    b = init_params(ARCH, seed=3)
    for name in a:
        assert np.array_equal(a[name][0], b[name][0])
        assert np.array_equal(a[name][1], b[name][1])
        assert np.array_equal(a[name][1], np.zeros_like(a[name][1]))  # zero biases

    wide = Architecture(784, (256, 128), (128, 32))
    w = init_params(wide, seed=0)["enc0"][0]
    bound = np.sqrt(6.0 / (784 + 256))
    assert np.max(np.abs(w)) <= bound
    assert np.max(np.abs(w)) > 0.9 * bound  # the range is actually used


def test_init_params_takes_any_integer_seed_modulo_2_64():
    # data.stream takes seeds modulo 2**64; init_params must agree, or a
    # negative seed fails in numpy halfway through a run
    for name, (w, b) in init_params(ARCH, seed=-1).items():
        w2, b2 = init_params(ARCH, seed=2**64 - 1)[name]
        assert np.array_equal(w, w2) and np.array_equal(b, b2)


def test_encode_project_trivial_cases():
    params = {name: (np.zeros((i, o)), np.zeros(o)) for name, i, o, _ in ARCH.layers()}
    assert np.array_equal(encode(params, ARCH, np.ones((3, 6))), np.zeros((3, 5)))
    assert np.array_equal(project(params, ARCH, np.ones((3, 5))), np.zeros((3, 4)))

    ident = Architecture(3, (3,), (3, 3))
    params = {name: (np.eye(3), np.zeros(3)) for name, *_ in ident.layers()}
    x = np.array([[0.5, 0.0, 1.0], [0.2, 0.3, 0.4]])
    assert np.array_equal(encode(params, ident, x), x)  # relu pass-through
    assert np.array_equal(project(params, ident, x), x)


def test_forward_matches_primitive_composition():
    params = init_params(ARCH, seed=1)
    x = np.random.default_rng(2).uniform(0, 1, size=(5, 6))
    h = encode(params, ARCH, x)
    z = project(params, ARCH, h)

    cur = x
    for name, _, _, relu in ARCH.layers():
        w, b = params[name]
        affine = eval_primitive("matmul", [cur, w])
        affine = eval_primitive("add", [affine, eval_primitive("broadcast_row", [b], count=5)])
        cur = eval_primitive("relu", [affine]) if relu else affine
    assert np.array_equal(cur, z)

    g = Graph()
    leaves = param_leaves(g, params)
    hv, zv = forward_graph(leaves, ARCH, g.leaf(x))
    assert np.array_equal(hv.value, h)
    assert np.array_equal(zv.value, z)


def test_full_pipeline_parameter_gradients():
    params = init_params(ARCH, seed=4)
    rng = np.random.default_rng(5)
    x1, x2 = rng.uniform(0, 1, size=(8, 6)), rng.uniform(0, 1, size=(8, 6))
    g = Graph()
    leaves = param_leaves(g, params)
    _, z1 = forward_graph(leaves, ARCH, g.leaf(x1))
    _, z2 = forward_graph(leaves, ARCH, g.leaf(x2))
    _, total = total_loss(z1, z2, k=3)
    report = finite_diff_check(g, total, step=1e-5, tol=1e-4)
    assert report.passed, report.per_leaf


def _checkpoint():
    params = init_params(ARCH, seed=9)
    history = [
        LossBreakdown(3.25, 1.0, 0.25, 1.5, 0.5, Weights(1.0, 1.0, 1.0)),
        LossBreakdown(2.0, 0.5, 0.25, 1.0, 0.25, Weights(1.0, 1.0, 1.0)),
    ]
    return Checkpoint(ARCH, params, seed=9, epochs=2, config_digest="ab12", history=history)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    ckpt = _checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.architecture == ckpt.architecture
    assert loaded.seed == 9 and loaded.epochs == 2
    assert loaded.config_digest == "ab12"
    for name in ckpt.params:
        assert np.array_equal(loaded.params[name][0], ckpt.params[name][0])
        assert np.array_equal(loaded.params[name][1], ckpt.params[name][1])
    assert [h.as_tuple() for h in loaded.history] == [h.as_tuple() for h in ckpt.history]

    # a second save of the loaded checkpoint produces identical bytes
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_bad_files(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_checkpoint(), path)
    text = path.read_text()

    wrong_version = tmp_path / "v.ckpt"
    wrong_version.write_text(text.replace("checkpoint v1", "checkpoint v9", 1))
    with pytest.raises(FormatVersionMismatchError):
        load_checkpoint(wrong_version)

    truncated = tmp_path / "t.ckpt"
    truncated.write_text(text[: len(text) // 2])
    with pytest.raises((IoFailureError, FormatVersionMismatchError)):
        load_checkpoint(truncated)

    corrupt = tmp_path / "c.ckpt"
    corrupt.write_text(text.replace("seed 9", "seed 8", 1))
    with pytest.raises(DigestMismatchError):
        load_checkpoint(corrupt)

    with pytest.raises(IoFailureError):
        load_checkpoint(tmp_path / "missing.ckpt")


def _load_edited(tmp_path, edit, redigest=True):
    """Load a saved checkpoint after ``edit`` rewrote its text; with
    ``redigest`` the digest line is made to match the edited body, so the
    load fails, if at all, for the edit itself."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(_checkpoint(), path)
    text = edit(path.read_text())
    if redigest:
        first, _, body = text.split("\n", 2)
        text = f"{first}\ndigest {hashlib.sha256(body.encode('utf-8')).hexdigest()}\n{body}"
    path.write_bytes(text.encode("utf-8"))
    return load_checkpoint(path)


def _drop_tensor(text, name):
    lines = text.split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(f"tensor {name} "))
    del lines[at:at + 2]
    return "\n".join(lines).replace("tensors 8", "tensors 7")


def _edit_line(text, prefix, edit, offset=0):
    """``edit`` applied to the line ``offset`` lines below the first that
    starts with ``prefix``."""
    lines = text.split("\n")
    at = offset + next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[at] = edit(lines[at])
    return "\n".join(lines)


# (failure, expected error class, CLI exit code, message fragment, the action that fails)
CHECKPOINT_FAULTS = [
    ("wrong first line", FormatVersionMismatchError, 31, "unrecognized format line",
     lambda p: _load_edited(p, lambda t: "curvalign-checkpoint" + t[t.index("\n"):], False)),
    ("missing digest line", FormatVersionMismatchError, 31, "missing digest line",
     lambda p: _load_edited(p, lambda t: _edit_line(t, "digest ", lambda _: "seed 9"), False)),
    ("non-ASCII bytes", FormatVersionMismatchError, 31, "not a checkpoint file",
     lambda p: _load_edited(p, lambda t: t.replace("ab12", "\u00e912"))),
    ("truncated body", IoFailureError, 30, "unexpected end of checkpoint file",
     lambda p: _load_edited(p, lambda t: t[: t.index("\ntensors ")])),
    ("malformed history record", IoFailureError, 30, "malformed history record",
     lambda p: _load_edited(p, lambda t: _edit_line(t, "h ", lambda _: "h 1.0 2.0"))),
    ("bad tensor hex", IoFailureError, 30, "bad tensor encoding",
     lambda p: _load_edited(p, lambda t: _edit_line(t, "tensor enc0.b", lambda h: "z" + h[1:], 1))),
    ("wrong payload length", IoFailureError, 30, "tensor payload has 56 bytes, expected 64",
     lambda p: _load_edited(p, lambda t: _edit_line(t, "tensor enc0.b", lambda h: h[:-16], 1))),
    ("missing end", IoFailureError, 30, "missing end marker",
     lambda p: _load_edited(p, lambda t: t.replace("\nend\n", "\n"))),
    ("missing tensor", IoFailureError, 30, "missing tensor 'proj1'",
     lambda p: _load_edited(p, lambda t: _drop_tensor(t, "proj1.b"))),
    ("weight of the wrong shape", IoFailureError, 30,
     r"tensor enc0.W has shape \(8, 6\), not \(6, 8\)",
     lambda p: _load_edited(p, lambda t: _edit_line(t, "tensor enc0.W ",
                                                    lambda _: "tensor enc0.W 2 8 6"))),
    ("bias of the wrong shape", IoFailureError, 30,
     r"tensor proj1.b has shape \(1, 4\), not \(4,\)",
     lambda p: _load_edited(p, lambda t: _edit_line(t, "tensor proj1.b ",
                                                    lambda _: "tensor proj1.b 2 1 4"))),
    ("unwritable path on save", IoFailureError, 30, "cannot write checkpoint",
     lambda p: save_checkpoint(_checkpoint(), p / "no-such-dir" / "model.ckpt")),
    ("edited body", DigestMismatchError, 32, "does not match its digest",
     lambda p: _load_edited(p, lambda t: t.replace("epochs 2", "epochs 3"), False)),
]


@pytest.mark.parametrize("failure,error,code,fragment,action", CHECKPOINT_FAULTS,
                         ids=[case[0] for case in CHECKPOINT_FAULTS])
def test_checkpoint_failure_modes(tmp_path, failure, error, code, fragment, action):
    with pytest.raises(CurvalignError, match=fragment) as info:
        action(tmp_path)
    assert type(info.value) is error
    assert EXIT_CODES[error] == code


def test_hand_built_minimal_checkpoint(tmp_path):
    # smallest valid architecture: three 1x1 layers, every tensor spelled out
    def tensor_hex(values):
        return np.asarray(values, dtype=np.float64).astype(">f8").tobytes().hex()

    body_lines = [
        "seed 7",
        "epochs 0",
        "config_digest -",
        "arch.input_dim 1",
        "arch.encoder 1",
        "arch.projector 1 1",
        "arch.activation relu",
        "history 0",
        "tensors 6",
    ]
    for layer, weight in (("enc0", 0.5), ("proj0", -1.25), ("proj1", 2.0)):
        body_lines += [
            f"tensor {layer}.W 2 1 1", tensor_hex([[weight]]),
            f"tensor {layer}.b 1 1", tensor_hex([0.0]),
        ]
    body_lines.append("end")
    body = "\n".join(body_lines) + "\n"
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    path = tmp_path / "hand.ckpt"
    path.write_text(f"curvalign-checkpoint v1\ndigest {digest}\n{body}")

    ckpt = load_checkpoint(path)
    assert ckpt.seed == 7
    assert ckpt.architecture == Architecture(1, (1,), (1, 1))
    assert ckpt.params["enc0"][0][0, 0] == 0.5
    assert ckpt.params["proj0"][0][0, 0] == -1.25
    assert ckpt.params["proj1"][0][0, 0] == 2.0


def test_outputs_finite_for_finite_inputs():
    params = init_params(ARCH, seed=10)
    x = np.random.default_rng(11).uniform(0, 1, size=(16, 6))
    h = encode(params, ARCH, x)
    z = project(params, ARCH, h)
    assert np.all(np.isfinite(h)) and np.all(np.isfinite(z))


def test_eager_passes_raise_the_affine_and_finiteness_errors():
    params = init_params(ARCH, seed=10)
    with pytest.raises(ShapeMismatchError, match=r"affine: \(3, 5\) @ \(6, 8\)"):
        encode(params, ARCH, np.ones((3, 5)))
    with pytest.raises(ShapeMismatchError, match="affine"):
        project(params, ARCH, np.ones((3, 6)))
    infinite = {**params, "enc0": (np.full((6, 8), np.inf), params["enc0"][1])}
    with pytest.raises(NonFiniteError, match="primitive 'affine'"):
        encode(infinite, ARCH, np.ones((3, 6)))
