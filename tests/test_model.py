import hashlib

import numpy as np
import pytest

from curvalign.errors import (
    DigestMismatchError,
    FormatVersionMismatchError,
    InvalidArchitectureError,
    IoFailureError,
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


def test_architecture_validation():
    with pytest.raises(InvalidArchitectureError):
        Architecture(0, (4,), (4, 2))
    with pytest.raises(InvalidArchitectureError):
        Architecture(4, (4,), (2,))  # projector needs two affine layers
    with pytest.raises(InvalidArchitectureError):
        Architecture(4, (4,), (4, 2), activation="tanh")
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
