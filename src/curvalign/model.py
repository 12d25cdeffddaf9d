"""Encoder/projector MLPs over the differentiation engine, plus checkpoints.

The encoder maps inputs to a representation h (every layer relu), the
projector maps h to the loss-space embedding z (relu between layers, final
layer affine).  Parameters are plain arrays; a training step never mutates
them in place.

Checkpoints are text files: a short self-describing header, the loss
history, then each tensor as big-endian IEEE-754 hex, which round-trips
bit-exactly without binary/endianness concerns.  Grammar documented in the
README and enforced by tests.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DigestMismatchError,
    FormatVersionMismatchError,
    InvalidArchitectureError,
    IoFailureError,
)
from .losses import LossBreakdown, Weights
from .numerics import Graph, Var, eval_primitive

Params = dict[str, tuple[np.ndarray, np.ndarray]]

_FORMAT_LINE = "curvalign-checkpoint v1"
ACTIVATION = "relu"  # of every hidden layer; checkpoints record it as arch.activation


@dataclass(frozen=True)
class Architecture:
    input_dim: int
    encoder_widths: tuple[int, ...] = (256, 128)
    projector_widths: tuple[int, ...] = (128, 32)

    def __post_init__(self):
        object.__setattr__(self, "encoder_widths", tuple(int(w) for w in self.encoder_widths))
        object.__setattr__(self, "projector_widths", tuple(int(w) for w in self.projector_widths))
        widths = (self.input_dim,) + self.encoder_widths + self.projector_widths
        if any(w < 1 for w in widths):
            raise InvalidArchitectureError(f"all widths must be >= 1, got {widths}")
        if not self.encoder_widths:
            raise InvalidArchitectureError("encoder needs at least one layer")
        if len(self.projector_widths) < 2:
            raise InvalidArchitectureError("projector needs at least two affine layers")

    @property
    def d_h(self) -> int:
        return self.encoder_widths[-1]

    @property
    def d_z(self) -> int:
        return self.projector_widths[-1]

    def layers(self) -> list[tuple[str, int, int, bool]]:
        """(name, fan_in, fan_out, relu?) for every affine layer, in order."""
        out = []
        fan_in = self.input_dim
        for i, w in enumerate(self.encoder_widths):
            out.append((f"enc{i}", fan_in, w, True))
            fan_in = w
        last = len(self.projector_widths) - 1
        for i, w in enumerate(self.projector_widths):
            out.append((f"proj{i}", fan_in, w, i < last))
            fan_in = w
        return out


def init_params(arch: Architecture, seed: int) -> Params:
    """Glorot-uniform weights, zero biases, fully determined by the seed
    (any integer, taken modulo 2**64 as in ``data.stream``)."""
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    params: Params = {}
    for name, fan_in, fan_out, _ in arch.layers():
        scale = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-scale, scale, size=(fan_in, fan_out))
        params[name] = (weight, np.zeros(fan_out))
    return params


def _eager_layers(params: Params, arch: Architecture, x: np.ndarray, prefix: str) -> np.ndarray:
    """The layers named ``prefix``*, by the rules ``forward_graph`` records:
    ShapeMismatchError for a wrong input width, NonFiniteError for a
    non-finite output."""
    for name, _, _, relu in arch.layers():
        if name.startswith(prefix):
            x = eval_primitive("affine", [x, *params[name]])
            if relu:
                x = eval_primitive("relu", [x])
    return x


def encode(params: Params, arch: Architecture, x: np.ndarray) -> np.ndarray:
    """Eager forward pass through the encoder."""
    return _eager_layers(params, arch, x, "enc")


def project(params: Params, arch: Architecture, h: np.ndarray) -> np.ndarray:
    """Eager forward pass through the projector."""
    return _eager_layers(params, arch, h, "proj")


def param_leaves(graph: Graph, params: Params, check: bool = True) -> dict[str, tuple[Var, Var]]:
    """Load every named tensor into a graph as a parameter leaf, scanning
    each for NaN/inf unless ``check`` is off (a step's second lane)."""
    return {
        name: (
            graph.leaf(w, param=True, name=f"{name}.W", check=check),
            graph.leaf(b, param=True, name=f"{name}.b", check=check),
        )
        for name, (w, b) in params.items()
    }


def forward_graph(
    leaves: dict[str, tuple[Var, Var]], arch: Architecture, x: Var
) -> tuple[Var, Var]:
    """Differentiable encoder+projector forward; returns (h, z)."""
    cur = x
    h = None
    for name, _, _, relu in arch.layers():
        cur = cur.affine(*leaves[name])
        if relu:
            cur = cur.relu()
        if name == f"enc{len(arch.encoder_widths) - 1}":
            h = cur
    return h, cur


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    architecture: Architecture
    params: Params
    seed: int
    epochs: int
    config_digest: str = "-"
    history: list[LossBreakdown] = field(default_factory=list)


def _encode_tensor(arr: np.ndarray) -> str:
    return np.ascontiguousarray(arr, dtype=np.float64).astype(">f8").tobytes().hex()


def _decode_tensor(hexline: str, shape: tuple[int, ...]) -> np.ndarray:
    try:
        raw = bytes.fromhex(hexline)
    except ValueError as err:
        raise IoFailureError(f"bad tensor encoding: {err}") from None
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise IoFailureError(f"tensor payload has {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw, dtype=">f8").astype(np.float64).reshape(shape)


def _body_text(ckpt: Checkpoint) -> str:
    arch = ckpt.architecture
    lines = [
        f"seed {ckpt.seed}",
        f"epochs {ckpt.epochs}",
        f"config_digest {ckpt.config_digest}",
        f"arch.input_dim {arch.input_dim}",
        "arch.encoder " + " ".join(map(str, arch.encoder_widths)),
        "arch.projector " + " ".join(map(str, arch.projector_widths)),
        f"arch.activation {ACTIVATION}",
        f"history {len(ckpt.history)}",
    ]
    for h in ckpt.history:
        vals = list(h.as_tuple()) + list(h.weights)
        lines.append("h " + " ".join(repr(float(v)) for v in vals))
    tensors = []
    for name, (w, b) in ckpt.params.items():
        tensors.append((f"{name}.W", w))
        tensors.append((f"{name}.b", b))
    lines.append(f"tensors {len(tensors)}")
    for name, arr in tensors:
        dims = " ".join(map(str, arr.shape))
        lines.append(f"tensor {name} {arr.ndim} {dims}")
        lines.append(_encode_tensor(arr))
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Atomic write (temp file + rename) of the textual checkpoint format."""
    body = _body_text(ckpt)
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    text = f"{_FORMAT_LINE}\ndigest {digest}\n{body}"
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as err:
        raise IoFailureError(f"cannot write checkpoint {path}: {err}") from None


class _LineReader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise IoFailureError("unexpected end of checkpoint file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, prefix: str) -> str:
        line = self.next()
        if not line.startswith(prefix + " "):
            raise IoFailureError(f"expected {prefix!r} record, got {line[:40]!r}")
        return line[len(prefix) + 1:]


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "r", encoding="ascii") as f:
            text = f.read()
    except OSError as err:
        raise IoFailureError(f"cannot read checkpoint {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise FormatVersionMismatchError(f"not a checkpoint file: {err}") from None

    first, _, rest = text.partition("\n")
    if first != _FORMAT_LINE:
        raise FormatVersionMismatchError(f"unrecognized format line {first[:60]!r}")
    digest_line, _, body = rest.partition("\n")
    if not digest_line.startswith("digest "):
        raise FormatVersionMismatchError("missing digest line")
    stored_digest = digest_line[len("digest "):].strip()

    reader = _LineReader(body.split("\n"))
    try:
        seed = int(reader.expect("seed"))
        epochs = int(reader.expect("epochs"))
        config_digest = reader.expect("config_digest").strip()
        input_dim = int(reader.expect("arch.input_dim"))
        encoder = tuple(int(v) for v in reader.expect("arch.encoder").split())
        projector = tuple(int(v) for v in reader.expect("arch.projector").split())
        activation = reader.expect("arch.activation").strip()
        n_hist = int(reader.expect("history"))
        history = []
        for _ in range(n_hist):
            vals = [float(v) for v in reader.expect("h").split()]
            if len(vals) != 8:
                raise IoFailureError("malformed history record")
            history.append(
                LossBreakdown(*vals[:5], weights=Weights(*vals[5:]))
            )
        n_tensors = int(reader.expect("tensors"))
        flat: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            header = reader.expect("tensor").split()
            name, ndim = header[0], int(header[1])
            shape = tuple(int(v) for v in header[2 : 2 + ndim])
            flat[name] = _decode_tensor(reader.next(), shape)
        if reader.next() != "end":
            raise IoFailureError("missing end marker")
    except (ValueError, IndexError) as err:
        raise IoFailureError(f"malformed checkpoint: {err}") from None

    actual = hashlib.sha256(body.encode("ascii")).hexdigest()
    if actual != stored_digest:
        raise DigestMismatchError("checkpoint body does not match its digest")

    if activation != ACTIVATION:
        raise InvalidArchitectureError(f"unsupported activation {activation!r}")
    arch = Architecture(input_dim, encoder, projector)
    params: Params = {}
    for name, fan_in, fan_out, _ in arch.layers():
        try:
            params[name] = (flat[f"{name}.W"], flat[f"{name}.b"])
        except KeyError:
            raise IoFailureError(f"checkpoint is missing tensor {name!r}") from None
        for key, value, shape in zip(("W", "b"), params[name], ((fan_in, fan_out), (fan_out,))):
            if value.shape != shape:
                raise IoFailureError(f"checkpoint tensor {name}.{key} has shape {value.shape}, "
                                     f"not {shape}")
    return Checkpoint(arch, params, seed, epochs, config_digest, history)
