"""The structural causal model layer.

A trainable matrix ``A`` holds one weight per ordered variable pair,
A[i, k] being the strength of "variable i directly causes variable k".
Each variable k is reconstructed from the others as

    h_hat_k = Decoder_k( sum_{i != k} A[i, k] * Pair_ik( Effect_i(h_i) ) )

where Effect_i is a two-layer perceptron shared across every target of i,
Pair_ik is an independent affine map per ordered pair, and Decoder_k is a
three-layer perceptron. The diagonal of A is pinned to zero (a variable is
never its own cause) and the i = k term is skipped structurally. The n
effect networks, the n(n - 1) pair maps and the n decoders are each stacked
along a leading axis and run by the stacked ops of ``numcore``.

Label prediction reconstructs only the label variable and maps it back to
class space through a two-layer shortcut network approximating the inverse
of the label encoder.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .encoders import Encoders, VariableBatch
from .errors import ContractError, DimensionError, LoadError, is_json_int, read_json
from .numcore import (
    ACTIVATIONS,
    Linear,
    StackedMlp,
    Tensor,
    activate,
    add,
    kaiming_uniform,
    pair_mix,
    softmax,
    take,
)
from .rng import substream

DAG_INIT_MAGNITUDE = 0.4


def init_dag(n_vars: int, rng: np.random.Generator) -> Tensor:
    """Equal-magnitude random-sign start, exact zeros on the diagonal.

    Every candidate edge begins at the same working-scale magnitude so that
    (a) weighted cause sums already reach the decoders at usable scale and
    nothing downstream is pressured into runaway amplification, (b) the
    acyclicity penalty is active (but far from saturated) from the first
    step, and (c) the final magnitude ranking reflects what training kept,
    not what initialization happened to draw: the task objectives pin the
    entries they need at working scale while the acyclicity pressure erodes
    the rest.
    """
    signs = np.where(rng.random((n_vars, n_vars)) < 0.5, -1.0, 1.0)
    a = DAG_INIT_MAGNITUDE * signs
    np.fill_diagonal(a, 0.0)
    return Tensor(a, requires_grad=True, name="dag.A")


def zero_diagonal(a: Tensor) -> Tensor:
    """Force diagonal values and gradients to exactly zero, in place."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"zero_diagonal needs a square matrix, got {a.shape}")
    np.fill_diagonal(a.data, 0.0)
    if a.grad is not None:
        np.fill_diagonal(a.grad, 0.0)
    return a


class ScmParameters:
    """DAG matrix plus all assignment networks for ``n_vars`` variables.

    Each kind of network is stacked along a leading axis: ``effect`` slice i
    is Effect_i, ``decoder`` slice k is Decoder_k, and ``pair_weight`` /
    ``pair_bias`` of shape (n, n - 1, D, D) / (n, n - 1, D) hold cause i's
    n - 1 pair maps in slot s, the map into target k = s + (s >= i), where D
    is the common ``width`` of every variable and of every hidden layer. With
    no ``rng`` nothing is drawn and every tensor starts at zero.
    """

    def __init__(
        self,
        n_vars: int,
        width: int,
        num_classes: int,
        activation: str,
        rng: np.random.Generator | None,
    ):
        if n_vars < 2:
            raise ContractError("an SCM needs at least two variables")
        n = self.n_vars = n_vars
        self.activation = activation
        self.width = width
        # initial weights are drawn network by network: effects, pair maps
        # (cause-major, targets ascending), decoders, the label shortcut
        if rng is None:
            self.dag = Tensor(np.zeros((n, n)), requires_grad=True, name="dag.A")
        else:
            self.dag = init_dag(n, rng)
        self.effect = StackedMlp(n, width, 2, activation, rng, "scm.effect")
        pair = np.zeros((n, n - 1, width, width))
        for i, s in np.ndindex(n, n - 1) if rng is not None else []:
            pair[i, s] = kaiming_uniform(rng, width, width)
        self.pair_weight = Tensor(pair, requires_grad=True, name="scm.pair.W")
        self.pair_bias = Tensor(np.zeros((n, n - 1, width)), requires_grad=True, name="scm.pair.b")
        self.decoder = StackedMlp(n, width, 3, activation, rng, "scm.decoder")
        self.inv1 = Linear(width, width, rng, "scm.inv1")
        self.inv2 = Linear(width, num_classes, rng, "scm.inv2")
        self.decoder_calls = 0  # instrumentation: one bump per decoded variable per batch

    def parameters(self) -> list[Tensor]:
        return (
            [self.dag]
            + self.effect.parameters()
            + [self.pair_weight, self.pair_bias]
            + self.decoder.parameters()
            + self.inv1.parameters()
            + self.inv2.parameters()
        )


def reconstruct(vars: VariableBatch, params: ScmParameters, targets) -> Tensor:
    """Structural assignments of the variables ``targets`` (every variable,
    in order, or a single one), each from every other variable weighted by
    A[:, k], stacked as (len(targets), B, width).

    The tape records the same number of entries whatever the number of
    variables or targets.
    """
    n = params.n_vars
    targets = [int(k) for k in targets]
    if any(not 0 <= k < n for k in targets):
        raise ContractError(f"variable indices {targets} out of range [0, {n})")
    if len(targets) != 1 and targets != list(range(n)):
        raise ContractError(f"targets must be every variable or one, got {targets}")
    n_vars, _, width = vars.values.shape
    if (n_vars, width) != (n, params.width):
        raise DimensionError(
            f"batch has {n_vars} variables of width {width}, model expects {n} of width {params.width}"
        )
    # the label is the last variable, so its causes alone are a leading run
    causes = slice(0, n - 1) if targets == [n - 1] else None
    x = vars.values if causes is None else take(vars.values, causes)
    effects = params.effect(x, causes)
    mixed = pair_mix(effects, params.pair_weight, params.pair_bias, params.dag, targets)
    params.decoder_calls += len(targets)
    return params.decoder(mixed, None if len(targets) == n else slice(targets[0], targets[0] + 1))


def reconstruct_all(vars: VariableBatch, params: ScmParameters) -> Tensor:
    """Training-time structural assignments of every variable, stacked."""
    if not np.all(vars.label_known):
        raise ContractError("reconstruct_all needs a batch built with labels")
    return reconstruct(vars, params, range(params.n_vars))


def label_probabilities_from(decoded: Tensor, params: ScmParameters) -> Tensor:
    """Map the reconstructed label variable, the last slot of ``decoded``, to
    class probabilities through the shortcut network approximating the label
    encoder's inverse."""
    h_y_hat = take(decoded, -1)
    shortcut = activate(params.inv1(h_y_hat), params.activation)
    logits = params.inv2(add(h_y_hat, shortcut))
    return softmax(logits)


def predict_labels(vars: VariableBatch, params: ScmParameters) -> Tensor:
    """Class probabilities via the reconstructed label variable only.

    Invokes exactly one variable decoder (the label's); the label slice of
    the batch is never read because the diagonal of A is zero and the i = k
    term is skipped.
    """
    return label_probabilities_from(reconstruct(vars, params, [params.n_vars - 1]), params)


# ---------------------------------------------------------------------------
# full model and checkpointing

@dataclass
class ModelMeta:
    """Everything needed to rebuild the model skeleton and its data pipeline."""

    variable_names: list[str]
    num_classes: int
    hidden_dim: int
    activation: str
    max_metapath_len: int
    multiset_neighbors: bool
    target_type: str
    target_dim: int
    terminal_dims: list[int]

    def validate(self, path: str) -> None:
        """Raise LoadError naming ``path`` and the first malformed field."""

        def bad(name: str, expected: str) -> LoadError:
            return LoadError(f"{path}: meta field {name!r} must be {expected}, got {getattr(self, name)!r}")

        def is_int(value, least: int) -> bool:
            return is_json_int(value) and value >= least

        for name in ("num_classes", "hidden_dim", "max_metapath_len"):
            if not is_int(getattr(self, name), 1):
                raise bad(name, "a positive integer")
        if not is_int(self.target_dim, 0):
            raise bad("target_dim", "a nonnegative integer")
        if not isinstance(self.terminal_dims, list) or not all(is_int(d, 0) for d in self.terminal_dims):
            raise bad("terminal_dims", "a list of nonnegative integers")
        n = len(self.terminal_dims) + 2
        names = self.variable_names
        if not isinstance(names, list) or len(names) != n or not all(isinstance(v, str) for v in names):
            raise bad("variable_names", f"a list of {n} strings")
        if self.activation not in ACTIVATIONS:
            raise bad("activation", f"one of {tuple(ACTIVATIONS)}")
        if not isinstance(self.multiset_neighbors, bool):
            raise bad("multiset_neighbors", "a boolean")


class ScmModel:
    """Encoders plus SCM parameters, addressable as one named-tensor set."""

    def __init__(self, meta: ModelMeta, seed: int = 0, rng: np.random.Generator | None = None):
        self._build(meta, substream(seed, "init") if rng is None else rng)

    @classmethod
    def _skeleton(cls, meta: ModelMeta) -> "ScmModel":
        """A model of ``meta``'s layout with every tensor zero, drawing
        nothing: the frame a checkpoint's tensors are loaded into."""
        model = cls.__new__(cls)
        model._build(meta, None)
        return model

    def _build(self, meta: ModelMeta, rng: np.random.Generator | None) -> None:
        self.meta = meta
        self.encoders = Encoders(
            meta.target_dim,
            meta.num_classes,
            meta.terminal_dims,
            meta.hidden_dim,
            rng,
        )
        self.scm = ScmParameters(
            len(meta.variable_names),
            meta.hidden_dim,
            meta.num_classes,
            meta.activation,
            rng,
        )

    def parameters(self) -> list[Tensor]:
        return self.encoders.parameters() + self.scm.parameters()

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for p in self.parameters():
            if p.name in out:
                raise ContractError(f"duplicate parameter name {p.name!r}")
            out[p.name] = p
        return out

    def state_snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters().items()}

    def load_snapshot(self, snapshot: dict[str, np.ndarray]) -> None:
        params = self.named_parameters()
        for name, p in params.items():
            p.data = snapshot[name].copy()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


CHECKPOINT_FORMAT = "graphscm-checkpoint"
CHECKPOINT_VERSION = 6
TENSOR_DTYPE = "<f8"  # every tensor's data: base64 of its row-major little-endian float64 bytes


def _encode_tensor(array: np.ndarray) -> dict:
    """The checkpoint entry of one tensor: its shape, dtype and base64 bytes."""
    raw = np.ascontiguousarray(array, dtype=TENSOR_DTYPE).tobytes()
    return {
        "shape": list(array.shape),
        "dtype": TENSOR_DTYPE,
        "data": base64.b64encode(raw).decode("ascii"),
    }


def save_checkpoint(model: ScmModel, path: str) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": asdict(model.meta),
        "tensors": {
            name: _encode_tensor(p.data) for name, p in sorted(model.named_parameters().items())
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # one dumps call runs the C encoder; json.dump to a file handle does not
    text = json.dumps(payload, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _decode_tensor(path: str, name: str, entry, shape: tuple) -> np.ndarray:
    """The owned, writable float64 array of checkpoint tensor ``name``; any
    mismatch with ``shape`` or with the encoding raises LoadError."""
    try:
        stored = tuple(entry["shape"])
        dtype, data = entry["dtype"], entry["data"]
    except (KeyError, TypeError) as exc:
        raise LoadError(f"{path}: malformed tensor {name!r}: {exc!r}") from exc
    if stored != shape:
        raise LoadError(f"{path}: tensor {name!r} has shape {stored}, expected {shape}")
    if dtype != TENSOR_DTYPE:
        raise LoadError(f"{path}: tensor {name!r} has dtype {dtype!r}, expected {TENSOR_DTYPE!r}")
    if not isinstance(data, str):
        raise LoadError(f"{path}: tensor {name!r} data is not a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except binascii.Error as exc:
        raise LoadError(f"{path}: tensor {name!r} data is not valid base64: {exc}") from exc
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise LoadError(
            f"{path}: tensor {name!r} holds {len(raw)} bytes, expected {expected} for shape {shape}"
        )
    # astype copies the read-only view of ``raw`` into an owned C-order array
    array = np.frombuffer(raw, dtype=TENSOR_DTYPE).reshape(shape).astype(np.float64)
    if not np.isfinite(array).all():
        raise LoadError(f"{path}: tensor {name!r} has non-finite values")
    return array


def load_checkpoint(path: str) -> ScmModel:
    if not os.path.isfile(path):
        raise LoadError(f"missing checkpoint file: {path}")
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise LoadError(f"{path}: not a model checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise LoadError(f"{path}: unsupported checkpoint version {payload.get('version')!r}")
    try:
        meta = ModelMeta(**payload["meta"])
        tensors = payload["tensors"]
    except (KeyError, TypeError) as exc:
        raise LoadError(f"{path}: malformed checkpoint: {exc}") from exc
    meta.validate(path)
    model = ScmModel._skeleton(meta)
    params = model.named_parameters()
    missing = sorted(set(params) - set(tensors))
    extra = sorted(set(tensors) - set(params))
    if missing or extra:
        raise LoadError(f"{path}: tensor names do not match (missing {missing}, extra {extra})")
    for name, p in params.items():
        p.data = _decode_tensor(path, name, tensors[name], p.data.shape)
    return model
