"""The structural causal model layer.

A trainable matrix ``A`` holds one weight per ordered variable pair,
A[i, k] being the strength of "variable i directly causes variable k".
Each variable k is reconstructed from the others as

    h_hat_k = Decoder_k( sum_{i != k} A[i, k] * Effect_i(h_i) )

where Effect_i is a two-layer ReLU perceptron shared across every target of i
and Decoder_k is a three-layer ReLU perceptron, one network per target over
its A-weighted causes as in NOTEARS-MLP (Zheng et al. 2020) and GraN-DAG
(Lachapelle et al. 2020). A variable is never its own cause: the i = k term
is skipped structurally, and the diagonal of A stays exactly zero without a
pass that re-zeroes it. ``init_dag`` starts it at zero; ``dag_mix`` neither
reads it nor sends it a gradient, the acyclicity gradient there is
g e_ii 2 A_ii = 0, and A takes no weight decay, so AdamW never moves it;
the checkpoint loader rejects a nonzero one; and a test of ``train`` checks
it after every optimizer step. The n effect networks and the n decoders
are each stacked along a leading axis and run by the stacked ops of
``numcore``; ``dag_mix`` forms every target's weighted sum of causes as
one product with A.

Training encodes and reconstructs all n variables. Label prediction encodes
the n - 1 variables before the label, reconstructs only the label variable
from them and maps it back to class space through a two-layer shortcut
network approximating the inverse of the label encoder. A batch is the
(slots, B, width) tensor of ``VariableBuilder.build``; ``reconstruct`` reads
which of the two it runs from its slot count.

A checkpoint is one line of JSON, the header, followed by the data section:
the header holds the format, the version, the model metadata and each
tensor's shape and dtype; the data section holds every tensor's row-major
little-endian float64 bytes back to back in ascending name order, so a
tensor's bytes start where the previous one's end and no offsets are
stored. ``load_checkpoint`` checks the header field by field, the tensor
names, dtypes and shapes against the model's, that the data section holds
exactly the bytes the shapes call for, that every value is finite and that
``dag.A``'s diagonal is zero, and names the file and the tensor when one
fails.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .encoders import Encoders
from .errors import ContractError, DimensionError, LoadError, is_json_int
from .numcore import Linear, StackedMlp, Tensor, add, dag_mix, relu, softmax, take
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
    return Tensor(a, name="dag.A")


class ScmParameters:
    """DAG matrix plus all assignment networks for ``n_vars`` variables.

    Each kind of network is stacked along a leading axis: ``effect`` slice i
    is Effect_i and ``decoder`` slice k is Decoder_k, each ``width`` wide in
    every layer, as every variable is. With no ``rng`` nothing is drawn and
    every tensor starts at zero.
    """

    def __init__(self, n_vars: int, width: int, num_classes: int, rng: np.random.Generator | None):
        if n_vars < 2:
            raise ContractError("an SCM needs at least two variables")
        n = self.n_vars = n_vars
        self.width = width
        # initial weights are drawn network by network: effects, decoders, the
        # label shortcut
        if rng is None:
            self.dag = Tensor(np.zeros((n, n)), name="dag.A")
        else:
            self.dag = init_dag(n, rng)
        self.effect = StackedMlp(n, width, 2, rng, "scm.effect")
        if rng is not None:
            # the draws of the n(n - 1) per-pair D x D maps the model once had,
            # taken and dropped so that every later tensor keeps its initial values
            rng.uniform(size=n * (n - 1) * width * width)
        self.decoder = StackedMlp(n, width, 3, rng, "scm.decoder")
        self.inv1 = Linear(width, width, rng, "scm.inv1")
        self.inv2 = Linear(width, num_classes, rng, "scm.inv2")
        self.decoder_calls = 0  # instrumentation: one bump per decoded variable per batch

    def parameters(self) -> list[Tensor]:
        return (
            [self.dag]
            + self.effect.parameters()
            + self.decoder.parameters()
            + self.inv1.parameters()
            + self.inv2.parameters()
        )


def reconstruct(vars: Tensor, params: ScmParameters) -> Tensor:
    """Structural assignments, each from every other variable weighted by
    A[:, k], stacked as (targets, B, width). The slot count of the
    (slots, B, width) batch ``vars`` sets the targets: n slots reconstruct
    every variable, in order; the n - 1 slots before the label reconstruct
    the label alone.

    The tape records the same number of entries whatever the number of
    variables.
    """
    n = params.n_vars
    count, _, width = vars.shape
    if count not in (n, n - 1) or width != params.width:
        raise DimensionError(
            f"batch has {count} variables of width {width}, model expects {n} (or {n - 1} without the label)"
            f" of width {params.width}"
        )
    label = count == n - 1
    effects = params.effect(vars, slice(0, n - 1) if label else None)
    mixed = dag_mix(effects, params.dag)
    params.decoder_calls += mixed.shape[0]
    return params.decoder(mixed, slice(n - 1, n) if label else None)


def reconstruct_all(vars: Tensor, params: ScmParameters) -> Tensor:
    """Training-time structural assignments of every variable, stacked."""
    if vars.shape[0] != params.n_vars:
        raise ContractError("reconstruct_all needs a batch built with labels")
    return reconstruct(vars, params)


def label_probabilities_from(decoded: Tensor, params: ScmParameters) -> Tensor:
    """Map the reconstructed label variable, the last slot of ``decoded``, to
    class probabilities through the shortcut network approximating the label
    encoder's inverse."""
    h_y_hat = take(decoded, -1)
    shortcut = relu(params.inv1(h_y_hat))
    logits = params.inv2(add(h_y_hat, shortcut))
    return softmax(logits)


def predict_labels(vars: Tensor, params: ScmParameters) -> Tensor:
    """Class probabilities via the reconstructed label variable only, from a
    batch built without labels: it holds the n - 1 variables before the
    label, so the label is never encoded, and exactly one variable decoder
    (the label's) runs.
    """
    if vars.shape[0] != params.n_vars - 1:
        raise ContractError("predict_labels needs a batch built without labels")
    return label_probabilities_from(reconstruct(vars, params), params)


# ---------------------------------------------------------------------------
# full model and checkpointing

@dataclass
class ModelMeta:
    """Everything needed to rebuild the model skeleton and its data pipeline."""

    variable_names: list[str]
    num_classes: int
    hidden_dim: int
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
        if not isinstance(self.multiset_neighbors, bool):
            raise bad("multiset_neighbors", "a boolean")


class ScmModel:
    """Encoders plus SCM parameters, addressable as one named-tensor set.

    With a ``seed`` the initial weights are drawn from its "init" substream;
    with None every tensor is zero and nothing is drawn: the frame a
    checkpoint's tensors are loaded into.
    """

    def __init__(self, meta: ModelMeta, seed: int | None = 0):
        rng = None if seed is None else substream(seed, "init")
        self.meta = meta
        self.encoders = Encoders(meta.target_dim, meta.num_classes, meta.terminal_dims, meta.hidden_dim, rng)
        self.scm = ScmParameters(len(meta.variable_names), meta.hidden_dim, meta.num_classes, rng)

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
CHECKPOINT_VERSION = 9
TENSOR_DTYPE = "<f8"  # every tensor's data: its row-major little-endian float64 bytes


def save_checkpoint(model: ScmModel, path: str) -> None:
    """Write ``model`` as one JSON header line, then every tensor's bytes
    back to back in ascending name order."""
    arrays = {name: p.data for name, p in sorted(model.named_parameters().items())}
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": asdict(model.meta),
        "tensors": {name: {"shape": list(a.shape), "dtype": TENSOR_DTYPE} for name, a in arrays.items()},
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for array in arrays.values():
            fh.write(np.ascontiguousarray(array, dtype=TENSOR_DTYPE).data)


def _read_header(path: str, blob: bytes) -> tuple[dict, int]:
    """The parsed header line of checkpoint bytes ``blob`` and the offset of
    its data section; a file without a newline is all header."""
    end = blob.find(b"\n")
    if end < 0:
        end = len(blob)
    try:
        text = blob[:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LoadError(f"{path}:1:{exc.start + 1}: not UTF-8 text (byte 0x{blob[exc.start]:02x})") from exc
    try:
        header = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}:1:{exc.colno}: malformed checkpoint header: {exc.msg}") from exc
    return header, min(end + 1, len(blob))


def _check_entry(path: str, name: str, entry, shape: tuple) -> None:
    """Check the header entry of tensor ``name``: its dtype, and its shape
    against the model tensor's ``shape``."""
    try:
        stored = tuple(entry["shape"])
        dtype = entry["dtype"]
    except (KeyError, TypeError) as exc:
        raise LoadError(f"{path}: malformed tensor {name!r}: {exc!r}") from exc
    if stored != shape:
        raise LoadError(f"{path}: tensor {name!r} has shape {stored}, expected {shape}")
    if dtype != TENSOR_DTYPE:
        raise LoadError(f"{path}: tensor {name!r} has dtype {dtype!r}, expected {TENSOR_DTYPE!r}")


def load_checkpoint(path: str) -> ScmModel:
    if not os.path.isfile(path):
        raise LoadError(f"missing checkpoint file: {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    payload, offset = _read_header(path, blob)
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
    if not isinstance(tensors, dict):
        raise LoadError(f"{path}: field 'tensors' must be an object, not {type(tensors).__name__}")
    model = ScmModel(meta, seed=None)
    params = model.named_parameters()
    missing = sorted(set(params) - set(tensors))
    extra = sorted(set(tensors) - set(params))
    if missing or extra:
        raise LoadError(f"{path}: tensor names do not match (missing {missing}, extra {extra})")
    # each tensor's bytes start where the previous one's end
    for name, p in sorted(params.items()):
        _check_entry(path, name, tensors[name], p.data.shape)
        size = 8 * p.data.size
        if offset + size > len(blob):
            raise LoadError(
                f"{path}: tensor {name!r} holds {len(blob) - offset} bytes, expected {size} for shape {p.data.shape}"
            )
        # astype copies the read-only view of ``blob`` into an owned C-order array
        array = np.frombuffer(blob, TENSOR_DTYPE, p.data.size, offset).reshape(p.data.shape).astype(np.float64)
        if not np.isfinite(array).all():
            raise LoadError(f"{path}: tensor {name!r} has non-finite values")
        p.data = array
        offset += size
    if offset != len(blob):
        raise LoadError(f"{path}: trailing bytes after the last tensor {max(params)!r} ({len(blob) - offset})")
    if np.diagonal(params["dag.A"].data).any():  # training never moves it from zero; dag_mix would not read it
        raise LoadError(f"{path}: tensor 'dag.A' has a nonzero diagonal (a variable cannot cause itself)")
    return model
