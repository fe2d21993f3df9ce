"""The structural causal model layer.

A trainable matrix ``A`` holds one weight per ordered variable pair,
A[i, k] being the strength of "variable i directly causes variable k".
Each variable k is reconstructed from the others as

    h_hat_k = Decoder_k( sum_{i != k} A[i, k] * Pair_ik( Effect_i(h_i) ) )

where Effect_i is a two-layer perceptron shared across every target of i,
Pair_ik is an independent affine map per ordered pair, and Decoder_k is a
three-layer perceptron. The diagonal of A is pinned to zero (a variable is
never its own cause) and the i = k term is skipped structurally.

Label prediction reconstructs only the label variable and maps it back to
class space through a two-layer shortcut network approximating the inverse
of the label encoder.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .encoders import VariableBatch, init_encoders
from .errors import ContractError, DimensionError, LoadError, read_json
from .numcore import Linear, Mlp, Tensor, activate, add, index_scalar, mul, softmax
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
    """DAG matrix plus all assignment networks for ``n_vars`` variables."""

    def __init__(
        self,
        var_dims: list[int],
        num_classes: int,
        activation: str,
        rng: np.random.Generator,
        mlp_hidden: int | None = None,
    ):
        n = len(var_dims)
        if n < 2:
            raise ContractError("an SCM needs at least two variables")
        self.var_dims = list(var_dims)
        self.activation = activation
        hidden = mlp_hidden if mlp_hidden is not None else max(var_dims)
        self.mlp_hidden = hidden
        self.dag = init_dag(n, rng)
        self.effect = [
            Mlp(d, hidden, d, 2, activation, rng, f"scm.effect.{i}")
            for i, d in enumerate(var_dims)
        ]
        self.pair = {
            (i, k): Linear(var_dims[i], var_dims[k], rng, f"scm.pair.{i}.{k}")
            for i in range(n)
            for k in range(n)
            if i != k
        }
        self.decoder = [
            Mlp(d, hidden, d, 3, activation, rng, f"scm.decoder.{k}")
            for k, d in enumerate(var_dims)
        ]
        label_dim = var_dims[-1]
        self.inv1 = Linear(label_dim, label_dim, rng, "scm.inv1")
        self.inv2 = Linear(label_dim, num_classes, rng, "scm.inv2")
        self.decoder_calls = 0  # instrumentation: one bump per decoded variable per batch

    @property
    def n_vars(self) -> int:
        return len(self.var_dims)

    def parameters(self) -> list[Tensor]:
        out = [self.dag]
        for mlp in self.effect:
            out += mlp.parameters()
        for key in sorted(self.pair):
            out += self.pair[key].parameters()
        for mlp in self.decoder:
            out += mlp.parameters()
        out += self.inv1.parameters() + self.inv2.parameters()
        return out


def _cause_effects(vars: VariableBatch, params: ScmParameters, needed: set[int]):
    return {i: params.effect[i](vars.variables[i]) for i in sorted(needed)}


def structural_assignment(
    k: int, vars: VariableBatch, params: ScmParameters, _effects=None
) -> Tensor:
    """Reconstruct variable k from every other variable, weighted by A[:, k]."""
    n = params.n_vars
    if not 0 <= k < n:
        raise ContractError(f"variable index {k} out of range [0, {n})")
    if vars.num_variables != n:
        raise DimensionError(f"batch has {vars.num_variables} variables, model expects {n}")
    if _effects is None:
        _effects = _cause_effects(vars, params, set(range(n)) - {k})
    acc = None
    for i in range(n):
        if i == k:
            continue
        weighted = mul(params.pair[(i, k)](_effects[i]), index_scalar(params.dag, i, k))
        acc = weighted if acc is None else add(acc, weighted)
    params.decoder_calls += 1
    return params.decoder[k](acc)


def reconstruct_all(vars: VariableBatch, params: ScmParameters) -> list[Tensor]:
    """Training-time stack of structural assignments for every variable."""
    if not np.all(vars.label_known):
        raise ContractError("reconstruct_all needs a batch built with labels")
    n = params.n_vars
    effects = _cause_effects(vars, params, set(range(n)))
    return [structural_assignment(k, vars, params, _effects=effects) for k in range(n)]


def label_probabilities_from(h_y_hat: Tensor, params: ScmParameters) -> Tensor:
    """Map a reconstructed label variable to class probabilities through the
    shortcut network approximating the label encoder's inverse."""
    shortcut = activate(params.inv1(h_y_hat), params.activation)
    logits = params.inv2(add(h_y_hat, shortcut))
    return softmax(logits)


def predict_labels(vars: VariableBatch, params: ScmParameters) -> Tensor:
    """Class probabilities via the reconstructed label variable only.

    Invokes exactly one variable decoder (the label's); the label slice of
    the batch is never read because the diagonal of A is zero and the i = k
    term is skipped.
    """
    h_y = structural_assignment(params.n_vars - 1, vars, params)
    return label_probabilities_from(h_y, params)


# ---------------------------------------------------------------------------
# full model and checkpointing

@dataclass
class ModelMeta:
    """Everything needed to rebuild the model skeleton and its data pipeline."""

    variable_names: list[str]
    var_dims: list[int]
    num_classes: int
    hidden_dim: int
    activation: str
    mlp_hidden: int
    max_metapath_len: int
    native_dims: bool
    multiset_neighbors: bool
    exclude_self: bool
    forward_only: bool
    target_type: str
    target_dim: int
    terminal_dims: list[int]


class ScmModel:
    """Encoders plus SCM parameters, addressable as one named-tensor set."""

    def __init__(self, meta: ModelMeta, seed: int = 0, rng: np.random.Generator | None = None):
        self.meta = meta
        if rng is None:
            rng = substream(seed, "init")
        self.encoders = init_encoders(
            meta.target_dim,
            meta.num_classes,
            meta.terminal_dims,
            meta.hidden_dim,
            rng,
            native_dims=meta.native_dims,
        )
        self.scm = ScmParameters(
            meta.var_dims,
            meta.num_classes,
            meta.activation,
            rng,
            mlp_hidden=meta.mlp_hidden,
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


def variable_dims(
    hidden_dim: int, terminal_dims: list[int], native_dims: bool
) -> list[int]:
    if native_dims:
        return [hidden_dim] + list(terminal_dims) + [hidden_dim]
    return [hidden_dim] * (len(terminal_dims) + 2)


CHECKPOINT_FORMAT = "graphscm-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(model: ScmModel, path: str) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "meta": asdict(model.meta),
        "tensors": {
            name: {"shape": list(p.data.shape), "data": p.data.reshape(-1).tolist()}
            for name, p in sorted(model.named_parameters().items())
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


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
    model = ScmModel(meta)
    params = model.named_parameters()
    missing = sorted(set(params) - set(tensors))
    extra = sorted(set(tensors) - set(params))
    if missing or extra:
        raise LoadError(f"{path}: tensor names do not match (missing {missing}, extra {extra})")
    for name, p in params.items():
        entry = tensors[name]
        shape = tuple(entry["shape"])
        if shape != p.data.shape:
            raise LoadError(
                f"{path}: tensor {name!r} has shape {shape}, expected {p.data.shape}"
            )
        p.data = np.array(entry["data"], dtype=np.float64).reshape(shape)
        if not np.isfinite(p.data).all():
            raise LoadError(f"{path}: tensor {name!r} has non-finite values")
    return model
