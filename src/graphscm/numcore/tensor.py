"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array. While a ``Tape`` is active, every
operation appends a record (output reference plus a gradient closure) to
the tape, and its closure sends a gradient to every input, constants
included; ``Tape.backward`` replays the records in exact reverse order of
recording, which is always a valid reverse topological order because inputs
are recorded before the outputs that consume them. With no tape active
nothing is recorded and no gradient is kept.

There is no broadcasting: the operands of ``add``, ``sub`` and ``mul``
have one shape, so no gradient needs folding back to a smaller operand.
The one bias add of an unstacked layer lives in ``affine``, which computes
``x @ W + b`` as one record.

Stacked tensors carry independent slices along a leading axis (one per
variable or per network). Their ops (``stacked_mlp``, ``block_affine``,
``take`` and ``sq_error``) run every slice through the same numpy call the
unstacked 2-D op makes on it, so a stacked network computes the same bits
as its per-slice counterpart while recording one tape entry per call. ``stacked_mlp`` runs a whole ReLU perceptron as
one entry, with the numpy calls of its per-layer chain. ``dag_mix``, the
structural assignment's sum over causes, also records one entry: a
product of the DAG matrix with every slice at once, so its sums round as
BLAS orders them, within 1e-12 * max(1, max|x|) of a cause-by-cause chain
of scaled adds rather than bit for bit.

A gradient closure hands ``_accumulate`` an array that no other tensor holds:
ops that pass their incoming gradient on (or a view of it) copy it first.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import DimensionError, NumericError


class Tensor:
    """A float64 array with a gradient slot."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: Optional[str] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.flat[0])

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"


class Tape:
    """Ordered record of differentiable operations.

    Used as a context manager around a forward computation; ``backward``
    seeds the loss gradient with 1 and replays the gradient closures in
    reverse recording order, accumulating into ``Tensor.grad``.
    """

    _active: Optional["Tape"] = None

    def __init__(self):
        self._records: list[tuple[Tensor, Callable]] = []

    def __enter__(self) -> "Tape":
        if Tape._active is not None:
            raise RuntimeError("tapes do not nest; close the active tape first")
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        Tape._active = None

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(t) into every tensor t the loss was computed from."""
        if loss.data.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not np.isfinite(loss.data):
            raise NumericError("backward called on a non-finite loss")
        loss.grad = np.ones_like(loss.data)
        for out, fn in reversed(self._records):
            if out.grad is not None:
                fn(out.grad)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; a first gradient is stored as given."""
    t.grad = g if t.grad is None else t.grad + g


def _record(out: Tensor, backward_fn) -> Tensor:
    if Tape._active is not None:
        Tape._active._records.append((out, backward_fn))
    return out


def _scatter(t: Tensor, index, part: np.ndarray) -> np.ndarray:
    """The gradient of ``t`` from ``part``, the gradient of ``t[index]``:
    zero outside the index, and ``part`` itself when ``index`` is None."""
    if index is None:
        return part
    full = np.zeros(t.shape)
    full[index] = part
    return full


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# binary arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.copy())
        _accumulate(b, g.copy())

    return _record(out, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.copy())
        _accumulate(b, -g)

    return _record(out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product of two tensors of one shape."""
    _check_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _record(out, backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a non-differentiable python constant."""
    c = float(c)
    out = Tensor(a.data * c)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * c)

    return _record(out, backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a 2-D ``x`` (B, p), a weight ``w`` (p, q) and a bias
    row ``b`` (q,) added to every row. The gradients are g @ w^T for ``x``,
    x^T @ g for ``w`` and the column sums of g for ``b``."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise DimensionError(f"affine: input {x.shape}, weight {w.shape} and bias {b.shape} do not fit")
    out = Tensor(x.data @ w.data + b.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.sum(axis=0))

    return _record(out, backward)


# ---------------------------------------------------------------------------
# elementwise nonlinearities

def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (x.data > 0.0))

    return _record(out, backward)


def log(x: Tensor) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        out = Tensor(np.log(x.data))

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g / x.data)

    return _record(out, backward)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor); gradient passes only where x > floor."""
    out = Tensor(np.maximum(x.data, floor))

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (x.data > floor))

    return _record(out, backward)


def square(x: Tensor) -> Tensor:
    out = Tensor(x.data * x.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * 2.0 * x.data)

    return _record(out, backward)


# ---------------------------------------------------------------------------
# reductions and row-wise ops

def softmax(x: Tensor) -> Tensor:
    """Row-softmax of a 2-D tensor; every output row sums to 1."""
    if x.ndim != 2:
        raise DimensionError(f"softmax needs a 2-D tensor, got {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def backward(g: np.ndarray) -> None:
        dot = (g * y).sum(axis=1, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _record(out, backward)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.broadcast_to(g, x.shape).copy())

    return _record(out, backward)


def sq_error(a: Tensor, b: Tensor, c: float) -> Tensor:
    """c * sum((a - b)^2) as a 0-d tensor, for stacked (3-D) operands of one
    shape. The difference is summed slice by slice and the slice sums are
    added in order, as a chain of per-slice sums and adds would. One tape
    record, with the arithmetic of the difference, sum-of-squares and scale
    records it replaces in the same order, so the value and both gradients
    keep that chain's bits; ``a`` and ``b`` get gradients that share no
    array."""
    if a.ndim != 3 or a.shape != b.shape:
        raise DimensionError(f"sq_error needs 3-D operands of one shape, got {a.shape} and {b.shape}")
    c = float(c)
    d = a.data - b.data
    squares = d * d
    total = squares[0].sum()
    for part in squares[1:]:
        total = total + part.sum()
    out = Tensor(total * c)

    def backward(g: np.ndarray) -> None:
        gd = g * c * 2.0 * d
        _accumulate(a, gd)
        _accumulate(b, -gd)

    return _record(out, backward)


# ---------------------------------------------------------------------------
# stacked ops: independent 2-D slices along a leading axis

def stacked_mlp(x: Tensor, weights: Sequence[Tensor], biases: Sequence[Tensor], rows: Optional[slice] = None) -> Tensor:
    """Stacked perceptrons, (m, B, p) -> (m, B, q): layer l maps h to
    h @ W_l + b_l slice by slice, with a ReLU between consecutive layers.
    ``weights[l]`` is (count, p_l, q_l) and ``biases[l]`` (count, q_l); with
    ``rows`` (a slice) the inputs run through those networks only, read as
    views. One tape record for the whole network, which keeps only the ReLU
    outputs: a post-ReLU value is > 0 exactly where its input was (NaN too).
    Each step is the numpy call that a chain of per-layer slice-wise
    matmul-plus-bias and ``relu`` records makes, on the same operands in the
    same order, so the output and every gradient keep that chain's bits."""
    if x.ndim != 3:
        raise DimensionError(f"stacked_mlp needs a 3-D input, got {x.shape}")
    if len(weights) != len(biases) or not weights:
        raise DimensionError(f"stacked_mlp needs one bias per weight, got {len(weights)} and {len(biases)}")
    Ws = [w.data if rows is None else w.data[rows] for w in weights]
    bs = [b.data if rows is None else b.data[rows] for b in biases]
    width = x.shape[2]
    for w, b in zip(Ws, bs):
        if w.ndim != 3 or w.shape[:2] != (x.shape[0], width) or b.shape != (w.shape[0], w.shape[2]):
            raise DimensionError(f"stacked_mlp: layer {w.shape} with bias {b.shape} does not fit input {x.shape}")
        width = w.shape[2]
    hs = [x.data]  # the input of each layer
    for l, (w, b) in enumerate(zip(Ws, bs)):
        if l:
            np.maximum(out, 0.0, out=out)
            hs.append(out)
        out = np.matmul(hs[-1], w)
        out += b[:, None, :]

    def backward(g: np.ndarray) -> None:
        for l in range(len(Ws) - 1, -1, -1):
            _accumulate(weights[l], _scatter(weights[l], rows, np.matmul(hs[l].transpose(0, 2, 1), g)))
            _accumulate(biases[l], _scatter(biases[l], rows, g.sum(axis=1)))
            if l:
                g = np.matmul(g, Ws[l].transpose(0, 2, 1))
                g *= hs[l] > 0.0
            else:
                _accumulate(x, np.matmul(g, Ws[0].transpose(0, 2, 1)))

    return _record(Tensor(out), backward)


def block_affine(xs: Sequence[np.ndarray], w: Tensor, b: Tensor) -> Tensor:
    """Independent affine maps of constant 2-D arrays of one height, stacked:
    out[j] = xs[j] @ w[o_j : o_j + d_j] + b[j], where d_j is the width of
    ``xs[j]`` and o_j the sum of the earlier widths. ``w`` (sum of d_j, q)
    holds the maps' weights one under another, so inputs of any widths need
    no padding, and each slot computes the bits of its own ``affine``."""
    cols = [x.shape[1] if x.ndim == 2 else -1 for x in xs]
    if not xs or min(cols) < 0 or any(x.shape[0] != xs[0].shape[0] for x in xs):
        raise DimensionError(f"block_affine needs 2-D inputs of one height, got {[x.shape for x in xs]}")
    if w.ndim != 2 or w.shape[0] != sum(cols) or b.shape != (len(xs), w.shape[1]):
        raise DimensionError(f"block_affine: widths {cols} do not fit weight {w.shape} and bias {b.shape}")
    offsets = np.concatenate([[0], np.cumsum(cols)])
    blocks = [slice(offsets[j], offsets[j + 1]) for j in range(len(xs))]
    out = np.empty((len(xs), xs[0].shape[0], w.shape[1]))
    for j, x in enumerate(xs):
        out[j] = x @ w.data[blocks[j]]
    out += b.data[:, None, :]

    def backward(g: np.ndarray) -> None:
        g = np.ascontiguousarray(g)
        gw = np.empty(w.shape)
        for j, x in enumerate(xs):
            gw[blocks[j]] = x.T @ g[j]
        _accumulate(w, gw)
        _accumulate(b, g.sum(axis=1))

    return _record(Tensor(out), backward)


def take(x: Tensor, index) -> Tensor:
    """``x[index]`` for a basic index (ints and slices), as a view of ``x``."""
    out = Tensor(x.data[index])

    def backward(g: np.ndarray) -> None:
        _accumulate(x, _scatter(x, index, g))

    return _record(out, backward)


def dag_mix(effects: Tensor, dag: Tensor) -> Tensor:
    """The causes of each target variable k, weighted by the DAG:

        out[k] = sum_{i != k} A[i, k] * E_i

    over the causes i = 0 .. c - 1. ``effects`` is (c, B, D) and ``dag``
    (n, n). With c = n every variable is a target, and the diagonal of A is
    read as zero; with c = n - 1 the one target is the label, the last
    variable, weighted by the column A[:n - 1, n - 1]. Either way the
    output is one product of (the used part of) A^T with the effects
    flattened to (c, B * D), and the backward is two: A g for the effects
    and E g^T for A. The diagonal of A takes no gradient.
    """
    if dag.ndim != 2 or dag.shape[0] != dag.shape[1]:
        raise DimensionError(f"dag_mix needs a square DAG matrix, got {dag.shape}")
    n, c = dag.shape[0], effects.shape[0]
    if effects.ndim != 3 or c not in (n, n - 1):
        raise DimensionError(f"dag_mix: effects {effects.shape} do not fit {n} variables")
    if c == n:
        index = None
        mix = dag.data.copy()
        np.fill_diagonal(mix, 0.0)
    else:
        index = (slice(0, n - 1), slice(n - 1, n))
        mix = dag.data[index]
    E = effects.data.reshape(c, -1)
    out = (mix.T @ E).reshape((mix.shape[1],) + effects.shape[1:])

    def backward(g: np.ndarray) -> None:
        flat_g = g.reshape(g.shape[0], -1)
        _accumulate(effects, (mix @ flat_g).reshape(effects.shape))
        da = E @ flat_g.T
        if index is None:
            np.fill_diagonal(da, 0.0)
        _accumulate(dag, _scatter(dag, index, da))

    return _record(Tensor(out), backward)
