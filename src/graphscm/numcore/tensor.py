"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array. While a ``Tape`` is active, every
operation that involves a grad-requiring input appends a record (output
reference plus a gradient closure) to the tape; ``Tape.backward`` replays
the records in exact reverse order of recording, which is always a valid
reverse topological order because inputs are recorded before the outputs
that consume them.

Broadcasting is deliberately restricted: apart from same-shape operands,
only a 1-D row vector against a 2-D matrix (per-row bias) and a 0-d scalar
against anything are supported. This keeps every gradient rule small enough
to audit by hand.

Stacked tensors carry independent slices along a leading axis (one per
variable or per network). Their ops (``stacked_mlp``, ``block_affine``,
``take``, and ``frobenius_sq`` on 3-D input) run every slice through the
same numpy call the unstacked 2-D op makes on it, so a stacked network
computes the same bits as its per-slice counterpart while recording one
tape entry per call. ``stacked_mlp`` runs a whole ReLU perceptron as
one entry, with the numpy calls of its per-layer chain. ``pair_mix`` is
the exception: it records one entry too, but sums over causes as matrix
products, within 1e-12 * max(1, max|x|) of the per-pair chain it replaces
rather than bit for bit.

A gradient closure hands ``_accumulate`` an array that no other tensor holds:
ops that pass their incoming gradient on (or a view of it) copy it first.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..errors import DimensionError, NumericError

Scalarish = Union["Tensor", float, int]


class Tensor:
    """A float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
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

    def zero_grad(self) -> None:
        self.grad = None

    def copy(self) -> "Tensor":
        t = Tensor(self.data.copy(), requires_grad=self.requires_grad, name=self.name)
        return t

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"

    # operator sugar; floats/ints are lifted to constant tensors
    def __add__(self, other: Scalarish) -> "Tensor":
        return add(self, _lift(other))

    def __sub__(self, other: Scalarish) -> "Tensor":
        return sub(self, _lift(other))

    def __mul__(self, other: Scalarish) -> "Tensor":
        return mul(self, _lift(other))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)


def _lift(x: Scalarish) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(float(x))


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

    def record(self, out: Tensor, backward_fn: Callable) -> None:
        self._records.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every grad-requiring leaf."""
        if loss.data.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not np.isfinite(loss.data):
            raise NumericError("backward called on a non-finite loss")
        loss.grad = np.ones_like(loss.data)
        for out, fn in reversed(self._records):
            if out.grad is not None:
                fn(out.grad)


def _active_tape() -> Optional[Tape]:
    return Tape._active


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; a first gradient is stored as given."""
    t.grad = g if t.grad is None else t.grad + g


def _record(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, backward_fn)
    return out


def _reduce_to(shape: tuple, g: np.ndarray) -> np.ndarray:
    # undo the row-vector / scalar broadcast used on the forward pass
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    if len(shape) == 1 and g.ndim == 2 and g.shape[1] == shape[0]:
        return g.sum(axis=0)
    raise DimensionError(f"cannot reduce gradient of shape {g.shape} to {shape}")


def _scatter(t: Tensor, index, part: np.ndarray) -> np.ndarray:
    """The gradient of ``t`` from ``part``, the gradient of ``t[index]``:
    zero outside the index, and ``part`` itself when ``index`` is None."""
    if index is None:
        return part
    full = np.zeros(t.shape)
    full[index] = part
    return full


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape:
        return
    if a.shape == () or b.shape == ():
        return
    # 1-D row vector against a matrix with matching width, either order
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return
    if a.ndim == 1 and b.ndim == 2 and b.shape[1] == a.shape[0]:
        return
    raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} are not compatible")


# ---------------------------------------------------------------------------
# binary arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = Tensor(a.data + b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _reduce_to(a.shape, g).copy())
        if b.requires_grad:
            _accumulate(b, _reduce_to(b.shape, g).copy())

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    out = Tensor(a.data - b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _reduce_to(a.shape, g).copy())
        if b.requires_grad:
            _accumulate(b, _reduce_to(b.shape, -g))

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product (same shape, or scalar/row-vector broadcast)."""
    _check_broadcast(a, b, "mul")
    out = Tensor(a.data * b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _reduce_to(a.shape, g * b.data))
        if b.requires_grad:
            _accumulate(b, _reduce_to(b.shape, g * a.data))

    return _record(out, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a non-differentiable python constant."""
    c = float(c)
    out = Tensor(a.data * c)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g * c)

    return _record(out, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _record(out, (a, b), backward)


# ---------------------------------------------------------------------------
# elementwise nonlinearities

def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * (x.data > 0.0))

    return _record(out, (x,), backward)


def log(x: Tensor) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        out = Tensor(np.log(x.data))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g / x.data)

    return _record(out, (x,), backward)


def clamp_min(x: Tensor, floor: float) -> Tensor:
    """max(x, floor); gradient passes only where x > floor."""
    out = Tensor(np.maximum(x.data, floor))

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * (x.data > floor))

    return _record(out, (x,), backward)


def square(x: Tensor) -> Tensor:
    out = Tensor(x.data * x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * 2.0 * x.data)

    return _record(out, (x,), backward)


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
        if x.requires_grad:
            dot = (g * y).sum(axis=1, keepdims=True)
            _accumulate(x, y * (g - dot))

    return _record(out, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, np.broadcast_to(g, x.shape).copy())

    return _record(out, (x,), backward)


def frobenius_sq(x: Tensor) -> Tensor:
    """Sum of squared entries (squared Frobenius norm), as a 0-d tensor. A
    stacked (3-D) tensor is summed slice by slice and the slice sums are
    added in order, as a chain of per-slice ``frobenius_sq`` and ``add``
    would."""
    squares = x.data * x.data
    if x.ndim == 3:
        total = squares[0].sum()
        for part in squares[1:]:
            total = total + part.sum()
    else:
        total = squares.sum()
    out = Tensor(total)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * 2.0 * x.data)

    return _record(out, (x,), backward)


def index_scalar(x: Tensor, i: int, j: int) -> Tensor:
    """Read entry (i, j) of a 2-D tensor as a 0-d tensor."""
    if x.ndim != 2:
        raise DimensionError(f"index_scalar needs a 2-D tensor, got {x.shape}")
    out = Tensor(x.data[i, j])

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            contrib = np.zeros(x.shape)
            contrib[i, j] = g
            _accumulate(x, contrib)

    return _record(out, (x,), backward)


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
            if weights[l].requires_grad:
                _accumulate(weights[l], _scatter(weights[l], rows, np.matmul(hs[l].transpose(0, 2, 1), g)))
            if biases[l].requires_grad:
                _accumulate(biases[l], _scatter(biases[l], rows, g.sum(axis=1)))
            if l:
                g = np.matmul(g, Ws[l].transpose(0, 2, 1))
                g *= hs[l] > 0.0
            elif x.requires_grad:
                _accumulate(x, np.matmul(g, Ws[0].transpose(0, 2, 1)))

    return _record(Tensor(out), (x, *weights, *biases), backward)


def block_affine(xs: Sequence[np.ndarray], w: Tensor, b: Tensor) -> Tensor:
    """Independent affine maps of constant 2-D arrays of one height, stacked:
    out[j] = xs[j] @ w[o_j : o_j + d_j] + b[j], where d_j is the width of
    ``xs[j]`` and o_j the sum of the earlier widths. ``w`` (sum of d_j, q)
    holds the maps' weights one under another, so inputs of any widths need
    no padding, and each slot computes the bits of its own ``matmul`` and
    ``add``."""
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
        if w.requires_grad:
            gw = np.empty(w.shape)
            for j, x in enumerate(xs):
                gw[blocks[j]] = x.T @ g[j]
            _accumulate(w, gw)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=1))

    return _record(Tensor(out), (w, b), backward)


def take(x: Tensor, index) -> Tensor:
    """``x[index]`` for a basic index (ints and slices), as a view of ``x``."""
    out = Tensor(x.data[index])

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, _scatter(x, index, g))

    return _record(out, (x,), backward)


class _PairGrid(NamedTuple):
    """The (cause, pair) cells of one ``pair_mix`` call, laid out as a grid:
    row r is cause ``rows[r]``, and its cells are its pair maps into the
    targets ``targets[r]``, ascending. Flattened row-major, cell j feeds
    output row ``out[1][j]``."""

    rows: np.ndarray     # (c,) cause indices
    causes: object       # the same rows as an index into the effects; a slice when it can
    targets: np.ndarray  # (c, m) target variable of each cell
    cells: tuple         # index of the cells into weight and bias; slices (a view) when it can
    out: tuple           # (cell, output row) of every cell, an index into a (cells, outputs) array


def _rows(idx: np.ndarray) -> Union[slice, np.ndarray]:
    """A slice for a contiguous ascending run of indices (numpy then returns
    a view), else the indices."""
    if idx.size and np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
        return slice(int(idx[0]), int(idx[0]) + idx.size)
    return idx


@functools.lru_cache(maxsize=None)
def _pair_grid(n: int, causes: int, targets: tuple[int, ...]) -> _PairGrid:
    if targets == tuple(range(n)) and causes == n:
        rows = np.arange(n)
        slots = np.tile(np.arange(n - 1), (n, 1))
        tgt = slots + (slots >= rows[:, None])
        out = tgt  # output row q is variable q
    elif len(targets) == 1:
        k = targets[0]
        rows = np.array([i for i in range(causes) if i != k])
        tgt = np.full((rows.size, 1), k)
        slots = tgt - (tgt > rows[:, None])
        out = np.zeros_like(tgt)
    else:
        raise DimensionError(f"pair_mix targets every variable or one, got {list(targets)}")
    r, s = _rows(rows), _rows(slots[0])
    uniform = isinstance(r, slice) and isinstance(s, slice) and (slots == slots[0]).all()
    cells = (r, s) if uniform else (rows[:, None], slots)
    return _PairGrid(rows, r, tgt, cells, (np.arange(out.size), out.reshape(-1)))


def pair_mix(effects: Tensor, weight: Tensor, bias: Tensor, dag: Tensor, targets) -> Tensor:
    """Weighted sums of pairwise affine maps, one per target variable:

        out[q] = sum_{i != k} (E_i W[i, s(i, k)] + b[i, s(i, k)]) * A[i, k],  k = targets[q]

    over the causes i = 0 .. len(effects) - 1, where s(i, k) = k - (k > i)
    is the slot of the pair map (i -> k). ``effects`` is (c, B, D),
    ``weight`` (n, n - 1, D, D), ``bias`` (n, n - 1, D) and ``dag`` (n, n).
    ``targets`` is every variable (then c = n) or one.

    The products E_i W run as one stacked matmul. The sums over causes are
    small matrix products with ``mix`` (cells x outputs), which holds
    A[i, k] in the output column of cell (i, k) and zero elsewhere; the
    biases are summed apart from the products. So the output and the
    gradients of ``effects``, ``bias`` and ``dag`` round differently from a
    chain of per-pair affine maps, within 1e-12 of it relative to the
    largest entry; the weight gradient keeps that chain's bits, because it
    is E_i^T (A[i, k] g_k) with the same product A[i, k] g_k.

    The products E_i W are dropped once the output is formed, not kept for
    the backward: it runs cause by cause, and reads the gradient of A[i, k]
    as the sum of E_i * (g_k W^T), from the product g_k W^T that the
    gradient of E_i needs anyway. When the weights a call reads are a
    contiguous block (every target, or the last variable from the ones
    before it) they are read in place, not copied.
    """
    n = dag.shape[0]
    c = effects.shape[0]
    if weight.shape[:2] != (n, n - 1) or bias.shape != weight.shape[:3]:
        raise DimensionError(f"pair_mix: weight {weight.shape} and bias {bias.shape} do not fit {n} variables")
    if effects.ndim != 3 or c > n or effects.shape[2] != weight.shape[2]:
        raise DimensionError(f"pair_mix: effects {effects.shape} do not fit weight {weight.shape}")
    targets = tuple(int(k) for k in targets)
    if any(not 0 <= k < n for k in targets):
        raise DimensionError(f"pair_mix: targets {list(targets)} out of range [0, {n})")
    grid = _pair_grid(n, c, targets)
    E = effects.data[grid.causes]
    W, b = weight.data[grid.cells], bias.data[grid.cells]
    a = dag.data[grid.rows[:, None], grid.targets]
    mix = np.zeros((a.size, len(targets)))
    mix[grid.out] = a.reshape(-1)
    pre = np.matmul(E[:, None], W).reshape(a.size, -1)
    out = (mix.T @ pre).reshape((len(targets),) + E.shape[1:])
    del pre
    flat_b = b.reshape(a.size, -1)
    out += (mix.T @ flat_b)[:, None, :]

    def backward(g: np.ndarray) -> None:
        gsum = g.sum(axis=1)
        feeds = grid.out[1].reshape(a.shape)  # the output row each cell feeds
        dE, dW, dA = np.empty(E.shape), np.empty(W.shape), np.empty(a.shape)
        gr, q = np.empty((2, W.shape[1]) + g.shape[1:])  # one cause's (cells, B, D) scratch
        for r in range(len(E)):  # cause by cause, so that one cause's cells stay in cache
            np.take(g, feeds[r], axis=0, out=gr, mode="clip")  # in range by construction
            np.matmul(gr, W[r].transpose(0, 2, 1), out=q)
            flat_q = q.reshape(len(q), -1)
            np.matmul(a[r], flat_q, out=dE[r].reshape(-1))
            np.matmul(flat_q, E[r].reshape(-1), out=dA[r])
            gr *= a[r][:, None, None]
            np.matmul(E[r].T, gr, out=dW[r])
        dA += (flat_b @ gsum.T)[grid.out].reshape(a.shape)
        grads = (
            (effects, grid.causes, dE),
            (weight, grid.cells, dW),
            (bias, grid.cells, (mix @ gsum).reshape(b.shape)),
            (dag, (grid.rows[:, None], grid.targets), dA),
        )
        for t, index, d in grads:
            if t.requires_grad:  # the cells may cover part of t
                _accumulate(t, d if d.shape == t.shape else _scatter(t, index, d))

    return _record(Tensor(out), (effects, weight, bias, dag), backward)
