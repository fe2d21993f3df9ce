"""One benchmark round, run in a fresh process by ``run.py``.

A round drives graphscm from outside, the way a user runs it: load the
dataset, write it back out, split, train for a fixed number of epochs, save
the checkpoint and history, evaluate the checkpoint on the test split and
export the trimmed causal diagram through the CLI. It then repeats the
checkpoint round trip, the eval path and whole-graph prediction to sample
their times, checks every output it can, and writes what it measured to a
JSON file.

Usage: python3 perfbench/round.py JOB.json  (``run.py`` writes the job and
sets the thread variables this process inherits)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from spans import HookError, Span, Tracer

import graphscm.cli as cli_mod
import graphscm.encoders as encoders_mod
import graphscm.train as train_mod
from graphscm.errors import NumericError
from graphscm.hetgraph import load_graph, write_dataset
from graphscm.interpret import parse_dot
from graphscm.scm import load_checkpoint, save_checkpoint
from graphscm.splits import SplitSpec, ood_split
from graphscm.train import (
    TrainConfig,
    builder_for_model,
    evaluate,
    train,
    write_history_csv,
)

# tape-record ops reported one by one; the rest are summed as "other"
TAPE_OPS = ("matmul", "add", "mul", "index_scalar", "relu")

# The speed probe: fixed work that uses no graphscm code, in four parts of
# about equal time that mirror the program's kinds of work: small matrix
# products with Python object churn (a training step), a JSON round trip of
# floats (checkpoints), walking adjacency lists into sets (metapath pooling)
# and parsing tab-separated lines (dataset loading). A round runs the whole
# probe between its phases ("phase" probes) and the first part alone before
# every optimizer step but the first and every whole-graph prediction
# ("step" probes), never inside a timed interval. ``run.py`` scales each time by how fast the probe of its kind ran
# around it, which removes the shared host's speed shifts from the
# end-to-end metrics.
_PROBE_RNG = np.random.default_rng(0)
_PROBE_W = [_PROBE_RNG.standard_normal((32, 32)) for _ in range(6)]
_PROBE_X = _PROBE_RNG.standard_normal((128, 32))
_PROBE_FLOATS = _PROBE_RNG.standard_normal(2500).tolist()
_PROBE_ADJ = _PROBE_RNG.integers(0, 20_000, size=(20_000, 8)).tolist()
_PROBE_TEXT = "\n".join(f"{i}\t{i * 7 % 1000}\t{i % 13}" for i in range(3000))


def _probe_step_work() -> None:
    for _ in range(35):
        h = _PROBE_X
        for w in _PROBE_W:
            h = np.maximum(h @ w, 0.0) * 0.1
        row = [float(v) for v in h[0, :16]]
        table = {i: i * i for i in range(40)}
    if not (math.isfinite(row[0]) and len(table) == 40):
        raise RuntimeError("speed probe produced a wrong result")


def _probe_other_work() -> None:
    floats = json.loads(json.dumps({"data": _PROBE_FLOATS}))["data"]
    reached = 0
    for node in range(0, 20_000, 500):
        frontier = {node}
        for _ in range(3):
            frontier = {d for s in frontier for d in _PROBE_ADJ[s]}
        reached += len(frontier)
    rows = [tuple(int(x) for x in line.split("\t")) for line in _PROBE_TEXT.splitlines()]
    if not (floats == _PROBE_FLOATS and 0 < reached <= 40 * 512 and len(rows) == 3000):
        raise RuntimeError("speed probe produced a wrong result")


def probe(kind: str = "phase", repeats: int = 1) -> list[list]:
    """[midpoint, seconds, kind] of each of ``repeats`` runs of the probe:
    the whole of it for kind "phase", its first part for kind "step"."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        _probe_step_work()
        if kind == "phase":
            _probe_other_work()
        end = time.perf_counter()
        out.append([(start + end) / 2, end - start, kind])
    return out


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tensor_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in sorted(model.named_parameters().items()):
        h.update(name.encode())
        h.update(repr(p.data.shape).encode())
        h.update(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return h.hexdigest()


def _is_acyclic(names: list[str], edges: list[tuple[str, str, float]]) -> bool:
    """Kahn's algorithm over the parsed ``.dot`` edges, kept apart from the
    library's own acyclicity test so that the check does not trust it."""
    indegree = {n: 0 for n in names}
    out: dict[str, list[str]] = {n: [] for n in names}
    for src, dst, _ in edges:
        out[src].append(dst)
        indegree[dst] += 1
    ready = [n for n, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for nxt in out[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return seen == len(names)


def install_step_clock(tracer: Tracer, probes: list) -> None:
    """One span at each end of an optimizer step: its start (the model's
    ``zero_grad``) and its end (the AdamW update). Before every step but the
    first, outside the step's span, a step probe runs and is appended to
    ``probes``."""
    tracer.hook(train_mod.ScmModel, "zero_grad", "scm.zero_grad")
    tracer.hook(train_mod.AdamW, "step", "numcore.adamw")
    timed_zero_grad = train_mod.ScmModel.zero_grad
    calls = 0

    def zero_grad(self):
        nonlocal calls
        if calls:
            probes.extend(probe("step"))
        calls += 1
        return timed_zero_grad(self)

    train_mod.ScmModel.zero_grad = zero_grad


def install_layer_hooks(tracer: Tracer) -> None:
    """Spans around the finer public functions ``train()`` and the CLI call."""
    tape_cls = train_mod.Tape
    if not hasattr(tape_cls(), "_records"):
        raise HookError("cannot count tape records: graphscm.numcore.Tape has no _records")

    def tape_ops(args):
        return {"ops": Counter(fn.__qualname__.split(".")[0] for _, fn in args[0]._records)}

    def decoder_calls_before(args):
        return {"calls_before": args[1].decoder_calls}

    def decoder_calls_after(record, args):
        record.attrs["decoder_calls"] = args[1].decoder_calls - record.attrs["calls_before"]

    tracer.hook(tape_cls, "backward", "numcore.backward", before=tape_ops)
    tracer.hook(train_mod.VariableBuilder, "build", "encoders.build")
    tracer.hook(train_mod.VariableBuilder, "__init__", "encoders.pool")
    tracer.hook(
        encoders_mod, "pooled_neighbor_features", lambda args: f"hetgraph.pool.{args[2].name}",
        before=lambda args: {"length": len(args[2])},
    )
    tracer.hook(train_mod, "reconstruct_all", "scm.forward")
    tracer.hook(train_mod, "label_probabilities_from", "scm.label_probs")
    tracer.hook(train_mod, "predict_labels", "scm.predict",
                before=decoder_calls_before, after=decoder_calls_after)
    tracer.hook(train_mod.ScmModel, "state_snapshot", "scm.snapshot")
    tracer.hook(train_mod, "loss_rec", "losses.rec")
    tracer.hook(train_mod, "loss_dag", "losses.dag")
    tracer.hook(train_mod, "loss_inv", "losses.inv")
    tracer.hook(train_mod, "compute_metrics", "train.metrics")
    tracer.hook(cli_mod, "trim_to_dag", "interpret.trim")


def step_intervals(tracer: Tracer, train_span) -> list[tuple[float, float]]:
    """(start, end) of every optimizer step inside ``train_span``."""
    starts = tracer.named("scm.zero_grad", train_span)
    ends = tracer.named("numcore.adamw", train_span)
    if not starts or len(starts) != len(ends):
        raise HookError(f"{len(starts)} step starts against {len(ends)} optimizer steps")
    return [(s.start, e.end) for s, e in zip(starts, ends)]


def timed_steps(steps: list, train_rows: int, batch_size: int) -> list:
    """The steps ``step_ms`` samples: whole batches only (not each epoch's
    short last one), after the first step of the run, which pays for
    first-touch allocation and is two to three times slower."""
    per_epoch = math.ceil(train_rows / batch_size)
    short = train_rows % batch_size != 0
    return [
        step for i, step in enumerate(steps)
        if i > 0 and not (short and i % per_epoch == per_epoch - 1)
    ]


def layer_metrics(tracer: Tracer, train_span, steps) -> dict:
    """Per-layer figures of a traced round (times in ms unless named _s).

    Per-step phases are means over ``steps``; validation is measured from
    the last step of each epoch, whatever its size.
    """
    pid = tracer.spans.index(train_span)
    children = [s for s in tracer.spans if s.parent == pid]
    per_phase: dict[str, float] = {}
    i = 0
    for start, end in steps:
        while i < len(children) and children[i].start < start:
            i += 1
        while i < len(children) and children[i].end <= end:
            per_phase[children[i].name] = per_phase.get(children[i].name, 0.0) + children[i].seconds
            i += 1
    n_steps = len(steps)
    step_total = sum(end - start for start, end in steps)
    phase_ms = {name: 1000.0 * total / n_steps for name, total in per_phase.items()}

    ops = [s.attrs["ops"] for s in tracer.named("numcore.backward", train_span)]
    records = [sum(c.values()) for c in ops]
    out = {
        "numcore.backward_ms": phase_ms["numcore.backward"],
        "numcore.adamw_ms": phase_ms["numcore.adamw"],
        "numcore.tape_records": statistics.median(records),
    }
    for op in TAPE_OPS:
        out[f"numcore.tape_records.{op}"] = statistics.median(c[op] for c in ops)
    out["numcore.tape_records.other"] = statistics.median(
        sum(v for k, v in c.items() if k not in TAPE_OPS) for c in ops
    )
    out.update({
        "scm.zero_grad_ms": phase_ms["scm.zero_grad"],
        "scm.forward_ms": phase_ms["scm.forward"],
        "scm.label_probs_ms": phase_ms["scm.label_probs"],
        "encoders.build_ms": phase_ms["encoders.build"],
        "losses.rec_ms": phase_ms["losses.rec"],
        "losses.dag_ms": phase_ms["losses.dag"],
        "losses.inv_ms": phase_ms["losses.inv"],
        "train.step_ms": 1000.0 * step_total / n_steps,
        "train.self_ms": 1000.0 * (step_total - sum(per_phase.values())) / n_steps,
    })

    # validation: from the epoch's last optimizer step to the end of its metrics
    validate = []
    step_ends = [end for _, end in step_intervals(tracer, train_span)]
    for metrics in tracer.named("train.metrics", train_span):
        last = max(e for e in step_ends if e <= metrics.start)
        validate.append(metrics.end - last)
    out["train.validate_ms"] = 1000.0 * statistics.mean(validate)
    out["scm.snapshot_ms"] = 1000.0 * statistics.mean(s.seconds for s in tracer.named("scm.snapshot"))
    return out


def pooling_metrics(tracer: Tracer) -> dict:
    out = {}
    builders = tracer.named("encoders.pool")
    out["encoders.pool_s"] = statistics.median(s.seconds for s in builders)
    by_path: dict[str, list[float]] = {}
    longest = []
    for b in builders:
        bid = tracer.spans.index(b)
        pools = [s for s in tracer.spans if s.parent == bid and s.name.startswith("hetgraph.pool.")]
        top = max(s.attrs["length"] for s in pools)
        longest.append(sum(s.seconds for s in pools if s.attrs["length"] == top))
        for s in pools:
            by_path.setdefault(s.name[len("hetgraph.pool."):], []).append(s.seconds)
    out["hetgraph.pool_s.longest"] = statistics.median(longest)
    out["pool_s_by_metapath"] = {k: statistics.median(v) for k, v in by_path.items()}
    return out


def run_round(job: dict) -> dict:
    tracer = Tracer()
    checks: list[dict] = []  # one entry per attempted correctness check

    def check(name: str, ok, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    traced = job["traced"]
    probes: list[list] = []  # [midpoint, seconds, kind] of every probe run
    if traced:
        install_layer_hooks(tracer)

    config = TrainConfig(**job["config"])
    work = job["work_dir"]
    data_dir = os.path.join(work, "data")
    ckpt = os.path.join(work, "checkpoint.json")
    history_csv = os.path.join(work, "history.csv")
    explain_dir = os.path.join(work, "explain")
    span = tracer.span
    top: dict[str, Span] = {}  # each top-level phase, by name

    @contextlib.contextmanager
    def timed(name):
        probes.extend(probe(repeats=3))
        with span(name) as record:
            yield record
        top[name] = record

    with timed("load"):
        graph = load_graph(job["input_dir"])
    with timed("write"):
        write_dataset(graph, data_dir)
    for name in sorted(os.listdir(data_dir)):
        check(
            f"write_dataset reproduces {name}",
            _sha256_file(os.path.join(data_dir, name))
            == _sha256_file(os.path.join(job["input_dir"], name)),
        )
    with timed("split"):
        if job["split"] == "regime":
            spec = SplitSpec.from_json(os.path.join(job["input_dir"], "splits.json"))
            spec.validate_against(graph)
        else:
            spec = ood_split(graph, job["split"], seed=config.seed)
    install_step_clock(tracer, probes)
    result = None
    with timed("train") as train_phase:
        try:
            result = train(graph, spec, config)
        except NumericError as exc:
            check("joint loss stays finite", False, str(exc))
    out = {"checks": checks, "completed": False}
    if result is None:
        return out
    history = [h.as_row() for h in result.history]
    check(
        "joint loss stays finite",
        all(math.isfinite(v) for row in history for v in row.values()),
    )
    model = result.model

    with timed("save"):
        with span("ckpt.save"):
            save_checkpoint(model, ckpt)
        write_history_csv(result.history, history_csv)
    with timed("eval"):
        with span("ckpt.load"):
            loaded = load_checkpoint(ckpt)
        builder = builder_for_model(graph, loaded)
        metrics = evaluate(graph, loaded, spec.test, builder=builder)
    stdout = io.StringIO()
    with timed("explain"), contextlib.redirect_stdout(stdout):
        code = cli_mod.main(["explain", "--checkpoint", ckpt, "--out", explain_dir])
    check("graphscm explain exits 0", code == 0, f"exit {code}")

    with open(os.path.join(explain_dir, "diagram.dot"), encoding="utf-8") as fh:
        names, edges = parse_dot(fh.read())
    check("diagram .dot re-parses with every variable", names == model.meta.variable_names)
    check("trimmed diagram is acyclic", _is_acyclic(names, edges))

    reference = evaluate(graph, model, spec.test, builder=builder)
    check("checkpoint eval matches the trained model",
          reference.macro_f1 == metrics.macro_f1 and reference.confusion == metrics.confusion)
    check(f"test macro F1 >= {job['f1_floor']}", metrics.macro_f1 >= job["f1_floor"],
          f"{metrics.macro_f1:.4f}")
    for _ in range(job["eval_reps"] - 1):
        probes.extend(probe())
        with span("eval"):
            with span("ckpt.load"):
                loaded = load_checkpoint(ckpt)
            evaluate(graph, loaded, spec.test, builder=builder_for_model(graph, loaded))
    for _ in range(job["checkpoint_reps"]):
        probes.extend(probe())
        with span("ckpt.save"):
            save_checkpoint(model, ckpt)
        probes.extend(probe())
        with span("ckpt.load"):
            loaded = load_checkpoint(ckpt)

    # checkpoint round trip: the reloaded tensors give identical predictions
    test_batch = builder.build(spec.test, model.encoders, with_labels=False)
    before = model.scm.decoder_calls
    expected = train_mod.predict_labels(test_batch, model.scm).data
    check("one predict batch calls one decoder", model.scm.decoder_calls - before == 1)
    reloaded_batch = builder.build(spec.test, loaded.encoders, with_labels=False)
    reloaded = train_mod.predict_labels(reloaded_batch, loaded.scm).data
    check("checkpoint round trip reproduces test predictions", np.array_equal(reloaded, expected))

    # whole-graph prediction with the prebuilt builder
    all_nodes = graph.labeled_nodes()
    batches = math.ceil(all_nodes.size / train_mod.EVAL_BATCH)
    for _ in range(job["predict_reps"]):
        before = model.scm.decoder_calls
        probes.extend(probe("step"))
        with span("predict"):
            evaluate(graph, model, all_nodes, builder=builder)
        check("each predict batch calls one decoder",
              model.scm.decoder_calls - before == batches,
              f"{model.scm.decoder_calls - before} calls for {batches} batches")

    probes.extend(probe(repeats=3))

    # setup ends where the first optimizer step starts: train() pools and
    # builds the model first, so nothing is pooled twice to time it
    steps = step_intervals(tracer, train_phase)
    first_step = steps[0][0]
    # an epoch runs from its first step to the next epoch's (or the end of train())
    per_epoch = math.ceil(len(spec.train) / config.batch_size)
    epoch_starts = [start for start, _ in steps[::per_epoch]]
    epochs = [list(pair) for pair in zip(epoch_starts, epoch_starts[1:] + [train_phase.end])]
    steps = timed_steps(steps, len(spec.train), config.batch_size)

    def intervals(name):
        return [[s.start, s.end] for s in tracer.named(name)]

    def busy_s(record):
        """The span's seconds less the probe runs inside it."""
        inside = sum(sec for mid, sec, _ in probes if record.start <= mid <= record.end)
        return record.seconds - inside

    # Timed work goes out as [start, end] intervals on the perf_counter clock,
    # so that run.py can scale each by the probe runs around it.
    out.update({
        "completed": True,
        "setup": [[top["load"].start, top["load"].end], [top["split"].start, top["split"].end],
                  [train_phase.start, first_step]],
        "steps": [[start, end] for start, end in steps],
        "epoch_intervals": epochs,
        "train_s": busy_s(top["train"]),
        "eval": intervals("eval"),
        "predict": intervals("predict"),
        "save": intervals("ckpt.save"),
        "load": intervals("ckpt.load"),
        "roundtrip": [[top[k].start, top[k].end]
                      for k in ("load", "write", "split", "train", "save", "eval", "explain")],
        "probes": probes,
        "rows": {"train": len(spec.train), "predict": int(all_nodes.size)},
        "test_macro_f1": metrics.macro_f1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epochs": len(history),
        "train_rows": len(spec.train),
        "digests": {
            "history_csv": _sha256_file(history_csv),
            "checkpoint_tensors": tensor_digest(model),
        },
    })
    if traced:
        layers = layer_metrics(tracer, train_phase, steps)
        layers.update(pooling_metrics(tracer))
        layers.update({
            "numcore.param_tensors": len(model.parameters()),
            "scm.decoder_calls_per_predict": max(
                s.attrs["decoder_calls"] for s in tracer.named("scm.predict")
            ),
            "scm.save_checkpoint_s": statistics.median(s.seconds for s in tracer.named("ckpt.save")),
            "scm.load_checkpoint_s": statistics.median(s.seconds for s in tracer.named("ckpt.load")),
            "scm.checkpoint_bytes": os.path.getsize(ckpt),
            "scm.predict_ms": _predict_ms(tracer),
            "hetgraph.load_graph_s": top["load"].seconds,
            "hetgraph.write_dataset_s": top["write"].seconds,
            "splits.split_s": top["split"].seconds,
            "train.wall_s": busy_s(top["train"]),
            "interpret.trim_ms": 1000.0 * tracer.named("interpret.trim")[0].seconds,
            "cli.explain_s": top["explain"].seconds,
        })
        for predict in tracer.named("scm.predict"):
            check("each predict batch calls one decoder", predict.attrs["decoder_calls"] == 1)
        out["layers"] = layers
    return out


def _predict_ms(tracer: Tracer) -> float:
    """Mean ``predict_labels`` time inside the whole-graph prediction phase."""
    calls = [s.seconds for phase in tracer.named("predict") for s in tracer.named("scm.predict", phase)]
    return 1000.0 * statistics.mean(calls)


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    out = run_round(job)
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
