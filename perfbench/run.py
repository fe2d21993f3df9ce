"""graphscm benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload train-l2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload train-l2 --seed 1 --seconds 1 --trace 1 --smoke

The script generates the workload's inputs from ``--seed`` with
``graphscm.synth`` and writes them as an on-disk dataset. It then runs rounds
(see ``round.py``), each in a fresh single-threaded process, until
``--seconds`` have passed and at least ``MIN_ROUNDS`` have run. With
``--trace 1`` every untraced round is followed by a traced one, which
rebinds the library's finer public functions to record spans; the
difference in train wall time between the two is the tracing overhead.

It prints a human-readable report (environment, output digests, every
metric with its unit and sample count, the checks) and, as its last line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
metrics are the end-to-end ones with ``--trace 0`` and the per-layer ones
with ``--trace 1``. It exits 2 when the library sources are not beside it.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported; round processes inherit it

import argparse
import contextlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

MIN_ROUNDS = 3          # rounds per run, whatever --seconds says
MIN_TRACED_ROUNDS = 2   # (untraced, traced) pairs per traced run
ROUND_TIMEOUT_S = 170   # a run must end within 180 s
# For each kind of speed probe (``round.probe``): the seconds one run takes
# at the reference host speed (the fast state of the 2-vCPU VM the baseline
# was measured on), and how many runs nearest an interval set its slowdown
# when fewer ran inside it.
PROBES = {"phase": (0.014, 6), "step": (0.0036, 2)}

# Every workload trains with batch 128 and lr 0.003 (the acceptance-test
# protocol) and patience equal to the epoch count, so the epoch count and
# every output are fixed by the seed.
WORKLOADS = {
    # Per-step numcore/scm overhead dominates; pooling is a few percent.
    # Fused-SCM and flat-AdamW changes act here.
    "train-l2": dict(
        authors=2000, split="regime", f1_floor=0.80,
        config=dict(max_metapath_len=2, max_epochs=6),
        eval_reps=3, predict_reps=10, checkpoint_reps=2,
    ),
    # Length-3 metapaths (9 variables, APVP among them): set-semantics
    # pooling dominates setup and the eval re-pool, and the SCM runs at
    # n=9. CSR pooling acts here and should leave train-l2 unmoved. 800
    # authors keep three rounds, each pooling twice (setup and the eval
    # re-pool), inside the time budget.
    "pool-l3": dict(
        authors=800, split="regime", f1_floor=0.80,
        config=dict(max_metapath_len=3, max_epochs=24),
        eval_reps=1, predict_reps=25, checkpoint_reps=1,
    ),
    # 8000 authors (96k nodes, 704k edges): dataset write and parse,
    # homophily split features and count-semantics pooling grow with the
    # graph while per-step work stays small. L=3 is left out on purpose:
    # pooling alone would take minutes.
    "ingest-8k": dict(
        authors=8000, split="homophily", f1_floor=0.70,
        config=dict(max_metapath_len=2, multiset_neighbors=True, max_epochs=3),
        eval_reps=1, predict_reps=3, checkpoint_reps=1,
    ),
}
# toy scale for the benchmark's own test: same code paths, seconds per run
SMOKE = dict(authors=60, f1_floor=0.0, eval_reps=1, predict_reps=1, checkpoint_reps=1)
SMOKE_CONFIG = dict(max_epochs=2, hidden_dim=8, batch_size=8)

END_TO_END = {
    "setup_s": "s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "train_rows_per_s": "rows/s",
    "eval_s": "s",
    "predict_rows_per_s": "rows/s",
    "checkpoint_s": "s",
    "roundtrip_s": "s",
    "test_macro_f1": "ratio",
    "peak_rss_mb": "MB",
}
COMMON_METAPATHS = ("AP", "APA", "APV", "APT")  # pooled by every workload
PER_LAYER = {
    "numcore.backward_ms": "ms",
    "numcore.adamw_ms": "ms",
    "numcore.tape_records": "count",
    "numcore.tape_records.matmul": "count",
    "numcore.tape_records.add": "count",
    "numcore.tape_records.mul": "count",
    "numcore.tape_records.index_scalar": "count",
    "numcore.tape_records.relu": "count",
    "numcore.tape_records.other": "count",
    "numcore.param_tensors": "count",
    "scm.zero_grad_ms": "ms",
    "scm.forward_ms": "ms",
    "scm.label_probs_ms": "ms",
    "scm.snapshot_ms": "ms",
    "scm.predict_ms": "ms",
    "scm.decoder_calls_per_predict": "count",
    "scm.save_checkpoint_s": "s",
    "scm.load_checkpoint_s": "s",
    "scm.checkpoint_bytes": "bytes",
    "encoders.build_ms": "ms",
    "encoders.pool_s": "s",
    **{f"hetgraph.pool_s.{mp}": "s" for mp in COMMON_METAPATHS},
    "hetgraph.pool_s.longest": "s",
    "hetgraph.load_graph_s": "s",
    "hetgraph.write_dataset_s": "s",
    "splits.split_s": "s",
    "losses.rec_ms": "ms",
    "losses.dag_ms": "ms",
    "losses.inv_ms": "ms",
    "train.step_ms": "ms",
    "train.self_ms": "ms",
    "train.validate_ms": "ms",
    "train.wall_s": "s",
    "trace.overhead_s": "s",
    "interpret.trim_ms": "ms",
    "cli.explain_s": "s",
    "synth.generate_s": "s",
    "host.probe_ms": "ms",
}


class RoundFailed(RuntimeError):
    """A round process exited with an error."""


def make_inputs(authors: int, seed: int, out_dir: str) -> float:
    """Generate the dataset and its regime split on disk; return generate() seconds."""
    from graphscm.hetgraph import write_dataset
    from graphscm.synth import SynthSpec, generate, regime_split

    start = time.perf_counter()
    graph, truth = generate(SynthSpec(authors=authors, seed=seed))
    generate_s = time.perf_counter() - start
    write_dataset(graph, out_dir)
    regime_split(truth).to_json(os.path.join(out_dir, "splits.json"))
    return generate_s


def run_round(job: dict, path: str) -> dict:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "round.py"), path],
        cwd=ROOT, stdout=sys.stderr, timeout=ROUND_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RoundFailed(f"round process exited with code {proc.returncode}")
    with open(job["out"], encoding="utf-8") as fh:
        return json.load(fh)


def environment(load_before, load_after) -> list[str]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return [
        f"python {platform.python_version()} ({platform.python_implementation()}), "
        f"numpy {np.__version__}, blas {blas.get('name')} {blas.get('version')}",
        f"threads {threads}; nproc {os.cpu_count()} (affinity {affinity})",
        "loadavg before " + " ".join(f"{x:.2f}" for x in load_before)
        + ", after " + " ".join(f"{x:.2f}" for x in load_after),
    ]


class HostSpeed:
    """Scales a round's timed intervals to the reference host speed.

    An interval's time at reference speed is its seconds, less any probe
    runs inside it, divided by the host's slowdown over it: the median time
    of the probe runs of ``kind`` inside it (or, when fewer ran inside, of
    the ``neighbours`` runs nearest its middle) over the kind's reference
    time in ``PROBES``.
    """

    def __init__(self, probes: list[list], kind: str):
        self.probes = probes
        self.own = [(mid, sec) for mid, sec, k in probes if k == kind]
        self.reference_s, self.neighbours = PROBES[kind]

    def slowdown(self, start: float, end: float) -> float:
        inside = [sec for mid, sec in self.own if start <= mid <= end]
        if len(inside) < self.neighbours:
            middle = (start + end) / 2
            nearest = sorted(self.own, key=lambda p: abs(p[0] - middle))[:self.neighbours]
            inside = [sec for _, sec in nearest]
        return statistics.median(inside) / self.reference_s

    def seconds(self, interval: list[float]) -> float:
        start, end = interval
        busy = end - start - sum(sec for mid, sec, _ in self.probes if start <= mid <= end)
        return busy / self.slowdown(start, end)


def end_to_end(rounds: list[dict]) -> dict[str, tuple[float, int]]:
    """(value, sample count) of every end-to-end metric, times and rates at
    the reference host speed (see ``HostSpeed``). Optimizer steps, epochs
    and whole-graph predictions are scaled by the step probes next to them,
    everything else by the phase probes."""
    phase = [HostSpeed(r["probes"], "phase") for r in rounds]
    step = [HostSpeed(r["probes"], "step") for r in rounds]

    def each(key, speeds=phase):
        return [h.seconds(i) for r, h in zip(rounds, speeds) for i in r[key]]

    def total(key, speeds=phase):
        return [sum(h.seconds(i) for i in r[key]) for r, h in zip(rounds, speeds)]

    steps = [1000.0 * s for s in each("steps", step)]
    train_rows_per_s = [r["rows"]["train"] / h.seconds(e)
                        for r, h in zip(rounds, step) for e in r["epoch_intervals"]]
    eval_s, save_s, load_s = each("eval"), each("save"), each("load")
    predict_rows_per_s = [r["rows"]["predict"] * len(r["predict"]) / total_s
                          for r, total_s in zip(rounds, total("predict", step))]
    return {
        "setup_s": (statistics.median(total("setup")), len(rounds)),
        "step_ms.p50": (statistics.median(steps), len(steps)),
        "step_ms.p90": (statistics.quantiles(steps, n=10)[-1], len(steps)),
        "train_rows_per_s": (statistics.median(train_rows_per_s), len(train_rows_per_s)),
        "eval_s": (statistics.median(eval_s), len(eval_s)),
        "predict_rows_per_s": (statistics.median(predict_rows_per_s), len(rounds)),
        "checkpoint_s": (statistics.median(save_s) + statistics.median(load_s),
                         len(save_s) + len(load_s)),
        "roundtrip_s": (statistics.median(total("roundtrip")), len(rounds)),
        "test_macro_f1": (rounds[0]["test_macro_f1"], len(rounds)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), len(rounds)),
    }


def per_layer(traced: list[dict], untraced: list[dict], generate_s: float) -> dict:
    values = {}
    for name in PER_LAYER:
        if name.startswith("hetgraph.pool_s.") and name != "hetgraph.pool_s.longest":
            samples = [r["layers"]["pool_s_by_metapath"][name.rsplit(".", 1)[1]] for r in traced]
        elif name == "trace.overhead_s":
            samples = [statistics.median(r["train_s"] for r in traced)
                       - statistics.median(r["train_s"] for r in untraced)]
        elif name == "synth.generate_s":
            samples = [generate_s]
        elif name == "host.probe_ms":
            samples = [1000.0 * sec for r in traced for _, sec, kind in r["probes"] if kind == "phase"]
        else:
            samples = [r["layers"][name] for r in traced]
        values[name] = (statistics.median(samples), len(samples))
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    spec = dict(WORKLOADS[name])
    config = dict(batch_size=128, learning_rate=0.003, seed=seed, **spec["config"])
    # with --trace 1 rounds run in (untraced, traced) pairs
    min_rounds = 1 if smoke else (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS)
    if smoke:
        config.update(SMOKE_CONFIG)
        spec.update(SMOKE)
    config["patience"] = config["max_epochs"]

    work = os.path.join(WORK_ROOT, f"{name}-seed{seed}-{os.getpid()}")
    input_dir = os.path.join(work, "input")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(input_dir)
    try:
        generate_s = make_inputs(spec["authors"], seed, input_dir)
        load_before = os.getloadavg()
        rounds: dict[bool, list[dict]] = {False: [], True: []}
        start = time.perf_counter()

        def more() -> bool:
            """Below the minimum, or another round (pair) still fits in --seconds."""
            done = len(rounds[False])
            if done < min_rounds:
                return True
            elapsed = time.perf_counter() - start
            return elapsed + elapsed / done <= seconds

        while more():
            for traced in ((False, True) if trace else (False,)):
                index = len(rounds[False]) + len(rounds[True])
                round_dir = os.path.join(work, f"round{index}")
                job = {
                    "input_dir": input_dir,
                    "work_dir": round_dir,
                    "out": os.path.join(work, f"round{index}.json"),
                    "config": config,
                    "split": spec["split"],
                    "f1_floor": spec["f1_floor"],
                    "eval_reps": spec["eval_reps"],
                    "predict_reps": spec["predict_reps"],
                    "checkpoint_reps": spec["checkpoint_reps"],
                    "traced": traced,
                }
                rounds[traced].append(run_round(job, os.path.join(work, f"job{index}.json")))
                shutil.rmtree(round_dir, ignore_errors=True)
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other run is using it

    every = rounds[False] + rounds[True]
    checks = [c for r in every for c in r["checks"]]
    completed = [r for r in every if r["completed"]]
    if completed:
        first = completed[0]
        for r in completed[1:]:
            checks.append({
                "name": "outputs identical across rounds and tracing",
                "ok": r["digests"] == first["digests"] and r["test_macro_f1"] == first["test_macro_f1"],
                "detail": "",
            })
    result = {
        "workload": name,
        "seed": seed,
        "rounds": {"untraced": len(rounds[False]), "traced": len(rounds[True])},
        "environment": environment(load_before, load_after),
        "checks": checks,
        "complete": len(completed) == len(every),
        "digests": completed[0]["digests"] if completed else {},
        "epochs": completed[0]["epochs"] if completed else 0,
        "train_rows": completed[0]["train_rows"] if completed else 0,
    }
    if result["complete"]:
        result["slowdown"] = [
            statistics.median(sec for _, sec, kind in r["probes"] if kind == "phase") / PROBES["phase"][0]
            for r in every
        ]
        if trace:
            result["metrics"] = per_layer(rounds[True], rounds[False], generate_s)
            result["units"] = PER_LAYER
        else:
            result["metrics"] = end_to_end(rounds[False])
            result["units"] = END_TO_END
    return result


def report(result: dict) -> None:
    failed = [c for c in result["checks"] if not c["ok"]]
    lines = [
        f"== {result['workload']} seed={result['seed']}: {result['rounds']['untraced']} untraced"
        f" + {result['rounds']['traced']} traced rounds, each in a fresh process;"
        f" {result['epochs']} epochs over {result['train_rows']} train rows per round",
        *("   " + line for line in result["environment"]),
        "   digest history.csv " + result["digests"].get("history_csv", "-"),
        "   digest checkpoint tensors " + result["digests"].get("checkpoint_tensors", "-"),
    ]
    if "slowdown" in result:
        lines.append("   host slowdown per round (probe time / reference) "
                     + " ".join(f"{f:.3f}" for f in result["slowdown"]))
    for name, (value, n) in result.get("metrics", {}).items():
        lines.append(f"   {name:36s} {value:16.6f} {result['units'][name]:8s} n={n}")
    lines.append(f"   ops_failed {len(failed)} / ops_attempted {len(result['checks'])}")
    for c in failed:
        lines.append(f"   FAILED {c['name']} {c['detail']}".rstrip())
    print("\n".join(lines), flush=True)


def summary(results: list[dict]) -> dict:
    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for name, (value, _) in r.get("metrics", {}).items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": r["units"][name]}
    attempted = sum(len(r["checks"]) for r in results)
    failed = sum(1 for r in results for c in r["checks"] if not c["ok"])
    return {
        "correct": failed == 0 and all(r["complete"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-scale inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphscm", "__init__.py")):
        print(f"perfbench: graphscm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke))
        except (RoundFailed, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        report(results[-1])
    final = summary(results)
    if not all(r["complete"] for r in results) and not final["metrics"]:
        print("perfbench: no round completed, so there are no metrics", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
