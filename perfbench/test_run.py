"""The benchmark's own test: toy-scale runs report every declared metric.

Run with ``python3 -m pytest perfbench``. The cases that run the benchmark
use ``--smoke`` mode (60 authors, two epochs, one round per workload), so the
whole file takes seconds rather than the minutes of a measured run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from spans import HookError, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
KIND = {0: "end_to_end", 1: "per_layer"}


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_metric_with_its_unit(trace):
    result = _result(_run("all", trace))
    declared = BENCH[KIND[trace]]
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_single_workload_uses_the_declared_names():
    result = _result(_run(WORKLOADS[0], 0))
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(result["metrics"][name]["value"] > 0 for name in result["metrics"])


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_hook_target_fails_loudly():
    class Owner:
        def present(self):
            return 1

    tracer = Tracer()
    with pytest.raises(HookError):
        tracer.hook(Owner, "absent", "x")
    tracer.hook(Owner, "present", "owner.present")
    assert Owner().present() == 1
    assert [s.name for s in tracer.spans] == ["owner.present"]


def test_host_speed_scales_by_the_probes_around_an_interval():
    import run

    reference_s, _ = run.PROBES["phase"]
    # the host runs at half speed: every phase probe takes twice its reference time
    probes = [[float(t), 2 * reference_s, "phase"] for t in range(10)]
    probes.append([3.5, 10 * reference_s, "step"])  # another kind: subtracted, not used to scale
    speed = run.HostSpeed(probes, "phase")
    assert speed.slowdown(2.0, 4.0) == pytest.approx(2.0)
    busy = 2.0 - 3 * 2 * reference_s - 10 * reference_s
    assert speed.seconds([2.0, 4.0]) == pytest.approx(busy / 2.0)
