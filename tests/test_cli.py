import base64
import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import graphscm
from graphscm.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data") / "synth")
    code = run_cli("synth", "--out", out, "--authors", 80, "--classes", 2,
                   "--terms", 16, "--seed", 3)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("runs") / "run0")
    code = run_cli(
        "train", synth_dir, "--out", out, "--hidden", 8, "--max-epochs", 4,
        "--patience", 4, "--batch-size", 32, "--seed", 1,
    )
    assert code == 0
    return out


def test_stats_toy(toy_dir, capsys):
    assert run_cli("stats", toy_dir) == 0
    out = capsys.readouterr().out
    assert "nodes" in out and "8" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["nodes"] == 8
    assert payload["edge_types"] == 4
    assert payload["target"] == "author"


def test_stats_missing_dataset(tmp_path, capsys):
    assert run_cli("stats", str(tmp_path / "nope")) == 2
    assert "error:" in capsys.readouterr().err


def test_synth_outputs_loadable(synth_dir, capsys):
    assert run_cli("stats", synth_dir) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["per_type_nodes"]["author"] == 80
    assert os.path.isfile(os.path.join(synth_dir, "ground-truth.json"))
    assert os.path.isfile(os.path.join(synth_dir, "splits.json"))
    report = json.load(open(os.path.join(synth_dir, "synth-report.json")))
    gap = report["train_regime_coauthor_agreement"] - report["test_regime_coauthor_agreement"]
    assert gap > 0.2


def test_synth_deterministic_bytes(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert run_cli("synth", "--out", out, "--authors", 40, "--classes", 2,
                       "--terms", 12, "--seed", 9) == 0
    for name in sorted(os.listdir(a)):
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name), shallow=False), name


def test_split_command_iid_and_rerun_identical(synth_dir, tmp_path):
    out1 = str(tmp_path / "s1")
    out2 = str(tmp_path / "s2")
    for out in (out1, out2):
        assert run_cli("split", synth_dir, "--kind", "iid", "--seed", 5, "--out", out) == 0
    assert filecmp.cmp(os.path.join(out1, "splits.json"), os.path.join(out2, "splits.json"), shallow=False)
    spec = json.load(open(os.path.join(out1, "splits.json")))
    n = len(spec["train"]) + len(spec["val"]) + len(spec["test"])
    assert len(spec["train"]) == int(0.24 * n)
    assert os.path.isfile(os.path.join(out1, "split-report.csv"))


@pytest.mark.parametrize("kind", ["iid", "homophily"])
def test_split_negative_seed_exits_2(synth_dir, tmp_path, capsys, kind):
    out = tmp_path / "s"
    assert run_cli("split", synth_dir, "--kind", kind, "--seed", -1, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags, name", [
    (["--seed", "-1"], "seed"),
    (["--noise", "nan"], "noise"),
    (["--noise", "inf"], "noise"),
    (["--noise", "-1"], "noise"),
    (["--noise", "1.5"], "noise"),
    (["--terms", "0"], "terms"),
    (["--terms", "1"], "terms"),
    (["--terms", "3", "--classes", "4"], "terms"),
], ids=" ".join)
def test_synth_out_of_range_spec_exits_2(tmp_path, capsys, flags, name):
    out = tmp_path / "d"
    assert run_cli("synth", "--out", str(out), "--authors", 20, *flags) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()


def test_split_command_homophily(synth_dir, tmp_path):
    out = str(tmp_path / "homo")
    assert run_cli("split", synth_dir, "--kind", "homophily", "--seed", 0, "--out", out) == 0
    spec = json.load(open(os.path.join(out, "splits.json")))
    assert spec["provenance"] == "homophily"
    parts = spec["train"] + spec["val"] + spec["test"]
    assert len(set(parts)) == len(parts)


def test_train_writes_artifacts_and_manifest(trained_dir, synth_dir):
    for name in ("checkpoint.json", "history.csv", "metrics.json", "manifest.json"):
        assert os.path.isfile(os.path.join(trained_dir, name)), name
    manifest = json.load(open(os.path.join(trained_dir, "manifest.json")))
    assert manifest["config"]["hidden_dim"] == 8
    assert manifest["config"]["seed"] == 1
    assert manifest["split_provenance"] == "regime"
    assert manifest["epochs_run"] <= 4
    metrics = json.load(open(os.path.join(trained_dir, "metrics.json")))
    for key in ("macro_f1", "accuracy", "micro_f1", "per_class", "confusion"):
        assert key in metrics


def test_eval_checkpoint_on_val_matches_history(trained_dir, synth_dir, tmp_path, capsys):
    out = str(tmp_path / "metrics.json")
    code = run_cli(
        "eval", synth_dir, "--checkpoint", os.path.join(trained_dir, "checkpoint.json"),
        "--split-name", "val", "--out", out,
    )
    assert code == 0
    payload = json.load(open(out))
    import csv

    with open(os.path.join(trained_dir, "history.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    manifest = json.load(open(os.path.join(trained_dir, "manifest.json")))
    best_row = rows[manifest["best_epoch"] - 1]
    assert payload["macro_f1"] == pytest.approx(float(best_row["val_macro_f1"]), abs=1e-12)


def test_eval_schema_mismatch_fails(trained_dir, toy_dir, capsys):
    code = run_cli("eval", toy_dir, "--checkpoint", os.path.join(trained_dir, "checkpoint.json"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_explain_outputs_diagram(trained_dir, tmp_path, capsys):
    out = str(tmp_path / "diagram")
    assert run_cli("explain", "--checkpoint", os.path.join(trained_dir, "checkpoint.json"),
                   "--out", out) == 0
    text = open(os.path.join(out, "diagram.dot")).read()
    assert text.startswith("digraph")
    from graphscm.interpret import diagram_from_json

    diagram = diagram_from_json(os.path.join(out, "diagram.json"))  # validates acyclicity
    assert diagram.names[0] == "EGO" and diagram.names[-1] == "Y"

    out2 = str(tmp_path / "diagram2")
    assert run_cli("explain", "--checkpoint", os.path.join(trained_dir, "checkpoint.json"),
                   "--out", out2) == 0
    assert filecmp.cmp(os.path.join(out, "diagram.dot"), os.path.join(out2, "diagram.dot"), shallow=False)


def test_manifest_records_environment(trained_dir):
    import platform

    manifest = json.load(open(os.path.join(trained_dir, "manifest.json")))
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "blas", "thread_env", "cpu_count", "wall_s"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert isinstance(env["blas"], str) and env["blas"]
    assert set(env["thread_env"]) == {
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    }
    assert env["cpu_count"] == os.cpu_count()
    assert env["wall_s"] > 0.0


def test_explain_reports_residual_and_removed_weight(trained_dir, tmp_path, capsys):
    import re

    from graphscm.scm import load_checkpoint
    from oracles import taylor_trace_expm

    checkpoint = os.path.join(trained_dir, "checkpoint.json")
    out = str(tmp_path / "diagram")
    assert run_cli("explain", "--checkpoint", checkpoint, "--out", out) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    match = re.fullmatch(
        r"removed (\d+) edges of total \|weight\| (\S+); h\(A\) before trimming (\S+); diagram in .+",
        last,
    )
    assert match, last
    removals = json.load(open(os.path.join(out, "diagram.json")))["removals"]
    assert int(match.group(1)) == len(removals)
    mass = sum(r["abs_weight"] for r in removals)
    assert float(match.group(2)) == pytest.approx(mass, rel=1e-5)
    a = load_checkpoint(checkpoint).scm.dag.data
    residual = taylor_trace_expm(a * a) - a.shape[0]
    assert residual > 0.0
    assert float(match.group(3)) == pytest.approx(residual, rel=1e-5)


def test_train_pools_each_metapath_once(synth_dir, tmp_path, monkeypatch):
    import graphscm.encoders as encoders
    from graphscm.hetgraph import load_graph
    from graphscm.scm import load_checkpoint
    from graphscm.splits import SplitSpec
    from graphscm.train import evaluate

    pooled = []
    pool = encoders.pooled_neighbor_features

    def counting(graph, nodes, metapath, *args, **kwargs):
        pooled.append(metapath.name)
        return pool(graph, nodes, metapath, *args, **kwargs)

    monkeypatch.setattr(encoders, "pooled_neighbor_features", counting)
    out = str(tmp_path / "run")
    assert run_cli("train", synth_dir, "--out", out, "--hidden", 8, "--max-epochs", 2,
                   "--batch-size", 32, "--seed", 1) == 0
    assert pooled == ["AP", "APA", "APV", "APT"]
    # the test metrics scored with training's tables equal a fresh evaluation
    graph = load_graph(synth_dir)
    spec = SplitSpec.from_json(os.path.join(synth_dir, "splits.json"))
    metrics = evaluate(graph, load_checkpoint(os.path.join(out, "checkpoint.json")), spec.test)
    with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
        assert fh.read() == json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n"


def test_train_rerun_byte_identical(synth_dir, tmp_path):
    outs = [str(tmp_path / f"r{i}") for i in (1, 2)]
    for out in outs:
        assert run_cli("train", synth_dir, "--out", out, "--hidden", 8, "--max-epochs", 3,
                       "--patience", 3, "--batch-size", 32, "--seed", 2) == 0
    assert filecmp.cmp(os.path.join(outs[0], "history.csv"), os.path.join(outs[1], "history.csv"), shallow=False)
    assert filecmp.cmp(os.path.join(outs[0], "checkpoint.json"), os.path.join(outs[1], "checkpoint.json"), shallow=False)


def test_five_seed_protocol_produces_five_manifests(synth_dir, tmp_path):
    for seed in range(5):
        out = str(tmp_path / f"seed{seed}")
        assert run_cli("train", synth_dir, "--out", out, "--hidden", 6, "--max-epochs", 1,
                       "--patience", 1, "--seed", seed) == 0
    manifests = [json.load(open(tmp_path / f"seed{s}" / "manifest.json")) for s in range(5)]
    assert [m["config"]["seed"] for m in manifests] == list(range(5))


def test_train_ablation_flag(synth_dir, tmp_path):
    out = str(tmp_path / "ablate")
    assert run_cli("train", synth_dir, "--out", out, "--hidden", 8, "--max-epochs", 2,
                   "--patience", 2, "--ablation", "no_both", "--beta", 0.7, "--gamma", 3.0) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["beta"] == 0.0
    assert manifest["config"]["gamma"] == 0.0
    assert manifest["ablation"] == "no_both"


def test_config_file_precedence(synth_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "beta = 0.25\nhidden_dim = 8\nmax_epochs = 2\npatience = 2\nmultiset_neighbors = true\n# comment\n"
    )
    out = str(tmp_path / "cfg-run")
    assert run_cli("train", synth_dir, "--out", out, "--config", str(config), "--gamma", 1.5) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["beta"] == 0.25      # from file
    assert manifest["config"]["gamma"] == 1.5      # flag wins
    assert manifest["config"]["hidden_dim"] == 8
    assert manifest["config"]["multiset_neighbors"] is True  # an absent flag keeps the file's value


def test_unknown_config_key_rejected(synth_dir, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("warp_speed = 9\n")
    assert run_cli("train", synth_dir, "--out", str(tmp_path / "x"), "--config", str(config)) == 2


@pytest.mark.parametrize(
    "flags",
    [["--exclude-self"], ["--forward-only"], ["--mlp-hidden", "8"], ["--activation", "relu"]],
    ids=" ".join,
)
def test_removed_train_flags_exit_2(synth_dir, tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli("train", synth_dir, "--out", str(tmp_path / "x"), *flags)
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run_cli("train", "--help")
    usage = capsys.readouterr().out
    assert "--multiset-neighbors" in usage and flags[0] not in usage


@pytest.mark.parametrize("line", [
    "exclude_self = true", "forward_only = true", "mlp_hidden = 8",
    "activation = relu", "weight_decay = 0.01", "rho = 1.0", "alpha = 1.0",
])
def test_removed_config_keys_exit_2_naming_file_and_line(synth_dir, tmp_path, capsys, line):
    config = tmp_path / "c.cfg"
    config.write_text(f"max_epochs = 2\n{line}\n")
    out = tmp_path / "x"
    assert run_cli("train", synth_dir, "--out", str(out), "--config", str(config)) == 2
    err = capsys.readouterr().err
    assert "c.cfg:2" in err and repr(line.split()[0]) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, line", [("hidden_dim", "abc", 2), ("learning_rate", "x", 3)])
def test_unparsable_config_value_names_file_and_line(synth_dir, tmp_path, capsys, key, value, line):
    config = tmp_path / "c.cfg"
    lines = ["max_epochs = 2", "hidden_dim = 8", "learning_rate = 0.01"]
    lines[line - 1] = f"{key} = {value}"
    config.write_text("\n".join(lines) + "\n")
    assert run_cli("train", synth_dir, "--out", str(tmp_path / "x"), "--config", str(config)) == 2
    err = capsys.readouterr().err
    assert f"c.cfg:{line}" in err and key in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags, cfg, name",
    [
        (["--lr", "nan"], None, "learning_rate"),
        (["--beta", "nan"], None, "beta"),
        (["--gamma", "inf"], None, "gamma"),
        ([], "beta = -1", "beta"),
        (["--seed", "-1"], None, "seed"),
    ],
    ids=lambda v: (" ".join(v) or "cfg") if isinstance(v, list) else None,
)
def test_out_of_range_config_rejected_before_training(synth_dir, tmp_path, capsys, flags, cfg, name):
    out = tmp_path / "x"
    if cfg is not None:
        config = tmp_path / "c.cfg"
        config.write_text(cfg + "\n")
        flags = [*flags, "--config", str(config)]
    assert run_cli("train", synth_dir, "--out", str(out), "--max-epochs", 2, *flags) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not out.exists()  # rejected before any artifact is written


def test_config_file_not_utf8_exits_2_naming_the_line(synth_dir, tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_bytes(b"max_epochs = 2\nhidden_dim = 8\xff\n")
    out = tmp_path / "x"
    assert run_cli("train", synth_dir, "--out", str(out), "--config", str(config)) == 2
    err = capsys.readouterr().err
    assert "c.cfg:2" in err and "UTF-8" in err and "Traceback" not in err, err
    assert not out.exists()


def test_python_dash_m_runs_the_cli():
    # the child imports the same graphscm as this process
    src = os.path.dirname(os.path.dirname(graphscm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "graphscm", "--version"], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("graphscm ")


def test_nan_aborts_with_exit_3(synth_dir, tmp_path, capsys):
    out = str(tmp_path / "nan-run")
    code = run_cli("train", synth_dir, "--out", out, "--hidden", 8, "--max-epochs", 3,
                   "--patience", 3, "--lr", 1e18)
    assert code == 3
    err = capsys.readouterr().err
    assert "epoch" in err


def test_stats_malformed_schema_exits_2(toy_dir, tmp_path, capsys):
    import shutil

    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    with open(os.path.join(bad, "schema.json"), "w", encoding="utf-8") as fh:
        fh.write("{ not json")
    assert run_cli("stats", bad) == 2
    err = capsys.readouterr().err
    assert "schema.json:1:3" in err and "Traceback" not in err


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda schema: dict(schema, num_classes="x"), id="string-num_classes"),
    pytest.param(lambda schema: dict(schema, num_classes=3.9), id="float-num_classes"),
    pytest.param(
        lambda schema: dict(schema, relations=[dict(schema["relations"][0], name=5), *schema["relations"][1:]]),
        id="integer-relation-name",
    ),
    pytest.param(lambda schema: dict(schema, node_types="author"), id="string-node_types"),
    pytest.param(
        lambda schema: dict(schema, relations=[dict(schema["relations"][0], inverse="nope"), *schema["relations"][1:]]),
        id="missing-inverse",
    ),
    pytest.param(lambda schema: dict(schema, target_type="venue_x"), id="unknown-target-type"),
])
def test_stats_schema_field_types_exit_2(toy_dir, tmp_path, capsys, corrupt):
    """A class count that is not a JSON integer, a relation field that is
    not a string, node types that are not a list, or a schema whose relations
    or target type do not fit its node types exits 2 naming schema.json by
    its path: a float count used to be truncated, a string count and an
    integer name ended in tracebacks, a string of node types was split into
    one-letter types, and the schema's own checks named no file."""
    import shutil

    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    path = os.path.join(bad, "schema.json")
    with open(path, encoding="utf-8") as fh:
        schema = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(corrupt(schema), fh)
    assert run_cli("stats", bad) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and "Traceback" not in err, err


@pytest.mark.parametrize(
    "name, tail, line",
    [
        # an id beyond int64 used to escape as OverflowError
        ("edges-publish.tsv", b"0\t99999999999999999999\n", "edges-publish.tsv:{n}"),
        # a byte that is not UTF-8 used to escape as UnicodeDecodeError
        ("edges-publish.tsv", b"\xff\t0\n", "edges-publish.tsv:{n}"),
        ("nodes-paper.tsv", b"\xff\n", "nodes-paper.tsv:{n}"),
        ("labels.tsv", b"0\t\xff\n", "labels.tsv:{n}"),
        ("schema.json", b"\xff", "schema.json:{n}"),
    ],
)
def test_stats_unloadable_bytes_exit_2_naming_the_line(toy_dir, tmp_path, capsys, name, tail, line):
    import shutil

    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    path = os.path.join(bad, name)
    with open(path, "rb") as fh:
        n = fh.read().count(b"\n") + 1
    with open(path, "ab") as fh:
        fh.write(tail)
    assert run_cli("stats", bad) == 2
    err = capsys.readouterr().err
    assert line.format(n=n) in err and "Traceback" not in err, err


def test_kmeans_inertia_increase_exits_3_without_traceback(synth_dir, tmp_path, monkeypatch, capsys):
    import math
    import types

    import graphscm.splits as splits_mod

    # k-means starts from an infinite inertia; starting below any real one
    # makes the first iteration look like an increase
    fake_math = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math) if not k.startswith("_")})
    fake_math.inf = -1.0
    monkeypatch.setattr(splits_mod, "math", fake_math)
    code = run_cli("split", synth_dir, "--kind", "homophily", "--seed", 0, "--out", str(tmp_path / "s"))
    assert code == 3
    err = capsys.readouterr().err
    assert "k-means inertia increased" in err and "Traceback" not in err, err


def test_trim_exhausted_exits_2_without_traceback(trained_dir, tmp_path, monkeypatch, capsys):
    import graphscm.interpret as interpret_mod

    monkeypatch.setattr(interpret_mod, "_is_acyclic", lambda support: False)
    code = run_cli("explain", "--checkpoint", os.path.join(trained_dir, "checkpoint.json"),
                   "--out", str(tmp_path / "d"))
    assert code == 2
    err = capsys.readouterr().err
    assert "edge removal exhausted" in err and "Traceback" not in err, err


def _rejected_old_checkpoint(trained_dir, synth_dir, tmp_path, capsys, version):
    """Rewrite the trained checkpoint in the format of ``version`` and check
    that eval exits 2 naming that version, with no traceback."""
    with open(os.path.join(trained_dir, "checkpoint.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["version"] == 7
    payload["version"] = version
    meta = payload["meta"]
    meta["activation"] = "relu"
    if version < 6:
        meta["mlp_hidden"], meta["exclude_self"], meta["forward_only"] = meta["hidden_dim"], False, False
    if version < 5:
        meta["native_dims"], meta["var_dims"] = False, [meta["hidden_dim"]] * len(meta["variable_names"])
    for entry in payload["tensors"].values() if version < 4 else []:
        del entry["dtype"]
        entry["data"] = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").tolist()
    old = str(tmp_path / f"v{version}.json")
    with open(old, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert run_cli("eval", synth_dir, "--checkpoint", old) == 2
    err = capsys.readouterr().err
    assert f"unsupported checkpoint version {version}" in err and "Traceback" not in err, err


@pytest.mark.parametrize("version", [2, 3, 4, 5])
def test_checkpoints_before_version_6_rejected(trained_dir, synth_dir, tmp_path, capsys, version):
    """Checkpoints before version 6 carried ``activation``, ``mlp_hidden``,
    ``exclude_self`` and ``forward_only`` in their meta, before version 5
    ``native_dims`` and ``var_dims`` too, and before version 4 stored tensor
    data as float lists; they exit 2 with no traceback."""
    _rejected_old_checkpoint(trained_dir, synth_dir, tmp_path, capsys, version)


def test_version_6_checkpoint_rejected(trained_dir, synth_dir, tmp_path, capsys):
    """Version 6 checkpoints carried ``activation`` in their meta; they exit
    2 with no traceback."""
    _rejected_old_checkpoint(trained_dir, synth_dir, tmp_path, capsys, 6)


def _boolean_id(spec: dict) -> dict:
    """``spec`` with node 1 in the train split, written as ``true``."""
    parts = {k: [i for i in spec[k] if i != 1] for k in ("train", "val", "test")}
    parts["train"].append(True)
    return dict(spec, **parts)


@pytest.mark.parametrize("corrupt", [
    pytest.param(lambda spec: [], id="top-level-list"),
    pytest.param(lambda spec: dict(spec, train=None), id="null-part"),
    pytest.param(lambda spec: dict(spec, train=["x", *spec["train"]]), id="string-id"),
    pytest.param(lambda spec: dict(spec, train=[spec["train"][0] + 0.5, *spec["train"][1:]]), id="float-id"),
    pytest.param(_boolean_id, id="boolean-id"),
    pytest.param(lambda spec: dict(spec, train=[*spec["train"], 10**6]), id="unknown-id"),
    pytest.param(lambda spec: dict(spec, seed="x"), id="string-seed"),
])
def test_malformed_splits_file_exits_2(trained_dir, synth_dir, tmp_path, capsys, corrupt):
    """A split file whose ids are not JSON integers, or not labeled nodes,
    exits 2 naming the file; a float id used to be truncated to an integer
    and a boolean id read as 0 or 1, both silently."""
    with open(os.path.join(synth_dir, "splits.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = tmp_path / "bad-splits.json"
    bad.write_text(json.dumps(corrupt(spec)), encoding="utf-8")
    code = run_cli("eval", synth_dir, "--checkpoint", os.path.join(trained_dir, "checkpoint.json"),
                   "--splits", str(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert "bad-splits.json" in err and "Traceback" not in err, err


@pytest.mark.parametrize("field, value", [
    ("hidden_dim", "x"),
    ("hidden_dim", -3),
    ("terminal_dims", "ab"),
    ("max_metapath_len", "2"),
    ("activation", "tanh"),
    ("tensors", 5),
    ("tensors", list),
])
def test_malformed_checkpoint_meta_exits_2(trained_dir, synth_dir, tmp_path, capsys, field, value):
    """A malformed meta field, a meta field the model no longer has
    (``activation``), or a ``tensors`` field that is not an object (a number,
    or a list of the tensor names), exits 2 naming the field."""
    with open(os.path.join(trained_dir, "checkpoint.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    part = payload if field == "tensors" else payload["meta"]
    part[field] = value(part[field]) if callable(value) else value
    bad = str(tmp_path / "bad.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    for args in (["eval", synth_dir], ["explain", "--out", str(tmp_path / "d")]):
        assert run_cli(*args, "--checkpoint", bad) == 2, args
        err = capsys.readouterr().err
        assert "bad.json" in err and repr(field) in err and "Traceback" not in err, err


def test_stats_corruption_sweep_exits_2(toy_dir, tmp_path, capsys):
    """Every file of the toy dataset truncated, garbled or deleted in turn
    makes ``graphscm stats`` exit 2 with a message and no traceback, unless
    a truncation leaves a well-formed file.

    A truncation cuts the file mid-line, at about half its bytes. Where the
    cut lands between two fields (``0\t0\n0\t1`` of an edge file), the
    result is a shorter file whose last line has no newline, which loads
    like the same rows with one; that case must print the same statistics
    as the newline-terminated copy.
    """
    import shutil

    def truncate(data):
        cut = len(data) // 2
        while cut > 1 and data[cut - 1 : cut] == b"\n":
            cut -= 1
        return data[:cut]

    def garble(data):
        mid = len(data) // 2
        return data[:mid] + b"x" + data[mid + 1 :]

    def stats_of(name, kind, content):
        bad = str(tmp_path / f"{name}-{kind}")
        shutil.copytree(toy_dir, bad)
        path = os.path.join(bad, name)
        if content is None:
            os.remove(path)
        else:
            with open(path, "wb") as fh:
                fh.write(content)
        code = run_cli("stats", bad)
        out, err = capsys.readouterr()
        return code, out.replace(bad, "<dir>"), err

    failures = []
    for name in sorted(os.listdir(toy_dir)):
        with open(os.path.join(toy_dir, name), "rb") as fh:
            data = fh.read()
        for kind, corrupt in (("truncate", truncate), ("garble", garble), ("delete", None)):
            content = None if corrupt is None else corrupt(data)
            code, out, err = stats_of(name, kind, content)
            if code == 0 and kind == "truncate":
                if stats_of(name, "lines", content + b"\n")[:2] != (0, out):
                    failures.append((name, kind, code, out))
            elif code != 2 or "error:" not in err or "Traceback" in err:
                failures.append((name, kind, code, err))
    assert not failures, failures
