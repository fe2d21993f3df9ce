import base64
import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import graphscm
import oracles
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


def test_stats_json_file_matches_stdout_and_graph(synth_dir, tmp_path, capsys):
    """``--json`` writes the object printed on stdout, whose per-type and
    per-relation counts are the lines of the dataset's node and edge files."""
    path = tmp_path / "stats.json"
    assert run_cli("stats", synth_dir, "--json", path) == 0
    out = capsys.readouterr().out
    written = json.loads(path.read_text(encoding="utf-8"))
    assert written == json.loads(out[out.index("{"):])

    def lines(name):
        with open(os.path.join(synth_dir, name), encoding="utf-8") as fh:
            return sum(1 for _ in fh)

    nodes, edges = written["per_type_nodes"], written["per_relation_edges"]
    assert nodes == {t: lines(f"nodes-{t}.tsv") for t in ("author", "paper", "term", "venue")}
    relations = ("write", "rev_write", "publish", "rev_publish", "use", "rev_use")
    assert edges == {r: lines(f"edges-{r}.tsv") for r in relations}
    assert (written["nodes"], written["edges"]) == (sum(nodes.values()), sum(edges.values()))


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


@pytest.mark.parametrize("kind", ["iid", "homophily", "degree", "feature"])
def test_split_length_below_1_exits_2_before_loading(synth_dir, tmp_path, capsys, monkeypatch, kind):
    import graphscm.cli as cli_mod

    def work(*args, **kwargs):
        raise AssertionError("the dataset was loaded before --max-metapath-len was checked")

    monkeypatch.setattr(cli_mod, "load_graph", work)
    out = tmp_path / "s"
    for length in (0, -1):
        assert run_cli("split", synth_dir, "--kind", kind, "--max-metapath-len", length, "--out", out) == 2
        err = capsys.readouterr().err
        assert "--max-metapath-len must be at least 1" in err and "Traceback" not in err, err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["iid", "homophily", "degree", "feature"])
def test_failed_split_leaves_the_dataset_splits_alone(synth_dir, tmp_path, capsys, kind):
    """A split whose report fails (target features of zero variance leave
    the report's PCA nothing to decompose; a feature split fails there
    first) or whose length is rejected exits 2 and writes neither file: the
    dataset's splits.json keeps its bytes. The split used to be written
    before the report ran."""
    import shutil

    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    nodes = data / "nodes-author.tsv"
    rows = [line.split("\t") for line in nodes.read_text().splitlines()]
    nodes.write_text("".join("\t".join([row[0]] + ["0.0"] * (len(row) - 1)) + "\n" for row in rows))
    before = (data / "splits.json").read_bytes()
    for flags in (("--max-metapath-len", 0), ()):
        assert run_cli("split", data, "--kind", kind, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert flags or "zero variance" in err, err
        assert (data / "splits.json").read_bytes() == before, flags
        assert not (data / "split-report.csv").exists(), flags


def test_split_at_length_1_reports_no_homophily(synth_dir, tmp_path, capsys):
    """Length 1 admits no round-trip metapath: a degree split still writes
    its report, with degree and feature rows and no homophily rows, while a
    homophily split exits 2 and writes nothing."""
    import csv

    out = tmp_path / "degree"
    assert run_cli("split", synth_dir, "--kind", "degree", "--max-metapath-len", 1, "--out", out) == 0
    with open(out / "split-report.csv", encoding="utf-8") as fh:
        kinds = [row["bias"] for row in csv.DictReader(fh)]
    assert set(kinds) == {"degree", "feature"}, kinds
    capsys.readouterr()
    out = tmp_path / "homophily"
    assert run_cli("split", synth_dir, "--kind", "homophily", "--max-metapath-len", 1, "--out", out) == 2
    assert "no round-trip metapath" in capsys.readouterr().err
    assert not (out / "splits.json").exists() and not (out / "split-report.csv").exists()


@pytest.mark.parametrize("case", ["fails-nested-new", "fails-existing", "succeeds-nested-new"])
def test_split_removes_only_the_out_directories_it_made(synth_dir, tmp_path, capsys, case):
    """A split that fails after loading removes the ``--out`` directories it
    created, deepest first, and none that existed before; they used to stay
    behind, empty. A split that succeeds keeps its new directories."""
    existing = tmp_path / "existing"
    existing.mkdir()
    out = existing if case == "fails-existing" else existing / "a" / "b"
    if case.startswith("fails"):  # length 1 has no round-trip metapath for homophily
        flags, code = ["--kind", "homophily", "--max-metapath-len", 1], 2
    else:
        flags, code = ["--kind", "degree"], 0
    assert run_cli("split", synth_dir, *flags, "--out", out) == code
    capsys.readouterr()
    assert existing.is_dir()
    if case == "fails-nested-new":
        assert not (existing / "a").exists()
    elif case == "fails-existing":
        assert list(existing.iterdir()) == []
    else:
        assert sorted(p.name for p in out.iterdir()) == ["split-report.csv", "splits.json"]


@pytest.mark.parametrize("command", ["stats", "train", "split", "synth"])
def test_output_path_that_cannot_be_created_exits_2(synth_dir, tmp_path, capsys, command):
    """A missing parent directory of ``stats --json``, or an existing file
    given as an ``--out`` directory, exits 2 naming the path; both used to
    end in a traceback with exit 1."""
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    args = {
        "stats": ["stats", synth_dir, "--json", tmp_path / "missing" / "x.json"],
        "train": ["train", synth_dir, "--out", taken, "--max-epochs", 1],
        "split": ["split", synth_dir, "--kind", "iid", "--out", taken],
        "synth": ["synth", "--out", taken, "--authors", 20],
    }[command]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert str(tmp_path / "missing" / "x.json" if command == "stats" else taken) in err


@pytest.mark.parametrize("command", ["stats", "split", "synth", "eval"])
@pytest.mark.parametrize("bad", ["missing-directory", "taken"])
def test_output_path_is_checked_before_any_work(synth_dir, trained_dir, tmp_path, capsys, monkeypatch, command, bad):
    """``stats --json``, ``split --out``, ``synth --out`` and ``eval --out``
    exit 2 naming the path before they load or generate anything, and print
    nothing on stdout: they used to print the whole table, compute the split
    or generate the graph first."""
    import graphscm.cli as cli_mod

    def work(*args, **kwargs):
        raise AssertionError("the command did its work before checking its output path")

    for name in ("load_graph", "load_checkpoint", "generate", "iid_split"):
        monkeypatch.setattr(cli_mod, name, work)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    if command in ("split", "synth"):  # directories: a file in the way, or one under it
        path = taken if bad == "taken" else taken / "d"
    else:  # files: a missing parent directory, or a directory in the way
        path = tmp_path / "missing" / "x.json" if bad == "missing-directory" else tmp_path
    args = {
        "stats": ["stats", synth_dir, "--json", path],
        "split": ["split", synth_dir, "--kind", "iid", "--out", path],
        "synth": ["synth", "--out", path, "--authors", 20],
        "eval": ["eval", synth_dir, "--checkpoint", os.path.join(trained_dir, "checkpoint.bin"), "--out", path],
    }[command]
    assert run_cli(*args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err, err


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
    for name in ("checkpoint.bin", "history.csv", "metrics.json", "manifest.json"):
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
        "eval", synth_dir, "--checkpoint", os.path.join(trained_dir, "checkpoint.bin"),
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


def _forbid_pooling(monkeypatch):
    import graphscm.encoders as encoders_mod

    def pool(*args, **kwargs):
        raise AssertionError("pooled before the checkpoint was compared with the dataset")

    monkeypatch.setattr(encoders_mod, "pooled_neighbor_features", pool)


def test_eval_schema_mismatch_fails(trained_dir, toy_dir, tmp_path, capsys, monkeypatch):
    """The toy dataset has no terms, so it makes other variables than the
    checkpoint's: eval exits 2 naming them before any pooling. Without a
    split file the toy dataset used to exit 2 on the missing splits.json
    alone, and every target node was pooled before the comparison."""
    splits = tmp_path / "splits.json"
    splits.write_text('{"train": [0], "val": [1], "test": [2]}', encoding="utf-8")
    _forbid_pooling(monkeypatch)
    code = run_cli("eval", toy_dir, "--checkpoint", os.path.join(trained_dir, "checkpoint.bin"), "--splits", splits)
    assert code == 2
    err = capsys.readouterr().err
    assert "do not match checkpoint variables" in err and "Traceback" not in err, err


def test_eval_feature_width_mismatch_exits_2_before_pooling(trained_dir, tmp_path, capsys, monkeypatch):
    """Three classes widen the one-hot venue features: eval exits 2 naming
    the mismatch before any pooling."""
    data = tmp_path / "three"
    assert run_cli("synth", "--out", data, "--authors", 40, "--classes", 3, "--terms", 16, "--seed", 3) == 0
    capsys.readouterr()
    _forbid_pooling(monkeypatch)
    assert run_cli("eval", data, "--checkpoint", os.path.join(trained_dir, "checkpoint.bin")) == 2
    err = capsys.readouterr().err
    assert "feature widths do not match" in err and "Traceback" not in err, err


def _copy_with_schema(src, dst, **fields):
    import shutil

    shutil.copytree(src, dst)
    path = os.path.join(dst, "schema.json")
    with open(path, encoding="utf-8") as fh:
        schema = json.load(fh)
    schema.update(fields)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh)
    return dst


@pytest.mark.parametrize(
    "fields, message",
    [
        # the 80 authors' labels and splits are valid paper ids too, so the dataset loads
        ({"target_type": "paper"}, "checkpoint was trained for target 'author', dataset targets 'paper'"),
        # the venue features stay two wide: only the class count differs
        ({"num_classes": 3}, "class count does not match the checkpoint"),
    ],
    ids=["target-type", "num-classes"],
)
def test_eval_target_or_class_mismatch_exits_2_before_pooling(trained_dir, synth_dir, tmp_path, capsys, monkeypatch, fields, message):
    data = _copy_with_schema(synth_dir, str(tmp_path / "other"), **fields)
    assert run_cli("stats", data) == 0
    capsys.readouterr()
    _forbid_pooling(monkeypatch)
    assert run_cli("eval", data, "--checkpoint", os.path.join(trained_dir, "checkpoint.bin")) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err


def test_eval_target_width_mismatch_exits_2_before_pooling(synth_dir, tmp_path, capsys, monkeypatch):
    """At length 1 no metapath ends at the target type, so a wider target
    is caught by the target-width check itself; at length 2 APA's terminal
    width differs first."""
    import shutil

    run = str(tmp_path / "run1")
    assert run_cli("train", synth_dir, "--out", run, "--hidden", 8, "--max-epochs", 1,
                   "--batch-size", 32, "--max-metapath-len", 1) == 0
    data = str(tmp_path / "wide")
    shutil.copytree(synth_dir, data)
    path = os.path.join(data, "nodes-author.tsv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\t0.0\n" for line in lines))
    capsys.readouterr()
    _forbid_pooling(monkeypatch)
    assert run_cli("eval", data, "--checkpoint", os.path.join(run, "checkpoint.bin")) == 2
    err = capsys.readouterr().err
    assert "target feature width does not match the checkpoint" in err and "Traceback" not in err, err


def test_explain_outputs_diagram(trained_dir, tmp_path, capsys):
    out = str(tmp_path / "diagram")
    assert run_cli("explain", "--checkpoint", os.path.join(trained_dir, "checkpoint.bin"),
                   "--out", out) == 0
    text = open(os.path.join(out, "diagram.dot")).read()
    assert text.startswith("digraph")
    from graphscm.interpret import CausalDiagram, Edge
    from oracles import has_cycle

    with open(os.path.join(out, "diagram.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    diagram = CausalDiagram(raw["variables"], [Edge(e["src"], e["dst"], e["weight"]) for e in raw["edges"]])
    assert diagram.names[0] == "EGO" and diagram.names[-1] == "Y"
    assert not has_cycle(diagram.support())

    out2 = str(tmp_path / "diagram2")
    assert run_cli("explain", "--checkpoint", os.path.join(trained_dir, "checkpoint.bin"),
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

    checkpoint = os.path.join(trained_dir, "checkpoint.bin")
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
    metrics = evaluate(graph, load_checkpoint(os.path.join(out, "checkpoint.bin")), spec.test)
    with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
        assert fh.read() == json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n"


def test_train_rerun_byte_identical(synth_dir, tmp_path):
    outs = [str(tmp_path / f"r{i}") for i in (1, 2)]
    for out in outs:
        assert run_cli("train", synth_dir, "--out", out, "--hidden", 8, "--max-epochs", 3,
                       "--patience", 3, "--batch-size", 32, "--seed", 2) == 0
    assert filecmp.cmp(os.path.join(outs[0], "history.csv"), os.path.join(outs[1], "history.csv"), shallow=False)
    assert filecmp.cmp(os.path.join(outs[0], "checkpoint.bin"), os.path.join(outs[1], "checkpoint.bin"), shallow=False)


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


def _rename_in_copy(toy_dir, tmp_path, old, new):
    """A copy of the toy dataset with the node type or relation ``old``
    renamed to ``new`` in schema.json and in its file's name."""
    import shutil

    bad = str(tmp_path / "bad")
    shutil.copytree(toy_dir, bad)
    path = os.path.join(bad, "schema.json")
    with open(path, encoding="utf-8") as fh:
        schema = json.load(fh)
    schema["node_types"] = [new if t == old else t for t in schema["node_types"]]
    schema["relations"] = [{k: new if v == old else v for k, v in r.items()} for r in schema["relations"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh)
    for prefix in ("nodes", "edges"):
        if os.path.isfile(os.path.join(bad, f"{prefix}-{old}.tsv")):
            os.rename(os.path.join(bad, f"{prefix}-{old}.tsv"), os.path.join(bad, f"{prefix}-{new}.tsv"))
    return bad, path


@pytest.mark.parametrize("old", ["venue", "publish"], ids=["node-type", "relation"])
def test_empty_schema_name_exits_2(toy_dir, tmp_path, capsys, old):
    """An empty node-type or relation name is rejected naming schema.json:
    ``stats`` used to accept it and ``train`` to end in an IndexError while
    naming the variables by type initials."""
    bad, path = _rename_in_copy(toy_dir, tmp_path, old, "")
    assert run_cli("stats", bad) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and "must not be empty" in err and "Traceback" not in err, err
    code = run_cli("train", bad, "--out", str(tmp_path / "run"), "--hidden", 8, "--max-epochs", 1)
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and "Traceback" not in err, err
    assert not os.path.exists(tmp_path / "run" / "checkpoint.bin")


def test_two_metapaths_with_one_name_exit_2(synth_dir, tmp_path, capsys):
    """Author -> paper ``write`` and ``review`` both make the variable AP.
    The pooled tables are keyed by that name, so training used to exit 0
    with variables EGO, AP, AP, Y that both read the ``review`` pool."""
    import shutil

    data = str(tmp_path / "data")
    shutil.copytree(synth_dir, data)
    path = os.path.join(data, "schema.json")
    with open(path, encoding="utf-8") as fh:
        schema = json.load(fh)
    schema["relations"] += [
        {"name": "review", "src": "author", "dst": "paper", "inverse": "rev_review"},
        {"name": "rev_review", "src": "paper", "dst": "author", "inverse": "review"},
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema, fh)
    with open(os.path.join(data, "edges-review.tsv"), "w", encoding="utf-8") as fh:
        fh.write("0\t1\n1\t0\n")
    out = str(tmp_path / "run")
    code = run_cli("train", data, "--out", out, "--hidden", 8, "--max-epochs", 1, "--max-metapath-len", 1)
    assert code == 2
    err = capsys.readouterr().err
    assert "'AP'" in err and "write" in err and "review" in err and "Traceback" not in err, err
    assert not os.path.exists(os.path.join(out, "checkpoint.bin"))


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


@pytest.fixture(scope="module")
def labels20_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data") / "synth20")
    assert run_cli("synth", "--out", out, "--authors", 20, "--classes", 2, "--terms", 16, "--seed", 3) == 0
    with open(os.path.join(out, "labels.tsv"), encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 20  # every author labeled
    return out


@pytest.mark.parametrize(
    "tail, message",
    [
        ("0\t1\t2\n", "labels.tsv:21: expected 'node_id<TAB>class'"),
        ("999\t0\n", "labels.tsv:21: node id 999 out of range"),
    ],
    ids=["extra-column", "unknown-id"],
)
def test_labels_line_reader_exits_2_naming_the_line(labels20_dir, tmp_path, capsys, tail, message):
    import shutil

    bad = str(tmp_path / "bad")
    shutil.copytree(labels20_dir, bad)
    with open(os.path.join(bad, "labels.tsv"), "a", encoding="utf-8") as fh:
        fh.write(tail)
    capsys.readouterr()
    assert run_cli("stats", bad) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err, err


def test_labels_line_reader_loads_what_numpy_declines(labels20_dir, tmp_path, capsys):
    """``0_0`` is an id that ``int()`` reads and numpy's parser declines:
    the line reader loads the labels of the plain file."""
    import shutil

    from graphscm.hetgraph import _fast_pairs, load_graph

    odd = str(tmp_path / "odd")
    shutil.copytree(labels20_dir, odd)
    path = os.path.join(odd, "labels.tsv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    assert lines[0].startswith("0\t")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("0_" + "".join(lines))
    assert _fast_pairs(path) is None
    capsys.readouterr()
    assert run_cli("stats", odd) == 0
    plain = load_graph(labels20_dir).labels
    got = load_graph(odd).labels
    assert got.dtype == plain.dtype and np.array_equal(got, plain)


@pytest.mark.parametrize("node_type, max_len", [("venue", 2), ("author", 1), ("author", 2)])
def test_train_featureless_node_type_exits_2(synth_dir, tmp_path, capsys, node_type, max_len):
    # venue is APV's terminal type and author the target type (and APA's
    # terminal type at length 2): a variable with no input columns is
    # refused before pooling, while the dataset itself still loads
    import shutil

    bad = str(tmp_path / "bad")
    shutil.copytree(synth_dir, bad)
    path = os.path.join(bad, f"nodes-{node_type}.tsv")
    with open(path, encoding="utf-8") as fh:
        ids = [line.split("\t", 1)[0] for line in fh.read().splitlines()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{i}\n" for i in ids))
    assert run_cli("stats", bad) == 0
    capsys.readouterr()
    code = run_cli("train", bad, "--out", tmp_path / "run", "--hidden", 8, "--max-epochs", 1,
                   "--max-metapath-len", max_len)
    err = capsys.readouterr().err
    assert code == 2
    assert f"node type {node_type!r} has no feature columns in nodes-{node_type}.tsv" in err, err
    assert "Traceback" not in err


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
    code = run_cli("explain", "--checkpoint", os.path.join(trained_dir, "checkpoint.bin"),
                   "--out", str(tmp_path / "d"))
    assert code == 2
    err = capsys.readouterr().err
    assert "edge removal exhausted" in err and "Traceback" not in err, err


def _rejected_old_checkpoint(trained_dir, synth_dir, tmp_path, capsys, version, command="eval"):
    """Rewrite the trained model in the format of ``version``, starting from
    the version-8 writer's file, and check that ``command`` (eval or
    explain) exits 2 naming the file and that version, with no traceback."""
    from graphscm.scm import load_checkpoint

    old = str(tmp_path / f"v{version}.json")
    oracles.save_checkpoint_v8(load_checkpoint(os.path.join(trained_dir, "checkpoint.bin")), old)
    with open(old, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["version"] == 8
    payload["version"] = version
    meta = payload["meta"]
    n, width = len(meta["variable_names"]), meta["hidden_dim"]
    pairs = (("scm.pair.W", (n, n - 1, width, width)), ("scm.pair.b", (n, n - 1, width)))
    for name, shape in pairs if version < 8 else ():
        payload["tensors"][name] = {
            "shape": list(shape), "dtype": "<f8",
            "data": base64.b64encode(np.zeros(shape).tobytes()).decode("ascii"),
        }
    if version < 7:
        meta["activation"] = "relu"
    if version < 6:
        meta["mlp_hidden"], meta["exclude_self"], meta["forward_only"] = meta["hidden_dim"], False, False
    if version < 5:
        meta["native_dims"], meta["var_dims"] = False, [meta["hidden_dim"]] * len(meta["variable_names"])
    for entry in payload["tensors"].values() if version < 4 else []:
        del entry["dtype"]
        entry["data"] = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").tolist()
    if version < 8:  # a version-8 file is the writer's own
        with open(old, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    args = {"eval": ["eval", synth_dir], "explain": ["explain", "--out", str(tmp_path / "diagram")]}[command]
    assert run_cli(*args, "--checkpoint", old) == 2
    err = capsys.readouterr().err
    assert f"{old}: unsupported checkpoint version {version}" in err and "Traceback" not in err, err


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


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_version_7_checkpoint_rejected(trained_dir, synth_dir, tmp_path, capsys, command):
    """Version 7 checkpoints held a D x D map per ordered variable pair,
    ``scm.pair.W`` and ``scm.pair.b``; eval and explain exit 2 naming the
    file, with no traceback, and explain writes no diagram."""
    _rejected_old_checkpoint(trained_dir, synth_dir, tmp_path, capsys, 7, command)
    assert not (tmp_path / "diagram").exists()


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_version_8_checkpoint_rejected(trained_dir, synth_dir, tmp_path, capsys, command):
    """Version 8 checkpoints were one JSON object whose tensors were base64
    strings; eval and explain exit 2 naming the file, with no traceback, and
    explain writes no diagram."""
    _rejected_old_checkpoint(trained_dir, synth_dir, tmp_path, capsys, 8, command)
    assert not (tmp_path / "diagram").exists()


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_checkpoint_with_nonzero_dag_diagonal_rejected(trained_dir, synth_dir, tmp_path, capsys, command):
    """A ``dag.A`` with a nonzero diagonal exits 2 naming the file and the
    tensor, and explain writes no diagram: eval used to score it as if the
    diagonal were zero, and explain to fail without naming the file."""
    from graphscm.scm import load_checkpoint

    original = os.path.join(trained_dir, "checkpoint.bin")
    header, parts = oracles.read_checkpoint_v9(original)
    a = np.frombuffer(parts["dag.A"], dtype="<f8").reshape(header["tensors"]["dag.A"]["shape"]).copy()
    assert not np.diagonal(a).any()
    load_checkpoint(original)  # the trained file, with its zero diagonal, loads
    a[1, 1] = 0.25
    parts["dag.A"] = a.tobytes()
    bad = str(tmp_path / "diag.bin")
    oracles.write_checkpoint_v9(bad, header, parts)
    args = {"eval": ["eval", synth_dir], "explain": ["explain", "--out", tmp_path / "diagram"]}[command]
    assert run_cli(*args, "--checkpoint", bad) == 2
    err = capsys.readouterr().err
    assert f"{bad}: tensor 'dag.A' has a nonzero diagonal" in err and "Traceback" not in err, err
    assert not (tmp_path / "diagram").exists()


def _corrupt_checkpoint(case: str, header: dict, parts: dict) -> tuple[bytes, str | None]:
    """The bytes of the checkpoint (``header``, ``parts``) corrupted as
    ``case`` says, and the tensor the error must name, if there is one."""
    data = b"".join(parts.values())
    if case == "no-header-line":
        return data, None
    if case == "header-not-json":
        return b"{graphscm\n" + data, None
    if case == "header-not-utf8":
        return json.dumps(header).encode().replace(b'"author"', b'"auth\xffr"') + b"\n" + data, None
    whole = oracles.checkpoint_v9_bytes(header, parts)
    if case == "one-byte-short":
        return whole[:-1], "scm.inv2.b"
    if case == "one-byte-extra":
        return whole + b"\0", "scm.inv2.b"
    entries = header["tensors"]
    if case in ("dtype-f4", "dtype-big-endian"):
        entries["enc.b"]["dtype"] = "<f4" if case == "dtype-f4" else ">f8"
        return oracles.checkpoint_v9_bytes(header, parts), "enc.b"
    if case == "shape-against-bytes":
        entries["scm.inv1.W"]["shape"] = [8, 7]
        return oracles.checkpoint_v9_bytes(header, parts), "scm.inv1.W"
    if case == "unknown-tensor":
        entries["scm.extra"] = {"shape": [1], "dtype": "<f8"}
        return oracles.checkpoint_v9_bytes(header, dict(parts, **{"scm.extra": bytes(8)})), "scm.extra"
    name, value = {"nan": ("scm.effect.0.W", float("nan")), "inf": ("enc.W", float("-inf"))}[case]
    values = np.frombuffer(parts[name], dtype="<f8").copy()
    values[len(values) // 2] = value
    return oracles.checkpoint_v9_bytes(header, dict(parts, **{name: values.tobytes()})), name


@pytest.mark.parametrize("case", [
    "no-header-line", "header-not-json", "header-not-utf8", "one-byte-short", "one-byte-extra",
    "dtype-f4", "dtype-big-endian", "shape-against-bytes", "nan", "inf", "unknown-tensor",
])
def test_corrupt_checkpoint_exits_2_naming_file_and_tensor(trained_dir, synth_dir, tmp_path, capsys, case):
    """A checkpoint with no header line, a header that is not JSON or not
    UTF-8, a data section one byte short or long, a wrong dtype, a shape
    that disagrees with the bytes, a non-finite value or an unknown tensor
    makes eval and explain exit 2 with no traceback, naming the file and
    the tensor where there is one; explain writes no diagram."""
    header, parts = oracles.read_checkpoint_v9(os.path.join(trained_dir, "checkpoint.bin"))
    content, tensor = _corrupt_checkpoint(case, header, parts)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(content)
    diagram = tmp_path / "diagram"
    for args in (["eval", synth_dir], ["explain", "--out", diagram]):
        assert run_cli(*args, "--checkpoint", bad) == 2, args
        err = capsys.readouterr().err
        assert f"error: {bad}" in err and "Traceback" not in err, err
        assert tensor is None or repr(tensor) in err, err
    assert not diagram.exists()


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
    pytest.param(lambda spec: dict(spec, provenance={"x": [1]}), id="non-string-provenance"),
])
def test_malformed_splits_file_exits_2(trained_dir, synth_dir, tmp_path, capsys, corrupt):
    """A split file whose ids are not JSON integers, or not labeled nodes,
    exits 2 naming the file; a float id used to be truncated to an integer
    and a boolean id read as 0 or 1, both silently."""
    with open(os.path.join(synth_dir, "splits.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bad = tmp_path / "bad-splits.json"
    bad.write_text(json.dumps(corrupt(spec)), encoding="utf-8")
    code = run_cli("eval", synth_dir, "--checkpoint", os.path.join(trained_dir, "checkpoint.bin"),
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
    header, parts = oracles.read_checkpoint_v9(os.path.join(trained_dir, "checkpoint.bin"))
    part = header if field == "tensors" else header["meta"]
    part[field] = value(part[field]) if callable(value) else value
    bad = str(tmp_path / "bad.bin")
    oracles.write_checkpoint_v9(bad, header, parts)
    for args in (["eval", synth_dir], ["explain", "--out", str(tmp_path / "d")]):
        assert run_cli(*args, "--checkpoint", bad) == 2, args
        err = capsys.readouterr().err
        assert "bad.bin" in err and repr(field) in err and "Traceback" not in err, err


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
