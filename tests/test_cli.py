import filecmp
import json
import os

import pytest

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
    config.write_text("beta = 0.25\nhidden_dim = 8\nmax_epochs = 2\npatience = 2\n# comment\n")
    out = str(tmp_path / "cfg-run")
    assert run_cli("train", synth_dir, "--out", out, "--config", str(config), "--gamma", 1.5) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["beta"] == 0.25      # from file
    assert manifest["config"]["gamma"] == 1.5      # flag wins
    assert manifest["config"]["hidden_dim"] == 8


def test_unknown_config_key_rejected(synth_dir, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("warp_speed = 9\n")
    assert run_cli("train", synth_dir, "--out", str(tmp_path / "x"), "--config", str(config)) == 2


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
