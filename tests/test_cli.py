import json

import numpy as np
import pytest

from mhpf.cli import main
from mhpf.filtration import ClusterTree
from mhpf.geometry import Trajectory, save_trajectories


def run_cli(args):
    return main(args)


def test_gen_writes_corpus(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert run_cli(["gen", "--dataset", "fixed", "--out", str(out),
                    "--seed", "3", "--n-points", "40"]) == 0
    lines = [l for l in out.read_text().splitlines() if l]
    assert len(lines) == 13
    rec = json.loads(lines[0])
    assert set(rec) == {"id", "points"}
    assert len(rec["points"]) == 40


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run_cli(["gen", "--dataset", "junction", "--out", str(a), "--seed", "9"])
    run_cli(["gen", "--dataset", "junction", "--out", str(b), "--seed", "9"])
    assert a.read_bytes() == b.read_bytes()


def test_cluster_hand_corpus_matches_trace(tmp_path):
    corpus = [Trajectory("0", np.array([[0.0, 0.0]])),
              Trajectory("1", np.array([[1.0, 0.0]])),
              Trajectory("2", np.array([[3.0, 0.0]]))]
    cpath = tmp_path / "c.jsonl"
    save_trajectories(cpath, corpus)
    tpath = tmp_path / "tree.json"
    dpath = tmp_path / "dendro.txt"
    assert run_cli(["cluster", "--trajectories", str(cpath),
                    "--out-tree", str(tpath), "--dendrogram", str(dpath)]) == 0
    tree = ClusterTree.load(tpath)
    assert tree.nodes[3].birth == 1.0
    assert tree.nodes[3].members == frozenset({"0", "1"})
    assert tree.nodes[tree.root].birth == 2.0
    assert "node 4" in dpath.read_text()


def test_filter_snapshots_deterministic(tmp_path):
    cpath = tmp_path / "c.jsonl"
    run_cli(["gen", "--dataset", "fixed", "--out", str(cpath),
             "--seed", "3", "--n-points", "40"])
    tpath = tmp_path / "tree.json"
    run_cli(["cluster", "--trajectories", str(cpath), "--out-tree", str(tpath)])
    outs = []
    for name in ("s1.jsonl", "s2.jsonl"):
        spath = tmp_path / name
        assert run_cli(["filter", "--trajectories", str(cpath), "--tree", str(tpath),
                        "--out", str(spath), "--seed", "5", "--truth-id", "fix02",
                        "--mode", "mixed", "--coarse-prob", "0.5",
                        "--n-particles", "60", "--levels", "0,1.0"]) == 0
        outs.append(spath.read_bytes())
    assert outs[0] == outs[1]
    first = json.loads(outs[0].decode().splitlines()[0])
    assert set(first) == {"t", "levels", "point_estimate", "map_class"}
    assert [lvl["b"] for lvl in first["levels"]] == [0.0, 1.0]


def test_filter_replays_observation_file(tmp_path):
    cpath = tmp_path / "c.jsonl"
    run_cli(["gen", "--dataset", "fixed", "--out", str(cpath),
             "--seed", "3", "--n-points", "30"])
    tpath = tmp_path / "tree.json"
    run_cli(["cluster", "--trajectories", str(cpath), "--out-tree", str(tpath)])
    opath = tmp_path / "obs.jsonl"
    recs = [{"t": 1, "kind": "fine", "position": [1.0, 0.5]},
            {"t": 2, "kind": "fine", "position": [2.0, 0.9]}]
    opath.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
    spath = tmp_path / "snaps.jsonl"
    assert run_cli(["filter", "--trajectories", str(cpath), "--tree", str(tpath),
                    "--out", str(spath), "--seed", "5",
                    "--observations", str(opath)]) == 0
    lines = spath.read_text().splitlines()
    assert len(lines) == 2


def test_filter_reports_malformed_observation_file(tmp_path, capsys):
    cpath = tmp_path / "c.jsonl"
    run_cli(["gen", "--dataset", "fixed", "--out", str(cpath), "--seed", "3", "--n-points", "20"])
    tpath = tmp_path / "tree.json"
    run_cli(["cluster", "--trajectories", str(cpath), "--out-tree", str(tpath)])
    opath = tmp_path / "obs.jsonl"
    opath.write_text('{"t": 1, "position": [0.0, 1.0]}\n')
    capsys.readouterr()
    rc = run_cli(["filter", "--trajectories", str(cpath), "--tree", str(tpath),
                  "--out", str(tmp_path / "s.jsonl"), "--observations", str(opath)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 1" in err and "'kind'" in err


def test_malformed_tree_and_trajectory_files_are_reported(tmp_path, capsys):
    cpath = tmp_path / "c.jsonl"
    run_cli(["gen", "--dataset", "fixed", "--out", str(cpath), "--seed", "3", "--n-points", "20"])
    tpath = tmp_path / "tree.json"
    tpath.write_text('{"root": 0}')
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x", "pts": []}\n')
    good = tmp_path / "good.json"
    run_cli(["cluster", "--trajectories", str(cpath), "--out-tree", str(good)])
    shared = tmp_path / "shared.json"
    shared.write_text(json.dumps({"root": 2, "nodes": [
        {"id": 0, "members": ["fix00"], "birth": 0.0, "death": 1.0, "parent": 2, "children": []},
        {"id": 1, "members": ["fix00", "fix01"], "birth": 0.0, "death": 1.0, "parent": 2,
         "children": []},
        {"id": 2, "members": ["fix00", "fix01"], "birth": 1.0, "death": None, "parent": None,
         "children": [0, 1]}]}))
    capsys.readouterr()
    for argv, field in (
            (["filter", "--trajectories", str(cpath), "--tree", str(tpath), "--truth-id", "fix00",
              "--out", str(tmp_path / "s.jsonl")], "'nodes'"),
            (["filter", "--trajectories", str(cpath), "--tree", str(shared), "--truth-id", "fix00",
              "--out", str(tmp_path / "s.jsonl")], "member 'fix00' is under leaves 0 and 1"),
            (["cluster", "--trajectories", str(bad), "--out-tree", str(tmp_path / "t.json")],
             "'points'"),
            *((["filter", "--trajectories", str(cpath), "--tree", str(good), "--truth-id",
                "fix00", "--out", str(tmp_path / "s.jsonl"), "--mode", "lead_in",
                "--coarse-level", level], f"no class is alive at level {level}")
              for level in ("nan", "inf"))):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err


_TINY_EVAL = {"corpus_kind": "fixed", "corpus_n": 4, "n_points": 10, "n_scenarios": 1,
              "n_repeats": 1, "n_particles": 10}
# A config whose corpus file does not exist: a check that runs only after the
# corpus loads reports the missing file instead of the bad value.
_MISSING_CORPUS = {"corpus_kind": "file", "corpus_path": "missing.jsonl"}


@pytest.mark.parametrize("config, named", [
    ([_TINY_EVAL], "JSON object"),
    ({**_TINY_EVAL, "kappa": [0.3]}, "'kappa'"),
    ({**_TINY_EVAL, "kappas": 0.3}, "'kappas'"),
    ({**_TINY_EVAL, "psis": "0.01"}, "'psis'"),
    ({**_TINY_EVAL, "kappas": [-0.3]}, "kappa"),
    ({**_TINY_EVAL, "kappas": [float("nan")]}, "kappa"),
    ({**_TINY_EVAL, "n_repeats": "2"}, "'n_repeats'"),
    ({**_TINY_EVAL, "kappas": ["a"]}, "'kappas'"),
    ({**_TINY_EVAL, "holdout": 1}, "'holdout'"),
    ({**_TINY_EVAL, "filters": ["mhpf", None]}, "'filters'"),
    ({**_TINY_EVAL, "filters": ["mhpf", "xyz"]}, "'filters'"),
    # Checked before the corpus loads: the missing corpus file is never read.
    ({"corpus_kind": "file", "corpus_path": "missing.jsonl", "filters": ["xyz"]}, "'filters'"),
    ({**_TINY_EVAL, "n_repeats": 0}, "'n_repeats'"),
    ({**_TINY_EVAL, "n_repeats": -1}, "'n_repeats'"),
    ({**_TINY_EVAL, "n_scenarios": 0}, "'n_scenarios'"),
    ({**_TINY_EVAL, "filters": []}, "'filters'"),
    ({**_TINY_EVAL, "kappas": []}, "'kappas'"),
    ({**_TINY_EVAL, "mode": "lead_in", "lead_in_fractions": []}, "'lead_in_fractions'"),
    ({**_TINY_EVAL, "epsilon_floor": float("nan")}, "epsilon_floor"),
    ({**_TINY_EVAL, "epsilon_floor": float("inf")}, "epsilon_floor"),
    # Each checked before the corpus loads, as above.
    ({**_MISSING_CORPUS, "epsilon_floor": 0}, "epsilon_floor"),
    ({**_MISSING_CORPUS, "n_particles": 0}, "particle"),
    ({**_MISSING_CORPUS, "depletion": 1.5}, "depletion"),
    ({**_MISSING_CORPUS, "kappas": [-0.3]}, "kappa"),
    ({**_MISSING_CORPUS, "psis": [-1]}, "psi"),
    ({**_MISSING_CORPUS, "coarse_prob": 2}, "coarse_prob"),
    ({**_MISSING_CORPUS, "mode": "lead_in", "lead_in_fractions": [1.5]}, "lead_in_fraction"),
    ({**_MISSING_CORPUS, "mode": "bogus"}, "'bogus'"),
    ({**_MISSING_CORPUS, "eval_level": -1}, "levels"),
    ({**_MISSING_CORPUS, "coarse_level": -1}, "levels"),
])
def test_bad_eval_config_is_reported(tmp_path, capsys, config, named):
    assert_eval_rejected(tmp_path, capsys, config, named)


@pytest.mark.parametrize("flag, named", [("--repeats", "'n_repeats'"),
                                         ("--scenarios", "'n_scenarios'")])
def test_zero_eval_count_override_is_reported(tmp_path, capsys, flag, named):
    assert_eval_rejected(tmp_path, capsys, _TINY_EVAL, named, flag, "0")


def assert_eval_rejected(tmp_path, capsys, config, named, *flags):
    """`mhpf eval` exits 2 with an error naming `named` and writes no CSV."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = run_cli(["eval", "--config", str(cfg_path), "--out-raw", str(tmp_path / "r.csv"),
                  "--out-summary", str(tmp_path / "s.csv"), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("levels, named", [("0,x", "'x'"), ("inf", "finite")])
def test_bad_filter_levels_are_reported(tmp_path, capsys, levels, named):
    cpath = tmp_path / "c.jsonl"
    run_cli(["gen", "--dataset", "fixed", "--out", str(cpath), "--seed", "3", "--n-points", "20"])
    tpath = tmp_path / "tree.json"
    run_cli(["cluster", "--trajectories", str(cpath), "--out-tree", str(tpath)])
    capsys.readouterr()
    rc = run_cli(["filter", "--trajectories", str(cpath), "--tree", str(tpath),
                  "--out", str(tmp_path / "s.jsonl"), "--truth-id", "fix00", "--levels", levels])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("floor", ["nan", "inf", "0"])
def test_bad_filter_epsilon_floor_is_reported(tmp_path, capsys, floor):
    cpath = tmp_path / "c.jsonl"
    run_cli(["gen", "--dataset", "fixed", "--out", str(cpath), "--seed", "3", "--n-points", "20"])
    tpath = tmp_path / "tree.json"
    run_cli(["cluster", "--trajectories", str(cpath), "--out-tree", str(tpath)])
    capsys.readouterr()
    rc = run_cli(["filter", "--trajectories", str(cpath), "--tree", str(tpath),
                  "--out", str(tmp_path / "s.jsonl"), "--truth-id", "fix00",
                  "--epsilon-floor", floor])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epsilon_floor" in err
    assert not (tmp_path / "s.jsonl").exists()


@pytest.mark.parametrize("starts, token", [("1;2", "'1'"), ("3,4;5,x", "'5,x'")])
def test_bad_walk_start_is_reported(tmp_path, capsys, starts, token):
    grid = tmp_path / "g.txt"
    grid.write_text("2 2\n1 1\n1 1\n")
    rc = run_cli(["gen", "--dataset", "walk", "--out", str(tmp_path / "w.jsonl"),
                  "--grid", str(grid), "--starts", starts])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and token in err


def test_eval_smoke_csv_schema(tmp_path):
    cfg = {"corpus_kind": "fixed", "corpus_n": 13, "n_points": 30, "corpus_seed": 3,
           "n_scenarios": 2, "n_repeats": 1, "seed": 5, "kappas": [0.3], "psis": [0.02],
           "mode": "mixed", "coarse_prob": 0.5, "n_particles": 40,
           "filters": ["mhpf", "bl1"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    raw_path = tmp_path / "raw.csv"
    sum_path = tmp_path / "summary.csv"
    assert run_cli(["eval", "--config", str(cfg_path), "--out-raw", str(raw_path),
                    "--out-summary", str(sum_path)]) == 0
    raw_header = raw_path.read_text().splitlines()[0].split(",")
    assert raw_header == ["mode", "kappa", "psi", "lead_in", "scenario", "repeat",
                          "filter", "step", "mse", "tree_distance", "root_birth"]
    sum_lines = sum_path.read_text().splitlines()
    assert sum_lines[0].startswith("mode,kappa,psi,lead_in,filter,runs,mean_mse")
    assert len(sum_lines) == 3  # header + 2 filters


def test_missing_file_is_reported(tmp_path, capsys):
    rc = run_cli(["cluster", "--trajectories", str(tmp_path / "nope.jsonl"),
                  "--out-tree", str(tmp_path / "t.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_parameter_is_reported(tmp_path, capsys):
    cpath = tmp_path / "c.jsonl"
    run_cli(["gen", "--dataset", "junction", "--out", str(cpath), "--seed", "1"])
    tpath = tmp_path / "tree.json"
    run_cli(["cluster", "--trajectories", str(cpath), "--out-tree", str(tpath)])
    rc = run_cli(["filter", "--trajectories", str(cpath), "--tree", str(tpath),
                  "--out", str(tmp_path / "s.jsonl"), "--truth-id", "missing-id"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_help_matches_golden(monkeypatch):
    from pathlib import Path
    monkeypatch.setenv("COLUMNS", "80")
    from mhpf.cli import build_parser
    golden = Path(__file__).parent / "data" / "cli_help.txt"
    assert build_parser().format_help() == golden.read_text()


def test_help_documents_every_flag(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for sub in ("gen", "cluster", "filter", "eval"):
        assert sub in text
    for sub, flags in {
        "gen": ["--dataset", "--out", "--seed", "--n-points", "--grid", "--starts"],
        "cluster": ["--trajectories", "--out-tree", "--dendrogram"],
        "filter": ["--tree", "--n-particles", "--depletion", "--kappa", "--psi",
                   "--truth-id", "--observations", "--coarse-prob", "--lead-in"],
        "eval": ["--config", "--out-raw", "--out-summary", "--workers"],
    }.items():
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        sub_text = capsys.readouterr().out
        for flag in flags:
            assert flag in sub_text, f"{sub}: {flag} undocumented"


@pytest.mark.parametrize("command", ["gen", "eval"])
def test_negative_seed_is_reported_before_any_work(tmp_path, capsys, monkeypatch, command):
    from mhpf import evaluation

    def never(*args, **kwargs):
        raise AssertionError("the seed must be checked before the corpus is built")
    monkeypatch.setattr(evaluation, "load_corpus", never)
    monkeypatch.setattr(evaluation.datasets, "generate", never)
    outs = {"gen": ["--dataset", "fixed", "--out", str(tmp_path / "c.jsonl")],
            "eval": ["--out-raw", str(tmp_path / "r.csv"),
                     "--out-summary", str(tmp_path / "s.csv")]}[command]
    rc = run_cli([command, "--seed", "-1"] + outs)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be a whole number >= 0" in err
    assert not any(tmp_path.iterdir())
