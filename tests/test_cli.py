import json

import pytest

from rotorlab.cli import main
from rotorlab.graph import build_graph, graph_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_aggregate_radius(capsys):
    code, out, _ = run_cli(capsys, "aggregate", "--d", "3", "--radius", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["final_exact_ball"] is True
    assert payload["cluster_size"] == 94
    assert {c["rho"] for c in payload["ball_checks"]} == {0, 1, 2, 3, 4, 5}
    assert all(c["exact"] for c in payload["ball_checks"])


def test_aggregate_chips_small(capsys):
    code, out, _ = run_cli(capsys, "aggregate", "--d", "3", "--chips", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["cluster_size"] == 4
    assert payload["max_depth"] == 1


def test_aggregate_sandwich(capsys):
    code, out, _ = run_cli(capsys, "aggregate", "--d", "3", "--chips", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["sandwich_ok"] is True


def test_aggregate_deterministic_output(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["aggregate", "--d", "3", "--chips", "30",
                 "--out", str(out1)]) == 0
    assert main(["aggregate", "--d", "3", "--chips", "30",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_aggregate_dot_export(capsys, tmp_path):
    dot = tmp_path / "snap.dot"
    code, _, _ = run_cli(capsys, "aggregate", "--d", "3", "--chips", "10",
                         "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_aggregate_bad_config_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "default": 3, "mode": "tree",
                               "overrides": [], "rays": []}))
    code, _, err = run_cli(capsys, "aggregate", "--d", "3", "--chips", "5",
                           "--config", str(cfg))
    assert code == 2
    assert "mutual" in err or "error" in err


def test_aggregate_branch_mode_config_rejected(capsys, tmp_path):
    cfg = tmp_path / "br.json"
    cfg.write_text(json.dumps({"d": 3, "default": 1, "mode": "branch"}))
    code, out, err = run_cli(capsys, "aggregate", "--d", "3", "--chips", "5",
                             "--config", str(cfg))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def _complete_graph_json(n):
    names = [f"v{i}" for i in range(n)]
    return {"vertices": names, "sink": names[0],
            "out": {v: [w for w in names if w != v] for v in names}}


@pytest.mark.parametrize("command, payload, needle", [
    ("aggregate", {"d": "3", "default": 1}, "'d'"),
    ("aggregate", [{"d": 3, "default": 1}], "object"),
    ("simulate", {"d": 3, "default": 1,
                  "overrides": [{"addr": "1", "dir": "2"}]}, "'dir'"),
    ("group", {"vertices": ["a", "s"], "sink": "s",
               "out": {"a": 5, "s": ["a"]}}, "'out'"),
    ("group", _complete_graph_json(9), "limit 1000000"),
], ids=["string-degree", "list-root", "string-override-dir",
        "number-out-list", "k9-too-large"])
def test_malformed_input_exits_2_with_one_error_line(capsys, tmp_path,
                                                     command, payload, needle):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = {
        "aggregate": ["aggregate", "--d", "3", "--chips", "5",
                      "--config", str(path)],
        "simulate": ["escape", "simulate", "--config", str(path), "--m", "3"],
        "group": ["group", str(path)],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert needle in lines[0]
    assert "Traceback" not in err


def test_group_wired(capsys):
    code, out, _ = run_cli(capsys, "group", "--wired", "3", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["root_order"] == 7
    assert payload["rec_count"] == 21
    assert payload["relations_ok"] is True
    assert payload["ok"] is True


def test_group_graph_file(capsys, tmp_path):
    g = build_graph(["a", "b", "s"], "s",
                    {"a": ["b", "s"], "b": ["a", "s"], "s": ["a", "b"]})
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(g))
    code, out, _ = run_cli(capsys, "group", "--graph", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["sp_order"] == 3
    assert payload["invariant_factors"] == [3]
    # positional form works too
    code2, out2, _ = run_cli(capsys, "group", str(path))
    assert code2 == 0
    assert json.loads(out2)["relations_ok"] is True


def test_group_requires_one_source(capsys):
    code, _, err = run_cli(capsys, "group")
    assert code == 2


def test_group_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "group", "--graph", str(path))
    assert code == 2


def test_escape_check_invalid(capsys):
    code, out, _ = run_cli(capsys, "escape", "check", "111", "--branch")
    assert code == 3
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violating_window"] == {"k": 2, "start": 1, "end": 3}


def test_escape_check_valid(capsys):
    code, out, _ = run_cli(capsys, "escape", "check", "101010")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_escape_check_tree_residues(capsys):
    code, out, _ = run_cli(capsys, "escape", "check", "100100100", "--tree")
    assert code == 3
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["residues"][0]["word"] == "111"
    assert payload["residues"][0]["valid"] is False


def test_escape_synthesize_and_simulate_round_trip(capsys, tmp_path):
    out_path = tmp_path / "cfg.json"
    code, out, _ = run_cli(capsys, "escape", "synthesize", "10110",
                           "--branch", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["round_trip_ok"] is True
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(payload["config"]))
    code, out, _ = run_cli(capsys, "escape", "simulate",
                           "--config", str(cfg_path), "--m", "5")
    assert code == 0
    assert json.loads(out)["word"] == "10110"


def test_escape_synthesize_not_realizable(capsys):
    code, _, err = run_cli(capsys, "escape", "synthesize", "111", "--branch")
    assert code == 3


def test_escape_simulate_preset(capsys):
    code, out, _ = run_cli(capsys, "escape", "simulate",
                           "--preset", "alternating", "--m", "1000")
    assert code == 0
    payload = json.loads(out)
    assert payload["returns"] == 500
    assert payload["word"] == "10" * 500


def test_escape_missing_word_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["escape", "check"])
    assert exc.value.code == 2


def test_aggregate_with_good_config_file(capsys, tmp_path):
    from rotorlab.lazytree import alternating_tree_config
    cfg = tmp_path / "alternating.json"
    cfg.write_text(alternating_tree_config().to_json())
    code, out, _ = run_cli(capsys, "aggregate", "--d", "3", "--radius", "3",
                           "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["final_exact_ball"] is True


def test_verify_all_wiring(capsys, monkeypatch):
    from rotorlab import acceptance

    def fake_ok():
        return acceptance.CriterionResult(1, "stub", True, "", 0.0)

    def fake_bad():
        return acceptance.CriterionResult(2, "stub", False, "boom", 0.0)

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [fake_ok])
    assert main(["verify-all"]) == 0
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [fake_ok, fake_bad])
    assert main(["verify-all"]) == 1
