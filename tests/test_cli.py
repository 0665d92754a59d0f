import argparse
import contextlib
import copy
import gc
import hashlib
import io
import json
import random
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorlab import cli
from rotorlab.acceptance import random_valid_word
from rotorlab.cli import MAX_CHIPS, MAX_SYNTHESIS_LETTERS, main
from rotorlab.escape import descriptor_to_branch_config, synthesize_branch
from rotorlab.graph import (
    ResultCheckError,
    StepBudgetExceededError,
    build_graph,
    graph_to_json,
)
from rotorlab.lazytree import LazyTreeConfig


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


# sha256 of the DOT file of `aggregate --d D --chips N --dot FILE`: the
# README example, and a cluster of more than two blocks of 1,024 lines
@pytest.mark.parametrize("d, chips, sha", [
    (3, 190, "4344e130343faafaacc192f3dfb9e01fc0696c559ff1c69a9b54d48d317c3892"),
    (4, 2500, "b08578c8cd86b0e4779e9dbb9b07e8a4de41e2c8935be7532ae96e6e56d821ed"),
])
def test_aggregate_dot_bytes_match_pinned_digest(capsys, tmp_path, d, chips,
                                                 sha):
    dot = tmp_path / "cluster.dot"
    code, _, _ = run_cli(capsys, "aggregate", "--d", str(d), "--chips",
                         str(chips), "--dot", str(dot))
    assert code == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == sha


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


@pytest.mark.parametrize("argv, message", [
    (["--chips", "0"], "--chips must be at least 1"),
    (["--chips", "-4"], "--chips must be at least 1"),
    ([], "need --chips or --radius"),
])
def test_aggregate_chip_count_messages(capsys, argv, message):
    # a --chips below 1 is named as such, not as a missing count
    code, out, err = run_cli(capsys, "aggregate", "--d", "3", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _complete_graph_json(n):
    names = [f"v{i}" for i in range(n)]
    return {"vertices": names, "sink": names[0],
            "out": {v: [w for w in names if w != v] for v in names}}


# address parts that int() takes but a config may not use: "1_2" would be
# child 12, and "+1", " 1" and an Arabic-Indic digit child 1
_LOOSE_ADDRESSES = [(command, {"d": 3, "default": 1,
                               "overrides": [{"addr": addr, "dir": 2}]},
                     f"bad address {addr!r}")
                    for command in ("aggregate", "simulate")
                    for addr in ("1_2", "+1", " 1", "\u0663")]
# a level region given twice, in either order: a dict of the regions kept
# the last height, and simulate ran
_REPEATED_REGIONS = [(command, {"d": 3, "default": 3, "mode": "branch",
                                "regions": [{"addr": "1", "h": h},
                                            {"addr": "1", "h": 7 - h}]},
                      "address (1,) assigned twice")
                     for command in ("aggregate", "simulate") for h in (2, 5)]


@pytest.mark.parametrize("command, payload, needle", [
    ("aggregate", {"d": "3", "default": 1}, "'d'"),
    ("aggregate", [{"d": 3, "default": 1}], "object"),
    ("simulate", {"d": 3, "default": 1,
                  "overrides": [{"addr": "1", "dir": "2"}]}, "'dir'"),
    ("group", {"vertices": ["a", "s"], "sink": "s",
               "out": {"a": 5, "s": ["a"]}}, "'out'"),
    ("group", _complete_graph_json(9), "limit 1000000"),
    ("group-twice", _complete_graph_json(3), "exactly one"),
    ("preset", "uniform-3--1", "uniform-<D>-<C>"),
    ("preset", "uniform-3", "uniform-<D>-<C>"),
    ("preset", "uniform-x-1", "uniform-<D>-<C>"),
] + _LOOSE_ADDRESSES + _REPEATED_REGIONS, ids=["string-degree", "list-root", "string-override-dir",
        "number-out-list", "k9-too-large", "group-file-and-missing-graph",
        "preset-negative-direction",
        "preset-missing-direction", "preset-nondecimal-degree"] + [
            f"{command}-loose-address-{i % 4}"
            for i, (command, _, _) in enumerate(_LOOSE_ADDRESSES)] + [
            f"{command}-repeated-region-{i % 2}"
            for i, (command, _, _) in enumerate(_REPEATED_REGIONS)])
def test_malformed_input_exits_2_with_one_error_line(capsys, tmp_path,
                                                     command, payload, needle):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = {
        "aggregate": ["aggregate", "--d", "3", "--chips", "5",
                      "--config", str(path)],
        "simulate": ["escape", "simulate", "--config", str(path), "--m", "3"],
        "group": ["group", str(path)],
        "group-twice": ["group", str(path),
                        "--graph", str(tmp_path / "missing.json")],
        "preset": ["escape", "simulate", "--preset", payload, "--m", "3"],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert needle in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["aggregate", "--d", "3", "--radius", "2", "--out"], "--out"),
    (["aggregate", "--d", "3", "--radius", "2", "--dot"], "--dot"),
    (["escape", "check", "101", "--out"], "--out"),
    (["group", "--wired", "3", "3", "--out"], "--out"),
], ids=["aggregate-out", "aggregate-dot", "escape-check-out", "group-out"])
def test_unwritable_output_path_exits_2_before_any_work(capsys, tmp_path,
                                                        argv, flag):
    for path in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {flag} {path}: ")
        assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_group_wired(capsys):
    code, out, _ = run_cli(capsys, "group", "--wired", "3", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["root_order"] == 7
    assert payload["rec_count"] == 21
    assert payload["relations_ok"] is True
    assert payload["ok"] is True


# sha256 of the stdout of `group --wired 3 N`
@pytest.mark.parametrize("n, sha", [
    (3, "46d727f44b7b8aead2ff21f05fff2f00507c2e10a4911a37c3b2e7bc235c1779"),
    (4, "9aa82c74e5328dd7448676ccd27873ca41d74ff3009ec67935b7c472cd3c4259"),
])
def test_group_wired_output_matches_pinned_digest(capsys, n, sha):
    code, out, _ = run_cli(capsys, "group", "--wired", "3", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_group_wired_past_enumeration_limit_exits_2(capsys):
    code, out, err = run_cli(capsys, "group", "--wired", "3", "5")
    assert code == 2
    assert out == ""
    assert err == ("error: graph too large to check exhaustively: "
                   "1594323+ configurations exceed limit 1000000\n")


def test_group_wired_is_refused_before_it_is_built(capsys):
    # wired(3, 40) has 2^39 - 1 rotor vertices
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "group", "--wired", "3", "40")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err == ("error: graph too large to check exhaustively: "
                   "1594323+ configurations exceed limit 1000000\n")


def test_group_is_refused_by_its_check_work(capsys, tmp_path):
    # wired(D, 2) has one rotor vertex of out-degree D: D configurations,
    # but D generators per state in the relation check
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "group", "--wired", "4000", "2")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err == ("error: graph too large to check exhaustively: "
                   "16000000 check steps exceed limit 10000000\n")
    g = build_graph(["a", "s"], "s", {"a": ["s"] * 4000, "s": ["a"]})
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(g))
    assert run_cli(capsys, "group", str(path)) == (2, "", err)
    code, out, _ = run_cli(capsys, "group", "--wired", "1000", "2")
    assert code == 0
    assert json.loads(out)["ok"] is True


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


# sha256 of the stdout of `escape check WORD` and `escape check WORD --tree`,
# with the exit codes: valid in both modes, failing at k = 2, at k = 3 (and
# in one residue), valid but with one failing residue, failing at k = 4
_CHECK_DIGESTS = [
    ("0110101",
     0, "39ccb7a2c82f77cc7dc196b88c243529ed5e968632fc2845a8ffda678fd5177f",
     0, "1884f0e4558c6e3391374588e0fb9183b3f6c9cd62eb3822475e319fb4c39b90"),
    ("10" * 20,
     0, "449ff7a4c15de67de718abe09d8ffbc484f63ba61f0b269ef836e8a074b9d694",
     0, "bed1893a1738aa4da2beb4fa23258950a0211eecacc5339498e6f950c463e9fe"),
    ("0111",
     3, "c582ed337669398acb203d4a87293ee546114367fc9653b79413b14b96a53b6f",
     0, "c0e836a48233b9b72ac0ae13fdfa7790ba8ae7ea6f011b30239056d7cab61866"),
    ("1101101",
     3, "8208cca410711115366d982d1822b57147558fef698759bea8c663e73318f39b",
     3, "12a21d2f434336e7198286adbdae9054af043b3e9b39f3bdd49f8eb158d516cc"),
    ("001001001",
     0, "a3d1db00816906f2bb7d78eb5961e1caf58b8c60b2791220efa65cbb14216c45",
     3, "85d770a15e963a9ffda61153cac3752bff9ade5f1eba129c51e667c4e4d90b05"),
    ("110101011010101",
     3, "f35246faeb59e5179a162ea80d8a30edd9cdf241a74caf882cbadf983c918032",
     0, "7d3ce37c310d764e55de3c009073678f32c62685742845c3dbffbd5fdaaf1c07"),
]


@pytest.mark.parametrize("word,branch_code,branch_sha,tree_code,tree_sha",
                         _CHECK_DIGESTS)
def test_escape_check_output_is_pinned(capsys, word, branch_code, branch_sha,
                                       tree_code, tree_sha):
    for argv, code, sha in [([], branch_code, branch_sha),
                            (["--tree"], tree_code, tree_sha)]:
        got, out, _ = run_cli(capsys, "escape", "check", word, *argv)
        assert got == code, (word, argv)
        assert hashlib.sha256(out.encode()).hexdigest() == sha, (word, argv)


# sha256 of the stdout of `escape synthesize WORD MODE`, taken when
# descriptors and level regions were dataclasses and typing built its
# columns as arrays
@pytest.mark.parametrize("word, mode, sha", [
    ("10110", "--branch",
     "e849c447ced06bd124214822919a22c78855efcf38340df0634a0078067df60f"),
    ("10110", "--tree",
     "a46f8216fadd5d167cefb75a61ec4177f96d027bcb286cb9584a4b73bca4816d"),
    ("110" + "0" * 30, "--branch",
     "49d3268b7651287ae4e9afbe9f27ea67ef4f56da48e8608d265d6dd50e1a7657"),
    ("110" + "0" * 30, "--tree",
     "66a474b15bf94b9245b9f7323535f455a313cfa1263b57d36c98e64fb7552b24"),
    (random_valid_word(random.Random(5), 400), "--branch",
     "407270b0c4457a55a2155e3413a6f86a5752f9d84e42b5aea9b4a781a1f77155"),
    (random_valid_word(random.Random(5), 400, 3), "--tree",
     "bef3a90b9ec05d1184c88cb364e9d25c5d652c061bb16a2db5d7dcb2c25efa01"),
], ids=["5-branch", "5-tree", "33-branch", "33-tree", "400-branch",
        "400-tree"])
def test_escape_synthesize_output_matches_pinned_digest(capsys, word, mode,
                                                        sha):
    code, out, _ = run_cli(capsys, "escape", "synthesize", word, mode)
    assert code == 0
    assert json.loads(out)["round_trip_ok"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == sha


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


def test_escape_synthesize_deep_descriptor(capsys):
    # psi peels one letter per level off 110 followed by zeros, so the
    # descriptor is about 1,200 levels deep: deeper than Python's default
    # recursion limit
    word = "110" + "0" * 1200
    code, out, _ = run_cli(capsys, "escape", "synthesize", word)
    assert code == 0
    payload = json.loads(out)
    assert payload["round_trip_ok"] is True
    config = payload["config"]
    assert len(config["overrides"]) + len(config["regions"]) == 4803
    # the printed config is the descriptor's text form: it reads back as
    # the expanded descriptor, and the descriptor's repr does not recurse
    desc = synthesize_branch(word)
    assert LazyTreeConfig.from_json(json.dumps(config)) \
        == descriptor_to_branch_config(desc)
    assert "ConfigDescriptor" in repr(desc)


@pytest.mark.parametrize("mode", ["--branch", "--tree"])
def test_escape_synthesize_refuses_words_past_the_length_limit(mode,
                                                               monkeypatch):
    def synthesize(*args, **kwargs):
        raise AssertionError("synthesized past the length limit")

    for name in ("synthesize_branch", "synthesize_tree", "run_chips_infinite"):
        monkeypatch.setattr(cli, name, synthesize)
    word = "110" + "0" * (MAX_SYNTHESIS_LETTERS - 2)
    code, err = _run_quietly(["escape", "synthesize", word, mode])
    assert code == 2
    assert err == (f"error: a word of {MAX_SYNTHESIS_LETTERS + 1} letters is "
                   f"above the synthesis limit {MAX_SYNTHESIS_LETTERS}\n")


def test_main_leaves_no_parser_for_the_cyclic_collector(capsys):
    # argparse objects form reference cycles: a parser built per call
    # would be freed only by a full collection
    main(["escape", "check", "101"])
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            assert main(["escape", "check", "101"]) == 0
        gc.collect()
        parsers = [obj for obj in gc.garbage
                   if isinstance(obj, argparse.ArgumentParser)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    assert parsers == []


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


@pytest.mark.parametrize("argv", [
    [], ["", "--wired", "3", "3"], ["--graph", "", "--wired", "3", "3"],
])
def test_group_takes_exactly_one_graph(capsys, argv):
    # no graph, or a graph path beside --wired: an empty path is a path
    code, out, err = run_cli(capsys, "group", *argv)
    assert (code, out) == (2, "")
    assert err == "error: need exactly one of a graph file or --wired D N\n"


def test_escape_missing_word_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["escape", "check"])
    assert exc.value.code == 2


@pytest.mark.parametrize("mode", ["--branch", "--tree"])
def test_escape_empty_word_is_a_word(capsys, mode):
    # the empty word is binary: it is valid and round-trips with no chips
    code, out, err = run_cli(capsys, "escape", "check", "", mode)
    assert (code, err) == (0, "")
    assert json.loads(out)["valid"] is True
    code, out, err = run_cli(capsys, "escape", "synthesize", "", mode)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["word"], payload["simulated"]) == ("", "")
    assert payload["round_trip_ok"] is True


def test_aggregate_with_good_config_file(capsys, tmp_path):
    from rotorlab.lazytree import alternating_tree_config
    cfg = tmp_path / "alternating.json"
    cfg.write_text(alternating_tree_config().to_json())
    code, out, _ = run_cli(capsys, "aggregate", "--d", "3", "--radius", "3",
                           "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["final_exact_ball"] is True


def test_aggregate_region_under_upward_override(capsys, tmp_path):
    # a region whose root points up and whose tail starts one level below
    # has no mutual pair, and its ball is exact
    cfg = tmp_path / "region.json"
    cfg.write_text(json.dumps({"d": 3, "default": 2,
                               "overrides": [{"addr": "1", "dir": 3}],
                               "regions": [{"addr": "1", "h": 1}]}))
    code, out, err = run_cli(capsys, "aggregate", "--d", "3", "--radius",
                             "6", "--config", str(cfg))
    assert (code, err) == (0, "")
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


# -- fuzzing: malformed payloads and bad numeric flags -----------------------

_VALID_PAYLOADS = {
    "config": {"d": 3, "default": 1, "mode": "tree",
               "overrides": [{"addr": "1", "dir": 2}],
               "rays": [{"start_addr": "3", "pattern": [2], "dir": 2}],
               "regions": [{"addr": "2", "h": 1}]},
    "graph": {"vertices": ["a", "b", "s"], "sink": "s",
              "out": {"a": ["b", "s"], "b": ["a", "s"], "s": ["a", "b"]}},
}
_KEYS = ["d", "default", "mode", "overrides", "rays", "regions", "addr",
         "dir", "start_addr", "pattern", "h", "vertices", "sink", "out",
         "a", "b", "s"]
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 6)
            | st.floats(-2, 4) | st.sampled_from(
                ["", "1", "2/1", "3", "x", "tree", "branch", "a", "s"]))
_JSON = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.sampled_from(_KEYS), kids,
                                    max_size=3)),
    max_leaves=8)


@st.composite
def _mutated(draw, kind):
    """A valid payload with one to three fields replaced or deleted."""
    payload = copy.deepcopy(_VALID_PAYLOADS[kind])
    for _ in range(draw(st.integers(1, 3))):
        node = payload
        while True:
            keys = list(node) if isinstance(node, dict) else list(
                range(len(node)))
            if not keys:
                break
            k = draw(st.sampled_from(keys))
            if isinstance(node[k], (dict, list)) and node[k] and draw(
                    st.integers(0, 3)):
                node = node[k]
                continue
            if isinstance(node, dict) and not draw(st.integers(0, 3)):
                del node[k]
            else:
                node[k] = draw(_JSON)
            break
    return payload


def _payload_argv(command, path):
    return {
        "aggregate": ["aggregate", "--d", "3", "--chips", "4",
                      "--config", path],
        "simulate": ["escape", "simulate", "--config", path, "--m", "4"],
        "group": ["group", path],
    }[command]


_PRESETS = ["alternating", "uniform-3-1", "uniform-4-0", "uniform-2-1",
            "uniform-3-9", "uniform-x-1", "uniform-3", "uniform-3-1-1",
            "uniform--3-1", "spiral"]
# requests past the chip limit, which must exit 2 before any walking
_OVER_LIMIT = [
    ["aggregate", "--d", "3", "--radius", "40"],
    ["aggregate", "--d", "3", "--radius", "21"],
    ["aggregate", "--d", "3", "--radius", "1000000000"],
    ["aggregate", "--d", "1000", "--radius", "5"],
    ["aggregate", "--d", "1000", "--radius", "2"],
    ["aggregate", "--d", "3", "--chips", str(MAX_CHIPS + 1)],
    ["escape", "simulate", "--preset", "alternating", "--m", "1000000000"],
    ["escape", "simulate", "--preset", "uniform-3-2", "--m",
     str(MAX_CHIPS + 1)],
]
_HUGE = st.integers(MAX_CHIPS + 1, 10 ** 12)
_FLAG_CASES = st.one_of(
    st.sampled_from(_OVER_LIMIT),
    st.builds(lambda d, c: ["aggregate", "--d", str(d), "--chips", str(c)],
              st.integers(3, 5), _HUGE),
    st.builds(lambda d, r: ["aggregate", "--d", str(d), "--radius", str(r)],
              st.integers(3, 5), st.integers(21, 10 ** 9)),
    st.builds(lambda d, r: ["aggregate", "--d", str(d), "--radius", str(r)],
              st.integers(1001, 10 ** 6), st.integers(2, 20)),
    st.builds(lambda p, m: ["escape", "simulate", "--preset", p,
                            "--m", str(m)],
              st.sampled_from(["alternating", "uniform-3-2", "uniform-4-1"]),
              _HUGE),
    st.builds(lambda d, c: ["aggregate", "--d", str(d), "--chips", str(c)],
              st.integers(-2, 4), st.integers(-3, 6)),
    st.builds(lambda d, r: ["aggregate", "--d", str(d), "--radius", str(r)],
              st.integers(-2, 4), st.integers(-3, 2)),
    st.builds(lambda c, r: ["aggregate", "--d", "3", "--chips", str(c),
                            "--radius", str(r)],
              st.integers(-1, 3), st.integers(-1, 2)),
    st.builds(lambda p, m: ["escape", "simulate", "--preset", p,
                            "--m", str(m)],
              st.sampled_from(_PRESETS), st.integers(-3, 6)),
    st.builds(lambda d, n: ["group", "--wired", str(d), str(n)],
              st.integers(-1, 4), st.integers(-1, 3)),
)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _assert_contract(argv):
    code, err = _run_quietly(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv,
                                                                   err)


@pytest.mark.parametrize("command", ["aggregate", "simulate", "group"])
@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzz_malformed_payloads_exit_cleanly(command, data):
    payload = data.draw(_JSON | _mutated(
        "graph" if command == "group" else "config"))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/input.json"
        with open(path, "w") as fh:
            json.dump(payload, fh)
        _assert_contract(_payload_argv(command, path))


@pytest.mark.parametrize("command", ["aggregate", "simulate", "group"])
def test_deeply_nested_payload_exits_cleanly(command, tmp_path):
    # the json module recurses once per level: 100,000 open brackets raise
    # RecursionError inside json.loads
    path = tmp_path / "input.json"
    path.write_text("[" * 100_000)
    _assert_contract(_payload_argv(command, str(path)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_FLAG_CASES)
def test_fuzz_bad_numeric_flags_exit_cleanly(argv):
    _assert_contract(argv)


# a word one letter past the chip limit: the argument is longer than one
# command-line argument may be on Linux, so these run in process only
_OVER_LIMIT_WORDS = [["escape", "synthesize", "0" * (MAX_CHIPS + 1), mode]
                     for mode in ("--branch", "--tree")]


@pytest.mark.parametrize("argv", _OVER_LIMIT + _OVER_LIMIT_WORDS)
def test_chip_limit_exits_2_before_walking(argv, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("walked past the chip limit")

    for name in ("aggregate", "run_chips_infinite", "synthesize_branch",
                 "synthesize_tree"):
        monkeypatch.setattr(cli, name, walk)
    code, err = _run_quietly(argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"chip limit {MAX_CHIPS}" in err


@pytest.mark.parametrize("error", [ResultCheckError, StepBudgetExceededError])
def test_engine_errors_in_simulate_are_not_bad_input(error, monkeypatch):
    def walk(*args, **kwargs):
        raise error("engine fault")

    monkeypatch.setattr(cli, "run_chips_infinite", walk)
    with pytest.raises(error):
        _run_quietly(["escape", "simulate", "--preset", "alternating",
                      "--m", "3"])
