import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from rotorlab import trees
from rotorlab.graph import (
    ResultCheckError,
    enumerate_recurrent,
    graph_to_json,
    is_recurrent,
    spanning_tree_count,
)
from rotorlab.group import order_of_generator, verify_isomorphism
from rotorlab.trees import (
    BadParametersError,
    NotAcyclicError,
    TreeSpec,
    alternation_experiment,
    build_branch,
    build_hat_tree,
    build_plain_tree,
    build_tree,
    build_wired_tree,
    exit_measure_experiment,
    expected_returns,
    harmonic_field_for_leaf,
    hitting_probabilities,
    is_acyclic_tree_config,
    random_acyclic_tree_config,
    recurrence_experiment,
    uniform_direction_config,
)
from rotorlab.walk import (
    check_harmonic_invariant,
    is_harmonic_at,
    route_all,
    route_to_sink,
)


def test_bad_parameters():
    with pytest.raises(BadParametersError):
        build_wired_tree(2, 3)
    with pytest.raises(BadParametersError):
        build_wired_tree(3, 1)


def test_wired_tree_smallest():
    g, info = build_wired_tree(3, 2)
    assert set(g.vertices) == {"r", "s"}
    assert g.out["r"] == ("s", "s", "s")
    assert spanning_tree_count(g) == 3


def test_wired_tree_structure():
    g, info = build_wired_tree(3, 3)
    assert set(g.vertices) == {"r", "r/1", "r/2", "s"}
    # each neighbor of the sink except the root has a = 2 edges to it
    assert g.edge_count("r/1", "s") == 2
    assert g.edge_count("r/2", "s") == 2
    assert g.edge_count("r", "s") == 1
    assert spanning_tree_count(g) == 21


def test_wired_tree_enumeration_matches_determinant():
    for d, n in [(3, 2), (3, 3), (4, 2)]:
        g, _ = build_wired_tree(d, n)
        assert len(enumerate_recurrent(g)) == spanning_tree_count(g)


def test_acyclic_equals_recurrent_on_wired_trees():
    for d, n in [(3, 2), (3, 3), (4, 2)]:
        g, info = build_wired_tree(d, n)
        from itertools import product
        for slots in product(*(range(g.outdeg(v)) for v in g.rotor_vertices)):
            from rotorlab.graph import RotorConfiguration
            t = RotorConfiguration(slots)
            assert is_recurrent(g, t) == is_acyclic_tree_config(g, info, t)


def test_root_order_small():
    # order of e_r on the wired tree is (a^n - 1)/(a - 1)
    for d, n in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]:
        a = d - 1
        g, _ = build_wired_tree(d, n)
        assert order_of_generator(g, "r", verify_witnesses=1) == \
            (a ** n - 1) // (a - 1)


def test_root_order_by_repeated_routing():
    g, info = build_wired_tree(4, 2)
    rng = random.Random(4)
    t0 = random_acyclic_tree_config(g, info, rng)
    assert is_recurrent(g, t0)
    t = t0
    hits = []
    for k in range(1, 13):
        t, _ = route_to_sink(g, t, "r")
        if t == t0:
            hits.append(k)
    assert hits == [4, 8, 12]    # (3^2-1)/(3-1) = 4


def test_wired_tree_isomorphism_report():
    g, _ = build_wired_tree(3, 2)
    assert verify_isomorphism(g).ok


def test_hat_tree_structure():
    g, info = build_hat_tree(3, 2)
    assert set(g.vertices) == {"o", "r", "r/1", "r/2"}
    assert set(info.leaves) == {"o", "r/1", "r/2"}
    assert g.out["r"] == ("r/1", "r/2", "o")
    g3, info3 = build_hat_tree(3, 3)
    assert len(info3.leaves) == 1 + 4


def test_branch_structure():
    g, info = build_branch(3, 2)
    # smallest branch: o, r, b with two parallel r-b edges
    assert set(g.vertices) == {"o", "r", "b"}
    assert g.out["r"] == ("b", "b", "o")
    g3, info3 = build_branch(3, 3)
    assert set(g3.vertices) == {"o", "r", "r/1", "r/2", "b"}
    assert g3.edge_count("r/1", "b") == 2


def test_build_tree_dispatch():
    g, info = build_tree(TreeSpec(3, 2, "wired"))
    assert info.variant == "wired"
    with pytest.raises(BadParametersError):
        build_tree(TreeSpec(3, 2, "bogus"))


# sha256 over n = 2..6 of graph_to_json(g) followed by the TreeInfo fields
# as JSON; vertex and out-list order fix the recurrent-state enumeration
# order and so the bytes of `rotorlab group`
BUILDER_DIGESTS = {
    ("plain", 3): "b505e997c544af6531418ef3a2b9999ca849b638412ebfef254f179666cc143f",
    ("plain", 4): "763707d223992aad9d4848debb72698af6a33f2fa743cf475a690f04fd62a483",
    ("plain", 5): "1d937fa3bd0db4df2add42ebc5a73776b21814f897dfea828e35465f85c195ad",
    ("hat", 3): "4ecc30afb5182e6159c97cd294484a6d558a8a5f220d3ac5f66d18b788523c0e",
    ("hat", 4): "1f5b41cf2cd77ce37347a021adfe0d612706f390ce1a9bc23d8903122f42be78",
    ("hat", 5): "6c89c927df7b8a9b9b2dd8ecd5d4a7e291c9308520cff7da5d2f5a2061cc7c48",
    ("wired", 3): "6b60428dd2115b66aac5961bac4b045cdc66282a70ce080fb8ada39858533598",
    ("wired", 4): "ba1c42efdf0f2fbf7b768accc1124eb9ab4792e248d4a7800a53f051e706646d",
    ("wired", 5): "a9dfdb6c4271f535e64170d58c6e1ba000cfb989d5175a35ccf447f7148e6191",
    ("branch", 3): "3026def00c66340eeafc89fd6fe9d5efe50a759bf0a89faadc67879dcbae1f9c",
    ("branch", 4): "9a9f8188319773bb8d8c93d416448e6011eec886cc5723dd95a581e3a47dbf55",
    ("branch", 5): "5eb44dbacb9747631a1fee1597c85b358e3c7f81ee8417ebb8293a30b237379f",
}


def test_builders_golden():
    builders = {"plain": build_plain_tree, "hat": build_hat_tree,
                "wired": build_wired_tree, "branch": build_branch}
    for (variant, d), digest in BUILDER_DIGESTS.items():
        h = hashlib.sha256()
        for n in range(2, 7):
            g, info = builders[variant](d, n)
            h.update(graph_to_json(g).encode())
            h.update(json.dumps(dataclasses.asdict(info)).encode())
        assert h.hexdigest() == digest, (variant, d)


def test_hitting_probabilities_closed_forms():
    probs, h_r = hitting_probabilities(3, 2)
    assert probs["o"] == Fraction(1, 3)
    assert h_r == Fraction(1, 3)
    probs, h_r = hitting_probabilities(3, 3)
    assert probs["o"] == Fraction(3, 7)
    assert h_r == Fraction(1, 7)
    # total mass is 1
    assert sum(probs.values()) == 1


def test_hitting_probabilities_grid():
    for d in (3, 4, 5):
        a = d - 1
        for n in (2, 3, 4):
            probs, h_r = hitting_probabilities(d, n)
            assert probs["o"] == Fraction(a ** (n - 1) - 1, a ** n - 1)
            assert h_r == Fraction(a - 1, a ** n - 1)


def solve_harmonic_oracle(info, boundary):
    """Per-vertex elimination: deepest internal vertices first, H(v) =
    alpha_v + beta_v * H(parent) with the root's parent the leaf o, then a
    downward pass in BFS order."""
    alpha = {}
    beta = {}
    for v in reversed(info.internal):
        num = Fraction(0)
        den = Fraction(len(info.children[v]) + 1)
        for c in info.children[v]:
            if c in alpha:
                num += alpha[c]
                den -= beta[c]
            else:
                num += boundary[c]
        alpha[v] = num / den
        beta[v] = Fraction(1) / den
    H = dict(boundary)
    for v in info.internal:
        H[v] = alpha[v] + beta[v] * H[info.parent.get(v, "o")]
    return H


@pytest.mark.parametrize("d", [3, 4, 5])
def test_solve_harmonic_matches_per_vertex_oracle(d):
    # values and dict order, on indicator boundaries and on random rational
    # ones drawn from pools of 2, 3 and 50 values, so that subtrees of equal
    # boundary data are common, rare and absent
    rng = random.Random(d)
    for n in range(2, 7):
        info = trees._tree_skeleton(d, n)
        names = ["o", *info.leaves]
        boundaries = [{v: Fraction(v == z) for v in names}
                      for z in ("o", info.leaves[0], info.leaves[-1])]
        for size in (2, 3, 50):
            pool = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(size)]
            boundaries.append({v: rng.choice(pool) for v in names})
        for bnd in boundaries:
            want = solve_harmonic_oracle(info, bnd)
            assert list(trees._solve_harmonic(info, bnd).items()) == \
                list(want.items()), (d, n)
        for z in ("o", info.leaves[0], info.leaves[-1]):
            want = solve_harmonic_oracle(info, trees._indicator_boundary(info, z))
            assert list(harmonic_field_for_leaf(d, n, z).items()) == \
                list(want.items()), (d, n, z)


def test_exit_measure_smallest():
    res = exit_measure_experiment(3, 2, rng=random.Random(0))
    assert res.chips == 3
    assert res.o_count == 1
    assert res.ok


def test_exit_measure_n3():
    res = exit_measure_experiment(3, 3, rng=random.Random(1))
    assert res.chips == 7
    assert res.o_count == 3
    assert res.ok


def test_exit_measure_random_configs():
    rng = random.Random(2)
    for d in (3, 4):
        for n in (2, 3, 4):
            for _ in range(5):
                res = exit_measure_experiment(d, n, rng=rng)
                assert res.ok, (d, n)


def test_exit_measure_rejects_cyclic():
    g, info = build_hat_tree(3, 3)
    from rotorlab.graph import RotorConfiguration
    # r points at r/1 (slot 0) and r/1 points at parent (slot 2)
    t = RotorConfiguration.from_dict(
        g, {v: (0 if v != "r/1" else 2) for v in g.rotor_vertices})
    with pytest.raises(NotAcyclicError):
        exit_measure_experiment(3, 3, t0=t)


def test_exit_measure_satisfies_harmonic_invariant():
    d, n = 3, 3
    g, info = build_hat_tree(d, n)
    rng = random.Random(5)
    t0 = random_acyclic_tree_config(g, info, rng)
    m = ((d - 1) ** n - 1) // (d - 2)
    counts, t1, trace = route_all(g, t0, {"r": m}, set(info.leaves),
                                  record_trace=True)
    z = [v for v in info.leaves if v != "o"][0]
    H = harmonic_field_for_leaf(d, n, z)
    assert check_harmonic_invariant(g, H, {"r": m}, counts, trace)
    # the invariant value is exactly the count at z
    assert counts[z] == m * H["r"]


@pytest.mark.parametrize("d", [3, 4, 5])
def test_harmonic_field_is_harmonic_inside_with_leaf_boundary(d):
    # harmonic at every internal vertex and 1 at z, 0 at the other leaves:
    # that fixes the exact solution of the Dirichlet problem
    for n in range(2, 7):
        g, info = build_hat_tree(d, n)
        for z in {info.leaves[1], info.leaves[-1]}:
            H = harmonic_field_for_leaf(d, n, z)
            assert set(H) == set(info.depth) | {"o"}
            for v in info.leaves:
                assert H[v] == (v == z)
            for v in info.internal:
                assert is_harmonic_at(g, H, v), (d, n, z, v)


def test_alternation_base_case():
    res = alternation_experiment(2)
    assert res.stops == ["b", "o", "b"]
    assert res.ok


def test_alternation_medium():
    res = alternation_experiment(6)
    assert res.chips == 63
    assert res.ok


def test_recurrence_experiment():
    for d, n in [(3, 2), (3, 5), (4, 4), (5, 3)]:
        res = recurrence_experiment(d, n)
        assert res.ok, (d, n)


def test_expected_returns():
    assert expected_returns(3, 10) == 5
    assert expected_returns(4, 9) == 3
    assert expected_returns(3, 7) == Fraction(7, 2)


def test_random_acyclic_config_validity():
    rng = random.Random(9)
    g, info = build_hat_tree(4, 3)
    for _ in range(30):
        t = random_acyclic_tree_config(g, info, rng)
        assert is_acyclic_tree_config(g, info, t)


def test_uniform_direction_config_directions():
    g, info = build_branch(3, 3)
    t = uniform_direction_config(g, info, 2)
    assert t.target(g, "r") == "r/2"
    t3 = uniform_direction_config(g, info, 3)
    assert t3.target(g, "r") == "o"
    assert t3.target(g, "r/1") == "r"


@pytest.mark.parametrize("build", [build_plain_tree, build_hat_tree,
                                   build_wired_tree, build_branch])
def test_uniform_direction_config_per_vertex(build):
    for d, n in [(3, 2), (3, 4), (4, 3)]:
        g, info = build(d, n)
        internal = set(info.internal)
        for direction in range(1, d + 1):
            t = uniform_direction_config(g, info, direction)
            assert t.slots == tuple(direction - 1 if v in internal else 0
                                    for v in g.rotor_vertices)
        # the plain tree's root is its sink and carries no rotor
        bad = [v for v in info.internal if v != g.sink][:1]
        for direction in (0, d + 1):
            if not bad:
                uniform_direction_config(g, info, direction)
                continue
            with pytest.raises(BadParametersError) as exc:
                uniform_direction_config(g, info, direction)
            assert str(exc.value) == \
                f"direction {direction} out of range at {bad[0]!r}"


def test_branch_root_rotor_cycle_step_by_step():
    # smallest branch: three successive chips leave via directions 2, 3, 1
    from rotorlab.walk import step
    g, info = build_branch(3, 2)
    t = uniform_direction_config(g, info, 1)
    t, tgt1 = step(g, t, "r")
    assert tgt1 == "b" and t.slot(g, "r") == 1     # direction 2
    t, tgt2 = step(g, t, "r")
    assert tgt2 == "o" and t.slot(g, "r") == 2     # direction 3, up
    t, tgt3 = step(g, t, "r")
    assert tgt3 == "b" and t.slot(g, "r") == 0     # direction 1 again


@pytest.mark.parametrize("bad_call", [0, 1, 2])
def test_hitting_probability_guards_raise_result_check(monkeypatch, bad_call):
    # calls 0 and 1 feed the closed-form check, call 2 the symmetry check
    solve = trees._solve_harmonic
    calls = []

    def skewed(info, boundary):
        H = solve(info, boundary)
        if len(calls) == bad_call:
            H = dict(H, r=H["r"] + 1)
        calls.append(boundary)
        return H

    monkeypatch.setattr(trees, "_solve_harmonic", skewed)
    with pytest.raises(ResultCheckError):
        hitting_probabilities(3, 3)
