import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from rotorlab import trees
from rotorlab.graph import (
    ResultCheckError,
    RotorConfiguration,
    build_graph,
    enumerate_recurrent,
    graph_to_json,
    is_recurrent,
    spanning_tree_count,
)
from rotorlab.group import order_of_generator, verify_isomorphism
from rotorlab.trees import (
    BadParametersError,
    NotAcyclicError,
    alternation_experiment,
    build_branch,
    build_hat_tree,
    build_plain_tree,
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


@pytest.mark.parametrize("d, n, z, message", [
    (2, 3, "o", "degree d must be at least 3"),
    (3, 1, "o", "height n must be at least 2"),
    (3, 3, "nope", "'nope' is not a leaf of the hat tree"),
    (3, 3, "r", "'r' is not a leaf of the hat tree"),
])
def test_harmonic_field_for_leaf_checks_its_parameters(d, n, z, message):
    with pytest.raises(BadParametersError) as exc:
        harmonic_field_for_leaf(d, n, z)
    assert str(exc.value) == message


def test_wired_tree_smallest():
    g, info = build_wired_tree(3, 2)
    assert set(g.vertices) == {"r", "s"}
    assert g.out["r"] == ("s", "s", "s")
    assert spanning_tree_count(g) == 3


def test_wired_tree_structure():
    g, info = build_wired_tree(3, 3)
    assert set(g.vertices) == {"r", "r/1", "r/2", "s"}
    # each neighbor of the sink except the root has a = 2 edges to it
    assert g.out["r/1"].count("s") == 2
    assert g.out["r/2"].count("s") == 2
    assert g.out["r"].count("s") == 1
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
    assert g3.out["r/1"].count("b") == 2


# sha256 over n = 2..6 of graph_to_json(g) followed by [info.internal,
# info.leaves] as JSON; vertex and out-list order fix the recurrent-state
# enumeration order and so the bytes of `rotorlab group`
BUILDER_DIGESTS = {
    ("plain", 3): "96ed790b426f6e78ead50930b1b689b3efd10057b4121ebdb86b3faeb862f317",
    ("plain", 4): "9206d5e09bcba744edb39b5bab6b8cb6e14492cf2fc7f8d0f689b04256e01537",
    ("plain", 5): "9167f460782e0922be3e12d187b58cb299cb592abdf10cbc86e8de0fba3cf02c",
    ("hat", 3): "456ed568cdcbcceaa1c5fedf108cac747942c3b6f0134016cee5cf77ffdd7fd1",
    ("hat", 4): "0c303f4e4085f6a754ff19dada4c65892cfbb74be8082ce4b4a0edba82d9ba2a",
    ("hat", 5): "73c0c984fc793c326cfea52ea83429b583393c093305fbb5cf115f6ae5b3167b",
    ("wired", 3): "dcb20e82b0643c0a59858d14251715c6c56f75a974b4d24922e973828c9a05a2",
    ("wired", 4): "328d03d3ce37912c14d21953ed44c970049d7ea6fbcc8b89df70433c4c15a58e",
    ("wired", 5): "f7ebce9bef43a44d64df1b22348838aebf482d2b8faad1c6b1831382a53e3dcb",
    ("branch", 3): "c9c38946f3fc1db6c447cd48009673f8f8801be5dbdb7b9427dcf5b50cd8988e",
    ("branch", 4): "a3b5a84365013c597d5a9bc1db816fa294a4180e76376da885b4613366ae2ecd",
    ("branch", 5): "b58737336d2778f4d86ef98bc754b88fba88bb83d360a187a86510efedbf62a8",
}


def test_builders_golden():
    builders = {"plain": build_plain_tree, "hat": build_hat_tree,
                "wired": build_wired_tree, "branch": build_branch}
    for (variant, d), digest in BUILDER_DIGESTS.items():
        h = hashlib.sha256()
        for n in range(2, 7):
            g, info = builders[variant](d, n)
            h.update(graph_to_json(g).encode())
            h.update(json.dumps([info.internal, info.leaves]).encode())
        assert h.hexdigest() == digest, (variant, d)


def named_tree_oracle(d, n, variant):
    """The builders' graphs from BFS names through build_graph: the children
    of v are v/1 ... v/(d-1), then comes the parent edge (the root's goes to
    o, or to s on the wired tree); the wired tree merges the depth n-1
    vertices into s and the branch into b, which has one edge back along
    every edge into it, in vertex order of the tails."""
    up = {"plain": None, "hat": "o", "wired": "s", "branch": "o"}[variant]
    merge = {"wired": "s", "branch": "b"}.get(variant)
    levels = [["r"]]
    for _ in range(n - 1):
        levels.append([f"{v}/{i}" for v in levels[-1] for i in range(1, d)])
    out = {up: ["r"]} if up and up != merge else {}
    for depth, level in enumerate(levels[:-1 if merge else None]):
        for v in level:
            kids = [] if depth == n - 1 else [
                merge if merge and depth == n - 2 else f"{v}/{i}"
                for i in range(1, d)]
            parent = v.rpartition("/")[0] or up
            out[v] = kids + ([parent] if parent else [])
    if merge:
        out[merge] = [v for v in out for w in out[v] if w == merge]
    return build_graph([*out], up or "r", out)


@pytest.mark.parametrize("variant", ["plain", "hat", "wired", "branch"])
def test_builders_match_named_oracle(variant):
    # the builders write index lists by position; the oracle maps names
    build = {"plain": build_plain_tree, "hat": build_hat_tree,
             "wired": build_wired_tree, "branch": build_branch}[variant]
    for d in range(3, 6):
        for n in range(2, 8):
            g, _ = build(d, n)
            want = named_tree_oracle(d, n, variant)
            assert (g.vertices, g.sink) == (want.vertices, want.sink)
            assert g.out_idx == want.out_idx and g.out == want.out
            assert graph_to_json(g) == graph_to_json(want)


def test_branch_build_memory():
    # the graph and TreeInfo of Y_14 (8,193 vertices) hold under 2.25 MiB:
    # the graph keeps index lists only, whose entries are shared int
    # objects, the tree layout is BFS positions, and the 8,192 merged
    # leaves get names only when info.leaves is read
    tracemalloc.start()
    try:
        g, info = build_branch(3, 14)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.vertices) == 2 ** 13 + 1
    assert held < 2.25 * 2 ** 20, held
    assert "leaves" not in vars(info)
    assert [info.leaves[i] for i in (0, 4096, -1)] == [
        "r" + "/1" * 13, "r/2" + "/1" * 12, "r" + "/2" * 13]


def test_branch_build_peak_memory():
    # building Y_16 (32,769 vertices) peaks under 9 MiB: the builder
    # writes index lists straight from the layout, with no named out-lists,
    # and builds the graph with no check, so no search arrays
    tracemalloc.start()
    try:
        g, _ = build_branch(3, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(g.vertices) == 2 ** 15 + 1
    assert peak < 9 * 2 ** 20, peak


def test_branch_route_memory():
    # 2^14 - 1 chips alternate on Y_14 with a peak under 0.75 MiB: emitters
    # are flags per vertex, and no step is recorded
    g, info = build_branch(3, 14)
    t0 = uniform_direction_config(g, info, 1)
    tracemalloc.start()
    try:
        counts, t1, trace = route_all(g, t0, {"r": 2 ** 14 - 1}, {"o", "b"})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == {"o": 2 ** 13 - 1, "b": 2 ** 13} and t1 == t0
    assert len(trace.emitters()) == 2 ** 13 - 1
    assert peak < 0.75 * 2 ** 20, peak


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
    downward pass in BFS order.  Children and parents come from the names,
    not from vertex positions."""
    alpha = {}
    beta = {}
    for v in reversed(info.internal):
        children = [f"{v}/{i}" for i in range(1, info.d)]
        num = Fraction(0)
        den = Fraction(len(children) + 1)
        for c in children:
            if c in alpha:
                num += alpha[c]
                den -= beta[c]
            else:
                num += boundary[c]
        alpha[v] = num / den
        beta[v] = Fraction(1) / den
    H = dict(boundary)
    for v in info.internal:
        H[v] = alpha[v] + beta[v] * H[v.rsplit("/", 1)[0] if "/" in v else "o"]
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
    counts, t1, trace = route_all(g, t0, {"r": m}, set(info.leaves))
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
            assert set(H) == set(info.internal + info.leaves)
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


def test_seeded_acyclic_draws_golden():
    # criterion 2 and the benchmark's exit-measure ops run on these draws
    h = hashlib.sha256()
    for build in (build_hat_tree, build_wired_tree, build_branch):
        for d in (3, 4, 5):
            for n in range(2, 6):
                g, info = build(d, n)
                rng = random.Random(n)
                for _ in range(5):
                    h.update(bytes(random_acyclic_tree_config(g, info, rng).slots))
    assert h.hexdigest() == \
        "fab6e2d77039c850d7688359e217cf999f38800a3a2b555f8723c245bc1bd157"


def acyclic_by_names(g, info, t):
    """No internal vertex and its parent, found by name, point at each
    other; the plain tree's root is its sink and points nowhere."""
    return not any(t.target(g, v) == p and t.target(g, p) == v
                   for v in info.internal[1:]
                   for p in [v.rsplit("/", 1)[0]] if p != g.sink)


@pytest.mark.parametrize("build", [build_plain_tree, build_hat_tree,
                                   build_wired_tree, build_branch])
def test_acyclic_tree_config_matches_names(build):
    rng = random.Random(11)
    for d, n in [(3, 2), (3, 3), (3, 5), (4, 4), (5, 3)]:
        g, info = build(d, n)
        for _ in range(40):
            t = RotorConfiguration(tuple(rng.randrange(g.outdeg(v))
                                         for v in g.rotor_vertices))
            assert is_acyclic_tree_config(g, info, t) == \
                acyclic_by_names(g, info, t), (d, n, t)


@pytest.mark.parametrize("d", [3, 4])
def test_plain_tree_configs(d):
    # the root of the plain tree is its sink and has no rotor: a child
    # pointing up at it closes no cycle
    rng = random.Random(d)
    drawn_up = 0
    for n in range(2, 6):
        g, info = build_plain_tree(d, n)
        for _ in range(20):
            t = random_acyclic_tree_config(g, info, rng)
            assert is_acyclic_tree_config(g, info, t)
            drawn_up += n > 2 and t.target(g, "r/1") == "r"
        up = uniform_direction_config(g, info, d)
        assert up.target(g, "r/1") == "r"
        assert is_acyclic_tree_config(g, info, up)
        if n >= 4:  # r/1 and its first child point at each other
            cyc = up.with_slot(g, "r/1", 0)
            assert not is_acyclic_tree_config(g, info, cyc)
    assert drawn_up     # the sampler does not exclude it


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
