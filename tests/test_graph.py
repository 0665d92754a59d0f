import json
import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from rotorlab.graph import (
    ConfigError,
    DirectedMultigraph,
    EmptyOutListError,
    GraphError,
    LoopEdgeError,
    NotStronglyConnectedError,
    RotorConfiguration,
    StateClass,
    TooLargeError,
    _strongly_connected,
    build_graph,
    classify,
    enumerate_recurrent,
    graph_from_json,
    graph_to_json,
    integer_determinant,
    is_recurrent,
    rank_and_minor,
    shortest_path_config,
    spanning_tree_count,
)
from rotorlab.sampling import random_multigraph
from rotorlab.trees import build_branch, build_hat_tree, build_wired_tree
from rotorlab.walk import ChipAtSinkError, step


def two_cycle():
    return build_graph(["r", "s"], "s", {"r": ["s"], "s": ["r"]})


def path_ors():
    # bidirected path o - r - s
    return build_graph(
        ["o", "r", "s"], "s",
        {"o": ["r"], "r": ["o", "s"], "s": ["r"]},
    )


def triangle():
    return build_graph(
        ["a", "b", "s"], "s",
        {"a": ["b", "s"], "b": ["a", "s"], "s": ["a", "b"]},
    )


def test_build_two_cycle():
    g = two_cycle()
    assert g.outdeg("r") == 1
    assert g.out["r"] == ("s",)


def test_random_multigraph_needs_two_vertices():
    for n in (0, 1):
        with pytest.raises(GraphError, match="^need at least 2 vertices$"):
            random_multigraph(random.Random(0), n)


def test_loop_edge_rejected():
    with pytest.raises(LoopEdgeError):
        build_graph(["r", "s"], "s", {"r": ["r"], "s": ["r"]})


def test_empty_out_list_rejected():
    with pytest.raises(EmptyOutListError):
        build_graph(["r", "s"], "s", {"r": [], "s": ["r"]})


def test_not_strongly_connected_rejected():
    with pytest.raises(NotStronglyConnectedError):
        build_graph(["a", "b", "s"], "s",
                    {"a": ["b"], "b": ["a"], "s": ["a"]})


def strongly_connected_oracle(out_idx):
    """From every vertex, a search along the out-edges reaches every
    vertex: the definition, with one search per vertex and no in-edge
    lists."""
    n = len(out_idx)

    def reached(start):
        seen, stack = {start}, [start]
        while stack:
            for w in out_idx[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen)

    return all(reached(v) == n for v in range(n))


def test_strongly_connected_matches_every_source_oracle():
    rng = random.Random(53)
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.randrange(1, 9)
        out_idx = [tuple(j for j in rng.sample(range(n), rng.randrange(n))
                         if j != i) for i in range(n)]
        g = DirectedMultigraph(tuple(f"v{i}" for i in range(n)), f"v{n - 1}",
                               out_idx)
        want = strongly_connected_oracle(out_idx)
        assert _strongly_connected(g) == want, out_idx
        verdicts[want] += 1
    assert min(verdicts.values()) > 300, verdicts


# (vertices, sink, out, error type, message); the cases are ordered so that
# each input also carries the errors that the checks after its own would
# report, which pins the order of the checks
BUILD_ERRORS = [
    (["a", "a"], "s", {"a": ["a"]}, GraphError, "duplicate vertex names"),
    (["a", "b"], "s", {"a": ["x"], "z": []}, GraphError,
     "sink 's' is not a vertex"),
    (["a", "s"], "s", {"a": ["x", "a"], "s": ["s"]}, GraphError,
     "edge 'a'->'x' targets unknown vertex"),
    (["a", "s"], "s", {"a": ["s", "a", "x"], "s": ["y"]}, LoopEdgeError,
     "loop edge at 'a'"),
    (["a", "s"], "s", {"a": ["s"], "s": ["s"]}, LoopEdgeError,
     "loop edge at 's'"),
    (["a", "b", "s"], "s", {"a": ["s"], "b": [], "s": ["x"]}, EmptyOutListError,
     "non-sink vertex 'b' has no out-edges"),
    (["a", "b", "s"], "s", {"a": ["s"], "b": ["a"], "s": ["x"]}, GraphError,
     "edge 's'->'x' targets unknown vertex"),
    (["a", "b", "s"], "s", {"a": [], "b": ["b"], "z": ["a"]},
     EmptyOutListError, "non-sink vertex 'a' has no out-edges"),
    (["a", "b", "s"], "s", {"a": ["s"], "b": ["a"], "z": ["a"], "y": []},
     GraphError, "out-lists for unknown vertices: ['y', 'z']"),
    (["a", "b", "s"], "s", {"a": ["b"], "b": ["a"], "s": ["a"]},
     NotStronglyConnectedError, "graph is not strongly connected"),
    (["a", "s"], "s", {"a": ["s"]}, NotStronglyConnectedError,
     "graph is not strongly connected"),
]


@pytest.mark.parametrize("vertices, sink, out, error, message", BUILD_ERRORS)
def test_build_graph_error_messages_and_precedence(vertices, sink, out, error,
                                                   message):
    with pytest.raises(GraphError) as info:
        build_graph(vertices, sink, out)
    assert type(info.value) is error
    assert str(info.value) == message


def test_direct_construction_matches_build_graph():
    # the fields DirectedMultigraph derives from index lists equal the ones
    # build_graph gives it, with the sink first, in the middle and last
    out = {"a": ("b", "s", "b"), "b": ("a", "s"), "s": ("a", "b", "b")}
    for vertices in (("s", "a", "b"), ("a", "s", "b"), ("a", "b", "s")):
        built = build_graph(vertices, "s", out)
        out_idx = [tuple(map(vertices.index, out[v])) for v in vertices]
        direct = DirectedMultigraph(vertices, "s", out_idx)
        for name in DirectedMultigraph.__slots__:
            assert getattr(direct, name) == getattr(built, name), name
        assert direct.out == built.out == out


def test_derived_out_lists_equal_the_input():
    # build_graph keeps index lists only; the named out-lists read back from
    # them are the input's, with parallel edges, wherever the sink sits
    rng = random.Random(29)
    seen = {"first": 0, "middle": 0, "last": 0, "parallel edges": 0}
    for _ in range(200):
        n = rng.randrange(2, 8)
        names = [f"v{i}" for i in range(n)]
        out = {v: [names[(i + 1) % n]] + rng.choices(
                   names[:i] + names[i + 1:], k=rng.randrange(4))
               for i, v in enumerate(names)}
        for lst in out.values():
            rng.shuffle(lst)
        sink = rng.choice(names)
        rng.shuffle(names)
        g = build_graph(names, sink, out)
        pos = names.index(sink)
        seen["first" if pos == 0 else "last" if pos == n - 1
             else "middle"] += 1
        seen["parallel edges"] += any(len(set(lst)) < len(lst)
                                      for lst in out.values())
        assert not hasattr(g, "__dict__")
        assert list(g.out) == names
        for v in names:
            assert g.out[v] == tuple(out[v])
            assert g.outdeg(v) == len(out[v])
    assert min(seen.values()) >= 30, seen


def sink_in_middle():
    # no tree builder puts the sink between other vertices
    return build_graph(
        ["a", "b", "s", "c", "e"], "s",
        {"a": ["b", "s", "c"], "b": ["a", "s"], "s": ["a", "c", "e"],
         "c": ["e", "b", "s", "a"], "e": ["c"]},
    )


@pytest.mark.parametrize("make", [
    lambda: build_hat_tree(3, 4)[0],       # sink first
    lambda: build_branch(4, 3)[0],         # sink first
    lambda: build_wired_tree(3, 4)[0],     # sink last
    sink_in_middle,
])
def test_slot_conversions_match_the_index_mapping(make):
    g = make()
    assert g.rotor_vertices == tuple(v for v in g.vertices if v != g.sink)
    rng = random.Random(len(g.vertices))
    for _ in range(20):
        t = RotorConfiguration(tuple(rng.randrange(g.outdeg(v))
                                     for v in g.rotor_vertices))
        full = g.slots_to_full(t)
        assert len(full) == len(g.vertices)
        assert full[g.index[g.sink]] == 0
        assert all(full[g.index[v]] == t.slot(g, v) for v in g.rotor_vertices)
        # slot lookups by name against the position in rotor_vertices
        for pos, v in enumerate(g.rotor_vertices):
            s = (t.slots[pos] + 1) % g.outdeg(v)
            turned = t.slots[:pos] + (s,) + t.slots[pos + 1:]
            assert t.target(g, v) == g.out[v][t.slots[pos]]
            assert t.with_slot(g, v, s).slots == turned
            assert step(g, t, v) == (RotorConfiguration(turned), g.out[v][s])
        for lookup in (t.slot, t.target, lambda g, x: t.with_slot(g, x, 0)):
            with pytest.raises(KeyError):
                lookup(g, g.sink)
        with pytest.raises(ChipAtSinkError):
            step(g, t, g.sink)
        assert g.full_to_slots(full) == t
        full[g.index[g.sink]] = 7       # the sink entry is ignored
        assert g.full_to_slots(full) == t
        other = [rng.randrange(5) for _ in g.vertices]
        assert g.full_to_slots(other).slots == tuple(
            other[g.index[v]] for v in g.rotor_vertices)


def test_validate_names_the_first_bad_rotor():
    g = sink_in_middle()        # rotor order a, b, c, e; degrees 3, 2, 4, 1
    with pytest.raises(ConfigError, match="does not match"):
        RotorConfiguration((0, 0, 0)).validate(g)
    for slots, message in [((0, 2, 0, 1), "rotor index 2 out of range at 'b'"),
                           ((0, 1, 4, 0), "rotor index 4 out of range at 'c'"),
                           ((0, 1, 3, -1), "rotor index -1 out of range at 'e'"),
                           ((3, 5, 0, 0), "rotor index 3 out of range at 'a'")]:
        with pytest.raises(ConfigError) as info:
            RotorConfiguration(slots).validate(g)
        assert str(info.value) == message
    RotorConfiguration((2, 1, 3, 0)).validate(g)
    assert RotorConfiguration.uniform(g) == RotorConfiguration((0, 0, 0, 0))
    with pytest.raises(ConfigError) as info:
        RotorConfiguration.uniform(g, 1)
    assert str(info.value) == "rotor index 1 out of range at 'e'"


def test_is_recurrent_two_cycle():
    g = two_cycle()
    t = RotorConfiguration.uniform(g, 0)
    assert is_recurrent(g, t)


def test_is_recurrent_detects_two_cycle():
    g = path_ors()
    # T(o) = r, T(r) = o is an oriented 2-cycle
    t = RotorConfiguration.from_dict(g, {"o": 0, "r": 0})
    assert not is_recurrent(g, t)
    # T(r) = s breaks it
    t2 = RotorConfiguration.from_dict(g, {"o": 0, "r": 1})
    assert is_recurrent(g, t2)


def test_classify_recurrent_and_cyc():
    g = path_ors()
    t = RotorConfiguration.from_dict(g, {"o": 0, "r": 1})
    assert classify(g, t, "o") == StateClass.recurrent()
    tc = RotorConfiguration.from_dict(g, {"o": 0, "r": 0})
    assert classify(g, tc, "r") == StateClass.cyc_at("r")
    assert classify(g, tc, "o") == StateClass.cyc_at("o")


def test_classify_neither_two_disjoint_cycles():
    # a<->b and c<->d are disjoint rotor 2-cycles; chip on one leaves the other
    g = build_graph(
        ["a", "b", "c", "d", "s"], "s",
        {"a": ["b"], "b": ["a", "s"], "c": ["d"], "d": ["c", "s"],
         "s": ["b", "d"]},
    )
    t = RotorConfiguration.from_dict(g, {"a": 0, "b": 0, "c": 0, "d": 0})
    assert classify(g, t, "a") == StateClass.neither()


def test_classify_recurrent_implies_is_recurrent():
    rng = random.Random(7)
    for _ in range(20):
        g = random_multigraph(rng, rng.randrange(3, 6))
        slots = tuple(rng.randrange(g.outdeg(v)) for v in g.rotor_vertices)
        t = RotorConfiguration(slots)
        chip = rng.choice(g.vertices)
        c = classify(g, t, chip)
        if c.is_recurrent:
            assert is_recurrent(g, t)


def test_enumerate_recurrent_two_cycle():
    g = two_cycle()
    recs = enumerate_recurrent(g)
    assert len(recs) == 1


def test_enumerate_matches_matrix_tree():
    rng = random.Random(11)
    for _ in range(15):
        g = random_multigraph(rng, rng.randrange(2, 6))
        recs = enumerate_recurrent(g)
        assert len(recs) == spanning_tree_count(g)
        # no duplicates, all recurrent
        assert len({t.slots for t in recs}) == len(recs)
        assert all(is_recurrent(g, t) for t in recs)


def enumerate_oracle(g):
    """Literal oracle for enumerate_recurrent: every slot tuple, in product
    order, kept when is_recurrent holds."""
    return [RotorConfiguration(slots)
            for slots in product(*(range(g.outdeg(v))
                                   for v in g.rotor_vertices))
            if is_recurrent(g, RotorConfiguration(slots))]


def random_unchecked_multigraph(rng, n):
    """Random loop-free multigraph in which every non-sink vertex has 1 to 4
    out-edges, parallel ones allowed, and the sink has none half the time.
    Built without build_graph, which requires strong connectivity: the
    enumeration does not."""
    out_idx = []
    for i in range(n):
        k = rng.randrange(0, 3) if i == 0 else rng.randrange(1, 5)
        out_idx.append(tuple(rng.choice([j for j in range(n) if j != i])
                             for _ in range(k)))
    return DirectedMultigraph(tuple(f"v{i}" for i in range(n)), "v0", out_idx)


def test_enumerate_matches_product_oracle_on_random_multigraphs():
    rng = random.Random(61)
    seen = {"out-degree 1": 0, "parallel edges": 0, "sink without out-edges": 0}
    lone = build_graph(["s"], "s", {})
    assert enumerate_recurrent(lone) == enumerate_oracle(lone)
    for _ in range(320):
        g = random_unchecked_multigraph(rng, rng.randrange(2, 8))
        seen["out-degree 1"] += any(g.outdeg(v) == 1 for v in g.rotor_vertices)
        seen["parallel edges"] += any(len(set(g.out[v])) < g.outdeg(v)
                                      for v in g.vertices)
        seen["sink without out-edges"] += not g.out[g.sink]
        assert enumerate_recurrent(g) == enumerate_oracle(g), g.out
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("d, n", [(3, 3), (3, 4), (4, 3)])
def test_enumerate_matches_product_oracle_on_wired_trees(d, n):
    g, _ = build_wired_tree(d, n)
    assert enumerate_recurrent(g) == enumerate_oracle(g)


@pytest.mark.parametrize("reverse", [False, True])
def test_enumerate_long_directed_cycle(reverse):
    # a rotor per vertex and one configuration; in the reversed listing each
    # new rotor points at the tree of all the rotors set before it
    n = 5000
    names = [f"v{i}" for i in range(n)]
    out = {v: [names[(i + 1) % n]] for i, v in enumerate(names)}
    g = build_graph(names[::-1] if reverse else names, "v0", out)
    start = time.perf_counter()
    recs = enumerate_recurrent(g)
    assert time.perf_counter() - start < 0.5
    assert recs == [RotorConfiguration((0,) * (n - 1))]


def _leibniz_det(mat):
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


def _rational_rank(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    r = 0
    for j in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][j]:
                f = m[i][j] / m[r][j]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_and_minor_against_brute_force():
    rng = random.Random(53)
    for _ in range(300):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        mat = [[rng.randrange(-4, 5) * rng.choice([0, 1, 1])
                for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.4:
            mat[-1] = [2 * a - b for a, b in zip(mat[0], mat[1])]
        r, minor = rank_and_minor(mat)
        assert r == _rational_rank(mat), mat
        minors = {abs(_leibniz_det([[mat[i][j] for j in cs] for i in rs]))
                  for rs in combinations(range(rows), r)
                  for cs in combinations(range(cols), r)}
        assert minor != 0 and abs(minor) in minors, mat
        if rows == cols:
            assert integer_determinant(mat) == _leibniz_det(mat), mat


def test_spanning_tree_count_triangle():
    assert spanning_tree_count(triangle()) == 3


def test_spanning_tree_count_two_cycle():
    assert spanning_tree_count(two_cycle()) == 1


def test_enumeration_guard():
    rng = random.Random(3)
    g = random_multigraph(rng, 5)
    with pytest.raises(TooLargeError):
        enumerate_recurrent(g, limit=1)


def test_is_recurrent_invariant_under_relabeling():
    rng = random.Random(19)
    for _ in range(10):
        g = random_multigraph(rng, 4)
        names = list(g.vertices)
        perm = names[:]
        rng.shuffle(perm)
        ren = dict(zip(names, perm))
        g2 = build_graph([ren[v] for v in g.vertices], ren[g.sink],
                         {ren[v]: [ren[w] for w in g.out[v]]
                          for v in g.vertices})
        for _ in range(10):
            slots = {v: rng.randrange(g.outdeg(v)) for v in g.rotor_vertices}
            t = RotorConfiguration.from_dict(g, slots)
            t2 = RotorConfiguration.from_dict(g2, {ren[v]: s
                                                   for v, s in slots.items()})
            assert is_recurrent(g, t) == is_recurrent(g2, t2)


def test_shortest_path_config_is_recurrent():
    rng = random.Random(23)
    for _ in range(20):
        g = random_multigraph(rng, rng.randrange(2, 7))
        assert is_recurrent(g, shortest_path_config(g))


def test_graph_json_roundtrip():
    g = triangle()
    g2 = graph_from_json(graph_to_json(g))
    assert g2.vertices == g.vertices
    assert g2.sink == g.sink
    assert g2.out == g.out
    assert graph_to_json(g2) == graph_to_json(g)


@pytest.mark.parametrize("payload", [
    [["a", "s"], "s", {"a": ["s"], "s": ["a"]}],
    {"vertices": ["a", "s"], "sink": "s"},
    {"vertices": "as", "sink": "s", "out": {"a": ["s"], "s": ["a"]}},
    {"vertices": ["a", 1], "sink": "s", "out": {"a": ["s"], "s": ["a"]}},
    {"vertices": ["a", "s"], "sink": 1, "out": {"a": ["s"], "s": ["a"]}},
    {"vertices": ["a", "s"], "sink": "s", "out": [["s"], ["a"]]},
    {"vertices": ["a", "s"], "sink": "s", "out": {"a": 5, "s": ["a"]}},
    {"vertices": ["a", "s"], "sink": "s", "out": {"a": "s", "s": ["a"]}},
])
def test_graph_from_json_rejects_malformed_payload(payload):
    with pytest.raises(GraphError):
        graph_from_json(json.dumps(payload))
