import random
from fractions import Fraction
from itertools import product

import pytest

from rotorlab.graph import (
    GraphError,
    RotorConfiguration,
    StepBudgetExceededError,
    _acyclic,
    _rotor_targets,
    build_graph,
    classify,
    enumerate_recurrent,
    is_recurrent,
)
from rotorlab import walk
from rotorlab.sampling import random_multigraph, random_recurrent_config
from rotorlab.walk import (
    ChipAtSinkError,
    NotAPredecessorError,
    NotHarmonicAtEmitterError,
    RotorsNotRestoredError,
    WalkError,
    WalkTrace,
    _budget,
    _reverse,
    check_harmonic_invariant,
    predecessor,
    reverse_walk,
    route_all,
    route_to_sink,
    step,
)


def two_cycle():
    return build_graph(["r", "s"], "s", {"r": ["s"], "s": ["r"]})


def three_out():
    # vertex m with out-list [a, b, c]; everything drains to s
    return build_graph(
        ["m", "a", "b", "c", "s"], "s",
        {"m": ["a", "b", "c"], "a": ["s"], "b": ["s"], "c": ["s"],
         "s": ["m"]},
    )


def test_step_simple():
    g = two_cycle()
    t = RotorConfiguration.uniform(g, 0)
    t2, chip = step(g, t, "r")
    assert chip == "s"
    assert t2.slot(g, "r") == 0   # d_r = 1, index wraps


def test_step_out_list_order():
    g = three_out()
    t = RotorConfiguration.uniform(g, 0)
    t2, chip = step(g, t, "m")
    assert chip == "b"
    assert t2.slot(g, "m") == 1


def test_step_at_sink_rejected():
    g = two_cycle()
    with pytest.raises(ChipAtSinkError):
        step(g, RotorConfiguration.uniform(g, 0), "s")


def test_route_to_sink_two_cycle():
    g = two_cycle()
    t = RotorConfiguration.uniform(g, 0)
    t2, trace = route_to_sink(g, t, "r")
    assert trace.chip_stops == ["s"] and trace.emitters() == {"r"}
    assert t2 == t


def test_route_preserves_recurrence():
    rng = random.Random(5)
    for _ in range(15):
        g = random_multigraph(rng, rng.randrange(2, 6))
        for t in enumerate_recurrent(g):
            for x in g.vertices:
                t2, _ = route_to_sink(g, t, x)
                assert is_recurrent(g, t2)


def test_intermediate_states_never_neither():
    # every intermediate state of a walk from a recurrent start is
    # Recurrent or CycAt(chip); when Recurrent, the chip is at a first visit
    rng = random.Random(9)
    for _ in range(10):
        g = random_multigraph(rng, 5)
        t = random_recurrent_config(g, rng)
        x = rng.choice(g.vertices)
        full_t = t
        chip = x
        visited = {chip}
        while chip != g.sink:
            full_t, chip = step(g, full_t, chip)
            c = classify(g, full_t, chip)
            assert c.kind in ("recurrent", "cycle_at")
            if c.kind == "cycle_at":
                assert c.vertex == chip
            else:
                assert chip == g.sink or chip not in visited
            visited.add(chip)


def test_predecessor_inverts_step():
    rng = random.Random(13)
    for _ in range(20):
        g = random_multigraph(rng, 4)
        slots = tuple(rng.randrange(g.outdeg(v)) for v in g.rotor_vertices)
        t = RotorConfiguration(slots)
        chip = rng.choice([v for v in g.vertices if v != g.sink])
        t2, chip2 = step(g, t, chip)
        back, back_chip = predecessor(g, t2, chip2, chip)
        assert back == t and back_chip == chip


def test_predecessor_requires_pointing_rotor():
    g = three_out()
    t = RotorConfiguration.uniform(g, 0)   # rotor at m points to a
    with pytest.raises(NotAPredecessorError):
        predecessor(g, t, "b", "m")


def test_two_predecessors_on_fork():
    # both a and b point at s-side vertex m; two distinct reverse steps
    g = build_graph(
        ["a", "b", "m", "s"], "s",
        {"a": ["m", "s"], "b": ["m", "s"], "m": ["s"], "s": ["a", "b"]},
    )
    t = RotorConfiguration.from_dict(g, {"a": 0, "b": 0, "m": 0})
    pa = predecessor(g, t, "m", "a")
    pb = predecessor(g, t, "m", "b")
    assert pa[1] == "a" and pb[1] == "b"
    assert pa[0] != pb[0]


def test_reverse_walk_round_trip_exhaustive():
    rng = random.Random(17)
    for _ in range(10):
        g = random_multigraph(rng, rng.randrange(2, 5))
        for t in enumerate_recurrent(g):
            for x in g.vertices:
                t2, _ = route_to_sink(g, t, x)
                assert reverse_walk(g, t2, x) == t


def reverse_walk_oracle(g, t_final, x, step_budget=10 ** 9):
    """Literal oracle for reverse_walk: one predecessor() call per reverse
    step, with the rotor targets of a fresh configuration recomputed each
    time."""
    t_final.validate(g)
    if x not in g.index:
        raise GraphError(f"unknown vertex {x!r}")
    t, chip, count = t_final, g.sink, 0
    while True:
        tgt = _rotor_targets(g, t)
        rec = _acyclic(g, tgt)
        if rec and chip == x:
            return t
        if count >= step_budget:
            raise StepBudgetExceededError(f"exceeded {step_budget} steps")
        # the predecessor precedes the chip on the rotor cycle through it
        # or, at a first visit, on the rotor path from x
        goal = g.index[chip]
        start = x if rec else chip
        v = g.index[start]
        seen = set()
        while True:
            if v in seen or v == g.sink_index:
                raise WalkError(f"rotor path from {start!r} misses {chip!r}")
            seen.add(v)
            if tgt[v] == goal:
                break
            v = tgt[v]
        t, chip = predecessor(g, t, chip, g.vertices[v])
        count += 1


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except GraphError as exc:
        return type(exc), str(exc)


def test_reverse_walk_matches_predecessor_oracle():
    rng = random.Random(37)
    for _ in range(30):
        g = random_multigraph(rng, rng.randrange(2, 7))
        for t in enumerate_recurrent(g):
            for x in g.vertices:
                assert reverse_walk(g, t, x) == reverse_walk_oracle(g, t, x)


def test_reverse_walk_errors_match_predecessor_oracle(monkeypatch):
    rng = random.Random(41)
    cases = 0
    for _ in range(10):
        g = random_multigraph(rng, rng.randrange(2, 5))
        every = product(*(range(g.outdeg(v)) for v in g.rotor_vertices))
        for slots in every:
            t = RotorConfiguration(slots)
            for x in g.vertices:
                budget = rng.randrange(4)
                for n in (walk.DEFAULT_STEP_BUDGET, budget):
                    want = outcome(reverse_walk_oracle, g, t, x, n)
                    with monkeypatch.context() as mp:
                        mp.setattr(walk, "DEFAULT_STEP_BUDGET", n)
                        assert outcome(reverse_walk, g, t, x) == want
                    cases += isinstance(want, tuple)
        bad = [RotorConfiguration(slots + (0,)),
               RotorConfiguration((g.outdeg(g.rotor_vertices[0]),)
                                  + slots[1:])]
        for t in bad:
            want = outcome(reverse_walk_oracle, g, t, g.sink)
            assert want[0].__name__ == "ConfigError"
            assert outcome(reverse_walk, g, t, g.sink) == want
        t = enumerate_recurrent(g)[0]
        want = outcome(reverse_walk_oracle, g, t, "nowhere")
        assert want == (GraphError, "unknown vertex 'nowhere'")
        assert outcome(reverse_walk, g, t, "nowhere") == want
    assert cases > 100


def reverse_rewalking_oracle(g, full, tgt, start, rec, step_budget):
    """A per-step reference for ``_reverse``, which keeps the rotor path:
    here each reverse step walks the rotors again to find the predecessor,
    from start in a recurrent state and around the cycle from the chip in a
    cyclic one, then walks from the changed rotor to decide recurrence."""
    out_idx, deg = g.out_idx, g.deg_idx
    sink = chip = g.sink_index
    count = 0
    while True:
        if rec and chip == start:
            return
        if count >= step_budget:
            raise StepBudgetExceededError(f"exceeded {step_budget} steps")
        z = path_predecessor(g, tgt, start if rec else chip, chip)
        s = (full[z] - 1) % deg[z]
        full[z] = s
        tgt[z] = out_idx[z][s]
        chip = z
        count += 1
        v = tgt[z]
        while v != z and v != sink:
            v = tgt[v]
        rec = v == sink


def path_predecessor(g, tgt, start, chip):
    """Vertex before the first occurrence of chip on the rotor path from
    start, within as many steps as there are vertices."""
    v = start
    for _ in tgt:
        if v == g.sink_index:
            break
        w = tgt[v]
        if w == chip:
            return v
        v = w
    raise WalkError(f"rotor path from {g.vertices[start]!r} "
                    f"misses {g.vertices[chip]!r}")


def long_cycle(rng, n, extra):
    """A directed cycle v0 -> v1 -> ... -> v0 with sink v0, plus ``extra``
    random edges: long rotor paths and long rotor cycles."""
    names = [f"v{i}" for i in range(n)]
    out = {v: [names[(i + 1) % n]] for i, v in enumerate(names)}
    for _ in range(extra):
        i, j = rng.sample(range(n), 2)
        out[names[i]].insert(rng.randrange(len(out[names[i]]) + 1), names[j])
    return build_graph(names, names[0], out)


def test_reverse_kernel_matches_rewalking_oracle():
    # final slots, final targets and errors agree on every recurrent state,
    # on random cyclic states and under tiny budgets, also when the walk
    # stops part way
    rng = random.Random(47)
    kinds = {}
    for k in range(150):
        g = (random_multigraph(rng, rng.randrange(2, 7)) if k % 2
             else long_cycle(rng, rng.randrange(3, 12), rng.randrange(1, 5)))
        states = enumerate_recurrent(g)
        states += [RotorConfiguration(tuple(rng.randrange(g.outdeg(v))
                                            for v in g.rotor_vertices))
                   for _ in range(10)]
        for t in states:
            tgt = _rotor_targets(g, t)
            rec = _acyclic(g, tgt)
            for x in range(len(g.vertices)):
                for budget in (10 ** 9, rng.randrange(6)):
                    got = g.slots_to_full(t), tgt[:]
                    want = g.slots_to_full(t), tgt[:]
                    result = outcome(_reverse, g, *got, x, rec,
                                     _budget(budget))
                    assert result == outcome(reverse_rewalking_oracle, g,
                                             *want, x, rec, budget)
                    assert got == want
                    kind = result and result[0].__name__
                    kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds[None] > 20000 and min(kinds.values()) > 2000, kinds


def test_routing_injective_on_recurrent():
    rng = random.Random(21)
    for _ in range(8):
        g = random_multigraph(rng, 4)
        recs = enumerate_recurrent(g)
        for x in g.vertices:
            images = {route_to_sink(g, t, x)[0].slots for t in recs}
            assert len(images) == len(recs)


def test_route_all_single_chip_matches_route_to_sink():
    rng = random.Random(25)
    g = random_multigraph(rng, 5)
    t = random_recurrent_config(g, rng)
    x = g.rotor_vertices[0]
    counts, t2, _ = route_all(g, t, {x: 1}, {g.sink})
    expected_t2, _ = route_to_sink(g, t, x)
    assert counts == {g.sink: 1}
    assert t2 == expected_t2


def test_route_all_one_step_distribution():
    # d_x chips at x, stopping everywhere after one step, land d_xy per y
    g = three_out()
    t = RotorConfiguration.uniform(g, 0)
    stop = {"a", "b", "c"}
    counts, t2, _ = route_all(g, t, {"m": 3}, stop)
    assert counts == {"a": 1, "b": 1, "c": 1}
    assert t2.slot(g, "m") == t.slot(g, "m")   # full turn restores the rotor


def route_round_robin(g, t, chips, stop_set):
    """Interleaved oracle for route_all: every round, each chip not yet in
    the stop set takes one literal step()."""
    counts = {}
    active = [v for v in g.vertices for _ in range(chips.get(v, 0))]
    while active:
        moving = []
        for v in active:
            if v in stop_set:
                counts[v] = counts.get(v, 0) + 1
            else:
                t, v = step(g, t, v)
                moving.append(v)
        active = moving
    return counts, t


def test_route_all_scheduler_independence():
    rng = random.Random(29)
    for _ in range(12):
        g = random_multigraph(rng, rng.randrange(3, 6))
        slots = tuple(rng.randrange(g.outdeg(v)) for v in g.rotor_vertices)
        t = RotorConfiguration(slots)
        chips = {v: rng.randrange(0, 3) for v in g.vertices}
        stop = {g.sink}
        a = route_all(g, t, chips, stop)
        b = route_round_robin(g, t, chips, stop)
        assert a[0] == b[0] and a[1] == b[1]


def test_route_all_scheduler_independence_exhaustive():
    # every initial rotor state and chip load up to 2 per vertex on a path
    from itertools import product
    g = build_graph(["o", "r", "s"], "s",
                    {"o": ["r"], "r": ["o", "s"], "s": ["r"]})
    for so, sr in product(range(1), range(2)):
        t = RotorConfiguration.from_dict(g, {"o": so, "r": sr})
        for co, cr in product(range(3), range(3)):
            chips = {"o": co, "r": cr}
            a = route_all(g, t, chips, {g.sink})
            b = route_round_robin(g, t, chips, {g.sink})
            assert a[0] == b[0] and a[1] == b[1]


def route_sequential(g, t, chips, stop_set):
    """Literal oracle for route_all: chips in vertex order, each walked to
    its stop with step() before the next one starts."""
    counts, chip_stops, steps, segments = {}, [], [], []
    for v in g.vertices:
        for _ in range(chips.get(v, 0)):
            segments.append(len(steps))
            chip = v
            while chip not in stop_set:
                t, nxt = step(g, t, chip)
                steps.append((chip, nxt))
                chip = nxt
            counts[chip] = counts.get(chip, 0) + 1
            chip_stops.append(chip)
    return counts, chip_stops, t, steps, segments or [0]


def test_routing_matches_literal_step_oracle():
    rng = random.Random(37)
    for _ in range(60):
        g = random_multigraph(rng, rng.randrange(2, 7))
        slots = tuple(rng.randrange(g.outdeg(v)) for v in g.rotor_vertices)
        t = RotorConfiguration(slots)
        # step() refuses a chip on the sink, so the sink always stops chips
        stop = {g.sink} | {v for v in g.rotor_vertices if rng.random() < 0.3}
        chips = {v: rng.randrange(0, 4) for v in g.vertices}
        counts, chip_stops, t_end, steps, _ = route_sequential(
            g, t, chips, stop)
        got, t2, trace = route_all(g, t, chips, stop)
        assert got == counts
        assert list(got) == sorted(got, key=g.index.__getitem__)
        assert trace.chip_stops == chip_stops
        assert t2 == trace.final == t_end and trace.initial == t
        assert trace.emitters() == {frm for frm, _ in steps}
        # route_to_sink routes one chip with the sink as the only stop
        x = rng.choice(g.vertices)
        _, chip_stops, t_end, steps, _ = route_sequential(
            g, t, {x: 1}, {g.sink})
        t2, trace = route_to_sink(g, t, x)
        assert t2 == trace.final == t_end and trace.initial == t
        assert trace.chip_stops == chip_stops == [g.sink]
        assert trace.emitters() == {frm for frm, _ in steps}


def test_route_all_routes_sources_in_vertex_order():
    # chips given in shuffled key order on several vertices, the sink among
    # them and placed anywhere in the vertex order, are routed in vertex
    # order, as the name-order oracle routes them
    rng = random.Random(41)
    seen = {"sink in the middle": 0, "chips on the sink": 0}
    for _ in range(60):
        g0 = random_multigraph(rng, rng.randrange(3, 8))
        names = list(g0.vertices)
        rng.shuffle(names)
        g = build_graph(names, g0.sink, g0.out)
        seen["sink in the middle"] += 0 < names.index(g.sink) < len(names) - 1
        t = RotorConfiguration(tuple(rng.randrange(g.outdeg(v))
                                     for v in g.rotor_vertices))
        stop = {g.sink} | {v for v in g.rotor_vertices if rng.random() < 0.3}
        sources = rng.sample(names, rng.randrange(2, len(names) + 1))
        chips = {v: rng.randrange(1, 4) for v in sources}
        seen["chips on the sink"] += g.sink in chips
        counts, chip_stops, t_end, _, _ = route_sequential(g, t, chips, stop)
        got, t2, trace = route_all(g, t, chips, stop)
        assert got == counts and list(got) == sorted(got, key=names.index)
        assert trace.chip_stops == chip_stops and t2 == t_end
    assert min(seen.values()) >= 20, seen


def test_route_all_chip_through_sink_outside_stop_set_raises():
    # the sink carries no rotor, so walking a chip on from it would depend
    # on a rotor that no RotorConfiguration records
    g = build_graph(["a", "b", "c", "s"], "s",
                    {"a": ["s"], "b": ["a"], "c": ["a"], "s": ["b", "c"]})
    t = RotorConfiguration.uniform(g, 0)
    with pytest.raises(ChipAtSinkError):
        route_all(g, t, {"a": 2}, {"b", "c"})
    with pytest.raises(ChipAtSinkError):
        route_all(g, t, {"a": 1}, {"b", "c"})
    with pytest.raises(ChipAtSinkError):
        route_all(g, t, {"s": 1}, {"b"})
    assert route_all(g, t, {"a": 2}, {"b", "c", "s"})[0] == {"s": 2}
    assert route_all(g, t, {"b": 1, "s": 1}, {"a", "s"})[0] == {"a": 1,
                                                                "s": 1}


def test_step_budget_exceeded(monkeypatch):
    from rotorlab.walk import StepBudgetExceededError
    g = build_graph(["a", "b", "c", "s"], "s",
                    {"a": ["b"], "b": ["c"], "c": ["s"], "s": ["a"]})
    t = RotorConfiguration.uniform(g, 0)
    monkeypatch.setattr(walk, "DEFAULT_STEP_BUDGET", 1)
    with pytest.raises(StepBudgetExceededError, match="^exceeded 1 steps$"):
        route_to_sink(g, t, "a")
    monkeypatch.setattr(walk, "DEFAULT_STEP_BUDGET", 2)
    with pytest.raises(StepBudgetExceededError, match="^exceeded 2 steps$"):
        route_all(g, t, {"a": 5}, {"s"})


def test_unknown_vertices_raise_before_routing(monkeypatch):
    # a stop, a stepped chip or a predecessor vertex off the graph is named;
    # the budget of 0 would stop any routing first
    g = three_out()
    t = RotorConfiguration.uniform(g, 0)
    want = (GraphError, "unknown vertex 'zz'")
    assert outcome(route_all, g, t, {"m": 1}, {"zz"}) == want
    monkeypatch.setattr(walk, "DEFAULT_STEP_BUDGET", 0)
    assert outcome(route_all, g, t, {"m": 1}, {"a", "zz"}) == want
    assert outcome(step, g, t, "zz") == want
    assert outcome(predecessor, g, t, "a", "zz") == want
    assert outcome(predecessor, g, t, "zz", "m") == want


def shuffled_graph(rng, n):
    """A random multigraph with its vertices, the sink among them, in random
    order."""
    g0 = random_multigraph(rng, n)
    names = list(g0.vertices)
    rng.shuffle(names)
    return build_graph(names, g0.sink, g0.out)


def random_slots(rng, g):
    return RotorConfiguration(tuple(rng.randrange(g.outdeg(v))
                                    for v in g.rotor_vertices))


def test_step_budget_boundaries_match_the_oracle(monkeypatch):
    # the oracle's step total is exactly enough and one step less raises;
    # a chip that enters a sink outside the stop set raises at that chip,
    # with any budget that lets it get there
    rng = random.Random(61)
    seen = {"sink stops": 0, "sink entered": 0, "runs out": 0}
    for k in range(240):
        g = shuffled_graph(rng, rng.randrange(2, 8))
        sink = g.sink
        t = random_slots(rng, g)
        stop = {v for v in g.rotor_vertices if rng.random() < 0.3}
        if k % 2 or not stop:
            stop.add(sink)
        sources = rng.sample(g.vertices, rng.randrange(1, len(g.vertices) + 1))
        chips = {v: rng.randrange(1, 5) for v in sources}
        counts, chip_stops, t_end, steps, segments = route_sequential(
            g, t, chips, stop | {sink})
        total = len(steps)
        ends = segments[1:] + [total]
        entries = [end for end, z in zip(ends, chip_stops)
                   if z == sink and sink not in stop]
        def run(budget):
            monkeypatch.setattr(walk, "DEFAULT_STEP_BUDGET", budget)
            return route_all(g, t, chips, stop)
        if entries:
            seen["sink entered"] += 1
            for budget in {entries[0], total, total + 1}:
                with pytest.raises(ChipAtSinkError):
                    run(budget)
        else:
            seen["sink stops"] += 1
            got, t2, trace = run(total)
            assert got == counts and t2 == t_end
            assert trace.chip_stops == chip_stops
        short = (entries or [total])[0] - 1
        if short >= 0:
            seen["runs out"] += 1
            with pytest.raises(StepBudgetExceededError,
                               match=f"^exceeded {short} steps$"):
                run(short)
        x = rng.choice(g.vertices)
        _, _, t_end, steps, _ = route_sequential(g, t, {x: 1}, {sink})
        emitters = {frm for frm, _ in steps}
        monkeypatch.setattr(walk, "DEFAULT_STEP_BUDGET", len(steps))
        t2, trace = route_to_sink(g, t, x)
        assert t2 == t_end
        assert trace.emitted == [v in emitters for v in g.vertices]
        if steps:
            monkeypatch.setattr(walk, "DEFAULT_STEP_BUDGET", len(steps) - 1)
            with pytest.raises(StepBudgetExceededError,
                               match=f"^exceeded {len(steps) - 1} steps$"):
                route_to_sink(g, t, x)
    assert min(seen.values()) >= 50, seen


def test_route_all_matches_the_oracle_at_scale():
    # hundreds of chips on graphs of 20-40 vertices, and the alternation on
    # Y_8, take over ten steps per vertex: the rotors wrap many times
    from rotorlab.trees import build_branch, uniform_direction_config
    rng = random.Random(71)
    runs = []
    for k in range(6):
        g = shuffled_graph(rng, rng.randrange(20, 41))
        stop = {g.sink} | {v for v in g.rotor_vertices if rng.random() < 0.1}
        sources = rng.sample(g.vertices, 5)
        chips = {v: rng.randrange(50, 150) for v in sources}
        runs.append((g, random_slots(rng, g), chips, stop))
    g, info = build_branch(3, 8)
    runs.append((g, uniform_direction_config(g, info, 1), {"r": 255},
                 {"o", "b"}))
    for g, t, chips, stop in runs:
        counts, chip_stops, t_end, steps, _ = route_sequential(
            g, t, chips, stop)
        got, t2, trace = route_all(g, t, chips, stop)
        assert got == counts
        assert list(got) == sorted(got, key=g.index.__getitem__)
        assert trace.chip_stops == chip_stops and t2 == t_end
        emitters = {frm for frm, _ in steps}
        assert trace.emitters() == emitters
        assert trace.emitted == [x in emitters for x in g.vertices]
        assert len(steps) > 10 * len(g.vertices)


def test_harmonic_invariant_constant_function():
    g = three_out()
    t = RotorConfiguration.uniform(g, 0)
    counts, t2, trace = route_all(g, t, {"m": 3}, {"a", "b", "c"})
    assert trace.emitters() == {"m"}
    H = {v: Fraction(1) for v in g.vertices}
    before = {"m": 3}
    assert check_harmonic_invariant(g, H, before, counts, trace)


def test_harmonic_invariant_empty_trace():
    g = three_out()
    t = RotorConfiguration.uniform(g, 0)
    trace = WalkTrace(initial=t, final=t)
    assert check_harmonic_invariant(g, {v: 1 for v in g.vertices}, {}, {}, trace)


def test_harmonic_invariant_rejects_unrestored_rotors():
    g = three_out()
    t = RotorConfiguration.uniform(g, 0)
    t2, trace = route_to_sink(g, t, "m")
    assert t2 != t
    with pytest.raises(RotorsNotRestoredError):
        check_harmonic_invariant(g, {v: 1 for v in g.vertices}, {}, {}, trace)


def test_harmonic_invariant_without_recorded_steps():
    # no step list is kept: emitters come from the run's per-vertex flags,
    # and a non-constant H harmonic at m is conserved
    g = three_out()
    t = RotorConfiguration.uniform(g, 0)
    counts, t2, trace = route_all(g, t, {"m": 3}, {"a", "b", "c"})
    assert not hasattr(trace, "steps")
    assert trace.emitted == [x == "m" for x in g.vertices]
    assert trace.emitters() == {"m"}
    assert counts == {"a": 1, "b": 1, "c": 1}
    H = {"m": Fraction(1), "a": Fraction(0), "b": Fraction(1),
         "c": Fraction(2), "s": Fraction(7)}
    assert check_harmonic_invariant(g, H, {"m": 3}, counts, trace)


def test_harmonic_invariant_rejects_bad_function():
    g = three_out()
    t = RotorConfiguration.uniform(g, 0)
    counts, t2, trace = route_all(g, t, {"m": 3}, {"a", "b", "c"})
    H = {v: Fraction(1) for v in g.vertices}
    H["a"] = Fraction(5)   # breaks harmonicity at the emitter m
    with pytest.raises(NotHarmonicAtEmitterError):
        check_harmonic_invariant(g, H, {"m": 3}, counts, trace)
