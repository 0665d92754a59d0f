import random

import pytest

from rotorlab import group
from rotorlab.graph import (
    ResultCheckError,
    RotorConfiguration,
    build_graph,
    enumerate_recurrent,
    spanning_tree_count,
)
from rotorlab.group import (
    GroupElement,
    NotRecurrentError,
    apply_generator,
    order_of_generator,
    sandpile_structure,
    smith_invariant_factors,
    verify_isomorphism,
    verify_transitivity,
)
from rotorlab.sampling import random_multigraph, random_recurrent_config


def two_cycle():
    return build_graph(["r", "s"], "s", {"r": ["s"], "s": ["r"]})


def triangle():
    return build_graph(
        ["a", "b", "s"], "s",
        {"a": ["b", "s"], "b": ["a", "s"], "s": ["a", "b"]},
    )


def test_apply_generator_identity_exponent():
    g = triangle()
    t = enumerate_recurrent(g)[0]
    assert apply_generator(g, t, "a", 0) == t


def test_apply_generator_inverse():
    rng = random.Random(3)
    g = random_multigraph(rng, 5)
    t = random_recurrent_config(g, rng)
    for x in g.rotor_vertices:
        assert apply_generator(g, apply_generator(g, t, x, 1), x, -1) == t
        assert apply_generator(g, apply_generator(g, t, x, -1), x, 1) == t


def test_apply_generator_laplacian_relation():
    rng = random.Random(5)
    for _ in range(10):
        g = random_multigraph(rng, 4)
        t = random_recurrent_config(g, rng)
        for x in g.rotor_vertices:
            lhs = apply_generator(g, t, x, g.outdeg(x))
            rhs = t
            for y in g.out[x]:
                rhs = apply_generator(g, rhs, y, 1)
            assert lhs == rhs


def test_apply_generator_rejects_nonrecurrent():
    g = build_graph(
        ["o", "r", "s"], "s",
        {"o": ["r"], "r": ["o", "s"], "s": ["r"]},
    )
    t = RotorConfiguration.from_dict(g, {"o": 0, "r": 0})  # 2-cycle
    with pytest.raises(NotRecurrentError):
        apply_generator(g, t, "o", 1)


def test_smith_invariant_factors_triangle():
    # reduced Laplacian [[2,-1],[-1,2]] has SNF diag (1, 3)
    assert smith_invariant_factors([[2, -1], [-1, 2]]) == [1, 3]


def test_smith_normal_form_known_matrices():
    assert smith_invariant_factors([[2, 0], [0, 4]]) == [2, 4]
    assert smith_invariant_factors([[4, 0], [0, 6]]) == [2, 12]
    assert smith_invariant_factors([[1, 2], [3, 4]]) == [1, 2]
    # diag entries divide in order on a random check
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(2, 5)
        mat = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        diag = smith_invariant_factors(mat)
        nz = [d for d in diag if d]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


def test_sandpile_structure_two_cycle():
    s = sandpile_structure(two_cycle())
    assert s.factors == ()
    assert s.order == 1


def test_sandpile_structure_triangle():
    s = sandpile_structure(triangle())
    assert s.factors == (3,)
    assert s.order == 3 == spanning_tree_count(triangle())


def test_group_order_matches_tree_count():
    rng = random.Random(11)
    for _ in range(15):
        g = random_multigraph(rng, rng.randrange(2, 6))
        assert sandpile_structure(g).order == spanning_tree_count(g)


def test_order_of_generator_triangle():
    g = triangle()
    # SP(triangle) is cyclic of order 3; each non-sink generator has order 3
    assert order_of_generator(g, "a", verify_witnesses=2) == 3
    assert order_of_generator(g, "b") == 3


def test_order_of_generator_witness_independent():
    rng = random.Random(13)
    for _ in range(6):
        g = random_multigraph(rng, 4)
        x = g.rotor_vertices[0]
        orders = set()
        for _ in range(3):
            w = random_recurrent_config(g, rng)
            orders.add(order_of_generator(g, x, witness=w))
        assert len(orders) == 1


def test_order_divides_group_order():
    rng = random.Random(17)
    for _ in range(10):
        g = random_multigraph(rng, 4)
        n = sandpile_structure(g).order
        for x in g.rotor_vertices:
            assert n % order_of_generator(g, x) == 0


def test_transitivity_two_cycle():
    assert verify_transitivity(two_cycle())


def test_group_checks_respect_enumeration_guard():
    from rotorlab.graph import TooLargeError
    rng = random.Random(1)
    g = random_multigraph(rng, 5)
    with pytest.raises(TooLargeError):
        verify_transitivity(g, limit=1)
    with pytest.raises(TooLargeError):
        verify_isomorphism(g, limit=1)


def test_transitivity_random_graphs():
    rng = random.Random(19)
    for _ in range(10):
        g = random_multigraph(rng, 4)
        assert verify_transitivity(g)


def test_verify_isomorphism_small():
    assert verify_isomorphism(two_cycle()).ok
    rep = verify_isomorphism(triangle())
    assert rep.ok
    assert rep.rec_count == 3 == rep.sp_order


def test_verify_isomorphism_random():
    rng = random.Random(23)
    for _ in range(8):
        g = random_multigraph(rng, 4)
        rep = verify_isomorphism(g)
        assert rep.ok, rep.to_json()


def test_commutativity_exhaustive_small():
    rng = random.Random(29)
    for _ in range(5):
        g = random_multigraph(rng, 4)
        recs = enumerate_recurrent(g)
        for t in recs:
            for x in g.rotor_vertices:
                for y in g.rotor_vertices:
                    a = apply_generator(g, apply_generator(g, t, x), y)
                    b = apply_generator(g, apply_generator(g, t, y), x)
                    assert a == b


def test_group_element_order_independence():
    rng = random.Random(31)
    g = random_multigraph(rng, 4)
    t = random_recurrent_config(g, rng)
    xs = list(g.rotor_vertices)
    e1 = GroupElement.from_dict({xs[0]: 2, xs[1]: -1})
    e2 = GroupElement.from_dict({xs[1]: -1, xs[0]: 2})
    assert e1.apply(g, t) == e2.apply(g, t)
    composed = e1.compose(GroupElement.from_dict({xs[0]: -2, xs[1]: 1}))
    assert composed.apply(g, t) == t


def test_report_json_shape():
    rep = verify_isomorphism(triangle())
    d = rep.to_json_dict()
    assert set(d) == {"rec_count", "sp_order", "invariant_factors",
                      "relations_ok", "commutes_ok", "transitive_ok",
                      "sink_identity_ok", "bijective_ok", "ok"}


def test_order_witness_disagreement_raises_result_check(monkeypatch):
    g = build_graph(["a", "b", "s"], "s",
                    {"a": ["b", "s"], "b": ["a", "s"], "s": ["a", "b"]})
    periods = iter([3, 1])
    monkeypatch.setattr(group, "_orbit_period", lambda *args: next(periods))
    with pytest.raises(ResultCheckError):
        order_of_generator(g, "a", verify_witnesses=1)
