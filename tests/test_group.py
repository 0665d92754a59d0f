import math
import random
from itertools import combinations

import pytest

from rotorlab import group
from rotorlab.graph import (
    ResultCheckError,
    RotorConfiguration,
    StepBudgetExceededError,
    build_graph,
    enumerate_recurrent,
    integer_determinant,
    reduced_laplacian,
    shortest_path_config,
    spanning_tree_count,
)
from rotorlab.group import (
    IsomorphismReport,
    NotRecurrentError,
    order_of_generator,
    sandpile_structure,
    smith_invariant_factors,
    verify_isomorphism,
)
from rotorlab.sampling import random_multigraph, random_recurrent_config
from rotorlab.trees import build_wired_tree
from rotorlab.walk import _budget, reverse_walk, route_to_sink, step


def two_cycle():
    return build_graph(["r", "s"], "s", {"r": ["s"], "s": ["r"]})


def triangle():
    return build_graph(
        ["a", "b", "s"], "s",
        {"a": ["b", "s"], "b": ["a", "s"], "s": ["a", "b"]},
    )


def test_apply_generator_inverse():
    # e_x by route_to_sink, its inverse by reverse_walk
    rng = random.Random(3)
    g = random_multigraph(rng, 5)
    t = random_recurrent_config(g, rng)
    for x in g.rotor_vertices:
        assert reverse_walk(g, route_to_sink(g, t, x)[0], x) == t
        assert route_to_sink(g, reverse_walk(g, t, x), x)[0] == t


def test_apply_generator_laplacian_relation():
    rng = random.Random(5)
    for _ in range(10):
        g = random_multigraph(rng, 4)
        t = random_recurrent_config(g, rng)
        for x in g.rotor_vertices:
            lhs = power(g, t, x, g.outdeg(x))
            rhs = t
            for y in g.out[x]:
                rhs = route_to_sink(g, rhs, y)[0]
            assert lhs == rhs


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


def smith_oracle(mat):
    """Literal oracle for smith_invariant_factors: exact elimination over the
    integers with smallest-pivot selection and no modular reduction.  Its
    entries are unbounded, so it only runs on small inputs."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    top = 0
    while top < rows and top < cols:
        # locate the smallest nonzero entry in the remaining block
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = abs(m[i][j])
                if v and (best is None or v < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        while True:
            # clear the column
            dirty = False
            for i in range(top + 1, rows):
                if m[i][top]:
                    q = m[i][top] // m[top][top]
                    for j in range(top, cols):
                        m[i][j] -= q * m[top][j]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
            # clear the row
            for j in range(top + 1, cols):
                if m[top][j]:
                    q = m[top][j] // m[top][top]
                    for i in range(top, rows):
                        m[i][j] -= q * m[i][top]
                    if m[top][j]:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
            if not dirty:
                break
        diag.append(abs(m[top][top]))
        top += 1
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a and b and b % a != 0:
                gcd = math.gcd(a, b)
                diag[i], diag[i + 1] = gcd, a * b // gcd
                changed = True
    return diag


def test_smith_matches_exact_elimination_oracle():
    # smith_oracle's entries are unbounded: on one matrix of this generator
    # under seed 41 and one under seed 48 it runs for over a minute, so this
    # seed is one on which it finishes; those two inputs are pinned in
    # test_smith_on_inputs_that_explode_exact_elimination
    rng = random.Random(42)
    seen = {"nonsingular": 0, "singular": 0, "non-square": 0}
    for _ in range(600):
        r = rng.randrange(1, 7)
        shape = rng.choice(["square", "singular", "non-square"])
        c = r if shape != "non-square" else rng.choice(
            [k for k in range(1, 7) if k != r])
        mat = [[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)]
        if shape == "singular":
            # last row: a combination of the others (a zero row when r == 1)
            coef = [rng.randrange(-2, 3) for _ in mat[:-1]]
            mat[-1] = [sum(k * row[j] for k, row in zip(coef, mat))
                       for j in range(c)]
        if r != c:
            seen["non-square"] += 1
        else:
            seen["singular" if integer_determinant(mat) == 0
                 else "nonsingular"] += 1
        assert smith_invariant_factors(mat) == smith_oracle(mat), mat
    assert min(seen.values()) >= 150, seen


def test_smith_matches_oracle_on_reduced_laplacians():
    rng = random.Random(43)
    for _ in range(80):
        mat = reduced_laplacian(random_multigraph(rng, rng.randrange(2, 9)))
        assert smith_invariant_factors(mat) == smith_oracle(mat), mat


def determinantal_divisor_factors(mat):
    """Nonzero invariant factors as the quotients d_k / d_(k-1), where d_k
    is the gcd of all k x k minors."""
    rows, cols = len(mat), len(mat[0])
    prev, out = 1, []
    for k in range(1, min(rows, cols) + 1):
        d = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                d = math.gcd(d, integer_determinant(
                    [[mat[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


@pytest.mark.parametrize("mat, factors", [
    ([[-2, 3, -4, -3, 0, 3], [6, 4, 6, -4, -5, -6], [2, -5, -6, 3, -2, 4],
      [4, -4, 4, -1, -4, 2], [-4, -5, 4, -4, -1, -3], [4, -6, 0, 1, -5, 2]],
     [1, 1, 1, 1, 2, 7702]),
    ([[-3, -6, -4, 3, -4, 1], [1, 4, 5, 2, -2, -5], [-5, 5, -4, -6, -6, 6],
      [0, -2, 3, 3, 1, -6], [-1, -1, -5, -6, -5, -5],
      [5, 7, 20, 11, 9, -13]],
     [1, 1, 1, 1, 19]),
], ids=["nonsingular", "singular"])
def test_smith_on_inputs_that_explode_exact_elimination(mat, factors):
    # smith_oracle runs for over a minute on each of these
    assert determinantal_divisor_factors(mat) == factors
    assert smith_invariant_factors(mat) == factors


def cyclic_sum_invariant_factors(orders):
    """Invariant factors (1s dropped) of the direct sum of Z_m over
    ``orders``: the i-th largest factor takes the i-th largest power of
    every prime."""
    powers = {}
    for m in orders:
        p = 2
        while m > 1:
            if p * p > m:
                p = m
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    width = max(map(len, powers.values()), default=0)
    factors = [1] * width
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] *= q
    return tuple(sorted(factors))


def test_smith_recovers_factors_hidden_by_unimodular_operations():
    # diag(ds) mixed by random integer row and column operations keeps the
    # invariant factors of the direct sum of Z_d over ds, at sizes and ranks
    # (singular, non-square) where the oracle is too slow to run
    rng = random.Random(47)
    for _ in range(300):
        r, c = rng.randrange(1, 10), rng.randrange(1, 10)
        ds = [rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 25, 77])
              for _ in range(rng.randrange(min(r, c) + 1))]
        mat = [[ds[i] if i == j and i < len(ds) else 0 for j in range(c)]
               for i in range(r)]
        for _ in range(3 * (r + c)):
            k = rng.randrange(-3, 4)
            if rng.random() < 0.5 and r > 1:
                i, j = rng.sample(range(r), 2)
                mat[i] = [a + k * b for a, b in zip(mat[i], mat[j])]
            elif c > 1:
                i, j = rng.sample(range(c), 2)
                for row in mat:
                    row[i] += k * row[j]
        got = smith_invariant_factors(mat)
        assert len(got) == len(ds), mat
        assert all(b % a == 0 for a, b in zip(got, got[1:])), mat
        assert (tuple(f for f in got if f > 1)
                == cyclic_sum_invariant_factors(ds)), mat


@pytest.mark.parametrize("n", range(2, 9))
def test_sandpile_structure_ternary_wired_tree_closed_form(n):
    # Levine, "The sandpile group of a tree": Z_{2^n-1} + Z_{2^(n-1)-1}
    # + sum_{k=2}^{n-2} (Z_{2^k-1})^(2^(n-1-k))
    orders = [2 ** n - 1, 2 ** (n - 1) - 1]
    for k in range(2, n - 1):
        orders += [2 ** k - 1] * 2 ** (n - 1 - k)
    g, _ = build_wired_tree(3, n)
    assert (sandpile_structure(g).factors
            == cyclic_sum_invariant_factors(orders))


@pytest.mark.parametrize("n, factors", [
    (2, (4,)),
    (3, (4, 52)),
    (4, (4,) * 5 + (52, 520)),
    (5, (4,) * 14 + (52,) * 4 + (520, 62920)),
])
def test_sandpile_structure_quaternary_wired_tree_pinned(n, factors):
    # values of the exact elimination, which smith_oracle still computes
    g, _ = build_wired_tree(4, n)
    assert sandpile_structure(g).factors == factors


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


def test_order_of_generator_rejects_non_recurrent_witness():
    # the 2-cycle o <-> r never returns under e_o: the witness is refused
    # before any routing, not after the step budget runs out
    g = build_graph(["o", "r", "s"], "s",
                    {"o": ["r"], "r": ["o", "s"], "s": ["r"]})
    witness = RotorConfiguration.from_dict(g, {"o": 0, "r": 0})
    for x in ("o", "r"):
        with pytest.raises(NotRecurrentError):
            order_of_generator(g, x, witness=witness)


def test_order_divides_group_order():
    rng = random.Random(17)
    for _ in range(10):
        g = random_multigraph(rng, 4)
        n = sandpile_structure(g).order
        for x in g.rotor_vertices:
            assert n % order_of_generator(g, x) == 0


def test_transitivity_two_cycle():
    assert verify_isomorphism(two_cycle()).transitive_ok


def test_group_checks_respect_enumeration_guard(monkeypatch):
    from rotorlab.graph import TooLargeError
    rng = random.Random(1)
    g = random_multigraph(rng, 5)
    monkeypatch.setattr(group, "CHECK_LIMIT", 1)
    with pytest.raises(TooLargeError, match="exceed limit 1$"):
        verify_isomorphism(g)


def test_transitivity_random_graphs():
    rng = random.Random(19)
    for _ in range(10):
        g = random_multigraph(rng, 4)
        assert verify_isomorphism(g).transitive_ok


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
                    a = route_to_sink(g, route_to_sink(g, t, x)[0], y)[0]
                    b = route_to_sink(g, route_to_sink(g, t, y)[0], x)[0]
                    assert a == b


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


def test_orbit_powers_share_one_step_budget(monkeypatch):
    # the powers of one orbit take their steps from one budget: the orbit's
    # literal step total is enough and one step less raises; the sink's
    # power takes no step
    g, _ = build_wired_tree(3, 3)
    t0 = t = shortest_path_config(g)
    total = order = 0
    while order == 0 or t != t0:
        chip = "r"
        while chip != g.sink:
            t, chip = step(g, t, chip)
            total += 1
        order += 1
    monkeypatch.setattr(group, "DEFAULT_STEP_BUDGET", total)
    assert order_of_generator(g, "r") == order == 7
    monkeypatch.setattr(group, "DEFAULT_STEP_BUDGET", total - 1)
    with pytest.raises(StepBudgetExceededError,
                       match=f"^exceeded {total - 1} steps$"):
        order_of_generator(g, "r")
    monkeypatch.setattr(group, "DEFAULT_STEP_BUDGET", 0)
    assert order_of_generator(g, g.sink) == 1


def test_isomorphism_check_shares_one_step_budget(monkeypatch):
    # the forward routes of the generator tables and the reverse walks that
    # undo them take their steps from one budget: the forward total alone
    # covers either half, not both
    g, _ = build_wired_tree(3, 3)
    forward = 0
    for t in enumerate_recurrent(g, group.CHECK_LIMIT):
        for x in g.vertices:
            chip = x
            while chip != g.sink:
                t, chip = step(g, t, chip)
                forward += 1
    assert forward == 117
    monkeypatch.setattr(group, "DEFAULT_STEP_BUDGET", 2 * forward)
    assert verify_isomorphism(g).ok
    for budget in (2 * forward - 1, forward):
        monkeypatch.setattr(group, "DEFAULT_STEP_BUDGET", budget)
        with pytest.raises(StepBudgetExceededError,
                           match=f"^exceeded {budget} steps$"):
            verify_isomorphism(g)


def power(g, t, x, k):
    """e_x^k(t), one power at a time: route_to_sink for each positive
    power, reverse_walk for each negative one."""
    for _ in range(abs(k)):
        t = route_to_sink(g, t, x)[0] if k > 0 else reverse_walk(g, t, x)
    return t


def transport_oracle(g, t1, t2):
    """Apply prod e_x^{u(x)-v(x)} to t1 through ``power``, following
    the transitivity proof: u(x) counts rotor turns from t1(x) to t2(x),
    v(x) counts chips landing at x when u(y) chips at each y take a single
    step from t1."""
    u = {x: (t2.slot(g, x) - t1.slot(g, x)) % g.outdeg(x)
         for x in g.rotor_vertices}
    v = {x: 0 for x in g.vertices}
    for y in g.rotor_vertices:
        s = t1.slot(g, y)
        for i in range(1, u[y] + 1):
            v[g.out[y][(s + i) % g.outdeg(y)]] += 1
    t = t1
    for x in g.rotor_vertices:
        t = power(g, t, x, u[x] - v[x])
    return t


def transitivity_oracle(g, limit=1_000_000):
    """Literal oracle for transitive_ok: the constructive transport
    from the first state to each other one, then a breadth-first orbit
    under route_to_sink."""
    recs = enumerate_recurrent(g, limit)
    if len(recs) <= 1:
        return True
    t1 = recs[0]
    if any(transport_oracle(g, t1, t2) != t2 for t2 in recs[1:]):
        return False
    seen = {t1.slots}
    frontier = [t1]
    while frontier:
        nxt = []
        for t in frontier:
            for x in g.rotor_vertices:
                t2, _ = route_to_sink(g, t, x)
                if t2.slots not in seen:
                    seen.add(t2.slots)
                    nxt.append(t2)
        frontier = nxt
    return len(seen) == len(recs)


def isomorphism_oracle(g, limit=1_000_000):
    """Literal oracle for verify_isomorphism: every check recomputes each
    generator through route_to_sink or ``power``, call by call."""
    recs = enumerate_recurrent(g, limit)
    structure = sandpile_structure(g)
    relations_ok = True
    for x in g.rotor_vertices:
        for t in recs:
            rhs = t
            for y in g.out[x]:
                rhs = route_to_sink(g, rhs, y)[0]
            if power(g, t, x, g.outdeg(x)) != rhs:
                relations_ok = False
    commutes_ok = all(
        route_to_sink(g, route_to_sink(g, t, x)[0], y)[0]
        == route_to_sink(g, route_to_sink(g, t, y)[0], x)[0]
        for x, y in combinations(g.rotor_vertices, 2) for t in recs)
    bijective_ok = True
    for x in g.vertices:
        images = set()
        for t in recs:
            t2, _ = route_to_sink(g, t, x)
            images.add(t2.slots)
            if reverse_walk(g, t2, x) != t:
                bijective_ok = False
        if len(images) != len(recs):
            bijective_ok = False
    return IsomorphismReport(
        rec_count=len(recs),
        sp_order=structure.order,
        invariant_factors=structure.factors,
        relations_ok=relations_ok,
        commutes_ok=commutes_ok,
        transitive_ok=transitivity_oracle(g, limit),
        sink_identity_ok=all(route_to_sink(g, t, g.sink)[0] == t
                             for t in recs),
        bijective_ok=bijective_ok,
    )


def test_verify_isomorphism_matches_literal_oracle():
    rng = random.Random(53)
    graphs = [random_multigraph(rng, 3 + k % 4) for k in range(60)]
    graphs.append(build_wired_tree(3, 3)[0])
    for g in graphs:
        want = isomorphism_oracle(g).to_json_dict()
        assert want["ok"]
        assert verify_isomorphism(g).to_json_dict() == want


def test_swapped_generator_images_fail_the_check(monkeypatch):
    real = group._generator_tables

    def swapped(g, fulls, budget):
        perm = real(g, fulls, budget)
        row = perm[g.index["a"]]
        row[0], row[1] = row[1], row[0]
        return perm

    monkeypatch.setattr(group, "_generator_tables", swapped)
    rep = verify_isomorphism(triangle())
    assert rep.ok is False
    # the literal reverse walk returns the other preimage
    assert rep.bijective_ok is False
    # and every check on the whole tables sees the swap
    assert rep.relations_ok is False
    assert rep.commutes_ok is False
    assert rep.transitive_ok is False


def test_generator_image_outside_recurrent_states_raises(monkeypatch):
    # the tables are built over all but the last state, whose preimages
    # then land outside the index
    real = group._generator_tables
    monkeypatch.setattr(group, "_generator_tables",
                        lambda g, fulls, budget: real(g, fulls[:-1], budget))
    with pytest.raises(NotRecurrentError):
        verify_isomorphism(triangle())


def test_generator_tables_match_route_to_sink():
    # every state's image under every generator, the sink's identity
    # included, one route_to_sink call each
    rng = random.Random(73)
    graphs = [random_multigraph(rng, 4 + k % 4) for k in range(24)]
    graphs.append(build_wired_tree(3, 3)[0])
    for g in graphs:
        recs = enumerate_recurrent(g)
        where = {t: i for i, t in enumerate(recs)}
        want = [[where[route_to_sink(g, t, x)[0]] for t in recs]
                for x in g.vertices]
        fulls = [g.slots_to_full(t) for t in recs]
        budget = _budget(group.DEFAULT_STEP_BUDGET)
        assert group._generator_tables(g, fulls, budget) == want


def test_orbit_period_matches_route_to_sink_loop():
    rng = random.Random(59)
    for _ in range(20):
        g = random_multigraph(rng, rng.randrange(2, 7))
        t0 = random_recurrent_config(g, rng)
        for x in g.vertices:
            t, k = route_to_sink(g, t0, x)[0], 1
            while t != t0:
                t, k = route_to_sink(g, t, x)[0], k + 1
            assert group._orbit_period(g, x, t0) == k


@pytest.mark.parametrize("n", range(2, 11))
def test_root_order_of_ternary_wired_tree(n):
    # the paper's root order: e_r has order 2^n - 1 on wired(3, n)
    assert order_of_generator(build_wired_tree(3, n)[0], "r") == 2 ** n - 1
