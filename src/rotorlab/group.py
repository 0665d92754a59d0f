"""The rotor-router group acting on recurrent states, and the sandpile group.

Generators e_x add a chip at x and route it to the sink; they act bijectively
on the recurrent configurations and commute.  The sandpile group is computed
independently as the cokernel of the reduced Laplacian via Smith normal form
over the integers, and the two sides are compared.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator

from rotorlab.graph import (
    DirectedMultigraph,
    GraphError,
    ResultCheckError,
    RotorConfiguration,
    TooLargeError,
    enumerate_recurrent,
    is_recurrent,
    rank_and_minor,
    reduced_laplacian,
    shortest_path_config,
    spanning_tree_count,
)
from rotorlab.sampling import random_recurrent_config
from rotorlab.walk import (DEFAULT_STEP_BUDGET, _budget, _reverse, _route,
                           _stop_flags)


# The most rotor configurations the exhaustive checks enumerate.
CHECK_LIMIT = 1_000_000
# The most check work the CLI takes on: configurations times the sum of
# the out-degrees, as the relation check composes d_x - 1 whole tables on
# each side for vertex x, about 2 d_x table reads per vertex and state.
# wired(3, 4) takes 45,927.
CHECK_WORK_LIMIT = 10_000_000


class NotRecurrentError(GraphError):
    pass


def check_work_limit(degrees: list[int]) -> None:
    """Raise TooLargeError when the rotor vertices' out-degrees give more
    check work than CHECK_WORK_LIMIT.  Run it after the configuration
    limit, which keeps their product small."""
    work = math.prod(degrees) * sum(degrees)
    if work > CHECK_WORK_LIMIT:
        raise TooLargeError(
            f"{work} check steps exceed limit {CHECK_WORK_LIMIT}")


def order_of_generator(g: DirectedMultigraph, x: str,
                       witness: RotorConfiguration | None = None,
                       verify_witnesses: int = 0,
                       rng: random.Random | None = None) -> int:
    """Smallest k >= 1 with e_x^k(witness) == witness.

    The action is transitive and abelian, so the period of any orbit point
    equals the order of e_x in the group; ``verify_witnesses`` extra random
    witnesses are checked for agreement.  A witness that is not recurrent
    raises NotRecurrentError before any routing.  Each orbit's powers share
    one budget of DEFAULT_STEP_BUDGET steps, and every power but the
    sink's takes a step, so the budget bounds the order too: an orbit that
    needs more steps raises StepBudgetExceededError.
    """
    if witness is None:
        witness = shortest_path_config(g)
    elif not is_recurrent(g, witness):
        # off the recurrent states an orbit need not return to its start
        raise NotRecurrentError("generators act on recurrent configurations")
    order = _orbit_period(g, x, witness)
    if verify_witnesses:
        rng = rng or random.Random(0)
        for _ in range(verify_witnesses):
            w = random_recurrent_config(g, rng)
            if _orbit_period(g, x, w) != order:
                raise ResultCheckError("generator order depends on witness; bug")
    return order


def _orbit_period(g: DirectedMultigraph, x: str,
                  t0: RotorConfiguration) -> int:
    t0.validate(g)
    if x not in g.index:
        raise GraphError(f"unknown vertex {x!r}")
    start = g.slots_to_full(t0)
    full = start[:]
    v = g.index[x]
    fulls = (full,)
    flags = _stop_flags(g)
    budget = _budget(DEFAULT_STEP_BUDGET)
    for k in count(1):
        _route(g, v, fulls, flags, budget)
        if full == start:
            return k


@dataclass(frozen=True)
class SandpileGroupStructure:
    """Invariant factors f_1 | f_2 | ... of the sandpile group (1s dropped)."""

    factors: tuple[int, ...]

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n


def smith_invariant_factors(mat: list[list[int]]) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form of an integer matrix.

    Each pivot is a smallest nonzero entry of the remaining block; Euclid
    remainders in its row and column replace it until it divides them, and
    a final divisibility pass enforces f_i | f_{i+1}.

    While every pivot divides its row and column, each step is a Gaussian
    elimination step, so every entry is a ratio of two minors of the input
    and stays below Hadamard's bound.  After the first Euclid round that
    leaves a remainder, the rest is eliminated modulo D (Domich, Kannan and
    Trotter): the lcm of the finished pivots and of a nonzero r x r minor
    of the block that remains, r being the block's rank, both from Bareiss
    elimination.  Adding a multiple of D to an entry is a row operation on
    the matrix stacked over D * I, whose cokernel is the torsion of the
    matrix's, in which every factor divides D, plus a copy of Z_D for each
    free dimension.  So every entry that an update produces is kept as its
    symmetric residue mod D, at most D / 2 in absolute value; a diagonal
    entry d stands for gcd(d, D), a missing one for D, and the copies of
    Z_D from the free dimensions sort to the end of the chain, where they
    are dropped.
    """
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    D = 0
    # symmetric residues lie in [-half, half]; until a modulus is known
    # nothing is out of range, so the reduction never runs
    half = math.inf
    lo = -half
    diag: list[int] = []
    top = 0
    while top < rows and top < cols:
        # locate a smallest nonzero entry in the remaining block
        best = None
        bv = 0
        for i in range(top, rows):
            row = m[i]
            for j in range(top, cols):
                v = abs(row[j])
                if v and (not bv or v < bv):
                    best, bv = (i, j), v
                    if v == 1:
                        break
            if bv == 1:
                break
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        if bj != top:
            # finished rows are zero beyond their pivot
            for row in m[top:]:
                row[top], row[bj] = row[bj], row[top]
        while True:
            dirty = False
            # clear the column: row updates, skipping zero multipliers and
            # the zeros of the pivot row
            prow = m[top]
            for i in range(top + 1, rows):
                row = m[i]
                if row[top]:
                    q = row[top] // prow[top]
                    if q:
                        for j in range(top, cols):
                            c = prow[j]
                            if c:
                                x = row[j] - q * c
                                if x > half or x < lo:
                                    x = (x + half) % D - half
                                row[j] = x
                    if row[top]:
                        m[top], m[i] = row, prow
                        prow = row
                        dirty = True
            # clear the row: column updates, likewise
            for j in range(top + 1, cols):
                if prow[j]:
                    q = prow[j] // prow[top]
                    if q:
                        for i in range(top, rows):
                            row = m[i]
                            c = row[top]
                            if c:
                                x = row[j] - q * c
                                if x > half or x < lo:
                                    x = (x + half) % D - half
                                row[j] = x
                    if prow[j]:
                        for row in m[top:]:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
            if not dirty:
                break
            if not D:
                # the pivot left a remainder: from here on, work mod D
                r, minor = rank_and_minor([row[top:] for row in m[top:]])
                D = math.lcm(minor, *diag)
                rank = top + r
                half = D // 2
                lo = -half
        diag.append(abs(m[top][top]))
        top += 1
    if D:
        diag = [math.gcd(x, D) for x in diag] + [D] * (cols - len(diag))
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
    return diag[:rank] if D else diag


def sandpile_structure(g: DirectedMultigraph) -> SandpileGroupStructure:
    """Invariant factors of Z^{V minus sink} / (reduced Laplacian rows)."""
    mat = reduced_laplacian(g)
    diag = smith_invariant_factors(mat)
    factors = tuple(f for f in diag if f > 1)
    return SandpileGroupStructure(factors)


def _generator_tables(g: DirectedMultigraph, fulls: list[list[int]],
                      budget: Iterator[None]) -> list[list[int]]:
    """Each generator's action as a table over the recurrent states, given
    as per-vertex slot lists.

    ``perm[v][i]`` is the index in ``fulls`` of e_x(fulls[i]), x being the
    vertex with index v.  One ``_route`` call per vertex, the kernel of
    ``route_to_sink``, routes x's chip on a copy of each state in turn,
    each step taking one item of ``budget``.  The sink's chip starts on a
    stop, so its table is the identity.
    """
    # keyed on whole lists: the sink is a stop, so its unused entry stays 0
    where = {tuple(full): i for i, full in enumerate(fulls)}
    flags = _stop_flags(g)
    perm = []
    for v in range(len(g.vertices)):
        row: list[int | None] = []
        _route(g, v, _copies(fulls, where, row), flags, budget)
        if None in row:
            raise NotRecurrentError("generators act on recurrent "
                                    "configurations")
        perm.append(row)
    return perm


def _copies(fulls: list[list[int]], where: dict[tuple[int, ...], int],
            row: list[int | None]) -> Iterator[list[int]]:
    """A copy of each slot list of ``fulls`` in turn, for ``_route`` to
    route a chip on.  ``_route`` is done with a copy when it asks for the
    next, so on resuming this appends to ``row`` the index in ``where`` of
    the routed copy, or None; one copy is alive at a time."""
    for full in fulls:
        image = full[:]
        yield image
        row.append(where.get(tuple(image)))


def _composed(tables: list[list[int]]) -> list[int]:
    """The table of ``tables`` applied in turn, first to last: one list per
    composition."""
    table = tables[0]
    for t in tables[1:]:
        table = [t[i] for i in table]
    return table


def _transitive(g: DirectedMultigraph, fulls: list[list[int]],
                perm: list[list[int]]) -> bool:
    """Transitivity of the action given by the generator tables, on the
    states' per-vertex slot lists.

    Applies the constructive group element prod e_x^{u(x)-v(x)} of the
    transitivity proof to the first state, one table lookup per power,
    aiming at each other state: u(x) counts rotor turns from t1(x) to
    t2(x), v(x) counts chips landing at x when u(y) chips at each y take a
    single step from t1.  Negative exponents use the inverse tables.
    False when a table is not a permutation.
    """
    n = len(fulls)
    inv = []
    for row in perm:
        back = [-1] * n
        for i, j in enumerate(row):
            back[j] = i
        if -1 in back:
            return False
        inv.append(back)
    if n <= 1:
        return True
    movers = [v for v in range(len(g.vertices)) if v != g.sink_index]
    t1 = fulls[0]
    # per mover: its index, t1's slot and degree there, and where t1's
    # rotor points after 1, 2, ... turns
    rows = []
    for y in movers:
        out, s, d = g.out_idx[y], t1[y], g.deg_idx[y]
        rows.append((y, s, d, [out[(s + j) % d] for j in range(1, d)]))
    for k in range(1, n):
        t2 = fulls[k]
        # e[x] = u(x) - v(x)
        e = [0] * len(g.vertices)
        for y, s, d, targets in rows:
            u = (t2[y] - s) % d
            if u:
                e[y] += u
                for w in targets[:u]:
                    e[w] -= 1
        i = 0
        for x in movers:
            ex = e[x]
            if ex > 0:
                table = perm[x]
            elif ex:
                table, ex = inv[x], -ex
            else:
                continue
            for _ in range(ex):
                i = table[i]
        if i != k:
            return False
    return True


def _round_trips(g: DirectedMultigraph, fulls: list[list[int]],
                 perm: list[list[int]], budget: Iterator[None]) -> bool:
    """Every generator table is injective, and the literal reverse walk in
    ``_reverse``, each step taking one item of ``budget``, maps each image
    e_x(t) back to t; False at the first failure."""
    n = len(fulls)
    # each state's rotor targets, from its slot list; the sink's entry
    # points at the sink
    outs = [*g.out_idx]
    outs[g.sink_index] = (g.sink_index,)
    tgts = [[out[s] for out, s in zip(outs, full)] for full in fulls]
    for x, row in enumerate(perm):
        if len(set(row)) != n:
            return False
        for i, j in enumerate(row):
            full = fulls[j][:]
            _reverse(g, full, tgts[j][:], x, True, budget)
            if full != fulls[i]:
                return False
    return True


@dataclass
class IsomorphismReport:
    """Exhaustive checks that the rotor-router and sandpile groups agree."""

    rec_count: int
    sp_order: int
    invariant_factors: tuple[int, ...]
    relations_ok: bool
    commutes_ok: bool
    transitive_ok: bool
    sink_identity_ok: bool
    bijective_ok: bool

    @property
    def ok(self) -> bool:
        return (self.rec_count == self.sp_order and self.relations_ok
                and self.commutes_ok and self.transitive_ok
                and self.sink_identity_ok and self.bijective_ok)

    def to_json_dict(self) -> dict:
        return {
            "rec_count": self.rec_count,
            "sp_order": self.sp_order,
            "invariant_factors": list(self.invariant_factors),
            "relations_ok": self.relations_ok,
            "commutes_ok": self.commutes_ok,
            "transitive_ok": self.transitive_ok,
            "sink_identity_ok": self.sink_identity_ok,
            "bijective_ok": self.bijective_ok,
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def verify_isomorphism(g: DirectedMultigraph) -> IsomorphismReport:
    """Check the group isomorphism exhaustively on the recurrent states.

    Each e_x is computed once per recurrent state, as a table of state
    indices, by routing the chip literally with ``_route``.  The checks
    then compose those tables whole: each Laplacian relation
    e_x^{d_x} = prod_{y in out(x)} e_y is one equality of two composed
    tables, and each pair of generators commutes when e_x e_y and e_y e_x
    are equal tables.  It also verifies that every e_x is injective, that
    the action is transitive, and that the recurrent-state count equals the
    Smith normal form group order.  Each state's per-vertex slot list is
    built once.  The sink's table, routed like the others, must be the
    identity, and the reverse walk, step by step in ``_reverse`` on those
    lists, maps every e_x(t) back to t.  Every state comes from the
    enumeration, so each reverse walk starts as recurrent.  The
    sink-identity check cannot fail: the chip starts on the sink, which is
    a stop, so ``_route`` returns at once and moves no rotor.

    The recurrent states are enumerated over at most CHECK_LIMIT rotor
    configurations; more raise TooLargeError.  The forward routes and the
    reverse walks share one budget of DEFAULT_STEP_BUDGET steps;
    StepBudgetExceededError is raised when their total would pass it.  Both
    constants are read when the check starts.
    """
    recs = enumerate_recurrent(g, CHECK_LIMIT)
    structure = sandpile_structure(g)
    fulls = [g.slots_to_full(t) for t in recs]
    budget = _budget(DEFAULT_STEP_BUDGET)
    perm = _generator_tables(g, fulls, budget)
    sink = g.sink_index
    movers = [v for v in range(len(g.vertices)) if v != sink]

    relations_ok = all(
        _composed([perm[x]] * g.deg_idx[x])
        == _composed([perm[y] for y in g.out_idx[x]])
        for x in movers)

    sink_identity_ok = perm[sink] == list(range(len(fulls)))

    commutes_ok = all(
        _composed([perm[x], perm[y]]) == _composed([perm[y], perm[x]])
        for xi, x in enumerate(movers) for y in movers[xi + 1:])

    bijective_ok = _round_trips(g, fulls, perm, budget)
    transitive_ok = _transitive(g, fulls, perm)

    report = IsomorphismReport(
        rec_count=len(recs),
        sp_order=structure.order,
        invariant_factors=structure.factors,
        relations_ok=relations_ok,
        commutes_ok=commutes_ok,
        transitive_ok=transitive_ok,
        sink_identity_ok=sink_identity_ok,
        bijective_ok=bijective_ok,
    )
    if structure.order != spanning_tree_count(g):
        raise ResultCheckError("sandpile group order differs from the "
                               "spanning-tree count")
    return report
