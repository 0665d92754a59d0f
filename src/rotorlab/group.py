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
from dataclasses import dataclass, field

from rotorlab.graph import (
    DirectedMultigraph,
    GraphError,
    ResultCheckError,
    RotorConfiguration,
    enumerate_recurrent,
    is_recurrent,
    rank_and_minor,
    reduced_laplacian,
    spanning_tree_count,
)
from rotorlab.walk import reverse_walk, route_to_sink


class NotRecurrentError(GraphError):
    pass


class BudgetExceededError(GraphError):
    pass


def apply_generator(g: DirectedMultigraph, t: RotorConfiguration, x: str,
                    exponent: int = 1) -> RotorConfiguration:
    """e_x^exponent(t); negative exponents run the inverse via reverse_walk."""
    if not is_recurrent(g, t):
        raise NotRecurrentError("generators act on recurrent configurations")
    if x == g.sink:
        return t           # e_s is the identity
    for _ in range(abs(exponent)):
        if exponent > 0:
            t, _ = route_to_sink(g, t, x)
        else:
            t = reverse_walk(g, t, x)
    return t


def order_of_generator(g: DirectedMultigraph, x: str,
                       witness: RotorConfiguration | None = None,
                       cap: int = 10 ** 7,
                       verify_witnesses: int = 0,
                       rng: random.Random | None = None) -> int:
    """Smallest k >= 1 with e_x^k(witness) == witness.

    The action is transitive and abelian, so the period of any orbit point
    equals the order of e_x in the group; ``verify_witnesses`` extra random
    witnesses are checked for agreement.
    """
    from rotorlab.sampling import random_recurrent_config
    from rotorlab.graph import shortest_path_config

    if witness is None:
        witness = shortest_path_config(g)
    order = _orbit_period(g, x, witness, cap)
    if verify_witnesses:
        rng = rng or random.Random(0)
        for _ in range(verify_witnesses):
            w = random_recurrent_config(g, rng)
            if _orbit_period(g, x, w, cap) != order:
                raise ResultCheckError("generator order depends on witness; bug")
    return order


def _orbit_period(g: DirectedMultigraph, x: str, t0: RotorConfiguration,
                  cap: int) -> int:
    t = t0
    for k in range(1, cap + 1):
        t, _ = route_to_sink(g, t, x)
        if t == t0:
            return k
    raise BudgetExceededError(f"order of e_{x} exceeds cap {cap}")


@dataclass(frozen=True)
class GroupElement:
    """Formal product of generators: vertex -> integer exponent.

    Application order is irrelevant because the generators commute; negative
    exponents run the inverse walks.
    """

    exponents: tuple[tuple[str, int], ...]

    @staticmethod
    def from_dict(exps: dict[str, int]) -> "GroupElement":
        return GroupElement(tuple(sorted(exps.items())))

    def apply(self, g: DirectedMultigraph,
              t: RotorConfiguration) -> RotorConfiguration:
        for x, k in self.exponents:
            t = apply_generator(g, t, x, k)
        return t

    def compose(self, other: "GroupElement") -> "GroupElement":
        exps = dict(self.exponents)
        for x, k in other.exponents:
            exps[x] = exps.get(x, 0) + k
        return GroupElement.from_dict(exps)


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


def verify_transitivity(g: DirectedMultigraph,
                        limit: int = 1_000_000) -> bool:
    """The generators reach every recurrent state from every other.

    Checks the constructive group element prod e_x^{u(x)-v(x)} mapping the
    first canonical state to each other state, then confirms orbit closure
    by breadth-first search as an independent route.
    """
    recs = enumerate_recurrent(g, limit)
    if len(recs) <= 1:
        return True
    t1 = recs[0]
    for t2 in recs[1:]:
        if _constructive_transport(g, t1, t2) != t2:
            return False
    # independent confirmation: BFS orbit of t1 under all generators
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


def _constructive_transport(g: DirectedMultigraph, t1: RotorConfiguration,
                            t2: RotorConfiguration) -> RotorConfiguration:
    """Apply prod e_x^{u(x)-v(x)} to t1, following the transitivity proof.

    u(x) counts rotor turns from t1(x) to t2(x); v(x) counts chips landing
    at x when u(y) chips at each y take a single step from t1.
    """
    u: dict[str, int] = {}
    for x in g.rotor_vertices:
        u[x] = (t2.slot(g, x) - t1.slot(g, x)) % g.outdeg(x)
    v: dict[str, int] = {x: 0 for x in g.vertices}
    for y in g.rotor_vertices:
        s = t1.slot(g, y)
        for i in range(1, u[y] + 1):
            tgt = g.out[y][(s + i) % g.outdeg(y)]
            v[tgt] += 1
    t = t1
    for x in g.rotor_vertices:
        t = apply_generator(g, t, x, u[x] - v.get(x, 0))
    return t


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
    notes: list[str] = field(default_factory=list)

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


def verify_isomorphism(g: DirectedMultigraph,
                       limit: int = 1_000_000) -> IsomorphismReport:
    """Check the group isomorphism exhaustively on the recurrent states.

    Verifies that the recurrent-state count equals the Smith normal form
    group order, that each Laplacian relation e_x^{d_x} = prod_y e_y^{d_xy}
    holds as a map, that e_sink acts as the identity, that generators
    commute pairwise, that the action is transitive, and that each e_x is a
    bijection inverted by reverse_walk.
    """
    recs = enumerate_recurrent(g, limit)
    structure = sandpile_structure(g)

    relations_ok = True
    for x in g.rotor_vertices:
        dx = g.outdeg(x)
        for t in recs:
            lhs = apply_generator(g, t, x, dx)
            rhs = t
            for y in g.out[x]:
                rhs = apply_generator(g, rhs, y, 1)
            if lhs != rhs:
                relations_ok = False
                break
        if not relations_ok:
            break

    sink_identity_ok = all(route_to_sink(g, t, g.sink)[0] == t for t in recs)

    commutes_ok = True
    for xi, x in enumerate(g.rotor_vertices):
        for y in g.rotor_vertices[xi + 1:]:
            for t in recs:
                xy = apply_generator(g, apply_generator(g, t, x), y)
                yx = apply_generator(g, apply_generator(g, t, y), x)
                if xy != yx:
                    commutes_ok = False
                    break
            if not commutes_ok:
                break
        if not commutes_ok:
            break

    bijective_ok = True
    for x in g.vertices:
        images = set()
        for t in recs:
            t2, _ = route_to_sink(g, t, x)
            images.add(t2.slots)
            if reverse_walk(g, t2, x) != t:
                bijective_ok = False
                break
        if len(images) != len(recs):
            bijective_ok = False
        if not bijective_ok:
            break

    transitive_ok = verify_transitivity(g, limit)

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
