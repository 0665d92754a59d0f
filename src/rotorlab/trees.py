"""Finite regular-tree constructions and experiments.

Builders produce the height-n regular tree T_n (every non-leaf vertex has
a = d-1 children, leaves at depth n-1), the hat tree (T_n plus an extra leaf
o attached to the root), the wired tree (hat tree with every leaf, o
included, collapsed into a single sink; parallel edges kept), and the branch
Y_n (hat tree with every leaf except o collapsed to a boundary vertex b).

Rotor order at every vertex: children in child-index order, parent last, so
direction k is slot k-1 and direction d is the parent edge.

Tree vertices are numbered in BFS order, and that numbering is the one
layout rule: with a = d-1, vertex j has its children at positions
a*j+1 ... a*j+a and its parent at (j-1)//a.  Every builder places the
internal vertices in one run of the vertex order, from the root, so a
rotor slot is found by position and no vertex name is looked up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from operator import add
from typing import Iterable, Sequence

from rotorlab.graph import (
    DirectedMultigraph,
    GraphError,
    NotAcyclicError,
    ResultCheckError,
    RotorConfiguration,
    build_index_graph,
)
from rotorlab.walk import route_all


class BadParametersError(GraphError):
    pass


@dataclass
class TreeInfo:
    """Structure shared by the tree builders.

    ``internal`` holds the tree vertices of depth 0 to n-2 and ``leaves``
    those of depth n-1, both in BFS order; the hat tree's ``leaves`` put o
    first.  Past o, ``internal + leaves`` is the BFS numbering of T_n:
    vertex j has its children at positions a*j+1 ... a*j+a and its parent
    at (j-1)//a, with a = d-1.  The wired tree and the branch merge the
    depth n-1 vertices away, so their names are made on the first read of
    ``leaves``.
    """

    d: int
    n: int
    internal: list[str]     # rotor-bearing tree vertices
    root: str = "r"

    @cached_property
    def leaves(self) -> list[str]:
        return _children(self.internal[-(self.d - 1) ** (self.n - 2):], self.d)


def _check_params(d: int, n: int) -> None:
    if d < 3:
        raise BadParametersError("degree d must be at least 3")
    if n < 2:
        raise BadParametersError("height n must be at least 2")


def _children(level: list[str], d: int) -> list[str]:
    """The names of the children of ``level``'s vertices, in BFS order."""
    suffixes = [f"/{i}" for i in range(1, d)]
    return [p + x for p in level for x in suffixes]


def _tree_skeleton(d: int, n: int) -> TreeInfo:
    """The internal names of T_n, built level by level; ``leaves`` names
    the depth n-1 level when it is read."""
    internal, level = ["r"], ["r"]
    for _ in range(2, n):
        level = _children(level, d)
        internal += level
    return TreeInfo(d=d, n=n, internal=internal)


def _tree_graph(d: int, n: int, up: str | None,
                merge: str | None) -> tuple[DirectedMultigraph, TreeInfo]:
    """T_n with the root's parent edge going to ``up`` and the leaves merged
    into the vertex ``merge``; None means no parent edge / leaves kept.

    The sink is ``up``, or the root when there is no parent edge.  Vertex
    order: ``up`` when it is an extra vertex, then the tree vertices in BFS
    order, then ``merge``.  The merged vertex has one edge back along every
    edge into it, in the order of their tails.
    """
    _check_params(d, n)
    info = _tree_skeleton(d, n)
    a = d - 1
    head = () if up in (None, merge) else (up,)
    tree = info.internal if merge else info.internal + info.leaves
    vertices = (*head, *tree, *([merge] if merge else ()))
    index = dict(zip(vertices, range(len(vertices))))
    ids = [*index.values()]     # one int object per vertex, shared by edges
    r, end = len(head), len(head) + len(tree)   # the run of tree vertices
    last = r + (len(tree) - 1) // a     # the first with no tree children
    # a run of a children per parent; then the leaves, or the last internal
    # level, whose a children are merged
    kids = chain(zip(*[iter(ids[r + 1:end])] * a),
                 repeat((ids[-1],) * a if merge else (), end - last))
    ups = chain([(index[up],) if up else ()],
                ((p,) for p in ids[r:end] for _ in range(a)))
    out_idx = [(ids[r],)] if head else []     # up to the root
    out_idx += map(add, kids, ups)
    if merge:
        out_idx.append(((ids[r],) if up == merge else ()) + tuple(
            v for v in ids[last:end] for _ in range(a)))
    elif up:
        info.leaves = [up, *info.leaves]
    return build_index_graph(vertices, up or "r", out_idx, index), info


def build_plain_tree(d: int, n: int) -> tuple[DirectedMultigraph, TreeInfo]:
    """T_n alone, bidirected, rooted sink at r."""
    return _tree_graph(d, n, up=None, merge=None)


def build_hat_tree(d: int, n: int) -> tuple[DirectedMultigraph, TreeInfo]:
    """T_n plus an extra leaf o attached to the root; bidirected; sink o.

    Chips are stopped on the leaf set {o} + (depth n-1 vertices); the
    rotors at those leaves never fire.
    """
    return _tree_graph(d, n, up="o", merge=None)


def build_wired_tree(d: int, n: int) -> tuple[DirectedMultigraph, TreeInfo]:
    """Hat tree with all leaves (o included) collapsed to the sink s.

    Edges are kept, not collapsed: the root has one edge to s (the former o
    edge) and every other neighbor of s has a = d-1 parallel edges to s.
    """
    return _tree_graph(d, n, up="s", merge="s")


def build_branch(d: int, n: int) -> tuple[DirectedMultigraph, TreeInfo]:
    """Y_n: hat tree with all leaves except o collapsed to a boundary b."""
    return _tree_graph(d, n, up="o", merge="b")


def _internal_run(g: DirectedMultigraph, info: TreeInfo) -> slice:
    """Where the internal tree vertices lie in the vertex order."""
    lo = g.index[info.root]
    return slice(lo, lo + len(info.internal))


def _parent_points_at(slots: Sequence[int], a: int, j: int) -> bool:
    """The rotor at position (j-1)//a, the parent of internal position
    j > 0, points at j."""
    p, i = divmod(j - 1, a)
    return slots[p] == i


def _internal_config(g: DirectedMultigraph, info: TreeInfo,
                     slots: Iterable[int]) -> RotorConfiguration:
    """``slots`` at the internal tree vertices, in BFS order; slot 0
    elsewhere."""
    full = [0] * len(g.vertices)
    full[_internal_run(g, info)] = slots
    return g.full_to_slots(full)


def uniform_direction_config(g: DirectedMultigraph, info: TreeInfo,
                             direction: int) -> RotorConfiguration:
    """All internal tree rotors set to one direction (1-based); rest slot 0.

    Only the internal vertices carry meaningful rotors; leaf and boundary
    rotors never fire in any experiment here.
    """
    degs = g.deg_idx[_internal_run(g, info)]
    for v, deg in zip(info.internal, degs):
        if not 1 <= direction <= deg and v != g.sink:
            raise BadParametersError(f"direction {direction} out of range at {v!r}")
    return _internal_config(g, info, [direction - 1] * len(degs))


def internal_slots(g: DirectedMultigraph, info: TreeInfo,
                   t: RotorConfiguration) -> tuple[int, ...]:
    """Rotor slots restricted to the internal tree vertices, in BFS order;
    -1 at the plain tree's root, which is its sink and has no rotor."""
    full = g.slots_to_full(t)
    full[g.sink_index] = -1     # points nowhere
    return tuple(full[_internal_run(g, info)])


def is_acyclic_tree_config(g: DirectedMultigraph, info: TreeInfo,
                           t: RotorConfiguration) -> bool:
    """No parent/child pair of internal tree vertices points at each other.

    Leaf rotors never fire and are ignored, matching the quotient in which
    the configuration lives on the wired tree.  The plain tree's root is its
    sink and has no rotor, so no pair with it is cyclic.
    """
    slots = internal_slots(g, info, t)
    degs = g.deg_idx[_internal_run(g, info)]
    return not any(slots[j] == degs[j] - 1
                   and _parent_points_at(slots, info.d - 1, j)
                   for j in range(1, len(slots)))


def random_acyclic_tree_config(g: DirectedMultigraph, info: TreeInfo,
                               rng: random.Random) -> RotorConfiguration:
    """Random acyclic rotor state, sampled top-down.

    Each internal vertex draws uniformly among its slots, excluding the
    parent slot when the parent's rotor already points at it; leaf slots are
    fixed.  Every acyclic configuration has positive probability.  The
    plain tree's root is its sink and draws nothing.
    """
    a = info.d - 1
    run = _internal_run(g, info)
    slots: list[int] = []
    for j, deg in enumerate(g.deg_idx[run]):    # BFS: parents precede children
        if run.start + j == g.sink_index:
            slots.append(-1)    # points nowhere
            continue
        choices = list(range(deg))
        if j and _parent_points_at(slots, a, j):
            choices.remove(deg - 1)
        slots.append(rng.choice(choices))
    t = _internal_config(g, info, slots)
    if not is_acyclic_tree_config(g, info, t):
        raise ResultCheckError("sampled tree configuration is not acyclic")
    return t


# -- hitting probabilities on the hat tree ---------------------------------

def _solve_harmonic(info: TreeInfo, boundary: dict[str, Fraction]) -> dict[str, Fraction]:
    """Exact solve of the discrete Dirichlet problem on the hat tree.

    The function is harmonic at the root and every internal vertex, and
    fixed on the leaves (o and the depth n-1 vertices).  Upward elimination,
    deepest level first, writes H(v) = alpha + beta * H(parent), the root's
    parent being the leaf o.  alpha and beta depend only on v's subtree
    type: a leaf's boundary value, or the tuple of the children's types.
    So the Fraction work is done once per type going up, and once per
    (type, parent value) going down.  ``info`` is a skeleton: its leaves
    are the depth n-1 vertices, in BFS order.
    """
    a = info.d - 1
    kinds: dict = {}        # type -> type id
    ids = [kinds.setdefault(boundary[z], len(kinds)) for z in info.leaves]
    alpha = list(kinds)     # a leaf's H is its value + 0 * H(parent)
    beta = [Fraction(0)] * len(alpha)
    typed = []
    for _ in range(info.n - 1):     # a level up: a key per run of a child ids
        ids = [kinds.setdefault(key, len(kinds)) for key in zip(*[iter(ids)] * a)]
        for key in list(kinds)[len(alpha):]:
            den = a + 1 - sum(map(beta.__getitem__, key))
            alpha.append(sum(map(alpha.__getitem__, key)) / den)
            beta.append(1 / den)
        typed.append(ids)
    values = [boundary["o"]]    # value id 0: o, the root's parent
    down: dict[tuple[int, int], int] = {}     # (type, parent value) -> value
    vids = [0]
    placed: list[int] = []      # value ids of the internal vertices, BFS
    for ids in reversed(typed):
        parents = [p for p in vids for _ in range(a)]
        vids = [down.setdefault(key, len(down) + 1) for key in zip(ids, parents)]
        for t, p in list(down)[len(values) - 1:]:
            values.append(alpha[t] + beta[t] * values[p])
        placed += vids
    H = dict(boundary)
    H.update(zip(info.internal, map(values.__getitem__, placed)))
    return H


def _indicator_boundary(info: TreeInfo, target: str) -> dict[str, Fraction]:
    """Boundary values 1 at ``target`` and 0 at every other hat-tree leaf."""
    return {v: Fraction(v == target) for v in ["o", *info.leaves]}


def hitting_probabilities(d: int, n: int, verify: bool = True,
                          ) -> tuple[dict[str, Fraction], Fraction]:
    """Exact leaf-hitting probabilities for random walk from the root.

    Returns a map from each hat-tree leaf to the probability that simple
    random walk started at r is absorbed there, together with the common
    value at the non-o leaves.  With ``verify`` the closed forms
    (a^{n-1}-1)/(a^n-1) at o and (a-1)/(a^n-1) elsewhere are checked, as is
    the total mass.
    """
    _check_params(d, n)
    info = _tree_skeleton(d, n)
    a = d - 1
    p_o = _solve_harmonic(info, _indicator_boundary(info, "o"))["r"]
    z0 = info.leaves[0]
    h_r = _solve_harmonic(info, _indicator_boundary(info, z0))["r"]

    if verify:
        closed_o = Fraction(a ** (n - 1) - 1, a ** n - 1)
        closed_z = Fraction(a - 1, a ** n - 1)
        if p_o != closed_o or h_r != closed_z:
            raise ResultCheckError("harmonic solve disagrees with closed forms")
        if p_o + (a ** (n - 1)) * h_r != 1:
            raise ResultCheckError("leaf probabilities do not sum to 1")
        bnd = _indicator_boundary(info, info.leaves[-1])     # another leaf
        if _solve_harmonic(info, bnd)["r"] != h_r:
            raise ResultCheckError("leaf symmetry violated")

    probs = {z: h_r for z in info.leaves}
    probs["o"] = p_o
    return probs, h_r


def harmonic_field_for_leaf(d: int, n: int, z: str) -> dict[str, Fraction]:
    """Full hitting-probability function H(x) = P_x(stop at z) on the hat tree."""
    _check_params(d, n)
    info = _tree_skeleton(d, n)
    boundary = _indicator_boundary(info, z)
    if z not in boundary:
        raise BadParametersError(f"{z!r} is not a leaf of the hat tree")
    return _solve_harmonic(info, boundary)


# -- exit measure (finite aggregation step) --------------------------------

@dataclass
class ExitMeasureResult:
    d: int
    n: int
    chips: int
    counts: dict[str, int]
    o_count: int
    initial: RotorConfiguration
    final: RotorConfiguration
    rotors_restored: bool
    per_leaf_ok: bool

    @property
    def ok(self) -> bool:
        return self.rotors_restored and self.per_leaf_ok


def exit_measure_experiment(d: int, n: int,
                            t0: RotorConfiguration | None = None,
                            rng: random.Random | None = None,
                            ) -> ExitMeasureResult:
    """Route (a^n-1)/(a-1) chips from the root to the leaf set.

    With an acyclic initial state, exactly one chip stops at each leaf
    z != o, the remaining (a^{n-1}-1)/(a-1) chips stop at o, and the rotors
    end exactly where they started.
    """
    g, info = build_hat_tree(d, n)
    if t0 is None:
        t0 = random_acyclic_tree_config(g, info, rng or random.Random(0))
    else:
        t0.validate(g)
        if not is_acyclic_tree_config(g, info, t0):
            raise NotAcyclicError("initial configuration has an oriented 2-cycle")
    return _exit_measure(g, info, t0)


def _exit_measure(g: DirectedMultigraph, info: TreeInfo,
                  t0: RotorConfiguration) -> ExitMeasureResult:
    """``exit_measure_experiment`` on a hat tree already built by
    ``build_hat_tree``, from the acyclic state t0."""
    d, n = info.d, info.n
    a = d - 1
    m = (a ** n - 1) // (a - 1)
    counts, t1, _ = route_all(g, t0, {"r": m}, set(info.leaves))
    o_count = counts.get("o", 0)
    per_leaf_ok = all(counts.get(z, 0) == 1
                      for z in info.leaves if z != "o")
    per_leaf_ok = per_leaf_ok and o_count == (a ** (n - 1) - 1) // (a - 1)
    per_leaf_ok = per_leaf_ok and sum(counts.values()) == m
    return ExitMeasureResult(
        d=d, n=n, chips=m, counts=counts, o_count=o_count,
        initial=t0, final=t1,
        rotors_restored=(t1 == t0), per_leaf_ok=per_leaf_ok,
    )


# -- branch experiments ----------------------------------------------------

@dataclass
class BranchRunResult:
    d: int
    n: int
    chips: int
    stops: list[str]
    rotors_restored: bool
    pattern_ok: bool

    @property
    def ok(self) -> bool:
        return self.rotors_restored and self.pattern_ok


def alternation_experiment(n: int) -> BranchRunResult:
    """Ternary branch with all rotors in direction 1: 2^n - 1 chips alternate.

    Stops run b, o, b, ..., b and the rotors return exactly to direction 1.
    """
    d = 3
    g, info = build_branch(d, n)
    t0 = uniform_direction_config(g, info, 1)
    m = 2 ** n - 1
    _, t, trace = route_all(g, t0, {"r": m}, {"o", "b"})
    stops = trace.chip_stops
    expected = ["b" if k % 2 == 0 else "o" for k in range(m)]
    return BranchRunResult(
        d=d, n=n, chips=m, stops=stops,
        rotors_restored=(t == t0), pattern_ok=(stops == expected),
    )


def recurrence_experiment(d: int, n: int) -> BranchRunResult:
    """Branch with all rotors in direction d-1: the first n-1 chips hit o.

    Afterwards every rotor points in direction d.
    """
    g, info = build_branch(d, n)
    t0 = uniform_direction_config(g, info, d - 1)
    m = n - 1
    _, t, trace = route_all(g, t0, {"r": m}, {"o", "b"})
    stops = trace.chip_stops
    final_expected = uniform_direction_config(g, info, d)
    final_ok = internal_slots(g, info, t) == internal_slots(g, info, final_expected)
    return BranchRunResult(
        d=d, n=n, chips=m, stops=stops,
        rotors_restored=final_ok,
        pattern_ok=all(s == "o" for s in stops),
    )


def expected_returns(d: int, m: int) -> Fraction:
    """Expected number of returns to the origin for m random walks: m/(d-1)."""
    if d < 3:
        raise BadParametersError("degree d must be at least 3")
    return Fraction(m, d - 1)
