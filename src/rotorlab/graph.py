"""Finite directed multigraphs with a sink, rotor configurations, recurrence.

A graph here is strongly connected, loop-free, and carries a fixed cyclic
order on every vertex's out-edges: the out-edge list.  A rotor configuration
assigns to each non-sink vertex an index into its out-edge list.  A
configuration is recurrent when the rotor edges form an oriented spanning
tree rooted at the sink, i.e. contain no oriented cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import getitem
from typing import Iterable, Mapping, Sequence


class RotorlabError(ValueError):
    """Root of every error rotorlab raises: malformed input, an exceeded
    limit, or a failed result guard."""


class GraphError(RotorlabError):
    """Base for graph construction and usage errors."""


class LoopEdgeError(GraphError):
    """An out-edge list contains its own vertex."""


class EmptyOutListError(GraphError):
    """A non-sink vertex has no out-edges."""


class NotStronglyConnectedError(GraphError):
    """The multigraph is not strongly connected."""


class TooLargeError(GraphError):
    """Exhaustive enumeration would exceed the configured guard."""


class ConfigError(GraphError):
    """A rotor configuration does not fit the graph."""


class NotAcyclicError(GraphError):
    """A tree rotor configuration has a parent and child pointing at each
    other."""


class StepBudgetExceededError(GraphError):
    """A walk ran past its step budget.  Termination is guaranteed for
    strongly connected graphs and acyclic tree configurations, so this
    signals a bug or a DEFAULT_STEP_BUDGET set too low."""


# The step budget of one run: walk, group and lazytree each import it, and
# each run reads its own module's copy when it starts.
DEFAULT_STEP_BUDGET = 10 ** 9


class ResultCheckError(GraphError):
    """A computed result failed the internal check that guards it; this
    signals a bug."""


class DirectedMultigraph:
    """Immutable directed multigraph with named vertices and a sink.

    ``out_idx[i]`` lists vertex i's out-edge targets, as vertex indices, in
    rotor order; repeats encode multiplicity.  ``index`` is the one
    name-to-position map: a vertex's rotor slot in a configuration is its
    index, less one past the sink.  The constructor checks nothing:
    :func:`build_graph` validates named input, and the tree builders of
    ``rotorlab.trees`` construct their graphs directly, valid by
    construction.  Never mutated after build.
    """

    __slots__ = ("vertices", "sink", "index", "sink_index", "out_idx",
                 "deg_idx", "rotor_vertices")

    def __init__(self, vertices: tuple[str, ...], sink: str,
                 out_idx: list[tuple[int, ...]],
                 index: dict[str, int] | None = None):
        index = index or {v: i for i, v in enumerate(vertices)}
        self.vertices = vertices
        self.sink = sink
        self.index = index
        self.sink_index = si = index[sink]
        self.out_idx = out_idx
        self.deg_idx = list(map(len, out_idx))
        self.rotor_vertices = vertices[:si] + vertices[si + 1:]

    @property
    def out(self) -> dict[str, tuple[str, ...]]:
        """The out-lists by name, derived from ``out_idx`` on each access."""
        return {v: tuple(map(self.vertices.__getitem__, lst))
                for v, lst in zip(self.vertices, self.out_idx)}

    def rotor_slot(self, x: str) -> int:
        """x's place in a configuration's slots; KeyError at the sink."""
        i = self.index[x]
        if i == self.sink_index:
            raise KeyError(x)
        return i - (i > self.sink_index)

    def outdeg(self, x: str) -> int:
        return self.deg_idx[self.index[x]]

    # -- conversions between rotor-vertex slots and full index arrays -----

    def slots_to_full(self, t: "RotorConfiguration") -> list[int]:
        """Expand config slots into a per-vertex list (sink entry 0, unused)."""
        si = self.sink_index
        return [*t.slots[:si], 0, *t.slots[si:]]

    def full_to_slots(self, full: Sequence[int]) -> "RotorConfiguration":
        si = self.sink_index
        return RotorConfiguration((*full[:si], *full[si + 1:]))

    def __repr__(self) -> str:
        return (f"DirectedMultigraph({len(self.vertices)} vertices, "
                f"sink={self.sink!r})")


@dataclass(frozen=True)
class RotorConfiguration:
    """Per-vertex rotor slot indices, in graph rotor-vertex order."""

    slots: tuple[int, ...]

    def slot(self, g: DirectedMultigraph, x: str) -> int:
        return self.slots[g.rotor_slot(x)]

    def target(self, g: DirectedMultigraph, x: str) -> str:
        """Vertex the rotor at x currently points to."""
        return g.vertices[g.out_idx[g.index[x]][self.slots[g.rotor_slot(x)]]]

    def with_slot(self, g: DirectedMultigraph, x: str, s: int) -> "RotorConfiguration":
        lst = list(self.slots)
        lst[g.rotor_slot(x)] = s
        return RotorConfiguration(tuple(lst))

    def validate(self, g: DirectedMultigraph) -> None:
        if len(self.slots) != len(g.rotor_vertices):
            raise ConfigError("configuration does not match graph vertex set")
        degs = g.deg_idx[:g.sink_index] + g.deg_idx[g.sink_index + 1:]
        for v, s, deg in zip(g.rotor_vertices, self.slots, degs):
            if not 0 <= s < deg:
                raise ConfigError(f"rotor index {s} out of range at {v!r}")

    @staticmethod
    def uniform(g: DirectedMultigraph, s: int = 0) -> "RotorConfiguration":
        t = RotorConfiguration((s,) * len(g.rotor_vertices))
        t.validate(g)
        return t

    @staticmethod
    def from_dict(g: DirectedMultigraph, d: Mapping[str, int]) -> "RotorConfiguration":
        missing = set(g.rotor_vertices) - set(d)
        extra = set(d) - set(g.rotor_vertices)
        if missing or extra:
            raise ConfigError(f"bad config keys: missing={sorted(missing)} "
                              f"extra={sorted(extra)}")
        t = RotorConfiguration(tuple(d[v] for v in g.rotor_vertices))
        t.validate(g)
        return t


@dataclass(frozen=True)
class StateClass:
    """Classification of a rotor configuration relative to a chip position."""

    kind: str                  # "recurrent" | "cycle_at" | "neither"
    vertex: str | None = None

    @staticmethod
    def recurrent() -> "StateClass":
        return StateClass("recurrent")

    @staticmethod
    def cyc_at(x: str) -> "StateClass":
        return StateClass("cycle_at", x)

    @staticmethod
    def neither() -> "StateClass":
        return StateClass("neither")

    @property
    def is_recurrent(self) -> bool:
        return self.kind == "recurrent"


def build_graph(vertices: Iterable[str], sink: str,
                out: Mapping[str, Sequence[str]]) -> DirectedMultigraph:
    """Validate named out-edge lists and build the graph.

    Duplicate names and a sink outside the vertex set raise GraphError.
    Then, vertex by vertex in list order, the first target outside the
    vertex set (GraphError) or loop edge (LoopEdgeError) in the out-list,
    and an empty non-sink out-list (EmptyOutListError); then out-list keys
    outside the vertex set (GraphError); then a graph that is not strongly
    connected raises NotStronglyConnectedError.
    """
    verts = tuple(vertices)
    index = {v: i for i, v in enumerate(verts)}
    if len(index) != len(verts):
        raise GraphError("duplicate vertex names")
    if sink not in index:
        raise GraphError(f"sink {sink!r} is not a vertex")
    out_idx = []
    for v in verts:
        targets = out.get(v, ())
        for w in targets:
            if w not in index:
                raise GraphError(f"edge {v!r}->{w!r} targets unknown vertex")
            if w == v:
                raise LoopEdgeError(f"loop edge at {v!r}")
        if not targets and v != sink:
            raise EmptyOutListError(f"non-sink vertex {v!r} has no out-edges")
        out_idx.append(tuple(map(index.__getitem__, targets)))
    unknown = set(out).difference(index)
    if unknown:
        raise GraphError(f"out-lists for unknown vertices: {sorted(unknown)}")
    g = DirectedMultigraph(verts, sink, out_idx, index)
    if not _strongly_connected(g):
        raise NotStronglyConnectedError("graph is not strongly connected")
    return g


def _strongly_connected(g: DirectedMultigraph) -> bool:
    """Every vertex is reached from vertex 0 and reaches it: one search
    along the out-edges and one along the in-edges."""
    into: list[list[int]] = [[] for _ in g.out_idx]
    for v, targets in enumerate(g.out_idx):
        for w in targets:
            into[w].append(v)

    def reaches_all(adj: Sequence[Sequence[int]]) -> bool:
        seen = [True] + [False] * (len(adj) - 1)
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    return reaches_all(g.out_idx) and reaches_all(into)


# -- recurrence -----------------------------------------------------------

def _rotor_targets(g: DirectedMultigraph, t: RotorConfiguration) -> list[int]:
    """Rotor target index per vertex index; sink maps to itself."""
    si = g.sink_index
    return [*map(getitem, g.out_idx[:si], t.slots[:si]), si,
            *map(getitem, g.out_idx[si + 1:], t.slots[si:])]


def _acyclic(g: DirectedMultigraph, tgt: list[int], skip: int = -1) -> bool:
    """True iff the functional rotor subgraph has no oriented cycle.

    ``skip`` removes one vertex's rotor from consideration.  The sink has no
    rotor; a path is cycle-free exactly when it reaches the sink or a vertex
    already known to be cycle-free.
    """
    n = len(g.vertices)
    state = [0] * n          # 0 unseen, 1 on current path, 2 safe
    state[g.sink_index] = 2
    if skip >= 0:
        state[skip] = 2      # deleting the rotor makes the vertex a dead end
    for start in range(n):
        if state[start]:
            continue
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = tgt[v]
        if state[v] == 1:
            return False
        for u in path:
            state[u] = 2
    return True


def is_recurrent(g: DirectedMultigraph, t: RotorConfiguration) -> bool:
    """True iff the rotor edges form an oriented spanning tree to the sink."""
    t.validate(g)
    return _acyclic(g, _rotor_targets(g, t))


def classify(g: DirectedMultigraph, t: RotorConfiguration, chip: str) -> StateClass:
    """Classify a configuration seen with the chip at ``chip``.

    Recurrent configurations are acyclic; otherwise the state is CycAt(chip)
    when deleting the rotor at the chip breaks every oriented cycle, and
    Neither when a cycle survives.
    """
    t.validate(g)
    if chip not in g.index:
        raise GraphError(f"unknown vertex {chip!r}")
    tgt = _rotor_targets(g, t)
    if _acyclic(g, tgt):
        return StateClass.recurrent()
    if chip != g.sink and _acyclic(g, tgt, skip=g.index[chip]):
        return StateClass.cyc_at(chip)
    return StateClass.neither()


DEFAULT_ENUM_LIMIT = 10_000_000


def check_enumeration_limit(degrees: Iterable[int], limit: int) -> None:
    """Raise TooLargeError once the product of the rotor vertices'
    out-degrees (the configuration count) passes ``limit``."""
    total = 1
    for deg in degrees:
        total *= deg
        if total > limit:
            raise TooLargeError(f"{total}+ configurations exceed limit {limit}")


def enumerate_recurrent(g: DirectedMultigraph,
                        limit: int = DEFAULT_ENUM_LIMIT) -> list[RotorConfiguration]:
    """All recurrent configurations, lexicographic in rotor-vertex order.

    Depth-first over the rotor vertices in order, slots in order, on an
    explicit stack.  The rotors set so far form an in-forest whose trees
    are kept in a union-find (union by size, no path compression, undone
    on backtrack); a rotor v -> w closes a cycle exactly when w already
    lies in v's tree, and such a slot is skipped with everything below it.
    """
    rotor = [g.index[v] for v in g.rotor_vertices]
    outs = [g.out_idx[v] for v in rotor]
    check_enumeration_limit(map(len, outs), limit)
    m = len(rotor)
    if not m:
        return [RotorConfiguration(())]
    parent = list(range(len(g.vertices)))
    size = [1] * len(g.vertices)
    slots = [-1] * m
    joined = [-1] * m        # the root that level k's rotor attached
    result = []
    k = 0
    while k >= 0:
        a = joined[k]
        if a >= 0:
            size[parent[a]] -= size[a]
            parent[a] = a
        a = rotor[k]
        while parent[a] != a:
            a = parent[a]
        out = outs[k]
        s = slots[k] + 1
        while s < len(out):
            b = out[s]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                break
            s += 1
        else:
            slots[k] = joined[k] = -1
            k -= 1
            continue
        slots[k] = s
        if size[a] > size[b]:
            a, b = b, a
        parent[a] = b
        size[b] += size[a]
        joined[k] = a
        if k + 1 < m:
            k += 1
        else:
            result.append(RotorConfiguration(tuple(slots)))
    return result


def reduced_laplacian(g: DirectedMultigraph) -> list[list[int]]:
    """Integer matrix with diagonal d_x and off-diagonal -d_xy, sink removed."""
    si = g.sink_index
    mat = []
    for x, out in enumerate(g.out_idx):
        if x != si:
            row = [0] * len(g.out_idx)
            for y in out:
                row[y] -= 1
            row[x] = g.deg_idx[x]
            del row[si]
            mat.append(row)
    return mat


def rank_and_minor(mat: list[list[int]]) -> tuple[int, int]:
    """Rank r of an integer matrix and a nonzero r x r minor of it, up to sign.

    Fraction-free (Bareiss) elimination; a zero pivot is replaced by the
    first nonzero entry of the remaining block, column by column, with the
    row and column swaps counted in the sign.  The minor is the last pivot:
    the determinant, sign included, when the matrix is square and
    nonsingular, and 1 when r = 0.
    """
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    sign = 1
    prev = 1
    r = 0
    for k in range(min(rows, cols)):
        if m[k][k] == 0:
            pos = next(((i, j) for j in range(k, cols)
                        for i in range(k, rows) if m[i][j]), None)
            if pos is None:
                break
            i, j = pos
            if i != k:
                m[k], m[i] = m[i], m[k]
                sign = -sign
            if j != k:
                for row in m:
                    row[k], row[j] = row[j], row[k]
                sign = -sign
        p = m[k][k]
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                m[i][j] = (m[i][j] * p - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = p
        r = k + 1
    return r, sign * prev


def integer_determinant(mat: list[list[int]]) -> int:
    """Exact determinant of a square matrix, by ``rank_and_minor``."""
    r, minor = rank_and_minor(mat)
    return minor if r == len(mat) else 0


def spanning_tree_count(g: DirectedMultigraph) -> int:
    """Number of oriented spanning trees rooted at the sink (matrix-tree)."""
    return integer_determinant(reduced_laplacian(g))


def shortest_path_config(g: DirectedMultigraph) -> RotorConfiguration:
    """A recurrent configuration: each rotor points one step closer to the sink."""
    n = len(g.vertices)
    INF = n + 1
    dist = [INF] * n
    dist[g.sink_index] = 0
    radj: list[list[int]] = [[] for _ in range(n)]
    for v, lst in enumerate(g.out_idx):
        for w in set(lst):
            radj[w].append(v)
    frontier = [g.sink_index]
    while frontier:
        nxt = []
        for w in frontier:
            for v in radj[w]:
                if dist[v] > dist[w] + 1:
                    dist[v] = dist[w] + 1
                    nxt.append(v)
        frontier = nxt
    return g.full_to_slots([min(range(len(out)), key=lambda s: dist[out[s]],
                                default=0) for out in g.out_idx])


# -- serialization --------------------------------------------------------

def graph_to_json(g: DirectedMultigraph) -> str:
    payload = {
        "vertices": list(g.vertices),
        "sink": g.sink,
        "out": g.out,
    }
    return json.dumps(payload, indent=2)


def graph_from_json(text: str) -> DirectedMultigraph:
    """Parse and build a graph; a malformed payload, or one nested too deep
    for the json module, raises GraphError."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise GraphError("graph JSON is nested too deeply") from None
    if not isinstance(payload, dict):
        raise GraphError("graph JSON must be an object")
    vertices, sink, out = (payload.get(k) for k in ("vertices", "sink", "out"))

    def is_names(value) -> bool:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)

    if not is_names(vertices):
        raise GraphError("'vertices' must be a list of strings")
    if not isinstance(sink, str):
        raise GraphError("'sink' must be a string")
    if not (isinstance(out, dict) and all(map(is_names, out.values()))):
        raise GraphError("'out' must map vertices to lists of strings")
    return build_graph(vertices, sink, out)

