"""Seeded generators for random graphs and recurrent configurations."""

from __future__ import annotations

import random

from rotorlab.graph import (
    DirectedMultigraph,
    GraphError,
    ResultCheckError,
    RotorConfiguration,
    build_graph,
    is_recurrent,
    shortest_path_config,
)
from rotorlab.walk import route_to_sink


def random_multigraph(rng: random.Random,
                      n_vertices: int) -> DirectedMultigraph:
    """Random strongly connected multigraph without loops.

    A random Hamiltonian cycle guarantees strong connectivity; between
    n_vertices and 3 * n_vertices - 1 extra edges (parallel edges allowed)
    are sprinkled on top.
    """
    if n_vertices < 2:
        raise GraphError("need at least 2 vertices")
    names = [f"v{i}" for i in range(n_vertices)]
    order = names[:]
    rng.shuffle(order)
    out: dict[str, list[str]] = {v: [] for v in names}
    for i, v in enumerate(order):
        out[v].append(order[(i + 1) % n_vertices])
    for _ in range(rng.randrange(n_vertices, 3 * n_vertices)):
        v = rng.choice(names)
        w = rng.choice([u for u in names if u != v])
        out[v].append(w)
    for v in names:
        rng.shuffle(out[v])
    return build_graph(names, names[0], out)


def random_recurrent_config(g: DirectedMultigraph,
                            rng: random.Random) -> RotorConfiguration:
    """A pseudo-random recurrent configuration.

    Starts from the shortest-path configuration and walks the orbit by
    routing 32 chips from random vertices; routing maps recurrent states to
    recurrent states, so the result is always recurrent.
    """
    t = shortest_path_config(g)
    for _ in range(32):
        x = rng.choice(g.rotor_vertices)
        t, _ = route_to_sink(g, t, x)
    if not is_recurrent(g, t):
        raise ResultCheckError("routing left the recurrent states")
    return t
