"""Single- and multi-chip rotor-router dynamics on finite graphs.

A step first increments the rotor at the chip's vertex, then moves the chip
along the new rotor edge.  This rotate-then-move convention is shared by
every module in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from numbers import Rational
from typing import Collection, Iterable, Mapping

from rotorlab.graph import (
    DEFAULT_STEP_BUDGET,
    DirectedMultigraph,
    GraphError,
    RotorConfiguration,
    StepBudgetExceededError,
    _acyclic,
    _rotor_targets,
)


class WalkError(GraphError):
    pass


class ChipAtSinkError(WalkError):
    pass


class NotAPredecessorError(WalkError):
    pass


class RotorsNotRestoredError(WalkError):
    pass


class NotHarmonicAtEmitterError(WalkError):
    pass


@dataclass
class WalkTrace:
    """Recorded steps of one or more chip walks.

    ``steps`` holds (from, to) vertex pairs; ``segments`` holds the index at
    which each chip's walk begins, so multi-chip traces keep per-chip
    chaining intact.  Both are filled only when steps are recorded;
    ``segments`` is [0] otherwise.  Recorded or not, ``emitted`` flags each
    vertex of ``vertices``, by index, that a chip left; ``emitters()``
    names them when called.
    """

    start: str
    stop: str
    initial: RotorConfiguration
    final: RotorConfiguration
    steps: list[tuple[str, str]] = field(default_factory=list)
    segments: list[int] = field(default_factory=lambda: [0])
    chip_stops: list[str] = field(default_factory=list)
    vertices: tuple[str, ...] = ()
    emitted: list[bool] | None = None

    def emitters(self) -> set[str]:
        if self.emitted is None:
            return {frm for frm, _ in self.steps}
        return set(compress(self.vertices, self.emitted))


def step(g: DirectedMultigraph, t: RotorConfiguration,
         chip: str) -> tuple[RotorConfiguration, str]:
    """One rotor-router step: rotate at the chip, move along the new edge."""
    if chip == g.sink:
        raise ChipAtSinkError("cannot step a chip sitting on the sink")
    s = (t.slot(g, chip) + 1) % g.outdeg(chip)
    t2 = t.with_slot(g, chip, s)
    return t2, g.vertices[g.out_idx[g.index[chip]][s]]


def _route(g: DirectedMultigraph, full: list[int], v: int,
           stops: Collection[int], emitted: list[bool],
           steps: list[tuple[str, str]] | None,
           count: int, step_budget: int) -> tuple[int, int]:
    """Walk one chip from vertex index v until it enters ``stops``.

    Turns the rotors of ``full`` in place, flags in ``emitted`` every
    vertex index the chip leaves and, when ``steps`` is a list, appends
    each (from, to) pair.  ``count`` steps were taken before this chip;
    returns the stop vertex and the new count.
    """
    out_idx = g.out_idx
    deg = g.deg_idx
    names = g.vertices
    while v not in stops:
        if count >= step_budget:
            raise StepBudgetExceededError(f"exceeded {step_budget} steps")
        emitted[v] = True
        s = (full[v] + 1) % deg[v]
        full[v] = s
        w = out_idx[v][s]
        if steps is not None:
            steps.append((names[v], names[w]))
        v = w
        count += 1
    return v, count


def route_to_sink(g: DirectedMultigraph, t: RotorConfiguration, x: str,
                  record_trace: bool = False,
                  step_budget: int = DEFAULT_STEP_BUDGET,
                  ) -> tuple[RotorConfiguration, WalkTrace]:
    """Add a chip at x and walk it to the sink; returns e_x(t) and a trace.

    The trace records steps only when ``record_trace`` is set; the initial
    and final configurations are always attached.
    """
    t.validate(g)
    if x not in g.index:
        raise GraphError(f"unknown vertex {x!r}")
    full = g.slots_to_full(t)
    steps: list[tuple[str, str]] = []
    emitted = [False] * len(full)
    _route(g, full, g.index[x], (g.sink_index,), emitted,
           steps if record_trace else None, 0, step_budget)
    t2 = g.full_to_slots(full)
    trace = WalkTrace(start=x, stop=g.sink, initial=t, final=t2, steps=steps,
                      vertices=g.vertices, emitted=emitted)
    return t2, trace


def predecessor(g: DirectedMultigraph, t: RotorConfiguration, chip: str,
                frm: str) -> tuple[RotorConfiguration, str]:
    """Reverse one step that entered ``chip`` from ``frm``.

    Requires the rotor at ``frm`` to point at the chip; the rotor is then
    decremented and the chip moved back.
    """
    t.validate(g)
    if frm == g.sink:
        raise NotAPredecessorError("sink carries no rotor")
    if t.target(g, frm) != chip:
        raise NotAPredecessorError(f"rotor at {frm!r} does not point at {chip!r}")
    s = (t.slot(g, frm) - 1) % g.outdeg(frm)
    return t.with_slot(g, frm, s), frm


def reverse_walk(g: DirectedMultigraph, t_final: RotorConfiguration, x: str,
                 step_budget: int = DEFAULT_STEP_BUDGET) -> RotorConfiguration:
    """Invert route_to_sink on recurrent states: e_x(result) == t_final.

    Each reverse step picks the unique legal predecessor; the steps run in
    ``_reverse``.  The configuration is validated and its whole rotor graph
    checked for cycles once.
    """
    t_final.validate(g)
    if x not in g.index:
        raise GraphError(f"unknown vertex {x!r}")
    full = g.slots_to_full(t_final)
    tgt = _rotor_targets(g, t_final)
    _reverse(g, full, tgt, g.index[x], _acyclic(g, tgt), step_budget)
    return g.full_to_slots(full)


def _reverse(g: DirectedMultigraph, full: list[int], tgt: list[int],
             start: int, rec: bool, step_budget: int) -> None:
    """Reverse-walk the chip from the sink back to vertex index start.

    ``full`` holds the slots and ``tgt`` the rotor targets, per vertex
    index; each reverse step decrements one rotor in both, in place.
    ``rec`` says whether the rotor graph of the input is acyclic.  After
    each step any cycle passes through the one vertex whose rotor changed,
    so one walk along the rotors from it decides recurrence and, on a
    cycle, ends at the chip's predecessor.  In a recurrent state the chip
    is at its first visit, and its predecessor is the one before it on the
    rotor path from start, which is kept and built again only after a
    cycle breaks.
    """
    out_idx = g.out_idx
    deg = g.deg_idx
    sink = chip = g.sink_index
    count = 0
    path: list[int] = []    # the rotor path from start, with the chip at k
    k = -1                  # -1 until the path is built
    z = -1                  # on a cycle: the chip's predecessor there
    while True:
        if rec and chip == start:
            return
        if count >= step_budget:
            raise StepBudgetExceededError(f"exceeded {step_budget} reverse steps")
        if rec:
            if k < 0:
                v = start
                path = [v]
                while v != chip and v != sink:
                    v = tgt[v]
                    path.append(v)
                if v != chip:
                    break
                k = len(path) - 1
            k -= 1
            z = path[k]
        elif z < 0:     # a cyclic input: the chip, on the sink, has none
            break
        s = (full[z] - 1) % deg[z]
        full[z] = s
        tgt[z] = out_idx[z][s]
        chip = z
        count += 1
        # the step broke the only cycle (it ran through z) or left none, so
        # the rotors from z lead to the sink or back to z
        u, v = z, tgt[z]
        while v != z and v != sink:
            u, v = v, tgt[v]
        if v != sink:
            z = u
        elif not rec:   # the cycle broke
            k = -1
        rec = v == sink
    raise WalkError(f"rotor path from {g.vertices[start if rec else chip]!r} "
                    f"misses {g.vertices[chip]!r}")


ChipDistribution = dict[str, int]


def route_all(g: DirectedMultigraph, t: RotorConfiguration,
              chips: Mapping[str, int], stop_set: Iterable[str],
              record_trace: bool = False,
              step_budget: int = DEFAULT_STEP_BUDGET,
              ) -> tuple[ChipDistribution, RotorConfiguration, WalkTrace]:
    """Route every chip until it enters the stop set.

    Chips are routed one at a time, each to its stop, in vertex order of
    their starting vertices.  By the abelian property the stop counts and
    the final configuration do not depend on that order.  ``step_budget``
    bounds the steps of all chips together.  The sink carries no rotor, so
    a chip that starts at or enters the sink while the sink is not in the
    stop set raises ``ChipAtSinkError``, as ``step`` does.
    """
    t.validate(g)
    stops = {g.index[v] for v in stop_set}
    if not stops:
        raise WalkError("stop set must be nonempty")
    sink = g.sink_index
    sink_stops = sink in stops
    stops.add(sink)
    for v, c in chips.items():
        if v not in g.index:
            raise GraphError(f"unknown vertex {v!r}")
        if c < 0:
            raise WalkError("negative chip count")

    full = g.slots_to_full(t)
    names = g.vertices
    counts: dict[int, int] = {}
    steps: list[tuple[str, str]] = []
    recorded = steps if record_trace else None
    segments: list[int] = []
    chip_stops: list[str] = []
    emitted = [False] * len(full)
    count = 0
    for i, c in sorted((g.index[v], c) for v, c in chips.items()):
        for _ in range(c):
            if record_trace:
                segments.append(len(steps))
            w, count = _route(g, full, i, stops, emitted, recorded,
                              count, step_budget)
            if w == sink and not sink_stops:
                raise ChipAtSinkError(
                    "a chip reached the sink, which is not in the stop set")
            counts[w] = counts.get(w, 0) + 1
            chip_stops.append(names[w])

    t2 = g.full_to_slots(full)
    stop_counts = {names[v]: counts[v] for v in sorted(counts)}
    trace = WalkTrace(start="", stop="", initial=t, final=t2,
                      steps=steps, segments=segments or [0],
                      chip_stops=chip_stops, vertices=names, emitted=emitted)
    return stop_counts, t2, trace


def is_harmonic_at(g: DirectedMultigraph, H: Mapping[str, Rational],
                   x: str) -> bool:
    """d_x H(x) == sum over out-edges of H(target), with multiplicity."""
    lhs = g.outdeg(x) * Fraction(H[x])
    rhs = sum(Fraction(H[g.vertices[y]]) for y in g.out_idx[g.index[x]])
    return lhs == rhs


def check_harmonic_invariant(g: DirectedMultigraph,
                             H: Mapping[str, Rational],
                             before: Mapping[str, int],
                             after: Mapping[str, int],
                             trace: WalkTrace) -> bool:
    """Exact conservation of sum H(x) * chips(x) across a rotor-neutral move.

    Requires the trace to start and end in the same rotor configuration and
    H to be harmonic at every vertex that emitted a chip.
    """
    if trace.initial != trace.final:
        raise RotorsNotRestoredError("trace does not restore the rotors")
    for x in sorted(trace.emitters()):
        if not is_harmonic_at(g, H, x):
            raise NotHarmonicAtEmitterError(f"H is not harmonic at emitter {x!r}")
    lhs = sum(Fraction(H[x]) * c for x, c in before.items())
    rhs = sum(Fraction(H[x]) * c for x, c in after.items())
    return lhs == rhs
