"""Single- and multi-chip rotor-router dynamics on finite graphs.

A step first increments the rotor at the chip's vertex, then moves the chip
along the new rotor edge.  This rotate-then-move convention is shared by
every module in the package.  Every forward walk, here and in
``rotorlab.group``, runs in one kernel, ``_route``, which walks a batch of
chips per call on per-vertex slot lists; reverse walks run in ``_reverse``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import ne
from numbers import Rational
from typing import Iterable, Iterator, Mapping

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
    """The outcome of one or more chip walks.

    ``chip_stops`` names each chip's stop in routing order; ``emitted``
    flags each vertex of ``vertices``, by index, that a chip left, and
    ``emitters()`` names them when called.
    """

    initial: RotorConfiguration
    final: RotorConfiguration
    chip_stops: list[str] = field(default_factory=list)
    vertices: tuple[str, ...] = ()
    emitted: list[bool | None] = field(default_factory=list)

    def emitters(self) -> set[str]:
        return set(compress(self.vertices, self.emitted))


def step(g: DirectedMultigraph, t: RotorConfiguration,
         chip: str) -> tuple[RotorConfiguration, str]:
    """One rotor-router step: rotate at the chip, move along the new edge."""
    if chip not in g.index:
        raise GraphError(f"unknown vertex {chip!r}")
    if chip == g.sink:
        raise ChipAtSinkError("cannot step a chip sitting on the sink")
    s = (t.slot(g, chip) + 1) % g.outdeg(chip)
    t2 = t.with_slot(g, chip, s)
    return t2, g.vertices[g.out_idx[g.index[chip]][s]]


def _stop_flags(g: DirectedMultigraph,
                stops: Iterable[int] = ()) -> list[bool | None]:
    """A run's flags for ``_route`` by vertex index: None at the sink and
    at ``stops``, where chips end, and False elsewhere until the vertex's
    rotor wraps."""
    flags: list[bool | None] = [False] * len(g.vertices)
    flags[g.sink_index] = None
    for v in stops:
        flags[v] = None
    return flags


def _flag_moved(emitted: list[bool | None], before: Iterable[int],
                after: Iterable[int], sink: int) -> None:
    """Flag, by vertex index, each rotor vertex whose slot differs between
    the two slot lists: with the ones whose rotor wrapped, which ``_route``
    flagged, these are the vertices a chip left."""
    for j in compress(count(), map(ne, before, after)):
        emitted[j + (j >= sink)] = True


def _budget(n: int) -> Iterator[None]:
    """A step budget for the kernels: n items, one taken per step, so no
    step compares against it.  Asking for item n + 1 raises
    StepBudgetExceededError, naming n."""
    return chain(repeat(None, n), _exceeded(n))


def _exceeded(n: int) -> Iterator[None]:
    # a generator, so the error comes with its first item, not at the call
    raise StepBudgetExceededError(f"exceeded {n} steps")
    yield


def _route(g: DirectedMultigraph, v: int, fulls: Iterable[list[int]],
           flags: list[bool | None], budget: Iterator[None],
           chip_stops: list[str] | None = None, halt: int = -1) -> None:
    """Walk one chip from vertex index v on each slot list of ``fulls``, in
    turn, until it enters a stop.

    ``flags`` is :func:`_stop_flags`'s list: a chip stops at a vertex where
    it holds None, and elsewhere turns the rotor by one and moves on; at
    the out-degree the rotor wraps to 0 and the flag is set to True.  Each
    chip turns the rotors of its own list in place, so one list repeated
    routes chips in sequence.  Each chip's stop is named in ``chip_stops``
    when that is a list.  A chip that stops at ``halt`` raises
    ChipAtSinkError.  Each step takes one item of ``budget``, a
    :func:`_budget` that may be shared with other calls.
    """
    out_idx = g.out_idx
    deg = g.deg_idx
    names = g.vertices
    for full in fulls:
        w = v
        if flags[w] is not None:
            for _ in budget:
                s = full[w] + 1
                if s == deg[w]:
                    s = 0
                    flags[w] = True
                full[w] = s
                w = out_idx[w][s]
                if flags[w] is None:
                    break
        if w == halt:
            raise ChipAtSinkError(
                "a chip reached the sink, which is not in the stop set")
        if chip_stops is not None:
            chip_stops.append(names[w])


def route_to_sink(g: DirectedMultigraph, t: RotorConfiguration, x: str,
                  ) -> tuple[RotorConfiguration, WalkTrace]:
    """Add a chip at x and walk it to the sink; returns e_x(t) and the
    trace of ``route_all``, which routes the one chip within its budget."""
    _, t2, trace = route_all(g, t, {x: 1}, (g.sink,))
    return t2, trace


def predecessor(g: DirectedMultigraph, t: RotorConfiguration, chip: str,
                frm: str) -> tuple[RotorConfiguration, str]:
    """Reverse one step that entered ``chip`` from ``frm``.

    Requires the rotor at ``frm`` to point at the chip; the rotor is then
    decremented and the chip moved back.
    """
    t.validate(g)
    for x in (chip, frm):
        if x not in g.index:
            raise GraphError(f"unknown vertex {x!r}")
    if frm == g.sink:
        raise NotAPredecessorError("sink carries no rotor")
    if t.target(g, frm) != chip:
        raise NotAPredecessorError(f"rotor at {frm!r} does not point at {chip!r}")
    s = (t.slot(g, frm) - 1) % g.outdeg(frm)
    return t.with_slot(g, frm, s), frm


def reverse_walk(g: DirectedMultigraph, t_final: RotorConfiguration,
                 x: str) -> RotorConfiguration:
    """Invert route_to_sink on recurrent states: e_x(result) == t_final.

    Each reverse step picks the unique legal predecessor; the steps run in
    ``_reverse``.  The configuration is validated and its whole rotor graph
    checked for cycles once.  The walk may take DEFAULT_STEP_BUDGET
    steps, read when it starts; one more raises StepBudgetExceededError.
    """
    t_final.validate(g)
    if x not in g.index:
        raise GraphError(f"unknown vertex {x!r}")
    full = g.slots_to_full(t_final)
    tgt = _rotor_targets(g, t_final)
    _reverse(g, full, tgt, g.index[x], _acyclic(g, tgt),
             _budget(DEFAULT_STEP_BUDGET))
    return g.full_to_slots(full)


def _reverse(g: DirectedMultigraph, full: list[int], tgt: list[int],
             start: int, rec: bool, budget: Iterator[None]) -> None:
    """Reverse-walk the chip from the sink back to vertex index start.

    ``full`` holds the slots and ``tgt`` the rotor targets, per vertex
    index; each reverse step decrements one rotor in both, in place.
    ``rec`` says whether the rotor graph of the input is acyclic.  After
    each step any cycle passes through the one vertex whose rotor changed,
    so one walk along the rotors from it decides recurrence and, on a
    cycle, ends at the chip's predecessor.  In a recurrent state the chip
    is at its first visit, and its predecessor is the one before it on the
    rotor path from start, which is kept and built again only after a
    cycle breaks.  Each reverse step takes one item of ``budget``, as a
    step of ``_route`` does.
    """
    out_idx = g.out_idx
    deg = g.deg_idx
    sink = chip = g.sink_index
    path: list[int] = []    # the rotor path from start, with the chip at k
    k = -1                  # -1 until the path is built
    z = -1                  # on a cycle: the chip's predecessor there
    if rec and start == sink:
        return
    for _ in budget:
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
        if rec and chip == start:
            return
    raise WalkError(f"rotor path from {g.vertices[start if rec else chip]!r} "
                    f"misses {g.vertices[chip]!r}")


ChipDistribution = dict[str, int]


def route_all(g: DirectedMultigraph, t: RotorConfiguration,
              chips: Mapping[str, int], stop_set: Iterable[str],
              ) -> tuple[ChipDistribution, RotorConfiguration, WalkTrace]:
    """Route every chip until it enters the stop set.

    Chips are routed one at a time, each to its stop, in vertex order of
    their starting vertices; each source's chips go to ``_route`` in one
    call.  By the abelian property the stop counts and the final
    configuration do not depend on that order.  DEFAULT_STEP_BUDGET, read
    when the call starts, bounds the steps of all its chips together: the
    chip that would take one step more raises StepBudgetExceededError.
    The sink carries no rotor, so a chip that starts at or enters the sink
    while the sink is not in the stop set raises ``ChipAtSinkError``, as
    ``step`` does.
    """
    t.validate(g)
    index = g.index
    stops = set()
    for x in stop_set:
        if x not in index:
            raise GraphError(f"unknown vertex {x!r}")
        stops.add(index[x])
    if not stops:
        raise WalkError("stop set must be nonempty")
    sink = g.sink_index
    halt = -1 if sink in stops else sink
    for v, c in chips.items():
        if v not in index:
            raise GraphError(f"unknown vertex {v!r}")
        if c < 0:
            raise WalkError("negative chip count")

    full = g.slots_to_full(t)
    chip_stops: list[str] = []
    emitted = _stop_flags(g, stops)
    budget = _budget(DEFAULT_STEP_BUDGET)
    for i, c in sorted((index[v], c) for v, c in chips.items()):
        _route(g, i, repeat(full, c), emitted, budget, chip_stops, halt)

    for v in (sink, *stops):    # no chip leaves a stop
        emitted[v] = False
    # full_to_slots in place, without its two copies of the slots: the end
    # of a long route is its memory peak
    del full[sink]
    _flag_moved(emitted, t.slots, full, sink)
    t2 = RotorConfiguration(tuple(full))
    counts = Counter(chip_stops)
    stop_counts = {x: counts[x] for x in sorted(counts, key=index.__getitem__)}
    trace = WalkTrace(initial=t, final=t2, chip_stops=chip_stops,
                      vertices=g.vertices, emitted=emitted)
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
