"""Rotor-router walks on the infinite d-regular tree, materialized lazily.

Vertices are addressed by child-index paths from the origin.  Direction k at
an internal vertex points to child k for k < d and to the parent for k = d;
the origin's d directions index its principal branches ("tree" mode).  In
"branch" mode the origin has a single edge to the branch root and chips pass
through it unrotated.

A configuration is a finite description: a global default direction, finite
overrides, infinite rays with a repeating child pattern, and level regions
(subtrees whose first h levels point in direction d-1 and the rest in
direction d; this is how synthesized configurations are expressed).

A ``NodeKind`` is the type of the subtree below a vertex: its base
direction, the config rays through it, the region levels left at and below
it and, above structure, its position in the config's structure tables.
It fixes every base rotor of the subtree, and a child's kind follows from
its parent's: the tables give a structure child's, and off the structure
kinds are shared by content, so a config has finitely many.  The escape
walk reads a kind's bounce limit, the response tables keep one table per
kind content (see below), and ``find_cyclic_pair`` checks each kind once,
which makes the acyclicity check exact.  Making a config types its
structure in one pass over the marked addresses, then validates them in
order: each prefix of an override, region or ray start has its child
index range-checked and gets its kind, from its parent's, once, at the
next position of the flat structure tables, parents first.  The tables
grow as lists and are frozen into arrays once: a walk state starts as a
copy of them, and the response tables read them in reverse.

The escape-run engine keeps three kinds of dynamic state besides explicitly
materialized rotors:

* patches -- a subtree prefix known to point entirely in direction d.  A
  chip entering such a subtree whose profile is uniform per level performs
  one full turn of every vertex down to the first direction-(d-1) level and
  comes back, leaving the prefix one level deeper.  The vertex's kind
  carries a bounce limit, so the excursion test is one comparison of that
  level with it.  Recording the excursion as a patch keeps runs like the
  all-(d-1) configuration polynomial even though the literal walk length
  is exponential in the chip index.

* escape rays -- when a chip provably descends forever, the vertices along
  its infinite path each advance once.  The path is expanded lazily: a
  ray's pending tip waits on the last vertex of the path that has an id,
  and moves down as the next vertex gets one.  The proof is a probe down
  the chip's path; one that stops at a bounce or mixed territory instead
  lets the chip take the probed path in one stride.

* pass counts -- how many escape rays have run through a vertex, which
  offsets its base direction.

Inside ``TreeState`` every vertex the engine touches has an integer id,
and the state lives in flat per-id tables: parent, depth, child index,
rotor (0 while not materialized), sibling links, and the static
``NodeKind``.  A state starts as a copy of the config's structure tables,
so the structure's ids are its positions.  Every other vertex gets its id
on first contact, its kind derived from the parent's.
A child's id is found in one dict keyed by parent id and child index, at
every degree, for about 110 bytes per child (see ``TreeState`` for what
that costs on a million-chip run).  Sparse maps keyed by id hold the pass
count and the absolute depth reached by the deepest patch covering the
vertex; setting a patch updates the cover of every descendant that
already has an id.  A pending ray tip always sits on a vertex whose next
ray vertex has no id yet, and making that id moves the tip into it, so
every ray has passed every vertex with an id that it will pass, and each
lookup during a walk is a table read.  Addresses stay the currency of the
API: ``effective(addr)`` and ``visited``, the address-keyed snapshots
``rotors``, ``patches``, ``ray_counts`` and ``ray_tips``, aggregation
``stops``, ``occupied`` and ``rotors``, JSON and DOT.

Every shortcut is exact: the literal step-by-step engine (fast_paths=False)
runs on the same tables, with ids made on first contact only and a probe
at every fresh vertex, and computes the same words, depths and effective
directions; the test suite cross-checks the two.  An escaped chip has
no depth: ``run_chips_infinite`` reports None for it.  Every limit is
this module's DEFAULT_STEP_BUDGET, read when a run starts: it bounds each
chip's walk on its own, and the summed steps of a whole aggregation run;
StepBudgetExceededError is raised past it.

Aggregation (a chip stops on the first unoccupied vertex it enters) does
not walk its chips.  A subtree is entered only from its root's parent, so
what the k-th chip to enter it does depends only on its initial rotors and
on k: it settles at some address relative to the root, or comes back up
after a fixed number of steps.  Subtrees whose kinds have one content key
have the same rotors below them and share one response table.  The key
is (base, rays, left, children): the kind's base direction, its config
rays with their offsets, its region levels left, and ``(c, id)`` for each
structure child c whose content id differs from that of the kind child c
would have off the structure.  Keys are interned to ids children first,
in one loop over the structure kinds, so content-equal structure
subtrees share a table, and a structure prefix that adds nothing shares
the off-structure one.  A table's element k is built once from the child
tables while the root's rotor turns, and reads only elements below k of
the child tables: the rotor points at the parent between any two
departures to one child, and that ends an entry into the root.  One loop
builds and reads every table, on an explicit stack whose bottom frame is
the origin: there the rotor cycles over the d children, and a chip that
comes back walks on, or stops at the origin in the modified process;
above it direction d pops a frame.  Each frame carries its root's
address, so a settling chip's site is that address, the child index and
the tail of the element read.  The tables sit in flat
lists indexed by type id.  A final rotor is its base direction advanced by
the chips it sent on, read from the tables in one pass over the stops.
The literal oracle in the test suite checks every result field against a
step-by-step walk.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple

from rotorlab.graph import (
    DEFAULT_STEP_BUDGET,
    GraphError,
    NotAcyclicError,
    ResultCheckError,
    StepBudgetExceededError,
)


Address = tuple[int, ...]

ORIGIN: Address = ()


class LazyTreeError(GraphError):
    pass


class UnsupportedConfigError(LazyTreeError):
    pass


def addr_to_str(addr: Address) -> str:
    return "/".join(str(i) for i in addr)


def str_to_addr(text: str) -> Address:
    parts = text.split("/") if text else []     # '' is the origin
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"bad address {text!r}")
    return tuple(map(int, parts))


@dataclass(frozen=True)
class RayRule:
    """Infinite ray of rotors: start address, repeating child pattern, direction."""

    start: Address
    pattern: tuple[int, ...]
    direction: int


class LevelRegion(NamedTuple):
    """Subtree rule: relative depths 0..h-1 get direction d-1, deeper get d.

    A record: an immutable (addr, h) tuple, compared and hashed by value,
    whose fields refuse assignment.  Synthesis makes one per level leaf of
    a descriptor, without a constructor call, and typing reads the regions
    as pairs."""

    addr: Address
    h: int


class NodeKind:
    """The type of the subtree below a vertex: what a config fixes there.
    ``base`` is the vertex's base direction, ``rays`` the config rays
    through it as (index, offset mod period), the least of which sets the
    base, and ``left`` the number of direction-(d-1) levels that the
    nearest level region at or above it still has at and below it (None
    outside every region).  ``pos`` is the vertex's position in the
    config's structure tables when structure (overrides, regions, ray
    starts and their prefixes) lies below it, else None; the tables hold
    its structure children.  ``limit`` is the bounce limit, relative to
    the vertex: the levels fewer than ``limit`` below the vertex point in
    direction d-1 by their base, so an excursion bounces at the first level
    under the vertex's patch when that level is one of them.  It is
    ``left`` in a region, unbounded under default d-1 with no region, and
    0 otherwise or with a config ray or structure below.

    The response tables key a kind by its content, not its identity: base,
    ``rays``, ``left``, and the ids of the structure children whose content
    differs from that of the off-structure kind at their index (see
    ``_ResponseTables``)."""

    __slots__ = ("base", "left", "limit", "pos", "rays")

    def __init__(self, base: int, limit: int | float, left: int | None,
                 rays: tuple[tuple[int, int], ...]) -> None:
        self.base = base
        self.left = left
        self.limit = limit
        self.pos: int | None = None
        self.rays = rays


def _children(head, nxt, x: int) -> list[int]:
    """The children of x in the sibling lists ``head``/``nxt``, newest first."""
    kids = []
    y = head[x]
    while y:
        kids.append(y)
        y = nxt[y]
    return kids


# A config's structure vertices by position, in the order typing made them
# (parents first, 0 the origin), in ``TreeState``'s table layout; ``ids``
# maps ``x * d + c`` to the position of child c of x.
_Structure = namedtuple("_Structure", "parent depth cidx head next kind ids")


@dataclass(frozen=True)
class LazyTreeConfig:
    """A finite rotor configuration on the tree of degree d (see the module
    docstring).  Making one types its structure in one pass over its
    marked addresses and then validates it: ``root_kind`` is the origin's
    kind, ``_structure`` holds the structure's tables (``array('i')``
    columns, built as lists and frozen once), its kinds among them, and
    ``_static_depth`` is the depth the structure reaches: the largest of 1,
    the override depths, ``len(addr) + h`` over the regions and
    ``len(start) + len(pattern)`` over the rays."""

    d: int
    default: int
    mode: str = "tree"                    # "tree" | "branch"
    overrides: tuple[tuple[Address, int], ...] = ()
    rays: tuple[RayRule, ...] = ()
    regions: tuple[LevelRegion, ...] = ()
    root_kind: NodeKind = field(init=False, repr=False, compare=False)
    _structure: _Structure = field(init=False, repr=False, compare=False)
    _static_depth: int = field(init=False, repr=False, compare=False)

    # -- structure ---------------------------------------------------------

    def origin_arity(self) -> int:
        return self.d if self.mode == "tree" else 1

    def __post_init__(self):
        """Check the scalars, type the structure, then check the overrides,
        rays and regions in order, each mark at its turn taking its
        position, or raising its bad address if typing stopped before it.
        An override sets the base of its kind at its turn, and notes the
        config rays through it: an override on a ray, at any depth, is
        refused at that ray's turn, and a second override or region at one
        address at its own.  The first fault found in that order raises
        LazyTreeError."""
        d = self.d
        if d < 3:
            raise LazyTreeError("degree d must be at least 3")
        if self.mode not in ("tree", "branch"):
            raise LazyTreeError(f"unknown mode {self.mode!r}")
        if not 1 <= self.default <= d:
            raise LazyTreeError("default direction out of range")
        arity = self.origin_arity()
        regions = dict(self.regions)            # address: height
        starts: dict[Address, tuple[tuple[int, int], ...]] = {}
        for i, ray in enumerate(self.rays):
            if ray.pattern:     # an empty one is refused below, unstepped
                starts[ray.start] = starts.get(ray.start, ()) + ((i, 0),)
        structure, placed = self._type_structure(regions, starts)
        kinds = structure.kind
        placed = iter(placed)
        overridden: set[int] = set()
        on_ray: dict[int, Address] = {}     # ray index: shallowest override
        for addr, dirn in self.overrides:
            if not 1 <= dirn <= (d if addr else arity):
                raise LazyTreeError(f"override direction {dirn} out of range")
            y = next(placed, None)
            if y is None:
                raise LazyTreeError(f"bad address {addr}")
            if y in overridden:
                raise LazyTreeError(f"address {addr} assigned twice")
            overridden.add(y)
            kind = kinds[y]
            kind.base = dirn
            for i, _ in kind.rays:
                if i not in on_ray or len(addr) < len(on_ray[i]):
                    on_ray[i] = addr
        # the deepest position: a ray start or region address is no deeper
        # than its term below
        depth = max(1, max(structure.depth))
        for i, ray in enumerate(self.rays):
            if ray.start == ORIGIN:
                raise LazyTreeError("rays must start below the origin")
            if next(placed, None) is None:
                raise LazyTreeError(f"bad address {ray.start}")
            if not ray.pattern:
                raise LazyTreeError("ray pattern must be nonempty")
            if any(not 1 <= c <= d - 1 for c in ray.pattern):
                raise LazyTreeError("ray pattern uses invalid child indices")
            if not 1 <= ray.direction <= d:
                raise LazyTreeError("ray direction out of range")
            if i in on_ray:
                raise LazyTreeError(f"address {on_ray[i]} assigned twice")
            depth = max(depth, len(ray.start) + len(ray.pattern))
        regioned: set[int] = set()
        for addr, h in self.regions:
            y = next(placed, None)
            if y is None:
                raise LazyTreeError(f"bad address {addr}")
            if addr == ORIGIN and self.mode == "tree":
                raise LazyTreeError("level regions must sit inside a branch")
            if h < 0:
                raise LazyTreeError("region height must be nonnegative")
            if y in regioned:
                raise LazyTreeError(f"address {addr} assigned twice")
            regioned.add(y)
            depth = max(depth, len(addr) + h)
        object.__setattr__(self, "root_kind", kinds[0])
        object.__setattr__(self, "_structure", structure)
        object.__setattr__(self, "_static_depth", depth)

    def _type_structure(self, regions: dict[Address, int],
                        starts: dict[Address, tuple[tuple[int, int], ...]],
                        ) -> tuple[_Structure, list[int]]:
        """The structure tables, and the positions of the marks (override
        addresses, then ray starts, then region addresses) in order, up to
        the first with a bad child index.  Placing a mark records it and
        each missing prefix, parents first: each gets the next position, its
        child index range-checked and its kind made from its parent's, once.
        A mark whose parent is a placed mark is one step below it; any other
        walks down from the origin, reading the region heights and ray
        starts of the prefixes it makes from a trie.  The columns grow as
        lists and are frozen into arrays once."""
        d = self.d
        arity = self.origin_arity()
        default = self.default
        off_limit = math.inf if default == d - 1 else 0
        root = self._kind(
            1 if self.mode == "branch" and ORIGIN not in regions else None,
            (), regions.get(ORIGIN))    # the branch origin edge: no rotor
        parents, depths, cidxs, heads, nexts = [-1], [0], [0], [0], [0]
        kinds = [root]
        ids: dict[int, int] = {}
        made = {ORIGIN: 0}              # mark: position
        placed: list[int] = []
        trie: dict | None = None        # of the region and ray start marks
        for addr in chain(map(itemgetter(0), self.overrides),
                          map(attrgetter("start"), self.rays),
                          map(itemgetter(0), self.regions)):
            x = made.get(addr[:-1])
            if x is None:               # down from the origin
                if trie is None:
                    trie = {}
                    for a in (*regions, *starts):
                        node = trie
                        for c in a:
                            node = node.setdefault(c, {})
                        node[None] = a
                x, node, path = 0, trie, addr
            else:                       # one step below a placed mark
                node, path, mark = None, addr[-1:], addr
            for c in path:
                if not 1 <= c <= (arity if x == 0 else d - 1):
                    break
                if node is not None:    # the prefix's mark, if it is one
                    node = node.get(c, {})
                    mark = node.get(None)
                y = ids.get(x * d + c)
                if y is None:
                    kind = kinds[x]
                    left = kind.left
                    left = regions.get(mark, left and left - 1)
                    if kind.rays or starts and mark in starts:
                        rays = (self._step_rays(kind.rays, c) if kind.rays
                                else ())
                        sub = self._kind(None, rays + starts.get(mark, ()),
                                         left)
                    elif left is None:  # as ``_kind`` makes it, inline
                        sub = NodeKind(default, off_limit, None, ())
                    else:
                        sub = NodeKind(d - 1 if left else d, left, left, ())
                    y = ids[x * d + c] = len(kinds)
                    parents.append(x)
                    depths.append(depths[x] + 1)
                    cidxs.append(c)
                    nexts.append(heads[x])
                    heads[x] = y
                    heads.append(0)
                    kinds.append(sub)
                    kind.pos, kind.limit = x, 0     # structure below
                x = y
            else:
                made[addr] = x
                placed.append(x)
                continue
            break                       # a bad child index: typing stops
        return _Structure(*(array("i", column) for column in
                            (parents, depths, cidxs, heads, nexts)),
                          kinds, ids), placed

    # -- base directions ----------------------------------------------------

    def _kind(self, override: int | None, rays: tuple[tuple[int, int], ...],
              left: int | None) -> NodeKind:
        """The base direction is the override, else the least config ray's
        direction, else the level region's, else the default."""
        if override is not None:
            base = override
        elif rays:
            base = self.rays[min(rays)[0]].direction
        elif left is not None:
            base = self.d - 1 if left else self.d
        else:
            base = self.default
        if rays:
            limit = 0
        elif left is not None:
            limit = left
        else:
            limit = math.inf if self.default == self.d - 1 else 0
        return NodeKind(base, limit, left, rays)

    def _step_rays(self, rays: tuple[tuple[int, int], ...],
                   c: int) -> tuple[tuple[int, int], ...]:
        """The config rays of a parent that go on through its child c."""
        pattern = [ray.pattern for ray in self.rays]
        return tuple((i, (o + 1) % len(pattern[i]))
                     for i, o in rays if pattern[i][o] == c)

    @cached_property
    def _shared_kinds(self) -> dict[tuple, NodeKind]:
        return {}

    def child_kind(self, kind: NodeKind, c: int) -> NodeKind:
        """Kind of child ``c`` of a vertex of kind ``kind``: its structure
        kind if it has one, else the shared one (``_off_structure``)."""
        if kind.pos is not None:
            y = self._structure.ids.get(kind.pos * self.d + c)
            if y is not None:
                return self._structure.kind[y]
        return self._off_structure(kind, c)

    def _off_structure(self, kind: NodeKind, c: int) -> NodeKind:
        """The kind child ``c`` of a vertex of kind ``kind`` has when it is
        not a structure child.  It depends only on the config rays through
        the vertex and the region levels left, so those kinds are shared."""
        rays = self._step_rays(kind.rays, c) if kind.rays else ()
        key = (rays, kind.left and kind.left - 1)
        shared = self._shared_kinds.get(key)
        if shared is None:
            shared = self._shared_kinds[key] = self._kind(None, *key)
        return shared

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        payload: dict = {
            "d": self.d,
            "mode": self.mode,
            "default": self.default,
            "overrides": [{"addr": addr_to_str(a), "dir": dirn}
                          for a, dirn in self.overrides],
            "rays": [{"start_addr": addr_to_str(r.start),
                      "pattern": list(r.pattern),
                      "dir": r.direction} for r in self.rays],
        }
        if self.regions:
            payload["regions"] = [{"addr": addr_to_str(r.addr), "h": r.h}
                                  for r in self.regions]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "LazyTreeConfig":
        """Parse a config; a missing field, a wrong JSON type or nesting
        too deep for the json module raises LazyTreeError."""
        try:
            p = json.loads(text)
        except RecursionError:
            raise LazyTreeError("config JSON is nested too deeply") from None
        return LazyTreeConfig(
            d=_json_field(p, "d", int),
            default=_json_field(p, "default", int),
            mode=_json_field(p, "mode", str, "tree"),
            overrides=tuple((_json_addr(o, "addr"), _json_field(o, "dir", int))
                            for o in _json_field(p, "overrides", list, [])),
            rays=tuple(RayRule(_json_addr(r, "start_addr"),
                               _json_ints(r, "pattern"),
                               _json_field(r, "dir", int))
                       for r in _json_field(p, "rays", list, [])),
            regions=tuple(LevelRegion(_json_addr(r, "addr"),
                                      _json_field(r, "h", int))
                          for r in _json_field(p, "regions", list, [])),
        )


_REQUIRED = object()


def _json_field(obj, key: str, kind: type, default=_REQUIRED):
    """obj[key] from a parsed config, checked to be exactly a ``kind``
    (so JSON true is not an int)."""
    if type(obj) is not dict:
        raise LazyTreeError("config and its entries must be JSON objects")
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise LazyTreeError(f"config field {key!r} is missing")
    if type(value) is not kind:
        raise LazyTreeError(
            f"config field {key!r} must be of type {kind.__name__}")
    return value


def _json_ints(obj, key: str) -> tuple[int, ...]:
    values = _json_field(obj, key, list)
    if any(type(v) is not int for v in values):
        raise LazyTreeError(f"config field {key!r} must list integers")
    return tuple(values)


def _json_addr(obj, key: str) -> Address:
    text = _json_field(obj, key, str)
    try:
        return str_to_addr(text)
    except ValueError:
        raise LazyTreeError(f"bad address {text!r}") from None


def uniform_config(d: int, direction: int, mode: str = "tree") -> LazyTreeConfig:
    return LazyTreeConfig(d=d, default=direction, mode=mode)


def alternating_tree_config() -> LazyTreeConfig:
    """Ternary tree: rightmost ray of branch 3 points in direction 2, rest 1.

    Under this configuration chips alternate escape, return, escape, ...
    starting with an escape.
    """
    return LazyTreeConfig(d=3, default=1,
                          rays=(RayRule((3,), (2,), 2),))


# -- acyclicity of a finite description -------------------------------------

def find_cyclic_pair(cfg: LazyTreeConfig) -> tuple[Address, Address] | None:
    """A parent/child pair whose base rotors point at each other, if any.

    A vertex's kind fixes the kinds of its children, so whether a vertex
    and the child it points at form a pair depends on its kind alone, and
    each kind is checked once, at the first vertex of it met depth-first
    from the origin.  The walk enters a kind's structure children, as the
    structure tables list them, the children its config rays head to, and
    the least other child: the remaining children share that one's kind.
    A vertex is held as the link (c, parent's link), None at the origin,
    so the walk builds no address but the one of the pair it returns."""
    d = cfg.d
    rays = cfg.rays
    s = cfg._structure
    seen: set[NodeKind] = set()
    stack: list[tuple[NodeKind, tuple | None]] = [(cfg.root_kind, None)]
    while stack:
        kind, link = stack.pop()
        if kind in seen:
            continue
        seen.add(kind)
        arity = d - 1 if link else cfg.origin_arity()
        bp = kind.base
        if (bp <= arity and (link or cfg.mode == "tree")
                and cfg.child_kind(kind, bp).base == d):
            path = []
            while link:
                path.append(link[0])
                link = link[1]
            addr = tuple(reversed(path))
            return (addr, addr + (bp,))
        cs = {rays[i].pattern[o] for i, o in kind.rays}
        if kind.pos is not None:        # its structure children
            y = s.head[kind.pos]
            while y:
                cs.add(s.cidx[y])
                y = s.next[y]
        c = 1
        while c in cs:
            c += 1
        if c <= arity:
            cs.add(c)
        for c in sorted(cs, reverse=True):      # preorder: least on top
            stack.append((cfg.child_kind(kind, c), (c, link)))
    return None


def is_acyclic_config(cfg: LazyTreeConfig) -> bool:
    return find_cyclic_pair(cfg) is None


def random_acyclic_config(d: int, rng: random.Random,
                          max_depth: int = 3,
                          allow_ray: bool = True) -> LazyTreeConfig:
    """Random acyclic configuration: default + up to 8 overrides, sometimes a
    ray."""
    while True:
        default = rng.randrange(1, d)      # direction d at the origin is cyclic
        n_over = rng.randrange(0, 9)
        overrides: dict[Address, int] = {}
        for _ in range(n_over):
            depth = rng.randrange(0, max_depth + 1)
            addr: Address = ()
            for lvl in range(depth):
                hi = d if lvl == 0 else d - 1
                addr = addr + (rng.randrange(1, hi + 1),)
            overrides[addr] = rng.randrange(1, d + 1)
        rays: tuple[RayRule, ...] = ()
        if allow_ray and rng.random() < 0.3:
            start = (rng.randrange(1, d + 1),)
            if start not in overrides:
                pattern = (rng.randrange(1, d),)
                rays = (RayRule(start, pattern, rng.randrange(1, d)),)
        try:
            cfg = LazyTreeConfig(d=d, default=default,
                                 overrides=tuple(overrides.items()),
                                 rays=rays)
        except LazyTreeError:
            continue
        if is_acyclic_config(cfg):
            return cfg


# -- ball arithmetic ---------------------------------------------------------

def _check_ball(d: int, rho: int) -> None:
    if d < 3:
        raise LazyTreeError("degree d must be at least 3")
    if rho < 0:
        raise LazyTreeError("radius must be nonnegative")


def ball_size(d: int, rho: int) -> int:
    """Number of vertices within distance rho of the origin: b_rho."""
    _check_ball(d, rho)
    a = d - 1
    return 1 + d * (a ** rho - 1) // (a - 1)


def layer_size(d: int, k: int) -> int:
    return 1 if k == 0 else d * (d - 1) ** (k - 1)


def modified_count(d: int, rho: int) -> int:
    """Chips of the stop-at-origin-too process needed to fill B_rho: c_rho."""
    _check_ball(d, rho)
    a = d - 1
    return 1 + d * sum((a ** t - 1) // (a - 1) for t in range(1, rho + 1))


# -- the walk engine ---------------------------------------------------------

RETURNED = "returned"
ESCAPED = "escaped"


@dataclass
class ChipResult:
    outcome: str                  # RETURNED | ESCAPED
    max_depth: int                # deepest level reached (escape: peel depth)
    steps: int
    visited: list[Address] | None = None


class TreeState:
    """Mutable rotor state of a lazy tree run, on per-vertex id tables.

    Id 0 is the origin.  With fast paths the state starts as a copy of the
    config's structure tables (``LazyTreeConfig._structure``), so ids 1,
    2, ... are the structure's positions, in the order typing first met
    each prefix; any other vertex gets the next id on first contact, as
    every vertex does in the literal mode.  Per id: ``_parent``,
    ``_depth``, ``_cidx`` (its child index under the parent), ``_rot`` (0
    while the vertex is not materialized), ``_kind``, and
    ``_head``/``_next``, which list each vertex's children newest first (0
    ends a list: the origin is nobody's child).

    At every degree the id of child c of x sits in the dict ``_kids`` under
    the key ``x * d + c``, so memory follows the vertices touched: an entry
    with its two int objects costs about 110 bytes per child.  On runs that
    touch millions of vertices that is more than fixed slots of 4-byte ints
    would take: ``escape simulate --preset alternating --m 1000000``
    peaks at 346 MiB of RSS, where d slots per vertex with a child took
    294 MiB (CPython 3.11, x86-64).

    Sparse maps hold what most vertices lack: ``_rc`` pass counts;
    ``_cover``, for each vertex a patch covers, the largest ``depth(a) + k``
    over the patches ``(a, k)`` at or above it; ``_tips``, the ids of the
    rays whose pending tip sits on the vertex, in ray-id order.  Each tip
    heads to child ``ray_seen[r] % d + 1``, which has no id yet.
    ``_addr`` memoizes the addresses handed out by the API.
    ``fast_paths=False`` makes the literal engine, the fast one's oracle.
    DEFAULT_STEP_BUDGET bounds each walk (see ``walk_chip``).
    """

    def __init__(self, cfg: LazyTreeConfig, fast_paths: bool = True):
        self.cfg = cfg
        self.fast = fast_paths
        s = cfg._structure
        n = len(s.kind) if fast_paths else 1
        self._parent, self._depth, self._cidx, self._next = (
            a[:n] for a in (s.parent, s.depth, s.cidx, s.next))
        self._head = s.head[:n] if fast_paths else array("i", [0])
        self._kids: dict[int, int] = s.ids.copy() if fast_paths else {}
        self._rot: list[int] = [0] * n
        self._rot[0] = cfg.root_kind.base if cfg.mode == "tree" else 0
        self._kind: list[NodeKind] = s.kind[:n]
        self._addr: list[Address | None] = [ORIGIN] + [None] * (n - 1)
        self._rc: dict[int, int] = {}
        self._cover: dict[int, int] = {}
        self._patch: dict[int, int] = {}
        self._tips: dict[int, list[int]] = {}
        self.ray_seen: dict[int, int] = {}
        self.n_rays = 0
        self._max_materialized = 0
        self._max_patch_end = 0

    # -- ids and addresses ----------------------------------------------------

    def _child(self, x: int, c: int) -> int:
        """A fresh id for child c of x, covered as x is.  The tips at x
        that head to c move into it, in ray-id order."""
        y = len(self._rot)
        self._kids[x * self.cfg.d + c] = y
        depth = self._depth[x] + 1
        self._parent.append(x)
        self._depth.append(depth)
        self._cidx.append(c)
        self._next.append(self._head[x])
        self._head[x] = y
        self._head.append(0)
        self._rot.append(0)
        self._kind.append(self.cfg.child_kind(self._kind[x], c))
        self._addr.append(None)
        cover = self._cover.get(x, 0)
        if cover > depth:
            self._cover[y] = cover
        tips = self._tips.pop(x, None)
        if tips:
            for r in tips:
                if self._heading(r) == c:
                    self._advance_ray(r, y)
                    self._tips.setdefault(y, []).append(r)
                else:
                    self._tips.setdefault(x, []).append(r)
        return y

    def _id(self, x: int, c: int) -> int:
        """The id of child c of x, or -1 if it has none yet."""
        return self._kids.get(x * self.cfg.d + c, -1)

    def _kid(self, x: int, c: int) -> int:
        """The id of child c of x, made if it has none yet."""
        y = self._id(x, c)
        return self._child(x, c) if y < 0 else y

    def _node(self, addr: Address) -> int:
        """The id of an address, making ids down its path as needed."""
        x = 0
        hi = self.cfg.origin_arity()
        for c in addr:
            if not 1 <= c <= hi:
                raise LazyTreeError(f"bad address {addr}")
            hi = self.cfg.d - 1
            x = self._kid(x, c)
        return x

    def _address(self, x: int) -> Address:
        """The address of id x, memoized with those of its ancestors."""
        addrs = self._addr
        path = []
        while addrs[x] is None:
            path.append(x)
            x = self._parent[x]
        addr = addrs[x]
        for y in reversed(path):
            addr = addrs[y] = addr + (self._cidx[y],)
        return addr

    # -- address-keyed snapshots ------------------------------------------------

    def _by_address(self, items: Iterable) -> dict:
        return {self._address(x): v for x, v in items if v}

    @property
    def rotors(self) -> dict[Address, int]:
        """Materialized rotor directions by address (a fresh dict)."""
        return self._by_address(enumerate(self._rot))

    @property
    def patches(self) -> dict[Address, int]:
        """Patch roots: levels 0..k-1 below the address point in direction
        d (a fresh dict)."""
        return self._by_address(self._patch.items())

    @property
    def ray_counts(self) -> dict[Address, int]:
        """Escape rays that have passed each vertex (a fresh dict)."""
        return self._by_address(self._rc.items())

    @property
    def ray_tips(self) -> dict[Address, list[int]]:
        """Pending ray tips by address, as lists of ray ids (a fresh dict)."""
        return self._by_address((x, list(v)) for x, v in self._tips.items())

    # -- dynamic direction lookups -------------------------------------------

    def effective(self, addr: Address) -> int:
        """Current rotor direction at an address; making ids down to it
        moves the ray tips that pass them."""
        x = self._node(addr)
        r = self._rot[x]
        if r:
            return r
        d = self.cfg.d
        base = d if x in self._cover else self._kind[x].base
        k = self._rc.get(x)
        if k:
            arity = self.cfg.origin_arity() if x == 0 else d
            return (base - 1 + k) % arity + 1
        return base

    def _cover_below(self, x: int, end: int) -> None:
        """A patch at x now reaches absolute depth ``end``: the descendants
        of x that have ids are covered that deep too."""
        cover = self._cover
        depth = self._depth
        stack = _children(self._head, self._next, x)
        while stack:
            y = stack.pop()
            # a vertex at depth >= end stays as it was, and so does every
            # vertex below one whose cover already reaches end
            if depth[y] < end and cover.get(y, 0) < end:
                cover[y] = end
                stack += _children(self._head, self._next, y)

    # -- escape rays ----------------------------------------------------------

    def _heading(self, ray_id: int) -> int:
        """The child that a ray's tip goes to next."""
        inc = self.ray_seen[ray_id] % self.cfg.d + 1
        if inc == self.cfg.d:
            raise ResultCheckError("escape ray tried to bounce; engine bug")
        return inc

    def _advance_ray(self, ray_id: int, y: int) -> None:
        """The ray passes y, its tip's next vertex: y's pass count grows by
        one, and ``ray_seen`` becomes the direction y showed the ray."""
        d = self.cfg.d
        k = self._rc[y] = self._rc.get(y, 0) + 1
        base = d if y in self._cover else self._kind[y].base
        self.ray_seen[ray_id] = (base - 2 + k) % d + 1

    def _record_escape(self, x: int, seen_dir: int) -> None:
        """A new ray through x.  Its tip walks down the ids that already
        exist (the path the escape probe made) and stops on the first
        vertex whose next one has none."""
        self._rc[x] = self._rc.get(x, 0) + 1
        ray_id = self.n_rays
        self.n_rays += 1
        self.ray_seen[ray_id] = seen_dir
        y = self._id(x, self._heading(ray_id))
        while y >= 0:
            self._advance_ray(ray_id, y)
            x = y
            y = self._id(x, self._heading(ray_id))
        self._tips.setdefault(x, []).append(ray_id)

    def _descent_stop(self, x: int) -> int:
        """Exact escape decision for a chip about to descend from x, a fresh
        vertex without passes: -1 once a probe down the chip's path, making
        ids on it, proves that it never bounces (uniform default c != d-1,
        an all-d region tail, or an endless ride along a config ray).
        Otherwise the first vertex of the path where a bounce is certain or
        the territory is mixed: the chip steps straight down to it, turning
        each fresh vertex above it once, and the stepwise walk takes over.
        """
        d = self.cfg.d
        static = self.cfg._static_depth
        kids = self._kids
        rot = self._rot
        kinds = self._kind
        depths = self._depth
        cover = self._cover
        rc = self._rc
        w = x
        ride_seen: set[tuple[int, int]] = set()
        guard = 4 * (static + depths[x]) + 64
        while guard:
            guard -= 1
            if w in rc or rot[w]:
                return w
            kind = kinds[w]
            e = d if w in cover else kind.base
            inc = e % d + 1
            if inc == d:
                return w
            if kind.pos is None:
                if not kind.rays:       # no bounce above the limit
                    depth = depths[w]
                    if (cover.get(w, 0) or depth + 1) >= depth + kind.limit:
                        return -1
                    return w
                ray = min(kind.rays)    # the one the base follows
                if (self.cfg.rays[ray[0]].pattern[ray[1]] == inc and depths[w]
                        > static + self._max_patch_end):
                    if ray in ride_seen:
                        return -1       # periodic ride along the ray
                    ride_seen.add(ray)
            # along the ray, or off it
            y = kids.get(w * d + inc, -1)
            w = y if y >= 0 else self._child(w, inc)
        raise UnsupportedConfigError("escape decision did not converge")

    def _fresh_depth_cap(self) -> int:
        """Progress bound for stepwise entries into fresh territory.

        A walk that keeps stepping into first-visit vertices beyond every
        static structure, every patch, and the materialized region is
        escaping without a pure descent (for example bouncing its way down a
        ray whose rotors point at the parent).  Such runs leave a state with
        no finite advanced-ray description, so they are refused rather than
        simulated; none of the supported experiments produce them.
        """
        return (self.cfg._static_depth + self._max_patch_end
                + self._max_materialized + 64)

    # -- chip walks -------------------------------------------------------------

    def walk_chip(self, record_visits: bool = False) -> ChipResult:
        """One chip from the origin: walk until it returns or escapes.

        With fast paths a fresh descent is probed once: unless the chip
        escapes, it takes the probed path in one stride and walks on where
        the probe stopped.  The literal walk probes at every fresh vertex.
        No stride crosses the step budget or the fresh-depth cap, so both
        bind at the same step in both modes.

        DEFAULT_STEP_BUDGET, read when the walk starts, bounds this walk on
        its own: StepBudgetExceededError is raised before the step past it.
        """
        d = self.cfg.d
        parent = self._parent
        depths = self._depth
        cidx = self._cidx
        kids = self._kids
        rot = self._rot
        head = self._head
        kinds = self._kind
        cover = self._cover
        patch = self._patch
        rc = self._rc
        fast = self.fast
        cap = DEFAULT_STEP_BUDGET
        fresh_cap = self._fresh_depth_cap()   # frozen: the walk's own
        visited: list[Address] | None = [] if record_visits else None
        if cap < 1:
            raise StepBudgetExceededError(f"exceeded {cap} steps")
        if self.cfg.mode == "branch":
            inc = 1                     # the origin edge carries no rotor
        else:
            inc = rot[0] % d + 1        # the origin's d branches
            rot[0] = inc
        pos = depth = max_depth = 0     # depth: of pos
        steps = 1
        numbers = iter(range(2, cap + 1))     # of the steps still allowed

        while True:                     # step ``steps``: pos to child inc
            target = kids.get(pos * d + inc, -1)
            if target < 0:
                target = self._child(pos, inc)
            t_depth = depth + 1
            if t_depth > max_depth:
                max_depth = t_depth
            if visited is not None:
                visited.append(self._address(target))

            if rot[target]:
                pos = target
                depth = t_depth
            else:
                # entering unmaterialized territory: cover, base, pass count
                cov = cover.get(target, 0)
                kind = kinds[target]
                k = rc.get(target)
                e = d if cov else kind.base
                if k:
                    e = (e - 1 + k) % d + 1

                if e == d - 1 and (k or not fast):
                    # bounce straight back to the parent
                    self._materialize(target, d)
                elif e == d - 1 or (e == d and fast and not k and (
                        cov or t_depth + 1) < t_depth + kind.limit):
                    # a bounce, kept as a one-level patch, or a closed-form
                    # excursion: a full turn of every vertex down to level
                    # lvl, the first under the patch (a cover lies below
                    # its vertex), and back up.  The patch then passes level
                    # lvl, deeper than the vertex's patch and cover reached.
                    lvl = t_depth if e < d else cov or t_depth + 1
                    if lvl > max_depth:
                        max_depth = lvl
                    end = lvl + 1
                    patch[target] = end - t_depth
                    cover[target] = end
                    if end > self._max_patch_end:
                        self._max_patch_end = end
                    if head[target]:
                        self._cover_below(target, end)
                else:
                    # a vertex with passes is not probed, and no stride
                    stop = target if k else self._descent_stop(target)
                    if stop < 0:
                        self._record_escape(target, e)
                        return ChipResult(ESCAPED, max_depth, steps, visited)
                    if t_depth > fresh_cap:
                        raise UnsupportedConfigError(
                            "walk keeps entering fresh territory without a "
                            "provable descent; configuration outside the "
                            "supported class")
                    # step into the vertex, and on down the probe's path
                    self._materialize(target, e)
                    pos = target
                    depth = t_depth
                    s_depth = depths[stop]
                    if (fast and t_depth < s_depth <= fresh_cap + 1
                            and steps + s_depth - t_depth <= cap):
                        steps += s_depth - t_depth
                        numbers = iter(range(steps + 1, cap + 1))
                        pos, depth, inc = parent[stop], s_depth - 1, cidx[stop]
                        self._materialize(pos, inc)
                        y = pos                 # each turns toward the next
                        while y != target:
                            x = parent[y]
                            rot[x] = cidx[y]
                            y = x
                        if visited is not None:     # below target, above stop
                            a = self._address(stop)
                            visited += [a[:i] for i in range(t_depth + 1,
                                                             s_depth)]
                        continue
                if not pos:
                    return ChipResult(RETURNED, max_depth, steps, visited)

            for steps in numbers:       # the next departure from pos
                inc = rot[pos] % d + 1
                rot[pos] = inc
                if inc < d:
                    break
                # up: every materialized vertex's parent is materialized
                pos = parent[pos]
                if not pos:
                    return ChipResult(RETURNED, max_depth, steps, visited)
                depth -= 1
                if visited is not None:
                    visited.append(self._address(pos))
            else:
                raise StepBudgetExceededError(f"exceeded {cap} steps")

    def _materialize(self, x: int, dirn: int) -> None:
        self._rot[x] = dirn
        if self._depth[x] > self._max_materialized:
            self._max_materialized = self._depth[x]


@dataclass
class EscapeRunResult:
    word: str
    depths: list[int | None]      # per chip: deepest level, None if escaped
    state: TreeState

    @property
    def returns(self) -> int:
        return self.word.count("0")

    @property
    def escapes(self) -> int:
        return self.word.count("1")


def run_chips_infinite(cfg: LazyTreeConfig, m: int,
                       state: TreeState | None = None) -> EscapeRunResult:
    """Run m chips from the origin; 1 per escape, 0 per return.  They walk
    on a new fast ``TreeState``, or go on with ``state``, made for an equal
    config, fast or literal.  DEFAULT_STEP_BUDGET bounds each chip's walk
    (see ``TreeState.walk_chip``)."""
    st = TreeState(cfg) if state is None else state
    if st.cfg != cfg:
        raise LazyTreeError("state was made for another config")
    bits = []
    depths = []
    for _ in range(m):
        res = st.walk_chip()
        escaped = res.outcome == ESCAPED
        bits.append("1" if escaped else "0")
        depths.append(None if escaped else res.max_depth)
    return EscapeRunResult("".join(bits), depths, st)


# -- aggregation --------------------------------------------------------------

class _ResponseTables:
    """Aggregation on the tree of a config: one response table per subtree
    type, all built and read by one loop, ``chip_stops``.

    A subtree is entered only from its root's parent, so what the k-th chip
    entering it does depends only on the subtree's initial rotors and on k.
    Those rotors follow from the root's content key (base, rays, left,
    children): its ``NodeKind``'s base direction, config rays with their
    offsets and region levels left, and ``(c, id)`` for each structure
    child c whose content id differs from that of the off-structure kind
    at c.  Keys are interned to content ids when the tables are made, over
    the config's structure positions in reverse, children before parents;
    a kind with no id yet has no structure below it and gets its own on
    first use.  So every subtree with one content shares one table:
    content-equal structure subtrees, and a structure prefix that adds
    nothing to the kind it would have off the structure.

    Types are ids in order of first entry; 0 is the origin's, never shared.
    Flat lists indexed by id hold a ``kind`` of each type, its ``base``
    direction, its ``kids`` (the child indices entered so far, mapped to
    their type ids) and the table's columns.  Element k is what the k-th
    chip to enter the root from its parent (counting from 0) does.
    ``steps[t][k]`` counts its literal steps, from the move into the root
    to the move that settles it or takes it back up.  ``dep[t][k]`` is how
    many chips the root's rotor has sent on after the first k + 1 entries.
    ``site[t][k]`` is None when the chip goes back up; otherwise the chip
    settles on ``site[t][k][off[t][k]:]``, relative to the root.
    ``site[t][k]`` is the absolute address where the chip that built the
    element settled, already held by the stops, so an element costs no
    address of its own.  Element 0 is the same for every type: the first
    chip settles on the root.  The origin's table stays empty, and
    ``origin_dep`` counts the chips sent on by the origin itself.
    ``total_steps`` is the literal step total of the chips so far."""

    def __init__(self, cfg: LazyTreeConfig) -> None:
        self.cfg = cfg
        self._keys: dict[tuple, int] = {}
        self._content: dict[NodeKind, int] = {}
        content = self._content_id
        s = cfg._structure
        for kind in reversed(s.kind):       # children first
            if kind.pos is not None:
                children = []
                for y in _children(s.head, s.next, kind.pos):
                    c, u = s.cidx[y], content(s.kind[y])
                    if u != content(cfg._off_structure(kind, c)):
                        children.append((c, u))
                self._content[kind] = self._intern(kind, children)
        self._index: dict[int, int] = {}
        self.kind = [cfg.root_kind]
        self.base = [cfg.root_kind.base]
        self.kids: list[dict[int, int]] = [{}]
        self.site: list[list[Address | None]] = [[]]
        self.steps: list[list[int]] = [[]]
        self.off = [array("i")]
        self.dep = [array("q")]
        self.origin_dep = 0
        self.total_steps = 0

    def _intern(self, kind: NodeKind, children: list) -> int:
        key = (kind.base, kind.rays, kind.left, tuple(sorted(children)))
        return self._keys.setdefault(key, len(self._keys))

    def _content_id(self, kind: NodeKind) -> int:
        """A kind's content id; one not given an id yet has no structure
        below it."""
        cid = self._content.get(kind)
        if cid is None:
            cid = self._content[kind] = self._intern(kind, [])
        return cid

    def _kid(self, t: int, c: int) -> int:
        """The id of the type of child c of a vertex of type t, recorded in
        ``kids[t]``."""
        kind = self.cfg.child_kind(self.kind[t], c)
        cid = self._content_id(kind)
        u = self._index.get(cid)
        if u is None:
            u = self._index[cid] = len(self.kind)
            self.kind.append(kind)
            self.base.append(kind.base)
            self.kids.append({})
            self.site.append([ORIGIN])
            self.steps.append([1])
            self.off.append(array("i", [0]))
            self.dep.append(array("q", [0]))
        self.kids[t][c] = u
        return u

    def chip_stops(self, n: int, modified: bool) -> Iterator[Address]:
        """Where each of n chips from the origin stops, in order: the
        vertex it settles on or, when ``modified``, ORIGIN for a chip that
        comes back.  A plain chip that comes back walks on as a fresh chip
        would.  StepBudgetExceededError is raised once the step total
        passes DEFAULT_STEP_BUDGET, read when the run starts and checked
        whenever a chip is back at the origin.

        The loop runs on an explicit stack of frames whose bottom is the
        origin.  A frame is a vertex whose rotor turns: its type t, its
        address, the chips its rotor has sent on, and the steps of the
        element being built (at the origin: of the whole run).  Departure j
        goes to direction (base - 1 + j) % d + 1.  At the origin that is
        one of its d children; below it direction d is the parent, which
        ends t's element and pops the frame.  Child c's entries before
        departure j are (j - 1) // d, as every d-th departure goes to c.
        Between two entries into c the rotor passes the parent, which ends
        an entry into t, so an element reads only elements below it of the
        child tables.  The child answers from its table, or a new frame on
        top builds its next element first, its rotor's departures read from
        the last entry of the child's ``dep`` column.  A chip that settles
        ends the element of every frame above the origin, whose roots lie
        on its path, and is yielded."""
        d = self.cfg.d
        cap = DEFAULT_STEP_BUDGET
        bases, kids, sites, steps, offs, deps = (
            self.base, self.kids, self.site, self.steps, self.off, self.dep)
        stack: list[tuple[int, Address, int, int]] = []
        t, addr, dep, s = 0, ORIGIN, 0, 0       # the origin frame
        b, kt = bases[0] - 1, kids[0]
        for _ in range(n):
            while True:
                dep += 1
                c = (b + dep) % d + 1
                if c == d and t:        # back up: t's element ends
                    s += 1
                    sites[t].append(None)
                    steps[t].append(s)
                    offs[t].append(0)
                    deps[t].append(dep)
                    inner = s
                    t, addr, dep, s = stack.pop()
                    s += inner          # and the waiting element walks on
                    b, kt = bases[t] - 1, kids[t]
                    site = None
                else:
                    try:
                        u = kt[c]
                    except KeyError:
                        u = self._kid(t, c)
                    j = (dep - 1) // d
                    su = steps[u]
                    if j == len(su):    # build u's element j first
                        stack.append((t, addr, dep, s))
                        t, addr, dep, s = u, addr + (c,), deps[u][-1], 1
                        b, kt = bases[t] - 1, kids[t]
                        continue
                    s += su[j]
                    site = sites[u][j]
                    if site is not None:
                        site = addr + (c,) + site[offs[u][j]:]
                        while t:        # every element on the stack ends
                            sites[t].append(site)
                            steps[t].append(s)
                            offs[t].append(len(addr))
                            deps[t].append(dep)
                            inner = s
                            t, addr, dep, s = stack.pop()
                            s += inner
                        b, kt = bases[0] - 1, kids[0]
                if t:
                    continue
                if s > cap:             # back at the origin
                    raise StepBudgetExceededError(f"exceeded {cap} steps")
                if site is not None or modified:
                    break
            yield ORIGIN if site is None else site
        self.origin_dep = dep
        self.total_steps = s

    def final_rotors(self, stops: list[Address]) -> tuple[dict, bool]:
        """Each site's final rotor, keyed by the stops' own addresses, and
        whether every site sent on a multiple of d chips.  One pass in settle
        order (parents first) gives a site its type and departures; child c
        gets departure (c - base - 1) % d + 1 and every d-th after it."""
        d = self.cfg.d
        bases, kids, deps = self.base, self.kids, self.dep
        sites: dict = {ORIGIN: (0, self.origin_dep)}
        for site in stops:
            if site:
                t, dep = sites[site[:-1]]
                c = site[-1]
                u = kids[t][c]
                k = (dep - (c - bases[t] - 1) % d - 1) // d
                sites[site] = u, deps[u][k]     # after c's last entry
        restored = all(dep % d == 0 for _, dep in sites.values())
        for site, (t, dep) in sites.items():    # in place: no second dict
            sites[site] = (bases[t] - 1 + dep) % d + 1
        return sites, restored


@dataclass
class AggregationResult:
    d: int
    chips: int
    occupied: set[Address]
    depth_counts: dict[int, int]
    max_depth: int
    ball_checks: list[tuple[int, bool]]     # (rho, occupied == B_rho) at b_rho
    sandwich_ok: bool
    stops: list[Address]                    # where each chip stopped, in order
    steps: int                              # literal steps of all chips
    _tables: _ResponseTables = field(repr=False, compare=False)

    @cached_property
    def _final(self) -> tuple[dict[Address, int], bool]:
        return self._tables.final_rotors(self.stops)

    @property
    def rotors(self) -> dict[Address, int]:
        """Final rotor direction per cluster vertex, built on first access."""
        return self._final[0]

    def is_exact_ball(self, rho: int) -> bool:
        return (self.occupied_is_ball(rho)
                and all(self.depth_counts.get(k, 0) == layer_size(self.d, k)
                        for k in range(rho + 1)))

    def occupied_is_ball(self, rho: int) -> bool:
        return (len(self.occupied) == ball_size(self.d, rho)
                and self.max_depth == rho)

    def rotors_restored(self) -> bool:
        """True iff every vertex sent on a multiple of d chips."""
        return self._final[1]


def _aggregate_run(cfg: LazyTreeConfig, n_chips: int, modified: bool,
                   check_acyclic: bool) -> AggregationResult:
    """Chip 1 occupies the origin; every later chip walks until it enters
    an unoccupied vertex, which it occupies, or, when ``modified``, until
    it returns to the origin.  The stops come from the response tables.

    The checkpoints are read at two sizes per radius.  A_s, the cluster
    after s settles, only grows, and so does its deepest settle.  So for
    b_{rho-1} < s < b_rho, A_s in B_rho holds at every such s iff it does
    at s = min(b_rho - 1, N), N the number of settles; and B_{rho-1} in A_s
    holds at every such s iff it does at s = b_{rho-1} + 1, that is, iff
    b_{rho-1} of the first b_{rho-1} + 1 settles lie at depth <= rho - 1
    (the guard checks that settles are on distinct sites).  At s = b_rho,
    A_s = B_rho iff the deepest of the first b_rho settles is at depth rho."""
    if cfg.mode != "tree":
        raise LazyTreeError("aggregation runs on the full tree")
    if check_acyclic:
        pair = find_cyclic_pair(cfg)
        if pair is not None:
            raise NotAcyclicError(f"configuration has mutual rotors at {pair}")
    if n_chips < 1:
        raise LazyTreeError("need at least one chip")

    tables = _ResponseTables(cfg)
    stops: list[Address] = [ORIGIN]
    occupied: set[Address] = {ORIGIN}
    # merged block by block, the set grows 2x, not 4x as with add() or
    # set(stops) below 50k sites, and resizes before the tables are whole
    chips = tables.chip_stops(n_chips - 1, modified)
    while block := list(islice(chips, 1024)):
        stops += block
        occupied |= set(block)
    settles = filter(None, map(len, stops))     # depths of settles 2, 3, ...
    counts = Counter((0,))                      # chip 1 settles at depth 0
    ball_checks: list[tuple[int, bool]] = [(0, True)]   # A_1 = {origin} = B_0
    sandwich_ok = True
    rho, b = 0, 1                   # counts holds the first b_rho settles
    while True:
        rho += 1
        b_next = b + layer_size(cfg.d, rho)
        counts.update(islice(settles, 1))       # settle b_{rho-1} + 1
        if counts.total() == b:
            break
        lower = sum(map(counts.__getitem__, range(rho))) == b  # B_{rho-1} in A
        counts.update(islice(settles, b_next - b - 2))  # to b_rho - 1
        sandwich_ok = sandwich_ok and lower and max(counts) <= rho
        counts.update(islice(settles, 1))       # settle b_rho
        if counts.total() < b_next:
            break
        ball_checks.append((rho, max(counts) == rho))
        b = b_next
    size = counts.total()
    if len(occupied) != size:
        raise ResultCheckError(f"{size} settled chips, {len(occupied)} sites")
    return AggregationResult(
        d=cfg.d, chips=n_chips, occupied=occupied,
        depth_counts=dict(counts), max_depth=max(counts),
        ball_checks=ball_checks, sandwich_ok=sandwich_ok,
        stops=stops, steps=tables.total_steps, _tables=tables,
    )


def aggregate(cfg: LazyTreeConfig, n_chips: int,
              check_acyclic: bool = True) -> AggregationResult:
    """Rotor-router aggregation: chip n stops on first exiting the cluster.

    Each chip's stop and literal steps are read from the response tables
    of the subtrees below the origin (see the module docstring), built
    element by element as chips first need them; no chip is walked step
    by step.  DEFAULT_STEP_BUDGET is one budget for the whole run: the
    literal steps of every chip are summed, and StepBudgetExceededError is
    raised once the sum passes it.
    """
    return _aggregate_run(cfg, n_chips, modified=False,
                          check_acyclic=check_acyclic)


def aggregate_modified(cfg: LazyTreeConfig, n_chips: int,
                       check_acyclic: bool = True) -> AggregationResult:
    """Time-changed aggregation: chips also stop on returning to the origin.

    Chips are answered from the response tables and DEFAULT_STEP_BUDGET is
    one budget for the whole run, as in :func:`aggregate`.
    """
    return _aggregate_run(cfg, n_chips, modified=True,
                          check_acyclic=check_acyclic)


# -- DOT export ---------------------------------------------------------------

def dot_blocks(rotors: dict[Address, int], d: int,
               cluster: Iterable[Address] | None = None) -> Iterator[str]:
    """Rotors on the tree of degree d as a DOT digraph, directions as edge
    labels.  Lines come in blocks of up to 1,024, every node before the
    first edge, so a writer holds one block at a time."""
    if cluster is not None and not isinstance(cluster, (set, frozenset)):
        cluster = set(cluster)

    def node(addr: Address) -> str:
        name = addr_to_str(addr) or "o"
        if cluster is None:
            return f'  "{name}" [label="{name}"];'
        fill = "lightblue" if addr in cluster else "white"
        return f'  "{name}" [label="{name}",style=filled,fillcolor="{fill}"];'

    def edge(addr: Address) -> str:
        dirn = rotors[addr]
        tgt = addr[:-1] if addr and dirn == d else addr + (dirn,)
        return (f'  "{addr_to_str(addr) or "o"}" -> '
                f'"{addr_to_str(tgt) or "o"}" [label="{dirn}"];')

    order = sorted(rotors)
    yield "digraph rotors {"
    for line in (node, edge):
        for k in range(0, len(order), 1024):
            yield "\n".join(map(line, order[k:k + 1024]))
    yield "}"
