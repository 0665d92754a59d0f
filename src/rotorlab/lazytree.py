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

The walk engine keeps three kinds of dynamic state besides explicitly
materialized rotors:

* patches -- a subtree prefix known to point entirely in direction d.  A
  chip entering such a subtree whose profile is uniform per level performs
  one full turn of every vertex down to the first direction-(d-1) level and
  comes back, leaving the prefix one level deeper.  Recording that as a
  patch keeps runs like the all-(d-1) configuration polynomial even though
  the literal walk length is exponential in the chip index.

* escape rays -- when a chip provably descends forever, the vertices along
  its infinite path each advance once.  The path is expanded lazily, only
  as deep as later walks actually probe.

* pass counts -- how many escape rays have run through a vertex, which
  offsets its base direction.

Every shortcut is exact: the literal step-by-step engine (fast_paths=False)
computes the same words, the same depths for chips that return, and the same
effective directions, and the test suite cross-checks the two.  The depth
reported for an escaped chip is the depth at which that engine proved the
escape, so the two engines can report different depths for the same chip.

Aggregation runs on the same walk: ``walk_chip(settle=True)`` also stops a
chip on the first vertex whose rotor is not yet materialized.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from rotorlab.graph import (
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
    if text == "":
        return ()
    return tuple(int(p) for p in text.split("/"))


@dataclass(frozen=True)
class RayRule:
    """Infinite ray of rotors: start address, repeating child pattern, direction."""

    start: Address
    pattern: tuple[int, ...]
    direction: int

    def contains(self, addr: Address) -> bool:
        k = len(self.start)
        if addr[:k] != self.start or len(addr) < k:
            return False
        rel = addr[k:]
        return all(c == self.pattern[i % len(self.pattern)]
                   for i, c in enumerate(rel))

    def offset_of(self, addr: Address) -> int:
        return len(addr) - len(self.start)


@dataclass(frozen=True)
class LevelRegion:
    """Subtree rule: relative depths 0..h-1 get direction d-1, deeper get d."""

    addr: Address
    h: int


@dataclass(frozen=True)
class LazyTreeConfig:
    d: int
    default: int
    mode: str = "tree"                    # "tree" | "branch"
    overrides: tuple[tuple[Address, int], ...] = ()
    rays: tuple[RayRule, ...] = ()
    regions: tuple[LevelRegion, ...] = ()

    def __post_init__(self):
        self.validate()

    # -- structure ---------------------------------------------------------

    def origin_arity(self) -> int:
        return self.d if self.mode == "tree" else 1

    def num_children(self, addr: Address) -> int:
        if addr == ORIGIN:
            return self.origin_arity()
        return self.d - 1

    def validate(self) -> None:
        d = self.d
        if d < 3:
            raise LazyTreeError("degree d must be at least 3")
        if self.mode not in ("tree", "branch"):
            raise LazyTreeError(f"unknown mode {self.mode!r}")
        if not 1 <= self.default <= d:
            raise LazyTreeError("default direction out of range")
        seen: set[Address] = set()
        for addr, dirn in self.overrides:
            hi = self.origin_arity() if addr == ORIGIN else d
            if not 1 <= dirn <= hi:
                raise LazyTreeError(f"override direction {dirn} out of range")
            if addr in seen:
                raise LazyTreeError(f"address {addr} assigned twice")
            seen.add(addr)
            self._check_addr(addr)
        for ray in self.rays:
            if ray.start == ORIGIN:
                raise LazyTreeError("rays must start below the origin")
            self._check_addr(ray.start)
            if not ray.pattern:
                raise LazyTreeError("ray pattern must be nonempty")
            if any(not 1 <= c <= d - 1 for c in ray.pattern):
                raise LazyTreeError("ray pattern uses invalid child indices")
            if not 1 <= ray.direction <= d:
                raise LazyTreeError("ray direction out of range")
            probe = ray.start
            for i in range(2 * len(ray.pattern) + 2):
                if probe in seen:
                    raise LazyTreeError(f"address {probe} assigned twice")
                probe = probe + (ray.pattern[i % len(ray.pattern)],)
        for reg in self.regions:
            self._check_addr(reg.addr)
            if reg.addr == ORIGIN and self.mode == "tree":
                raise LazyTreeError("level regions must sit inside a branch")
            if reg.h < 0:
                raise LazyTreeError("region height must be nonnegative")

    def _check_addr(self, addr: Address) -> None:
        for i, c in enumerate(addr):
            hi = self.origin_arity() if i == 0 else self.d - 1
            if not 1 <= c <= hi:
                raise LazyTreeError(f"bad address {addr}")

    # -- cached lookup structures --------------------------------------------

    @cached_property
    def _override_dict(self) -> dict[Address, int]:
        return dict(self.overrides)

    @cached_property
    def _region_dict(self) -> dict[Address, LevelRegion]:
        return {reg.addr: reg for reg in self.regions}

    @cached_property
    def structure_prefixes(self) -> frozenset[Address]:
        """Proper prefixes of every override, region, and ray-start address."""
        prefixes: set[Address] = set()
        addrs = [a for a, _ in self.overrides]
        addrs += [reg.addr for reg in self.regions]
        addrs += [ray.start for ray in self.rays]
        for a in addrs:
            for k in range(len(a)):
                prefixes.add(a[:k])
        return frozenset(prefixes)

    # -- base directions ----------------------------------------------------

    def base_direction(self, addr: Address) -> int:
        dirn = self._override_dict.get(addr)
        if dirn is not None:
            return dirn
        ray = self.ray_at(addr)
        if ray is not None:
            return ray.direction
        best = self.region_at(addr)
        if best is not None:
            rel = len(addr) - len(best.addr)
            return self.d - 1 if rel < best.h else self.d
        if addr == ORIGIN and self.mode == "branch":
            return 1
        return self.default

    def ray_at(self, addr: Address) -> RayRule | None:
        for ray in self.rays:
            if ray.contains(addr):
                return ray
        return None

    def region_at(self, addr: Address) -> LevelRegion | None:
        regions = self._region_dict
        if not regions:
            return None
        for k in range(len(addr), -1, -1):
            reg = regions.get(addr[:k])
            if reg is not None:
                return reg
        return None

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
        """Parse a config; a missing field or a wrong JSON type raises
        LazyTreeError."""
        p = json.loads(text)
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

def _mutual_probe_set(cfg: LazyTreeConfig) -> set[Address]:
    probes: set[Address] = {ORIGIN}
    for i in range(1, cfg.origin_arity() + 1):
        probes.add((i,))
    for addr, _ in cfg.overrides:
        probes.add(addr)
    for reg in cfg.regions:
        probes.add(reg.addr)
    for ray in cfg.rays:
        probe = ray.start
        probes.add(probe)
        for i in range(2 * len(ray.pattern) + 2):
            probe = probe + (ray.pattern[i % len(ray.pattern)],)
            probes.add(probe)
    for addr in list(probes):
        if addr != ORIGIN:
            probes.add(addr[:-1])
    return probes


def find_cyclic_pair(cfg: LazyTreeConfig) -> tuple[Address, Address] | None:
    """A parent/child pair whose base rotors point at each other, if any.

    Probes every address near the finite description; the only unbounded
    family of candidate pairs lives inside a level region, where relative
    levels h-1 and h always form a mutual pair once h >= 1.
    """
    d = cfg.d
    for reg in cfg.regions:
        if reg.h >= 1:
            child = reg.addr + tuple([d - 1] * reg.h)
            return (child[:-1], child)
    for p in sorted(_mutual_probe_set(cfg)):
        if p == ORIGIN and cfg.mode == "branch":
            continue
        bp = cfg.base_direction(p)
        if bp > cfg.num_children(p):
            continue            # points at the parent, not a child
        child = p + (bp,)
        if cfg.base_direction(child) == cfg.d:
            return (p, child)
    return None


def is_acyclic_config(cfg: LazyTreeConfig) -> bool:
    return find_cyclic_pair(cfg) is None


def random_acyclic_config(d: int, rng: random.Random,
                          max_overrides: int = 8,
                          max_depth: int = 3,
                          allow_ray: bool = True) -> LazyTreeConfig:
    """Random acyclic configuration: default + overrides, sometimes a ray."""
    while True:
        default = rng.randrange(1, d)      # direction d at the origin is cyclic
        n_over = rng.randrange(0, max_overrides + 1)
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

def ball_size(d: int, rho: int) -> int:
    """Number of vertices within distance rho of the origin: b_rho."""
    if rho < 0:
        raise LazyTreeError("radius must be nonnegative")
    a = d - 1
    return 1 + d * (a ** rho - 1) // (a - 1)


def layer_size(d: int, k: int) -> int:
    return 1 if k == 0 else d * (d - 1) ** (k - 1)


def modified_count(d: int, rho: int) -> int:
    """Chips of the stop-at-origin-too process needed to fill B_rho: c_rho."""
    a = d - 1
    return 1 + d * sum((a ** t - 1) // (a - 1) for t in range(1, rho + 1))


# -- the walk engine ---------------------------------------------------------

RETURNED = "returned"
ESCAPED = "escaped"
SETTLED = "settled"


@dataclass
class ChipResult:
    outcome: str                  # RETURNED | ESCAPED | SETTLED
    max_depth: int                # deepest level reached (escape: peel depth)
    steps: int
    visited: list[Address] | None = None
    site: Address | None = None   # the vertex a SETTLED chip stopped on


class TreeState:
    """Mutable rotor state of a lazy tree run."""

    def __init__(self, cfg: LazyTreeConfig, fast_paths: bool = True,
                 step_cap: int = 10 ** 9):
        self.cfg = cfg
        self.fast = fast_paths
        self.step_cap = step_cap
        self.rotors: dict[Address, int] = {}
        self.patches: dict[Address, int] = {}
        self.ray_counts: dict[Address, int] = {}
        self.ray_tips: dict[Address, list[int]] = {}
        self.ray_seen: dict[int, int] = {}
        self.n_rays = 0
        self._static_depth = self._max_static_depth()
        self._max_materialized = 0
        self._max_patch_end = 0
        if cfg.mode == "tree":
            self.rotors[ORIGIN] = cfg.base_direction(ORIGIN)

    # -- static structure helpers -------------------------------------------

    def _max_static_depth(self) -> int:
        depth = 1
        for addr, _ in self.cfg.overrides:
            depth = max(depth, len(addr))
        for reg in self.cfg.regions:
            depth = max(depth, len(reg.addr) + reg.h)
        for ray in self.cfg.rays:
            depth = max(depth, len(ray.start) + len(ray.pattern))
        return depth

    def _cycle(self, dirn: int, k: int, arity: int) -> int:
        return (dirn - 1 + k) % arity + 1

    def _arity(self, addr: Address) -> int:
        return self.cfg.origin_arity() if addr == ORIGIN else self.cfg.d

    def _set_rotor(self, addr: Address, dirn: int) -> None:
        self.rotors[addr] = dirn
        if len(addr) > self._max_materialized:
            self._max_materialized = len(addr)

    def _set_patch(self, addr: Address, k: int) -> None:
        self.patches[addr] = max(self.patches.get(addr, 0), k)
        if len(addr) + k > self._max_patch_end:
            self._max_patch_end = len(addr) + k

    # -- dynamic direction lookups -------------------------------------------

    def patched_prefix(self, addr: Address) -> int:
        """Largest relative depth p such that levels 0..p below addr are
        patched to direction d; -1 when addr itself is not covered."""
        best = -1
        for k in range(len(addr) + 1):
            j = self.patches.get(addr[:k])
            if j is not None:
                cover = j - 1 - (len(addr) - k)
                if cover > best:
                    best = cover
        return best

    def base_with_patch(self, addr: Address) -> int:
        if self.patched_prefix(addr) >= 0:
            return self.cfg.d
        return self.cfg.base_direction(addr)

    def effective(self, addr: Address) -> int:
        """Current rotor direction at an address, rays expanded as needed."""
        r = self.rotors.get(addr)
        if r is not None:
            return r
        self.ensure_rays(addr)
        base = self.base_with_patch(addr)
        k = self.ray_counts.get(addr, 0)
        if k:
            return self._cycle(base, k, self._arity(addr))
        return base

    # -- escape-ray expansion -------------------------------------------------

    def ensure_rays(self, addr: Address) -> None:
        """Advance every pending ray tip off the ancestor chain of addr.

        Tips advance earliest-recorded first, which keeps per-vertex pass
        counts chronological.
        """
        if not self.ray_tips:
            return
        while True:
            best_id = None
            best_at = None
            for k in range(len(addr) + 1):
                prefix = addr[:k]
                ids = self.ray_tips.get(prefix)
                if ids:
                    m = min(ids)
                    if best_id is None or m < best_id:
                        best_id = m
                        best_at = prefix
            if best_id is None:
                return
            self._advance_ray(best_id, best_at)

    def _advance_ray(self, ray_id: int, at: Address) -> None:
        seen = self.ray_seen[ray_id]
        inc = self._cycle(seen, 1, self.cfg.d)
        if inc >= self.cfg.d:
            raise ResultCheckError("escape ray tried to bounce; engine bug")
        nxt = at + (inc,)
        self.ray_counts[nxt] = self.ray_counts.get(nxt, 0) + 1
        self.ray_seen[ray_id] = self._cycle(self.base_with_patch(nxt),
                                            self.ray_counts[nxt] - 1,
                                            self.cfg.d)
        self.ray_tips[at].remove(ray_id)
        if not self.ray_tips[at]:
            del self.ray_tips[at]
        self.ray_tips.setdefault(nxt, []).append(ray_id)

    def _record_escape(self, addr: Address, seen_dir: int) -> None:
        self.ray_counts[addr] = self.ray_counts.get(addr, 0) + 1
        ray_id = self.n_rays
        self.n_rays += 1
        self.ray_seen[ray_id] = seen_dir
        self.ray_tips.setdefault(addr, []).append(ray_id)

    # -- excursion classification ---------------------------------------------

    def _uniform_bounce_level(self, addr: Address) -> int | None:
        """First bouncing level below ``addr`` in a pure-profile subtree.

        Applies when the subtree below addr is pure profile: no overrides,
        regions starting below, config rays, or escape-ray passes.  Returns
        the relative depth i0 >= 1 of the first level, below the patched
        prefix, whose rotors point in direction d-1, or None when the
        subtree is not pure profile or no such level exists.

        A chip entering addr with direction d then performs a full turn of
        every vertex down to level i0 and returns; the subtree becomes
        direction d one level deeper.
        """
        if self.ray_counts.get(addr, 0):
            return None
        if addr in self.cfg.structure_prefixes:
            return None
        if self.cfg.ray_at(addr) is not None:
            return None
        i0 = max(self.patched_prefix(addr) + 1, 1)
        reg = self.cfg.region_at(addr)
        if reg is not None:
            t = len(addr) - len(reg.addr)
            return i0 if t + i0 < reg.h else None
        return i0 if self.cfg.default == self.cfg.d - 1 else None

    def _descends_forever(self, addr: Address) -> bool:
        """Exact escape decision for a chip about to descend from addr.

        Walks a virtual probe downward; declares escape once the remaining
        path provably stays in territory that never bounces (uniform default
        c != d-1, an all-d region tail, or an endless ride along a config
        ray), returns False as soon as a bounce is certain, and hands mixed
        territory back to the stepwise walk one level at a time.
        """
        w = addr
        ride_seen: set[tuple[int, int]] = set()
        guard = 4 * (self._static_depth + len(addr)) + 64
        while guard:
            guard -= 1
            self.ensure_rays(w)
            if self.ray_counts.get(w, 0) or w in self.rotors:
                return False
            e = self.base_with_patch(w)
            inc = self._cycle(e, 1, self.cfg.d)
            if inc == self.cfg.d:
                return False
            if w in self.cfg.structure_prefixes:
                w = w + (inc,)
                continue
            ray = self.cfg.ray_at(w)
            if ray is None:
                return self._uniform_bounce_level(w) is None
            offset = ray.offset_of(w) % len(ray.pattern)
            if ray.pattern[offset] != inc:
                w = w + (inc,)          # peels off the ray into its own subtree
                continue
            if len(w) > self._static_depth + self._max_patch_end:
                key = (id(ray), offset)
                if key in ride_seen:
                    return True         # periodic ride along the ray
                ride_seen.add(key)
            w = w + (inc,)
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
        return (self._static_depth + self._max_patch_end
                + self._max_materialized + 64)

    # -- chip walks -------------------------------------------------------------

    def walk_chip(self, record_visits: bool = False,
                  settle: bool = False) -> ChipResult:
        """One chip from the origin: walk until it returns or escapes.

        With ``settle`` the chip also stops on entering a vertex whose rotor
        is not materialized yet: that vertex is materialized with its
        effective direction and returned as ``site`` (outcome SETTLED).
        This is the aggregation stop.  It comes before every shortcut, so a
        settling walk never escapes.

        The state's ``step_cap`` bounds each walk on its own:
        StepBudgetExceededError is raised before step ``step_cap + 1``.
        """
        cfg = self.cfg
        d = cfg.d
        origin_arity = cfg.origin_arity()
        branch = cfg.mode == "branch"
        rotors = self.rotors
        cap = self.step_cap
        pos = ORIGIN
        steps = 0
        max_depth = 0
        fresh_cap = self._fresh_depth_cap()   # frozen: the walk's own
        visited: list[Address] | None = [] if record_visits else None

        while True:
            if steps >= cap:
                raise StepBudgetExceededError(f"exceeded {cap} steps")
            steps += 1
            if pos:                     # below the origin
                inc = rotors[pos] % d + 1
                rotors[pos] = inc
                target = pos[:-1] if inc == d else pos + (inc,)
            elif branch:
                target = (1,)           # the origin edge carries no rotor
            else:
                inc = rotors[pos] % origin_arity + 1
                rotors[pos] = inc
                target = (inc,)
            if not target:
                return ChipResult(RETURNED, max_depth, steps, visited)
            if len(target) > max_depth:
                max_depth = len(target)
            if visited is not None:
                visited.append(target)

            if target in rotors:
                pos = target
                continue

            # entering unmaterialized territory
            e = self.effective(target)
            if settle:
                self._set_rotor(target, e)
                return ChipResult(SETTLED, max_depth, steps, visited, target)
            count = self.ray_counts.get(target, 0)
            inc = self._cycle(e, 1, d)

            if inc == d:
                # bounce straight back to the parent
                if count or not self.fast:
                    self._set_rotor(target, d)
                else:
                    self._set_patch(target, 1)
                if pos == ORIGIN:
                    return ChipResult(RETURNED, max_depth, steps, visited)
                continue

            if e == d and self.fast:
                i0 = self._uniform_bounce_level(target)
                if i0 is not None:
                    # closed-form excursion: full turn down to level i0, return
                    self._set_patch(target, i0 + 1)
                    if len(target) + i0 > max_depth:
                        max_depth = len(target) + i0
                    if pos == ORIGIN:
                        return ChipResult(RETURNED, max_depth, steps, visited)
                    continue

            if count == 0 and self._descends_forever(target):
                self._record_escape(target, e)
                return ChipResult(ESCAPED, max_depth, steps, visited)

            if len(target) > fresh_cap:
                raise UnsupportedConfigError(
                    "walk keeps entering fresh territory without a "
                    "provable descent; configuration outside the "
                    "supported class")

            # step into the vertex and keep walking
            self._set_rotor(target, e)
            pos = target

    def matches_initial(self) -> bool:
        """True iff the state equals the configured one bit for bit."""
        if self.ray_tips or self.ray_counts or self.patches:
            return False
        return all(self.cfg.base_direction(a) == r
                   for a, r in self.rotors.items())


@dataclass
class EscapeRunResult:
    word: str
    depths: list[int]
    state: TreeState

    @property
    def returns(self) -> int:
        return self.word.count("0")

    @property
    def escapes(self) -> int:
        return self.word.count("1")


def run_chips_infinite(cfg: LazyTreeConfig, m: int,
                       fast_paths: bool = True,
                       step_cap: int = 10 ** 9,
                       state: TreeState | None = None) -> EscapeRunResult:
    """Run m chips from the origin; 1 per escape, 0 per return."""
    st = state if state is not None else TreeState(cfg, fast_paths, step_cap)
    bits = []
    depths = []
    for _ in range(m):
        res = st.walk_chip()
        bits.append("1" if res.outcome == ESCAPED else "0")
        depths.append(res.max_depth)
    return EscapeRunResult("".join(bits), depths, st)


# -- aggregation --------------------------------------------------------------

@dataclass
class AggregationResult:
    d: int
    chips: int
    occupied: set[Address]
    depth_counts: dict[int, int]
    max_depth: int
    ball_checks: list[tuple[int, bool]]     # (rho, occupied == B_rho) at b_rho
    sandwich_ok: bool
    state: TreeState
    stops: list[Address]                    # where each chip stopped, in order

    def is_exact_ball(self, rho: int) -> bool:
        return (len(self.occupied) == ball_size(self.d, rho)
                and self.max_depth == rho
                and all(self.depth_counts.get(k, 0) == layer_size(self.d, k)
                        for k in range(rho + 1)))


def _aggregate_run(cfg: LazyTreeConfig, n_chips: int, modified: bool,
                   check_acyclic: bool, step_cap: int) -> AggregationResult:
    """Chip 1 occupies the origin; every later chip walks with
    ``walk_chip(settle=True)`` until it settles on a fresh vertex or, when
    ``modified``, returns to the origin.  The occupied cluster is exactly
    the materialized region of the walk state."""
    if cfg.mode != "tree":
        raise LazyTreeError("aggregation runs on the full tree")
    if check_acyclic:
        pair = find_cyclic_pair(cfg)
        if pair is not None:
            raise NotAcyclicError(f"configuration has mutual rotors at {pair}")
    if n_chips < 1:
        raise LazyTreeError("need at least one chip")

    st = TreeState(cfg, fast_paths=True, step_cap=step_cap)
    depth_counts: dict[int, int] = {0: 1}
    max_depth = 0
    stops: list[Address] = [ORIGIN]
    ball_checks: list[tuple[int, bool]] = [(0, True)]   # A_1 = {origin} = B_0
    sandwich_ok = True
    d = cfg.d
    steps = 0

    def full_prefix_radius() -> int:
        k = 0
        while depth_counts.get(k + 1, 0) == layer_size(d, k + 1):
            k += 1
        return k

    def note_size() -> None:
        nonlocal sandwich_ok
        size = len(st.rotors)
        rho = 0
        while ball_size(d, rho) < size:
            rho += 1
        if ball_size(d, rho) == size:
            ball_checks.append((rho, max_depth == rho))
        else:
            # strictly between b_{rho-1} and b_rho
            inner = rho - 1
            if not (full_prefix_radius() >= inner and max_depth <= rho):
                sandwich_ok = False

    for _ in range(n_chips - 1):
        while True:
            res = st.walk_chip(settle=True)
            steps += res.steps
            if steps > step_cap:
                raise StepBudgetExceededError(f"exceeded {step_cap} steps")
            # a plain chip back at the origin walks on as a fresh chip would
            if res.outcome == SETTLED or modified:
                break
        if res.outcome == RETURNED:
            stops.append(ORIGIN)
            continue
        site = res.site
        depth_counts[len(site)] = depth_counts.get(len(site), 0) + 1
        if len(site) > max_depth:
            max_depth = len(site)
        stops.append(site)
        note_size()

    return AggregationResult(
        d=d, chips=n_chips, occupied=set(st.rotors),
        depth_counts=depth_counts, max_depth=max_depth,
        ball_checks=ball_checks, sandwich_ok=sandwich_ok, state=st,
        stops=stops,
    )


def aggregate(cfg: LazyTreeConfig, n_chips: int,
              check_acyclic: bool = True,
              step_cap: int = 10 ** 9) -> AggregationResult:
    """Rotor-router aggregation: chip n stops on first exiting the cluster.

    ``step_cap`` is one budget for the whole run: the steps of every chip
    are summed, and StepBudgetExceededError is raised once the sum passes
    it.
    """
    return _aggregate_run(cfg, n_chips, modified=False,
                          check_acyclic=check_acyclic, step_cap=step_cap)


@dataclass
class ModifiedAggregationResult:
    d: int
    chips: int
    stops: list[Address]
    occupied: set[Address]
    max_depth: int
    state: TreeState

    def occupied_is_ball(self, rho: int) -> bool:
        return (len(self.occupied) == ball_size(self.d, rho)
                and self.max_depth == rho)

    def rotors_restored(self) -> bool:
        return self.state.matches_initial()


def aggregate_modified(cfg: LazyTreeConfig, n_chips: int,
                       check_acyclic: bool = True,
                       step_cap: int = 10 ** 9) -> ModifiedAggregationResult:
    """Time-changed aggregation: chips also stop on returning to the origin.

    ``step_cap`` is one budget for the whole run, as in :func:`aggregate`.
    """
    result = _aggregate_run(cfg, n_chips, modified=True,
                            check_acyclic=check_acyclic, step_cap=step_cap)
    return ModifiedAggregationResult(
        d=cfg.d, chips=n_chips, stops=result.stops, occupied=result.occupied,
        max_depth=result.max_depth, state=result.state,
    )


# -- DOT export ---------------------------------------------------------------

def dot_snapshot(state: TreeState, cluster: Iterable[Address] | None = None,
                 ) -> str:
    """Materialized region as a DOT digraph; rotor directions as edge labels."""
    cset = set(cluster) if cluster is not None else None
    lines = ["digraph rotors {"]
    for addr in sorted(state.rotors):
        name = addr_to_str(addr) or "o"
        attrs = [f'label="{name}"']
        if cset is not None:
            attrs.append('style=filled')
            attrs.append('fillcolor="{}"'.format(
                "lightblue" if addr in cset else "white"))
        lines.append(f'  "{name}" [{",".join(attrs)}];')
    for addr, dirn in sorted(state.rotors.items()):
        if addr != ORIGIN and dirn == state.cfg.d:
            tgt = addr[:-1]
        else:
            tgt = addr + (dirn,)
        a = addr_to_str(addr) or "o"
        b = addr_to_str(tgt) or "o"
        lines.append(f'  "{a}" -> "{b}" [label="{dirn}"];')
    lines.append("}")
    return "\n".join(lines)
