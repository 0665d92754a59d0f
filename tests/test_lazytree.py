import hashlib
import itertools
import json
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from rotorlab.acceptance import random_valid_word
from rotorlab.escape import (
    descriptor_to_branch_config,
    residues,
    satisfies_all,
    synthesize_branch,
    synthesize_tree,
)
from rotorlab.graph import ResultCheckError, StepBudgetExceededError
from rotorlab import lazytree
from rotorlab.lazytree import (
    ORIGIN,
    LazyTreeConfig,
    LazyTreeError,
    LevelRegion,
    NotAcyclicError,
    RayRule,
    TreeState,
    UnsupportedConfigError,
    _children,
    addr_to_str,
    aggregate,
    aggregate_modified,
    ball_size,
    dot_blocks,
    find_cyclic_pair,
    is_acyclic_config,
    layer_size,
    modified_count,
    alternating_tree_config,
    random_acyclic_config,
    run_chips_infinite,
    str_to_addr,
    uniform_config,
)


# -- explicit reference simulator -------------------------------------------

def kind_at(cfg: LazyTreeConfig, addr):
    """The kind of the vertex at an address: ``child_kind`` folded down
    from ``root_kind``."""
    kind = cfg.root_kind
    for c in addr:
        kind = cfg.child_kind(kind, c)
    return kind


def naive_run(cfg: LazyTreeConfig, m: int, depth_cap: int):
    """Fully explicit simulator; a chip crossing depth_cap counts as escaped.

    Exact whenever legitimate walks stay well above the cap, which holds for
    the small test configurations by construction.
    """
    d = cfg.d
    rotors = {}
    if cfg.mode == "tree":
        rotors[ORIGIN] = kind_at(cfg, ORIGIN).base
    word = []
    depths = []
    for _ in range(m):
        pos = ORIGIN
        maxd = 0
        while True:
            if pos == ORIGIN and cfg.mode == "branch":
                target = (1,)
            else:
                arity = cfg.origin_arity() if pos == ORIGIN else d
                cur = rotors[pos]
                inc = cur % arity + 1
                rotors[pos] = inc
                if pos != ORIGIN and inc == d:
                    target = pos[:-1]
                else:
                    target = pos + (inc,)
            if target == ORIGIN:
                word.append("0")
                depths.append(maxd)
                break
            if len(target) > depth_cap:
                word.append("1")
                depths.append(None)
                break
            maxd = max(maxd, len(target))
            if target not in rotors:
                rotors[target] = kind_at(cfg, target).base
            pos = target
    return "".join(word), depths, rotors


def naive_aggregate(cfg: LazyTreeConfig, n_chips: int, modified: bool):
    """Fully explicit aggregation on a plain dict of rotors.

    Chip 1 occupies the origin; every later chip steps literally until it
    enters an unoccupied vertex, which it occupies, or, when ``modified``,
    until it returns to the origin.  Returns the stops, the layer counts,
    the rotors and the number of steps taken.
    """
    d = cfg.d
    rotors = {ORIGIN: kind_at(cfg, ORIGIN).base}
    stops = [ORIGIN]
    steps = 0
    for _ in range(n_chips - 1):
        pos = ORIGIN
        while True:
            steps += 1
            inc = rotors[pos] % d + 1
            rotors[pos] = inc
            if pos != ORIGIN and inc == d:
                target = pos[:-1]
            else:
                target = pos + (inc,)
            if modified and target == ORIGIN:
                stops.append(ORIGIN)
                break
            if target not in rotors:
                rotors[target] = kind_at(cfg, target).base
                stops.append(target)
                break
            pos = target
    depth_counts = {}
    for addr in rotors:
        depth_counts[len(addr)] = depth_counts.get(len(addr), 0) + 1
    return stops, depth_counts, rotors, steps


def assert_engines_agree(cfg: LazyTreeConfig, m: int, depth_cap: int = 40):
    """Fast and literal engines and the explicit simulator must coincide;
    returns the fast and the literal state.

    Configurations that escape without a pure descent are refused by both
    engines (UnsupportedConfigError); those count as agreement too, and
    return None.
    """
    try:
        fast = run_chips_infinite(cfg, m)
    except UnsupportedConfigError:
        with pytest.raises(UnsupportedConfigError):
            run_chips_infinite(cfg, m, state=TreeState(cfg, fast_paths=False))
        return None
    literal = run_chips_infinite(cfg, m,
                                 state=TreeState(cfg, fast_paths=False))
    nword, ndepths, nrotors = naive_run(cfg, m, depth_cap)
    assert fast.word == literal.word == nword
    assert fast.depths == literal.depths == ndepths
    for addr, dirn in nrotors.items():
        if len(addr) <= depth_cap:
            assert fast.state.effective(addr) == dirn, addr
            assert literal.state.effective(addr) == dirn, addr
    return fast.state, literal.state


# -- configuration ------------------------------------------------------------

def test_addr_codec():
    assert addr_to_str(()) == ""
    assert str_to_addr("") == ()
    assert str_to_addr("3/2/1") == (3, 2, 1)
    assert addr_to_str((3, 2, 1)) == "3/2/1"


def test_config_json_roundtrip():
    cfg = LazyTreeConfig(
        d=3, default=1,
        overrides=(((), 3), ((2, 1), 2)),
        rays=(RayRule((3,), (2,), 2),),
        regions=(LevelRegion((1,), 4),),
    )
    text = cfg.to_json()
    cfg2 = LazyTreeConfig.from_json(text)
    assert cfg2 == cfg
    payload = json.loads(text)
    assert payload["rays"][0]["start_addr"] == "3"
    assert payload["overrides"][0] == {"addr": "", "dir": 3}


def test_base_direction_precedence():
    cfg = LazyTreeConfig(
        d=3, default=1,
        overrides=(((3, 1), 3),),
        rays=(RayRule((3,), (2,), 2),),
        regions=(LevelRegion((1,), 2),),
    )
    assert kind_at(cfg, (3,)).base == 2          # ray start
    assert kind_at(cfg, (3, 2)).base == 2        # ray
    assert kind_at(cfg, (3, 2, 2)).base == 2     # ray continues
    assert kind_at(cfg, (3, 1)).base == 3        # override off the ray
    assert kind_at(cfg, (3, 1, 1)).base == 1     # default below the override
    assert kind_at(cfg, (1,)).base == 2          # region level 0 -> d-1
    assert kind_at(cfg, (1, 1)).base == 2        # region level 1 -> d-1
    assert kind_at(cfg, (1, 1, 1)).base == 3     # region tail -> d
    assert kind_at(cfg, (2,)).base == 1          # default


def test_overlapping_override_and_ray_rejected():
    with pytest.raises(LazyTreeError):
        LazyTreeConfig(d=3, default=1,
                       overrides=(((3,), 3),),
                       rays=(RayRule((3,), (2,), 2),))


def test_config_validation():
    with pytest.raises(LazyTreeError):
        LazyTreeConfig(d=2, default=1)
    with pytest.raises(LazyTreeError):
        LazyTreeConfig(d=3, default=5)
    with pytest.raises(LazyTreeError):
        LazyTreeConfig(d=3, default=1, overrides=(((1,), 1), ((1,), 2)))
    with pytest.raises(LazyTreeError):
        LazyTreeConfig(d=3, default=1, rays=(RayRule((), (1,), 1),))


DEEP = (1, 2, 1, 2, 1, 2, 1, 3, 1)      # index 3 is out of range at d = 3

MALFORMED_CONFIGS = [
    (dict(d=2, default=1), "degree d must be at least 3"),
    (dict(d=3, default=1, mode="forest"), "unknown mode 'forest'"),
    (dict(d=3, default=4), "default direction out of range"),
    (dict(d=3, default=0), "default direction out of range"),
    (dict(d=3, default=1, overrides=(((), 4),)),
     "override direction 4 out of range"),
    (dict(d=3, default=1, mode="branch", overrides=(((), 2),)),
     "override direction 2 out of range"),
    (dict(d=3, default=1, overrides=(((2, 1), 0),)),
     "override direction 0 out of range"),
    (dict(d=3, default=1, overrides=(((2, 1), 4),)),
     "override direction 4 out of range"),
    (dict(d=3, default=1, overrides=(((1, 2), 1), ((2,), 1), ((1, 2), 3))),
     "address (1, 2) assigned twice"),
    (dict(d=3, default=1, overrides=(((4,), 1),)), "bad address (4,)"),
    (dict(d=3, default=1, overrides=(((0, 1), 1),)), "bad address (0, 1)"),
    (dict(d=3, default=1, mode="branch", overrides=(((2,), 1),)),
     "bad address (2,)"),
    (dict(d=3, default=1, overrides=((DEEP[:7], 1), (DEEP, 1))),
     f"bad address {DEEP}"),
    (dict(d=3, default=1, rays=(RayRule((), (1,), 1),)),
     "rays must start below the origin"),
    (dict(d=3, default=1, rays=(RayRule((1, 3), (1,), 1),)),
     "bad address (1, 3)"),
    (dict(d=3, default=1, rays=(RayRule((1,), (), 1),)),
     "ray pattern must be nonempty"),
    (dict(d=3, default=1, rays=(RayRule((1, 2), (1,), 1),
                                RayRule((1,), (), 1))),
     "ray pattern must be nonempty"),
    (dict(d=3, default=1, rays=(RayRule((1,), (1, 3), 1),)),
     "ray pattern uses invalid child indices"),
    (dict(d=3, default=1, rays=(RayRule((1,), (1,), 4),)),
     "ray direction out of range"),
    (dict(d=3, default=1, overrides=(((3, 2, 2), 3),),
          rays=(RayRule((3,), (2,), 2),)),
     "address (3, 2, 2) assigned twice"),
    (dict(d=3, default=1, regions=(LevelRegion((), 2),)),
     "level regions must sit inside a branch"),
    (dict(d=3, default=1, regions=(LevelRegion((1, 3), 2),)),
     "bad address (1, 3)"),
    (dict(d=3, default=1, regions=(LevelRegion((1,), -1),)),
     "region height must be nonnegative"),
    # two faults: overrides are checked before rays, rays before regions
    (dict(d=3, default=1, overrides=(((1, 2, 1), 2), ((2,), 5)),
          rays=(RayRule((1,), (), 1),)),
     "override direction 5 out of range"),
    (dict(d=3, default=1, rays=(RayRule((1, 2), (), 2),),
          regions=(LevelRegion((1, 2, 1), -1),)),
     "ray pattern must be nonempty"),
    # an override on a ray is refused at any depth, and the shallowest is
    # named
    (dict(d=3, default=1,
          overrides=(((3,) + (2,) * 9, 3), ((3,) + (2,) * 6, 1),
                     ((3,) + (2,) * 12, 2)),
          rays=(RayRule((3,), (2,), 2),)),
     f"address {(3,) + (2,) * 6} assigned twice"),
]


@pytest.mark.parametrize("fields, message", MALFORMED_CONFIGS)
def test_validation_messages(fields, message):
    with pytest.raises(LazyTreeError) as err:
        LazyTreeConfig(**fields)
    assert str(err.value) == message


def test_acyclicity_checks():
    assert is_acyclic_config(uniform_config(3, 1))
    assert is_acyclic_config(uniform_config(3, 2))
    # all rotors in direction d: the origin and a branch root point at each other
    pair = find_cyclic_pair(uniform_config(3, 3))
    assert pair == ((), (3,))
    assert is_acyclic_config(alternating_tree_config())
    # a level region's last direction-(d-1) level points at its first
    # direction-d level, unless overrides or rays change either
    cfg = LazyTreeConfig(d=3, default=1, mode="branch",
                         regions=(LevelRegion((1,), 2),))
    assert not is_acyclic_config(cfg)
    # an override pointing down at a child that points back up
    cfg2 = LazyTreeConfig(d=3, default=1,
                          overrides=(((1,), 1), ((1, 1), 3)))
    assert not is_acyclic_config(cfg2)
    # a region whose root is overridden to point up, with its tail below:
    # no vertex there points at a child, so the config is acyclic
    cfg3 = LazyTreeConfig(d=3, default=2, overrides=(((1,), 3),),
                          regions=(LevelRegion((1,), 1),))
    assert find_cyclic_pair(cfg3) is None
    # (1, 2) is overridden to point at child 1, so the region's last
    # direction-(d-1) level has its pairs at (1, 1) and (1, 2), not at
    # (1, 2) and its child 2
    cfg4 = LazyTreeConfig(d=3, default=1, overrides=(((1, 2), 1),),
                          regions=(LevelRegion((1,), 2),))
    assert find_cyclic_pair(cfg4) == ((1, 1), (1, 1, 2))
    assert brute_mutual_pairs(cfg4) == {((1, 1), (1, 1, 2)),
                                        ((1, 2), (1, 2, 1))}


def test_random_acyclic_config_sampler():
    rng = random.Random(3)
    for _ in range(25):
        cfg = random_acyclic_config(3, rng)
        assert is_acyclic_config(cfg)
    for _ in range(10):
        cfg = random_acyclic_config(4, rng)
        assert is_acyclic_config(cfg)


def test_ball_arithmetic():
    assert [ball_size(3, r) for r in range(4)] == [1, 4, 10, 22]
    assert ball_size(3, 6) == 190
    assert ball_size(4, 3) == 53
    assert layer_size(3, 0) == 1
    assert layer_size(3, 2) == 6
    assert modified_count(3, 1) == 4
    assert modified_count(3, 2) == 13


@pytest.mark.parametrize("count", [ball_size, modified_count])
def test_ball_arithmetic_checks_its_parameters(count):
    with pytest.raises(LazyTreeError, match="^degree d must be at least 3$"):
        count(2, 3)
    with pytest.raises(LazyTreeError, match="^radius must be nonnegative$"):
        count(3, -1)


# -- escape runs ---------------------------------------------------------------

def test_branch_all_direction_one_alternates():
    cfg = uniform_config(3, 1, mode="branch")
    res = run_chips_infinite(cfg, 12)
    assert res.word == "101010101010"


def test_alternating_tree_config_word():
    cfg = alternating_tree_config()
    res = run_chips_infinite(cfg, 20)
    assert res.word == "10" * 10
    assert res.returns == 10


def test_all_dminus1_all_return():
    for d in (3, 4, 5):
        cfg = uniform_config(d, d - 1)
        m = 60
        res = run_chips_infinite(cfg, m)
        assert res.word == "0" * m
        for n in range(1, m + 1):
            # chip n is confined below depth n+1
            assert res.depths[n - 1] <= n
            assert res.depths[n - 1] == (n + d - 1) // d


def test_all_dminus1_deep_is_fast():
    cfg = uniform_config(3, 2)
    res = run_chips_infinite(cfg, 1000)
    assert res.word == "0" * 1000
    assert res.depths[-1] == (1000 + 2) // 3


def test_level_rule_word():
    for h in (0, 1, 2, 5, 30):
        cfg = LazyTreeConfig(d=3, default=1, mode="branch",
                             regions=(LevelRegion((1,), h),))
        res = run_chips_infinite(cfg, h + 1)
        assert res.word == "0" * h + "1"


def test_state_continuation():
    cfg = alternating_tree_config()
    full = run_chips_infinite(cfg, 14)
    st = TreeState(cfg)
    first = run_chips_infinite(cfg, 7, state=st)
    second = run_chips_infinite(cfg, 7, state=st)
    assert first.word + second.word == full.word


def test_walk_chip_wrapped_on_the_instance_is_called_per_chip():
    # a caller may wrap the state's walk_chip on the instance, to count
    # what each chip did, and read the state's snapshots after the run
    a = "110101001010010"
    cfg = descriptor_to_branch_config(synthesize_branch(a))
    st = TreeState(cfg)
    inner = st.walk_chip
    calls = []

    def walk_chip(record_visits: bool = False):
        res = inner(record_visits)
        calls.append(res)
        return res

    st.walk_chip = walk_chip
    res = run_chips_infinite(cfg, len(a), state=st)
    assert res.word == a and len(calls) == len(a)
    assert [r.outcome for r in calls] == \
        ["escaped" if c == "1" else "returned" for c in a]
    assert st.n_rays == a.count("1")
    assert sum(map(len, st.ray_tips.values())) == st.n_rays
    for snapshot in (st.rotors, st.patches, st.ray_counts):
        assert snapshot and all(type(k) is tuple and v > 0
                                for k, v in snapshot.items())


def test_state_from_another_run_is_refused():
    st = TreeState(uniform_config(3, 2))
    with pytest.raises(LazyTreeError,
                       match="^state was made for another config$"):
        run_chips_infinite(alternating_tree_config(), 6, state=st)
    cfg = alternating_tree_config()
    # an equal config made separately is the same config
    st = TreeState(alternating_tree_config())
    assert run_chips_infinite(cfg, 6, state=st).word == "101010"


def test_branch_confinement():
    cfg = alternating_tree_config()
    st = TreeState(cfg)
    for _ in range(15):
        res = st.walk_chip(record_visits=True)
        branches = {a[0] for a in res.visited if a != ORIGIN}
        assert len(branches) == 1


def test_engines_agree_on_known_configs():
    assert_engines_agree(uniform_config(3, 1, mode="branch"), 10)
    assert_engines_agree(uniform_config(3, 3, mode="branch"), 10)
    assert_engines_agree(alternating_tree_config(), 12)
    assert_engines_agree(uniform_config(3, 2), 8, depth_cap=30)
    assert_engines_agree(uniform_config(4, 3), 8, depth_cap=30)
    assert_engines_agree(uniform_config(5, 2), 8, depth_cap=30)
    for h in (0, 1, 3):
        cfg = LazyTreeConfig(d=3, default=1, mode="branch",
                             regions=(LevelRegion((1,), h),))
        assert_engines_agree(cfg, 8)


def test_engines_agree_on_ridable_ray():
    # rotors along the ray point one step short of the ray's own child
    # pattern, so a descending chip rides it to infinity
    cfg = LazyTreeConfig(d=3, default=2, mode="branch",
                         rays=(RayRule((1,), (2,), 1),))
    res = run_chips_infinite(cfg, 6)
    assert res.word[0] == "1"        # the first chip rides the ray out
    assert_engines_agree(cfg, 8)
    cfg_tree = LazyTreeConfig(d=3, default=2,
                              rays=(RayRule((2,), (2,), 1),))
    assert_engines_agree(cfg_tree, 9)


def test_engines_agree_on_mixed_structures():
    # overrides, a region, and a ray in distinct branches of one tree
    cfg = LazyTreeConfig(
        d=3, default=1,
        overrides=(((1,), 3), ((1, 2), 2), ((3, 1, 1), 3)),
        rays=(RayRule((2,), (1,), 2),),
        regions=(LevelRegion((1, 1), 2),),
    )
    assert_engines_agree(cfg, 14)


def test_engines_agree_on_random_configs():
    rng = random.Random(11)
    ran = 0
    for trial in range(150):
        d = rng.choice([3, 3, 3, 4, 5])
        mode = rng.choice(["tree", "branch"])
        default = rng.randrange(1, d + 1)
        overrides = {}
        for _ in range(rng.randrange(0, 4)):
            depth = rng.randrange(0, 4)
            addr = ()
            for lvl in range(depth):
                hi = (d if mode == "tree" else 1) if lvl == 0 else d - 1
                addr = addr + (rng.randrange(1, hi + 1),)
            if addr == () and mode == "branch":
                continue
            overrides[addr] = rng.randrange(1, d + 1)
        regions = ()
        if rng.random() < 0.4:
            first = rng.randrange(1, (d if mode == "tree" else 1) + 1)
            base = (first,)
            if rng.random() < 0.5:
                base = base + (rng.randrange(1, d),)
            if all(a[:len(base)] != base for a in overrides):
                regions = (LevelRegion(base, rng.randrange(0, 4)),)
        rays = ()
        if rng.random() < 0.35:
            start = (rng.randrange(1, (d if mode == "tree" else 1) + 1),)
            pattern = tuple(rng.randrange(1, d)
                            for _ in range(rng.randrange(1, 3)))
            rays = (RayRule(start, pattern, rng.randrange(1, d + 1)),)
        try:
            cfg = LazyTreeConfig(d=d, default=default, mode=mode,
                                 overrides=tuple(overrides.items()),
                                 rays=rays, regions=regions)
        except Exception:
            continue
        # the naive reference walks bouncy configurations literally, at
        # (d-1)^m steps per chip; keep its load bounded
        m = {3: 10, 4: 8, 5: 6}[d]
        if assert_engines_agree(cfg, m, depth_cap=45) is not None:
            ran += 1
    assert ran >= 90


def bounce_level_oracle(cfg: LazyTreeConfig, kind, addr: tuple,
                        i0: int) -> bool:
    """The excursion rule written out per case.  A chip entering, in
    direction d, a vertex of ``kind`` at ``addr`` whose patched prefix
    ends i0 >= 1 levels below it turns every vertex down to level i0 and
    comes back when the subtree has no structure below and no config ray,
    and level i0 points in direction d-1: inside the first h levels of the
    deepest region at or above the vertex, or anywhere under default d-1
    with no region.  Structure below is read from the structure tables."""
    x = structure_position(cfg, addr)
    if kind.rays or x is not None and cfg._structure.head[x]:
        return False
    regs = [r for r in cfg.regions if addr[:len(r.addr)] == r.addr]
    if regs:
        reg = max(regs, key=lambda r: len(r.addr))
        return len(addr) - len(reg.addr) + i0 < reg.h
    return cfg.default == cfg.d - 1


def test_bounce_limit_at_level_region_boundaries():
    # level regions of every small height at every small depth, with the
    # default pointing in direction d-1, d or 1 around them, and with the
    # root's parent overridden to direction d (below the origin, a kind
    # with structure below that a chip enters in direction d) or not; every
    # kind the engines met has the limit that the per-case rule gives at
    # every first bouncing level up to h + 2
    kinds = 0
    for d in (3, 4, 5):
        m = {3: 10, 4: 8, 5: 6}[d]
        for default, r, h in itertools.product((d - 1, d, 1), range(1, 5),
                                                range(5)):
            root = tuple(1 + i % (d - 1) for i in range(r))
            for over in ((), ((root[:-1], d),)):
                cfg = LazyTreeConfig(d=d, default=default, overrides=over,
                                     regions=(LevelRegion(root, h),))
                states = assert_engines_agree(cfg, m, depth_cap=30)
                assert states is not None, cfg
                for st in states:
                    for x, kind in enumerate(st._kind):
                        addr = st._address(x)
                        kinds += 1
                        for i0 in range(1, h + 3):
                            assert (i0 < kind.limit) == \
                                bounce_level_oracle(cfg, kind, addr, i0), \
                                (cfg, addr, i0)
    assert kinds > 10_000


# -- structure kinds -------------------------------------------------------------

def structure_position(cfg: LazyTreeConfig, addr: tuple) -> int | None:
    """The position of an address in the config's structure tables, found
    through the child ids from the origin, or None off the structure."""
    x = 0
    for c in addr:
        x = cfg._structure.ids.get(x * cfg.d + c)
        if x is None:
            return None
    return x


def oracle_structure_kinds(cfg: LazyTreeConfig) -> dict:
    """All-prefixes oracle for the typed structure: every prefix of every
    marked address, sorted so that parents come first, gets its kind from
    its parent's.  Returns the kinds by address."""
    overrides = dict(cfg.overrides)
    regions = {reg.addr: reg.h for reg in cfg.regions}
    starts = {}
    for i, ray in enumerate(cfg.rays):
        starts[ray.start] = starts.get(ray.start, ()) + (i,)
    marked = [*overrides, *regions, *starts]
    made = {}
    for addr in sorted({a[:k] for a in marked for k in range(len(a) + 1)}
                       | {ORIGIN}):
        up = made.get(addr[:-1]) if addr else None
        rays = cfg._step_rays(up.rays, addr[-1]) if up and up.rays else ()
        rays += tuple((i, 0) for i in starts.get(addr, ()))
        left = up.left if up else None
        left = regions.get(addr, None if left is None else max(left - 1, 0))
        override = overrides.get(addr)
        if not addr and override is None and left is None \
                and cfg.mode == "branch":
            override = 1
        made[addr] = cfg._kind(override, rays, left)
    return made


def assert_structure_matches_oracle(cfg: LazyTreeConfig, want: dict) -> int:
    """Each position of the config's structure tables holds one address of
    ``want``, at its depth, with its base, rays, region levels left and
    bounce limit (0 with structure below); ``pos`` is set exactly on the
    positions with a structure child, and both the child ids and the child
    lists give the oracle's children.  Returns the number of positions."""
    s = cfg._structure
    assert s.kind[0] is cfg.root_kind
    addrs = [ORIGIN]
    for x in range(1, len(s.kind)):
        addrs.append(addrs[s.parent[x]] + (s.cidx[x],))
    assert sorted(addrs) == sorted(want)
    below = {}
    for a in want:
        if a:
            below.setdefault(a[:-1], set()).add(a[-1])
    for x, addr in enumerate(addrs):
        g, w = s.kind[x], want[addr]
        cs = below.get(addr, set())
        assert (g.base, g.rays, g.left) == (w.base, w.rays, w.left), addr
        assert g.limit == (0 if cs else w.limit), addr
        assert s.depth[x] == len(addr), addr
        assert g.pos == (x if cs else None), addr
        assert {s.cidx[y] for y in _children(s.head, s.next, x)} == cs, addr
        for c in cs:
            assert addrs[s.ids[x * cfg.d + c]] == addr + (c,), addr
    assert len(s.ids) == len(addrs) - 1
    return len(addrs)


def _random_structure_config(rng: random.Random, d: int | None = None,
                             mode: str | None = None) -> LazyTreeConfig:
    """Overrides down to depth 6 (their prefixes mostly unmarked), nested
    level regions, and rays, some of them starting at one address.  The
    degree and the mode are drawn unless given."""
    d = d or rng.choice([3, 3, 4, 5])
    mode = mode or rng.choice(["tree", "branch"])

    def addr(lo: int, hi: int) -> tuple:
        return tuple(rng.randrange(1, (d if mode == "tree" else 1) + 1)
                     if lvl == 0 else rng.randrange(1, d)
                     for lvl in range(rng.randrange(lo, hi)))

    overrides = {}
    for _ in range(rng.randrange(0, 8)):
        a = addr(0, 7)
        if a or mode == "tree":
            overrides[a] = rng.randrange(1, d + 1)
    regions = {}
    for _ in range(rng.randrange(0, 4)):
        a = addr(1, 5)
        regions[a] = LevelRegion(a, rng.randrange(0, 4))
        if rng.random() < 0.5:          # a region nested inside it
            inner = a + tuple(rng.randrange(1, d)
                              for _ in range(rng.randrange(1, 3)))
            regions[inner] = LevelRegion(inner, rng.randrange(0, 4))
    rays = []
    for _ in range(rng.randrange(0, 3)):
        start = addr(1, 4)
        for _ in range(rng.choice([1, 1, 2])):      # two rays at one start
            pattern = tuple(rng.randrange(1, d)
                            for _ in range(rng.randrange(1, 4)))
            rays.append(RayRule(start, pattern, rng.randrange(1, d + 1)))
    return LazyTreeConfig(d=d, default=rng.randrange(1, d + 1), mode=mode,
                          overrides=tuple(overrides.items()),
                          rays=tuple(rays), regions=tuple(regions.values()))


def static_depth_oracle(cfg: LazyTreeConfig) -> int:
    """The deepest level the structure fixes, mark by mark."""
    return max([1] + [len(a) for a, _ in cfg.overrides]
               + [len(r.addr) + r.h for r in cfg.regions]
               + [len(r.start) + len(r.pattern) for r in cfg.rays])


def test_root_kind_matches_all_prefixes_oracle():
    rng = random.Random(53)
    made = shared_start = nested = 0
    while made < 300:
        try:
            cfg = _random_structure_config(rng)
        except LazyTreeError:
            continue
        made += 1
        assert_structure_matches_oracle(cfg, oracle_structure_kinds(cfg))
        assert cfg._static_depth == static_depth_oracle(cfg)
        starts = [ray.start for ray in cfg.rays]
        shared_start += len(set(starts)) < len(starts)
        nested += any(a.addr != b.addr and b.addr[:len(a.addr)] == a.addr
                      for a in cfg.regions for b in cfg.regions)
    assert shared_start >= 20 and nested >= 20, (shared_start, nested)
    for i in range(40):
        n = rng.randrange(10, 120)
        stride = 3 if i % 2 else 1
        a = _dense_valid_word(rng, n, stride)
        cfg = synthesize_tree(a) if stride == 3 else \
            descriptor_to_branch_config(synthesize_branch(a))
        seen = assert_structure_matches_oracle(cfg,
                                               oracle_structure_kinds(cfg))
        assert seen > len(cfg.overrides)
        assert cfg._static_depth == static_depth_oracle(cfg)


def brute_mutual_pairs(cfg: LazyTreeConfig) -> set:
    """Every parent/child pair whose base rotors point at each other, found
    by visiting vertices from the origin with ``kind_at``, down to a
    depth below which a ray only repeats its period and every region is in
    its tail.  A visited vertex's children are visited when the vertex lies
    on a marked address's path, on a config ray, or at most h levels below
    a region root; below any other vertex every base is the default, or d
    in a region's tail, and no such pair lies there."""
    d = cfg.d
    bound = 2
    for a, _ in cfg.overrides:
        bound = max(bound, len(a) + 2)
    for reg in cfg.regions:
        bound = max(bound, len(reg.addr) + reg.h + 2)
    for ray in cfg.rays:
        bound = max(bound, len(ray.start) + 2 * len(ray.pattern) + 3)
    marked = ([a for a, _ in cfg.overrides] + [r.addr for r in cfg.regions]
              + [r.start for r in cfg.rays])

    def on_ray(a, ray):
        n = len(ray.start)
        return a[:n] == ray.start and all(
            c == ray.pattern[i % len(ray.pattern)]
            for i, c in enumerate(a[n:]))

    def expand(a) -> bool:
        return (any(m[:len(a)] == a for m in marked)
                or any(on_ray(a, ray) for ray in cfg.rays)
                or any(a[:len(r.addr)] == r.addr
                       and len(a) - len(r.addr) <= r.h for r in cfg.regions))

    pairs = set()
    stack = [ORIGIN]
    while stack:
        a = stack.pop()
        arity = cfg.d - 1 if a else cfg.origin_arity()
        bp = kind_at(cfg, a).base
        if (bp <= arity and (a or cfg.mode == "tree")
                and kind_at(cfg, a + (bp,)).base == d):
            pairs.add((a, a + (bp,)))
        if len(a) < bound and expand(a):
            stack += (a + (c,) for c in range(1, arity + 1))
    return pairs


def test_find_cyclic_pair_matches_brute_force():
    # find_cyclic_pair is None exactly when no mutual pair exists, and a
    # pair it reports points both ways; the sha256 of the pairs was taken
    # when the walk kept an address tuple per stack entry
    rng = random.Random(7)
    made = cyclic = 0
    h = hashlib.sha256()
    while made < 400:
        try:
            cfg = _random_structure_config(rng)
        except LazyTreeError:
            continue
        made += 1
        assert_structure_matches_oracle(cfg, oracle_structure_kinds(cfg))
        pair = find_cyclic_pair(cfg)
        h.update(repr(pair).encode())
        pairs = brute_mutual_pairs(cfg)
        assert (pair is None) == (not pairs), (cfg, pair)
        if pair is not None:
            cyclic += 1
            p, c = pair
            assert c[:-1] == p and (p or cfg.mode == "tree"), (cfg, pair)
            assert kind_at(cfg, p).base == c[-1], (cfg, pair)
            assert kind_at(cfg, c).base == cfg.d, (cfg, pair)
    assert 50 <= cyclic <= made - 50, cyclic
    assert h.hexdigest() == (
        "8e0d14f228fc3849d7ab1266b64c68aa030c7775c9c15173dc5abf3767f30322")


# -- aggregation ----------------------------------------------------------------

def test_aggregate_first_ball():
    cfg = uniform_config(3, 1)
    res = aggregate(cfg, 4)
    assert res.occupied == {(), (1,), (2,), (3,)}
    assert res.is_exact_ball(1)


def test_aggregate_perfect_balls_d3():
    cfg = uniform_config(3, 1)
    res = aggregate(cfg, ball_size(3, 6))
    assert res.is_exact_ball(6)
    assert res.sandwich_ok
    assert all(ok for _, ok in res.ball_checks)
    assert {r for r, _ in res.ball_checks} == {0, 1, 2, 3, 4, 5, 6}


def test_aggregate_perfect_balls_d4():
    cfg = uniform_config(4, 1)
    res = aggregate(cfg, ball_size(4, 3))
    assert res.is_exact_ball(3)
    assert res.sandwich_ok


def test_aggregate_random_acyclic():
    rng = random.Random(17)
    for _ in range(6):
        cfg = random_acyclic_config(3, rng)
        res = aggregate(cfg, ball_size(3, 4))
        assert res.is_exact_ball(4), cfg
        assert res.sandwich_ok


def test_aggregate_rejects_cyclic():
    with pytest.raises(NotAcyclicError):
        aggregate(uniform_config(3, 3), 10)


def test_aggregate_rejects_branch_mode():
    with pytest.raises(Exception):
        aggregate(uniform_config(3, 1, mode="branch"), 10)


def test_aggregate_intermediate_sandwich():
    cfg = uniform_config(3, 1)
    res = aggregate(cfg, 7)     # strictly between b_1 = 4 and b_2 = 10
    assert res.sandwich_ok
    assert len(res.occupied) == 7
    assert res.max_depth <= 2
    assert all(a in res.occupied for a in [(), (1,), (2,), (3,)])


def test_aggregate_modified_counts():
    cfg = uniform_config(3, 1)
    res = aggregate_modified(cfg, modified_count(3, 1))
    assert res.stops[0] == ()
    assert res.occupied_is_ball(1)
    assert res.rotors_restored()
    res2 = aggregate_modified(cfg, modified_count(3, 2))
    assert res2.occupied_is_ball(2)
    assert res2.rotors_restored()


def test_aggregate_modified_matches_plain():
    cfg = uniform_config(3, 1)
    plain = aggregate(cfg, ball_size(3, 3))
    mod = aggregate_modified(cfg, modified_count(3, 3))
    assert mod.occupied == plain.occupied


def test_aggregate_modified_random_configs():
    rng = random.Random(23)
    for _ in range(5):
        cfg = random_acyclic_config(3, rng)
        mod = aggregate_modified(cfg, modified_count(3, 2))
        assert mod.occupied_is_ball(2)
        assert mod.rotors_restored()


def _mutual_pair_config(rng: random.Random, d: int) -> LazyTreeConfig:
    """A random config in which a parent and its child point at each
    other: the parent at the child, the child at the parent."""
    while True:
        cfg = random_acyclic_config(d, rng, allow_ray=False)
        parent = ORIGIN
        for level in range(rng.randrange(0, 3)):
            parent += (rng.randrange(1, (d if level == 0 else d - 1) + 1),)
        c = rng.randrange(1, (d if parent == ORIGIN else d - 1) + 1)
        overrides = dict(cfg.overrides)
        overrides[parent] = c
        overrides[parent + (c,)] = d
        cfg = LazyTreeConfig(d=d, default=cfg.default,
                             overrides=tuple(overrides.items()))
        if find_cyclic_pair(cfg) is not None:
            return cfg


def _aggregation_oracle_configs(rng: random.Random) -> list:
    """Random acyclic configs at d = 3, 4, 5 with and without rays, mutual
    pairs, synthesized tree configs with level regions, and degrees 17 to
    20."""
    cfgs = [random_acyclic_config((3, 4, 5)[i % 3], rng,
                                  allow_ray=i % 2 == 0) for i in range(150)]
    cfgs += [_mutual_pair_config(rng, (3, 4)[i % 2]) for i in range(60)]
    cfgs += [synthesize_tree(_dense_valid_word(rng, rng.randrange(3, 25), 3))
             for _ in range(70)]
    cfgs += [random_acyclic_config(17 + i % 4, rng, max_depth=2)
             for i in range(20)]
    return cfgs


def assert_matches_naive_aggregate(cfg: LazyTreeConfig, chips: int,
                                   modified: bool) -> tuple:
    """Every result field, the final rotors and the step total of a run
    with the acyclic check off, against the literal walk.  Returns the
    walk's stops, rotors and steps, and whether the rotors are restored."""
    stops, depth_counts, rotors, steps = naive_aggregate(cfg, chips, modified)
    run = aggregate_modified if modified else aggregate
    res = run(cfg, chips, check_acyclic=False)
    assert res.stops == stops, (cfg, modified)
    assert res.occupied == set(rotors)
    assert res.depth_counts == depth_counts
    assert res.max_depth == max(depth_counts)
    checks, sandwich_ok = replay_checkpoints(cfg.d, stops)
    assert res.ball_checks == checks
    assert res.sandwich_ok == sandwich_ok
    assert res.steps == steps
    assert res.rotors == rotors
    want = all(r == kind_at(cfg, a).base for a, r in rotors.items())
    assert res.rotors_restored() is want
    return stops, rotors, steps, want


def test_aggregate_matches_naive_aggregator(monkeypatch):
    # every result field, the final rotors and the step total
    # against the literal walk, plain and modified, on 300 configs
    rng = random.Random(29)
    radius = {3: 4, 4: 3, 5: 2}
    restored = Counter()
    region_sites = 0
    cfgs = _aggregation_oracle_configs(rng)
    assert len(cfgs) == 300
    for i, cfg in enumerate(cfgs):
        d = cfg.d
        # deep enough that the chips reach region tails
        rho = 6 if cfg.regions else radius.get(d, 1)
        for modified in (False, True):
            full = modified_count(d, rho) if modified else ball_size(d, rho)
            chips = rng.choice([full, rng.randrange(1, full + 1)])
            stops, rotors, steps, want = assert_matches_naive_aggregate(
                cfg, chips, modified)
            restored[want] += 1
            region_sites += sum(kind_at(cfg, a).left is not None
                                for a in rotors)
            if i % 10 == 0 and steps:
                run = aggregate_modified if modified else aggregate
                with monkeypatch.context() as mp:
                    mp.setattr(lazytree, "DEFAULT_STEP_BUDGET", steps - 1)
                    with pytest.raises(StepBudgetExceededError,
                                       match=f"^exceeded {steps - 1} steps$"):
                        run(cfg, chips, check_acyclic=False)
                    mp.setattr(lazytree, "DEFAULT_STEP_BUDGET", steps)
                    assert run(cfg, chips,
                               check_acyclic=False).stops == stops
    assert min(restored[True], restored[False]) >= 50, restored
    assert region_sites >= 500, region_sites


# -- response tables shared by content ------------------------------------------

def _forty_five_override_config() -> LazyTreeConfig:
    """d = 3, default 1: every address of depth 1 to 3 overridden to 1 and
    every depth-4 address to 2."""
    overrides = []
    for depth in range(1, 5):
        for a in itertools.product(range(1, 4), *[range(1, 3)] * (depth - 1)):
            overrides.append((a, 1 if depth < 4 else 2))
    return LazyTreeConfig(d=3, default=1, overrides=tuple(overrides))


def test_content_equal_subtrees_share_one_table():
    # the origin, one type per structure level and the default's: keyed
    # by NodeKind identity, the 45 structure kinds built 47
    cfg = _forty_five_override_config()
    assert len(cfg.overrides) == 45
    res = aggregate(cfg, ball_size(3, 8))
    assert res.is_exact_ball(8)
    assert res._tables.base == [1, 1, 1, 1, 2, 1]
    # overrides that equal what the default gives add no type
    plain = aggregate(uniform_config(3, 1), ball_size(3, 8))._tables
    assert len(plain.kind) == 2
    rng = random.Random(59)
    for _ in range(20):
        overrides = {}
        for _ in range(rng.randrange(1, 12)):
            a = tuple(rng.randrange(1, 4 if lvl == 0 else 3)
                      for lvl in range(rng.randrange(0, 6)))
            overrides[a] = 1
        cfg = LazyTreeConfig(d=3, default=1,
                             overrides=tuple(overrides.items()))
        tables = aggregate(cfg, ball_size(3, 8))._tables
        assert tables.base == plain.base
        assert tables.steps == plain.steps and tables.dep == plain.dep


def _repeated_structure_config(rng: random.Random) -> LazyTreeConfig:
    """A d = 3 or 4 config whose structure repeats: one override pattern,
    to relative depth 3, copied onto two or more siblings at depth 1 or 2,
    overrides equal to the default, sometimes a config ray with the
    pattern hanging off it, and sometimes a level region with the pattern
    inside it.  It may be cyclic; one with an override on the ray raises
    LazyTreeError."""
    d = rng.choice([3, 3, 4])
    default = rng.randrange(1, d + 1)

    def below(a: tuple, lo: int, hi: int) -> tuple:
        return a + tuple(rng.randrange(1, d)
                         for _ in range(rng.randrange(lo, hi)))

    pattern = {below((), 0, 4): rng.choice([default, rng.randrange(1, d + 1)])
               for _ in range(rng.randrange(1, 6))}
    overrides = {}

    def copy_at(root: tuple) -> None:
        for rel, k in pattern.items():
            overrides[root + rel] = k

    parent = (rng.randrange(1, d + 1),) if rng.random() < 0.5 else ()
    siblings = list(range(1, (d - 1 if parent else d) + 1))
    for c in rng.sample(siblings, rng.randrange(2, len(siblings) + 1)):
        copy_at(parent + (c,))
    for _ in range(rng.randrange(0, 4)):
        overrides[below((rng.randrange(1, d + 1),), 0, 4)] = default
    rays = ()
    if rng.random() < 0.5:
        start = below((rng.randrange(1, d + 1),), 0, 2)
        ray = RayRule(start, tuple(rng.randrange(1, d)
                                   for _ in range(rng.randrange(1, 4))),
                      rng.randrange(1, d + 1))
        rays = (ray,)
        path = start
        for i in range(rng.randrange(0, 4)):
            path += (ray.pattern[i % len(ray.pattern)],)
        off = path + (ray.pattern[(len(path) - len(start)) % len(ray.pattern)]
                      % (d - 1) + 1,)     # the child the ray does not take
        copy_at(off)
    regions = ()
    if rng.random() < 0.5:
        addr = below((rng.randrange(1, d + 1),), 0, 2)
        regions = (LevelRegion(addr, rng.randrange(2, 5)),)
        copy_at(below(addr, 0, 2))
    return LazyTreeConfig(d=d, default=default,
                          overrides=tuple(overrides.items()), rays=rays,
                          regions=regions)


def test_shared_tables_match_naive_aggregate_on_repeated_structure():
    # every result field against the literal walk, plain and modified, on
    # configs whose content-equal subtrees share tables
    rng = random.Random(61)
    made = cyclic = shared = 0
    with_ray = with_region = 0
    while made < 120:
        try:
            cfg = _repeated_structure_config(rng)
        except LazyTreeError:
            continue
        made += 1
        cyclic += find_cyclic_pair(cfg) is not None
        with_ray += bool(cfg.rays)
        with_region += bool(cfg.regions)
        rho = 6 if cfg.d == 3 else 4
        for modified in (False, True):
            chips = (modified_count if modified else ball_size)(cfg.d, rho)
            assert_matches_naive_aggregate(cfg, chips, modified)
        res = aggregate(cfg, ball_size(cfg.d, rho), check_acyclic=False)
        kinds = {kind_at(cfg, a) for a in res.occupied}
        shared += len(res._tables.kind) < len(kinds)
    assert min(cyclic, with_ray, with_region) >= 20, (cyclic, with_ray,
                                                      with_region)
    assert shared >= 100, shared


def test_deep_structure_aggregates_without_recursion():
    # the keys are made children first in one loop and name their children
    # by id, so a structure 5,000 levels deep needs no deep call stack
    cfg = LazyTreeConfig(d=3, default=1, overrides=(((1,) * 5000, 2),))
    res = aggregate(cfg, ball_size(3, 8))
    assert res.is_exact_ball(8)
    # the origin, the path's eight levels that the chips reach, the default
    assert len(res._tables.kind) == 10


def test_deep_override_runs_in_linear_memory():
    # one override 20,000 levels deep: typing, the acyclicity check, the
    # response tables and a walk state hold a few entries per level (an
    # address tuple per prefix would take about 1.6 GB), and the typed
    # config keeps one kind and one child id per level, its structure
    # children in the tables alone; the first chips never reach depth 4,
    # so they do what they do with the override at depth 3
    tracemalloc.start()
    try:
        deep = LazyTreeConfig(d=3, default=1, overrides=(((1,) * 20_000, 2),))
        typed = tracemalloc.get_traced_memory()[0]
        agg = aggregate(deep, 4)
        run = run_chips_infinite(deep, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert typed < 6 * 2 ** 20
    assert peak < 32 * 2 ** 20
    assert len(deep._structure.kind) == 20_001
    shallow = LazyTreeConfig(d=3, default=1, overrides=(((1,) * 3, 2),))
    want = aggregate(shallow, 4)
    for name in ("stops", "occupied", "depth_counts", "max_depth",
                 "ball_checks", "sandwich_ok", "steps", "rotors"):
        assert getattr(agg, name) == getattr(want, name), name
    want = run_chips_infinite(shallow, 4)
    assert (run.word, run.depths) == (want.word, want.depths) == (
        "1110", [None, None, None, 1])
    for name in ("rotors", "patches", "ray_counts", "ray_tips"):
        assert getattr(run.state, name) == getattr(want.state, name), name


def _origin_and_children_configs() -> list:
    """Every d = 3 config with any default and any override, or none, on
    the origin and on each of its three children: 3 * 4^4 = 768."""
    addrs = [ORIGIN, (1,), (2,), (3,)]
    return [LazyTreeConfig(d=3, default=default, overrides=tuple(
                (a, k) for a, k in zip(addrs, dirs) if k is not None))
            for default in (1, 2, 3)
            for dirs in itertools.product((None, 1, 2, 3), repeat=4)]


def test_perfect_balls_on_every_origin_and_children_config():
    # the acyclic hypothesis probed from the cyclic side: on this family,
    # cyclic configs grow perfect balls too.  A tested statement only:
    # aggregate keeps refusing cyclic configs.  The sha256 of the pairs
    # found was taken when find_cyclic_pair kept address tuples
    cfgs = _origin_and_children_configs()
    assert len(cfgs) == 768
    pairs = [find_cyclic_pair(cfg) for cfg in cfgs]
    assert hashlib.sha256("".join(map(repr, pairs)).encode()).hexdigest() == (
        "804ed55cd64bd7794c64b4c077a6af7916893db8c6917f5b3d90198951612559")
    cyclic = [cfg for cfg, pair in zip(cfgs, pairs) if pair is not None]
    assert len(cyclic) == 384
    with pytest.raises(NotAcyclicError):
        aggregate(cyclic[0], ball_size(3, 7))
    for cfg in cfgs:
        res = aggregate(cfg, ball_size(3, 7), check_acyclic=False)
        assert res.ball_checks == [(rho, True) for rho in range(8)], cfg
        assert res.sandwich_ok, cfg
        mod = aggregate_modified(cfg, modified_count(3, 7),
                                 check_acyclic=False)
        assert mod.occupied_is_ball(7), cfg
    for cfg in random.Random(67).sample(cfgs, 40):
        for modified in (False, True):
            chips = (modified_count if modified else ball_size)(3, 5)
            assert_matches_naive_aggregate(cfg, chips, modified)


def replay_checkpoints(d: int, stops: list) -> tuple[list, bool]:
    """ball_checks and sandwich_ok recomputed from the stops alone: after
    every settled chip, rescan b_0, b_1, ... for the radius and the layer
    counts for the full-layer prefix."""
    ball_checks, sandwich_ok = [(0, True)], True
    for i in range(1, len(stops)):
        if stops[i] == ORIGIN:          # a modified chip back at the origin
            continue
        occupied = set(stops[:i + 1])
        counts = Counter(len(a) for a in occupied)
        size, max_depth = len(occupied), max(counts)
        rho = 0
        while ball_size(d, rho) < size:
            rho += 1
        if ball_size(d, rho) == size:
            ball_checks.append((rho, max_depth == rho))
            continue
        full = 0
        while counts[full + 1] == layer_size(d, full + 1):
            full += 1
        if not (full >= rho - 1 and max_depth <= rho):
            sandwich_ok = False
    return ball_checks, sandwich_ok


def ball_vertices(d: int, rho: int) -> list:
    """B_rho in breadth-first order."""
    out, layer = [ORIGIN], [ORIGIN]
    for _ in range(rho):
        layer = [a + (c,) for a in layer
                 for c in range(1, (d if a == ORIGIN else d - 1) + 1)]
        out += layer
    return out


def run_scripted(monkeypatch, d: int, script: list, modified: bool):
    """Aggregate with the chips settling on the scripted sites in order;
    None is a chip back at the origin, which walks on unless ``modified``."""

    def chip_stops(self, n, modified):
        for site in script:
            if site is not None:
                yield site
            elif modified:
                yield ORIGIN

    monkeypatch.setattr(lazytree._ResponseTables, "chip_stops", chip_stops)
    chips = 1 + (len(script) if modified
                 else sum(site is not None for site in script))
    return lazytree._aggregate_run(uniform_config(d, 1), chips, modified,
                                   check_acyclic=False)


def _scripts():
    b3 = ball_vertices(3, 3)
    l1, l2, l3 = b3[1:4], b3[4:10], b3[10:22]
    yield 3, "breadth-first", b3[1:]
    yield 3, "deep site first", [l2[0]] + l1 + l2[1:] + l3
    yield 3, "layer 2 skipped", l1 + l3 + l2
    # layer 2 fills before layer 1 does: the full prefix jumps from 0 to 2
    yield 3, "deeper layer filled first", l1[:2] + l2 + [l1[2]] + l3
    yield 3, "layer 1 last", l2 + l3[:5] + l1 + l3[5:]
    # the sandwich's two ends for rho = 2, settles b_1 + 1 = 5 and b_2 - 1 = 9
    # ("deep site first" fills the hole at b_1 + 1)
    yield 3, "hole open at b_1 + 1", l1[:2] + l2[:2] + [l1[2]] + l2[2:] + l3
    yield 3, "layer 3 only at b_2 - 1", l1 + l2[:4] + [l3[0]] + l2[4:] + l3[1:]
    yield 3, "layer 3 first at b_2", l1 + l2[:5] + [l3[0], l2[5]] + l3[1:]
    # runs that stop inside an interval, at its two ends
    yield 3, "stops at b_1 + 1, hole open", l1[:2] + l2[:2]
    yield 3, "stops at b_2 - 1, layer 3 reached", l1 + l2[:4] + [l3[0]]
    yield 4, "breadth-first", ball_vertices(4, 2)[1:]
    rng = random.Random(41)
    for i in range(60):
        d = 3 if i % 2 else 4
        sites = ball_vertices(d, 4 if d == 3 else 3)[1:]
        if i % 3 == 0:
            rng.shuffle(sites)          # any order, any subset
            sites = sites[:rng.randrange(1, len(sites) + 1)]
        else:                           # breadth-first with local swaps
            for _ in range(rng.randrange(1, 6)):
                j = rng.randrange(len(sites) - 1)
                sites[j], sites[j + 1] = sites[j + 1], sites[j]
        yield d, f"random {i}", sites


def test_aggregation_checkpoints_match_replay_of_stops(monkeypatch):
    # scripted sites reach checkpoints no acyclic configuration produces
    seen = Counter()
    rng = random.Random(43)
    for d, name, sites in _scripts():
        script = []
        for site in sites:
            script += [None] * (rng.random() < 0.2) + [site]
        for modified in (False, True):
            res = run_scripted(monkeypatch, d, script, modified)
            stops = [ORIGIN] + [ORIGIN if site is None else site
                                for site in script
                                if modified or site is not None]
            assert res.stops == stops, name
            assert res.occupied == set(stops), name
            assert res.depth_counts == Counter(len(a) for a in set(stops))
            checks, sandwich_ok = replay_checkpoints(d, stops)
            assert res.ball_checks == checks, (name, modified)
            assert res.sandwich_ok == sandwich_ok, (name, modified)
            seen[sandwich_ok, all(ok for _, ok in checks)] += 1
    # every combination of verdicts occurs
    assert len(seen) == 4, seen


def test_aggregation_guard_rejects_two_chips_on_one_site(monkeypatch):
    # every chip settles on an unoccupied vertex, so the cluster size is a
    # count; a run that breaks that fails its guard
    l1 = ball_vertices(3, 1)[1:]
    for script in (l1 + [l1[0]], [(1, 1)] * 40):
        for modified in (False, True):
            with pytest.raises(ResultCheckError):
                run_scripted(monkeypatch, 3, script, modified)


def test_occupied_set_is_no_larger_than_one_element_merges():
    # a set merge grows the table 2x where add() and set(stops) grow it 4x
    res = aggregate(uniform_config(3, 1), ball_size(3, 13))
    merged = {ORIGIN}
    for site in res.stops[1:]:
        merged |= {site}
    assert merged == res.occupied
    assert sys.getsizeof(res.occupied) <= sys.getsizeof(merged)
    assert sys.getsizeof(res.occupied) < sys.getsizeof(set(res.stops))


def test_step_budget_guard(monkeypatch):
    from rotorlab.lazytree import StepBudgetExceededError
    # the literal engine really walks the exponential bouncy excursions
    cfg = uniform_config(3, 2)
    monkeypatch.setattr(lazytree, "DEFAULT_STEP_BUDGET", 100)
    with pytest.raises(StepBudgetExceededError, match="^exceeded 100 steps$"):
        run_chips_infinite(cfg, 30, state=TreeState(cfg, fast_paths=False))
    monkeypatch.setattr(lazytree, "DEFAULT_STEP_BUDGET", 20)
    with pytest.raises(StepBudgetExceededError, match="^exceeded 20 steps$"):
        aggregate(uniform_config(3, 1), 100)


def test_dot_blocks_joined():
    cfg = uniform_config(3, 1)
    res = aggregate(cfg, 10)
    dot = "\n".join(dot_blocks(res.rotors, cfg.d, cluster=res.occupied))
    assert dot.startswith("digraph")
    assert '"o"' in dot
    # no cluster, and edges up to parents: the alternating run's state
    st = run_chips_infinite(alternating_tree_config(), 3000).state
    assert len(st.rotors) > 1024
    dot = "\n".join(dot_blocks(st.rotors, st.cfg.d))
    assert hashlib.sha256(dot.encode()).hexdigest() == \
        "ec5f2805eef30251ffb7da083d285c246215dee00d0c3ab4de0943f657c5615d"


@pytest.mark.parametrize("payload", [
    [],
    {"default": 1},
    {"d": 3.0, "default": 1},
    {"d": 3, "default": True},
    {"d": 3, "default": 1, "mode": 2},
    {"d": 3, "default": 1, "overrides": {"addr": "1", "dir": 2}},
    {"d": 3, "default": 1, "overrides": ["1"]},
    {"d": 3, "default": 1, "overrides": [{"addr": 1, "dir": 2}]},
    {"d": 3, "default": 1, "overrides": [{"addr": "1/x", "dir": 2}]},
    {"d": 3, "default": 1,
     "rays": [{"start_addr": "3", "pattern": ["2"], "dir": 2}]},
    {"d": 3, "default": 1, "regions": [{"addr": "1", "h": None}]},
])
def test_config_from_json_rejects_malformed_fields(payload):
    with pytest.raises(LazyTreeError):
        LazyTreeConfig.from_json(json.dumps(payload))


def test_ray_bounce_guard_raises_result_check(monkeypatch):
    cfg = alternating_tree_config()
    st = TreeState(cfg)
    assert st.walk_chip().outcome == "escaped"
    (tip, (ray_id,)), = st.ray_tips.items()
    nxt = tip + (st.ray_seen[ray_id] % cfg.d + 1,)      # has no id yet
    # a ray tip that last saw direction d-1 would have to bounce next;
    # making the id of a child of its vertex reads where it heads
    monkeypatch.setitem(st.ray_seen, ray_id, cfg.d - 1)
    with pytest.raises(ResultCheckError):
        st.effective(nxt)


def _dense_valid_word(rng: random.Random, n: int, stride: int) -> str:
    """A valid word (stride 1: branch word, 3: full-tree word) whose bits
    are 1 with probability 0.7 unless that breaks a window.  Dense words
    synthesize shallow level regions, whose literal walks stay short."""
    out = ""
    for _ in range(n):
        w = out + "1"
        ok = rng.random() < 0.7 and all(satisfies_all(w[r::stride])
                                        for r in range(stride))
        out = w if ok else out + "0"
    return out


def test_every_depth3_branch_config_gives_a_valid_word():
    # the "only if" half of the escape theorem on configs that synthesis
    # did not make: every ternary branch config with a default and
    # overrides at the 7 addresses down to depth 3 (6,561 configs, 4,670 of
    # them cyclic) gives a 40-chip word that passes every window test; a
    # config the engine refuses runs on the explicit simulator instead
    addrs = [(1,), (1, 1), (1, 2), (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]
    words = set()
    cyclic = 0
    for default, *dirs in itertools.product((1, 2, 3), repeat=8):
        cfg = LazyTreeConfig(3, default, mode="branch",
                             overrides=tuple(zip(addrs, dirs)))
        cyclic += not is_acyclic_config(cfg)
        try:
            word = run_chips_infinite(cfg, 40).word
        except UnsupportedConfigError:
            word = naive_run(cfg, 40, 60)[0]
        assert satisfies_all(word), (cfg, word)
        words.add(word)
    assert cyclic == 4670
    assert len(words) == 391


def test_random_structure_configs_give_valid_words():
    # the same on random ternary configs with overrides down to depth 6,
    # nested level regions and rays, in both modes: the engine's 60-chip
    # word starts with the explicit simulator's 12-chip word (the simulator
    # walks an all-return region literally, at 2^k steps for chip k), and
    # it passes every window test (in tree mode, each residue does); a
    # config the engine refuses is window-tested on the simulator's word.
    # At d = 17 and 18 the engine is checked against the simulator only
    rng = random.Random(47)

    def valid_config(d, mode=None):
        while True:
            try:
                return _random_structure_config(rng, d, mode)
            except LazyTreeError:
                pass

    checked = Counter()
    for i in range(300):
        mode = ("branch", "tree")[i % 2]
        cfg = valid_config(3, mode)
        prefix = naive_run(cfg, 12, 45)[0]
        try:
            word = run_chips_infinite(cfg, 60).word
            assert word[:12] == prefix, cfg
        except UnsupportedConfigError:
            checked["refused"] += 1
            word = prefix
        words = [word] if mode == "branch" else residues(word)
        assert all(satisfies_all(w) for w in words), (cfg, word)
        checked[mode, bool(cfg.regions and cfg.rays)] += 1
    assert checked["branch", True] >= 50 and checked["tree", True] >= 50
    assert checked["refused"] < 30
    for i in range(20):
        cfg = valid_config(17 + i % 2)
        try:
            word = run_chips_infinite(cfg, 12).word
        except UnsupportedConfigError:
            checked["refused at large degree"] += 1
            continue
        assert word == naive_run(cfg, 12, 45)[0], cfg
    assert checked["refused at large degree"] < 10


def test_node_tables_match_oracles_after_every_chip():
    # effective() is read on every vertex the explicit simulator touched
    # and on every vertex of the first four levels, after every chip: a
    # patch or a ray tip that failed to reach descendants which already
    # have ids shows up as a wrong direction there
    rng = random.Random(31)
    cap = 45
    for i in range(40):
        n = rng.randrange(10, 41)
        stride = 3 if i % 2 else 1
        a = _dense_valid_word(rng, n, stride)
        if stride == 3:
            cfg = synthesize_tree(a)
        else:
            cfg = descriptor_to_branch_config(synthesize_branch(a))
        probes = [()]
        for _ in range(4):
            probes += [p + (c,) for p in probes if len(p) == len(probes[-1])
                       for c in range(1, (cfg.d if p else cfg.origin_arity()
                                          + 1))]
        fast, literal = TreeState(cfg), TreeState(cfg, fast_paths=False)
        for k in range(1, n + 1):
            res = [fast.walk_chip(), literal.walk_chip()]
            nword, ndepths, nrotors = naive_run(cfg, k, cap)
            assert nword == a[:k]
            assert ["1" if r.outcome == "escaped" else "0" for r in res] \
                == [a[k - 1]] * 2
            if a[k - 1] == "0":
                assert [r.max_depth for r in res] == [ndepths[-1]] * 2
            for addr in set(nrotors) | set(probes):
                if len(addr) <= cap:
                    want = nrotors.get(addr) or kind_at(cfg, addr).base
                    assert fast.effective(addr) == want, (a, k, addr)
                    assert literal.effective(addr) == want, (a, k, addr)


def assert_no_tip_waits_above_an_id(st: TreeState) -> None:
    """Every ray has one pending tip, kept in ray-id order per vertex, and
    no tip heads to a child that already has an id."""
    d = st.cfg.d
    assert sum(len(ids) for ids in st._tips.values()) == st.n_rays
    for x, ids in st._tips.items():
        assert ids == sorted(ids)
        for r in ids:
            c = st.ray_seen[r] % d + 1
            assert c < d and st._id(x, c) < 0, (st._address(x), r)


def test_ray_tips_wait_only_above_vertices_without_ids():
    rng = random.Random(43)
    runs = [(alternating_tree_config(), 3000, True),
            (uniform_config(3, 2), 300, True),
            (uniform_config(4, 3), 300, True)]
    for i in range(20):
        n = rng.randrange(10, 41)
        a = _dense_valid_word(rng, n, 3 if i % 2 else 1)
        cfg = (synthesize_tree(a) if i % 2
               else descriptor_to_branch_config(synthesize_branch(a)))
        runs += [(cfg, n, True), (cfg, n, False)]
    escapes = 0
    for cfg, m, fast in runs:
        st = TreeState(cfg, fast_paths=fast)
        for _ in range(m):
            escapes += st.walk_chip().outcome == "escaped"
            assert_no_tip_waits_above_an_id(st)
        assert st.n_rays > 0 or cfg.default == cfg.d - 1
    assert escapes > 1700               # 1,500 in the alternating run


def test_aggregate_memory_grows_with_touched_vertices():
    # past b_1 every chip settles a child of a different depth-1 vertex; a
    # table with d slots per vertex that has a child would take 64 MiB here
    d = 4096
    tracemalloc.start()
    try:
        res = aggregate(uniform_config(d, 1), 2 * d + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.depth_counts == {0: 1, 1: d, 2: d}
    assert peak < 16 * 2 ** 20


def test_final_rotors_cost_about_the_cluster():
    # the rotors come from one pass over the stops and the tables; building
    # a walk state for this cluster took 1.5 MiB
    res = aggregate(uniform_config(4096, 1), 8193)
    tracemalloc.start()
    try:
        rotors = res.rotors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rotors) == 8193 and set(rotors) == res.occupied
    assert peak < 2 ** 20


def test_aggregate_memory_stays_near_the_stops():
    # the stops and the occupied set take most of it; the tables store an
    # element in a few machine words, and about 4.9 MiB is the whole peak
    tracemalloc.start()
    try:
        res = aggregate(uniform_config(3, 1), ball_size(3, 13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.is_exact_ball(13)
    assert peak < 5.5 * 2 ** 20


# -- escape runs pinned byte for byte -----------------------------------------

def _pinned_escape_configs() -> list:
    """(config, chips) pairs: seeded synthesized configs of both modes,
    20 to 100 letters, dense and sparse words, and three presets."""
    rng = random.Random(2609)
    runs = [(alternating_tree_config(), 300), (uniform_config(3, 2), 60),
            (uniform_config(4, 3), 60)]
    for i in range(40):
        n = rng.randrange(20, 101)
        stride = 3 if i % 2 else 1
        a = (_dense_valid_word(rng, n, stride) if i % 4 < 2
             else random_valid_word(rng, n, stride))
        cfg = (synthesize_tree(a) if stride == 3
               else descriptor_to_branch_config(synthesize_branch(a)))
        runs.append((cfg, n))
    return runs


def _digest_walks(h, st: TreeState, m: int) -> None:
    """Feed h the word, the depths, each chip's steps, max_depth and
    visits, the error that ended the run early if any, and the sorted
    rotors and patches."""
    res = []
    error = ""
    for _ in range(m):
        try:
            res.append(st.walk_chip(record_visits=True))
        except (StepBudgetExceededError, UnsupportedConfigError) as exc:
            error = type(exc).__name__
            break
    word = "".join("1" if r.outcome == "escaped" else "0" for r in res)
    depths = [None if r.outcome == "escaped" else r.max_depth for r in res]
    h.update(f"{word}|{depths}|{error}|".encode())
    h.update(repr([(r.steps, r.max_depth, r.visited)
                   for r in res]).encode())
    h.update(repr(sorted(st.rotors.items())).encode())
    h.update(repr(sorted(st.patches.items())).encode())


def test_escape_runs_match_pinned_digest(monkeypatch):
    # the sha256 of the fast engine's runs, computed before the engine
    # seeded structure ids and took each fresh descent in one stride; the
    # capped runs end inside descents, and the state they leave is hashed
    runs = _pinned_escape_configs()
    h = hashlib.sha256()
    for cfg, m in runs:
        _digest_walks(h, TreeState(cfg), m)
    for cfg, m in runs[3:9]:
        for cap in range(1, 120):
            with monkeypatch.context() as mp:
                mp.setattr(lazytree, "DEFAULT_STEP_BUDGET", cap)
                _digest_walks(h, TreeState(cfg), m)
    for cfg, m in runs[3:9]:
        for cap in range(12):
            monkeypatch.setattr(TreeState, "_fresh_depth_cap",
                                lambda self, cap=cap: cap)
            _digest_walks(h, TreeState(cfg), m)
    assert h.hexdigest() == (
        "da990846bff9d4f304c47f9512dbc570f279f01d56fafa211a3d45acd7cf8819")


def test_structure_ids_are_typing_positions():
    # a fast state starts with the config's structure, each prefix of an
    # override, ray start or region at its position: the order in which
    # typing first met the prefix, marks in that order, each prefix after
    # its parent; a literal state makes each id on first contact
    for cfg, _ in _pinned_escape_configs():
        marked = ([a for a, _ in cfg.overrides] + [r.start for r in cfg.rays]
                  + [r.addr for r in cfg.regions])
        structure = list(dict.fromkeys(
            [ORIGIN] + [a[:i] for a in marked for i in range(1, len(a) + 1)]))
        st = TreeState(cfg)
        assert [st._address(x) for x in range(len(st._rot))] == structure
        assert len(TreeState(cfg, fast_paths=False)._rot) == 1


def test_structure_tables_match_ids_made_lazily():
    # every structure vertex has the parent, depth, child index and kind
    # that ``TreeState._child`` gives it when a literal state makes its id;
    # the random configs have marks whose parents are not marks, which
    # typing reaches by a walk from the origin.  ``child_kind`` reads every
    # child of a structure position through the child ids: the structure
    # kind where the tables have one, the shared off-structure kind else
    rng = random.Random(31)
    cfgs = [cfg for cfg, _ in _pinned_escape_configs()]
    while len(cfgs) < 243:
        try:
            cfgs.append(_random_structure_config(rng))
        except LazyTreeError:
            continue
    for cfg in cfgs:
        st = TreeState(cfg)
        lazy = TreeState(cfg, fast_paths=False)
        for x in range(1, len(st._rot)):
            addr = st._address(x)
            y = lazy._node(addr)
            assert (lazy._address(lazy._parent[y]), lazy._depth[y],
                    lazy._cidx[y]) == (st._address(st._parent[x]),
                                       st._depth[x], st._cidx[x]), addr
            assert lazy._kind[y] is st._kind[x], addr
        assert len(lazy._rot) == len(st._rot)
        for x in range(len(st._rot)):       # the same child lists
            y = lazy._node(st._address(x))
            assert ({st._address(z) for z in _children(st._head, st._next, x)}
                    == {lazy._address(z)
                        for z in _children(lazy._head, lazy._next, y)})
        s = cfg._structure
        for x, kind in enumerate(s.kind):   # the tables give every child
            assert kind.pos == (x if s.head[x] else None), x
            for c in range(1, (cfg.d - 1 if x else cfg.origin_arity()) + 1):
                y = s.ids.get(x * cfg.d + c)
                want = cfg._off_structure(kind, c) if y is None else s.kind[y]
                assert cfg.child_kind(kind, c) is want, (x, c)
