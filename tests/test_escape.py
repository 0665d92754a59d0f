import random

import pytest

import rotorlab
from rotorlab.escape import (
    ConfigDescriptor,
    LengthMismatchError,
    NotRealizableError,
    ThreeConsecutiveOnesError,
    WordError,
    descriptor_to_branch_config,
    factor_blocks,
    is_escape_branch,
    is_escape_tree,
    phi,
    psi,
    residues,
    satisfies_all,
    satisfies_pk,
    simulate_branch,
    synthesize_branch,
    synthesize_tree,
    validate_word,
    violating_window,
)
from rotorlab.graph import GraphError
from rotorlab.lazytree import (LazyTreeConfig, LevelRegion, TreeState,
                               run_chips_infinite)


def extend_for_root(c: str, d: str, root: str) -> tuple[str, str]:
    """Extended sub-branch words when the root rotor is not pointing up."""
    validate_word(c)
    validate_word(d)
    if root == "up":
        return c, d
    if root == "left":
        return "0" + c, d
    if root == "right":
        return "0" + c, "0" + d
    raise WordError(f"unknown root direction {root!r}")


def all_words(max_len: int, min_len: int = 0):
    for n in range(min_len, max_len + 1):
        for bits in range(2 ** n):
            yield format(bits, f"0{n}b") if n else ""


def test_word_and_graph_errors_share_one_root():
    # one class catches every error rotorlab raises, and it stays a
    # ValueError, as both roots were
    assert issubclass(WordError, rotorlab.RotorlabError)
    assert issubclass(GraphError, rotorlab.RotorlabError)
    assert issubclass(rotorlab.RotorlabError, ValueError)


def test_satisfies_pk_examples():
    assert not satisfies_pk("111", 2)
    assert satisfies_pk("110", 2)
    assert satisfies_pk("1101101", 2)
    assert not satisfies_pk("1101101", 3)   # 5 ones in the 7-window
    # k = 1 holds for every word
    for a in ["", "0", "1", "111", "110110"]:
        assert satisfies_pk(a, 1)
    # short words pass vacuously
    assert satisfies_pk("11", 2)
    assert satisfies_pk("111111", 4)


def test_violating_window():
    assert violating_window("111") == (2, 1, 3)
    assert violating_window("0111") == (2, 2, 4)
    assert violating_window("10101") is None
    assert violating_window("1101101") == (3, 1, 7)
    assert violating_window("110101011010101") == (4, 1, 15)


# -- literal oracles for the window scan ---------------------------------------

def slicing_violating_window(a: str):
    """First failing window, every window recounted from its slice."""
    k = 2
    while 2 ** k - 1 <= len(a):
        w = 2 ** k - 1
        limit = 2 ** (k - 1)
        for i in range(len(a) - w + 1):
            if a[i:i + w].count("1") > limit:
                return (k, i + 1, i + w)
        k += 1
    return None


def sliding_satisfies_pk(a: str, k: int) -> bool:
    """(P_k) for one k by a sliding count over the windows."""
    w = 2 ** k - 1
    limit = 2 ** (k - 1)
    if len(a) < w:
        return True
    ones = a[:w].count("1")
    if ones > limit:
        return False
    for i in range(w, len(a)):
        ones += (a[i] == "1") - (a[i - w] == "1")
        if ones > limit:
            return False
    return True


def oracle_is_branch(a: str) -> bool:
    k = 2
    while 2 ** k - 1 <= len(a):
        if not sliding_satisfies_pk(a, k):
            return False
        k += 1
    return True


def oracle_synthesize_branch(a: str) -> ConfigDescriptor:
    """Recursive synthesis that checks every sub-word with the oracles and
    builds every repeat of a sub-word again."""
    if not oracle_is_branch(a):
        raise NotRealizableError(a)
    body = a[:-1] if a.endswith("1") else a
    if "1" not in body:
        return ConfigDescriptor.level(len(body))
    c, d = psi(a)
    return ConfigDescriptor.node(oracle_synthesize_branch(c),
                                 oracle_synthesize_branch(d))


def oracle_expand(desc: ConfigDescriptor, base: tuple, overrides: list,
                  regions: list) -> None:
    """Recursive preorder expansion: node, left subtree, right subtree."""
    if desc.kind == "level":
        regions.append(LevelRegion(base, desc.h))
    else:
        overrides.append((base, 3))
        oracle_expand(desc.left, base + (1,), overrides, regions)
        oracle_expand(desc.right, base + (2,), overrides, regions)


def oracle_branch_config(desc: ConfigDescriptor) -> LazyTreeConfig:
    overrides, regions = [], []
    oracle_expand(desc, (1,), overrides, regions)
    return LazyTreeConfig(d=3, default=3, mode="branch",
                          overrides=tuple(overrides), regions=tuple(regions))


def oracle_synthesize_tree(a: str) -> LazyTreeConfig:
    if not all(oracle_is_branch(r) for r in residues(a)):
        raise NotRealizableError(a)
    overrides, regions = [((), 3)], []
    for j, r in enumerate(residues(a), start=1):
        oracle_expand(oracle_synthesize_branch(r), (j,), overrides, regions)
    return LazyTreeConfig(d=3, default=3, mode="tree",
                          overrides=tuple(overrides), regions=tuple(regions))


def greedy_word(rng: random.Random, n: int, stride: int, p: float) -> str:
    """A word whose ``stride`` residues are valid branch words: a 1 is kept
    only when every window it closes stays within its bound."""
    out: list[str] = []
    for i in range(n):
        out.append("1" if rng.random() < p else "0")
        res = out[i % stride::stride]
        k = 2
        while out[-1] == "1" and 2 ** k - 1 <= len(res):
            if res[len(res) - 2 ** k + 1:].count("1") > 2 ** (k - 1):
                out[-1] = "0"
            k += 1
    return "".join(out)


def assert_window_functions_match_oracles(a: str) -> None:
    win = slicing_violating_window(a)
    assert violating_window(a) == win, a
    assert satisfies_all(a) is is_escape_branch(a) is (win is None), a
    assert oracle_is_branch(a) is (win is None), a
    for k in range(1, len(a).bit_length() + 2):
        assert satisfies_pk(a, k) is sliding_satisfies_pk(a, k), (a, k)
    tree_ok = all(slicing_violating_window(r) is None for r in residues(a))
    assert is_escape_tree(a) is tree_ok, a


def test_window_functions_match_oracles_on_every_short_word():
    for a in all_words(12):
        assert_window_functions_match_oracles(a)


def _seeded_words(densities: tuple[float, ...]):
    """240 words of length 50-400, half of them broken by a few flips."""
    rng = random.Random(47)
    for i in range(240):
        n = rng.randrange(50, 401)
        stride = 3 if i % 2 else 1
        a = greedy_word(rng, n, stride, rng.choice(densities))
        if i % 4 >= 2:                  # break it: flip a few zeros to ones
            bits = list(a)
            for _ in range(rng.randrange(1, 4)):
                bits[rng.randrange(n)] = "1"
            a = "".join(bits)
        yield a


def test_window_functions_match_oracles_on_seeded_words():
    verdicts = set()
    for a in _seeded_words((0.2, 0.3, 0.5, 0.7, 0.9)):
        assert_window_functions_match_oracles(a)
        verdicts.add((is_escape_branch(a), is_escape_tree(a)))
    assert len(verdicts) == 4, verdicts


def _outcome(synthesize, a: str):
    try:
        return synthesize(a)
    except NotRealizableError:
        return None


def _valid_seeded_words(count: int):
    """``count`` valid words of length 50-400, alternately branch words and
    full-tree words, at densities 0.6-0.9: sparser words unfold into
    descriptors of thousands of nodes, which the oracles build one by one."""
    rng = random.Random(59)
    words = []
    while len(words) < count:
        stride = 3 if len(words) % 2 else 1
        a = greedy_word(rng, rng.randrange(50, 401), stride,
                        rng.choice((0.6, 0.7, 0.8, 0.9)))
        if all(oracle_is_branch(a[r::stride]) for r in range(stride)):
            words.append(a)
    return words


def test_synthesized_descriptors_match_oracles():
    # the same words are refused, and the expanded configs (their overrides
    # and regions tuples, in order) equal those of the recursive oracles
    realizable = {"branch": 0, "tree": 0}
    words = [*all_words(12), *_seeded_words((0.7, 0.9)),
             *_valid_seeded_words(200)]
    for a in words:
        desc = _outcome(synthesize_branch, a)
        want = _outcome(oracle_synthesize_branch, a)
        assert (desc is None) == (want is None), a
        if desc is not None:
            assert descriptor_to_branch_config(desc) \
                == oracle_branch_config(want), a
        cfg = _outcome(synthesize_tree, a)
        assert cfg == _outcome(oracle_synthesize_tree, a), a
        realizable["branch"] += len(a) >= 50 and desc is not None
        realizable["tree"] += len(a) >= 50 and cfg is not None
    assert min(realizable.values()) >= 100, realizable


@pytest.mark.parametrize("word", ["2", "1a1", "01 ", "0\n1", "x" * 7])
def test_every_word_function_rejects_non_binary_input(word):
    calls = [validate_word, satisfies_all, violating_window,
             is_escape_branch, is_escape_tree, residues, factor_blocks, psi,
             synthesize_branch, synthesize_tree,
             lambda a: satisfies_pk(a, 1), lambda a: satisfies_pk(a, 3),
             lambda a: phi(a, a), lambda a: phi("0" * len(a), a),
             lambda a: extend_for_root(a, "0", "left"),
             lambda a: extend_for_root("0", a, "up")]
    for call in calls:
        with pytest.raises(WordError):
            call(word)


def test_factor_blocks():
    f = factor_blocks("110100")
    assert f.blocks == ("110", "10", "0")
    assert not f.appended_zero
    f1 = factor_blocks("1")
    assert f1.blocks == ("10",)
    assert f1.appended_zero
    f2 = factor_blocks("11")
    assert f2.blocks == ("110",)
    assert f2.appended_zero
    with pytest.raises(ThreeConsecutiveOnesError):
        factor_blocks("0111")


def test_psi_examples():
    assert psi("110100") == ("110", "100")
    assert psi("000") == ("000", "000")
    assert psi("1010") == ("10", "01")


def psi_by_block_map(a: str) -> tuple[str, str]:
    """Reference psi: the block map applied to ``factor_blocks``, block by
    block."""
    c, d = [], []
    tens = 0
    for b in factor_blocks(a).blocks:
        if b == "0":
            c.append("0")
            d.append("0")
        elif b == "110":
            c.append("1")
            d.append("1")
        else:
            c.append("10"[tens % 2])
            d.append("01"[tens % 2])
            tens += 1
    return "".join(c), "".join(d)


def test_psi_matches_block_map_oracle():
    words = 0
    for a in all_words(14):
        if "111" in a:
            with pytest.raises(ThreeConsecutiveOnesError) as err:
                psi(a)
            with pytest.raises(ThreeConsecutiveOnesError) as want:
                factor_blocks(a)
            assert str(err.value) == str(want.value)
            continue
        assert psi(a) == psi_by_block_map(a), a
        words += 1
    assert words > 5000
    for bad in ("012", "1101x", "1112", " 0", "\u0661"):
        with pytest.raises(WordError) as err:
            psi(bad)
        assert type(err.value) is WordError
        with pytest.raises(WordError) as want:
            factor_blocks(bad)
        assert str(err.value) == str(want.value)


def test_phi_examples():
    assert phi("110", "100") == "110100"
    assert phi("000", "000") == "000"
    assert phi("10", "01") == "1010"
    with pytest.raises(LengthMismatchError):
        phi("10", "0")


def test_phi_left_inverse_of_psi():
    for a in all_words(12):
        if "111" in a:
            continue
        c, d = psi(a)
        back = phi(c, d)
        assert back == a or back == a + "0"


def test_psi_preserves_window_condition():
    # both halves of a (P_k)-word satisfy (P_{k-1})
    for a in all_words(12):
        if "111" in a:
            continue
        c, d = psi(a)
        k = 2
        while 2 ** k - 1 <= len(a):
            if satisfies_pk(a, k):
                assert satisfies_pk(c, k - 1)
                assert satisfies_pk(d, k - 1)
            k += 1


def test_extend_for_root():
    assert extend_for_root("1", "0", "up") == ("1", "0")
    assert extend_for_root("1", "0", "left") == ("01", "0")
    assert extend_for_root("1", "1", "right") == ("01", "01")


def test_is_escape_tree():
    assert is_escape_tree("111111")      # residues "11" each
    assert is_escape_tree("0" * 30)
    bad = "100100100"                    # residue 1 is "111"
    assert residues(bad)[0] == "111"
    assert not is_escape_tree(bad)


def test_synthesize_degenerate_cases():
    for word, h in [("0", 1), ("0000", 4), ("0001", 3), ("1", 0), ("", 0)]:
        desc = synthesize_branch(word)
        assert (desc.kind, desc.h) == ("level", h), word


def test_synthesize_rejects_invalid():
    with pytest.raises(NotRealizableError):
        synthesize_branch("111")
    with pytest.raises(NotRealizableError):
        synthesize_tree("100100100")


def test_simulate_simple_round_trips():
    assert simulate_branch(synthesize_branch("10"), 2) == "10"
    assert simulate_branch(synthesize_branch("0"), 1) == "0"
    assert simulate_branch(synthesize_branch("110110"), 6) == "110110"


def test_branch_round_trip_exhaustive_small():
    for a in all_words(8):
        valid = is_escape_branch(a)
        if valid:
            word = simulate_branch(synthesize_branch(a), len(a))
            assert word == a, a
        else:
            with pytest.raises(NotRealizableError):
                synthesize_branch(a)


def test_tree_round_trip_examples():
    for a in ["101010", "000000", "11", "111111", "110110", "111000111"]:
        cfg = synthesize_tree(a)
        assert run_chips_infinite(cfg, len(a)).word == a


def test_tree_round_trip_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(0, 14)
        a = random_valid_tree_word(rng, n)
        cfg = synthesize_tree(a)
        assert run_chips_infinite(cfg, n).word == a


def random_valid_branch_word(rng: random.Random, n: int) -> str:
    out = []
    for _ in range(n):
        pick = rng.random() < 0.5
        out.append("1")
        if not (pick and satisfies_all("".join(out))):
            out[-1] = "0"
    return "".join(out)


def random_valid_tree_word(rng: random.Random, n: int) -> str:
    out = []
    for _ in range(n):
        out.append("1")
        ok = rng.random() < 0.55 and all(
            satisfies_all(r) for r in residues("".join(out)))
        if not ok:
            out[-1] = "0"
    return "".join(out)


def test_branch_round_trip_random_long():
    rng = random.Random(9)
    for _ in range(10):
        a = random_valid_branch_word(rng, 60)
        assert is_escape_branch(a)
        word = simulate_branch(synthesize_branch(a), len(a))
        assert word == a


def test_synthesized_configs_agree_with_literal_engine():
    # the closed-form excursions match literal stepping on descriptor configs
    rng = random.Random(11)
    for _ in range(15):
        a = random_valid_branch_word(rng, 9)
        cfg = descriptor_to_branch_config(synthesize_branch(a))
        fast = run_chips_infinite(cfg, len(a))
        lit = run_chips_infinite(cfg, len(a),
                                 state=TreeState(cfg, fast_paths=False))
        assert fast.word == lit.word == a
        assert fast.depths == lit.depths
        assert [d is None for d in fast.depths] == [c == "1" for c in a]


def test_compositionality_of_node_descriptors():
    # with the root pointing up, the branch word is phi of the sub-branch words
    rng = random.Random(13)
    for _ in range(12):
        wl = random_valid_branch_word(rng, 8)
        wr = random_valid_branch_word(rng, 8)
        left = synthesize_branch(wl)
        right = synthesize_branch(wr)
        node = ConfigDescriptor.node(left, right)
        m = 8
        wa = simulate_branch(node, m)
        assert wa == phi(simulate_branch(left, m),
                         simulate_branch(right, m))[:m]


def test_extended_sequences_match_runs():
    # root rotor pointing left or right instead of up
    rng = random.Random(17)
    for root_dir, root_name in [(1, "left"), (2, "right")]:
        for _ in range(8):
            wl = random_valid_branch_word(rng, 8)
            wr = random_valid_branch_word(rng, 8)
            left = synthesize_branch(wl)
            right = synthesize_branch(wr)
            base_cfg = descriptor_to_branch_config(
                ConfigDescriptor.node(left, right))
            overrides = tuple(
                ((addr, dirn) if addr != (1,) else (addr, root_dir))
                for addr, dirn in base_cfg.overrides)
            cfg = LazyTreeConfig(d=3, default=base_cfg.default, mode="branch",
                                 overrides=overrides,
                                 regions=base_cfg.regions)
            m = 8
            wa = run_chips_infinite(cfg, m).word
            c2, d2 = extend_for_root(simulate_branch(left, m),
                                     simulate_branch(right, m), root_name)
            n = min(len(c2), len(d2))
            assert wa == phi(c2[:n], d2[:n])[:m]


def test_realized_words_always_valid():
    # soundness: anything a random descriptor realizes passes every window test
    rng = random.Random(21)
    for _ in range(40):
        desc = random_descriptor(rng, depth=3)
        word = simulate_branch(desc, 8)
        assert satisfies_all(word), (desc, word)


def random_descriptor(rng: random.Random, depth: int) -> ConfigDescriptor:
    if depth == 0 or rng.random() < 0.4:
        return ConfigDescriptor.level(rng.randrange(0, 6))
    return ConfigDescriptor.node(random_descriptor(rng, depth - 1),
                                 random_descriptor(rng, depth - 1))
