"""Escape-sequence calculus for the ternary tree.

A binary word records, chip by chip, whether the walk returns to the origin
(0) or escapes to infinity (1).  Words realizable on a single branch are
exactly those in which every window of length 2^k - 1 carries at most
2^{k-1} ones, for every k; on the full tree the condition applies to each of
the three residue subsequences.  The constructive direction synthesizes a
rotor configuration for any valid word by peeling the word into the two
sub-branch words through the block maps psi and phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub

from rotorlab.graph import RotorlabError
from rotorlab.lazytree import (
    Address,
    LazyTreeConfig,
    LevelRegion,
    run_chips_infinite,
)


class WordError(RotorlabError):
    pass


class ThreeConsecutiveOnesError(WordError):
    pass


class LengthMismatchError(WordError):
    pass


class NotRealizableError(WordError):
    pass


_BINARY = frozenset("01")


def validate_word(a: str) -> str:
    if not _BINARY.issuperset(a):
        raise WordError(f"not a binary word: {a!r}")
    return a


def _first_violation(a: str, k: int = 2, last: int | None = None,
                     ) -> tuple[int, int, int] | None:
    """(k, start, end), 1-based inclusive, of the first window of length
    2^k - 1 holding more than 2^{k-1} ones: k ascending from ``k`` up to
    ``last`` (every k whose window fits, when None), then start ascending.
    ``a`` must be binary."""
    prefix = list(accumulate(map("1".__eq__, a), initial=0))
    while 2 ** k - 1 <= len(a) and (last is None or k <= last):
        w, limit = 2 ** k - 1, 2 ** (k - 1)
        if prefix[-1] <= limit:     # no window, at this k or above, fails
            return None
        if max(map(sub, prefix[w:], prefix)) > limit:    # then find it
            for i, ones in enumerate(map(sub, prefix[w:], prefix)):
                if ones > limit:
                    return k, i + 1, i + w
        k += 1
    return None


def satisfies_pk(a: str, k: int) -> bool:
    """Every window of length 2^k - 1 contains at most 2^{k-1} ones.

    Words shorter than the window length satisfy the condition vacuously;
    k = 1 always holds.
    """
    validate_word(a)
    if k < 1:
        raise WordError("k must be at least 1")
    return _first_violation(a, k, k) is None


def satisfies_all(a: str) -> bool:
    return violating_window(a) is None


def violating_window(a: str) -> tuple[int, int, int] | None:
    """(k, start, end) of the first failing window, 1-based inclusive."""
    return _first_violation(validate_word(a))


@dataclass(frozen=True)
class BlockFactorization:
    blocks: tuple[str, ...]
    appended_zero: bool


_THREE_ONES = "words with three consecutive ones are not factorable"


def factor_blocks(a: str) -> BlockFactorization:
    """Greedy factorization into blocks {0, 10, 110}.

    Blocks are self-delimiting (each ends at its first 0), so the
    factorization is unique; a dangling 1 or 11 at the end is closed by
    appending a single 0.
    """
    return BlockFactorization(tuple(ones + "0" for ones in _runs(_checked(a))),
                              a.endswith("1"))


def _checked(a: str) -> str:
    """a, if it is a binary word without 111."""
    validate_word(a)
    if "111" in a:
        raise ThreeConsecutiveOnesError(_THREE_ONES)
    return a


def _runs(a: str) -> list[str]:
    """The runs of ones before each 0 of a, with a dangling 1 or 11 closed
    by a 0: the blocks of ``factor_blocks`` without their 0."""
    runs = (a + "0" if a.endswith("1") else a).split("0")
    runs.pop()                          # the empty run after the last 0
    return runs


def psi(a: str) -> tuple[str, str]:
    """Split a branch word into the two sub-branch words, blockwise.

    The blocks are those of ``factor_blocks``.  Block 0 maps to (0,0),
    block 110 to (1,1), and the 10 blocks alternate (1,0), (0,1), (1,0),
    ... in order of appearance.
    """
    return _split(_checked(a))


def _split(a: str) -> tuple[str, str]:
    """psi of a binary word without 111."""
    c: list[str] = []
    d: list[str] = []
    tens = 0
    for ones in _runs(a):
        if ones == "1":
            c.append("10"[tens])
            d.append("01"[tens])
            tens ^= 1
        else:
            c.append("1" if ones else "0")
            d.append(c[-1])
    return "".join(c), "".join(d)


def phi(c: str, d: str) -> str:
    """Left inverse of psi: merge two sub-branch words into the branch word."""
    validate_word(c)
    validate_word(d)
    if len(c) != len(d):
        raise LengthMismatchError("phi needs words of equal length")
    out: list[str] = []
    for cj, dj in zip(c, d):
        if cj == "0" and dj == "0":
            out.append("0")
        elif cj == "1" and dj == "1":
            out.append("110")
        else:
            out.append("10")
    return "".join(out)


def is_escape_branch(a: str) -> bool:
    """Is the word realizable as an escape sequence on a single branch?"""
    return satisfies_all(a)


def residues(a: str) -> tuple[str, str, str]:
    validate_word(a)
    return a[0::3], a[1::3], a[2::3]


def is_escape_tree(a: str) -> bool:
    """Is the word realizable on the full ternary tree?

    Chips cycle through the three principal branches, so the word is
    realizable exactly when each residue subsequence is a branch word.
    """
    return all(_first_violation(r) is None for r in residues(a))


# -- configuration descriptors ------------------------------------------------

@dataclass(frozen=True, eq=False, repr=False)
class ConfigDescriptor:
    """Finite recursive description of a branch rotor configuration.

    kind "level": the first h levels of the branch point in direction d-1
    and everything deeper points in direction d.  kind "node": the branch
    root points up and the two sub-branches carry their own descriptors.
    A descriptor is a DAG node, compared by identity: synthesized
    descriptors share equal sub-descriptors.  Two descriptors realize the
    same configuration exactly when ``descriptor_to_branch_config`` gives
    equal configs, and that config's JSON is a descriptor's text form.
    """

    kind: str                     # "level" | "node"
    h: int = 0
    left: "ConfigDescriptor | None" = None
    right: "ConfigDescriptor | None" = None

    @staticmethod
    def level(h: int) -> "ConfigDescriptor":
        if h < 0:
            raise WordError("level rule height must be nonnegative")
        return ConfigDescriptor("level", h=h)

    @staticmethod
    def node(left: "ConfigDescriptor", right: "ConfigDescriptor",
             ) -> "ConfigDescriptor":
        return ConfigDescriptor("node", left=left, right=right)


def _degenerate_height(a: str) -> int | None:
    """h when a is all zeros possibly ending in a single 1, else None."""
    body = a[:-1] if a.endswith("1") else a
    return None if "1" in body else len(body)


def _synthesize(a: str, memo: dict[str, ConfigDescriptor]) -> ConfigDescriptor:
    """The descriptor of a, built bottom-up through ``memo``.

    Valid words split through psi into strictly shorter valid sub-words
    until the all-zero tail case, which a level rule realizes directly.
    psi maps blocks 0 and 110 alike on both sides, so sub-words repeat:
    each distinct one is checked, split and built once, and repeats share
    its descriptor.  Sub-words of a binary word are binary, so only ``a``
    has its alphabet checked, and a valid word has no 111 to refuse.
    Sub-words are checked in the preorder of the expanded descriptor, on
    an explicit stack, so deep descriptors do not recurse."""
    validate_word(a)
    split: dict[str, tuple[str, str]] = {}
    stack = [a]
    while stack:
        w = stack[-1]
        if w in memo:
            stack.pop()
        elif w in split:
            c, d = split[w]
            memo[w] = ConfigDescriptor.node(memo[c], memo[d])
            stack.pop()
        else:
            if _first_violation(w) is not None:
                raise NotRealizableError(
                    f"{w!r} violates a window condition")
            h = _degenerate_height(w)
            if h is not None:
                memo[w] = ConfigDescriptor.level(h)
                stack.pop()
            else:
                c, d = split[w] = _split(w)
                stack += (d, c)
    return memo[a]


def synthesize_branch(a: str) -> ConfigDescriptor:
    """A descriptor whose branch simulation reproduces the word exactly.

    Every sub-word is checked before it is split.  The result is a DAG:
    equal sub-words share one descriptor."""
    return _synthesize(a, {})


def expand_descriptor(desc: ConfigDescriptor, base: Address,
                      overrides: list[tuple[Address, int]],
                      regions: list[LevelRegion]) -> None:
    """Append the descriptor's overrides (a node's root points up, which is
    direction 3 on the ternary tree) and regions, in preorder (a node, then
    its left subtree, then its right), to the two lists."""
    stack = [(desc, base)]
    while stack:
        desc, base = stack.pop()
        if desc.kind == "level":
            regions.append(LevelRegion(base, desc.h))
        else:
            overrides.append((base, 3))
            stack += ((desc.right, base + (2,)), (desc.left, base + (1,)))


def descriptor_to_branch_config(desc: ConfigDescriptor) -> LazyTreeConfig:
    """Expand a descriptor into a branch-mode lazy configuration."""
    overrides: list[tuple[Address, int]] = []
    regions: list[LevelRegion] = []
    expand_descriptor(desc, (1,), overrides, regions)
    return LazyTreeConfig(d=3, default=3, mode="branch",
                          overrides=tuple(overrides), regions=tuple(regions))


def synthesize_tree(a: str) -> LazyTreeConfig:
    """A full-tree configuration realizing the word.

    The origin rotor starts at direction 3, so chip j enters branch
    j mod 3 (j = 1 entering branch 1); each branch carries the descriptor
    synthesized for its residue subsequence.  The three residues share
    one table of sub-word descriptors.
    """
    if not is_escape_tree(a):
        raise NotRealizableError(f"{a!r} has an invalid residue subsequence")
    overrides: list[tuple[Address, int]] = [((), 3)]
    regions: list[LevelRegion] = []
    memo: dict[str, ConfigDescriptor] = {}
    for j, r in enumerate(residues(a), start=1):
        expand_descriptor(_synthesize(r, memo), (j,), overrides, regions)
    return LazyTreeConfig(d=3, default=3, mode="tree",
                          overrides=tuple(overrides), regions=tuple(regions))


def simulate_branch(desc: ConfigDescriptor, m: int) -> str:
    """Realized escape word of a descriptor for m chips."""
    return run_chips_infinite(descriptor_to_branch_config(desc), m).word
