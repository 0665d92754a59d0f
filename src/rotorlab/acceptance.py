"""The acceptance suite: every headline result checked bit-exactly.

Each criterion function returns a CriterionResult; run_all executes the
whole battery.  All checks are deterministic (fixed seeds) and exact: no
floating point, no tolerances.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from rotorlab.escape import (
    ConfigDescriptor,
    NotRealizableError,
    is_escape_branch,
    phi,
    psi,
    satisfies_all,
    satisfies_pk,
    simulate_branch,
    synthesize_branch,
    synthesize_tree,
)
from rotorlab.graph import spanning_tree_count
from rotorlab.group import order_of_generator, verify_isomorphism
from rotorlab.lazytree import (
    aggregate,
    ball_size,
    alternating_tree_config,
    random_acyclic_config,
    run_chips_infinite,
    uniform_config,
)
from rotorlab.sampling import random_multigraph
from rotorlab.trees import (
    _exit_measure,
    alternation_experiment,
    build_hat_tree,
    build_wired_tree,
    hitting_probabilities,
    random_acyclic_tree_config,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    details: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return (f"[{mark}] criterion {self.number}: {self.name} "
                f"({self.seconds:.2f}s) {self.details}")


def _timed(number: int, name: str, fn) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        ok, details = fn()
    except Exception as exc:        # a crash is a failure with its reason
        ok, details = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(number, name, ok, details, time.perf_counter() - t0)


def criterion_1_perfect_ball() -> CriterionResult:
    """Aggregation fills exact balls at b_rho and stays sandwiched between."""
    def run():
        cases = [(3, 6), (4, 4)]
        checked = 0
        for d, rho_max in cases:
            rng = random.Random(100 + d)
            for i in range(20):
                cfg = random_acyclic_config(d, rng)
                res = aggregate(cfg, ball_size(d, rho_max))
                if not res.is_exact_ball(rho_max):
                    return False, f"d={d} config {i}: final ball wrong"
                if {r for r, _ in res.ball_checks} != set(range(rho_max + 1)):
                    return False, f"d={d} config {i}: missing ball checkpoints"
                if not all(ok for _, ok in res.ball_checks):
                    return False, f"d={d} config {i}: intermediate ball wrong"
                if not res.sandwich_ok:
                    return False, f"d={d} config {i}: sandwich violated"
                checked += 1
        return True, f"{checked} random acyclic configs, d=3 rho<=6, d=4 rho<=4"
    return _timed(1, "perfect ball growth", run)


def criterion_2_exit_measure() -> CriterionResult:
    """One chip per leaf, the closed-form count at o, rotors restored."""
    def run():
        total = 0
        for d in (3, 4, 5):
            for n in range(2, 7):
                rng = random.Random(1000 * d + n)
                g, info = build_hat_tree(d, n)
                for _ in range(50):
                    res = _exit_measure(
                        g, info, random_acyclic_tree_config(g, info, rng))
                    if not res.ok:
                        return False, f"failed at d={d} n={n}"
                    total += 1
        return True, f"{total} runs over d in 3..5, n in 2..6"
    return _timed(2, "exit measure", run)


def criterion_3_root_order() -> CriterionResult:
    """The root of the wired tree has order (a^n - 1)/(a - 1)."""
    def run():
        for d in (3, 4, 5):
            a = d - 1
            for n in (2, 3, 4):
                g, _ = build_wired_tree(d, n)
                want = (a ** n - 1) // (a - 1)
                got = order_of_generator(g, "r", verify_witnesses=3,
                                         rng=random.Random(d * 10 + n))
                if got != want:
                    return False, f"d={d} n={n}: order {got} != {want}"
        return True, "orders match for d in 3..5, n in 2..4 (e.g. 7 at d=3 n=3)"
    return _timed(3, "wired-tree root order", run)


def criterion_4_isomorphism() -> CriterionResult:
    """Rotor-router group and sandpile group agree on small graphs."""
    def run():
        g, _ = build_wired_tree(3, 2)
        rep = verify_isomorphism(g)
        if not rep.ok:
            return False, f"wired tree failed: {rep.to_json()}"
        rng = random.Random(42)
        for i in range(20):
            h = random_multigraph(rng, rng.randrange(3, 6))
            rep = verify_isomorphism(h)
            if not rep.ok:
                return False, f"random graph {i} failed: {rep.to_json()}"
            if rep.rec_count != spanning_tree_count(h):
                return False, f"random graph {i}: tree count mismatch"
        return True, "wired tree + 20 random multigraphs, all checks"
    return _timed(4, "group isomorphism", run)


def criterion_5_hitting_probabilities() -> CriterionResult:
    """Exact rational solve equals the closed forms."""
    def run():
        for d in (3, 4, 5):
            a = d - 1
            for n in range(2, 9):
                probs, h_r = hitting_probabilities(d, n, verify=False)
                if probs["o"] != Fraction(a ** (n - 1) - 1, a ** n - 1):
                    return False, f"d={d} n={n}: P(o) wrong"
                if h_r != Fraction(a - 1, a ** n - 1):
                    return False, f"d={d} n={n}: H(r) wrong"
                if sum(probs.values()) != 1:
                    return False, f"d={d} n={n}: probabilities do not sum to 1"
        return True, "closed forms match for d in 3..5, n in 2..8"
    return _timed(5, "hitting probabilities", run)


def criterion_6_alternation() -> CriterionResult:
    """2^n - 1 chips alternate b, o, ..., b and restore the rotors."""
    def run():
        for n in range(2, 13):
            res = alternation_experiment(n)
            if not res.pattern_ok:
                return False, f"n={n}: stop pattern wrong"
            if not res.rotors_restored:
                return False, f"n={n}: rotors not restored"
        return True, "n in 2..12, up to 4095 chips, restored bit-exactly"
    return _timed(6, "ternary alternation", run)


def criterion_7_extremal_configs() -> CriterionResult:
    """The alternating tree config and the all-(d-1) recurrent config."""
    def run():
        m = 10_000
        res = run_chips_infinite(alternating_tree_config(), m)
        if res.returns != m // 2:
            return False, f"R({m}) = {res.returns} != {m // 2}"
        returns = 0
        for j, ch in enumerate(res.word, start=1):
            returns += ch == "0"
            if abs(j - 2 * returns) > 1:           # |j/2 - R| > 1/2
                return False, f"|E - R| > 1/2 at prefix {j}"
        for d in (3, 4):
            mm = 1000
            rr = run_chips_infinite(uniform_config(d, d - 1), mm)
            if rr.word != "0" * mm:
                return False, f"d={d}: some chip escaped"
            for n, depth in enumerate(rr.depths, start=1):
                if depth is None:
                    return False, f"d={d}: chip {n} has no returning depth"
                if depth > n:
                    return False, f"d={d}: chip {n} reached depth {depth}"
        return True, "R(10^4)=5000 with |E-R|<=1/2 everywhere; all-(d-1) returns"
    return _timed(7, "extremal configurations", run)


def _all_words(max_len: int):
    for n in range(max_len + 1):
        for bits in range(2 ** n):
            yield format(bits, f"0{n}b") if n else ""


def descriptor_word_closure() -> tuple[set[str], int]:
    """Realized length-8 words of every bounded-depth descriptor.

    The word a Node realizes is a function of the realized words of its two
    children, so the closure over semantic representatives enumerates the
    realized words of all descriptors of any bounded recursion depth.  Level
    rules above h = 8 realize the same 8-chip prefix as h = 8.
    """
    reps: dict[str, ConfigDescriptor] = {}
    for h in range(9):
        desc = ConfigDescriptor.level(h)
        reps.setdefault(simulate_branch(desc, 8), desc)
    done: set[tuple[str, str]] = set()
    depth = 0
    while True:
        depth += 1
        new: dict[str, ConfigDescriptor] = {}
        items = sorted(reps.items())
        for wl, dl in items:
            for wr, dr in items:
                if (wl, wr) in done:
                    continue
                done.add((wl, wr))
                node = ConfigDescriptor.node(dl, dr)
                w = simulate_branch(node, 8)
                if w not in reps and w not in new:
                    new[w] = node
        if not new:
            return set(reps), depth
        reps.update(new)


def random_valid_word(rng: random.Random, n: int, stride: int = 1) -> str:
    """A seeded valid word: each bit is 1 with probability 0.55 unless that
    breaks a window of some residue class mod stride (1: a branch word, 3:
    a full-tree word)."""
    out = ""
    for _ in range(n):
        w = out + "1"
        ok = rng.random() < 0.55 and all(satisfies_all(w[r::stride])
                                         for r in range(stride))
        out = w if ok else out + "0"
    return out


def criterion_8_escape_characterization() -> CriterionResult:
    """Branch words are exactly the window-condition words; synthesis works."""
    def run():
        # (a) exhaustive round trip for every word of length <= 10
        for a in _all_words(10):
            valid = is_escape_branch(a)
            if valid:
                if simulate_branch(synthesize_branch(a), len(a)) != a:
                    return False, f"round trip failed for {a!r}"
            else:
                try:
                    synthesize_branch(a)
                    return False, f"synthesized invalid word {a!r}"
                except NotRealizableError:
                    pass
        # (b) brute-force oracle: bounded-depth descriptors realize exactly
        # the window-valid length-8 words
        realized, depth = descriptor_word_closure()
        valid8 = {w for w in _all_words(8) if len(w) == 8 and satisfies_all(w)}
        if realized != valid8:
            extra = sorted(realized - valid8)[:3]
            missing = sorted(valid8 - realized)[:3]
            return False, f"oracle mismatch: extra={extra} missing={missing}"
        # (c) long random words round-trip on the branch and the full tree
        rng = random.Random(7)
        for i in range(200):
            a = random_valid_word(rng, 100)
            if simulate_branch(synthesize_branch(a), 100) != a:
                return False, f"branch round trip failed at long word {i}"
            b = random_valid_word(rng, 100, stride=3)
            if run_chips_infinite(synthesize_tree(b), 100).word != b:
                return False, f"tree round trip failed at long word {i}"
        return True, (f"exhaustive |a|<=10; oracle {len(valid8)} words at "
                      f"closure depth {depth}; 200 words of length 100 on "
                      "branch and tree")
    return _timed(8, "escape characterization", run)


def criterion_9_word_calculus() -> CriterionResult:
    """phi inverts psi up to a trailing zero; psi maps (P_k) into (P_{k-1})."""
    def run():
        count = 0
        for a in _all_words(14):
            if "111" in a:
                continue
            c, d = psi(a)
            back = phi(c, d)
            if back != a and back != a + "0":
                return False, f"phi(psi({a!r})) = {back!r}"
            k = 2
            while 2 ** k - 1 <= len(a):
                if satisfies_pk(a, k):
                    if not (satisfies_pk(c, k - 1) and satisfies_pk(d, k - 1)):
                        return False, f"psi broke (P_{k-1}) on {a!r}"
                k += 1
            count += 1
        return True, f"{count} factorable words of length <= 14"
    return _timed(9, "word calculus", run)


ALL_CRITERIA = [
    criterion_1_perfect_ball,
    criterion_2_exit_measure,
    criterion_3_root_order,
    criterion_4_isomorphism,
    criterion_5_hitting_probabilities,
    criterion_6_alternation,
    criterion_7_extremal_configs,
    criterion_8_escape_characterization,
    criterion_9_word_calculus,
]


def run_all() -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        print(res.line(), flush=True)
    return results
