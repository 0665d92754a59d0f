"""Acceptance suite: one test per criterion, each printing its verdict line
and pinning its details."""

from rotorlab import acceptance


def _check(result, details):
    print()
    print(result.line())
    assert result.ok, result.details
    assert result.details == details


def test_criterion_1_perfect_ball():
    _check(acceptance.criterion_1_perfect_ball(),
           "40 random acyclic configs, d=3 rho<=6, d=4 rho<=4")


def test_criterion_2_exit_measure():
    _check(acceptance.criterion_2_exit_measure(),
           "750 runs over d in 3..5, n in 2..6")


def test_criterion_3_root_order():
    _check(acceptance.criterion_3_root_order(),
           "orders match for d in 3..5, n in 2..4 (e.g. 7 at d=3 n=3)")


def test_criterion_4_isomorphism():
    _check(acceptance.criterion_4_isomorphism(),
           "wired tree + 20 random multigraphs, all checks")


def test_criterion_5_hitting_probabilities():
    _check(acceptance.criterion_5_hitting_probabilities(),
           "closed forms match for d in 3..5, n in 2..8")


def test_criterion_6_alternation():
    _check(acceptance.criterion_6_alternation(),
           "n in 2..12, up to 4095 chips, restored bit-exactly")


def test_criterion_7_extremal_configs():
    _check(acceptance.criterion_7_extremal_configs(),
           "R(10^4)=5000 with |E-R|<=1/2 everywhere; all-(d-1) returns")


def test_criterion_8_escape_characterization():
    _check(acceptance.criterion_8_escape_characterization(),
           "exhaustive |a|<=10; oracle 142 words at closure depth 8; "
           "200 words of length 100 on branch and tree")


def test_criterion_9_word_calculus():
    _check(acceptance.criterion_9_word_calculus(),
           "12639 factorable words of length <= 14")


def test_criterion_7_fails_on_a_missing_depth(monkeypatch):
    # a run whose word says every chip returned but one depth is None (as
    # for an escaped chip) fails with a verdict, not with a TypeError
    real = acceptance.run_chips_infinite

    def run(cfg, m, **kw):
        res = real(cfg, m, **kw)
        if cfg.default == cfg.d - 1:
            res.depths[5] = None
        return res

    monkeypatch.setattr(acceptance, "run_chips_infinite", run)
    result = acceptance.criterion_7_extremal_configs()
    assert not result.ok
    assert result.details == "d=3: chip 6 has no returning depth"


def test_criterion_7_fails_on_a_prefix_past_the_bound(monkeypatch):
    # m/2 returns in all, but the prefix 00 has E - R = -2
    real = acceptance.run_chips_infinite

    def run(cfg, m, **kw):
        res = real(cfg, m, **kw)
        if cfg.rays:                    # the alternating configuration
            assert res.word.startswith("1010")
            res.word = "0011" + res.word[4:]
        return res

    monkeypatch.setattr(acceptance, "run_chips_infinite", run)
    result = acceptance.criterion_7_extremal_configs()
    assert not result.ok
    assert result.details == "|E - R| > 1/2 at prefix 2"
