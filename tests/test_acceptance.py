"""Acceptance suite: one test per criterion, each printing its verdict line."""

from rotorlab import acceptance


def _check(result):
    print()
    print(result.line())
    assert result.ok, result.details


def test_criterion_1_perfect_ball():
    _check(acceptance.criterion_1_perfect_ball())


def test_criterion_2_exit_measure():
    _check(acceptance.criterion_2_exit_measure())


def test_criterion_3_root_order():
    _check(acceptance.criterion_3_root_order())


def test_criterion_4_isomorphism():
    _check(acceptance.criterion_4_isomorphism())


def test_criterion_5_hitting_probabilities():
    _check(acceptance.criterion_5_hitting_probabilities())


def test_criterion_6_alternation():
    _check(acceptance.criterion_6_alternation())


def test_criterion_7_extremal_configs():
    _check(acceptance.criterion_7_extremal_configs())


def test_criterion_8_escape_characterization():
    _check(acceptance.criterion_8_escape_characterization())


def test_criterion_9_word_calculus():
    _check(acceptance.criterion_9_word_calculus())


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
