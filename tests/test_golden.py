"""Recorded outputs: the engine's results may not move by one bit.

The digests were recorded at commit 261f17e ("One chart kernel for the
engine and trace"), before the engine decoded in slices. A change that
moves any of them changes what a fixed seed produces, which the randomness
contract forbids; a refactor or speed-up must leave them all in place.

The ``aibmon calibrate`` lines were recorded at commit 4d9a6e0, before the
Markov solve was restructured; they cover the benchmark's calibration grid.
"""

import dataclasses
import hashlib
import json

import pytest

from aibmon import cli
from aibmon import (
    ChartKind,
    ProcessModel,
    ShiftMode,
    ShiftScenario,
    SimulationConfig,
    make_limits,
    trace,
)
from aibmon.runlength import simulate_run_lengths


def _config(n, chart, rho, scenario, reps, seed, rl_cap=10_000_000):
    model = ProcessModel(0.3, -0.2, 1.2, 0.8, rho=rho, n=n)
    if chart == "shewhart":
        spec = make_limits(ChartKind.SHEWHART, 1.0, 2.807, model)
    else:
        spec = make_limits(ChartKind.EWMA, 0.1, 2.454, model)
    return SimulationConfig(model, scenario, spec, reps=reps, master_seed=seed,
                            rl_cap=rl_cap)


CASES = {
    "n1_shewhart_dx1": _config(
        1, "shewhart", 0.5, ShiftScenario(delta_x=1.0), reps=2000, seed=0),
    "n3_ewma_in_control": _config(
        3, "ewma", 0.0, ShiftScenario(), reps=300, seed=4),
    "n3_ewma_cp5": _config(
        3, "ewma", 0.55, ShiftScenario(delta_y=1.0, changepoint=5), reps=600, seed=11),
    "n1_ewma_cp70": _config(
        1, "ewma", 0.3, ShiftScenario(delta_y=0.8, delta_x=-0.4, changepoint=70),
        reps=600, seed=3),
    "n3_shewhart_masking_cp25": _config(
        3, "shewhart", 0.75,
        ShiftScenario(delta_y=2.0, mode=ShiftMode.MASKING, changepoint=25),
        reps=600, seed=5),
    "n1_ewma_seed_above_2_40": _config(
        1, "ewma", -0.4, ShiftScenario(delta_y=0.5), reps=800, seed=2**40 + 1),
    "n3_shewhart_seed_above_2_40": _config(
        3, "shewhart", 0.25, ShiftScenario(delta_x=1.5, changepoint=3),
        reps=800, seed=2**40 + 1),
    "n1_ewma_censored_cap50": _config(
        1, "ewma", 0.5, ShiftScenario(), reps=500, seed=9, rl_cap=50),
}

RUN_LENGTH_DIGESTS = {
    "n1_shewhart_dx1":
        "d5cfe558573543e7649525ddfae192837eaa6fdbbca53388c3e9d3f895fdee53",
    "n3_ewma_in_control":
        "e16e2545e621b879e706fb4b7f94a2035933c20892859439206aa7b64df47aa5",
    "n3_ewma_cp5":
        "fd8a5d64da2a146d878d9dde7e3b3b766ef086b9c0748d0e2597638e1546b723",
    "n1_ewma_cp70":
        "4d9fc730366324d375fe99d18df403e4d6dae247b09d7bd65236c242ad272279",
    "n3_shewhart_masking_cp25":
        "953e57dcf3c63f00d4a087fa3cdec34e40bfb9fd8ef96795be2d9ed5527f3e47",
    "n1_ewma_seed_above_2_40":
        "01da5eaffabfde55fcaf6916a06b4e5bb668e9fe67211bc70e45d3bcd086950b",
    "n3_shewhart_seed_above_2_40":
        "a4b39d54d46ee7276add6c401858a42a45770b33be9caa90dc7958632591ff1a",
    "n1_ewma_censored_cap50":
        "18517cd6d0ac0ff9fdbc4bcf78e520e28e69fdf0102cd41359b444e0a015fc37",
}

TRACE_DIGESTS = {
    "n1_shewhart_dx1":
        "9f56c5d160345629f50cd3649b9fe954553583c99ee4a76f37ec94a4a37fd9aa",
    "n3_ewma_in_control":
        "0a109194f8d2f04f8f469c02a303178134ef447e14101d855e4e2394be564d96",
    "n3_ewma_cp5":
        "da405d1ef6d512277235c07f432cae047b00910932ab1a4e4d956fa71ac8988b",
    "n1_ewma_cp70":
        "38da8578cf1bbfa6696e6c2cbb93762d28785ab0573b0b211bfe4fbf994d1ee5",
    "n3_shewhart_masking_cp25":
        "4caa6cafbb09d30c735665c1656fb464ed8c85155baf19b88ac2c4cd06fd67e6",
    "n1_ewma_seed_above_2_40":
        "95cc18366b048fd1d6cd2869f990480cceb0f1b4a63102173775554e918eed31",
    "n3_shewhart_seed_above_2_40":
        "3419198696f4c2bd9a53d4e348601dd383001deb922368407f7fc38978297046",
    "n1_ewma_censored_cap50":
        "61f55f1a5ff55283f6ad1be9df025afe9af919bf051d1f1cbbc889d42049b1ff",
}


def run_length_digest(config):
    return hashlib.sha256(simulate_run_lengths(config).tobytes()).hexdigest()


def trace_digest(config):
    # json writes floats by repr, which round-trips every bit.
    points = trace(config, 3, 150)
    doc = json.dumps([dataclasses.astuple(p) for p in points])
    return hashlib.sha256(doc.encode()).hexdigest()


def test_cases_cover_a_censored_run():
    rl = simulate_run_lengths(CASES["n1_ewma_censored_cap50"])
    assert (rl == 50).any() and (rl < 50).any()


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_lengths_match_recorded_digest(name):
    assert run_length_digest(CASES[name]) == RUN_LENGTH_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_recorded_digest(name):
    assert trace_digest(CASES[name]) == TRACE_DIGESTS[name]


CALIBRATE_LINES = {
    ("0.05", "100"): "L 1.878664 method markov achieved_arl0 100.000",
    ("0.05", "200"): "L 2.215761 method markov achieved_arl0 200.000",
    ("0.05", "370"): "L 2.489807 method markov achieved_arl0 370.000",
    ("0.05", "500"): "L 2.615197 method markov achieved_arl0 500.000",
    ("0.05", "1000"): "L 2.883953 method markov achieved_arl0 1000.000",
    ("0.1", "100"): "L 2.147603 method markov achieved_arl0 100.000",
    ("0.1", "200"): "L 2.454061 method markov achieved_arl0 200.000",
    ("0.1", "370"): "L 2.701116 method markov achieved_arl0 370.000",
    ("0.1", "500"): "L 2.814391 method markov achieved_arl0 500.000",
    ("0.1", "1000"): "L 3.058674 method markov achieved_arl0 1000.000",
    ("0.2", "100"): "L 2.359569 method markov achieved_arl0 100.000",
    ("0.2", "200"): "L 2.635402 method markov achieved_arl0 200.000",
    ("0.2", "370"): "L 2.858996 method markov achieved_arl0 370.000",
    ("0.2", "500"): "L 2.962218 method markov achieved_arl0 500.000",
    ("0.2", "1000"): "L 3.186638 method markov achieved_arl0 1000.000",
    ("0.5", "100"): "L 2.534033 method markov achieved_arl0 100.000",
    ("0.5", "200"): "L 2.777169 method markov achieved_arl0 200.000",
    ("0.5", "370"): "L 2.977513 method markov achieved_arl0 370.000",
    ("0.5", "500"): "L 3.071067 method markov achieved_arl0 500.000",
    ("0.5", "1000"): "L 3.276752 method markov achieved_arl0 1000.000",
}

SHEWHART_CALIBRATE_LINE = "L 2.807034 method analytic achieved_arl0 200.000"


def calibrate_stdout(capsys, *argv):
    assert cli.main(["calibrate", *argv]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("lam, target", sorted(CALIBRATE_LINES))
def test_ewma_calibrate_prints_recorded_line(capsys, lam, target):
    out = calibrate_stdout(capsys, "--chart", "ewma", "--lambda", lam,
                           "--target-arl0", target)
    assert out == CALIBRATE_LINES[lam, target] + "\n"


def test_shewhart_calibrate_prints_recorded_line(capsys):
    out = calibrate_stdout(capsys, "--chart", "shewhart", "--target-arl0", "200")
    assert out == SHEWHART_CALIBRATE_LINE + "\n"
