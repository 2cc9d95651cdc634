import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aibmon import cli, oracles, runlength
from aibmon.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ simulate


def test_simulate_shewhart_in_control(tmp_path, capsys):
    out = tmp_path / "summary.csv"
    code, stdout, _ = run(
        capsys,
        "simulate", "--chart", "shewhart", "--L", "2.807",
        "--reps", "2000", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    assert stdout.startswith("ARL ")
    lines = out.read_text().splitlines()
    assert lines[0] == "arl,sdrl,se_arl,reps,censored,p5,p25,p50,p75,p95"
    assert lines[1].split(",")[3] == "2000"


def test_simulate_json_output(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code, _, _ = run(
        capsys,
        "simulate", "--chart", "ewma", "--lambda", "0.1", "--L", "2.454",
        "--rho", "0.5", "--delta-x", "1", "--reps", "1000", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"arl", "sdrl", "se_arl", "reps", "censored", "percentiles"}
    assert doc["reps"] == 1000


def test_simulate_auto_calibration(capsys):
    code, stdout, _ = run(
        capsys,
        "simulate", "--chart", "shewhart", "--target-arl0", "200",
        "--reps", "2000", "--seed", "3",
    )
    assert code == 0
    arl = float(stdout.split()[1])
    assert 170 < arl < 230  # 2000-rep noise around 200


def test_simulate_same_flags_same_bytes(tmp_path, capsys):
    argv = [
        "simulate", "--chart", "ewma", "--lambda", "0.2", "--L", "2.636",
        "--rho", "0.25", "--delta-y", "0.5", "--reps", "1500", "--seed", "11",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b), "--threads", "4"]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "flags",
    [["--delta-y", "nan"], ["--delta-x", "inf"], ["--L", "inf"], ["--L", "nan"],
     ["--mu-y0", "nan"], ["--mu-x0=-inf"], ["--sigma-y", "inf"],
     ["--sigma-x", "10", "--delta-x", "1e308", "--rho", "0"],
     ["--mode", "masking", "--delta-y", "1e300", "--rho", "1e-10"]],
)
def test_simulate_rejects_non_finite_parameters(capsys, monkeypatch, flags):
    # Rejected up front: a chart that can never signal would otherwise burn
    # rl_cap subgroups per replication and then exit 3.
    monkeypatch.setattr(cli, "estimate_runlength", _study_must_not_run)
    code, _, err = run(
        capsys, "simulate", "--chart", "ewma", "--L", "2.454", "--rho", "0.5",
        "--reps", "20", "--rl-cap", "1000", *flags,
    )
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_simulate_rejects_seed_outside_64_bits(capsys, seed):
    code, _, err = run(
        capsys, "simulate", "--chart", "shewhart", "--L", "2.807",
        "--reps", "20", "--seed", seed,
    )
    assert code == 2
    assert "master_seed" in err


def test_simulate_rejects_masking_with_zero_rho(capsys):
    code, _, err = run(
        capsys,
        "simulate", "--chart", "shewhart", "--L", "2.807",
        "--mode", "masking", "--delta-y", "1", "--rho", "0", "--reps", "100",
    )
    assert code == 2
    assert err == "error: masking-coupled shift undefined at beta = 0 (rho = 0.0)\n"


def test_simulate_rejects_masking_with_an_x_shift(capsys, monkeypatch):
    monkeypatch.setattr(cli, "estimate_runlength", _study_must_not_run)
    code, out, err = run(
        capsys, "simulate", "--chart", "ewma", "--L", "2.454", "--rho", "0.5",
        "--mode", "masking", "--delta-y", "1", "--delta-x", "1", "--reps", "10",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: delta_x must be 0 in masking mode, where the X shift is derived "
        "from delta_y, got 1.0\n"
    )


def test_simulate_rejects_lambda_outside_unit_interval(capsys):
    code, out, err = run(capsys, "simulate", "--chart", "ewma", "--lambda", "0",
                         "--L", "2.454", "--reps", "100")
    assert (code, out) == (2, "")
    assert err == "error: lambda must be in (0, 1], got 0.0\n"


def test_simulate_requires_exactly_one_limit_source(capsys):
    base = ["simulate", "--chart", "shewhart", "--reps", "100"]
    assert run(capsys, *base)[0] == 2
    assert run(capsys, *base, "--L", "2.8", "--target-arl0", "200")[0] == 2


def test_simulate_requires_chart(capsys):
    assert run(capsys, "simulate", "--L", "2.807", "--reps", "100")[0] == 2


def test_simulate_exit_3_on_excess_censoring(capsys):
    code, _, err = run(
        capsys,
        "simulate", "--chart", "shewhart", "--L", "2.807",
        "--reps", "400", "--rl-cap", "50",
    )
    assert code == 3
    assert "cap" in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--chart", "shewhart", "--L", "2.8", "--bogus", "1"])
    assert exc.value.code == 2


# -------------------------------------------------------------- config file


def test_config_file_drives_simulation(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "chart": "shewhart", "L": 2.807, "rho": 0.0,
        "reps": 1500, "seed": 7, "out": str(tmp_path / "from_config.csv"),
    }))
    code, _, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    flag_out = tmp_path / "from_flags.csv"
    run(capsys, "simulate", "--chart", "shewhart", "--L", "2.807",
        "--reps", "1500", "--seed", "7", "--out", str(flag_out))
    assert (tmp_path / "from_config.csv").read_bytes() == flag_out.read_bytes()


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"chart": "shewhart", "L": 2.807, "reps": 1500, "seed": 7}))
    ref = tmp_path / "ref.csv"
    over = tmp_path / "override.csv"
    run(capsys, "simulate", "--chart", "shewhart", "--L", "2.807",
        "--reps", "500", "--seed", "7", "--out", str(ref))
    code, _, _ = run(capsys, "simulate", "--config", str(cfg),
                     "--reps", "500", "--out", str(over))
    assert code == 0
    assert over.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize(
    "key, value", [("n", 2.5), ("reps", 200.9), ("seed", 7.5), ("changepoint", True),
                   ("rl_cap", "100"), ("seed", None)]
)
def test_config_rejects_non_integer_counts(tmp_path, capsys, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"chart": "shewhart", "L": 2.807, "reps": 200,
                               "rl_cap": 100, key: value}))
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert key in err


@pytest.mark.parametrize(
    "key, value", [("rho", None), ("delta_x", [1]), ("sigma_y", True),
                   ("L", {"value": 2.807}), ("lambda", "0.1"),
                   ("mode", 1), ("out", ["a.csv"])]
)
def test_config_rejects_values_of_the_wrong_type(tmp_path, capsys, key, value):
    doc = {"chart": "ewma", "L": 2.454, "reps": 100, "rl_cap": 100}
    doc[key] = value
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert key in err


def test_config_rejects_integer_too_large_for_a_float(tmp_path, capsys):
    # json.load accepts it; float() of it raises OverflowError.
    cfg = tmp_path / "run.json"
    cfg.write_text('{"chart": "shewhart", "reps": 10, "L": 1' + "0" * 400 + "}")
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert err == "error: config key 'L' is too large for a float\n"


@pytest.mark.parametrize(
    "flags", [["--rl-cap", "20000000000000000000"], ["--changepoint", "20000000000000000000"],
              ["--rl-cap", str(2**63)], ["--changepoint", str(2**63 - 10**7)]]
)
def test_simulate_rejects_counts_beyond_int64(capsys, flags):
    code, out, err = run(capsys, "simulate", "--chart", "shewhart", "--L", "2.807",
                         "--reps", "10", "--threads", "1", *flags)
    assert code == 2 and out == ""
    assert "rl_cap must be <= 9223372036854775807" in err


def _engine_must_not_start(config, rep_indices):
    raise AssertionError("the engine started")


def test_simulate_rejects_changepoint_beyond_rl_cap(capsys, monkeypatch):
    # Rejected up front, not after 10**12 in-control subgroups per replication.
    monkeypatch.setattr(runlength, "_chunk_run_lengths", _engine_must_not_start)
    code, out, err = run(capsys, "simulate", "--chart", "shewhart", "--L", "2.807",
                         "--reps", "10", "--threads", "1", "--changepoint", str(10**12))
    assert code == 2 and out == ""
    assert err == f"error: changepoint must be <= rl_cap, got {10**12} > 10000000\n"


def _study_must_not_run(*args, **kwargs):
    raise AssertionError("the study ran")


def test_simulate_refuses_unwritable_out_before_the_study(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "estimate_runlength", _study_must_not_run)
    out = tmp_path / "missing" / "x.json"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out": str(out)}))
    for where, path in (
        (["--out", str(out)], out),
        (["--config", str(cfg)], out),
        (["--out", str(tmp_path)], tmp_path),  # a directory, not a file
    ):
        code, stdout, err = run(capsys, "simulate", "--chart", "ewma", "--L", "2.454",
                                "--rho", "0.5", "--reps", "2000", *where)
        assert code == 2 and stdout == ""
        assert str(path) in err


def test_config_accepts_integral_floats(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"chart": "shewhart", "L": 2.807, "reps": 500.0,
                               "seed": 7, "rl_cap": 1e7, "out": str(tmp_path / "a.csv")}))
    assert run(capsys, "simulate", "--config", str(cfg))[0] == 0
    assert (tmp_path / "a.csv").read_text().splitlines()[1].split(",")[3] == "500"


def test_unknown_config_key_rejected(tmp_path, capsys):
    # --threads and --config are flags only: neither is a config key.
    cfg = tmp_path / "run.json"
    for key in ("repz", "threads", "config"):
        cfg.write_text(json.dumps({"chart": "shewhart", "L": 2.807, key: 10}))
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert err == f"error: unknown config keys: ['{key}']\n"


# Every simulate flag with a non-default value, keyed as in a config file.
_KEY_VALUES = [
    ("chart", "shewhart"), ("lambda", 0.25), ("L", 2.7), ("target_arl0", 100.0),
    ("rho", 0.25), ("n", 3), ("mu_y0", 1.5), ("mu_x0", -2.0), ("sigma_y", 2.0),
    ("sigma_x", 0.5), ("delta_y", 0.75), ("delta_x", 1.0), ("mode", "masking"),
    ("changepoint", 5), ("reps", 250), ("seed", 9), ("rl_cap", 5000),
    ("out", "from_key.csv"),
]


def test_key_values_cover_every_config_key():
    _, sim = cli._build_parser()
    flags = {a.option_strings[-1] for a in sim._actions} - {"--help", "--config",
                                                           "--threads"}
    assert {"--" + key.replace("_", "-") for key, _ in _KEY_VALUES} == flags


@pytest.mark.parametrize("key, value", _KEY_VALUES)
def test_every_config_key_drives_the_same_run_as_its_flag(
    tmp_path, capsys, monkeypatch, key, value
):
    monkeypatch.chdir(tmp_path)
    base = {"chart": "ewma", "lambda": 0.2, "L": 2.6, "rho": 0.5, "delta_y": 1.0,
            "reps": 200, "seed": 3}
    base.pop(key, None)
    if key == "target_arl0":
        base.pop("L")
    base_flags = [f"--{k.replace('_', '-')}={v}" for k, v in base.items()]
    (tmp_path / "run.json").write_text(json.dumps({key: value}))
    # The study itself is compared too: mu_y0 and sigma_x leave the
    # standardized statistic, and so the output bytes, unchanged.
    studies = []
    estimate = cli.estimate_runlength

    def spy(config, threads=1):
        studies.append(config)
        return estimate(config, threads=threads)

    monkeypatch.setattr(cli, "estimate_runlength", spy)

    def summary(*argv):
        path = tmp_path / (value if key == "out" else "summary.csv")
        out = [] if key == "out" else ["--out", str(path)]
        assert main(["simulate", *base_flags, *argv, *out]) == 0
        data = path.read_bytes()
        path.unlink()
        return data

    from_config = summary("--config", "run.json")
    from_flag = summary(f"--{key.replace('_', '-')}={value}")
    capsys.readouterr()
    assert from_config == from_flag
    assert studies[0] == studies[1]


# ----------------------------------------------------------------- calibrate


def test_calibrate_shewhart(capsys):
    code, stdout, _ = run(capsys, "calibrate", "--chart", "shewhart",
                          "--target-arl0", "200")
    assert code == 0
    fields = stdout.split()
    assert fields[0] == "L"
    assert float(fields[1]) == pytest.approx(2.807, abs=1e-3)
    assert "analytic" in stdout


def test_calibrate_shewhart_ignores_lambda(capsys):
    # Shewhart is the lambda = 1 chart; a given --lambda does not change it.
    _, plain, _ = run(capsys, "calibrate", "--chart", "shewhart", "--target-arl0", "200")
    code, with_lam, _ = run(capsys, "calibrate", "--chart", "shewhart",
                            "--lambda", "0.3", "--target-arl0", "200")
    assert code == 0 and with_lam == plain


def test_calibrate_ewma(capsys):
    code, stdout, _ = run(capsys, "calibrate", "--chart", "ewma",
                          "--lambda", "0.05", "--target-arl0", "200")
    assert code == 0
    assert float(stdout.split()[1]) == pytest.approx(2.216, abs=0.02)
    assert "markov" in stdout
    achieved = float(stdout.split()[-1])
    assert achieved == pytest.approx(200.0, abs=0.1)


def test_calibrate_solves_each_limit_once(capsys, monkeypatch):
    # The printed achieved ARL is the one solved during calibration.
    solved = []
    markov = oracles.ewma_arl_markov

    def counting(lam, L, s, n_states=401):
        solved.append(L)
        return markov(lam, L, s, n_states)

    monkeypatch.setattr(oracles, "ewma_arl_markov", counting)
    monkeypatch.setattr(cli, "ewma_arl_markov", counting)
    code, stdout, _ = run(capsys, "calibrate", "--chart", "ewma",
                          "--lambda", "0.1", "--target-arl0", "200")
    assert code == 0
    assert stdout == "L 2.454061 method markov achieved_arl0 200.000\n"
    assert len(solved) == len(set(solved))


def test_calibrate_prints_the_same_under_one_and_two_blas_threads():
    # The Markov solve need not round alike across BLAS thread counts, so
    # the raw L may differ in its last digits; the printed lines may not.
    # These are the 20 calibrations of bench/run.py's calibrate workload.
    code = (
        "import aibmon.cli\n"
        "for lam in ('0.05', '0.1', '0.2', '0.5'):\n"
        "    for target in ('100', '200', '370', '500', '1000'):\n"
        "        assert aibmon.cli.main(['calibrate', '--chart', 'ewma',"
        " '--lambda', lam, '--target-arl0', target]) == 0\n"
    )
    printed = []
    for threads in ("1", "2"):
        proc = fresh_python(code, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    assert len(printed[0].splitlines()) == 20
    assert printed[0] == printed[1]


def test_calibrate_rejects_unit_target(capsys):
    code, _, err = run(capsys, "calibrate", "--chart", "shewhart",
                       "--target-arl0", "1")
    assert code == 2
    assert "exceed 1" in err


@pytest.mark.parametrize("chart", ["shewhart", "ewma"])
@pytest.mark.parametrize("target", ["inf", "nan"])
def test_calibrate_rejects_non_finite_target(capsys, chart, target):
    code, stdout, err = run(capsys, "calibrate", "--chart", chart,
                            "--lambda", "0.1", "--target-arl0", target)
    assert code == 2
    assert stdout == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "lam, target, message",
    [("0.1", "1e300", "no L in (0, 10] reaches in-control ARL 1e+300 at lam=0.1"),
     ("0.01", "1.0001", "target in-control ARL 1.0001 already exceeded at L=0.001"),
     ("1.5", "200", "lambda must be in (0, 1], got 1.5")],
)
def test_calibrate_ewma_refusals_print_their_message(capsys, lam, target, message):
    code, out, err = run(capsys, "calibrate", "--chart", "ewma",
                         "--lambda", lam, "--target-arl0", target)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_calibrate_singular_system_exits_2_with_its_message(capsys, monkeypatch):
    def singular(kind, lam, target_arl0):
        raise oracles.SingularSystem("I - Q singular for lam=0.1, L=2.0")

    monkeypatch.setattr(cli, "calibrate_limit", singular)
    code, out, err = run(capsys, "calibrate", "--chart", "ewma",
                         "--lambda", "0.1", "--target-arl0", "200")
    assert (code, out) == (2, "")
    assert err == "error: I - Q singular for lam=0.1, L=2.0\n"


def test_calibrate_ewma_reaches_a_large_target(capsys):
    code, out, err = run(capsys, "calibrate", "--chart", "ewma",
                         "--lambda", "0.1", "--target-arl0", "1e8")
    assert (code, err) == (0, "")
    fields = out.split()
    assert fields[:5] == ["L", "5.693409", "method", "markov", "achieved_arl0"]
    assert float(fields[5]) == pytest.approx(1e8, rel=1e-3)


def test_calibrate_ewma_needs_lambda(capsys):
    code, _, _ = run(capsys, "calibrate", "--chart", "ewma",
                     "--target-arl0", "200")
    assert code == 2


# -------------------------------------------------------------------- table1


def test_table1_refuses_unwritable_out_before_the_study(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "reproduce_table1", _study_must_not_run)
    out = tmp_path / "missing" / "t.csv"
    code, stdout, err = run(capsys, "table1", "--reps", "50000", "--out", str(out))
    assert code == 2 and stdout == ""
    assert str(out) in err


# ----------------------------------------------------------------- mask-demo


def test_mask_demo_writes_csvs(tmp_path, capsys):
    out_dir = tmp_path / "new" / "demo"  # made by the command
    code, stdout, _ = run(
        capsys,
        "mask-demo", "--rho", "0.5", "--delta-y", "2",
        "--reps", "2000", "--seed", "0", "--out-dir", str(out_dir),
    )
    assert code == 0
    trace_lines = (out_dir / "trace.csv").read_text().splitlines()
    scatter_lines = (out_dir / "scatter.csv").read_text().splitlines()
    assert trace_lines[0] == "t,zbar_x,zbar_y,z,w,lcl,ucl,signal,regime"
    assert scatter_lines[0] == "t,x_bar,y_bar,regime"
    assert len(trace_lines) == 201 and len(scatter_lines) == 201
    assert stdout.startswith("signals 0 in 200 subgroups")
    assert "counterfactual ARL" in stdout


def test_mask_demo_rejects_trace_ending_before_the_shift(tmp_path, capsys):
    code, stdout, err = run(
        capsys,
        "mask-demo", "--rho", "0.5", "--delta-y", "1", "--changepoint", "300",
        "--n-subgroups", "10", "--out-dir", str(tmp_path),
    )
    assert code == 2
    assert stdout == ""
    assert "changepoint must be below n_subgroups, got 300 >= 10" in err
    assert list(tmp_path.iterdir()) == []


def test_mask_demo_refuses_unusable_out_dir_before_the_study(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "masking_demo", _study_must_not_run)
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "demo"
    code, stdout, err = run(capsys, "mask-demo", "--rho", "0.5", "--delta-y", "2",
                            "--out-dir", str(out_dir))
    assert code == 2 and stdout == ""
    assert str(out_dir) in err


@pytest.mark.parametrize("flags, message", [
    (["--rho", "0"], "beta = 0"),
    (["--rho", "0.5", "--changepoint", "300", "--n-subgroups", "10"], "changepoint"),
    (["--rho", "0.5", "--changepoint", "2", "--n-subgroups", "10", "--reps", "0"], "reps"),
])
def test_refused_mask_demo_creates_no_directory(tmp_path, capsys, flags, message):
    out_dir = tmp_path / "fresh" / "demo"
    code, stdout, err = run(capsys, "mask-demo", "--delta-y", "2", *flags,
                            "--out-dir", str(out_dir))
    assert code == 2 and stdout == ""
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_mask_demo_rejects_zero_rho(capsys):
    code, _, err = run(capsys, "mask-demo", "--rho", "0", "--delta-y", "2",
                       "--reps", "100")
    assert code == 2
    assert "rho" in err


# ------------------------------------------------------------- profile-equiv


def test_profile_equiv_passes(capsys):
    code, stdout, _ = run(capsys, "profile-equiv", "--trials", "500", "--seed", "1")
    assert code == 0
    assert "pass" in stdout


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_profile_equiv_rejects_no_trials(capsys, trials):
    code, stdout, err = run(capsys, "profile-equiv", "--trials", trials)
    assert code == 2
    assert "pass" not in stdout
    assert "trials" in err


def test_threads_default_to_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    parser, _ = cli._build_parser()
    for argv in (["simulate"], ["table1"], ["mask-demo", "--rho", "0.5", "--delta-y", "1"]):
        assert parser.parse_args(argv).threads == 3
        assert parser.parse_args(argv + ["--threads", "1"]).threads == 1


# ------------------------------------------------------------------- help


@pytest.mark.parametrize("cmd", ["simulate", "calibrate", "table1",
                                 "mask-demo", "profile-equiv"])
def test_help_available_for_each_subcommand(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--" in out


def test_simulate_help_documents_units_and_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    out = capsys.readouterr().out
    assert "standardized" in out
    assert "50,000" in out
    assert "200" in out


@pytest.mark.parametrize("flag", ["0", "-3", "abc"])
def test_threads_below_one_rejected(capsys, monkeypatch, flag):
    monkeypatch.setattr(cli, "estimate_runlength", _study_must_not_run)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--chart", "shewhart", "--L", "2.807", "--reps", "50",
              "--threads", flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threads" in captured.err and repr(flag) in captured.err


# ---------------------------------------------------------------- imports


def fresh_python(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the aibmon under test,
    with ``env`` added to its environment.

    A fresh one, because this test process has imported ``scipy.special``
    and ``scipy.optimize`` itself (the oracle tests use them as reference).
    """
    env = {**os.environ, **env, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


# What a process loads only once the engine runs: the extension that holds
# ndtri, the scipy package it brings in, and numpy.random.
ENGINE_CODE = ("scipy", "scipy.special._ufuncs", "numpy.random")


def test_cli_never_loads_scipy_optimize():
    # A calibration and a simulation run too, so a deferred import would
    # also be caught. "scipy.special" is the package: the loader in
    # stochastics takes ndtr and ndtri from its extensions alone, and ndtri
    # only once the engine runs.
    code = (
        "import json, sys, aibmon.cli\n"
        "names = ('scipy.optimize', 'scipy.linalg', 'scipy.special',"
        " 'scipy._lib._array_api') + tuple(sys.argv[1:])\n"
        "loaded = lambda: [m for m in names if m in sys.modules]\n"
        "seen = [loaded()]\n"
        "assert aibmon.cli.main(['calibrate', '--chart', 'ewma', '--lambda',"
        " '0.1', '--target-arl0', '200']) == 0\n"
        "seen.append(loaded())\n"
        "assert aibmon.cli.main(['simulate', '--chart', 'ewma', '--lambda', '0.1',"
        " '--L', '2.454', '--reps', '200', '--threads', '1']) == 0\n"
        "seen.append(loaded())\n"
        "print(json.dumps(seen))\n"
    )
    proc = fresh_python(code, *ENGINE_CODE)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "L 2.454061 method markov achieved_arl0 200.000"
    assert lines[1].startswith("ARL ")
    assert json.loads(lines[2]) == [[], [], list(ENGINE_CODE)]


def test_normal_ufuncs_load_without_scipy_special_package():
    # No skip when a file is missing: a scipy that moves ndtr out of
    # special/_special_ufuncs<suffix>, or ndtri out of special/_ufuncs<suffix>,
    # fails here instead of silently losing the fast path to the fallback.
    code = (
        "import importlib.machinery, importlib.util, json, os, sys\n"
        "import aibmon.cli\n"
        "from aibmon import stochastics\n"
        "heavy = ('scipy.special', 'scipy._lib._array_api', 'numpy.f2py')\n"
        "absent = lambda names: [m for m in names if m in sys.modules]\n"
        "after_import = absent(heavy + tuple(sys.argv[1:]))\n"
        "directory = os.path.join("
        "importlib.util.find_spec('scipy').submodule_search_locations[0], 'special')\n"
        "files = lambda stem: [os.path.join(directory, stem + s)"
        " for s in importlib.machinery.EXTENSION_SUFFIXES]\n"
        "special_ufuncs = sys.modules['scipy.special._special_ufuncs']\n"
        "ndtri = stochastics.load_engine_code()\n"
        "after_first_use = absent(heavy)\n"
        "ufuncs = sys.modules['scipy.special._ufuncs']\n"
        "import scipy.special, scipy.optimize\n"
        "print(json.dumps({\n"
        "    'absent_after_import': after_import,\n"
        "    'absent_after_first_use': after_first_use,\n"
        "    'ndtr_from_suffixed_file': special_ufuncs.__file__ in files('_special_ufuncs'),\n"
        "    'ndtri_from_suffixed_file': ufuncs.__file__ in files('_ufuncs'),\n"
        "    'ndtr_is_package_ndtr': stochastics.ndtr is scipy.special.ndtr,\n"
        "    'ndtri_is_package_ndtri': ndtri is scipy.special.ndtri,\n"
        "    'extensions_reused': [sys.modules['scipy.special._special_ufuncs']"
        " is special_ufuncs, scipy.special._ufuncs is ufuncs],\n"
        "    'erf': float(scipy.special.erf(0.5)),\n"
        "    'brentq': scipy.optimize.brentq(lambda x: x * x - 2.0, 0.0, 2.0),\n"
        "}))\n"
    )
    proc = fresh_python(code, *ENGINE_CODE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "absent_after_import": [],
        "absent_after_first_use": [],
        "ndtr_from_suffixed_file": True,
        "ndtri_from_suffixed_file": True,
        "ndtr_is_package_ndtr": True,
        "ndtri_is_package_ndtri": True,
        "extensions_reused": [True, True],
        "erf": pytest.approx(0.5204998778130465, rel=1e-15),
        "brentq": pytest.approx(2.0**0.5, rel=1e-12),
    }


@pytest.mark.parametrize("before", ["", "runlength.simulate_run_lengths(config, threads=1)\n"],
                         ids=["after import", "after a study"])
def test_scipy_special_gets_the_loaded_extensions_as_attributes(before):
    # In a process without aibmon, scipy.special has each of these as an
    # attribute (scipy's own tests read them so). The loader's extensions,
    # and those they import, must be set on the real package too, and the
    # hook that sets them must leave sys.meta_path as it found it.
    code = (
        "import json, sys\n"
        "meta_path = list(sys.meta_path)\n"
        "from aibmon import ChartKind, ProcessModel, ShiftScenario,"
        " SimulationConfig, make_limits, runlength, stochastics\n"
        "model = ProcessModel.standard(0.5)\n"
        "config = SimulationConfig(model, ShiftScenario(),"
        " make_limits(ChartKind.EWMA, 0.1, 2.454, model), reps=200, master_seed=5)\n"
        + before +
        "import scipy.special\n"
        "print(json.dumps([[hasattr(scipy.special, name) for name in sys.argv[1:]],\n"
        "                  sys.meta_path == meta_path,\n"
        "                  stochastics.ndtr is scipy.special.ndtr]))\n"
    )
    names = ("_special_ufuncs", "_ufuncs", "_ufuncs_cxx", "_gufuncs", "_ellip_harm_2")
    proc = fresh_python(code, *names)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[True] * len(names), True, True]


def test_pool_forks_after_the_engine_code_is_loaded():
    # The parent of a 2-worker study never decodes, so without the load
    # before the fork each worker would load the extension and numpy.random
    # again at its first share.
    code = (
        "import json, os, sys\n"
        "from aibmon import ChartKind, ProcessModel, ShiftScenario,"
        " SimulationConfig, make_limits, runlength\n"
        "forks, fork = [], os.fork\n"
        "def recording_fork():\n"
        "    forks.append([m in sys.modules for m in sys.argv[1:]])\n"
        "    return fork()\n"
        "os.fork = recording_fork\n"
        "runlength.usable_cpus = lambda: 2\n"
        "model = ProcessModel.standard(0.5)\n"
        "config = SimulationConfig(model, ShiftScenario(),"
        " make_limits(ChartKind.EWMA, 0.1, 2.454, model), reps=2000, master_seed=5)\n"
        "before = [m in sys.modules for m in sys.argv[1:]]\n"
        "runlength.simulate_run_lengths(config, threads=2)\n"
        "print(json.dumps([before, forks]))\n"
    )
    proc = fresh_python(code, *ENGINE_CODE)
    assert proc.returncode == 0, proc.stderr
    before, forks = json.loads(proc.stdout)
    assert before == [False] * len(ENGINE_CODE)
    assert forks == [[True] * len(ENGINE_CODE)] * 2


# Code run before aibmon is imported: the preloaded package, and three ways
# the fast path can fail (no file for any suffix, a load that raises, an
# extension without the names), each of which must fall back, to the
# package or, for ndtr, from _special_ufuncs to _ufuncs. The unqualified
# ones fail both extensions, the others the one they name.
_NO_FILE = (
    "import os.path\n"
    "real_isfile = os.path.isfile\n"
    "os.path.isfile = lambda p: (not os.path.basename(p).startswith('{}.')"
    " and real_isfile(p))\n"
)
_PARTIAL_EXTENSION = (
    "import importlib.util\n"
    "real = importlib.util.spec_from_file_location\n"
    "class Partial:\n"
    "    def create_module(self, spec):\n"
    "        return None\n"
    "    def exec_module(self, module):\n"
    "        {}\n"
    "def spec_from_file_location(name, path):\n"
    "    spec = real(name, path)\n"
    "    if name.endswith('{}'):\n"
    "        spec.loader = Partial()\n"
    "    return spec\n"
    "importlib.util.spec_from_file_location = spec_from_file_location\n"
)
_RAISE = "raise ImportError('simulated')"
PRELUDES = {
    "fast": "",
    "preloaded": "import scipy.special\n",
    "no file": "import importlib.machinery\n"
               "importlib.machinery.EXTENSION_SUFFIXES = ['.no-such-suffix']\n",
    "load raises": _PARTIAL_EXTENSION.format(_RAISE, ""),
    "names missing": _PARTIAL_EXTENSION.format("pass", ""),
}
for _extension in ("_special_ufuncs", "_ufuncs"):
    PRELUDES[f"no {_extension} file"] = _NO_FILE.format(_extension)
    PRELUDES[f"{_extension} load raises"] = _PARTIAL_EXTENSION.format(
        _RAISE, "." + _extension)
    PRELUDES[f"{_extension} names missing"] = _PARTIAL_EXTENSION.format(
        "pass", "." + _extension)


def fallback_loads(prelude: str) -> list[list[bool]]:
    """Whether ``_ufuncs`` and the ``scipy.special`` package are loaded after
    ``import aibmon.cli`` and after ndtri's first use, on a fallback path."""
    if "_special_ufuncs" in prelude:  # ndtr from _ufuncs
        return [[True, False], [True, False]]
    if "_ufuncs" in prelude:  # ndtri from the package
        return [[False, False], [True, True]]
    return [[True, True], [True, True]]  # both from the package


@pytest.mark.parametrize("prelude", [p for p in PRELUDES if p != "fast"])
def test_normal_ufuncs_are_the_packages_on_every_other_path(prelude):
    code = PRELUDES[prelude] + (
        "import json, sys\n"
        "import aibmon.cli\n"
        "from aibmon import stochastics\n"
        "loaded = lambda: [m in sys.modules for m in"
        " ('scipy.special._ufuncs', 'scipy.special')]\n"
        "loads = [loaded()]\n"
        "ndtri = stochastics.load_engine_code()\n"
        "loads.append(loaded())\n"
        "print(json.dumps(loads))\n"
        "import scipy.special\n"
        "extension = lambda e: sys.modules['scipy.special.' + e]\n"
        "print(json.dumps([stochastics.ndtr is scipy.special.ndtr,\n"
        "                  ndtri is scipy.special.ndtri,\n"
        "                  stochastics.load_engine_code() is ndtri,\n"
        "                  extension('_special_ufuncs').ndtr is stochastics.ndtr,\n"
        "                  extension('_ufuncs') is scipy.special._ufuncs,\n"
        "                  extension('_ufuncs').ndtri is ndtri]))\n"
    )
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    loads, identities = map(json.loads, proc.stdout.splitlines())
    assert loads == fallback_loads(prelude)
    assert identities == [True] * 6


@pytest.mark.parametrize("argv", [
    ["simulate", "--chart", "ewma", "--lambda", "0.1", "--L", "2.454", "--rho", "0.5",
     "--delta-x", "0.5", "--reps", "2000", "--seed", "4", "--threads", "1"],
    ["calibrate", "--chart", "ewma", "--lambda", "0.1", "--target-arl0", "200"],
])
def test_outputs_are_byte_identical_on_every_loader_path(argv, tmp_path):
    main_code = "import sys, aibmon.cli\nsys.exit(aibmon.cli.main(sys.argv[1:]))\n"
    results = {}
    for path in ("fast", "preloaded", "no file", "no _special_ufuncs file",
                 "no _ufuncs file"):
        out = tmp_path / f"{path}.json"
        extra = ["--out", str(out)] if argv[0] == "simulate" else []
        proc = fresh_python(PRELUDES[path] + main_code, *argv, *extra)
        results[path] = (proc.returncode, proc.stdout,
                         out.read_bytes() if extra else b"")
    assert results["fast"][0] == 0, results
    assert all(result == results["fast"] for result in results.values())
