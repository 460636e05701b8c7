"""CLI plumbing: exit codes, strict configs, artifacts, determinism."""

import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fde import asymptotics, cli, evolution, profile
from fde.cli import run_command
from fde.profile import Profile, ProfileError
from reference import csv_rows


def _read(path):
    with open(path) as f:
        return f.read()


def test_constants_stdout_and_exit(capsys, tmp_path):
    code = run_command(["constants", "--n", "3", "--m", "0.2", "--beta", "-1",
                        "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha"] == -2.5
    assert doc["yamabe_case"] is True
    report = json.loads(_read(tmp_path / "constants.json"))
    assert report["schema"] == 1
    assert report["constants"]["mu1"] == 0.5


def test_negative_flag_value_in_e_notation(tmp_path, capsys):
    # argparse takes "-1e-6" after a flag for an option unless the two are joined
    assert run_command(["constants", "--beta", "-1e-6", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["beta_tilde"] == 1e-06


@pytest.mark.parametrize("case", ["missing-config", "out-is-a-file", "report-is-a-directory"])
def test_unusable_path_is_one_error_line(tmp_path, capsys, case):
    # a path that cannot be read or written ends in one line naming it, not a
    # traceback, and no temp file is left behind
    out = tmp_path / "out"
    argv = ["constants", "--out", str(out)]
    if case == "missing-config":
        path = tmp_path / "missing.json"
        argv += ["--config", str(path)]
    elif case == "out-is-a-file":
        path = out
        out.write_text("")
    else:
        path = out / "constants.json"
        path.mkdir(parents=True)
    assert run_command(argv) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(path) in err
    assert not list(tmp_path.rglob(".tmp-*"))


def test_unknown_flag_usage_error(capsys):
    assert run_command(["constants", "--does-not-exist", "1"]) == 1


@pytest.mark.parametrize("argv, named", [
    (["profile", "--n", "3.5"], "--n"),
    (["constants", "--bogus", "1"], "--bogus"),
    (["bogus"], "'bogus'"),
    ([], "command"),
])
def test_rejected_command_line_is_one_error_line(capsys, argv, named):
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and named in err


def test_help_exits_zero(capsys):
    assert run_command(["profile", "--help"]) == 0
    assert "--eta" in capsys.readouterr().out


def test_unknown_config_key_named(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 3, "m": 0.2, "beta": -1.0,
                               "grid": {"R": 2.0, "bogus": 1}}))
    code = run_command(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "grid.bogus" in capsys.readouterr().err


def test_invalid_params_exit_code(capsys, tmp_path):
    assert run_command(["constants", "--n", "2", "--m", "0.1", "--beta", "-1",
                        "--out", str(tmp_path)]) == 1


def test_profile_artifacts(tmp_path):
    code = run_command(["profile", "--n", "3", "--m", "0.25", "--beta", "-1",
                        "--eta", "1", "--out", str(tmp_path)])
    assert code == 0
    header = _read(tmp_path / "profile_rg.csv").splitlines()[0]
    assert header == "r,g,g_r,f,f_r"
    header = _read(tmp_path / "profile_far.csv").splitlines()[0]
    assert header == "s,w,w_s,h,h1"
    rep = json.loads(_read(tmp_path / "profile_summary.json"))
    assert rep["K_converged"] is True
    assert abs(rep["growth_limits"]["ws_over_farfield_slope"] - 1.0) < 0.01
    # no stray temp files from the atomic writes
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


def test_evolve_determinism(tmp_path):
    cfg = {
        "n": 3, "m": 0.2, "beta": -1.0, "form": "physical",
        "grid": {"R": math.e, "N": 101},
        "initial": {"kind": "barenblatt", "k": 1.0, "T": 1.0},
        "boundary": {"kind": "barenblatt", "k": 1.0, "T": 1.0},
        "dt": 5e-3, "horizon": 0.05, "snapshots": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_command(["evolve", "--config", str(path), "--out", str(out1)]) == 0
    assert run_command(["evolve", "--config", str(path), "--out", str(out2)]) == 0
    assert _read(out1 / "snapshots.csv") == _read(out2 / "snapshots.csv")
    assert _read(out1 / "evolve_report.json") == _read(out2 / "evolve_report.json")


def test_one_snapshot_writes_both_ends(tmp_path):
    # snapshots: 1 gives the rows at t = 0 and at the horizon, as 2 does
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "initial": {"kind": "constant", "value": 2.0},
        "boundary": {"kind": "constant", "value": 2.0},
        "grid": {"N": 51}, "dt": 1e-2, "horizon": 0.03, "snapshots": 1,
    }))
    assert run_command(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = _read(tmp_path / "snapshots.csv").splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0] * 51 + [0.03] * 51
    assert json.loads(_read(tmp_path / "evolve_report.json"))["times"] == [0.0, 0.03]


def test_contract_small_pass(tmp_path):
    cfg = {
        "n": 3, "m": 0.2, "beta": -1.0,
        "grid": {"R": math.e ** 2, "N": 301},
        "lam1": 2.0, "lam2": 1.0,
        "weight": {"kind": "power_mu", "mu": 0.25},
        "dt": 2e-3, "horizon": 0.2, "snapshots": 5,
        "half_resolution": False,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_command(["contract", "--config", str(path), "--out", str(tmp_path)]) == 0
    rep = json.loads(_read(tmp_path / "contract_report.json"))
    assert rep["verdict"] == "PASS"
    assert "annulus" in rep["note"]
    lines = _read(tmp_path / "contraction.csv").splitlines()
    assert lines[0] == "t,norm,norm_positive_part,slack"
    assert len(lines) == 6


def test_converge_small_pass(tmp_path):
    cfg = {
        "n": 3, "m": 0.2, "beta": -1.0,
        "grid": {"R": math.e ** 1.7, "N": 501},
        "lam0": 1.0, "lam1": 1.0, "lam2": 0.4,
        "bump": {"amplitude": 0.10, "r_lo": 0.2, "r_hi": 2.0},
        "weight": {"kind": "profile_gamma2", "lam3": 1.0},
        "dt": 1e-2, "horizon": 5.0, "snapshots": 6,
        "decrease_factor": 10.0, "e_inf_threshold": 0.05,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_command(["converge", "--config", str(path), "--out", str(tmp_path)]) == 0
    rep = json.loads(_read(tmp_path / "converge_report.json"))
    assert rep["verdict"] == "PASS"
    assert rep["e1_factor"] >= 10.0


def test_converge_fail_exit_code(tmp_path):
    # a horizon far too short to decay by 10x maps the FAIL verdict to exit 2
    cfg = {
        "n": 3, "m": 0.2, "beta": -1.0,
        "grid": {"R": math.e ** 1.7, "N": 301},
        "lam0": 1.0, "lam1": 1.0, "lam2": 0.4,
        "bump": {"amplitude": 0.10, "r_lo": 0.2, "r_hi": 2.0},
        "weight": {"kind": "profile_gamma2", "lam3": 1.0},
        "dt": 1e-2, "horizon": 0.05, "snapshots": 3,
        "decrease_factor": 10.0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_command(["converge", "--config", str(path), "--out", str(tmp_path)]) == 2
    rep = json.loads(_read(tmp_path / "converge_report.json"))
    assert rep["verdict"] == "FAIL"


_SMALL_CONVERGE = {"grid": {"N": 101}, "dt": 1e-2, "horizon": 0.05, "snapshots": 3}


def test_converge_initial_data_outside_band(tmp_path, capsys, monkeypatch):
    # a bump below f_lam1 fails the band check at t = 0, before any step
    def solver(*args, **kwargs):
        pytest.fail("a step was solved")
    monkeypatch.setattr(evolution, "newton_step", solver)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(_SMALL_CONVERGE, bump={"amplitude": -0.5})))
    assert run_command(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "ordering band" in err


def test_converge_logs_no_monitors(tmp_path, monkeypatch):
    # the report reads only the band's lambdas, so the run logs nothing per
    # step and looks the band up once, for its check of the initial data
    runs = []
    bands = []
    run, bounds = evolution.run, evolution._ordering_bounds

    def recorded_run(cfg):
        runs.append(run(cfg))
        return runs[-1]

    def recorded_bounds(cfg, t):
        bands.append(t)
        return bounds(cfg, t)

    monkeypatch.setattr(evolution, "run", recorded_run)
    monkeypatch.setattr(evolution, "_ordering_bounds", recorded_bounds)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_SMALL_CONVERGE))
    assert run_command(["converge", "--config", str(cfg), "--out", str(tmp_path)]) in (0, 2)
    (traj,) = runs
    assert (traj.config.lam1, traj.config.lam2) == (1.0, 0.4)
    assert not traj.config.monitors
    assert traj.monitors is None
    assert bands == [0.0]


def test_validate_barenblatt_small(tmp_path):
    cfg = {
        "n": 3, "m": 0.2, "beta": -1.0, "k": 1.0, "T": 1.0, "horizon": 0.25,
        "R": math.e, "N_list": [101, 201], "dt0": 8e-3,
        "temporal_N": 401, "temporal_dt_list": [0.01, 0.005, 0.0025],
        "lam": 20.0, "track_N": 101, "track_dt": 4e-4, "track_horizon": 0.02,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run_command(["validate-barenblatt", "--config", str(path),
                        "--out", str(tmp_path)])
    rep = json.loads(_read(tmp_path / "validate_report.json"))
    assert code == 0, rep
    assert all(1.7 <= o <= 2.3 for o in rep["spatial_orders"])
    assert all(0.8 <= o <= 1.2 for o in rep["temporal_orders"])
    # --R sets the radius, a top-level key of this subcommand
    out = tmp_path / "R2"
    assert run_command(["validate-barenblatt", "--config", str(path), "--R", "2",
                        "--out", str(out)]) in (0, 2)
    rep2 = json.loads(_read(out / "validate_report.json"))
    assert rep2["spatial_errors"] != rep["spatial_errors"]


def test_expansion_artifacts(tmp_path):
    code = run_command(["expansion", "--n", "3", "--m", "0.25", "--beta", "-0.5",
                        "--eta", "2", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads(_read(tmp_path / "expansion_report.json"))
    assert rep["verdict"] == "PASS"
    assert rep["a3_rel_dev"] <= 0.05
    header = _read(tmp_path / "expansion.csv").splitlines()[0]
    assert header.startswith("s,normalized,series_leading,residual_leading")


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 4, "m": 0.3, "beta": -2.0}))
    assert run_command(["constants", "--config", str(cfg), "--m", "0.25",
                        "--out", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    # m overridden by the flag, n/beta from the config
    assert doc["mu1"] == pytest.approx(4.0 - 2.0 / 0.75)


def test_flag_overrides_do_not_leak_into_defaults(tmp_path):
    # the config leaves grid to the defaults, so --N writes into a nested
    # default dict; a later call in the same process must not see it
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "initial": {"kind": "constant", "value": 2.0},
        "boundary": {"kind": "constant", "value": 2.0},
        "dt": 1e-2, "horizon": 0.02, "snapshots": 2,
    }))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_command(["evolve", "--config", str(cfg), "--N", "51",
                        "--out", str(out1)]) == 0
    assert run_command(["evolve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert len(_read(out1 / "snapshots.csv").splitlines()) == 1 + 2 * 51
    assert len(_read(out2 / "snapshots.csv").splitlines()) == 1 + 2 * 401


@pytest.mark.parametrize("flag,value", [("--dt", "inf"), ("--dt", "nan"),
                                        ("--horizon", "inf")])
def test_non_finite_step_flags_rejected(tmp_path, capsys, flag, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(["evolve", flag, value, "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert flag[2:] in err
    assert not os.path.exists(tmp_path / "snapshots.csv")


@pytest.mark.parametrize("argv,config,key", [
    (["profile", "--smax", "inf"], {}, "s_max"),
    (["profile"], {"r0": math.inf}, "r0"),
    (["profile"], {"r_switch": math.inf}, "r_switch"),
    (["profile"], {"tol": math.inf}, "tol"),
    (["expansion", "--smax", "inf"], {}, "s_max"),
])
def test_non_finite_profile_request_rejected(tmp_path, capsys, argv, config, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert not caught
    err = capsys.readouterr().err.strip()
    assert err == f"config error: {key} must be finite, got inf"


@pytest.mark.parametrize("command", ["evolve", "contract"])
def test_infinite_R_rejected(tmp_path, capsys, command):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command([command, "--R", "inf", "--out", str(tmp_path)])
    assert code == 1
    assert not caught
    err = capsys.readouterr().err.strip()
    assert err == "config error: grid.R must be finite, got inf"


def test_contract_half_grid_too_small(tmp_path, capsys, no_solver):
    # the half-resolution rerun has N // 2 + 1 nodes; the error names grid.N
    assert run_command(["contract", "--N", "17", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "config error: grid.N must be >= 30 with half_resolution, got 17"


@pytest.mark.parametrize("argv", [
    ["constants", "--lambda3", "0.5"],
    ["constants", "--dt", "0.1"],
    ["evolve", "--smax", "10"],
    ["expansion", "--N", "5"],
    ["contract", "--mu", "0.3"],
    ["profile", "--R", "5"],
])
def test_inapplicable_flag_rejected(tmp_path, capsys, argv):
    # each flag is a key the subcommand's config does not have; the error
    # names the flag, not the config path it would have been written to
    assert run_command(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"config error: flag {argv[1]} does not apply to {argv[0]}"
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("weight", [
    {"kind": "power_mu"},
    {"kind": "custom_power_times_profile", "lam3": 1},
    {"kind": "power_mu", "mu": None},
])
def test_incomplete_weight_rejected(tmp_path, capsys, weight):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid": {"N": 101}, "horizon": 0.01, "snapshots": 2,
                               "weight": weight}))
    out = tmp_path / "out"
    assert run_command(["converge", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert weight["kind"] in err


@pytest.mark.parametrize("block,spec,missing", [
    ("initial", {"kind": "bump", "lam0": 1}, "amplitude"),
    ("initial", {"kind": "blend", "lam1": 2, "lam2": 1}, "theta"),
    ("initial", {"kind": "barenblatt", "k": 1}, "T"),
    ("initial", {"kind": "table", "table_r": [1, 2]}, "table_u"),
    ("boundary", {"kind": "constant"}, "value"),
])
def test_incomplete_initial_or_boundary_rejected(tmp_path, capsys, block, spec, missing):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({block: spec}))
    assert run_command(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"{block} kind '{spec['kind']}' needs {missing}" in err


@pytest.mark.parametrize("text", ["[1]", '"evolve"', "3", "null"])
def test_config_file_not_an_object_rejected(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert run_command(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:") and "JSON object" in err


@pytest.fixture
def no_solver(monkeypatch):
    """Fail the test if a command builds a profile or steps a run."""
    def solver(*args, **kwargs):
        pytest.fail("a solver ran")
    monkeypatch.setattr(cli, "compute_profile", solver)
    monkeypatch.setattr(asymptotics, "compute_K0", solver)
    monkeypatch.setattr(evolution, "run", solver)
    monkeypatch.setattr(evolution, "run_batch", solver)


def _merge(base, override):
    """base with the keys of override written over it; nested blocks merge."""
    return {**base, **{k: _merge(base[k], v) if isinstance(v, dict) and k in base else v
                       for k, v in override.items()}}


@pytest.mark.parametrize("command,config,key", [
    ("contract", {"weight": {"kind": "power_mu", "mu": "abc"}}, "weight.mu"),
    ("evolve", {"grid": {"N": "abc"}}, "grid.N"),
    ("evolve", {"grid": {"N": 1e400}}, "grid.N"),
    ("evolve", {"n": [3]}, "n"),
    ("evolve", {"initial": {"kind": "f_lambda", "lam": "abc"}}, "initial.lam"),
    ("evolve", {"initial": {"kind": "table", "table_r": ["a", "b"], "table_u": [1, 2]}},
     "initial.table_r[0]"),
    ("evolve", {"monitors": {"enabled": True, "lam1": "abc"}}, "monitors.lam1"),
    ("converge", {"K_compact": "ab"}, "K_compact"),
    ("converge", {"e_inf_threshold": "abc"}, "e_inf_threshold"),
    ("converge", {"bump": {"amplitude": "x"}}, "bump.amplitude"),
    ("profile", {"eta": "abc"}, "eta"),
    ("contract", {"lam1": "abc"}, "lam1"),
    ("validate-barenblatt", {"N_list": ["a", 201, 401]}, "N_list[0]"),
    ("contract", {"half_resolution": "false"}, "half_resolution"),
    ("constants", {"n": 3.9}, "n"),
    ("constants", {"m": "0.2"}, "m"),
    ("constants", {"n": True}, "n"),
    ("constants", {"beta": False}, "beta"),
    ("evolve", {"grid": {"N": 101.0}}, "grid.N"),
    ("evolve", {"initial": {"kind": "constant", "value": "2.5"}}, "initial.value"),
    ("validate-barenblatt", {"N_list": [101, 201.5, 401]}, "N_list[1]"),
])
def test_non_number_config_value_named(tmp_path, capsys, no_solver, command, config, key):
    cfg = tmp_path / "c.json"
    small = {"grid": {"N": 101}, "horizon": 0.01, "snapshots": 2}
    if "snapshots" in cli._CONFIG[command]:
        config = _merge(small, config)
    cfg.write_text(json.dumps(config))
    assert run_command([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: config key {key} must be")


def _leaves(table, path=()):
    for k, v in table.items():
        if isinstance(v, dict):
            yield from _leaves(v, path + (k,))
        else:
            yield path + (k,), v


_LETTERS = st.text(alphabet="bcdeghjkxyz", min_size=1)   # no "inf" or "nan" to parse
_NUMBERS = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
_LISTS = st.lists(st.integers(), max_size=3)
_OBJECTS = st.dictionaries(_LETTERS, st.integers(), max_size=2)
_NOT_NUMBERS = st.one_of(_LETTERS, _NUMBERS.map(repr), st.booleans(), _LISTS, _OBJECTS)


def _wrong(spec):
    """Values of a type other than the one a table entry asks for."""
    typ = spec if isinstance(spec, type) else float if spec is None else type(spec)
    if typ is bool:
        return st.one_of(st.sampled_from(["true", "false"]), _NUMBERS, _LISTS, _OBJECTS)
    if typ is str:
        return st.one_of(_NUMBERS, _LISTS, _OBJECTS)
    if typ is list:
        return st.one_of(_LETTERS, _NUMBERS, _OBJECTS, st.lists(_LETTERS, min_size=1))
    if typ is int:
        return st.one_of(_NOT_NUMBERS, st.floats().filter(lambda x: not x.is_integer()))
    return _NOT_NUMBERS


_ALL_LEAVES = [(command, path, spec) for command, table in cli._CONFIG.items()
               for path, spec in _leaves(table)]


@given(st.sampled_from(_ALL_LEAVES).flatmap(
    lambda leaf: st.tuples(st.just(leaf), _wrong(leaf[2]))))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_wrong_type_config_value_named(tmp_path, capsys, no_solver, case):
    (command, path, _), value = case
    config = value
    for key in reversed(path):
        config = {key: config}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run_command([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"config key {'.'.join(path)}" in err


@pytest.mark.parametrize("argv", [["profile", "--eta", "1e300"],
                                  ["expansion", "--eta", "1e300"],
                                  ["profile", "--eta", "1e-300"],
                                  ["profile", "--eta", "1e-25"]])
def test_extreme_eta_rejected(tmp_path, capsys, argv):
    # the startup slope ~ eta^(2-m) overflows or underflows; at eta 1e-25
    # it is finite, but the far-field slope w~_s turns nonpositive
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(argv + ["--out", str(tmp_path)])
    assert code == 1
    assert not caught
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: eta=")


@pytest.mark.parametrize("command", ["contract", "converge"])
def test_weight_built_before_stepping(tmp_path, capsys, monkeypatch, command):
    def solver(*args, **kwargs):
        pytest.fail("runs were stepped")
    monkeypatch.setattr(evolution, "run", solver)
    monkeypatch.setattr(evolution, "run_batch", solver)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"weight": {"kind": "power_mu", "mu": 5.0}}))
    assert run_command([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "power_mu" in err


@pytest.mark.parametrize("command", ["evolve", "contract", "converge"])
@pytest.mark.parametrize("snapshots", [0, -1])
def test_snapshots_below_one_rejected(tmp_path, capsys, monkeypatch, command, snapshots):
    def solver(*args, **kwargs):
        pytest.fail("runs were stepped")
    monkeypatch.setattr(evolution, "run", solver)
    monkeypatch.setattr(evolution, "run_batch", solver)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"snapshots": snapshots}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert not caught
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "snapshots" in err


def _fill(table):
    """Every key of a config table, with its default or a placeholder value."""
    return {k: _fill(v) if isinstance(v, dict)
            else [1.0] if v is list else 1.0 if v is float else v
            for k, v in table.items()}


def _blocks(cfg, path=()):
    yield path, cfg
    for k, v in cfg.items():
        if isinstance(v, dict):
            yield from _blocks(v, path + (k,))


@pytest.mark.parametrize("command", list(cli._CONFIG))
def test_config_table(tmp_path, command):
    parse = cli._build_parser().parse_args
    table = cli._CONFIG[command]
    # the defaults alone carry no placeholder for an unset key
    defaults = cli._load_config(parse([command]), command)
    for _, block in _blocks(defaults):
        assert all(not isinstance(v, type) for v in block.values())
    # a file that sets every key in the table is accepted as it is
    path = tmp_path / "full.json"
    path.write_text(json.dumps(_fill(table)))
    assert cli._load_config(parse([command, "--config", str(path)]), command) == _fill(table)
    # a key outside the table is rejected in every block, named by its dotted path
    for where, _ in _blocks(table):
        bad = _fill(table)
        node = bad
        for key in where:
            node = node[key]
        node["bogus"] = 1
        path.write_text(json.dumps(bad))
        with pytest.raises(cli.ConfigError) as e:
            cli._load_config(parse([command, "--config", str(path)]), command)
        assert str(e.value) == "unknown config key: " + ".".join(where + ("bogus",))


def test_compact_window_needs_two_radii(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid": {"N": 101}, "horizon": 0.01, "snapshots": 2,
                               "K_compact": [1.0]}))
    assert run_command(["converge", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: K_compact must hold two radii, got (1.0,)"


@pytest.mark.parametrize("argv,config,expect", [
    (["evolve"], {"boundary": {"kind": "constant", "value": -1.0}},
     "boundary kind 'constant' gives -1.0 at t=0.0;"),
    # past the extinction time T = 1 the Barenblatt boundary value is 0
    (["validate-barenblatt", "--horizon", "2"], {},
     "boundary kind 'barenblatt' gives 0.0 at t=1.0"),
], ids=["negative_constant", "barenblatt_past_extinction"])
def test_non_positive_boundary_data_rejected(tmp_path, capsys, argv, config, expect):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert not caught
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: " + expect)


@pytest.mark.parametrize("spec,key", [
    ({"kind": "table", "table_r": [0.5, 1.0, 2.0], "table_u": [1.0, 1.0]},
     "table_r and table_u need equal lengths >= 2"),
    ({"kind": "table", "table_r": [1.0], "table_u": [1.0]},
     "table_r and table_u need equal lengths >= 2"),
    ({"kind": "table", "table_r": [0.0, 1.0, 2.0], "table_u": [1.0, 1.0, 1.0]}, "table_r"),
    ({"kind": "table", "table_r": [0.5, 2.0, 1.0], "table_u": [1.0, 1.0, 1.0]}, "table_r"),
    ({"kind": "table", "table_r": [0.5, 1.0, 2.0], "table_u": [1.0, -1.0, 1.0]}, "table_u"),
    ({"kind": "bump", "lam0": 1.0, "amplitude": 0.1, "r_lo": 1.0, "r_hi": 1.0},
     "bump needs 0 < r_lo < r_hi"),
], ids=["unequal_lengths", "one_entry", "r_not_positive", "r_not_increasing",
        "u_not_positive", "empty_bump"])
def test_malformed_initial_block_rejected(tmp_path, capsys, no_solver, spec, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"initial": spec}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert not caught
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: initial {key}")


def test_overflowing_table_rejected(tmp_path, capsys):
    # the pchip extrapolation of log u overflows to inf on the grid: the run
    # rejects it as initial data, with no warning and before any step
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "initial": {"kind": "table", "table_r": [math.exp(-2.0), math.exp(-1.9)],
                    "table_u": [1.0, 1e300]},
        "boundary": {"kind": "constant", "value": 1.0}, "grid": {"N": 41}, "horizon": 0.01}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    assert not caught
    assert capsys.readouterr().err == "error: initial data must be finite and > 0\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_constants_non_finite_mu_rejected(tmp_path, capsys, value):
    assert run_command(["constants", "--mu", value, "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.strip() == f"config error: mu must be finite, got {value}"
    assert not os.listdir(tmp_path)


def test_error_message_prints_plain_floats(tmp_path, capsys):
    # the trace's last node is a numpy float; the message shows its value only
    assert run_command(["profile", "--smax", "40", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: K extraction needs s_max >= 50, trace ends at 40.0"


@pytest.mark.parametrize("command", ["contract", "evolve", "converge"])
def test_over_budget_dt_rejected_before_the_profile(tmp_path, capsys, no_solver, command):
    # each command's default runs read a profile; their step budget is
    # checked before it is built
    assert run_command([command, "--dt", "1e-9", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: dt=1e-09 takes ")
    assert err.endswith(", over the limit of 1000000\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["contract", "converge"])
def test_weight_regime_checked_before_the_profile(tmp_path, capsys, no_solver, command):
    # profile_gamma2, converge's default weight, needs n in {3, 4}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"weight": {"kind": "profile_gamma2", "lam3": 1.0}}))
    code = run_command([command, "--n", "8", "--m", "0.1", "--config", str(cfg),
                        "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: profile_gamma2 weight: violated n in {3,4}: n=8\n"
    assert not (tmp_path / "out").exists()


def test_U_lambda_time_shift_overflow_is_one_line(tmp_path, capsys):
    # e^(-beta t) passes the float range once -beta t > 709.78, here at t > 0.071
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(["contract", "--beta", "-1e4", "--horizon", "0.1", "--N", "101",
                            "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: U_lambda's time shift e^(-beta t) overflows at "
                          "beta=-10000.0, t=0.07")


@pytest.mark.parametrize("argv", [["profile"], ["evolve", "--N", "41", "--horizon", "0.01"]])
def test_profile_with_underflowed_inner_samples(tmp_path, argv):
    # at n = 8, m = 0.1 the inner samples underflow near r0 (r g_r / g is
    # subnormal): the reports stay finite and no RuntimeWarning leaks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_command(argv + ["--n", "8", "--m", "0.1", "--out", str(tmp_path)]) == 0
    for name in os.listdir(tmp_path):
        if name.endswith(".json"):
            json.loads(_read(tmp_path / name), parse_constant=pytest.fail)
    if argv == ["profile"]:
        summary = json.loads(_read(tmp_path / "profile_summary.json"))
        assert 0.0 < summary["invariants"]["residual_inner"] < 1e-5


@pytest.mark.parametrize("argv,config,err", [
    (["profile", "--smax", "1e6"], {},
     "s_max (--smax) = 1000000.0 needs 5e+07 far-field nodes, over the limit of 250000"),
    (["expansion", "--smax", "5000.02"], {},
     "s_max (--smax) = 5000.02 needs 2.5e+05 far-field nodes, over the limit of 250000"),
    (["expansion"], {"k0_s_max": 1e300},
     "k0_s_max = 1e+300 needs 5e+301 far-field nodes, over the limit of 250000"),
])
def test_far_field_over_the_node_budget_rejected(tmp_path, capsys, no_solver, argv, config, err):
    # the far field's lattice has s_max / 0.02 nodes; a horizon past the
    # budget ends in one line that names it, before any profile is built
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run_command(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {err}\n"
    assert not (tmp_path / "out").exists()


def test_far_field_node_budget_admits_its_limit():
    # s_max 5000 is exactly the budget; checked without running it
    cli._check_far_nodes({"s_max": 5000.0, "k0_s_max": 5000.0})


@pytest.mark.parametrize("argv,config,err", [
    (["evolve", "--N", "800000"], {},
     "grid.N (--N) = 800000: 11 snapshots of 800000 nodes need 7.04e+07 B"),
    (["contract", "--N", "150000"], {},
     "grid.N (--N) = 150000 with half_resolution: 21 snapshots of 450002 nodes need 7.56e+07 B"),
    (["contract", "--N", "200000"], {"half_resolution": False},
     "grid.N (--N) = 200000: 21 snapshots of 400000 nodes need 6.72e+07 B"),
    (["converge", "--N", "10000000"], {"snapshots": 1},
     "grid.N (--N) = 10000000: 2 snapshots of 10000000 nodes need 1.6e+08 B"),
    (["validate-barenblatt"], {"temporal_N": 1500000},
     "N_list, temporal_N and track_N: 2 snapshots of 4500904 nodes need 7.2e+07 B"),
], ids=["evolve", "contract", "contract-full", "converge", "validate-barenblatt"])
def test_snapshots_over_the_memory_budget_rejected(tmp_path, capsys, no_solver, monkeypatch,
                                                   argv, config, err):
    # a command's runs keep snapshots x N float64s in all; a total past
    # 2^26 B ends in one line naming the key and flag, before any profile
    # or grid is built
    def solver(*args, **kwargs):
        pytest.fail("a grid was built")
    monkeypatch.setattr(evolution, "build_grid", solver)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run_command(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {err}, over the limit of 67108864 B\n"
    assert not (tmp_path / "out").exists()


def test_snapshot_budget_admits_its_limit():
    # 2^26 B is 2^23 float64s; checked without running anything
    cli._check_snapshot_bytes(2 ** 3, 2 ** 20, "grid.N (--N)")
    with pytest.raises(cli.ConfigError):
        cli._check_snapshot_bytes(2 ** 3, 2 ** 20 + 1, "grid.N (--N)")


def test_profile_past_the_g_evaluation_range(tmp_path):
    # s_max 800 samples the f-decay check down to r = e^-700, the smallest r
    # whose g(1/r) is evaluated, and not to e^-720; the summary has the
    # default run's keys
    keys = {}
    for name, argv in (("default", []), ("far", ["--smax", "800"])):
        code = run_command(["profile", *argv, "--out", str(tmp_path / name)])
        assert code in (0, 2)
        rep = json.loads(_read(tmp_path / name / "profile_summary.json"))
        assert rep["schema"] == 1
        keys[name] = {k: sorted(v) if isinstance(v, dict) else None for k, v in rep.items()}
    assert keys["far"] == keys["default"]


_CONSTANT_RUN = {"initial": {"kind": "constant", "value": 1.0},
                 "boundary": {"kind": "constant", "value": 1.0}}


@pytest.mark.parametrize("argv,config,err", [
    (["contract"], {"weight": {"kind": "custom_power_times_profile", "lam3": 1.0,
                               "power": math.nan, "exponent": 0.4}},
     "config error: weight.power must be finite, got nan"),
    (["converge"], {"decrease_factor": math.nan},
     "config error: decrease_factor must be finite, got nan"),
    (["converge"], {"decrease_factor": 0.0},
     "config error: decrease_factor must be >= 1, got 0.0"),
    (["converge"], {"decrease_factor": 0.5},
     "config error: decrease_factor must be >= 1, got 0.5"),
    (["converge"], {"e_inf_threshold": math.nan},
     "config error: e_inf_threshold must be finite, got nan"),
    (["converge"], {"bump": {"amplitude": math.nan}},
     "config error: bump.amplitude must be finite, got nan"),
    (["profile"], {"grid": {"r_min": math.nan}},
     "config error: grid.r_min must be finite, got nan"),
    (["evolve"], {"initial": {"kind": "blend", "lam1": 2.0, "lam2": 1.0, "theta": math.nan}},
     "config error: initial.theta must be finite, got nan"),
    (["evolve"], dict(_CONSTANT_RUN, newton_tol=math.nan),
     "config error: newton_tol must be finite, got nan"),
    (["evolve"], dict(_CONSTANT_RUN, newton_tol=-1.0),
     "error: newton_tol must be positive and finite, got -1.0"),
    (["evolve"], dict(_CONSTANT_RUN, dt=0),
     "config error: dt must be positive and finite, got 0.0"),
    (["evolve"], dict(_CONSTANT_RUN, horizon=-1),
     "config error: horizon must be positive and finite, got -1.0"),
    (["contract", "--lambda3", "nan"], {}, "config error: weight.lam3 must be finite, got nan"),
], ids=["weight.power", "decrease_factor", "decrease_factor-zero", "decrease_factor-below-one",
        "e_inf_threshold", "bump.amplitude", "grid.r_min",
        "initial.theta", "newton_tol-nan", "newton_tol-negative", "dt-zero", "horizon-negative",
        "flag-lambda3"])
def test_non_finite_or_non_positive_value_rejected(tmp_path, capsys, no_solver, argv, config, err):
    # a NaN in a config file or a flag ends in one line naming its key, before
    # any solver runs; none reaches a verdict or a NaN in the report
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(argv + ["--config", str(cfg), "--out", str(out)])
    assert code == 1
    assert not caught
    assert capsys.readouterr().err.strip() == err
    assert not out.exists()


@pytest.mark.parametrize("dt", ["1e-9", "1e-300"])
def test_over_budget_dt_rejected(tmp_path, capsys, no_solver, dt):
    # the step count is checked when the run's config is built, before any step
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_CONSTANT_RUN))
    code = run_command(["evolve", "--dt", dt, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: dt={float(dt)!r} takes ")
    assert err.endswith(" steps to t=0.1, over the limit of 1000000\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,config,err", [
    ("validate-barenblatt", {"N_list": [101]},
     "N_list needs >= 2 entries to measure an order, got 1"),
    ("validate-barenblatt", {"N_list": []},
     "N_list needs >= 2 entries to measure an order, got 0"),
    ("validate-barenblatt", {"temporal_dt_list": [0.01, 0.005]},
     "temporal_dt_list needs >= 3 entries to measure an order, got 2"),
    ("validate-barenblatt", {"temporal_dt_list": []},
     "temporal_dt_list needs >= 3 entries to measure an order, got 0"),
    ("profile", {"grid": {"count": 0}}, "grid.count must be >= 1, got 0"),
], ids=["N_list-1", "N_list-0", "temporal_dt_list-2", "temporal_dt_list-0", "grid.count-0"])
def test_nothing_to_measure_rejected(tmp_path, capsys, no_solver, command, config, err):
    # a list too short for one measured order used to give PASS with empty
    # order lists, and a profile grid of no radii numpy's zero-size error
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run_command([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.strip() == f"config error: {err}"
    assert not (tmp_path / "out").exists()


def test_evolve_monitors_without_a_full_step_rejected(tmp_path, capsys):
    # every step is clipped to the snapshot spacing 0.005 < 0.1 * dt, so the
    # Aronson-Benilan monitor has no step to read; the run says so before
    # any file is written
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "grid": {"R": math.e, "N": 33}, "dt": 0.1, "horizon": 0.05, "snapshots": 11,
        "initial": {"kind": "blend", "lam1": 2.0, "lam2": 1.0, "theta": 0.3},
        "monitors": {"enabled": True, "lam1": 2.0, "lam2": 1.0}}))
    out = tmp_path / "out"
    assert run_command(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: the Aronson-Benilan monitor needs a step >= 0.1*dt")
    assert "dt=0.1" in err and "snapshot spacing 0.005" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    pytest.param("s_max", 3, id="3"), pytest.param("s_max", 10, id="10"),
    pytest.param("s_max", 40, id="40"), pytest.param("s_max", 50, id="50"),
    ("k0_s_max", 10), ("k0_s_max", 30), ("k0_s_max", -5), ("k0_s_max", 2.0)])
def test_expansion_needs_the_asymptotic_horizon(tmp_path, capsys, request, key, value):
    # the residual trend is judged on (s_max/2, s_max) and K0 is extracted on
    # (0, k0_s_max): a horizon below the 50 that K extraction needs is an
    # input error, named by its key before anything is built, not a failed
    # expansion check
    out = tmp_path / "out"
    if key == "s_max":
        argv = ["expansion", "--smax", str(value), "--out", str(out)]
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        argv = ["expansion", "--config", str(cfg), "--out", str(out)]
    if value < 50:
        request.getfixturevalue("no_solver")
    code = run_command(argv)
    err = capsys.readouterr().err.strip()
    if value < 50:
        assert code == 1
        assert len(err.splitlines()) == 1 and f" {key} must be >= 50" in err
        assert not out.exists()
    else:
        assert code in (0, 2)
        report = json.loads(_read(out / "expansion_report.json"))
        assert report["verdict"] == ("PASS" if code == 0 else "FAIL")


def _see_cpus(monkeypatch, count):
    """Make the commands see ``count`` CPUs: contract forks given two or more."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


_SCIPY_SOLVERS = ("scipy.integrate", "scipy.interpolate", "scipy.special", "scipy.optimize")


def test_pde_commands_load_no_scipy_solver(tmp_path):
    # in a fresh interpreter, import fde.cli and the commands that step the
    # PDE (and constants) load numpy and LAPACK only, none of scipy's ODE,
    # interpolation, special-function or optimisation packages; a following
    # profile loads LSODA and writes the bytes it writes in this process
    script = """
import contextlib, io, sys
from fde.cli import run_command
out = sys.argv[1]
for argv in (["constants"], ["evolve", "--N", "41", "--horizon", "0.01"],
             ["contract", "--N", "101", "--horizon", "0.02"], ["converge"],
             ["validate-barenblatt", "--horizon", "0.1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(argv + ["--out", out + "/" + argv[0]]) == 0, argv
print(sorted({m for m in sys.modules if m.startswith(%r)}))
assert run_command(["profile", "--smax", "60", "--out", out + "/profile"]) == 0
print("scipy.integrate" in sys.modules)
""" % (_SCIPY_SOLVERS,)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "fresh")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True"]
    assert run_command(["profile", "--smax", "60", "--out", str(tmp_path / "here")]) == 0
    for name in ("profile_rg.csv", "profile_far.csv", "profile_summary.json"):
        assert _read(tmp_path / "fresh" / "profile" / name) == _read(tmp_path / "here" / name)


@pytest.mark.parametrize("command", ["contract", "converge"])
def test_far_field_reaches_every_evaluation(tmp_path, monkeypatch, profile_cache, command):
    # the command builds its far field only to log R - log min(lambda), a
    # prefix of the full lattice stepped by RK45; every U_lambda it evaluates
    # (initial and boundary data, band, target) is within 1e-9 relative of
    # the full-horizon profile's (at most 4.4e-11 here), and the profile
    # raises, never extrapolates, past its far field's end
    calls = []
    evaluate = Profile.eval_U_lambda

    def recorded(prof, lam, r, t):
        calls.append((prof, lam, r, t, evaluate(prof, lam, r, t)))
        return calls[-1][-1]

    monkeypatch.setattr(Profile, "eval_U_lambda", recorded)
    _see_cpus(monkeypatch, 1)  # so that every call is made, and recorded, in this process
    assert run_command([command, "--out", str(tmp_path)]) == 0
    full = profile_cache(3, 0.2)
    (prof,) = {c[0] for c in calls}
    s = prof.far.s
    assert len(s) < len(full.far.s) and full.far.s[-1] == full.request.s_max
    assert np.array_equal(s, full.far.s[:len(s)])
    for _, lam, r, t, u in calls:
        np.testing.assert_allclose(u, evaluate(full, lam, r, t), rtol=1e-9, atol=0.0)
    lam = min(c[1] for c in calls)
    with pytest.raises(ProfileError, match="no extrapolation"):
        prof.eval_U_lambda(lam, np.array([0.99 / (lam * math.exp(s[-1]))]), 0.0)


def test_expansion_reuses_the_profile_just_built(tmp_path, monkeypatch, profile_builds):
    # profile then expansion of one model, as a batch of run_command calls
    # makes them: expansion builds K0's (1,1) profile and reuses the one
    # profile built, and each writes the files it writes with the memo empty
    model = ["--n", "5", "--m", "0.396175", "--beta", "-0.68391", "--eta", "2.39308"]
    codes = [run_command([cmd] + model + ["--out", str(tmp_path / "memo" / cmd)])
             for cmd in ("profile", "expansion")]
    assert len(profile_builds) == 2 and profile_builds[1].s_max == 400.0
    for cmd, code in zip(("profile", "expansion"), codes):
        monkeypatch.setattr(profile, "_last", (None, None), raising=False)
        assert run_command([cmd] + model + ["--out", str(tmp_path / "fresh" / cmd)]) == code
        files = sorted(os.listdir(tmp_path / "fresh" / cmd))
        assert files == sorted(os.listdir(tmp_path / "memo" / cmd)) and files
        for name in files:
            assert ((tmp_path / "memo" / cmd / name).read_bytes()
                    == (tmp_path / "fresh" / cmd / name).read_bytes()), (cmd, name)


def test_repeated_contract_builds_its_profile_once(tmp_path, monkeypatch, profile_builds):
    _see_cpus(monkeypatch, 1)
    for i in range(2):
        assert run_command(["contract", "--out", str(tmp_path / str(i))]) == 0
    assert len(profile_builds) == 1


@pytest.mark.parametrize("argv,err", [
    (["contract", "--lambda2", "1e-100"], "error: r beyond e^s_max = e^200.0; no extrapolation"),
    (["contract", "--lambda2", "-1"], "error: lambda must be positive, got -1.0"),
    (["contract", "--lambda2", "-1e-3"], "error: lambda must be positive, got -0.001"),
    (["converge", "--lambda2", "-1"], "error: lambda must be positive, got -1.0"),
], ids=["contract-tiny", "contract-negative", "contract-negative-e-notation",
        "converge-negative"])
def test_lambda_out_of_the_profile_rejected(tmp_path, capsys, argv, err):
    # a lambda so small that its reach runs past the lattice's end reads g
    # beyond e^s_max; a nonpositive one is left out of the reach and rejected
    # where it is evaluated
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid": {"N": 101}, "horizon": 0.01, "snapshots": 1}))
    out = tmp_path / "out"
    assert run_command(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.strip() == err


@pytest.mark.parametrize("command", ["contract", "converge"])
def test_runs_keep_no_trunc_time(tmp_path, monkeypatch, command):
    # contract and converge read snapshots only, so no run reduces trunc_time;
    # contract steps its runs as one batch, converge its one run alone
    runs = []
    run, run_batch = evolution.run, evolution.run_batch

    def recorded_run(*args, **kwargs):
        runs.append(run(*args, **kwargs))
        return runs[-1]

    def recorded_batch(*args, **kwargs):
        runs.extend(run_batch(*args, **kwargs))
        return runs[-len(args[0]):]

    monkeypatch.setattr(evolution, "run", recorded_run)
    monkeypatch.setattr(evolution, "run_batch", recorded_batch)
    _see_cpus(monkeypatch, 1)  # so that every run is stepped, and recorded, in this process
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid": {"N": 101}, "horizon": 0.05, "snapshots": 2}))
    assert run_command([command, "--config", str(cfg), "--out", str(tmp_path)]) in (0, 2, 3)
    assert runs and all(traj.trunc_time is None for traj in runs)


# -- contract on two CPUs ---------------------------------------------------

_SMALL_CONTRACT = {"grid": {"R": math.e ** 2, "N": 101}, "horizon": 0.1, "snapshots": 5}
_forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="contract forks only where os.fork is")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _contract_on(tmp_path, monkeypatch, capsys, cpus, argv, config):
    """(exit code, stderr, {file name: bytes}) of contract argv with config,
    seeing ``cpus`` CPUs; no child process is left after it."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"out{cpus}"
    _see_cpus(monkeypatch, cpus)
    code = run_command(["contract"] + argv + ["--config", str(cfg), "--out", str(out)])
    _no_child_left()
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, capsys.readouterr().err, files


@_forks
@pytest.mark.parametrize("argv,config,code", [
    ([], dict(_SMALL_CONTRACT, half_resolution=True), 0),
    ([], dict(_SMALL_CONTRACT, half_resolution=False), 0),
    # e^(-beta t) overflows at t > 0.071: the error path, one line, no files
    (["--beta", "-1e4", "--N", "101", "--horizon", "0.1"], {}, 1),
], ids=["half-resolution", "full-resolution", "overflow"])
def test_contract_on_two_cpus_is_the_one_cpu_run(tmp_path, monkeypatch, capsys, argv, config,
                                                  code):
    # on two CPUs a forked child steps half of the runs; the files, the exit
    # code and stderr are the one-process run's, byte for byte
    one = _contract_on(tmp_path, monkeypatch, capsys, 1, argv, config)
    two = _contract_on(tmp_path, monkeypatch, capsys, 2, argv, config)
    assert one[0] == code
    assert sorted(one[2]) == ([] if code else ["contract_report.json", "contraction.csv"])
    assert len(one[1].splitlines()) == (1 if code else 0)
    assert two == one


@_forks
@pytest.mark.parametrize("half,failing", [
    (True, (3,)), (True, (0,)), (True, (1,)), (True, (0, 2)), (True, (1, 3)), (True, (2, 3)),
    (True, (0, 1, 2, 3)), (False, (0,)), (False, (1,)), (False, (0, 1))])
def test_contract_reports_the_first_failing_run(tmp_path, monkeypatch, capsys, half, failing):
    # the runs, in order: (lam1, N), (lam1, N/2), (lam2, N), (lam2, N/2), or
    # the first and third without the half resolution; the child steps runs
    # 0 and 3 (or 0).  Each failing run raises its own error, and on both
    # paths the first one's is printed
    order = [(2.0, 101), (2.0, 51), (1.0, 101), (1.0, 51)] if half else [(2.0, 101), (1.0, 101)]
    values = evolution.InitialSpec.values

    def failing_values(spec, grid, profile, params):
        k = order.index((spec.lam, grid.N))
        if k in failing:
            raise evolution.EvolutionError(f"run {k} fails")
        return values(spec, grid, profile, params)

    monkeypatch.setattr(evolution.InitialSpec, "values", failing_values)
    config = dict(_SMALL_CONTRACT, half_resolution=half)
    for cpus in (1, 2):
        assert _contract_on(tmp_path, monkeypatch, capsys, cpus, [], config) == (
            1, f"error: run {failing[0]} fails\n", {})


@_forks
@pytest.mark.parametrize("ending,err", [
    ("signal", f"by signal {int(signal.SIGKILL)}"),
    ("signal after sending", f"by signal {int(signal.SIGKILL)}"),
    ("exit", "with no result")])
def test_contract_child_killed_or_silent_is_one_line(tmp_path, monkeypatch, capsys, ending,
                                                     err):
    # a child killed by a signal, even once it has sent its runs, or one that
    # ends before it sends them, is one error line and exit 1; no file is
    # written and no process is left
    parent, run_batch, exit_ = os.getpid(), evolution.run_batch, os._exit

    def dying(cfgs, *args, **kwargs):
        if os.getpid() != parent and ending != "signal after sending":
            if ending == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            exit_(0)
        return run_batch(cfgs, *args, **kwargs)

    def killed_at_exit(code):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        exit_(code)

    monkeypatch.setattr(evolution, "run_batch", dying)
    monkeypatch.setattr(os, "_exit", killed_at_exit)
    assert _contract_on(tmp_path, monkeypatch, capsys, 2, [], _SMALL_CONTRACT) == (
        1, f"error: the process stepping runs [0, 3] ended {err}\n", {})


def test_contract_that_cannot_fork_steps_every_run(tmp_path, monkeypatch, capsys):
    # where no process can be forked, contract on two CPUs steps all its
    # runs itself, with the one-CPU run's files
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    one = _contract_on(tmp_path, monkeypatch, capsys, 1, [], _SMALL_CONTRACT)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    assert _contract_on(tmp_path, monkeypatch, capsys, 2, [], _SMALL_CONTRACT) == one


@_forks
def test_contract_interrupted_kills_its_child(tmp_path, monkeypatch):
    # an exception that is not a run's (here KeyboardInterrupt) leaves at
    # once: the child is killed and reaped, not waited for
    parent, run_batch = os.getpid(), evolution.run_batch

    def stuck(cfgs, *args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60.0)
            return run_batch(cfgs, *args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(evolution, "run_batch", stuck)
    _see_cpus(monkeypatch, 2)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_SMALL_CONTRACT))
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_command(["contract", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 30.0
    _no_child_left()
    assert not (tmp_path / "out").exists()


def test_evolve_reports_trunc_time_with_or_without_monitors(tmp_path):
    # evolve asks its run for trunc_time, which the monitors leave unchanged
    reports = []
    for enabled in (False, True):
        cfg = tmp_path / f"c{enabled}.json"
        cfg.write_text(json.dumps({
            "grid": {"R": math.e, "N": 101}, "dt": 2e-3, "horizon": 0.05, "snapshots": 6,
            "initial": {"kind": "blend", "lam1": 2.0, "lam2": 1.0, "theta": 0.3},
            "monitors": {"enabled": enabled, "lam1": 2.0, "lam2": 1.0}}))
        out = tmp_path / f"out{enabled}"
        assert run_command(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        reports.append(json.loads(_read(out / "evolve_report.json")))
    assert "aronson_benilan" not in reports[0] and "aronson_benilan" in reports[1]
    assert reports[0]["trunc_time"] > 0.0
    assert reports[0]["trunc_time"] == reports[1]["trunc_time"]
    assert reports[1]["aronson_benilan"]["slack"] == 10.0 * reports[1]["trunc_time"]


# -- CSV numbers ------------------------------------------------------------


def _csv_cases():
    """Over 10^6 floats that '%.17g' formats in every way it has."""
    rng = np.random.default_rng(36)
    powers = 10.0 ** np.arange(-300, 301)
    switch = np.array([1e-5, 1e-4, 1e16, 1e17])

    def near(x, ulps):  # x and its neighbours up to ulps either side
        return (x.view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)).view(np.float64).ravel()

    cases = [
        # random bit patterns: both signs, every exponent, subnormals, inf, nan
        rng.integers(0, 2 ** 64, 600_000, dtype=np.uint64).view(np.float64),
        near(powers, 3), -near(powers, 3),
        near(switch, 1000), -near(switch, 1000),
        # integers about 10^16 and 10^17, and values that round up into the next decade
        np.arange(10 ** 16 - 5000, 10 ** 16 + 5000, dtype=np.float64),
        np.arange(10 ** 17 - 40_000, 10 ** 17 + 40_000, 8, dtype=np.float64),
        near(powers * (1.0 - 2.0 ** -52), 200),
        # exact ties: odd multiples of 2^(k-17) in [10^k, 10^(k+1)) have 18 digits, the last a 5
        np.array([q / 2 ** (17 - k) for k in range(-7, 16)
                  for q in range(int(10.0 ** k * 2 ** (17 - k)) | 1,
                                 min(int(10.0 ** (k + 1) * 2 ** (17 - k)), 2 ** 53), 2)[:500]]),
        # decimal-looking values and the columns' typical magnitudes
        np.round(rng.uniform(-1e3, 1e3, 100_000), 3),
        rng.uniform(-1.0, 1.0, 100_000) * 10.0 ** rng.integers(-20, 20, 100_000),
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308]),
    ]
    return np.concatenate(cases)


def test_csv_rows_are_percent_format_byte_for_byte():
    values = _csv_cases()
    assert values.size >= 10 ** 6
    rows = values[:values.size // 5 * 5].reshape(-1, 5)
    for i in range(0, len(rows), 512):
        block = rows[i:i + 512]
        assert cli._csv_rows(block) == csv_rows(list(block.T)), i


@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_csv_rows_property(values, width):
    block = np.array(values * width).reshape(width, -1).T  # each value in every column
    assert cli._csv_rows(block) == csv_rows(list(block.T))


@pytest.mark.parametrize("x", [2.2422607587866907e-07, 4.9102966142601843e-08,
                               4.974148370910348e-09, 1.1959468262253353e-12])
def test_csv_near_ties_take_the_percent_fallback(x):
    # x 10^(16-k) lies within 2^-52 of a half-integer while 10^(16-k) is no
    # double (16 - k > 22), so the product's computed fraction falls on the
    # wrong side of 1/2 and the 17th digit rounds the wrong way; the tie
    # flag sends x to '%.17g'.  These are 4 of the 24 such values, all
    # flagged, that a search found among 77,648 doubles with 16 - k in
    # [23, 39] lying within 2^-40 of a half-integer there
    _, D, tie = cli._digits17(np.array([x]))
    assert tie[0] and D[0] != int(("%.16e" % x).split("e")[0].replace(".", ""))
    assert cli._csv_rows(np.array([[x, -x]])) == csv_rows([[x], [-x]])


def test_write_csv_nan_column_and_zeros(tmp_path):
    # h1 is nan in the Yamabe case: a whole column of nan, with 0 and -0
    # beside it, raises no RuntimeWarning (an error in these tests)
    n = 1300
    cols = [np.linspace(0.0, 1.0, n), np.full(n, np.nan), np.zeros(n), -np.zeros(n),
            np.where(np.arange(n) % 3 == 0, np.inf, -1e-300)]
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), ["a", "b", "c", "d", "e"], cols)
    assert _read(path) == "a,b,c,d,e\n" + csv_rows(cols)


def test_profile_tol_below_the_rtol_floor_is_quiet(tmp_path):
    # the far field floors rtol as LSODA would, but without its warning
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tol": 1e-15, "s_max": 60.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(["profile", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0


def test_profile_tol_far_below_the_rtol_floor_passes_the_handoff(tmp_path):
    # the handoff is checked against the stages' floored rtol, not tol: at
    # tol 1e-20 the two g differ by about 1 part in 10^15
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"tol": 1e-20, "s_max": 60.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_command(["profile", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0


@pytest.mark.parametrize("argv,model", [
    (["profile", "--m", "1e-9"], "n (--n) = 3, m (--m) = 1e-09, beta (--beta) = -1.0, "
                                 "eta (--eta) = 1.0"),
    (["expansion", "--m", "1e-9"], "n (--n) = 3, m (--m) = 1e-09, beta (--beta) = -0.5, "
                                   "eta (--eta) = 2.0"),
    (["evolve", "--m", "1e-9"], "n (--n) = 3, m (--m) = 1e-09, beta (--beta) = -1.0"),
])
def test_failing_profile_stage_names_the_model(tmp_path, capsys, argv, model):
    assert run_command(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("error: inner integration failed at r=1.000000e-06: Required step size is "
                   f"less than spacing between numbers. (model {model})\n")
