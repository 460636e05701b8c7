"""CLI plumbing: exit codes, strict configs, artifacts, determinism."""

import json
import math
import os
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fde import cli, evolution
from fde.cli import run_command


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


def test_unknown_flag_usage_error(capsys):
    assert run_command(["constants", "--does-not-exist", "1"]) == 1


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
    monkeypatch.setattr(evolution, "run_lockstep", solver)


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


def _wrong(spec):
    """Values of a type other than the one a table entry asks for."""
    typ = spec if isinstance(spec, type) else float if spec is None else type(spec)
    if typ is bool:
        return st.one_of(st.sampled_from(["true", "false"]), _NUMBERS, _LISTS, _OBJECTS)
    if typ is str:
        return st.one_of(_NUMBERS, _LISTS, _OBJECTS)
    if typ is list:
        return st.one_of(_LETTERS, _NUMBERS, _OBJECTS, st.lists(_LETTERS, min_size=1))
    return st.one_of(_LETTERS, _LISTS, _OBJECTS)


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


@pytest.mark.parametrize("command", ["contract", "converge"])
def test_weight_built_before_stepping(tmp_path, capsys, monkeypatch, command):
    def solver(*args, **kwargs):
        pytest.fail("runs were stepped")
    monkeypatch.setattr(evolution, "run_lockstep", solver)
    monkeypatch.setattr(evolution, "run", solver)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"weight": {"kind": "power_mu", "mu": 5.0}}))
    assert run_command([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "power_mu" in err


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
