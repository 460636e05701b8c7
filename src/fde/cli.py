"""Command line entry point.

Subcommands: constants, profile, expansion, evolve, contract, converge,
validate-barenblatt.  Each reads a JSON config (strict: unknown keys are
rejected with their path) merged with flag overrides, writes CSV artifacts
plus a JSON report with machine-checkable verdicts, atomically (temp +
rename).  Exit codes: 0 completed/PASS, 2 FAIL, 3 INCONCLUSIVE, 1 usage or
config error.  CSV numbers carry 17 significant digits so regression diffs
are meaningful; identical config + seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import asymptotics, evolution, measures
from .params import ModelParams, ParameterError, derive_constants, validate_regime
from .profile import ProfileError, ProfileRequest, check_profile_invariants, compute_profile

SCHEMA_VERSION = 1

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_FAIL = 2
_EXIT_INCONCLUSIVE = 3


class ConfigError(ValueError):
    pass


def _write_atomic(path: str, chunks):
    """Write the strings in ``chunks`` to path via a temp file and a rename."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list, columns: list):
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    cols = [np.asarray(c, dtype=float) for c in columns]

    # formatted and written a block of rows at a time, so memory stays small
    def blocks():
        yield ",".join(header) + "\n"
        for i in range(0, len(cols[0]), 512):
            yield "".join([row % v for v in zip(*[c[i:i + 512].tolist() for c in cols])])

    _write_atomic(path, blocks())


def _write_report(path: str, payload: dict):
    payload = {"schema": SCHEMA_VERSION, **payload}
    _write_atomic(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _check_keys(cfg: dict, allowed: dict, path: str = ""):
    """Strict schema walk: every key must be known; nested dicts recurse."""
    for key, val in cfg.items():
        where = f"{path}.{key}" if path else key
        if key not in allowed:
            raise ConfigError(f"unknown config key: {where}")
        sub = allowed[key]
        if isinstance(sub, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {where} must be an object")
            _check_keys(val, sub, where)


_GRID_KEYS = {"R": None, "N": None}
_INITIAL_KEYS = {"kind": None, "lam": None, "lam1": None, "lam2": None,
                 "theta": None, "lam0": None, "amplitude": None, "r_lo": None,
                 "r_hi": None, "k": None, "T": None, "value": None,
                 "table_r": None, "table_u": None}
_BOUNDARY_KEYS = {"kind": None, "lam": None, "k": None, "T": None, "value": None}
_WEIGHT_KEYS = {"kind": None, "mu": None, "lam3": None, "power": None, "exponent": None}

_SCHEMAS = {
    "constants": {"n": None, "m": None, "beta": None, "mu": None, "seed": None},
    "profile": {"n": None, "m": None, "beta": None, "eta": None, "r0": None,
                "r_switch": None, "s_max": None, "tol": None, "seed": None,
                "grid": {"r_min": None, "r_max": None, "count": None}},
    "expansion": {"n": None, "m": None, "beta": None, "eta": None, "s_max": None,
                  "tol": None, "k0_s_max": None, "seed": None},
    "evolve": {"n": None, "m": None, "beta": None, "form": None, "grid": _GRID_KEYS,
               "initial": _INITIAL_KEYS, "boundary": _BOUNDARY_KEYS, "dt": None,
               "horizon": None, "snapshots": None, "newton_tol": None,
               "monitors": {"enabled": None, "lam1": None, "lam2": None},
               "profile_tol": None, "seed": None},
    "contract": {"n": None, "m": None, "beta": None, "grid": _GRID_KEYS,
                 "lam1": None, "lam2": None, "weight": _WEIGHT_KEYS, "dt": None,
                 "horizon": None, "snapshots": None, "half_resolution": None,
                 "rescaled_variant": None, "profile_tol": None, "seed": None},
    "converge": {"n": None, "m": None, "beta": None, "grid": _GRID_KEYS,
                 "lam0": None, "lam1": None, "lam2": None,
                 "bump": {"amplitude": None, "r_lo": None, "r_hi": None},
                 "weight": _WEIGHT_KEYS, "dt": None, "horizon": None,
                 "snapshots": None, "K_compact": None, "decrease_factor": None,
                 "e_inf_threshold": None, "profile_tol": None, "seed": None},
    "validate-barenblatt": {"n": None, "m": None, "beta": None, "k": None,
                            "T": None, "horizon": None, "R": None,
                            "N_list": None, "dt0": None,
                            "temporal_N": None, "temporal_dt_list": None,
                            "lam": None, "track_N": None, "track_dt": None,
                            "track_horizon": None, "seed": None},
}

_DEFAULTS = {
    "constants": {"n": 3, "m": 0.2, "beta": -1.0},
    "profile": {"n": 3, "m": 0.2, "beta": -1.0, "eta": 1.0, "r0": 1e-6,
                "r_switch": 10.0, "s_max": 200.0, "tol": 1e-10,
                "grid": {"r_min": 1e-3, "r_max": 1e3, "count": 121}},
    "expansion": {"n": 3, "m": 0.25, "beta": -0.5, "eta": 2.0, "s_max": 200.0,
                  "tol": 1e-10, "k0_s_max": 400.0},
    "evolve": {"n": 3, "m": 0.2, "beta": -1.0, "form": "physical",
               "grid": {"R": math.e ** 2, "N": 401},
               "initial": {"kind": "f_lambda", "lam": 1.0},
               "boundary": {"kind": "U_lambda", "lam": 1.0},
               "dt": 1e-3, "horizon": 0.1, "snapshots": 11, "newton_tol": 1e-11,
               "monitors": {"enabled": False, "lam1": None, "lam2": None},
               "profile_tol": 1e-10},
    "contract": {"n": 3, "m": 0.2, "beta": -1.0, "grid": {"R": math.e ** 5, "N": 2001},
                 "lam1": 2.0, "lam2": 1.0, "weight": {"kind": "power_mu", "mu": 0.25},
                 "dt": 2e-3, "horizon": 1.0, "snapshots": 21,
                 "half_resolution": True, "rescaled_variant": False,
                 "profile_tol": 1e-10},
    "converge": {"n": 3, "m": 0.2, "beta": -1.0, "grid": {"R": math.e ** 1.7, "N": 3001},
                 "lam0": 1.0, "lam1": 1.0, "lam2": 0.4,
                 "bump": {"amplitude": 0.10, "r_lo": 0.2, "r_hi": 2.0},
                 "weight": {"kind": "profile_gamma2", "lam3": 1.0},
                 "dt": 5e-3, "horizon": None, "snapshots": 11,
                 "K_compact": [0.5, 2.0], "decrease_factor": 10.0,
                 "e_inf_threshold": None, "profile_tol": 1e-10},
    "validate-barenblatt": {"n": 3, "m": 0.2, "beta": -1.0, "k": 1.0, "T": 1.0,
                            "horizon": 0.25, "R": math.e, "N_list": [101, 201, 401],
                            "dt0": 8e-3, "temporal_N": 801,
                            "temporal_dt_list": [0.01, 0.005, 0.0025],
                            "lam": 20.0, "track_N": 201, "track_dt": 1e-4,
                            "track_horizon": 0.05},
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


_FLAG_MAP = {
    "n": ("n",), "m": ("m",), "beta": ("beta",), "eta": ("eta",), "mu": ("mu",),
    "lambda0": ("lam0",), "lambda1": ("lam1",), "lambda2": ("lam2",),
    "lambda3": ("weight", "lam3"), "R": ("grid", "R"), "N": ("grid", "N"),
    "dt": ("dt",), "horizon": ("horizon",), "smax": ("s_max",),
}


def _load_config(args, command: str) -> dict:
    cfg = dict()
    if args.config:
        with open(args.config) as f:
            cfg = json.load(f)
    _check_keys(cfg, _SCHEMAS[command])
    # deep copy: flag overrides below write into nested dicts
    merged = _merge(copy.deepcopy(_DEFAULTS[command]), cfg)
    for flag, path in _FLAG_MAP.items():
        val = getattr(args, flag, None)
        if val is None:
            continue
        schema = _SCHEMAS[command]
        for key in path:
            if key not in schema:
                raise ConfigError(f"flag --{flag} does not apply to {command}")
            schema = schema[key]
        node = merged
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = val
    # seed: env beats config; recorded in reports for reproducibility
    seed = os.environ.get("FDE_SEED")
    if seed is not None:
        merged["seed"] = int(seed)
    merged.setdefault("seed", 0)
    return merged


def _model(cfg) -> ModelParams:
    return ModelParams(n=int(cfg["n"]), m=float(cfg["m"]), beta=float(cfg["beta"]))


def _profile_for(cfg, eta=1.0, tol_key="profile_tol"):
    p = _model(cfg)
    return p, compute_profile(ProfileRequest(params=p, eta=eta,
                                             tol=float(cfg.get(tol_key, 1e-10))))


# -- subcommand handlers -------------------------------------------------


def _cmd_constants(cfg, out: str) -> int:
    p = _model(cfg)
    c = derive_constants(p)
    print(json.dumps(_json_safe(c.as_dict()), indent=2, sort_keys=True))
    if out:
        payload = {"constants": _json_safe(c.as_dict()), "seed": cfg["seed"],
                   "regime": _json_safe(validate_regime(p, cfg.get("mu")).as_dict())}
        _write_report(os.path.join(out, "constants.json"), payload)
    return _EXIT_OK


def _cmd_profile(cfg, out: str) -> int:
    p = _model(cfg)
    req = ProfileRequest(params=p, eta=float(cfg["eta"]), r0=float(cfg["r0"]),
                         r_switch=float(cfg["r_switch"]), s_max=float(cfg["s_max"]),
                         tol=float(cfg["tol"]))
    prof = compute_profile(req)
    g = cfg["grid"]
    r = np.geomspace(float(g["r_min"]), float(g["r_max"]), int(g["count"]))
    gv, gr = prof.eval_g(r)
    fv, fr = prof.eval_f(r)
    _write_csv(os.path.join(out, "profile_rg.csv"),
               ["r", "g", "g_r", "f", "f_r"], [r, gv, gr, fv, fr])
    far = prof.far
    h1 = far.h1 if far.h1 is not None else np.full_like(far.s, np.nan)
    _write_csv(os.path.join(out, "profile_far.csv"),
               ["s", "w", "w_s", "h", "h1"], [far.s, far.w, far.w_s, far.h, h1])
    inv = check_profile_invariants(prof)
    k = prof.k_estimate
    _write_report(os.path.join(out, "profile_summary.json"), {
        "seed": cfg["seed"],
        "K": k.K, "K_error_estimate": k.error_estimate, "K_method": k.method,
        "K_converged": k.converged,
        "growth_limits": {
            "ws_over_farfield_slope": inv["ws_ratio"],
            "w_over_s_over_farfield_slope": inv["w_over_s_ratio"],
            "g_origin_over_eta": inv["g_origin_ratio"],
        },
        "invariants": _json_safe(inv),
    })
    return _EXIT_OK if inv["ok"] and k.converged else _EXIT_FAIL


def _cmd_expansion(cfg, out: str) -> int:
    p = _model(cfg)
    c = derive_constants(p)
    eta = float(cfg["eta"])
    bt = c.beta_tilde
    coeffs = asymptotics.compute_K0(p, eta=eta, beta_tilde=bt,
                                    s_max=float(cfg["k0_s_max"]), tol=float(cfg["tol"]))
    req = ProfileRequest(params=p, eta=eta, s_max=float(cfg["s_max"]), tol=float(cfg["tol"]))
    prof = compute_profile(req)
    rep = asymptotics.expansion_residual_report(prof, coeffs)
    cols = [rep["s"], rep["normalized"]]
    header = ["s", "normalized"]
    for o in asymptotics.ORDERS:
        header += [f"series_{o}", f"residual_{o}"]
        cols += [rep["partial_sums"][o], rep["residuals"][o]]
    _write_csv(os.path.join(out, "expansion.csv"), header, cols)
    verdict = bool(rep["full_order_decreasing"]
                   and (c.yamabe_case or rep["a3_rel_dev"] <= 0.05))
    _write_report(os.path.join(out, "expansion_report.json"), {
        "seed": cfg["seed"],
        "K0": coeffs.K0, "K_11": coeffs.K_11, "K_error": coeffs.K_error,
        "a1": coeffs.a1, "a2_eta_beta": coeffs.a2_eta_beta, "a3": coeffs.a3,
        "a3_hat": rep["a3_hat"], "a3_rel_dev": rep["a3_rel_dev"],
        "full_order_decreasing": rep["full_order_decreasing"],
        "slope_s_rem_full": rep["slope_s_rem_full"],
        "a2_sign_flip_suspected": rep["a2_sign_flip_suspected"],
        "verdict": "PASS" if verdict else "FAIL",
    })
    return _EXIT_OK if verdict else _EXIT_FAIL


def _build_evolution(cfg, form, initial, boundary, monitors, profile):
    p = _model(cfg)
    dt, horizon = float(cfg["dt"]), float(cfg["horizon"])
    for key, val in (("dt", dt), ("horizon", horizon)):
        if not 0.0 < val < math.inf:
            raise ConfigError(f"{key} must be positive and finite, got {val!r}")
    grid = evolution.build_grid(float(cfg["grid"]["R"]), int(cfg["grid"]["N"]))
    snaps = np.linspace(0.0, horizon, int(cfg["snapshots"]))
    return p, grid, evolution.EvolutionConfig(
        grid=grid, params=p, form=form, initial=initial, boundary=boundary,
        dt=dt, horizon=horizon, snapshot_times=snaps,
        profile=profile, newton_tol=float(cfg.get("newton_tol", 1e-11)),
        monitors=monitors.get("enabled", False) if isinstance(monitors, dict) else monitors,
        lam1=(monitors.get("lam1") if isinstance(monitors, dict) else None),
        lam2=(monitors.get("lam2") if isinstance(monitors, dict) else None),
    )


def _cmd_evolve(cfg, out: str) -> int:
    init = evolution.InitialSpec(**{k: (np.asarray(v) if k.startswith("table") and v is not None else v)
                                    for k, v in cfg["initial"].items()})
    bc = evolution.BoundarySpec(**cfg["boundary"])
    needs_profile = (init.kind in ("f_lambda", "blend", "bump")
                     or bc.kind in ("f_lambda", "U_lambda")
                     or cfg["monitors"].get("enabled", False))
    profile = None
    if needs_profile:
        _, profile = _profile_for(cfg)
    p, grid, ecfg = _build_evolution(cfg, cfg["form"], init, bc, cfg["monitors"], profile)
    traj = evolution.run(ecfg)
    t_col, r_col, u_col = [], [], []
    for k, t in enumerate(traj.times):
        t_col.append(np.full(grid.N, t))
        r_col.append(grid.r)
        u_col.append(traj.fields[k])
    _write_csv(os.path.join(out, "snapshots.csv"), ["t", "r", "u"],
               [np.concatenate(t_col), np.concatenate(r_col), np.concatenate(u_col)])
    report = {
        "seed": cfg["seed"],
        "times": _json_safe(traj.times),
        "newton_iters_total": traj.newton_iters_total,
        "rejections": traj.rejections,
        "trunc_time": traj.trunc_time,
        "trunc_space": traj.trunc_space,
    }
    if ecfg.monitors:
        report["aronson_benilan"] = _json_safe(evolution.aronson_benilan_monitor(traj))
        report["ordering"] = _json_safe(evolution.ordering_monitor(traj))
    _write_report(os.path.join(out, "evolve_report.json"), report)
    return _EXIT_OK


def _make_weight(wcfg, p, c, prof):
    kind = wcfg["kind"]
    kw = dict(kind=kind, params=p, constants=c)
    if kind == "power_mu":
        kw["mu"] = float(wcfg["mu"])
    else:
        kw["lam3"] = float(wcfg.get("lam3", 1.0))
        kw["profile"] = prof
        if kind == "custom_power_times_profile":
            kw["power"] = float(wcfg["power"])
            kw["exponent"] = float(wcfg["exponent"])
    return measures.WeightSpec(**kw)


def _cmd_contract(cfg, out: str) -> int:
    p, prof = _profile_for(cfg)
    c = derive_constants(p)
    lam1, lam2 = float(cfg["lam1"]), float(cfg["lam2"])
    mon = {"enabled": True, "lam1": lam1, "lam2": lam2}
    bc = evolution.BoundarySpec(kind="U_lambda", lam=lam1)

    def pair(N):
        sub = dict(cfg)
        sub["grid"] = dict(cfg["grid"], N=N)
        _, grid, c1 = _build_evolution(sub, "physical",
                                       evolution.InitialSpec(kind="f_lambda", lam=lam1),
                                       bc, mon, prof)
        _, _, c2 = _build_evolution(sub, "physical",
                                    evolution.InitialSpec(kind="f_lambda", lam=lam2),
                                    bc, mon, prof)
        return grid, evolution.run(c1), evolution.run(c2)

    grid, t1, t2 = pair(int(cfg["grid"]["N"]))
    half = None
    hgrid = None
    if cfg["half_resolution"]:
        hgrid, h1, h2 = pair(int(cfg["grid"]["N"]) // 2 + 1)
        half = (h1, h2)
    weight = _make_weight(cfg["weight"], p, c, prof)
    rep = measures.contraction_report(t1, t2, weight, grid, half_pair=half,
                                      half_grid=hgrid,
                                      rescaled_variant=bool(cfg["rescaled_variant"]))
    _write_csv(os.path.join(out, "contraction.csv"),
               ["t", "norm", "norm_positive_part", "slack"],
               [rep["times"], rep["series"], rep["series_positive_part"], rep["slack"]])
    _write_report(os.path.join(out, "contract_report.json"), {
        "seed": cfg["seed"],
        "verdict": rep["verdict"],
        "verdict_positive_part": rep["verdict_positive_part"],
        "max_increase": rep["max_increase"],
        "note": rep["note"],
    })
    return {"PASS": _EXIT_OK, "FAIL": _EXIT_FAIL}.get(rep["verdict"], _EXIT_INCONCLUSIVE)


def _cmd_converge(cfg, out: str) -> int:
    p, prof = _profile_for(cfg)
    c = derive_constants(p)
    lam0 = float(cfg["lam0"])
    if cfg.get("horizon") is None:
        cfg["horizon"] = 5.0 / abs(p.beta)
    bump = cfg["bump"]
    init = evolution.InitialSpec(kind="bump", lam0=lam0,
                                 amplitude=float(bump["amplitude"]),
                                 r_lo=float(bump["r_lo"]), r_hi=float(bump["r_hi"]))
    bc = evolution.BoundarySpec(kind="f_lambda", lam=lam0)
    mon = {"enabled": True, "lam1": float(cfg["lam1"]), "lam2": float(cfg["lam2"])}
    _, grid, ecfg = _build_evolution(cfg, "rescaled", init, bc, mon, prof)
    traj = evolution.run(ecfg)
    weight = _make_weight(cfg["weight"], p, c, prof)
    rep = measures.convergence_report(
        traj, prof, lam0, weight, grid, K_compact=tuple(cfg["K_compact"]),
        decrease_factor=float(cfg["decrease_factor"]),
        e_inf_threshold=cfg.get("e_inf_threshold"))
    _write_csv(os.path.join(out, "convergence.csv"),
               ["t", "e1", "e_inf"], [rep["times"], rep["e1"], rep["e_inf"]])
    _write_report(os.path.join(out, "converge_report.json"), {
        "seed": cfg["seed"],
        "verdict": rep["verdict"],
        "e1_factor": rep["e1_factor"],
        "e_inf_factor": rep["e_inf_factor"],
        "e_inf_final": rep["e_inf_final"],
        "e_inf_threshold": rep["e_inf_threshold"],
        "note": rep["note"],
    })
    return _EXIT_OK if rep["verdict"] == "PASS" else _EXIT_FAIL


def _cmd_validate_barenblatt(cfg, out: str) -> int:
    p = _model(cfg)
    k, T, horizon = float(cfg["k"]), float(cfg["T"]), float(cfg["horizon"])
    R = float(cfg["R"])
    init = evolution.InitialSpec(kind="barenblatt", k=k, T=T)
    bc = evolution.BoundarySpec(kind="barenblatt", k=k, T=T)

    def solve(N, dt):
        grid = evolution.build_grid(R, N)
        ecfg = evolution.EvolutionConfig(
            grid=grid, params=p, form="physical", initial=init, boundary=bc,
            dt=dt, horizon=horizon, snapshot_times=np.array([0.0, horizon]))
        traj = evolution.run(ecfg)
        exact = evolution.barenblatt_oracle(grid.r, traj.times[-1], k, T, p)
        return grid, traj, float(np.max(np.abs(traj.fields[-1] - exact)))

    n_list = [int(v) for v in cfg["N_list"]]
    dt0 = float(cfg["dt0"])
    errs = []
    for N in n_list:
        scale = ((n_list[0] - 1) / (N - 1)) ** 2
        _, _, err = solve(N, dt0 * scale)
        errs.append(err)
    sp_orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]

    # temporal: successive dt differences on a fixed fine grid cancel the spatial floor
    fields = []
    gridT = evolution.build_grid(R, int(cfg["temporal_N"]))
    for dt in cfg["temporal_dt_list"]:
        ecfg = evolution.EvolutionConfig(
            grid=gridT, params=p, form="physical", initial=init, boundary=bc,
            dt=float(dt), horizon=horizon, snapshot_times=np.array([0.0, horizon]))
        fields.append(evolution.run(ecfg).fields[-1])
    diffs = [float(np.max(np.abs(fields[i] - fields[i + 1]))) for i in range(len(fields) - 1)]
    t_orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]

    # exact-U_lambda tracking at the pinned (ds, dt)
    p_par, prof = _profile_for(cfg)
    lam = float(cfg["lam"])
    gridU = evolution.build_grid(math.e, int(cfg["track_N"]))
    ecfg = evolution.EvolutionConfig(
        grid=gridU, params=p, form="physical",
        initial=evolution.InitialSpec(kind="f_lambda", lam=lam),
        boundary=evolution.BoundarySpec(kind="U_lambda", lam=lam),
        dt=float(cfg["track_dt"]), horizon=float(cfg["track_horizon"]),
        snapshot_times=np.array([0.0, float(cfg["track_horizon"])]), profile=prof)
    traj = evolution.run(ecfg)
    exact = prof.eval_U_lambda(lam, gridU.r, traj.times[-1])
    track_err = float(np.max(np.abs(traj.fields[-1] - exact)))

    ok = (all(1.7 <= o <= 2.3 for o in sp_orders)
          and all(0.8 <= o <= 1.2 for o in t_orders)
          and track_err <= 1e-6)
    _write_csv(os.path.join(out, "barenblatt_refinement.csv"),
               ["N", "err"], [np.asarray(n_list, dtype=float), np.asarray(errs)])
    _write_report(os.path.join(out, "validate_report.json"), {
        "seed": cfg["seed"],
        "spatial_errors": errs,
        "spatial_orders": sp_orders,
        "temporal_diffs": diffs,
        "temporal_orders": t_orders,
        "u_lambda_track_error": track_err,
        "verdict": "PASS" if ok else "FAIL",
    })
    return _EXIT_OK if ok else _EXIT_FAIL


_HANDLERS = {
    "constants": _cmd_constants,
    "profile": _cmd_profile,
    "expansion": _cmd_expansion,
    "evolve": _cmd_evolve,
    "contract": _cmd_contract,
    "converge": _cmd_converge,
    "validate-barenblatt": _cmd_validate_barenblatt,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fde",
        description="Singular self-similar solutions of the fast diffusion "
                    "equation: profiles, expansions, evolution and weighted-L1 checks.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", default="fde_out", help="output directory")
        sp.add_argument("--n", type=int)
        sp.add_argument("--m", type=float)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--eta", type=float)
        sp.add_argument("--mu", type=float)
        for i in range(4):
            sp.add_argument(f"--lambda{i}", type=float)
        sp.add_argument("--R", type=float)
        sp.add_argument("--N", type=int)
        sp.add_argument("--dt", type=float)
        sp.add_argument("--horizon", type=float)
        sp.add_argument("--smax", type=float)
    return ap


def run_command(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return _EXIT_USAGE if e.code not in (0, None) else _EXIT_OK
    try:
        cfg = _load_config(args, args.command)
        return _HANDLERS[args.command](cfg, args.out)
    except (ConfigError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return _EXIT_USAGE
    except (ParameterError, ProfileError, evolution.EvolutionError,
            measures.MeasureError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_USAGE


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
