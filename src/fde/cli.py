"""Command line entry point.

Subcommands: constants, profile, expansion, evolve, contract, converge,
validate-barenblatt.  Each reads a JSON config and applies flag overrides
to it.  ``_CONFIG`` is the config's one schema: loading walks it once,
rejecting unknown keys, filling defaults and typing every value, and each
error names the dotted key; handlers then read plain values.  Each writes
CSV artifacts plus a JSON report with machine-checkable verdicts,
atomically (temp + rename).  Exit codes: 0 completed/PASS, 2 FAIL,
3 INCONCLUSIVE, 1 usage or config error.  CSV numbers carry 17 significant digits so regression diffs
are meaningful; an identical config gives byte-identical files.
"""

from __future__ import annotations

import argparse
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


_KINDS = {bool: "true or false", str: "a string", int: "an integer", float: "a number",
          list: "a list"}


def _typed(spec, val, where: str = ""):
    """``val`` checked and typed against ``spec``, its entry in a config table.

    A dict ``spec`` is a block: a key it lacks is rejected by its dotted path,
    and a key the config leaves out takes its default.  A leaf takes the type
    of its default; where there is no default, ``spec`` is the type itself.  A
    None default, or none at all, lets the value be null; a None default is a
    float otherwise.  Every dict and list is built afresh, so no call can write
    into the table.
    """
    if isinstance(spec, dict):
        if not isinstance(val, dict):
            raise ConfigError(f"config key {where} must be an object")
        prefix = f"{where}." if where else ""
        for key in val:
            if key not in spec:
                raise ConfigError(f"unknown config key: {prefix}{key}")
        return {k: _typed(s, val.get(k, {} if isinstance(s, dict) else s), prefix + k)
                for k, s in spec.items() if k in val or not isinstance(s, type)}
    typ = spec if isinstance(spec, type) else float if spec is None else type(spec)
    if val is None and (spec is None or isinstance(spec, type)):
        return None
    if typ is list and isinstance(val, list):
        item = spec[0] if isinstance(spec, list) else 0.0
        return [_typed(item, v, f"{where}[{i}]") for i, v in enumerate(val)]
    try:
        if typ in (bool, str, list) and not isinstance(val, typ):
            raise TypeError
        return typ(val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config key {where} must be {_KINDS[typ]}, got {val!r}") from None


def _keys(names: str, **defaults) -> dict:
    """A config block holding every key in ``names``: its default, or float if it has none."""
    return {k: defaults.get(k, float) for k in names.split()}


_INITIAL = "kind lam lam1 lam2 theta lam0 amplitude r_lo r_hi k T value table_r table_u"
_BOUNDARY = "kind lam k T value"
_WEIGHT = "kind mu lam3 power exponent"

# per subcommand: every config key it accepts, with its default (whose type
# the value must have), or with its type where it has no default
_CONFIG = {
    "constants": {"n": 3, "m": 0.2, "beta": -1.0, "mu": float},
    "profile": {"n": 3, "m": 0.2, "beta": -1.0, "eta": 1.0, "r0": 1e-6,
                "r_switch": 10.0, "s_max": 200.0, "tol": 1e-10,
                "grid": {"r_min": 1e-3, "r_max": 1e3, "count": 121}},
    "expansion": {"n": 3, "m": 0.25, "beta": -0.5, "eta": 2.0, "s_max": 200.0,
                  "tol": 1e-10, "k0_s_max": 400.0},
    "evolve": {"n": 3, "m": 0.2, "beta": -1.0, "form": "physical",
               "grid": {"R": math.e ** 2, "N": 401},
               "initial": _keys(_INITIAL, kind="f_lambda", lam=1.0,
                            table_r=list, table_u=list),
               "boundary": _keys(_BOUNDARY, kind="U_lambda", lam=1.0),
               "dt": 1e-3, "horizon": 0.1, "snapshots": 11, "newton_tol": 1e-11,
               "monitors": {"enabled": False, "lam1": None, "lam2": None},
               "profile_tol": 1e-10},
    "contract": {"n": 3, "m": 0.2, "beta": -1.0, "grid": {"R": math.e ** 5, "N": 2001},
                 "lam1": 2.0, "lam2": 1.0, "weight": _keys(_WEIGHT, kind="power_mu", mu=0.25),
                 "dt": 2e-3, "horizon": 1.0, "snapshots": 21,
                 "half_resolution": True, "profile_tol": 1e-10},
    "converge": {"n": 3, "m": 0.2, "beta": -1.0, "grid": {"R": math.e ** 1.7, "N": 3001},
                 "lam0": 1.0, "lam1": 1.0, "lam2": 0.4,
                 "bump": {"amplitude": 0.10, "r_lo": 0.2, "r_hi": 2.0},
                 "weight": _keys(_WEIGHT, kind="profile_gamma2", lam3=1.0),
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

# flag -> (type, config key path); also the order of the flags in --help
_FLAGS = {
    "n": (int, ("n",)), "m": (float, ("m",)), "beta": (float, ("beta",)),
    "eta": (float, ("eta",)), "mu": (float, ("mu",)),
    "lambda0": (float, ("lam0",)), "lambda1": (float, ("lam1",)),
    "lambda2": (float, ("lam2",)), "lambda3": (float, ("weight", "lam3")),
    "R": (float, ("grid", "R")), "N": (int, ("grid", "N")),
    "dt": (float, ("dt",)), "horizon": (float, ("horizon",)), "smax": (float, ("s_max",)),
}


def _load_config(args, command: str) -> dict:
    table = _CONFIG[command]
    given = dict()
    if args.config:
        with open(args.config) as f:
            given = json.load(f)
        if not isinstance(given, dict):
            raise ConfigError(f"{args.config} must hold a JSON object, not {type(given).__name__}")
    cfg = _typed(table, given)
    for flag, (_, path) in _FLAGS.items():
        val = getattr(args, flag)
        if val is None:
            continue
        block = table
        for key in path[:-1]:
            block = block.get(key, {})
        if path[-1] not in block:
            # validate-barenblatt keeps its radius at the top, not in a grid block
            if path[-1] not in table:
                raise ConfigError(f"flag --{flag} does not apply to {command}")
            path = path[-1:]
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = val
    return cfg


def _model(cfg) -> ModelParams:
    return ModelParams(n=cfg["n"], m=cfg["m"], beta=cfg["beta"])


def _profile_for(cfg):
    """The eta = 1 profile of the configured model."""
    return compute_profile(ProfileRequest(params=_model(cfg), eta=1.0,
                                          tol=cfg.get("profile_tol", 1e-10)))


# -- subcommand handlers -------------------------------------------------


def _cmd_constants(cfg, out: str) -> int:
    p = _model(cfg)
    c = derive_constants(p)
    print(json.dumps(_json_safe(c.as_dict()), indent=2, sort_keys=True))
    if out:
        payload = {"constants": _json_safe(c.as_dict()),
                   "regime": _json_safe(validate_regime(p, cfg.get("mu")).as_dict())}
        _write_report(os.path.join(out, "constants.json"), payload)
    return _EXIT_OK


def _cmd_profile(cfg, out: str) -> int:
    p = _model(cfg)
    req = ProfileRequest(params=p, eta=cfg["eta"], r0=cfg["r0"], r_switch=cfg["r_switch"],
                         s_max=cfg["s_max"], tol=cfg["tol"])
    prof = compute_profile(req)
    g = cfg["grid"]
    r = np.geomspace(g["r_min"], g["r_max"], g["count"])
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
    eta = cfg["eta"]
    coeffs = asymptotics.compute_K0(p, eta=eta, beta_tilde=c.beta_tilde,
                                    s_max=cfg["k0_s_max"], tol=cfg["tol"])
    req = ProfileRequest(params=p, eta=eta, s_max=cfg["s_max"], tol=cfg["tol"])
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
    dt, horizon = cfg["dt"], cfg["horizon"]
    for key, val in (("dt", dt), ("horizon", horizon)):
        if not 0.0 < val < math.inf:
            raise ConfigError(f"{key} must be positive and finite, got {val!r}")
    grid = evolution.build_grid(cfg["grid"]["R"], cfg["grid"]["N"])
    snaps = np.linspace(0.0, horizon, cfg["snapshots"])
    return grid, evolution.EvolutionConfig(
        grid=grid, params=p, form=form, initial=initial, boundary=boundary,
        dt=dt, horizon=horizon, snapshot_times=snaps,
        profile=profile,
        newton_tol=cfg.get("newton_tol", 1e-11),
        monitors=monitors["enabled"], lam1=monitors["lam1"], lam2=monitors["lam2"],
    )


def _cmd_evolve(cfg, out: str) -> int:
    init = evolution.InitialSpec(**cfg["initial"])
    bc = evolution.BoundarySpec(**cfg["boundary"])
    needs_profile = (init.kind in ("f_lambda", "blend", "bump")
                     or bc.kind in ("f_lambda", "U_lambda")
                     or cfg["monitors"]["enabled"])
    profile = _profile_for(cfg) if needs_profile else None
    grid, ecfg = _build_evolution(cfg, cfg["form"], init, bc, cfg["monitors"], profile)
    traj = evolution.run(ecfg)
    t_col, r_col, u_col = [], [], []
    for k, t in enumerate(traj.times):
        t_col.append(np.full(grid.N, t))
        r_col.append(grid.r)
        u_col.append(traj.fields[k])
    _write_csv(os.path.join(out, "snapshots.csv"), ["t", "r", "u"],
               [np.concatenate(t_col), np.concatenate(r_col), np.concatenate(u_col)])
    report = {
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


def _make_weight(wcfg, prof):
    """The configured weight; a key left out or null stays unset, for WeightSpec to reject."""
    kw = {k: v for k, v in wcfg.items() if v is not None}
    kw.setdefault("lam3", 1.0)
    return measures.WeightSpec(params=prof.request.params,
                               constants=prof.constants, profile=prof, **kw)


def _cmd_contract(cfg, out: str) -> int:
    prof = _profile_for(cfg)
    weight = _make_weight(cfg["weight"], prof)
    lam1, lam2 = cfg["lam1"], cfg["lam2"]
    mon = {"enabled": True, "lam1": lam1, "lam2": lam2}
    bc = evolution.BoundarySpec(kind="U_lambda", lam=lam1)

    def pair(N):
        sub = dict(cfg)
        sub["grid"] = dict(cfg["grid"], N=N)
        return [_build_evolution(sub, "physical",
                                 evolution.InitialSpec(kind="f_lambda", lam=lam), bc, mon, prof)
                for lam in (lam1, lam2)]

    runs = pair(cfg["grid"]["N"])
    if cfg["half_resolution"]:
        runs += pair(cfg["grid"]["N"] // 2 + 1)
    trajs = evolution.run_lockstep([ecfg for _, ecfg in runs])
    grid, t1, t2 = runs[0][0], trajs[0], trajs[1]
    half = hgrid = None
    if cfg["half_resolution"]:
        hgrid, half = runs[2][0], (trajs[2], trajs[3])
    rep = measures.contraction_report(t1, t2, weight, grid, half_pair=half, half_grid=hgrid)
    _write_csv(os.path.join(out, "contraction.csv"),
               ["t", "norm", "norm_positive_part", "slack"],
               [rep["times"], rep["series"], rep["series_positive_part"], rep["slack"]])
    _write_report(os.path.join(out, "contract_report.json"), {
        "verdict": rep["verdict"],
        "verdict_positive_part": rep["verdict_positive_part"],
        "max_increase": rep["max_increase"],
        "note": rep["note"],
    })
    return {"PASS": _EXIT_OK, "FAIL": _EXIT_FAIL}.get(rep["verdict"], _EXIT_INCONCLUSIVE)


def _cmd_converge(cfg, out: str) -> int:
    prof = _profile_for(cfg)
    weight = _make_weight(cfg["weight"], prof)
    lam0 = cfg["lam0"]
    if cfg["horizon"] is None:
        cfg["horizon"] = 5.0 / abs(prof.request.params.beta)
    init = evolution.InitialSpec(kind="bump", lam0=lam0, **cfg["bump"])
    bc = evolution.BoundarySpec(kind="f_lambda", lam=lam0)
    mon = {"enabled": True, "lam1": cfg["lam1"], "lam2": cfg["lam2"]}
    grid, ecfg = _build_evolution(cfg, "rescaled", init, bc, mon, prof)
    traj = evolution.run(ecfg)
    rep = measures.convergence_report(
        traj, prof, lam0, weight, grid, K_compact=tuple(cfg["K_compact"]),
        decrease_factor=cfg["decrease_factor"], e_inf_threshold=cfg["e_inf_threshold"])
    _write_csv(os.path.join(out, "convergence.csv"),
               ["t", "e1", "e_inf"], [rep["times"], rep["e1"], rep["e_inf"]])
    _write_report(os.path.join(out, "converge_report.json"), {
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
    k, T, horizon, R = cfg["k"], cfg["T"], cfg["horizon"], cfg["R"]
    init = evolution.InitialSpec(kind="barenblatt", k=k, T=T)
    bc = evolution.BoundarySpec(kind="barenblatt", k=k, T=T)

    def solve(grid, dt, horizon=horizon, initial=init, boundary=bc, profile=None):
        """One physical-form run from 0 to horizon, snapshotted at both ends."""
        return evolution.run(evolution.EvolutionConfig(
            grid=grid, params=p, form="physical", initial=initial, boundary=boundary,
            dt=dt, horizon=horizon, snapshot_times=np.array([0.0, horizon]),
            profile=profile))

    n_list, dt0 = cfg["N_list"], cfg["dt0"]
    errs = []
    for N in n_list:
        grid = evolution.build_grid(R, N)
        traj = solve(grid, dt0 * ((n_list[0] - 1) / (N - 1)) ** 2)
        exact = evolution.barenblatt_oracle(grid.r, traj.times[-1], k, T, p)
        errs.append(float(np.max(np.abs(traj.fields[-1] - exact))))
    sp_orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]

    # temporal: successive dt differences on a fixed fine grid cancel the spatial floor
    gridT = evolution.build_grid(R, cfg["temporal_N"])
    fields = [solve(gridT, dt).fields[-1] for dt in cfg["temporal_dt_list"]]
    diffs = [float(np.max(np.abs(fields[i] - fields[i + 1]))) for i in range(len(fields) - 1)]
    t_orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]

    # exact-U_lambda tracking at the pinned (ds, dt)
    prof = _profile_for(cfg)
    lam = cfg["lam"]
    gridU = evolution.build_grid(math.e, cfg["track_N"])
    traj = solve(gridU, cfg["track_dt"], cfg["track_horizon"],
                 evolution.InitialSpec(kind="f_lambda", lam=lam),
                 evolution.BoundarySpec(kind="U_lambda", lam=lam), prof)
    exact = prof.eval_U_lambda(lam, gridU.r, traj.times[-1])
    track_err = float(np.max(np.abs(traj.fields[-1] - exact)))

    ok = (all(1.7 <= o <= 2.3 for o in sp_orders)
          and all(0.8 <= o <= 1.2 for o in t_orders)
          and track_err <= 1e-6)
    _write_csv(os.path.join(out, "barenblatt_refinement.csv"),
               ["N", "err"], [np.asarray(n_list, dtype=float), np.asarray(errs)])
    _write_report(os.path.join(out, "validate_report.json"), {
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
        for flag, (typ, _) in _FLAGS.items():
            sp.add_argument(f"--{flag}", type=typ)
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
