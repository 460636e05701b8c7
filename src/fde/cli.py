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
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import asymptotics, evolution, measures
from .params import ModelParams, ParameterError, derive_constants, validate_regime
from .profile import (_FAR_DS, ProfileError, ProfileRequest, check_profile_invariants,
                      compute_profile, estimate_K)

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
    blocks = ("".join([row % v for v in zip(*[c[i:i + 512].tolist() for c in cols])])
              for i in range(0, len(cols[0]), 512))
    _write_atomic(path, itertools.chain([",".join(header) + "\n"], blocks))


def _dumps(obj) -> str:
    """obj as indented JSON with sorted keys; a numpy array or scalar goes in
    as its Python value (tolist() of a numpy scalar is its item())."""
    return json.dumps(obj, indent=2, sort_keys=True, default=lambda v: v.tolist())


def _write_report(path: str, payload: dict):
    _write_atomic(path, [_dumps({"schema": SCHEMA_VERSION, **payload}) + "\n"])


_KINDS = {bool: "true or false", str: "a string", int: "an integer", float: "a number",
          list: "a list"}


def _typed(spec, val, where: str = ""):
    """``val`` checked and typed against ``spec``, its entry in a config table.

    A dict ``spec`` is a block: a key it lacks is rejected by its dotted path,
    and a key the config leaves out takes its default.  A leaf takes the type
    of its default; where there is no default, ``spec`` is the type itself.  A
    None default, or none at all, lets the value be null; a None default is a
    float otherwise.  An integer key takes only an integer, and a float key an
    integer or a float; neither takes a bool or a string, and a float must be
    finite.  Every dict and list is built afresh, so no call can write into
    the table.
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
    try:  # a JSON true/false is a Python bool, and so an int
        if (not isinstance(val, (int, float) if typ is float else typ)
                or isinstance(val, bool) != (typ is bool)):
            raise TypeError
        val = typ(val)  # float() overflows on an integer beyond the float range
    except (TypeError, OverflowError):
        raise ConfigError(f"config key {where} must be {_KINDS[typ]}, got {val!r}") from None
    if typ is float and not math.isfinite(val):
        raise ConfigError(f"{where} must be finite, got {val!r}")
    return val


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
            path, block = path[-1:], table
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _typed(block[path[-1]], val, ".".join(path))
    return cfg


# most far-field nodes a command may ask for: the lattice has one node per
# _FAR_DS of s, and LSODA's step buffers grow with it (~11 steps per unit s)
_MAX_FAR_NODES = 250_000


def _check_far_nodes(cfg):
    """Refuse a far-field horizon, s_max or expansion's k0_s_max, whose node
    lattice would pass _MAX_FAR_NODES; called before any profile is built."""
    for key, name in (("s_max", "s_max (--smax)"), ("k0_s_max", "k0_s_max")):
        nodes = cfg.get(key, 0.0) / _FAR_DS
        if nodes > _MAX_FAR_NODES:
            raise ConfigError(f"{name} = {cfg[key]!r} needs {nodes:.3g} far-field nodes, "
                              f"over the limit of {_MAX_FAR_NODES}")


def _model(cfg) -> ModelParams:
    return ModelParams(n=cfg["n"], m=cfg["m"], beta=cfg["beta"])


def _profile_for(cfg, R: float, lams):
    """The eta = 1 profile of the configured model, for a command that
    evaluates f_lambda and U_lambda on [1/R, R] at the lambdas ``lams``.
    Those read g up to s = log R - log lambda (less at t > 0, as beta < 0),
    so the far field reaches to log R - log min(lams) over the lambdas set
    and > 0; the evaluation rejects a nonpositive one."""
    pos = [lam for lam in lams if lam is not None and lam > 0.0]
    reach = math.log(R) - math.log(min(pos)) if pos and R > 1.0 else None
    return compute_profile(ProfileRequest(params=_model(cfg), eta=1.0,
                                          tol=cfg.get("profile_tol", 1e-10)), reach=reach)


# -- subcommand handlers -------------------------------------------------


def _cmd_constants(cfg, out: str) -> int:
    p = _model(cfg)
    c = derive_constants(p)
    print(_dumps(c.as_dict()))
    if out:
        _write_report(os.path.join(out, "constants.json"), {
            "constants": c.as_dict(), "regime": validate_regime(p, cfg.get("mu")).as_dict()})
    return _EXIT_OK


def _cmd_profile(cfg, out: str) -> int:
    p = _model(cfg)
    g = cfg["grid"]
    if g["count"] < 1:
        raise ConfigError(f"grid.count must be >= 1, got {g['count']!r}")
    _check_far_nodes(cfg)
    req = ProfileRequest(params=p, eta=cfg["eta"], r0=cfg["r0"], r_switch=cfg["r_switch"],
                         s_max=cfg["s_max"], tol=cfg["tol"])
    prof = compute_profile(req)
    k = estimate_K(prof.far, p)
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
    _write_report(os.path.join(out, "profile_summary.json"), {
        "K": k.K, "K_error_estimate": k.error_estimate, "K_method": k.method,
        "K_converged": k.converged,
        "growth_limits": {
            "ws_over_farfield_slope": inv["ws_ratio"],
            "w_over_s_over_farfield_slope": inv["w_over_s_ratio"],
            "g_origin_over_eta": inv["g_origin_ratio"],
        },
        "invariants": inv,
        "inner_solver": {"nfev": prof.inner.nfev, "steps": prof.inner.steps},
        "far_solver": {"nfev": far.nfev, "steps": far.steps},
    })
    return _EXIT_OK if inv["ok"] and k.converged else _EXIT_FAIL


def _cmd_expansion(cfg, out: str) -> int:
    # the residual trend is judged on (s_max/2, s_max), which needs the
    # asymptotic regime, as the K extraction does
    if cfg["s_max"] < 50.0:
        raise ConfigError(f"s_max must be >= 50 for the expansion check, got {cfg['s_max']!r}")
    _check_far_nodes(cfg)
    p = _model(cfg)
    eta = cfg["eta"]
    coeffs = asymptotics.compute_K0(p, eta=eta, s_max=cfg["k0_s_max"], tol=cfg["tol"])
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
                   and (prof.constants.yamabe_case or rep["a3_rel_dev"] <= 0.05))
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


def _clock(cfg) -> dict:
    """dt, the snapshot times and newton_tol of cfg's runs, checked as each
    run checks them (step budget included), so that a command refuses a run
    before it builds a profile for it."""
    dt, horizon = cfg["dt"], cfg["horizon"]
    for key, val in (("dt", dt), ("horizon", horizon)):
        if not 0.0 < val < math.inf:
            raise ConfigError(f"{key} must be positive and finite, got {val!r}")
    if cfg["snapshots"] < 1:
        raise ConfigError(f"snapshots must be >= 1, got {cfg['snapshots']!r}")
    # one snapshot gives the rows at t = 0 and at the horizon, as two do
    snaps = np.linspace(0.0, horizon, max(cfg["snapshots"], 2))
    newton_tol = cfg.get("newton_tol", evolution.EvolutionConfig.newton_tol)
    return {"dt": dt, "snapshot_times": evolution.check_clock(dt, snaps, newton_tol),
            "newton_tol": newton_tol}


def _build_evolution(cfg, clock, form, initial, boundary, profile, band=(None, None),
                     monitors=False):
    """The run of cfg on its ``clock`` (from ``_clock``); ``band`` (lam1, lam2)
    checks the initial data, and ``monitors`` reduces the ordering and
    Aronson-Benilan monitors over the steps."""
    grid = evolution.build_grid(cfg["grid"]["R"], cfg["grid"]["N"])
    return evolution.EvolutionConfig(
        grid=grid, params=_model(cfg), form=form, initial=initial, boundary=boundary,
        profile=profile, monitors=monitors, lam1=band[0], lam2=band[1], **clock)


def _cmd_evolve(cfg, out: str) -> int:
    init = evolution.InitialSpec(**cfg["initial"])
    bc = evolution.BoundarySpec(**cfg["boundary"])
    mon = cfg["monitors"]
    needs_profile = (init.kind in ("f_lambda", "blend", "bump")
                     or bc.kind in ("f_lambda", "U_lambda") or mon["enabled"])
    band = (mon["lam1"], mon["lam2"]) if mon["enabled"] else (None, None)
    lams = (init.lam, init.lam1, init.lam2, init.lam0, bc.lam) + band
    clock = _clock(cfg)
    profile = _profile_for(cfg, cfg["grid"]["R"], lams) if needs_profile else None
    ecfg = _build_evolution(cfg, clock, cfg["form"], init, bc, profile, band, mon["enabled"])
    traj = evolution.run(ecfg, trunc=True)
    r = ecfg.grid.r
    _write_csv(os.path.join(out, "snapshots.csv"), ["t", "r", "u"],
               [np.repeat(traj.times, r.size), np.tile(r, traj.times.size), traj.fields.ravel()])
    report = {
        "times": traj.times,
        "newton_iters_total": traj.newton_iters_total,
        "rejections": traj.rejections,
        "trunc_time": traj.trunc_time,
        "trunc_space": traj.trunc_space,
    }
    report.update(traj.monitors or {})
    _write_report(os.path.join(out, "evolve_report.json"), report)
    return _EXIT_OK


def _weight_lam(wcfg):
    """The lambda of the profile f_lam3 that the configured weight reads, 1.0
    where lam3 is left out or null, or None for power_mu, which reads no profile."""
    if wcfg["kind"] == "power_mu":
        return None
    return 1.0 if wcfg.get("lam3") is None else wcfg["lam3"]


def _make_weight(wcfg, prof):
    """The configured weight, lam3 from ``_weight_lam``; a key left out or null stays unset."""
    kw = {k: v for k, v in wcfg.items() if v is not None}
    kw["lam3"] = _weight_lam(wcfg)
    return measures.WeightSpec(params=prof.request.params, profile=prof, **kw)


def _cmd_contract(cfg, out: str) -> int:
    N = cfg["grid"]["N"]
    if cfg["half_resolution"] and N // 2 + 1 < 16:
        raise ConfigError(f"grid.N must be >= 30 with half_resolution, got {N!r}")
    lam1, lam2 = cfg["lam1"], cfg["lam2"]
    clock = _clock(cfg)
    prof = _profile_for(cfg, cfg["grid"]["R"], (lam1, lam2, _weight_lam(cfg["weight"])))
    weight = _make_weight(cfg["weight"], prof)
    bc = evolution.BoundarySpec(kind="U_lambda", lam=lam1)

    def pair(N):
        # the report reads snapshots only, so the runs keep no monitors
        sub = dict(cfg)
        sub["grid"] = dict(cfg["grid"], N=N)
        return [_build_evolution(sub, clock, "physical",
                                 evolution.InitialSpec(kind="f_lambda", lam=lam), bc, prof)
                for lam in (lam1, lam2)]

    runs = pair(N)
    if cfg["half_resolution"]:
        runs += pair(N // 2 + 1)
    trajs = [evolution.run(ecfg) for ecfg in runs]
    half = (trajs[2], trajs[3]) if cfg["half_resolution"] else None
    rep = measures.contraction_report(trajs[0], trajs[1], weight, half)
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
    # below 1 the verdict would pass a run whose error grew
    if cfg["decrease_factor"] < 1.0:
        raise ConfigError(f"decrease_factor must be >= 1, got {cfg['decrease_factor']!r}")
    if cfg["horizon"] is None:
        cfg["horizon"] = 5.0 / abs(_model(cfg).beta)
    clock = _clock(cfg)
    lam0 = cfg["lam0"]
    prof = _profile_for(cfg, cfg["grid"]["R"],
                        (lam0, cfg["lam1"], cfg["lam2"], _weight_lam(cfg["weight"])))
    weight = _make_weight(cfg["weight"], prof)
    init = evolution.InitialSpec(kind="bump", lam0=lam0, **cfg["bump"])
    bc = evolution.BoundarySpec(kind="f_lambda", lam=lam0)
    # the report reads the band's lambdas only: the run checks u0 against
    # the band and keeps no monitors
    ecfg = _build_evolution(cfg, clock, "rescaled", init, bc, prof, (cfg["lam1"], cfg["lam2"]))
    traj = evolution.run(ecfg)
    rep = measures.convergence_report(
        traj, lam0, weight, K_compact=tuple(cfg["K_compact"]),
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
    # an order needs two errors, or three runs for two successive differences
    for key, least in (("N_list", 2), ("temporal_dt_list", 3)):
        if len(cfg[key]) < least:
            raise ConfigError(f"{key} needs >= {least} entries to measure an order, "
                              f"got {len(cfg[key])}")
    k, T, horizon, R = cfg["k"], cfg["T"], cfg["horizon"], cfg["R"]
    init = evolution.InitialSpec(kind="barenblatt", k=k, T=T)
    bc = evolution.BoundarySpec(kind="barenblatt", k=k, T=T)

    def solve(grid, dt, horizon=horizon, initial=init, boundary=bc, profile=None):
        """One physical-form run from 0 to horizon, snapshotted at both ends."""
        return evolution.run(evolution.EvolutionConfig(
            grid=grid, params=p, form="physical", initial=initial, boundary=boundary,
            dt=dt, snapshot_times=np.array([0.0, horizon]),
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
    lam = cfg["lam"]
    prof = _profile_for(cfg, math.e, (lam,))
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


class _Parser(argparse.ArgumentParser):
    """Rejects a command line, in a subcommand too, with one line and exit 1."""

    def error(self, message):
        self.exit(_EXIT_USAGE, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    # argparse reads "-1e-3" as an option, not a value, so each flag is joined to its value
    argv, i = list(sys.argv[1:] if argv is None else argv), 0
    while i < len(argv) - 1:
        if argv[i][:2] == "--" and argv[i][2:] in _FLAGS:
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        i += 1
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
            measures.MeasureError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_USAGE


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
