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

``contract`` steps its runs as one stacked batch on one CPU.  Where the
process may run on two (``os.sched_getaffinity``) and ``os.fork`` exists, a
forked child steps half of them as a second batch at the same time and
pipes back their arrays and counters; the files, exit codes and error lines
are the one-batch run's, and no child outlives the command.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import pickle
import signal
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
    """Write the equal-length ``columns`` under ``header`` as CSV rows of
    '%.17g' numbers, formatted in numpy by ``_csv_rows`` a block of 512 rows
    at a time, so memory stays small."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    blocks = (_csv_rows(np.stack([c[i:i + 512] for c in cols], axis=1))
              for i in range(0, len(cols[0]), 512))
    _write_atomic(path, itertools.chain([",".join(header) + "\n"], blocks))


# -- CSV numbers -----------------------------------------------------------
#
# '%.17g' rounds |x| to 17 significant digits D 10^(k-16), D in [10^16, 10^17),
# correctly (ties to even), then prints D in fixed notation where -4 <= k < 17
# and as d.ddde+XX otherwise, without trailing zeros after the point.
# _csv_rows finds D in numpy: prod = fl(|x| hi) is an integer-valued double
# below 10^17, and frac, the exact error of that product plus |x| lo, is within
# ~1e-14 of |x| 10^(16-k) - prod, so rint(frac) rounds as Python does unless
# frac lies near a half-integer, where the value takes '%' itself.

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # |x| spelt in numpy; past them only 0, inf and nan are
_P_MIN, _P_MAX = -266, 298  # the range of 16 - k over those |x|, k one off included
_K_MIN = 16 - _P_MAX  # the least k, where the table of exponents starts

# the bytes a value's text is picked from, in output order: the sign, the
# "0.000" of fixed notation below 1, 17 digits with a point after each but
# the last, the exponent and the separator.  Digit j sits in column 6 + 2j,
# its point in 7 + 2j; a text spelt otherwise (inf, nan, '%') overwrites the
# digits from column 6 on
_COLUMNS = b"-0.000" + b"0." * 16 + b"0" + b"e+000" + b","
_EXP, _SEP = 39, 44
# layout classes: fixed notation (k + 4) * 17 + digits shown - 1, exponent
# notation _EXPONENT + 17 (if three exponent digits) + digits - 1, 0, texts
# of each length, and all of them again with a minus sign
_EXPONENT, _ZERO_CLS, _TEXT_CLS, _NEG_CLS = 357, 391, 392, 416


@functools.cache
def _pow10():
    """10^p for p in [_P_MIN, _P_MAX] as double-doubles (hi, lo): hi is 10^p
    rounded to a double and lo the rest, rounded, both from exact integers
    (CPython rounds an int / int quotient correctly)."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


@functools.cache
def _layouts():
    """(masks, spelt, trailing, exponents): row c of masks marks the columns
    of _COLUMNS that layout class c shows; spelt holds "0000" to "9999" as
    uint32s and trailing the count of their trailing zeros; exponents holds
    the exponent's sign and three digits of k = _K_MIN, _K_MIN + 1, ... as uint32s."""
    def digits(count, point=None):  # the first count digits, a point after digit `point`
        return [6 + 2 * j for j in range(count)] + ([7 + 2 * point] if point is not None else [])

    rows = []
    for k in range(-4, 17):
        for shown in range(1, 18):
            rows.append(digits(shown, k if shown > k + 1 else None) if k >= 0
                        else list(range(1, 2 - k)) + digits(shown))
    for exp_cols in ([_EXP, _EXP + 1, _EXP + 3, _EXP + 4], list(range(_EXP, _EXP + 5))):
        rows += [digits(nd, 0 if nd > 1 else None) + exp_cols for nd in range(1, 18)]
    rows.append([1])
    rows += [list(range(6, 6 + size)) for size in range(1, 25)]
    masks = np.zeros((2 * len(rows), len(_COLUMNS)), dtype=bool)
    for c, cols in enumerate(rows):
        masks[c, cols + [_SEP]] = masks[_NEG_CLS + c, cols + [0, _SEP]] = True
    spelt = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), dtype=np.uint32)
    trailing = sum(np.arange(10000) % 10 ** j == 0 for j in range(1, 5))
    exponents = np.frombuffer(b"".join(b"%+04d" % k for k in range(_K_MIN, -_K_MIN + 1)),
                              dtype=np.uint32)
    return masks, spelt, trailing, exponents


def _scaled(ax, k):
    """ax 10^(16 - k) as prod + frac: prod = fl(ax hi) and frac the product's
    exact error (Dekker's, as numpy has no fused multiply-add) plus ax lo."""
    hi, lo = _pow10()
    p = 16 - _P_MIN - k
    b = hi[p]
    prod = ax * b
    t = _SPLIT * ax
    ah = t - (t - ax)
    al = ax - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return prod, (((ah * bh - prod) + ah * bl + al * bh) + al * bl) + ax * lo[p]


def _digits17(ax):
    """(k, D, tie) of the floats ax in [_FAST_MIN, _FAST_MAX]: ax rounds to
    D 10^(k-16) with D in [10^16, 10^17), unless tie marks a rounding within
    1e-6 of a half-integer."""
    k = np.floor(np.log10(ax)).astype(np.int64)
    prod, frac = _scaled(ax, k)
    # log10 can miss the decade by one: move k where the scaled value leaves [10^16, 10^17)
    step = (((prod > 1e17) | ((prod == 1e17) & (frac >= 0.0))).astype(np.int64)
            - ((prod < 1e16) | ((prod == 1e16) & (frac < 0.0))))
    moved = np.flatnonzero(step)
    if moved.size:
        k[moved] += step[moved]
        prod[moved], frac[moved] = _scaled(ax[moved], k[moved])
    rounded = np.rint(frac)
    D = prod.astype(np.int64) + rounded.astype(np.int64)
    up = D == 10 ** 17  # rounded up into the next decade
    D[up] = 10 ** 16
    return k + up, D, np.abs(np.abs(frac - rounded) - 0.5) < 1e-6


def _csv_rows(block: np.ndarray) -> str:
    """The rows of the 2-d float array ``block``: each value as '%.17g' formats
    it, byte for byte, comma separated, each row ended by a newline.

    Values with |x| in [_FAST_MIN, _FAST_MAX] are rounded by ``_digits17``
    and spelt from a table of 4-digit groups (one gather per group, where
    pairs would take twice the divisions and gathers).  Each value's bytes
    are then picked from its row of _COLUMNS by the mask of its layout
    class, so the rows come out left-aligned and compacted in one pass.  0,
    -0, inf and nan have layouts of their own; subnormals, values outside
    that range and possible ties take '%' one at a time.  Those values enter
    the arithmetic as 1, so no nan or inf reaches it and it raises no
    warning.
    """
    x = block.ravel()
    n = x.size
    masks, spelt, trailing, exponents = _layouts()
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    k, D, tie = _digits17(np.where(fast, ax, 1.0))

    # D's 17 digits: the first, then 4 groups of 4.  Below 10^9 the quotients
    # are exact in floats, which divide faster than int64s
    hi, lo = np.divmod(D, 10 ** 8)
    halves = np.stack([hi, lo]).astype(float)
    d0 = np.floor(halves[0] / 1e8)
    halves[0] -= d0 * 1e8
    quarter = np.floor(halves / 1e4)
    quads = np.stack([quarter, halves - quarter * 1e4], axis=1).reshape(4, n).astype(np.intp)
    # digits shown: up to the last nonzero one
    last = ((quads != 0).view(np.uint8) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
    last = last.astype(np.intp)
    nd = np.maximum(4 * last + 1 - trailing.take(quads[last - 1, np.arange(n)]), 1)

    buf = np.empty((n, len(_COLUMNS)), dtype=np.uint8)
    buf[:] = np.frombuffer(_COLUMNS, dtype=np.uint8)
    buf[:, 6] = d0 + 48.0
    # digits 1 to 16 sit in the even columns of 8 to 39
    buf[:, 8:40].reshape(n, 4, 4, 2)[..., 0] = (
        spelt.take(quads).view(np.uint8).reshape(4, n, 4).transpose(1, 0, 2))
    buf[:, _EXP + 1:_EXP + 5] = exponents.take(k - _K_MIN)[:, None].view(np.uint8)
    buf[:, _SEP] = np.tile(np.frombuffer(b"," * (block.shape[1] - 1) + b"\n", dtype=np.uint8),
                           block.shape[0])

    cls = np.where((k >= -4) & (k < 17), (k + 4) * 17 + np.maximum(nd, k + 1) - 1,
                   _EXPONENT + 17 * (np.abs(k) >= 100) + nd - 1)
    signed = np.signbit(x)
    if not fast.all() or tie.any():
        inf, nan = np.isinf(x), np.isnan(x)
        buf[inf, 6:9] = np.frombuffer(b"inf", dtype=np.uint8)
        buf[nan, 6:9] = np.frombuffer(b"nan", dtype=np.uint8)
        cls[inf | nan] = _TEXT_CLS + 2
        cls[x == 0.0] = _ZERO_CLS
        printed = (~fast & np.isfinite(x) & (x != 0.0)) | (fast & tie)
        for i in np.flatnonzero(printed):
            text = b"%.17g" % float(x[i])
            buf[i, 6:6 + len(text)] = np.frombuffer(text, dtype=np.uint8)
            cls[i] = _TEXT_CLS + len(text) - 1
        signed &= ~(nan | printed)  # '%' prints nan without a sign, and its texts with theirs
    cls += _NEG_CLS * signed
    return np.compress(masks.take(cls, axis=0).ravel(), buf.ravel()).tobytes().decode("ascii")


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


@contextlib.contextmanager
def _naming_model(cfg):
    """Add the model values of cfg, each with its flag, to a ProfileError
    raised inside: the stages that build a profile name neither."""
    try:
        yield
    except ProfileError as e:
        model = ", ".join(f"{key} (--{key}) = {cfg[key]!r}"
                          for key in ("n", "m", "beta", "eta") if key in cfg)
        raise ProfileError(f"{e} (model {model})") from None


def _profile_for(cfg, R: float, lams, read=None, key="grid.R (--R)"):
    """The eta = 1 profile of the configured model, for a command that
    evaluates f_lambda and U_lambda on [1/R, R] at the lambdas ``lams``.
    Those read g up to s = log R - log lambda (less at t > 0, as beta < 0),
    so the far field reaches to log R - log min(lams) over the lambdas set
    and > 0; the evaluation rejects a nonpositive one.  The far field ends
    at the request's s_max, so where the lambdas ``read`` (those of lams the
    command evaluates at t = 0 on the whole annulus; all of them if None)
    need it further, a ConfigError names ``key`` (the setting that gives R),
    R, the smallest of them and that reach, before any profile is built."""
    def least(values):
        pos = [lam for lam in values if lam is not None and lam > 0.0]
        return min(pos) if pos and R > 1.0 else None

    lam = least(lams)
    reach = None if lam is None else math.log(R) - math.log(lam)
    req = ProfileRequest(params=_model(cfg), eta=1.0, tol=cfg.get("profile_tol", 1e-10))
    lam = lam if read is None else least(read)
    need = None if lam is None else math.log(R) - math.log(lam)
    # past s_max by more than the evaluation's own slack of 1e-12 relative in r
    if need is not None and need > req.s_max + 2e-12:
        raise ConfigError(f"{key} = {R!r} with smallest lambda {lam!r} reads the profile's far "
                          f"field to s = log R - log lambda = {need!r}, past its end s_max = "
                          f"{req.s_max!r}")
    with _naming_model(cfg):
        return compute_profile(req, reach=reach)


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
    with _naming_model(cfg):
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
    # asymptotic regime, as the K extraction on (0, k0_s_max) does
    if not cfg["s_max"] >= 50.0:
        raise ConfigError(f"s_max must be >= 50 for the expansion check, got {cfg['s_max']!r}")
    if not cfg["k0_s_max"] >= 50.0:
        raise ConfigError(f"k0_s_max must be >= 50 for the K0 extraction, got {cfg['k0_s_max']!r}")
    _check_far_nodes(cfg)
    p = _model(cfg)
    eta = cfg["eta"]
    req = ProfileRequest(params=p, eta=eta, s_max=cfg["s_max"], tol=cfg["tol"])
    with _naming_model(cfg):
        coeffs = asymptotics.compute_K0(p, eta=eta, s_max=cfg["k0_s_max"], tol=cfg["tol"])
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


# most bytes a command's snapshots may take, summed over the runs it steps;
# a run keeps one float64 per node and snapshot
_MAX_SNAPSHOT_BYTES = 2 ** 26


def _check_snapshot_bytes(snapshots: int, nodes: int, keys: str):
    """Refuse runs that keep ``snapshots`` rows over ``nodes`` nodes in all,
    if those float64s pass _MAX_SNAPSHOT_BYTES; ``keys`` names the config
    keys and flags that set the nodes.  Called before any profile or grid
    is built."""
    size = 8 * snapshots * nodes
    if size > _MAX_SNAPSHOT_BYTES:
        raise ConfigError(f"{keys}: {snapshots} snapshots of {nodes} nodes need {size:.3g} B, "
                          f"over the limit of {_MAX_SNAPSHOT_BYTES} B")


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
    read = ({"f_lambda": (init.lam,), "blend": (init.lam1, init.lam2),
             "bump": (init.lam0,)}.get(init.kind, ())
            + ((bc.lam,) if bc.kind in ("f_lambda", "U_lambda") else ()) + band)
    clock = _clock(cfg)
    N = cfg["grid"]["N"]
    _check_snapshot_bytes(len(clock["snapshot_times"]), N, f"grid.N (--N) = {N!r}")
    profile = _profile_for(cfg, cfg["grid"]["R"], lams, read) if needs_profile else None
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


def _check_weight(cfg):
    """The configured weight's checks that need no profile (``measures.check_weight``);
    a model outside its theorem's regime is a ConfigError naming the key to
    change: weight.mu for power_mu (no flag sets it), weight.kind otherwise."""
    w = cfg["weight"]
    try:
        measures.check_weight(_model(cfg), w["kind"], w.get("mu"), w.get("power"),
                              w.get("exponent"))
    except measures.RegimeError as e:
        key = "mu" if w["kind"] == "power_mu" else "kind"
        raise ConfigError(f"weight.{key} = {w[key]!r} is outside the {w['kind']} weight's "
                          f"regime: {e.reason}") from None


def _make_weight(wcfg, prof):
    """The configured weight, lam3 from ``_weight_lam``; a key left out or null stays unset."""
    kw = {k: v for k, v in wcfg.items() if v is not None}
    kw["lam3"] = _weight_lam(wcfg)
    return measures.WeightSpec(params=prof.request.params, profile=prof, **kw)


def _may_fork_onto_two_cpus() -> bool:
    """Whether this process can fork and may run on two CPUs or more; not
    where the platform does not say how many."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _fails(cfg) -> bool:
    """Whether the run of cfg, stepped alone, raises."""
    try:
        evolution.run(cfg)
    except Exception:
        return True
    return False


def _run_batch_forked(runs: list, child: tuple) -> list:
    """evolution.run_batch(runs), bit for bit and exception for exception,
    with the runs at the indices ``child`` stepped as one batch by a forked
    process while this one steps the others as another.  ``child`` starts
    with 0, and its other indices come after all of this process's runs.

    The child pickles back over a pipe each Trajectory's arrays and counters
    (not its config, so the profile never crosses), or the exception its
    batch raised; it writes no file and ends with os._exit.  This process
    rebuilds the Trajectories with its own configs, and it reaps the child
    on every path, killing it first only when it leaves on an exception
    (KeyboardInterrupt, say) that is not its batch's.  The exception raised
    is that of the first failing run in the order of runs, as run_batch's:
    the child's if run 0 fails (decided by a lone run 0 where both batches
    fail and the child stepped more than run 0), else this process's.  A
    child that ends by a signal or sends no result is an EvolutionError.
    Where no process can be forked, this one steps all the runs.
    """
    mine = [k for k in range(len(runs)) if k not in child]
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return evolution.run_batch(runs)
    if pid == 0:
        try:
            os.close(rfd)
            try:
                sent = ("ok", [{k: v for k, v in vars(t).items() if k != "config"}
                               for t in evolution.run_batch([runs[k] for k in child])])
            except Exception as e:
                sent = ("error", e)
            data = pickle.dumps(sent, pickle.HIGHEST_PROTOCOL)
            with open(wfd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(wfd)
    with open(rfd, "rb") as pipe:
        try:
            try:
                own = evolution.run_batch([runs[k] for k in mine])
            except Exception as e:
                own = e
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if os.WIFSIGNALED(status) or not data:
        how = f"by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status) else "with no result"
        raise evolution.EvolutionError(f"the process stepping runs {list(child)} ended {how}")
    kind, got = pickle.loads(data)
    if isinstance(own, Exception):
        raise got if kind == "error" and (len(child) == 1 or _fails(runs[0])) else own
    if kind == "error":
        raise got
    trajs = [None] * len(runs)
    for k, traj in zip(mine, own):
        trajs[k] = traj
    for k, state in zip(child, got):
        trajs[k] = evolution.Trajectory(config=runs[k], **state)
    return trajs


def _cmd_contract(cfg, out: str) -> int:
    N = cfg["grid"]["N"]
    if cfg["half_resolution"] and N // 2 + 1 < 16:
        raise ConfigError(f"grid.N must be >= 30 with half_resolution, got {N!r}")
    lam1, lam2 = cfg["lam1"], cfg["lam2"]
    clock = _clock(cfg)
    half = N // 2 + 1 if cfg["half_resolution"] else 0  # the second pair's N, if any
    _check_snapshot_bytes(len(clock["snapshot_times"]), 2 * (N + half),
                          f"grid.N (--N) = {N!r}" + (" with half_resolution" if half else ""))
    _check_weight(cfg)
    prof = _profile_for(cfg, cfg["grid"]["R"], (lam1, lam2, _weight_lam(cfg["weight"])))
    weight = _make_weight(cfg["weight"], prof)
    bc = evolution.BoundarySpec(kind="U_lambda", lam=lam1)

    # the report reads snapshots only, so the runs keep no monitors.  On one
    # CPU they step as one stacked batch, f_lam1 runs first: those start on
    # the boundary data's orbit and mostly converge at once, which leaves the
    # Newton iterations after the first to the f_lam2 runs, one block span.
    # Given two CPUs, a forked child steps (f_lam1 at N, f_lam2 at N/2), the
    # lighter stack, while this process steps (f_lam1 at N/2, f_lam2 at N);
    # without the half resolution, each process steps one run
    sizes = (N, half) if half else (N,)
    runs = [_build_evolution(dict(cfg, grid=dict(cfg["grid"], N=size)), clock, "physical",
                             evolution.InitialSpec(kind="f_lambda", lam=lam), bc, prof)
            for lam in (lam1, lam2) for size in sizes]
    if _may_fork_onto_two_cpus():
        trajs = _run_batch_forked(runs, (0, 3) if half else (0,))
    else:
        trajs = evolution.run_batch(runs)
    rep = measures.contraction_report(trajs[0], trajs[len(sizes)], weight,
                                      (trajs[1], trajs[3]) if half else None)
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
    N = cfg["grid"]["N"]
    _check_snapshot_bytes(len(clock["snapshot_times"]), N, f"grid.N (--N) = {N!r}")
    _check_weight(cfg)
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
    # each run keeps its snapshots at 0 and at its horizon
    _check_snapshot_bytes(2, sum(cfg["N_list"]) + cfg["temporal_N"] * len(cfg["temporal_dt_list"])
                          + cfg["track_N"], "N_list, temporal_N and track_N")
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
    prof = _profile_for(cfg, math.e, (lam,), key="the tracking grid's R")
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it unchanged."""
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
