"""Compare every output of ``fde`` between two source trees.

    python tools/diff_outputs.py BASE_SRC CHANGE_SRC OUT

BASE_SRC and CHANGE_SRC are directories that hold the ``fde`` package (a
checkout's ``src``).  First each tree's size is printed: the line count of
the package's modules, its number of public names (the sum of the modules'
``__all__`` lengths), its number of settable values (the parameters of
its functions other than self and cls, and the annotated fields of its
dataclasses), the number of modules a fresh ``import fde.cli`` loads
(``sys.modules`` entries, one subprocess per tree) and the number loaded
once a fresh process has also run ``fde profile --smax 60``, the full far
field's LSODA path; the two show import creep.  For each tree, one
subprocess with
PYTHONPATH set to that tree runs the fixed matrix below in-process, writing
each case's artifacts, stdout, stderr and exit code to OUT/base/<case> or
OUT/change/<case>.  A table lists each case's exit codes and verdict, and
``diff -rq`` names the files that differ.  For each CSV that differs, the
largest absolute and relative difference of each column is printed, with
its bound ratio: the worst |change - base| / (1e-12 + 1e-10 |base|), which
is at most 1 where every number of the column is inside that bound.  For
each JSON report, the absolute and relative figures are printed for each
key whose numbers differ (items of a list share their list's key).
Relative differences are taken against the base value.  Last, for the default ``contract`` and
``converge`` cases, each side's worst ratio
|value - reference| / (atol + rtol * |reference|) against the benchmark's
reference series (``perfbench/reference/``, read only) is printed; the
benchmark accepts a ratio up to 1.  Exits 0 when the trees are identical,
1 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

_EVOLVE = {"grid": {"R": 7.38905609893065, "N": 201}, "dt": 2e-3, "horizon": 0.05,
           "snapshots": 6,
           "initial": {"kind": "blend", "lam1": 2.0, "lam2": 1.0, "theta": 0.3},
           "monitors": {"enabled": True, "lam1": 2.0, "lam2": 1.0}}
_CONTRACT = {"grid": {"R": 148.4131591025766, "N": 801}, "horizon": 0.2, "snapshots": 6}

_PROFILE_ARGV = ("profile", "--smax", "60")  # a full far field, whose LSODA path imports

BOUND_ATOL, BOUND_RTOL = 1e-12, 1e-10  # the bound |change - base| <= atol + rtol |base|

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "reference")

# case -> (argv, config or None); a config is written to OUT/configs/<case>.json
MATRIX = {
    "constants": (["constants"], None),
    "profile": (["profile"], None),
    "expansion": (["expansion"], None),
    "evolve": (["evolve"], None),
    "contract": (["contract"], None),
    "converge": (["converge"], None),
    "validate-barenblatt": (["validate-barenblatt"], None),
    "profile_n5": (["profile", "--n", "5", "--m", "0.396175", "--beta", "-0.68391",
                    "--eta", "2.39308"], None),
    # right after profile_n5 with its flags: expansion reuses the profile it built
    "expansion_n5": (["expansion", "--n", "5", "--m", "0.396175", "--beta", "-0.68391",
                      "--eta", "2.39308"], None),
    # the far field's error path: w~_s turns negative, exit 1 with one line
    "profile_tiny_eta": (["profile", "--eta", "1e-25"], None),
    "expansion_n4": (["expansion", "--n", "4", "--m", "0.3", "--beta", "-1.3",
                      "--eta", "0.7"], None),
    "expansion_yamabe": (["expansion", "--n", "4", "--m", "0.3333333333333333",
                          "--beta", "-2", "--eta", "1.5"], None),
    "evolve_rescaled": (["evolve"], dict(_EVOLVE, form="rescaled",
                                         boundary={"kind": "f_lambda", "lam": 1.5})),
    # steep rescaled data on a coarse grid: the kernel's switch picks upwind
    # rows, and the pattern changes as the run relaxes
    "evolve_rescaled_upwind": (["evolve"], dict(
        _EVOLVE, form="rescaled", grid={"R": 7.38905609893065, "N": 41}, horizon=0.5,
        initial={"kind": "constant", "value": 100.0}, boundary={"kind": "constant", "value": 1.0},
        monitors={"enabled": False})),
    "evolve_physical": (["evolve"], dict(_EVOLVE, form="physical",
                                         boundary={"kind": "U_lambda", "lam": 1.5})),
    # 1500 steps of time-varying boundary data, more than one boundary table holds
    "evolve_long": (["evolve"], dict(_EVOLVE, form="physical", dt=1e-4, horizon=0.15,
                                     grid={"R": 7.38905609893065, "N": 101},
                                     boundary={"kind": "U_lambda", "lam": 1.5})),
    # one snapshot: the rows at t = 0 and at the horizon
    "evolve_one_snapshot": (["evolve"], dict(_EVOLVE, snapshots=1)),
    "contract_custom": (["contract"], dict(_CONTRACT, weight={
        "kind": "custom_power_times_profile", "lam3": 1.3, "power": -0.5, "exponent": 0.4})),
    "contract_gamma2": (["contract"], dict(_CONTRACT, weight={
        "kind": "profile_gamma2", "lam3": 1.2})),
    # evaluations deep into the far field: g is read up to s = 6 - log 0.3 = 7.2
    "contract_deep": (["contract"], dict(_CONTRACT, grid={"R": 403.4287934927351, "N": 801},
                                         lam2=0.3)),
    # contract without the half resolution: one run in each of its two processes
    "contract_full": (["contract"], dict(_CONTRACT, half_resolution=False)),
    # U_lambda's time shift overflows at t > 0.071: contract's error path
    "contract_overflow": (["contract", "--beta", "-1e4", "--horizon", "0.1", "--N", "101"],
                          None),
    "converge_gamma3": (["converge"], {"m": 0.19, "grid": {"R": 5.4739473917272, "N": 1001},
                                       "weight": {"kind": "radial_gamma3", "lam3": 1.1},
                                       "K_compact": [0.6, 1.8]}),
}


def _run_side(out: str) -> None:
    """Run every case of the matrix with the ``fde`` on sys.path, writing under out."""
    from fde import cli

    print(f"fde from {os.path.dirname(cli.__file__)}", flush=True)
    configs = os.path.join(os.path.dirname(out), "configs")
    os.makedirs(configs, exist_ok=True)
    for case, (argv, config) in MATRIX.items():
        d = os.path.join(out, case)
        os.makedirs(d)
        argv = argv + ["--out", d]
        if config is not None:
            path = os.path.join(configs, case + ".json")
            with open(path, "w") as f:
                json.dump(config, f)
            argv += ["--config", path]
        with open(os.path.join(d, "stdout"), "w") as so, \
                open(os.path.join(d, "stderr"), "w") as se, \
                contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            code = cli.run_command(argv)
        with open(os.path.join(d, "exit_code"), "w") as f:
            f.write(f"{code}\n")


def _surface(src: str) -> tuple:
    """(lines, public names, settable values) of the ``fde`` package under
    src: the line count of its modules; the sum of their ``__all__`` lengths,
    leaving out the names ``__init__`` re-exports from them; and the number
    of parameters of every function, method and nested function (not self,
    cls or a lambda's) plus the annotated fields of every dataclass."""
    pkg = os.path.join(src, "fde")
    lines = names = settable = 0
    for name in os.listdir(pkg):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as f:
            text = f.read()
        lines += text.count("\n")
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                settable += sum(p is not None and p.arg not in ("self", "cls")
                                for p in a.posonlyargs + a.args + a.kwonlyargs
                                + [a.vararg, a.kwarg])
            elif isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).split("(")[0].endswith("dataclass")
                    for d in node.decorator_list):
                settable += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                    for t in node.targets):
                names += len(ast.literal_eval(node.value))
    return lines, names, settable


def _modules_loaded(src: str, argv=()) -> int:
    """The number of sys.modules entries after ``import fde.cli`` in a fresh
    interpreter with src as its PYTHONPATH, and after it runs the command
    ``argv`` (if any) in-process, writing its files to a temporary directory."""
    script = ("import sys, fde.cli\n"
              "if sys.argv[1:]:\n"
              "    fde.cli.run_command(sys.argv[1:])\n"
              "print(len(sys.modules))")
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run(
            [sys.executable, "-c", script] + (list(argv) + ["--out", out] if argv else []),
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
    return int(done.stdout.split()[-1])


def _verdict(d: str) -> str:
    for name in sorted(os.listdir(d)):
        if name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                return str(json.load(f).get("verdict", "-"))
    return "-"


def _read(path: str) -> str:
    with open(path) as f:
        return f.read().strip()


def _max_diff(a: np.ndarray, b: np.ndarray) -> tuple:
    """Largest |b - a|, |b - a| / |a| and |b - a| / (BOUND_ATOL + BOUND_RTOL |a|)
    over paired values; NaN pairs count as equal."""
    with np.errstate(invalid="ignore"):
        d = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(b - a))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(d == 0.0, 0.0, d / np.abs(a))
        bound = np.where(d == 0.0, 0.0, d / (BOUND_ATOL + BOUND_RTOL * np.abs(a)))
    return tuple(float(np.max(x, initial=0.0)) for x in (d, rel, bound))


def _csv_columns(path: str) -> dict:
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def _json_leaves(obj, key: str = ""):
    """(key, value) for each leaf of a JSON document, list items under their list's key."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _json_leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _json_leaves(v, key + "[]")
    else:
        yield key, obj


def _json_columns(path: str) -> dict:
    """Key -> its leaf values: an array when they are all numbers, else a list."""
    with open(path) as f:
        doc = json.load(f)
    cols = {}
    for key, v in _json_leaves(doc):
        cols.setdefault(key, []).append(v)
    return {k: np.asarray(v, dtype=float) if all(map(_is_number, v)) else v
            for k, v in cols.items()}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _magnitudes(base_dir: str, change_dir: str, name: str) -> list:
    """Lines giving, per column or key of one differing output file, the largest
    absolute and relative difference, and for a CSV column its bound ratio."""
    read = _csv_columns if name.endswith(".csv") else _json_columns
    base, change = read(os.path.join(base_dir, name)), read(os.path.join(change_dir, name))
    if base.keys() != change.keys():
        return ["  columns or keys differ"]
    lines = []
    for key in base:
        a, b = base[key], change[key]
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape == b.shape:
            d, rel, bound = _max_diff(a, b)
            if d != 0.0:
                ratio = f"  bound ratio {bound:.3g}" if name.endswith(".csv") else ""
                lines.append(f"  {key:<28}abs {d:.2e}  rel {rel:.2e}{ratio}")
        elif not (isinstance(a, list) and isinstance(b, list) and a == b):
            lines.append(f"  {key:<28}{a!r:.60} -> {b!r:.60}")
    return lines


def _report_magnitudes(out: str) -> None:
    """Print the difference magnitudes of every CSV and JSON output that differs."""
    for case in MATRIX:
        d = {side: os.path.join(out, side, case) for side in ("base", "change")}
        for name in sorted(set(os.listdir(d["base"])) & set(os.listdir(d["change"]))):
            if not name.endswith((".csv", ".json")):
                continue
            if _read(os.path.join(d["base"], name)) != _read(os.path.join(d["change"], name)):
                print(f"{case}/{name}")
                print("\n".join(_magnitudes(d["base"], d["change"], name)))


def _reference_ratios(out: str) -> None:
    """Print each side's worst |value - ref| / (atol + rtol |ref|) over every
    reference CSV that the default contract and converge cases write."""
    with open(os.path.join(REFERENCE, "tolerance.json")) as f:
        tol = json.load(f)
    for case in ("contract", "converge"):
        for name in tol["files"]:
            paths = {side: os.path.join(out, side, case, name) for side in ("base", "change")}
            if not all(map(os.path.exists, paths.values())):
                continue
            ref = _csv_columns(os.path.join(REFERENCE, name))
            worst = {}
            for side, path in paths.items():
                got = _csv_columns(path)
                if got.keys() != ref.keys() or any(got[k].shape != r.shape
                                                   for k, r in ref.items()):
                    worst[side] = "columns or rows differ"
                    continue
                worst[side] = "%.3g" % max(
                    float(np.max(np.abs(got[k] - r) / (tol["atol"] + tol["rtol"] * np.abs(r))))
                    for k, r in ref.items())
            print(f"{case}/{name}: worst reference ratio base {worst['base']}"
                  f"  change {worst['change']}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--side":
        _run_side(os.path.abspath(argv[1]))
        return 0
    if len(argv) != 3:
        print("usage: python tools/diff_outputs.py BASE_SRC CHANGE_SRC OUT", file=sys.stderr)
        return 1
    base_src, change_src, out = (os.path.abspath(a) for a in argv)
    if os.path.exists(out):
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 1
    os.makedirs(out)
    sides = {"base": base_src, "change": change_src}
    size = {side: _surface(src) + (_modules_loaded(src), _modules_loaded(src, _PROFILE_ARGV))
            for side, src in sides.items()}
    for i, what in enumerate(("src lines", "public names", "settable values",
                              "modules loaded", "after profile")):
        b, c = size["base"][i], size["change"][i]
        print(f"{what:<16}base {b}  change {c}  ({c - b:+d})")
    for side, src in sides.items():
        subprocess.run([sys.executable, os.path.abspath(__file__), "--side",
                        os.path.join(out, side)],
                       env=dict(os.environ, PYTHONPATH=src), cwd=out, check=True)

    print(f"{'case':<22}{'exit codes':>12}  verdicts")
    codes_match = True
    for case in MATRIX:
        d = {side: os.path.join(out, side, case) for side in sides}
        codes = {side: _read(os.path.join(d[side], "exit_code")) for side in sides}
        codes_match &= codes["base"] == codes["change"]
        verdicts = " ".join(_verdict(d[side]) for side in sides)
        print(f"{case:<22}{' '.join(codes.values()):>12}  {verdicts}")
    diff = subprocess.run(["diff", "-rq", os.path.join(out, "base"), os.path.join(out, "change")])
    same = diff.returncode == 0 and codes_match
    if diff.returncode != 0:
        _report_magnitudes(out)
    _reference_ratios(out)
    print("all outputs byte-identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
