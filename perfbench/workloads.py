"""The benchmark's workloads: the argv of every op and the check of its output.

An op is one call of ``fde.cli.run_command(argv + ["--out", dir])``.  A
workload hands the harness a *cycle*: a list of units, each a list of argv
that run in order and whose outputs are checked together.  The harness
repeats whole cycles, so every run of one seed measures the same mix of ops.

* ``contract`` and ``converge`` run their subcommand at its default config.
  The seed does not change their input.  Their CSV series are compared with
  references stored in ``reference/`` under the tolerance written there.
* ``profile_sweep`` runs ``fde profile`` and then ``fde expansion`` on one
  (n, m, beta, eta) draw per unit.  The draws are stratified: one per
  (n, m-stratum) cell, jittered inside the cell by the seed, so that every
  seed spans the same cost range (small m is several times dearer than
  large m); beta and eta are drawn log-uniformly.  The profile's K is
  checked against the paper's closed-form shift of the expansion op's K0.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# m is drawn as a fraction of its upper limit (n-2)/n.  From about 0.78 of
# the limit (n = 3; higher for larger n) `fde` refuses draws at its default
# startup radius r0 = 1e-6 with exit 1 ("startup correction estimate exceeds
# tol"), so the sweep stays below 0.7.
# Op cost goes roughly as m^-0.8 e^(0.4 n); drawing from the middle half of
# each stratum keeps a cycle's cost within a few percent across seeds.
M_FRACTION = (0.1, 0.7)
M_STRATA = 4
M_JITTER = 0.5
DIMENSIONS = (3, 4, 5)
BETA_RANGE = (-2.0, -0.25)
ETA_RANGE = (0.3, 3.0)


def _read_csv(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def compare_series(path, ref_name):
    """None when the CSV at ``path`` matches ``reference/<ref_name>``, else the reason."""
    tol = _read_json(os.path.join(REFERENCE_DIR, "tolerance.json"))
    ref_header, ref = _read_csv(os.path.join(REFERENCE_DIR, ref_name))
    header, got = _read_csv(path)
    if header != ref_header:
        return f"{ref_name}: header {header} != {ref_header}"
    if got.shape != ref.shape:
        return f"{ref_name}: shape {got.shape} != {ref.shape}"
    bad = ~(np.abs(got - ref) <= tol["atol"] + tol["rtol"] * np.abs(ref))
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        return (f"{ref_name}: {header[j]} row {i} = {got[i, j]!r}, "
                f"reference {ref[i, j]!r}")
    return None


class _DefaultRun:
    """One subcommand at its default config, checked against a reference series."""

    def __init__(self, command, report, series, warmup):
        self.name = command
        self.report = report
        self.series = series
        self.warmup = warmup

    def cycle(self, seed):
        return [[[self.name]]]

    def check(self, unit, results):
        code, outdir = results[0]
        if code != 0:
            return [f"exit code {code}, reference 0"]
        verdict = _read_json(os.path.join(outdir, self.report))["verdict"]
        if verdict != "PASS":
            return [f"verdict {verdict}, reference PASS"]
        return [compare_series(os.path.join(outdir, self.series), self.series)]


def closed_form_K(n, m, beta, eta, K0):
    """K(eta, beta~) = a0 (K0 + log(eta)/gamma1 + (m/q) log(beta~)) with beta~ = -beta."""
    bt = -beta
    q = n - 2 - n * m
    gamma1 = (n - 2) / m - 2.0 / (1.0 - m)
    a0 = 2.0 * (n - 1) * q / ((1.0 - m) * bt)
    return a0 * (K0 + math.log(eta) / gamma1 + m / q * math.log(bt))


def _finite_table(path, min_rows, finite_cols):
    header, data = _read_csv(path)
    if data.shape[0] < min_rows:
        return f"{os.path.basename(path)}: {data.shape[0]} rows"
    cols = [header.index(c) for c in finite_cols]
    if not np.all(np.isfinite(data[:, cols])):
        return f"{os.path.basename(path)}: non-finite values"
    return None


class ProfileSweep:
    name = "profile_sweep"
    warmup = [["profile", "--smax", "60"]]

    @staticmethod
    def draws(seed):
        rng = random.Random(seed)
        lo, hi = M_FRACTION
        out = []
        for n in DIMENSIONS:
            for k in range(M_STRATA):
                u = 0.5 + M_JITTER * (rng.random() - 0.5)
                frac = lo + (hi - lo) * (k + u) / M_STRATA
                m = frac * (n - 2) / n
                beta = -math.exp(rng.uniform(math.log(-BETA_RANGE[1]), math.log(-BETA_RANGE[0])))
                eta = math.exp(rng.uniform(math.log(ETA_RANGE[0]), math.log(ETA_RANGE[1])))
                out.append({"n": n, "m": float(f"{m:.6g}"), "beta": float(f"{beta:.6g}"),
                            "eta": float(f"{eta:.6g}")})
        rng.shuffle(out)
        return out

    def cycle(self, seed):
        units = []
        for d in self.draws(seed):
            flags = ["--n", str(d["n"]), "--m", repr(d["m"]), "--beta", repr(d["beta"]),
                     "--eta", repr(d["eta"])]
            units.append([["profile"] + flags, ["expansion"] + flags])
        return units

    @staticmethod
    def params_of(argv):
        it = iter(argv[1:])
        d = {k[2:]: v for k, v in zip(it, it)}
        return {"n": int(d["n"]), "m": float(d["m"]), "beta": float(d["beta"]),
                "eta": float(d["eta"])}

    def check(self, unit, results):
        p = self.params_of(unit[0])
        (pcode, pdir), (ecode, edir) = results
        prof_err = exp_err = None
        summary = report = None

        if pcode != 0:
            prof_err = f"profile exit code {pcode}"
        else:
            summary = _read_json(os.path.join(pdir, "profile_summary.json"))
            if not (summary["K_converged"] and math.isfinite(summary["K"])):
                prof_err = "profile K not converged"
            else:
                prof_err = (_finite_table(os.path.join(pdir, "profile_rg.csv"), 2,
                                          ["r", "g", "g_r", "f", "f_r"])
                            or _finite_table(os.path.join(pdir, "profile_far.csv"), 2,
                                             ["s", "w", "w_s", "h"]))

        if ecode not in (0, 2):
            exp_err = f"expansion exit code {ecode}"
        else:
            report = _read_json(os.path.join(edir, "expansion_report.json"))
            expected = {"PASS": 0, "FAIL": 2}.get(report["verdict"])
            if expected != ecode:
                exp_err = f"expansion verdict {report['verdict']} with exit code {ecode}"
            elif not all(math.isfinite(report[k]) for k in ("K0", "K_11", "K_error")):
                exp_err = "expansion K0 not finite"
            else:
                exp_err = _finite_table(os.path.join(edir, "expansion.csv"), 2,
                                        ["s", "normalized"])

        if prof_err is None:
            if exp_err is not None:
                prof_err = "no expansion K0 to check K against"
            else:
                K_closed = closed_form_K(p["n"], p["m"], p["beta"], p["eta"], report["K0"])
                # error bars: the profile's own, plus K(1,1)'s scaled by a0/(a0 at 1,1) = 1/beta~
                tol = summary["K_error_estimate"] + report["K_error"] / -p["beta"]
                if not abs(summary["K"] - K_closed) <= tol:
                    prof_err = (f"K = {summary['K']!r} vs closed form {K_closed!r}, "
                                f"error bars {tol!r} (expansion verdict {report['verdict']})")
        return [prof_err, exp_err]


WORKLOADS = {
    w.name: w for w in (
        # Warm-up configs change only top-level keys: a nested flag such as --N
        # writes through into fde.cli's defaults for later calls in the process.
        _DefaultRun("contract", "contract_report.json", "contraction.csv",
                    [["contract", "--horizon", "0.02"]]),
        _DefaultRun("converge", "converge_report.json", "convergence.csv",
                    [["converge", "--horizon", "0.05"]]),
        ProfileSweep(),
    )
}
