"""Hot solver kernel: one backward-Euler step via damped Newton.

The interior residual for the step from u to U over dt is

    F_i = U_i - u_i - dt * [ c0 * einv_i * (ap_i (U^m_{i+1} - U^m_i)
                                           - am_i (U^m_i - U^m_{i-1}))
                             + alpha * U_i + adv_i(U) ],

with c0 = (n-1)/m, einv_i = e^{-n s_i}/ds^2 and ap/am the half-node flux
weights e^{(n-2) s_{i +- 1/2}} of the log-radial transform; alpha and the
advection (beta * u_s, b_ds = beta/ds) are zero for the physical form.
The end nodes hold the Dirichlet values, so Newton solves only the N-2
interior rows.  dt and c0 are folded into the face weights once per step,
wp = dt c0 einv ap and wm = dt c0 einv am: with h = diff(U^m) the diffusion
part of -F is wp h_{i} - wm h_{i-1} (h_i = U^m_{i+1} - U^m_i), and the
tridiagonal Jacobian is three products of d(U^m)/dU with wm, wp + wm and wp.

Advection is hybrid central/upwind: central differencing (second order)
wherever the diffusion face weight dominates the central advection half
(cell Peclet < 2, so the tridiagonal Jacobian stays an M-matrix), falling
back to the backward upwind difference elsewhere.  beta < 0 drives the
rescaled characteristics toward larger s, so upwind leans on the smaller-s
neighbor.  The blend weights are frozen at the start-of-step state, so
dt * (alpha U_i + adv_i) = dt alpha U_i + ku g_i + kl g_{i-1} with
g = diff(U) and per-step weights ku, kl.  As m < 1, row i is central exactly
where the outflow node has u_{i+1} <= u_crit_i = (-b_ds / (2 c0 einv_i ap_i
m))^{1/(m-1)}, so the run's record (Blocks) keeps u_crit and each step
compares u with it.  Within 1e-12/(1 - m) relative of u_crit, where the two
forms may round apart, the step evaluates the switch's defining expression,
so the pattern is that expression's bit for bit.

Newton's error after an update d is about kappa * d**2, with kappa the
affine-covariant contraction rate (Deuflhard, Newton Methods for Nonlinear
Problems, 2004).  On the default contract and converge runs, kappa is at
most 0.3 and 3 where the first update is below 1e-4.  So from a predicted
start a first update with d**2 <= 1e-3 * tol leaves an error of a few
1e-3 * tol, and the step is accepted without a second iteration that would
only confirm it.  From the old state u the first update is too large for
that estimate, and only d <= tol converges.

Runs that share dt and the coefficients' form can be solved as one system:
their node arrays stacked end to end (see Blocks), each block keeping its
own two Dirichlet ends.  The two interior rows at each junction between
blocks become identity rows with right side 0 and no couplings, so gtsv
never pivots across a junction and returns each block's solution bit for
bit as a solve of that block alone would.  Convergence, the positivity
halving, first-iteration acceptance and the iteration count are kept per
block; later iterations cover only the contiguous span of blocks not yet
converged, and a converged block inside it keeps its state.

dgtsv is the f2py function of scipy's LAPACK extension, scipy.linalg._flapack,
the one scipy.linalg.lapack.dgtsv exposes, loaded by its file
(``_scipy.scipy_extension``) so that scipy.linalg's package init never runs:
it loads numpy.f2py, numpy.testing, numpy.ma and numpy.random, about half
the time and 40% of the peak memory of importing fde.cli.  A later import
of scipy.linalg uses the same extension module.
"""

from __future__ import annotations

import itertools

import numpy as np

from ._scipy import scipy_extension

dgtsv = scipy_extension("linalg", "_flapack", "dgtsv")

__all__ = ["Blocks", "newton_step"]


_ROWS, _LINKS = np.array([-2, -1]), np.array([-3, -2, -1])  # offsets from a block's end

# relative half-width of the band around u_crit inside which the switch is
# evaluated as its defining expression; divided by 1 - m, as u_crit's
# exponent 1/(m - 1) scales the rounding of both forms by up to that
_BAND = 1e-12
_TINY = np.finfo(float).tiny


class Blocks:
    """The kernel record of one run or of runs stacked end to end, built once
    per run (or batch) and passed to every newton_step call.

    Block k holds nodes starts[k]:ends[k] of the stacked arrays, its two
    Dirichlet ends included.  Before each call the caller sets the list
    from_pred, true where a block starts from a predicted U0; the call sets
    iters to the list of each block's iteration count.

    A Blocks serves one set of coefficients (m, c0, einv, ap, am, alpha,
    b_ds), those of its first call, and keeps what is fixed for them:

    * in the rescaled form, the central/upwind switch threshold: per row
      the band lo <= u[i+1] <= hi around u_crit, built on the first call;
    * the face weights wp, wm and wp + wm, rebuilt when dt changes;
    * the rows' central/upwind pattern of the last call, and the advection
      weights ku, kl and diagonal start 1 - (dt alpha + kl - ku) built from
      it, rebuilt when dt or the pattern changes;
    * for each span of blocks that iterates, the slices of all of these and
      its junction indices, built at the span's first use after a rebuild.
    """

    def __init__(self, sizes):
        self.ends = list(itertools.accumulate(sizes))
        self.starts = [e - n for e, n in zip(self.ends, sizes)]
        # at each junction, after node a = e - 1 that ends a block: the
        # interior rows (node - 1) of nodes a and a + 1, and the off-diagonal
        # entries that couple them to any neighbour (a lone block has none)
        self.rows = self.links = None
        if len(sizes) > 1:
            e = np.array(self.ends[:-1])[:, None]
            self.rows, self.links = e + _ROWS, e + _LINKS
        self.from_pred = [False] * len(sizes)
        self.iters = [0] * len(sizes)
        self.dt = self.faces = self.adv = self.crit = self.pattern = None
        self.spans = {}

    def switch(self, u):
        """The rows' pattern (True where central) at the start state u, bit
        for bit that of a (m u[2:]^(m-1)) >= t (see _update): rows below the
        threshold's band are central and rows above it upwind, and if any
        row is inside the band, the whole pattern comes from the expression."""
        a, t, m, lo, hi = self.crit
        u2 = u[2:]
        central = u2 < lo
        if (np.count_nonzero(central) < central.size
                and np.count_nonzero(central | (u2 > hi)) < central.size):
            central = a * (m * u2 ** (m - 1.0)) >= t
        return central

    def _update(self, u, dt, m, c0, einv, ap, am, alpha, b_ds):
        """Bring the weights up to date for a step from u over dt."""
        rescaled = alpha != 0.0 or b_ds != 0.0
        pattern = None
        if rescaled:
            if self.crit is None:
                # central where a (m u^(m-1)) >= t at the outflow node u =
                # u[i+1], with a = c0 einv ap and t = -b_ds/2; as m < 1 that
                # is u <= u_crit = (t / (a m))^(1/(m-1)).  Rows whose terms
                # are not all normal floats get the band (0, inf), which
                # holds every u
                a = c0 * einv[1:-1] * ap[1:-1]
                t = -0.5 * b_ds
                lo, hi = np.zeros(a.size), np.full(a.size, np.inf)
                if 0.0 < m < 1.0 and _TINY <= t < np.inf:
                    with np.errstate(all="ignore"):
                        crit = (t / (a * m)) ** (1.0 / (m - 1.0))
                        terms = np.stack([a, t / a, t / (a * m), crit])
                    ok = np.all((terms >= _TINY) & (terms < np.inf), axis=0)
                    band = _BAND / (1.0 - m)
                    lo[ok], hi[ok] = crit[ok] * (1.0 - band), crit[ok] * (1.0 + band)
                self.crit = a, t, m, lo, hi
            central = self.switch(u)
            pattern = central.tobytes()
        if self.dt == dt and self.pattern == pattern:
            return
        if self.dt != dt:
            ce = (dt * c0) * einv[1:-1]
            wp = ce * ap[1:-1]
            wm = ce * am[1:-1]
            self.faces = wp, wm, wp + wm
        self.dt, self.pattern, self.adv = dt, pattern, None
        if rescaled:
            # adv_i is b_ds (g_i + g_{i-1}) / 2 if central, b_ds g_{i-1} if upwind
            bt = dt * b_ds
            ku = (0.5 * bt) * central.astype(float)
            kl = bt - ku
            self.adv = ku, kl, 1.0 - (dt * alpha + kl - ku)
        self.spans = {}

    def _span(self, b0, b1):
        """The slices of the weights over the span of blocks b0..b1: nodes
        lo:hi, interior rows lo:hi - 2; and its junction rows and links, and
        the first node of each of its blocks, relative to lo."""
        lo, hi = self.starts[b0], self.ends[b1]
        r = slice(lo, hi - 2)
        wp, wm, wd = (w[r] for w in self.faces)
        adv = None
        if self.adv is not None:
            ku, kl, diag0 = (w[r] for w in self.adv)
            adv = ku, kl, ku[:-1], kl[1:]
        else:
            diag0 = 1.0
        junctions = None
        if b1 > b0:
            junctions = (self.rows[b0:b1] - lo, self.links[b0:b1] - lo,
                         [self.starts[k] - lo for k in range(b0, b1 + 1)])
        self.spans[b0, b1] = sp = lo, hi, wp, wm, wd, wp[:-1], wm[1:], diag0, adv, junctions
        return sp


def newton_step(u, dt, bc_lo, bc_hi, m, c0, einv, ap, am, alpha, b_ds,
                tol, max_iter, U0=None, blocks=None):
    """Solve one step from u over dt; returns (U, iterations, converged).

    The first iterate is U0 (u when None) with its ends set to the boundary
    values; U0 must be positive.  Each iteration solves the interior
    tridiagonal Jacobian system with LAPACK gtsv, on fresh arrays it may
    overwrite, then halves the update until U stays positive (one min()
    over U, ends included).  Converged means a full (undamped) update whose
    size d = max |delta| / (1 + U) has d <= tol, or, at the first iteration
    from a given U0, d**2 <= 1e-3 * tol.  A singular Jacobian raises
    numpy.linalg.LinAlgError.  The inputs are never written to.

    ``blocks`` is the run's kernel record (see Blocks); a call without one
    builds a fresh record of one block.  With it the arrays may hold
    stacked runs: every block's ends take bc_lo and bc_hi, and the halving
    and the tests above hold per block, the first-iteration one for the
    blocks marked in blocks.from_pred.  The call returns its own iteration
    count, and whether every block converged.
    """
    N = u.shape[0]
    if blocks is None:
        blocks = Blocks([N])
        blocks.from_pred[0] = U0 is not None
    starts, ends, from_pred = blocks.starts, blocks.ends, blocks.from_pred
    U = (u if U0 is None else U0).copy()
    for s, e in zip(starts, ends):
        U[s] = bc_lo
        U[e - 1] = bc_hi
    blocks._update(u, dt, m, c0, einv, ap, am, alpha, b_ds)
    # the physical form has no alpha or advection terms and skips them
    rescaled = blocks.adv is not None
    spans = blocks.spans
    adt = dt * alpha

    iters = [None] * len(starts)  # per block: the iteration it converged at
    left = list(range(len(starts)))  # the blocks not yet converged
    span = None
    it = 0
    delta = np.zeros(N)  # the update; its block end entries stay 0
    for it in range(1, max_iter + 1):
        if span != (left[0], left[-1]):
            span = b0, b1 = left[0], left[-1]
            lo, hi, wp_r, wm_r, wd_r, wp_u, wm_l, diag0, adv, junctions = (
                spans.get(span) or blocks._span(b0, b1))
            if rescaled:
                ku_r, kl_r, ku_u, kl_l = adv
            if junctions is not None:
                rows, links, firsts = junctions
            u_r, d = u[lo + 1:hi - 1], delta[lo:hi]
        Us = U[lo:hi]
        Ui = Us[1:-1]
        Um = Us ** m
        h = Um[1:] - Um[:-1]
        rhs = wp_r * h[1:]  # -F
        rhs -= wm_r * h[:-1]
        rhs -= Ui - u_r
        if rescaled:
            g = Us[1:] - Us[:-1]
            rhs += adt * Ui
            rhs += ku_r * g[1:]
            rhs += kl_r * g[:-1]
        nd = (-m * Um[1:-1]) / Ui  # -d(U^m)/dU at the interior nodes
        diag = diag0 - wd_r * nd
        du = wp_u * nd[1:]
        dl = wm_l * nd[:-1]
        if rescaled:
            du -= ku_u
            dl += kl_l
        if b1 > b0:  # the junctions become identity rows: no block sees another
            rhs[rows] = 0.0
            diag[rows] = 1.0
            du[links] = 0.0
            dl[links] = 0.0
        x, info = dgtsv(dl, diag, du, rhs, overwrite_dl=1, overwrite_d=1,
                        overwrite_du=1, overwrite_b=1)[3:]
        if info != 0:
            raise np.linalg.LinAlgError(f"Newton Jacobian solve failed (gtsv info={info})")
        d[1:-1] = x
        if b1 > b0:  # a converged block keeps its state
            for k in range(b0, b1 + 1):
                if iters[k] is not None:
                    d[starts[k] - lo:ends[k] - lo] = 0.0
        new = Us + d
        lows = np.minimum.reduceat(new, firsts) if b1 > b0 else (new.min(),)
        damped = [b0 + j for j, low in enumerate(lows) if low <= 0.0]
        for k in damped:  # halve the update of a block until it stays positive
            s, e = starts[k] - lo, ends[k] - lo
            theta_ls, block = 1.0, new[s:e]
            while block.min() <= 0.0 and theta_ls > 1e-18:
                theta_ls *= 0.5
                block[:] = Us[s:e] + theta_ls * d[s:e]
        if hi - lo == N:
            U = new
        else:
            Us[:] = new
        q = np.abs(d) / (1.0 + new)
        scaled = np.maximum.reduceat(q, firsts).tolist() if b1 > b0 else (float(q.max()),)
        for k, sc in enumerate(scaled, b0):
            if (iters[k] is None and k not in damped
                    and (sc <= tol or it == 1 and from_pred[k] and sc * sc <= 1e-3 * tol)):
                iters[k] = it
        left = [k for k in left if iters[k] is None]
        if not left:
            break
    blocks.iters = [it if i is None else i for i in iters]
    return U, it, not left
