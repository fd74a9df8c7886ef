"""Uniform grids, trapezoid convolution quadrature, and the slope march.

All solver quadrature lives here: the uniform grid x_j = j*h, the
piecewise-linear sampled function, the tail convolution
int_0^x H(y) w(x-y) dy, and the implicit-trapezoid march that both value
slope solvers share.  Trapezoid rule everywhere: the march needs each new
endpoint value from already-known history in one pass.  That pass is O(j)
at node j for a general tail.  For a tail that is a positive sum of K
exponentials (exponential claims, and Pareto claims of shape up to 10),
the history older than a block or so is carried as K decaying states,
and node j costs at most 2 _BLOCK multiply-adds plus its share of two
block products.  A one-term sum w e^{-k y} (exponential claims) needs no
near part: its whole history G obeys G' = w v - k G, and the march
carries it as one decaying state in two Python floats, at a few float
operations a node.  Its factors e^{-k o h} and e^{k o h} come from tables
of one entry per lag o in the block, each formed directly: powers of one
rounded per-node factor e^{-k h} would compound its rounding over every
lag the history spans, about j/2 of them where the history weights are
nearly flat, as on benchmark 1.  The block of L nodes is held to
k h L <= 30, or to one node where k h > 30, so that e^{k o h} stays far
from overflow.

The slope equation is causal (Volterra): the value at node j depends only
on the nodes before it and on itself.  So one forward pass, solving each
node's scalar implicit equation against the final history, is the exact
discrete solution; no sweep over the grid could change it.

The residual certificate convolves the whole solved v with the tail at
once (convolve_tail_all), once per certificate.  That runs as a blocked
causal product: the grid is cut into blocks of _BLOCK nodes, and each lag
between a source block and an output block is one Toeplitz block of tail
samples, applied to every source block in one matrix product.  Only the n
causal outputs are formed, about n^2/2 multiply-adds at BLAS-3 speed.
Every summand is a product of non-negative samples (tail, v), so
regrouping the sum keeps each output within about n*eps relative of the
plain sum, even where it has decayed to 1e-18.  An FFT would not: its
error is relative to the largest output, not to each one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Grid",
    "SampledFn",
    "convolve_tail_all",
    "march_value_slope",
    "prefix_trapezoid",
]

# largest grid Grid builds: at 10^7 nodes the march's O(n^2)
# history for half-normal, log-normal, Weibull and shape > 10 Pareto
# claims alone is 5e13 multiply-adds (exponential and other Pareto claims
# carry it in O(n))
MAX_NODES = 10**7


@dataclass(frozen=True)
class Grid:
    """Uniform grid x_j = j*h, j = 0..n-1."""

    h: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h (the grid step) must be positive and finite, got {self.h!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError(f"n must be an integer of at least 2 grid points, got n={self.n!r}")
        if self.n > MAX_NODES:
            raise ValueError(f"a grid holds at most {MAX_NODES} nodes, got n={self.n!r}")

    @classmethod
    def from_xmax(cls, h: float, x_max: float) -> "Grid":
        if not (np.isfinite(x_max) and x_max > 0):
            raise ValueError(f"x_max must be positive and finite, got {x_max!r}")
        # a nonpositive step never divides; __post_init__ refuses it
        steps = x_max / h if h > 0 else -1.0
        if not (np.isfinite(steps) and round(steps) < MAX_NODES):
            raise ValueError(
                f"h (the grid step) is too small for x_max={x_max!r}, got {h!r}: "
                f"a grid holds at most {MAX_NODES} nodes"
            )
        return cls(float(h), int(round(steps)) + 1)

    @property
    def points(self) -> np.ndarray:
        # exact j*h (not linspace): spacing stays uniform to the last bit
        return self.h * np.arange(self.n)

    @property
    def x_max(self) -> float:
        return self.h * (self.n - 1)


@dataclass
class SampledFn:
    """Function sampled on a grid; piecewise-linear between nodes.

    Evaluation equals np.interp(x, grid.points, values) bit for bit, ends
    held outside the grid, but finds each interval in O(1) on the uniform
    grid instead of by binary search.  The values are read at construction.
    It is the one sampled-curve type: delta, psi, and the solved a* that
    the Monte Carlo simulates, which is solved out to the safe level, so
    no path reads past its end.

    The interval of xc = clip(x, 0, x_max) is j = trunc(xc / h), whose
    rounding may put xc one node off: numpy's search finds the j with
    fl(j h) <= xc < fl((j+1) h).  One pass of d = fl(xc - fl(j h)) tells
    whether any query is off.  xc < fl(j h) exactly when d < 0.  And if
    xc >= fl((j+1) h), then d >= fl((j+1) h) - fl(j h) by monotone
    rounding, a difference that is exact (Sterbenz for j >= 1, and
    fl(0 h) = 0), so d >= _wmin, the least such gap on the grid.  Only when
    d.min() < 0 or d.max() >= _wmin are the crossings found and repaired
    one node either way.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        fp = self.values
        with np.errstate(all="ignore"):
            slope = np.append(np.diff(fp) / np.diff(self.grid.points), 0.0)
        # np.interp returns a node's value as stored (a -0.0 stays -0.0) and
        # retries a NaN result from the right end of the interval; on such
        # samples only np.interp itself reproduces np.interp
        odd = not np.all(np.isfinite(slope)) or np.any(np.signbit(fp) & (fp == 0.0))
        self._slope = None if odd else slope
        # min over j < n of fl((j+1) h) - fl(j h): the filter's up-crossing bound
        self._wmin = float(np.diff(self.grid.h * np.arange(self.grid.n + 1)).min())

    def __call__(self, x, out=None, scratch=None):
        """The lookup at x: a float for a scalar x, else out.

        out, and scratch = (float, float, intp), are arrays of x's shape the
        lookup writes; fresh ones are made when they are not given.
        """
        x = np.asarray(x, dtype=float)
        h, fp = self.grid.h, self.values
        if out is None:
            out = np.empty(x.shape)
        top = x.max() if x.size else np.nan   # NaN if x holds a NaN or nothing
        if self._slope is None or top != top:
            out[...] = np.interp(x, self.grid.points, fp)
            return out if out.ndim else float(out)
        xc, d, j = scratch or (np.empty(x.shape), np.empty(x.shape), np.empty(x.shape, np.intp))
        np.clip(x, 0.0, self.grid.x_max, out=xc)
        np.divide(xc, h, out=d)
        np.copyto(j, d, casting="unsafe")   # truncation, as astype(np.intp)
        np.multiply(j, h, out=d)            # fl(j h) == grid.points[j], bit for bit
        np.subtract(xc, d, out=d)
        if d.min() < 0.0 or d.max() >= self._wmin:
            # x/h rounded across a node; one step either way restores
            # fl(j h) <= xc < fl((j+1) h), the interval numpy's search finds
            lo = j * h
            up = xc >= (j + 1) * h
            j -= xc < lo
            j += up
            np.multiply(j, h, out=d)
            np.subtract(xc, d, out=d)
        # j is in [0, n-1]; at x_max, j = n-1 and the appended zero slope
        # gives values[-1].  mode="clip" writes out= unbuffered, which the
        # default mode="raise" does not
        self._slope.take(j, out=xc, mode="clip")
        xc *= d
        fp.take(j, out=out, mode="clip")
        out += xc
        return out if out.ndim else float(out)


def convolve_tail_all(w_values: np.ndarray, tail_values: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid int_0^{x_j} H(y) w(x_j - y) dy for every j in one pass.

    `tail_values` holds H on at least the n nodes of `w_values`.  The sums
    run through _causal_convolve (see the module docstring), which keeps
    each output within about n*eps relative of the plain sum when both
    inputs are non-negative, as the certificate's tail and v are.
    """
    w_values = np.asarray(w_values, dtype=float)
    tail_values = np.asarray(tail_values, dtype=float)
    n, m = w_values.shape[0], tail_values.shape[0]
    if not 0 < n <= m:
        raise ValueError(f"need 1 <= len(w) <= len(tail), got len(w)={n}, len(tail)={m}")
    H = tail_values[:n]
    out = _causal_convolve(H, w_values)
    out -= 0.5 * H[0] * w_values
    out -= 0.5 * H * w_values[0]
    out *= h
    out[0] = 0.0
    return out


_BLOCK = 128
_TINY = np.finfo(float).tiny   # the least positive normal double


def _out_of_range(what: str, x: float) -> FloatingPointError:
    """The refusal of the march at surplus x, where `what` left the normal
    range; it carries x, so a caller can tell which setting reached it."""
    exc = FloatingPointError(f"{what} left the normal range at x={x:.6g}; the grid reaches too far")
    exc.x = x
    return exc


def _causal_convolve(H: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_{k<=j} H[k] w[j-k] for j < n = len(w), as blocked matrix products.

    With W the zero-padded w cut into rows of B = _BLOCK nodes, output block
    i collects, for every lag d, W[i-d] @ T_d where
    T_d[b', b] = H[dB + b - b'] (zero off the ends of H).  T_d is the row
    window dB..dB+B-1 of the sliding B-windows of the left-padded H, read
    with its rows reversed; one product applies it to all source blocks.
    """
    n = w.shape[0]
    B = _BLOCK
    nb = -(-n // B)
    W = np.zeros((nb, B))
    W.reshape(-1)[:n] = w
    Hp = np.zeros((nb + 1) * B)
    Hp[B - 1:B - 1 + n] = H
    windows = sliding_window_view(Hp, B)  # windows[k, b] = H[k + b - (B-1)]
    T = np.empty((B, B))
    part = np.empty((nb, B))
    out = np.zeros((nb, B))
    for d in range(nb):
        k = nb - d
        np.copyto(T, windows[d * B:(d + 1) * B][::-1])
        np.matmul(W[:k], T, out=part[:k])
        out[d:] += part[:k]
    return out.reshape(-1)[:n]


def prefix_trapezoid(y: np.ndarray, d) -> np.ndarray:
    """Trapezoid integral of y from its first sample to each sample.

    d is the step, or the n-1 widths of the intervals.  Bit for bit equal to
    scipy's cumulative_trapezoid(..., initial=0), whose operations it repeats.
    """
    y = np.asarray(y, dtype=float)
    return np.concatenate(([0.0], np.cumsum(d * (y[1:] + y[:-1]) / 2.0)))


def march_value_slope(grid: Grid, dist, lam: float, start: tuple, node):
    """One implicit-trapezoid pass for the scaled value slope v, v(0) = 1.

    Node j solves v_j = alpha_j + h/2 * v'_j, with the anchor
    alpha_j = v_{j-1} + h/2 * v'_{j-1} and v'_j given by the pointwise
    minimisation of the dynamic programming equation.  The claims term at
    node j is q_j + lam * h/2 * v_j, where q_j is the trapezoid tail
    convolution over the history v_0 .. v_{j-1}: lam h (S_j + H_j / 2), with
    the history sum S_j = sum_{i=1}^{j-1} H_i v_{j-i}, H = dist.tail.

    `dist.tail_mixture` is the claim law's (weights, rates, y_max), with
    H(y) = sum_k w_k e^{-r_k y} on [0, y_max], or None.  With it, the march
    keeps the far history in K decaying states (Lubich & Schadle 2002,
    SIAM J. Sci. Comput. 24).  The grid is cut into blocks of L = _BLOCK
    nodes; node j = s + o of the block starting at s splits S_j at
    t = s - L (t = 0 in the first two blocks):

        S_j = sum_k w_k e^{-r_k (o + L) h} F_k + sum_{m=t+1}^{j-1} H_{j-m} v_m,
        F_k = sum_{m=1}^{t} e^{-r_k (t - m) h} v_m.

    The near part is one exact dot product of at most 2L - 1 terms; the far
    part for the whole block is one product P F taken at the block start,
    after F <- e^{-r L h} F + E v_{t-L+1..t}.  The matrices
    P[o, k] = w_k e^{-r_k (o+L) h} and E[k, i] = e^{-r_k (L-1-i) h} and the
    factors e^{-r L h} are formed directly, never as powers of a per-node
    factor, whose rounding would compound over the march.  Every weight,
    factor and v_m is positive, so S_j keeps the fit's relative accuracy.
    Without a mixture, or on a grid longer than y_max, F stays empty, t
    stays 0, and S_j is the full dot product.

    A mixture of one term (w, k) that covers the grid carries the whole
    history as two floats: A, the nodes before the block start s decayed
    to s, and U, the block's nodes solved so far, each grown to s:

        S_j = w e^{-k o h} (A + U),  then U += e^{k o h} v_j,

    and at the block's end A <- e^{-k L h} (A + U), U <- 0.  The tables
    w e^{-k o h} and e^{k o h}, o < L, are formed directly for each lag,
    as the matrices are: on benchmark 1 the products H_i v_{j-i} are nearly
    flat in i, so powers of a per-node factor would carry its rounding
    over about j/2 lags (1.2e-13 relative in q_j at h = 1e-2, n = 4001).
    L shrinks to max(1, floor(30 / (k h))) where k h L > 30, so
    e^{k o h} < e^30 stays far from overflow, and exp magnifies the
    rounding of its argument k o h at most 30-fold (unshrunk, claims of
    rate 200 at h = 5e-3 put q_j 2.8e-14 off).  The product is tested
    before anything is divided: a subnormal k h (claims of rate 1e-307)
    would make 30 / (k h) infinite.  With L = 1 the first block holds only
    v_0, which the march skips.

    `start` is (v'(0), a*(0)), and `node(x_j, q_j, alpha_j)` solves node j
    in closed form to (v_j, v'_j, a*_j), raising RuntimeError, naming x_j,
    when it has no positive root.  Node arguments and results are Python
    floats, so node arithmetic never runs on numpy scalars.  Each node
    writes v_j into the reversed copy the next node's dot reads, or into U
    when the history is one state; v, v' and a* are gathered in a block's
    short lists and stored one slice per block.  The first v_j below the
    normal range, which has lost digits, raises FloatingPointError naming
    x_j (checked once per block), which it also carries as its attribute x,
    as a node's own refusal does.
    Returns (v, V, v', a*), results.ValueGrid's order, V the integral of v.
    """
    h = grid.h
    half_h = 0.5 * h
    n = grid.n
    H = np.asarray(dist.tail(grid.points), dtype=float)
    L = _BLOCK
    v = np.empty(n)
    vp = np.empty(n)
    a = np.empty(n)
    v[0] = w = 1.0
    vp[0] = y = float(start[0])
    a[0] = start[1]
    t = 0
    F = None
    mixture = dist.tail_mixture
    if mixture is not None and grid.x_max > mixture[2]:
        mixture = None
    one = mixture is not None and len(mixture[1]) == 1
    if one:
        (weight,), (k,), _ = mixture
        if k * h * L > 30.0:
            L = max(1, int(30.0 / (k * h)))
        lags = h * np.arange(L)
        far = (weight * np.exp(-k * lags)).tolist()
        grow = np.exp(k * lags).tolist()
        decay = float(np.exp(-k * (L * h)))
        A = U = 0.0
    else:
        far = grow = [0.0] * L
        # vr[n-1-i] = v_i: the near history v_{j-1} .. v_{t+1} is the
        # contiguous slice vr[n-j:n-1-t], which the dot reads in place
        vr = np.empty(n)
        vr[n - 1] = w
        if mixture is not None:
            weights, rates = np.asarray(mixture[0]), np.asarray(mixture[1])
            decay = np.exp(-rates * (L * h))
            E = np.exp(np.outer(rates, -h * np.arange(L - 1, -1, -1)))
            P = weights * np.exp(np.outer(-h * np.arange(L, 2 * L), rates))
            F = np.zeros(rates.shape[0])
    for s in range(0, n, L):
        if F is not None and s >= 2 * L:
            t = s - L
            F = decay * F + E @ v[t - L + 1:t + 1]
            far = (P @ F).tolist()
        lo, hi = max(s, 1), min(s + L, n)
        if lo == hi:
            continue   # a first block of one node holds only v_0
        ws, ys, avals = [], [], []
        for j, far_j, grow_j, H_j in zip(range(lo, hi), far[lo - s:], grow[lo - s:], H[lo:hi].tolist()):
            if one:
                S = far_j * (A + U)
            else:
                S = far_j + float(H[1:j - t].dot(vr[n - j:n - 1 - t]))
            q = lam * (h * (S + 0.5 * H_j))
            alpha = w + half_h * y
            if alpha <= 0.0:
                raise RuntimeError(
                    f"trapezoid anchor went nonpositive at x={j * h:.6g}; grid step too coarse"
                )
            w, y, a_j = node(j * h, q, alpha)
            if one:
                U += grow_j * w
            else:
                vr[n - 1 - j] = w
            ws.append(w)
            ys.append(y)
            avals.append(a_j)
        if min(ws) < _TINY:
            j = lo + next(i for i, w_i in enumerate(ws) if w_i < _TINY)
            raise _out_of_range("v", j * h)
        if one:
            A = decay * (A + U)
            U = 0.0
        v[lo:hi] = ws
        vp[lo:hi] = ys
        a[lo:hi] = avals
    return v, prefix_trapezoid(v, h), vp, a
