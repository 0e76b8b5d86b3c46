"""C2 piecewise-cubic interpolation with minimum integrated squared jerk.

An interpolating C2 cubic spline on n knots has exactly two free parameters
(the boundary curvatures). We parameterize by the knot second derivatives M,
solve the C1-continuity tridiagonal system for the interior M given the
boundary pair, and pick the boundary pair that minimizes the jerk energy
sum_i (M_{i+1} - M_i)^2 / h_i, which is the integral of the squared third
derivative for a piecewise cubic.
"""
from __future__ import annotations

import numpy as np


class SplineError(ValueError):
    pass


def _interior_solve(h: np.ndarray, rhs: np.ndarray, m0, mlast) -> np.ndarray:
    """Solve the C1 continuity system for interior second derivatives.

    Equations for i = 1..n-2, over n >= 3 knots:
      h[i-1]/6 * M[i-1] + (h[i-1]+h[i])/3 * M[i] + h[i]/6 * M[i+1] = rhs[i-1]
    with M[0] = m0 and M[n-1] = mlast moved to the right-hand side.
    rhs, m0, mlast may carry a trailing joint dimension.
    """
    from scipy.linalg import solve_banded

    k = len(h) - 1
    diag = (h[:-1] + h[1:]) / 3.0
    lower = h[1:-1] / 6.0
    upper = h[1:-1] / 6.0
    b = rhs.copy()
    b[0] = b[0] - h[0] / 6.0 * m0
    b[-1] = b[-1] - h[-1] / 6.0 * mlast
    ab = np.zeros((3, k))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return solve_banded((1, 1), ab, b)


class JerkMinSpline:
    """Per-joint interpolating cubic spline with jerk-optimal boundary curvature."""

    def __init__(self, times: np.ndarray, values: np.ndarray, m2: np.ndarray):
        self.times = times
        self.values = values
        self.m2 = m2

    @staticmethod
    def fit(times, values) -> "JerkMinSpline":
        """The spline through `values` (n, d), one row per knot of `times` (n,)."""
        t = np.asarray(times, dtype=np.float64)
        y = np.asarray(values, dtype=np.float64)
        n = len(t)
        if n < 2:
            raise SplineError("need at least two knots")
        if y.ndim != 2 or y.shape[0] != n:
            raise SplineError("values must hold one row per knot time")
        h = np.diff(t)
        if np.any(h <= 0):
            raise SplineError("knot times must be strictly increasing")
        d = y.shape[1]
        if n == 2:
            # a single cubic segment; zero curvature gives the straight line,
            # which has zero jerk and is therefore optimal
            return JerkMinSpline(t, y, np.zeros((2, d)))
        slopes = np.diff(y, axis=0) / h[:, None]
        rhs = slopes[1:] - slopes[:-1]
        zeros = np.zeros(d)
        m_nat = _interior_solve(h, rhs, zeros, zeros)
        m_a = _interior_solve(h, np.zeros((n - 2, 1)), np.array([1.0]), np.array([0.0]))[:, 0]
        m_b = _interior_solve(h, np.zeros((n - 2, 1)), np.array([0.0]), np.array([1.0]))[:, 0]
        # full M vectors as affine functions of the boundary pair (alpha, beta)
        base = np.vstack([zeros, m_nat, zeros])
        va = np.concatenate([[1.0], m_a, [0.0]])
        vb = np.concatenate([[0.0], m_b, [1.0]])
        dbase = np.diff(base, axis=0)
        dva = np.diff(va)
        dvb = np.diff(vb)
        wa = dva / h
        wb = dvb / h
        a11 = float(np.dot(wa, dva))
        a12 = float(np.dot(wa, dvb))
        a22 = float(np.dot(wb, dvb))
        amat = np.array([[a11, a12], [a12, a22]])
        rvec = -np.stack([dbase.T @ wa, dbase.T @ wb], axis=1)  # (d, 2)
        det = a11 * a22 - a12 * a12
        if abs(det) < 1e-300:
            ab = np.zeros((d, 2))
        else:
            ab = np.linalg.solve(amat, rvec.T).T
        m_full = base + va[:, None] * ab[:, 0][None, :] + vb[:, None] * ab[:, 1][None, :]
        return JerkMinSpline(t, y, m_full)

    def _locate(self, t):
        t = np.asarray(t, dtype=np.float64)
        t0, t1 = self.times[0], self.times[-1]
        if np.any(t < t0 - 1e-9) or np.any(t > t1 + 1e-9):
            raise SplineError("evaluation time outside the spline domain")
        tc = np.clip(t, t0, t1)
        idx = np.clip(np.searchsorted(self.times, tc, side="right") - 1, 0, len(self.times) - 2)
        return tc, idx

    def value(self, t):
        tc, i = self._locate(t)
        ts, y, m = self.times, self.values, self.m2
        h = ts[i + 1] - ts[i]
        u = (ts[i + 1] - tc) / h
        v = (tc - ts[i]) / h
        h2 = (h * h) / 6.0
        out = (
            m[i] * (u**3)[..., None] * h2[..., None]
            + m[i + 1] * (v**3)[..., None] * h2[..., None]
            + (y[i] - m[i] * h2[..., None]) * u[..., None]
            + (y[i + 1] - m[i + 1] * h2[..., None]) * v[..., None]
        )
        return out

    def velocity(self, t):
        tc, i = self._locate(t)
        ts, y, m = self.times, self.values, self.m2
        h = (ts[i + 1] - ts[i])[..., None]
        u = (ts[i + 1] - tc)[..., None]
        v = (tc - ts[i])[..., None]
        return (
            -m[i] * u * u / (2.0 * h)
            + m[i + 1] * v * v / (2.0 * h)
            + (y[i + 1] - y[i]) / h
            - (m[i + 1] - m[i]) * h / 6.0
        )

    def acceleration(self, t):
        tc, i = self._locate(t)
        ts, m = self.times, self.m2
        h = (ts[i + 1] - ts[i])[..., None]
        u = (ts[i + 1] - tc)[..., None]
        v = (tc - ts[i])[..., None]
        return m[i] * u / h + m[i + 1] * v / h

    def jerk_energy(self) -> float:
        h = np.diff(self.times)
        dm = np.diff(self.m2, axis=0)
        return float(np.sum(dm * dm / h[:, None]))

    def to_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "values": self.values.tolist(),
            "m2": self.m2.tolist(),
        }
