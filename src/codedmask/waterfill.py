"""Waterfilling lower bound on the LMMSE and the optimal transmissivity.

For a mask of transmissivity rho, Parseval caps the total nonzero-frequency
spectral power; distributing that budget by waterfilling against the prior
gives a bound no mask at that rho can beat.  Minimizing over rho gives the
design target the synthesis modules chase.

Sorting 1/d once gives the water level in closed form from prefix sums
(Palomar & Fonollosa, IEEE TSP 2005; Cover & Thomas 9.4), so the bound is a
cheap vectorised function of rho.  The exact power budget has kinks at
rho = k/N and the bound is smooth between them, so ``optimal_rho``
evaluates every kink in one pass, drops the segments whose lower estimate
cannot beat the best point found, and solves for the stationary points
inside the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ImagingConfig

__all__ = [
    "SpectrumAllocation",
    "power_budget",
    "waterfill",
    "lower_bound",
    "optimal_rho",
]

# Slope samples per surviving segment: brackets for the stationary points.
_SEGMENT_SAMPLES = 8


@dataclass(frozen=True)
class SpectrumAllocation:
    """Waterfilled per-frequency power targets.

    ``targets[i]`` is the power asked of frequency i (DC entry is 0);
    ``weights`` are the targets normalized to sum to 1 (all zero when the
    budget is zero).
    """

    P: float
    T: float
    targets: np.ndarray
    weights: np.ndarray


def power_budget(n: int, rho: float) -> tuple[float, float]:
    """Nonzero-frequency power budget of a [0,1] mask at transmissivity rho.

    Returns ``(exact, simple)`` where exact accounts for the integrality of
    the entry bound and simple is the smooth relaxation n^2 rho (1 - rho).
    ``exact <= simple`` always.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    nr = n * rho
    fl = math.floor(nr)
    exact = n * (fl + (nr - fl) ** 2) - nr * nr
    simple = n * n * rho * (1.0 - rho)
    return max(exact, 0.0), simple


class _Water:
    """Waterfilled error of the tail frequencies as a function of gamma*P.

    ``inv`` holds the ascending 1/d of the tail frequencies with d > 0.
    Pouring x = gamma*P wets the m smallest, where m counts the activation
    thresholds ``c[j] = j inv[j] - S[j]`` below x (S[j] sums the j smallest
    inv).  The water level is then (x + S[m]) / m and the error is
    m^2 / (x + S[m]) + R[m], R[m] summing d over the dry frequencies.
    """

    def __init__(self, tail: np.ndarray):
        dpos = tail[tail > 0]
        inv = 1.0 / dpos
        order = np.argsort(inv, kind="stable")
        self.inv = inv[order]
        self.S = np.concatenate(([0.0], np.cumsum(self.inv)))
        # A suffix sum: total minus a prefix sum cancels at large gamma*P.
        self.R = np.concatenate((np.cumsum(dpos[order][::-1])[::-1], [0.0]))
        self.c = np.arange(self.inv.size) * self.inv - self.S[:-1]

    def level(self, x: float) -> float:
        m = int(np.searchsorted(self.c, x))
        return (x + self.S[m]) / m

    def error(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Error and its derivative in x (continuous: -1 / level^2)."""
        m = np.searchsorted(self.c, x)
        den = x + self.S[m]
        wet = np.divide(m, den, out=np.zeros_like(den), where=m > 0)
        return m * wet + self.R[m], -wet * wet


def waterfill(d, gamma: float, P: float) -> SpectrumAllocation:
    """Pour power P over the nonzero frequencies against the prior d.

    The water level T solves ``sum_i (1/gamma)(T - 1/d_i)^+ = P`` in closed
    form from the sorted 1/d_i.  Frequencies with d_i = 0 take no power.
    """
    d = np.asarray(d, dtype=float).ravel()
    if d.size < 2:
        raise ValueError("need at least two frequencies to waterfill")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if P < 0:
        raise ValueError("power budget must be nonnegative")

    n = d.size
    targets = np.zeros(n)
    if P == 0:
        return SpectrumAllocation(0.0, 0.0, targets, np.zeros(n))

    tail = d[1:]
    pos = tail > 0
    if not np.any(pos):
        raise ValueError("no frequency with positive prior to pour power into")
    T = _Water(tail).level(gamma * P)
    targets[1:][pos] = np.maximum(T - 1.0 / tail[pos], 0.0) / gamma
    weights = targets / P
    return SpectrumAllocation(float(P), float(T), targets, weights)


class _Bound:
    """The waterfilling bound and its slope as vectorised functions of rho.

    On the segment k/N <= rho <= (k+1)/N the exact power budget is the
    quadratic ``N (k + (N rho - k)^2) - (N rho)^2``, so with the segment
    index k given the bound is smooth in rho, also at the segment ends.
    """

    def __init__(self, config: ImagingConfig, d: np.ndarray):
        self.N = config.npixels
        self.t, self.W, self.J = config.t, config.W, config.J
        self.theta = self.N * d[0]
        self.total = float(d.sum())
        self.water = _Water(d[1:])

    def first(self, rho):
        """DC term 1/(N/theta + gamma (N rho)^2) and its slope."""
        s = self.W + self.J * rho
        h = self.t * self.N * rho * rho / s
        dh = self.t * self.N * rho * (2.0 * s - self.J * rho) / (s * s)
        den = self.N + self.theta * h
        return self.theta / den, -self.theta ** 2 * dh / (den * den)

    def __call__(self, rho, k):
        N = self.N
        s = self.W + self.J * rho
        nr = N * rho
        P = np.maximum(N * (k + (nr - k) ** 2) - nr * nr, 0.0)
        dP = 2.0 * N * N * ((N - 1) * rho - k)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = self.t * P / (N * s)
            dx = self.t * (dP * s - P * self.J) / (N * s * s)
            first, dfirst = self.first(rho)
            err, derr = self.water.error(x)
        value, slope = first + err, dfirst + derr * dx
        # Without thermal noise gamma is infinite at rho = 0; the limit
        # there is the prior's total, approached from below.
        dark = s <= 0
        value[dark], slope[dark] = self.total, -np.inf
        return value, slope


def lower_bound(config: ImagingConfig, d, rho: float) -> float:
    """Waterfilling bound at fixed transmissivity: no mask at rho does better.

    The DC term uses the pinned amplitude ``a_hat_0 = N rho``; the rest uses
    the waterfilled allocation of the exact power budget.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    d = np.asarray(d, dtype=float).ravel()
    N = config.npixels
    if d.size != N:
        raise ValueError(f"prior has {d.size} samples, config expects {N}")
    if config.t == 0 or rho == 0.0:
        return float(d.sum())
    if config.W + config.J * rho <= 0:
        raise ValueError("W + J*rho must be positive to define gamma")
    rho_arr = np.array([rho])
    value, _ = _Bound(config, d)(rho_arr, np.floor(N * rho_arr))
    return float(value[0])


def optimal_rho(config: ImagingConfig, d) -> tuple[float, float]:
    """Global minimum of the waterfilling bound over transmissivity.

    Evaluates the bound at every kink k/N and on a 1025-point grid.  A
    segment between kinks can hold a lower value only if its lower
    estimate (DC term at the right end, which falls with rho, plus the
    water error at the largest gamma*P the segment can reach) beats the
    best point.  Inside each such segment, sign changes of the slope at
    evenly spaced samples bracket the local minima, which bisection on the
    slope pins down to rounding.  Returns
    ``(rho_star, lower_bound(config, d, rho_star))``.
    """
    d = np.asarray(d, dtype=float).ravel()
    if config.W <= 0 and config.J <= 0 and config.t > 0:
        raise ValueError("need W > 0 or J > 0 to search over rho")
    N = config.npixels
    if d.size != N:
        raise ValueError(f"prior has {d.size} samples, config expects {N}")
    if config.t == 0:
        return 0.0, float(d.sum())
    bound = _Bound(config, d)

    rho = np.union1d(np.arange(N + 1) / N, np.linspace(0.0, 1.0, 1025))
    val, _ = bound(rho, np.minimum(np.floor(N * rho), N - 1))
    i = int(np.argmin(val))
    best_rho, best_val = float(rho[i]), float(val[i])

    # Segment lower estimates: P is convex on a segment and gamma falls.
    k = np.arange(N)
    P_top = np.maximum(k * (N - k), (k + 1) * (N - k - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        x_top = config.t * P_top / (N * (config.W + config.J * k / N))
    lower = bound.first((k + 1) / N)[0] + bound.water.error(x_top)[0]
    live = k[lower < best_val]

    if live.size:
        frac = np.arange(_SEGMENT_SAMPLES + 1) / _SEGMENT_SAMPLES
        seg = np.repeat(live, _SEGMENT_SAMPLES + 1).reshape(-1, frac.size)
        pts = (seg + frac) / N
        _, slope = bound(pts, seg)
        down = (slope[:, :-1] < 0) & (slope[:, 1:] >= 0)
        lo, hi, kk = pts[:, :-1][down], pts[:, 1:][down], seg[:, :-1][down]
        for _ in range(64):
            if not np.any(hi - lo > 4e-16 * hi):
                break
            mid = 0.5 * (lo + hi)
            _, s_mid = bound(mid, kk)
            neg = s_mid < 0
            lo = np.where(neg, mid, lo)
            hi = np.where(neg, hi, mid)
        cand = np.concatenate((lo, pts.ravel()))
        kc = np.concatenate((kk, seg.ravel()))
        cval, _ = bound(cand, kc)
        i = int(np.argmin(cval))
        if cval[i] < best_val:
            best_rho, best_val = float(cand[i]), float(cval[i])

    return best_rho, lower_bound(config, d, best_rho)
