"""Reference checks of codedmask outputs, written independently of the package.

The waterfilling bound, the LMMSE and the prior sampling are re-derived here
with plain numpy, so a change that makes the package faster but wrong cannot
also change the yardstick it is judged by.  Only the basis constant M(n)
comes from the package (``codedmask.spectra.m_bound`` / ``beta``).
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9  # the package's own certificate tolerance
# The reference sums in another order than the package.  A certificate that
# the package placed exactly on its own tolerance edge (the product-flat
# penalty is found by bisection against it) can differ by rounding.
_EDGE = (1.0 + RTOL) * (1.0 + 1e-12)
# The package's rho scan grid.  Its search refines within one cell of the
# best grid point, which lowers the bound by at most ~4e-5 (relative) on
# the benchmark's inputs; a bound further below the grid minimum is not
# the minimum's.
RHO_GRID = np.linspace(0.0, 1.0, 1025)
_REFINE_RTOL = 1e-3


def sample_density(kind: str, n: int, theta: float, s: float = 0.0,
                   r: float = 0.0, exponent: float = 0.0,
                   x0: float = 0.01) -> np.ndarray:
    """n-point sampling d_i = d(i/n)/n of a mirrored spectral density."""
    x = np.arange(n) / n
    x = np.minimum(x, 1.0 - x)
    if kind == "iid":
        dens = np.full(n, theta)
    elif kind == "bandlimited":
        dens = np.where(x <= s - r, theta,
                        np.where(x >= s + r, 0.0,
                                 theta * (s + r - x) / (2.0 * r)))
    elif kind == "powerlaw":
        dens = theta * (x0 / (x0 + x)) ** exponent
    else:
        raise ValueError(f"no reference sampling for prior kind {kind!r}")
    return dens / n


def power_budget(N: int, rho: float) -> float:
    """Exact nonzero-frequency power budget of a [0, 1] mask at rho."""
    nr = N * rho
    fl = math.floor(nr)
    return max(N * (fl + (nr - fl) ** 2) - nr * nr, 0.0)


def waterfill(d: np.ndarray, gamma: float, P: float) -> np.ndarray:
    """Exact waterfilled targets: sort 1/d once, water level in closed form."""
    targets = np.zeros(d.size)
    tail = d[1:]
    pos = np.flatnonzero(tail > 0)
    if P <= 0 or pos.size == 0:
        return targets
    inv = 1.0 / tail[pos]
    srt = np.sort(inv)
    levels = (gamma * P + np.cumsum(srt)) / np.arange(1, srt.size + 1)
    active = int(np.count_nonzero(srt < levels))
    level = levels[max(active, 1) - 1]
    targets[1:][pos] = np.maximum(level - inv, 0.0) / gamma
    return targets


def _gamma(N: int, t: float, W: float, J: float, rho: float) -> float:
    return t / (N * (W + J * rho))


def lower_bound(t: float, W: float, J: float, d: np.ndarray,
                rho: float) -> float:
    """Waterfilling LMMSE bound at transmissivity rho (DC pinned at N rho)."""
    N = d.size
    if t == 0 or rho == 0.0:
        return float(d.sum())
    gamma = _gamma(N, t, W, J, rho)
    targets = waterfill(d, gamma, power_budget(N, rho))
    theta = N * d[0]
    first = 1.0 / (N / theta + gamma * (N * rho) ** 2) if theta > 0 else 0.0
    tail = d[1:]
    pos = tail > 0
    return first + float(np.sum(
        1.0 / (1.0 / tail[pos] + gamma * targets[1:][pos])))


def grid_min_bound(t: float, W: float, J: float, d: np.ndarray) -> float:
    """Smallest reference bound over RHO_GRID: what a rho search must reach."""
    return min(lower_bound(t, W, J, d, float(r)) for r in RHO_GRID)


def check_rho_search(t: float, W: float, J: float, d: np.ndarray,
                     bound: float) -> list[str]:
    """A minimized bound may not exceed the grid minimum (beyond RTOL)."""
    best = grid_min_bound(t, W, J, d)
    if bound > best * (1.0 + RTOL):
        return [f"bound {bound} above the grid minimum {best}: rho search "
                "is not optimal"]
    return []


def lmmse(t: float, W: float, J: float, d: np.ndarray,
          mask: np.ndarray) -> float:
    """Linear MMSE through a mask: sum of 1/(1/d + gamma |a_hat|^2)."""
    N = d.size
    g = _gamma(N, t, W, J, float(mask.mean()))
    ahat2 = np.abs(np.fft.fftn(mask)).ravel() ** 2
    pos = d > 0
    return float(np.sum(1.0 / (1.0 / d[pos] + g * ahat2[pos])))


def check_certified_design(t: float, W: float, J: float, d: np.ndarray,
                           mask: np.ndarray, M: float, rho_star: float,
                           b_sup_norm: float, bound: float
                           ) -> tuple[list[str], float]:
    """Re-verify a greedy (nazarov) design certificate, 1D or 2D.

    Checks the spectrum against targets re-waterfilled at the reported
    rho_star, the sup norm against M, the reference bound at rho_star
    against the grid minimum, and the LMMSE at the penalized exposure
    2 M^2 t against that bound.  Returns the list of failed checks and
    LMMSE(t) over the bound.
    """
    errors = _mask_errors(mask, d.size)
    if errors:
        return errors, math.nan
    if not 0.0 < rho_star < 1.0:
        return [f"rho_star {rho_star} outside (0, 1)"], math.nan
    N = d.size
    targets = waterfill(d, _gamma(N, t, W, J, rho_star),
                        power_budget(N, rho_star))
    required = targets / (4.0 * M * M * rho_star * (1.0 - rho_star))
    ahat2 = np.abs(np.fft.fftn(mask)).ravel() ** 2
    if not np.all(ahat2[1:] >= required[1:] * (1.0 - RTOL) - 1e-300):
        errors.append("spectrum below the required targets")
    if b_sup_norm > M * (1.0 + RTOL):
        errors.append(f"sup norm {b_sup_norm} exceeds M = {M}")
    if float(mask.mean()) > 0.5 + RTOL:
        errors.append("transmissivity above 1/2")
    ref = lower_bound(t, W, J, d, rho_star)
    if abs(ref - bound) > RTOL * ref:
        errors.append(f"reported bound {bound} != reference {ref}")
    errors += check_rho_search(t, W, J, d, ref)
    if lmmse(2.0 * M * M * t, W, J, d, mask) > ref * _EDGE:
        errors.append("LMMSE at penalized exposure above the bound")
    return errors, lmmse(t, W, J, d, mask) / ref


def check_product_flat(t: float, W: float, J: float, d: np.ndarray,
                       mask: np.ndarray, level: float, penalty: float,
                       bound: float) -> tuple[list[str], float]:
    """Re-verify a 2D product-of-residue-masks certificate.

    The spectrum must sit at the flat ``level`` off the DC row and column.
    The certificate records no rho_star, so the reported bound must lie
    within the rho search's refinement of the reference grid minimum, and
    the LMMSE at ``penalty * t`` must meet it.
    """
    errors = _mask_errors(mask, d.size)
    if errors:
        return errors, math.nan
    n = mask.shape[0]
    ahat2 = np.abs(np.fft.fft2(mask)) ** 2
    off = np.ones((n, n), dtype=bool)
    off[0, :] = False
    off[:, 0] = False
    if not np.allclose(ahat2[off], level, rtol=1e-6, atol=0.0):
        errors.append("product mask is not flat off the DC row and column")
    best = grid_min_bound(t, W, J, d)
    if not best * (1.0 - _REFINE_RTOL) <= bound <= best * (1.0 + RTOL):
        errors.append(f"reported bound {bound} is not the grid minimum "
                      f"{best} or its refinement")
        return errors, math.nan
    if not math.isfinite(penalty) or \
            lmmse(penalty * t, W, J, d, mask) > bound * _EDGE:
        errors.append("LMMSE at penalized exposure above the bound")
    return errors, lmmse(t, W, J, d, mask) / bound


def _mask_errors(mask: np.ndarray, N: int) -> list[str]:
    if mask.size != N:
        return [f"mask has {mask.size} entries, expected {N}"]
    if not np.all(np.isfinite(mask)) or mask.min() < 0 or mask.max() > 1:
        return ["mask entries outside [0, 1]"]
    return []
