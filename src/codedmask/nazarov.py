"""Greedy sign-cortege synthesis of apertures with a prescribed spectrum.

Given normalized per-frequency power targets, a local search over the signs
attached to the weighted basis vectors maximizes the l1 norm of the signed
combination g.  At a local maximum g is flat enough that a bounded vector b
(sup norm at most M(n)) with the required inner products can be read off from
it; shifting and scaling b into [0, 1] yields the mask.  Every guarantee is
verified numerically and recorded in a certificate; on verification failure
the search restarts from a fresh seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Aperture, DesignCertificate, ImagingConfig, lmmse
from .spectra import basis_matrix, beta, m_bound
from .waterfill import optimal_rho, power_budget, waterfill

__all__ = [
    "SignCortege",
    "GreedyResult",
    "TransferError",
    "DesignError",
    "potential",
    "greedy_cortege",
    "cortege_to_bounded",
    "design_aperture",
    "design_aperture_2d",
]

_FLIP_TOL = 1e-12
_CERT_RTOL = 1e-9
# Soft-truncation gains tried when mapping g to the bounded vector, as
# multiples of 1/sup|g|; inf is the hard-sign limit.
_TRUNCATION_GAINS = (math.inf, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0)


class TransferError(RuntimeError):
    """The bounded vector read off a cortege failed its verification."""


class DesignError(RuntimeError):
    """No passing certificate within the restart budget."""


@dataclass(frozen=True)
class SignCortege:
    """Signs (+/-1) attached to the basis indices with positive target."""

    support: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=int)
        signs = np.asarray(self.signs, dtype=float)
        if support.shape != signs.shape:
            raise ValueError("support and signs must have matching shapes")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("cortege entries must be exactly +/-1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "signs", signs)


@dataclass
class GreedyResult:
    cortege: SignCortege
    potential: float
    trace: list = field(default_factory=list)
    sweeps: int = 0
    converged: bool = True


def _normalize_target(p, size: int | None = None) -> np.ndarray:
    p = np.asarray(p, dtype=float).ravel()
    if size is not None and p.size != size:
        raise ValueError(f"target has {p.size} weights, expected {size}")
    if np.any(p < 0):
        raise ValueError("target weights must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("target weights must sum to 1")
    return p


def _weighted_rows_1d(p: np.ndarray, support: np.ndarray) -> np.ndarray:
    n = p.size
    B = basis_matrix(n)
    return np.sqrt(p[support])[:, None] * B[support]


def _row_getter_2d(p: np.ndarray, support: np.ndarray, n: int):
    """Lazy flattened rows sqrt(p_jk) psi_j (x) psi_k of the 2D basis."""
    B = basis_matrix(n)
    sq = np.sqrt(p[support])

    def row(m: int) -> np.ndarray:
        j, k = divmod(int(support[m]), n)
        return sq[m] * np.outer(B[j], B[k]).ravel()

    return row


def potential(p, cortege: SignCortege) -> float:
    """Normalized l1 norm of the signed combination g (1D targets)."""
    p = _normalize_target(p)
    rows = _weighted_rows_1d(p, cortege.support)
    g = cortege.signs @ rows
    return float(np.abs(g).mean())


def _sweep_to_local_max(signs: np.ndarray, row, g: np.ndarray,
                        max_sweeps: int) -> tuple[np.ndarray, float, list, int, bool]:
    """Fixed-order single-flip ascent on the l1 potential."""
    cur = float(np.abs(g).mean())
    trace = [cur]
    k = signs.size
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        sweeps += 1
        flipped = False
        for m in range(k):
            cand = g - 2.0 * signs[m] * row(m)
            val = float(np.abs(cand).mean())
            if val > cur + _FLIP_TOL:
                g = cand
                signs[m] = -signs[m]
                cur = val
                trace.append(cur)
                flipped = True
        if not flipped:
            converged = True
            break
    return g, cur, trace, sweeps, converged


def greedy_cortege(p, seed, max_sweeps: int = 200) -> GreedyResult:
    """Local search over sign flips, starting from a seeded random cortege.

    Sweeps the support in fixed index order, accepting any flip that raises
    the potential by more than the tie-breaking threshold; stops at a local
    maximum (a full sweep with no flips) or after ``max_sweeps``.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    p = _normalize_target(p)
    support = np.flatnonzero(p > 0)
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=support.size)
    rows = _weighted_rows_1d(p, support)
    g = signs @ rows
    g, cur, trace, sweeps, converged = _sweep_to_local_max(
        signs, lambda m: rows[m], g, max_sweeps)
    return GreedyResult(SignCortege(support, signs), cur, trace, sweeps,
                        converged)


def _bounded_from_g(g: np.ndarray, M: float, inner_rows, sqrt_p: np.ndarray
                    ) -> tuple[np.ndarray, float]:
    """Map g to a box-bounded vector maximizing the worst inner-product margin.

    Candidates: the hard saturation M*sgn(g) and soft truncations
    M*clip(lam*g, -1, 1).  Pure rescaling (the smallest gain) already meets
    every target whenever sup|g| <= M, since (g, psi_j) = eps_j sqrt(p_j)
    exactly; saturation can do better when the sign pattern is benign.
    """
    ginf = float(np.abs(g).max())
    if ginf == 0:
        raise TransferError("signed combination vanished; nothing to transfer")
    best_b, best_margin = None, -math.inf
    for gain in _TRUNCATION_GAINS:
        if math.isinf(gain):
            b = M * np.where(g >= 0, 1.0, -1.0)  # sgn(0) taken as +1
        else:
            b = M * np.clip(gain * g / ginf, -1.0, 1.0)
        if b.mean() > 0:
            b = -b
        ips = inner_rows(b)
        margin = float(np.min(np.abs(ips) - sqrt_p))
        if margin > best_margin:
            best_b, best_margin = b, margin
    return best_b, best_margin


def cortege_to_bounded(p, cortege: SignCortege) -> np.ndarray:
    """Bounded vector with |(b, psi_j)|^2 >= p_j from a locally optimal cortege.

    Verifies sup|b| <= M(n) and every targeted inner product; negates b if
    its mean is positive so the downstream mask has transmissivity <= 1/2.
    Raises TransferError when verification fails (caller restarts the greedy
    with a fresh seed).
    """
    p = _normalize_target(p)
    n = p.size
    M = m_bound(n)
    support = cortege.support
    rows = _weighted_rows_1d(p, support)
    g = cortege.signs @ rows
    B = basis_matrix(n)
    sqrt_p = np.sqrt(p[support])
    b, margin = _bounded_from_g(g, M, lambda b: (B[support] @ b) / n, sqrt_p)
    if margin < -_CERT_RTOL * max(1.0, float(sqrt_p.max())):
        raise TransferError(
            f"inner-product verification failed (worst margin {margin:.3e})")
    if float(np.abs(b).max()) > M * (1.0 + _CERT_RTOL):
        raise TransferError("bounded vector exceeds the sup-norm budget")
    return b


def _certify(config: ImagingConfig, d: np.ndarray, targets: np.ndarray,
             M: float, rho_star: float, bound: float, b: np.ndarray,
             aperture: Aperture) -> DesignCertificate:
    """Check the spectral and exposure guarantees of a candidate mask.

    With nothing poured (all targets zero) there is no spectral requirement
    and the mask is the constant one at rho_star, which may exceed 1/2.
    """
    ahat2 = np.abs(aperture.spectrum()).ravel() ** 2
    poured = bool(targets.any())
    required = targets / (4.0 * M * M * rho_star * (1.0 - rho_star)) \
        if poured else targets
    spectral_ok = bool(np.all(
        ahat2[1:] >= required[1:] * (1.0 - _CERT_RTOL) - 1e-300))
    penalty = 2.0 * M * M
    m_penalized = lmmse(config.with_t(config.t * penalty), d, aperture)
    exposure_ok = m_penalized <= bound * (1.0 + _CERT_RTOL) + 1e-300
    sup_norm = float(np.abs(b).max())
    rho_ok = aperture.rho <= 0.5 + _CERT_RTOL or not poured
    return DesignCertificate(
        achieved=ahat2,
        required=required,
        b_sup_norm=sup_norm,
        penalty=penalty,
        passed=spectral_ok and exposure_ok and rho_ok
        and sup_norm <= M * (1.0 + _CERT_RTOL),
        detail={
            "rho_star": rho_star,
            "rho": aperture.rho,
            "lower_bound": bound,
            "lmmse_at_penalized_t": m_penalized,
            "spectral_ok": spectral_ok,
            "exposure_ok": exposure_ok,
        },
    )


def design_aperture(config: ImagingConfig, d, seed=0, restarts: int = 16,
                    max_sweeps: int = 200) -> tuple[Aperture, DesignCertificate]:
    """Synthesize a 1D mask meeting the waterfilling targets up to 2 M(n)^2.

    Pipeline: optimal transmissivity, waterfilled power targets, greedy sign
    cortege, bounded-vector transfer, then the affine map a = (b+M)/(2M).
    The certificate re-verifies every guarantee; failed attempts restart with
    derived seeds up to the restart budget.
    """
    if config.dims != 1:
        raise ValueError("design_aperture expects a 1D config")
    d = np.asarray(d, dtype=float).ravel()
    n = config.n
    if n < 2:
        raise ValueError("need n >= 2 to design an aperture")
    M = m_bound(n)
    rho_star, bound = optimal_rho(config, d)
    degenerate, targets = _waterfill_targets(config, d, rho_star)
    if degenerate:
        aperture = Aperture(np.full(n, rho_star))
        cert = _certify(config, d, targets, M, rho_star, bound,
                        np.zeros(n), aperture)
        cert.seed = _seed_as_int(seed)
        return aperture, cert

    p = targets / targets.sum()
    last_cert = None
    for attempt in range(restarts):
        result = greedy_cortege(p, [_seed_as_int(seed), attempt], max_sweeps)
        try:
            b = cortege_to_bounded(p, result.cortege)
        except TransferError:
            continue
        aperture = Aperture((b + M) / (2.0 * M))
        cert = _certify(config, d, targets, M, rho_star,
                        bound, b, aperture)
        cert.seed = _seed_as_int(seed)
        cert.restarts = attempt
        cert.detail["greedy_sweeps"] = result.sweeps
        cert.detail["greedy_converged"] = result.converged
        cert.detail["potential_trace"] = result.trace
        if cert.passed:
            return aperture, cert
        last_cert = cert
    raise DesignError(
        f"no passing certificate in {restarts} restarts "
        f"(last: {None if last_cert is None else last_cert.detail})")


def _waterfill_targets(config: ImagingConfig, d: np.ndarray, rho_star: float
                       ) -> tuple[bool, np.ndarray]:
    """Waterfilled power targets at the optimal transmissivity.

    Returns (degenerate, targets); degenerate means there is no power to
    allocate (zero exposure, boundary rho, or no prior off DC), in which
    case the constant mask at rho_star attains the bound: all-closed at
    rho_star = 0, all-open at rho_star = 1.
    """
    N = config.npixels
    targets = np.zeros(N)
    if config.t == 0 or rho_star in (0.0, 1.0):
        return True, targets
    P, _ = power_budget(N, rho_star)
    if P <= 0 or not np.any(d[1:] > 0):
        return True, targets
    gamma = config.gamma(rho_star)
    alloc = waterfill(d, gamma, P)
    return False, alloc.targets


def _seed_as_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def design_aperture_2d(config: ImagingConfig, d_2d, seed=0, restarts: int = 16,
                       max_sweeps: int = 200, n_cap: int = 128
                       ) -> tuple[Aperture, DesignCertificate]:
    """2D synthesis with the product basis; sup-norm budget (3 pi/2)/beta^4.

    For constant (iid) priors at a residue-construction length, a product of
    two 1D spectrally flat masks is returned instead: it is flat off the DC
    row/column and carries a smaller exposure constant.
    """
    if config.dims != 2:
        raise ValueError("design_aperture_2d expects a 2D config")
    n = config.n
    if n > n_cap:
        raise ValueError(f"n={n} exceeds the 2D cap {n_cap} (n^2 signs)")
    d = np.asarray(d_2d, dtype=float)
    if d.shape != (n, n):
        raise ValueError(f"2D prior must be {n}x{n}")
    if n == 1:
        aperture = Aperture(np.ones((1, 1)))
        cert = DesignCertificate(np.array([1.0]), np.array([0.0]), 1.0, 1.0,
                                 True, seed=_seed_as_int(seed))
        return aperture, cert

    if np.ptp(d) <= 1e-12 * max(float(d.max()), 1e-300):
        product = _product_flat_design(config, d)
        if product is not None and product[1].passed:
            return product

    dflat = d.ravel()
    N = n * n
    M = 1.5 * math.pi / beta(n) ** 4
    rho_star, bound = optimal_rho(config, dflat)
    degenerate, targets = _waterfill_targets(config, dflat, rho_star)
    if degenerate:
        aperture = Aperture(np.full((n, n), rho_star))
        cert = _certify(config, dflat, targets, M, rho_star,
                        bound, np.zeros(N), aperture)
        cert.seed = _seed_as_int(seed)
        return aperture, cert

    p = targets / targets.sum()
    support = np.flatnonzero(p > 0)
    B = basis_matrix(n)
    sqrt_p = np.sqrt(p[support])
    row = _row_getter_2d(p, support, n)

    def inner_rows(b):
        grid = b.reshape(n, n)
        full = (B @ grid @ B.T) / N
        return full.ravel()[support]

    for attempt in range(restarts):
        rng = np.random.default_rng([_seed_as_int(seed), attempt])
        signs = rng.choice([-1.0, 1.0], size=support.size)
        g = np.zeros(N)
        for m in range(support.size):
            g += signs[m] * row(m)
        g, cur, trace, sweeps, converged = _sweep_to_local_max(
            signs, row, g, max_sweeps)
        signs, g = _repair_sign_quadruples(signs, g, row, support, n)
        ginf = float(np.abs(g).max())
        if ginf == 0 or ginf > M:
            continue
        try:
            b, margin = _bounded_from_g(g, M, inner_rows, sqrt_p)
            if margin < -_CERT_RTOL * max(1.0, float(sqrt_p.max())):
                raise TransferError(f"worst margin {margin:.3e}")
        except TransferError:
            continue
        b_scaled = M * g / ginf
        if b_scaled.mean() > 0:
            b_scaled = -b_scaled
        for cand in (b, b_scaled):
            aperture = Aperture(((cand + M) / (2.0 * M)).reshape(n, n))
            cert = _certify(config, dflat, targets, M,
                            rho_star, bound, cand, aperture)
            cert.seed = _seed_as_int(seed)
            cert.restarts = attempt
            cert.detail["greedy_sweeps"] = sweeps
            cert.detail["greedy_converged"] = converged
            if cert.passed:
                return aperture, cert
    raise DesignError(f"no passing 2D certificate in {restarts} restarts")


def _repair_sign_quadruples(signs: np.ndarray, g: np.ndarray, row,
                            support: np.ndarray, n: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Anti-align signs inside each interior 2D frequency quadruple.

    For 0 < u, v < n/2 the four basis products cos x cos, sin x sin,
    cos x sin, and sin x cos all feed the DFT frequencies (u, v) and
    (u, n-v).  If the signs within the (cc, ss) or (cs, sc) pair agree, the
    two contributions can cancel at one of those frequencies even though
    every basis inner product individually meets its target.  Forcing
    opposite signs within each pair sends one pair's power to each frequency
    of the quadruple, so no cancellation is possible.  When a pair must be
    fixed, the member whose flip costs the least l1 potential is flipped.
    """
    pos = {int(f): m for m, f in enumerate(support)}
    hc = (n - 1) // 2  # largest plain-cosine basis index
    for u in range(1, hc + 1):
        for v in range(1, hc + 1):
            for f1, f2 in (((u, v), (n - u, n - v)),
                           ((u, n - v), (n - u, v))):
                m1 = pos.get(f1[0] * n + f1[1])
                m2 = pos.get(f2[0] * n + f2[1])
                if m1 is None or m2 is None or signs[m1] * signs[m2] < 0:
                    continue
                best = None
                for m in (m1, m2):
                    cand = g - 2.0 * signs[m] * row(m)
                    val = float(np.abs(cand).mean())
                    if best is None or val > best[0]:
                        best = (val, m, cand)
                _, m, g = best
                signs[m] = -signs[m]
    return signs, g


def _product_flat_design(config: ImagingConfig, d: np.ndarray):
    """Product of two 1D residue masks for an iid 2D prior, when available."""
    from .flatseq import (certified_penalty, families_for, loss_factor,
                          residue_sequence)

    fams = families_for(config.n)
    if not fams:
        return None
    a_ratio = config.W / config.J if config.J > 0 else math.inf
    fam = min(fams, key=lambda f: loss_factor(a_ratio, f.rho * f.rho))
    line = residue_sequence(fam).values
    grid = np.outer(line, line)
    aperture = Aperture(grid)
    ahat2 = np.abs(aperture.spectrum()) ** 2
    level = fam.flat_level ** 2
    off = np.ones((config.n, config.n), dtype=bool)
    off[0, :] = False
    off[:, 0] = False
    flat_ok = bool(np.allclose(ahat2[off], level, rtol=1e-6, atol=0.0))
    analog = loss_factor(a_ratio, aperture.rho)
    dflat = d.ravel()
    _, bound = optimal_rho(config, dflat)
    # The analog of the 1D loss factor is only asymptotic: certify the
    # smallest multiplier at which the penalized run meets the bound.
    penalty = certified_penalty(config, dflat, aperture, bound)
    m_penalized = lmmse(config.with_t(config.t * penalty), dflat, aperture) \
        if math.isfinite(penalty) else math.inf
    required = np.zeros_like(ahat2)
    required[off] = level
    cert = DesignCertificate(
        achieved=ahat2.ravel(),
        required=required.ravel(),
        b_sup_norm=1.0,
        penalty=penalty,
        passed=flat_ok and math.isfinite(penalty),
        detail={
            "construction": "product-flat",
            "family": {"p": fam.p, "e": fam.e, "include_zero": fam.include_zero},
            "analog_penalty": analog,
            "lmmse_at_penalized_t": m_penalized,
            "lower_bound": bound,
        },
    )
    return aperture, cert
