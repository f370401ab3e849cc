"""Spectrally flat binary masks from power residues, and their exposure cost.

For special primes p, the indicator of the e-th power residues (e in
{2, 4, 8}) is a cyclic difference set, so its DFT magnitude is constant off
DC.  Such masks meet the waterfilling bound for i.i.d. scenes up to a small
multiplicative exposure penalty that depends only on how far the achievable
transmissivity k/p sits from the optimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Aperture, DesignCertificate, ImagingConfig, lmmse
from .waterfill import optimal_rho

__all__ = [
    "ResidueFamily",
    "residue_sequence",
    "find_residue_lengths",
    "families_for",
    "loss_factor",
    "worst_case_penalty",
    "certified_penalty",
    "flat_design",
]


# Miller-Rabin with the first 13 primes as witnesses is exact below this.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 3.3e24."""
    if n >= _WITNESS_LIMIT:
        raise ValueError(f"{n} is too large for the deterministic prime test")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _odd_square(m: int) -> bool:
    if m < 0:
        return False
    r = math.isqrt(m)
    return r * r == m and r % 2 == 1


def _even_square(m: int) -> bool:
    if m < 0:
        return False
    r = math.isqrt(m)
    return r * r == m and r % 2 == 0


@dataclass(frozen=True)
class ResidueFamily:
    """An e-th power residue construction at an odd prime p.

    Validity (difference-set conditions):

    - e=2: p = 3 (mod 4), residues only.
    - e=4: p = 4x^2+1 with x odd (residues), or p = 4x^2+9 with x odd
      (residues plus the zero index).
    - e=8: p = 8a^2+1 = 64b^2+9 with a, b odd (residues), or
      p = 8a^2+49 = 64b^2+441 with a odd, b even (residues plus zero).
    """

    p: int
    e: int
    include_zero: bool = False

    def __post_init__(self):
        if self.e not in (2, 4, 8):
            raise ValueError(f"residue exponent must be 2, 4, or 8, got {self.e}")
        if self.p < 3 or self.p % 2 == 0 or not _is_prime(self.p):
            raise ValueError(f"{self.p} is not an odd prime")
        if (self.p - 1) % self.e != 0:
            raise ValueError(f"e={self.e} does not divide p-1 for p={self.p}")
        if not self.is_valid():
            raise ValueError(
                f"p={self.p}, e={self.e}, include_zero={self.include_zero} "
                "is not a known difference-set family")

    def is_valid(self) -> bool:
        p, e = self.p, self.e
        if e == 2:
            return not self.include_zero and p % 4 == 3
        if e == 4:
            if self.include_zero:
                return (p - 9) % 4 == 0 and _odd_square((p - 9) // 4)
            return (p - 1) % 4 == 0 and _odd_square((p - 1) // 4)
        if self.include_zero:
            return ((p - 49) % 8 == 0 and _odd_square((p - 49) // 8)
                    and (p - 441) % 64 == 0 and _even_square((p - 441) // 64))
        return ((p - 1) % 8 == 0 and _odd_square((p - 1) // 8)
                and (p - 9) % 64 == 0 and _odd_square((p - 9) // 64))

    @property
    def k(self) -> int:
        """Number of ones in the mask."""
        return (self.p - 1) // self.e + (1 if self.include_zero else 0)

    @property
    def rho(self) -> float:
        return self.k / self.p

    @property
    def flat_level(self) -> float:
        """The constant off-DC power |a_hat_j|^2 = k - lambda."""
        k = self.k
        return k - k * (k - 1) / (self.p - 1)


def residue_sequence(family: ResidueFamily) -> Aperture:
    """Build the residue indicator mask and verify its spectral flatness.

    Membership is tested by modular exponentiation: i is an e-th power
    residue iff i^((p-1)/e) = 1 (mod p).  Flatness is checked by DFT rather
    than trusted from the parameter theory; a failure is a hard error.
    """
    p, e = family.p, family.e
    q = (p - 1) // e
    a = np.zeros(p)
    for i in range(1, p):
        if pow(i, q, p) == 1:
            a[i] = 1.0
    if family.include_zero:
        a[0] = 1.0
    if int(a.sum()) != family.k:
        raise RuntimeError(
            f"residue count mismatch at p={p}, e={e}: got {int(a.sum())}, "
            f"expected {family.k}")
    ahat2 = np.abs(np.fft.fft(a)) ** 2
    level = family.flat_level
    if not np.allclose(ahat2[1:], level, rtol=1e-6, atol=0.0):
        raise RuntimeError(
            f"spectrum of p={p}, e={e} residue mask is not flat; "
            "family parameters are invalid")
    return Aperture(a)


def find_residue_lengths(e: int, n_max: int) -> list[ResidueFamily]:
    """All valid residue families with p <= n_max, sorted by p."""
    if e not in (2, 4, 8):
        raise ValueError(f"residue exponent must be 2, 4, or 8, got {e}")
    out: list[ResidueFamily] = []
    if e == 2:
        for p in range(3, n_max + 1, 4):
            if _is_prime(p):
                out.append(ResidueFamily(p, 2))
    elif e == 4:
        x = 1
        while 4 * x * x + 1 <= n_max:
            p = 4 * x * x + 1
            if _is_prime(p):
                out.append(ResidueFamily(p, 4))
            x += 2
        x = 1
        while 4 * x * x + 9 <= n_max:
            p = 4 * x * x + 9
            if _is_prime(p):
                out.append(ResidueFamily(p, 4, include_zero=True))
            x += 2
    else:
        a = 1
        while 8 * a * a + 1 <= n_max:
            p = 8 * a * a + 1
            if _is_prime(p) and (p - 9) % 64 == 0 and _odd_square((p - 9) // 64):
                out.append(ResidueFamily(p, 8))
            a += 2
        a = 1
        while 8 * a * a + 49 <= n_max:
            p = 8 * a * a + 49
            if (_is_prime(p) and (p - 441) % 64 == 0
                    and _even_square((p - 441) // 64)):
                out.append(ResidueFamily(p, 8, include_zero=True))
            a += 2
    return sorted(out, key=lambda f: (f.p, f.e, f.include_zero))


def families_for(n: int) -> list[ResidueFamily]:
    """All residue families whose sequence length equals n."""
    out = []
    for e in (2, 4, 8):
        for include_zero in (False, True):
            try:
                out.append(ResidueFamily(n, e, include_zero))
            except ValueError:
                continue
    return out


def _sup_f(a: float) -> float:
    """sup over [0,1] of f_a(x) = x(1-x)/(a+x), attained at sqrt(a^2+a)-a."""
    if a == 0:
        return 1.0  # limit of 1-x as x -> 0
    x = min(max(math.sqrt(a * a + a) - a, 0.0), 1.0)
    return x * (1.0 - x) / (a + x)


def loss_factor(a: float, rho: float) -> float:
    """Exposure factor paid for operating at rho instead of the optimum.

    ``a`` is the thermal-to-shot noise ratio W/J; the factor is
    sup_x f_a(x) / f_a(rho) with f_a(x) = x(1-x)/(a+x) and is always >= 1.
    Pass ``a = inf`` for the thermal-dominant limit.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly inside (0, 1)")
    if a < 0:
        raise ValueError("noise ratio a must be nonnegative")
    if math.isinf(a):
        return 0.25 / (rho * (1.0 - rho))
    return _sup_f(a) / (rho * (1.0 - rho) / (a + rho))


def worst_case_penalty(rho_set) -> float:
    """Worst exposure factor when the best rho from a menu is used.

    sup over the noise ratio a of min over the menu of loss_factor(a, rho).
    The sup is attained at small a (the penalty decays to 1 in the
    thermal-dominant limit), so a dense grid on [0, 1e3] suffices.
    """
    rho_set = sorted(set(float(r) for r in rho_set))
    if not rho_set:
        raise ValueError("rho menu must be nonempty")
    a = np.arange(0.0, 1000.0 + 1e-9, 1e-3)
    xs = np.clip(np.sqrt(a * a + a) - a, 0.0, 1.0)
    sup = np.where(a > 0, xs * (1.0 - xs) / np.maximum(a + xs, 1e-300), 1.0)
    best = np.full_like(a, np.inf)
    for rho in rho_set:
        best = np.minimum(best, sup * (a + rho) / (rho * (1.0 - rho)))
    return float(max(best.max(), 1.0))


def certified_penalty(config: ImagingConfig, d, aperture: Aperture,
                      bound: float, floor: float = 1.0) -> float:
    """Smallest exposure multiplier >= floor at which the mask meets bound.

    The LMMSE falls as the exposure grows, so the multiplier is bracketed
    by doubling and found by bisection; inf if even 1e12 falls short.
    """
    def meets(mult: float) -> bool:
        m = lmmse(config.with_t(config.t * mult), d, aperture)
        return m <= bound * (1.0 + 1e-9) + 1e-300

    if meets(floor):
        return floor
    lo, hi = floor, 2.0 * floor
    while not meets(hi):
        if hi >= 1e12:
            return math.inf
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


def flat_design(config: ImagingConfig, d) -> tuple[Aperture, DesignCertificate]:
    """Pick the best residue mask at n and certify its exposure penalty.

    Chooses the family whose transmissivity minimizes the loss factor at the
    configured noise ratio.  The loss factor only compares the off-DC power,
    so the certified penalty is the smallest multiplier, no lower than the
    loss factor, at which running the mask at penalty-scaled exposure meets
    the waterfilling bound at the nominal exposure.  The guarantee is for
    i.i.d. priors; other priors get a warning.
    """
    d = np.asarray(d, dtype=float).ravel()
    fams = families_for(config.n)
    if not fams:
        raise ValueError(f"n={config.n} admits no residue construction")
    if np.ptp(d) > 1e-12 * max(d.max(), 1e-300):
        warnings.warn("flat designs are only guaranteed for iid priors",
                      stacklevel=2)
    a_ratio = config.W / config.J if config.J > 0 else math.inf
    fam = min(fams, key=lambda f: loss_factor(a_ratio, f.rho))
    loss = loss_factor(a_ratio, fam.rho)
    aperture = residue_sequence(fam)

    ahat2 = np.abs(aperture.spectrum()) ** 2
    required = np.zeros(config.n)
    required[1:] = fam.flat_level
    _, bound = optimal_rho(config, d)
    penalty = certified_penalty(config, d, aperture, bound, loss)
    passed = math.isfinite(penalty)
    achieved_lmmse = lmmse(config.with_t(config.t * penalty), d, aperture) \
        if passed else math.inf
    cert = DesignCertificate(
        achieved=ahat2,
        required=required,
        b_sup_norm=1.0,
        penalty=penalty,
        passed=passed,
        detail={
            "family": {"p": fam.p, "e": fam.e, "include_zero": fam.include_zero},
            "rho": fam.rho,
            "loss_factor": loss,
            "lmmse_at_penalized_t": achieved_lmmse,
            "lower_bound": bound,
        },
    )
    return aperture, cert
