"""Tests for residue-based flat masks and the exposure-penalty constants."""

import math

import numpy as np
import pytest

from codedmask.flatseq import (ResidueFamily, _is_prime, families_for,
                               find_residue_lengths, flat_design, loss_factor,
                               residue_sequence, worst_case_penalty)
from codedmask.model import ImagingConfig, lmmse
from codedmask.waterfill import optimal_rho


class TestIsPrime:
    def test_matches_trial_division_below_1e5(self):
        n = np.arange(100_000)
        divisors = np.arange(2, 317)[:, None]
        has_factor = ((n % divisors == 0) & (divisors * divisors <= n)).any(0)
        trial = (n >= 2) & ~has_factor
        assert [_is_prime(int(k)) for k in n] == trial.tolist()

    def test_strong_pseudoprimes(self):
        # Each fools Miller-Rabin with all witnesses up to some prime < 41.
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051,
                  318665857834031151167461):
            assert not _is_prime(n)
        assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 31 - 1)

    def test_beyond_the_witness_range(self):
        with pytest.raises(ValueError):
            _is_prime(10 ** 25)


class TestResidueFamily:
    def test_quadratic_counts(self):
        fam = ResidueFamily(7, 2)
        assert fam.k == 3 and fam.rho == pytest.approx(3 / 7)
        assert fam.flat_level == pytest.approx(2.0)  # (p+1)/4

    def test_quartic_677(self):
        fam = ResidueFamily(677, 4)
        assert fam.k == 169
        # k - lambda with lambda = k(k-1)/(p-1) = 42
        assert fam.flat_level == pytest.approx(127.0)

    def test_octic_73(self):
        fam = ResidueFamily(73, 8)
        assert fam.k == 9 and fam.flat_level == pytest.approx(8.0)

    def test_octic_26041_include_zero(self):
        fam = ResidueFamily(26041, 8, include_zero=True)
        assert fam.k == (26041 - 1) // 8 + 1

    def test_invalid_families_rejected(self):
        with pytest.raises(ValueError):
            ResidueFamily(13, 2)          # 13 = 1 mod 4
        with pytest.raises(ValueError):
            ResidueFamily(8, 2)           # not prime
        with pytest.raises(ValueError):
            ResidueFamily(7, 3)           # unsupported exponent
        with pytest.raises(ValueError):
            ResidueFamily(17, 4)          # 17 = 4*4+1, x even

    def test_quartic_include_zero_13(self):
        # 13 = 4*1+9 with x=1 odd: the zero-augmented quartic family.
        fam = ResidueFamily(13, 4, include_zero=True)
        assert fam.k == 4


class TestResidueSequence:
    def test_legendre_seven(self):
        a = residue_sequence(ResidueFamily(7, 2))
        assert np.array_equal(np.flatnonzero(a.values), [1, 2, 4])
        power = np.abs(a.spectrum()) ** 2
        assert np.allclose(power[1:], 2.0, rtol=1e-9)

    @pytest.mark.parametrize("fam", [
        ResidueFamily(11, 2), ResidueFamily(677, 4),
        ResidueFamily(13, 4, include_zero=True), ResidueFamily(73, 8),
    ])
    def test_difference_set_identity(self, fam):
        a = residue_sequence(fam)
        spec = a.spectrum()
        assert spec[0].real == pytest.approx(fam.k)
        assert np.allclose(np.abs(spec[1:]) ** 2, fam.flat_level, rtol=1e-6)


class TestFindResidueLengths:
    def test_quadratic_to_30(self):
        got = [f.p for f in find_residue_lengths(2, 30)]
        assert got == [3, 7, 11, 19, 23]

    def test_octic_small_cap(self):
        assert [f.p for f in find_residue_lengths(8, 100)] == [73]

    def test_quartic_families_include_both_variants(self):
        fams = find_residue_lengths(4, 50)
        assert (5, False) in [(f.p, f.include_zero) for f in fams]
        assert (13, True) in [(f.p, f.include_zero) for f in fams]

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            find_residue_lengths(3, 100)


class TestFamiliesFor:
    def test_677_is_quartic_only(self):
        fams = families_for(677)
        assert [(f.e, f.include_zero) for f in fams] == [(4, False)]

    def test_composite_has_none(self):
        assert families_for(8) == []


class TestLossFactor:
    def test_shot_dominant_constants(self):
        assert loss_factor(0.0, 0.5) == pytest.approx(2.0)
        assert loss_factor(0.0, 0.25) == pytest.approx(4 / 3)
        assert loss_factor(0.0, 0.125) == pytest.approx(8 / 7)

    def test_at_least_one_with_equality_at_optimum(self):
        for a in (0.0, 0.3, 2.0, 50.0):
            xstar = min(max(math.sqrt(a * a + a) - a, 1e-12), 1 - 1e-12)
            assert loss_factor(a, xstar) == pytest.approx(1.0, abs=1e-9)
            for rho in (0.1, 0.3, 0.499, 0.7):
                assert loss_factor(a, rho) >= 1.0 - 1e-12

    def test_thermal_dominant_limit(self):
        assert loss_factor(math.inf, 0.5) == pytest.approx(1.0)
        assert loss_factor(math.inf, 0.25) == pytest.approx(4 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            loss_factor(1.0, 0.0)
        with pytest.raises(ValueError):
            loss_factor(-1.0, 0.5)


class TestWorstCasePenalty:
    def test_known_constants(self):
        assert worst_case_penalty({0.5}) == pytest.approx(2.0, abs=1e-4)
        assert worst_case_penalty({0.25, 0.5}) == pytest.approx(4 / 3, abs=1e-4)
        assert worst_case_penalty({0.125, 0.25, 0.5}) == \
            pytest.approx(8 / 7, abs=1e-4)

    def test_empty_menu_rejected(self):
        with pytest.raises(ValueError):
            worst_case_penalty([])


class TestFlatDesign:
    def test_677_equal_noise(self):
        cfg = ImagingConfig(677, 1e4, 1e-3, 1e-3)
        d = np.full(677, 1.0 / 677)
        aperture, cert = flat_design(cfg, d)
        assert aperture.values.sum() == 169
        # The loss factor prices the off-DC power only.  Against the exact
        # minimum of the bound (a kink at rho = 280/677) the dimmer DC term
        # of the 169/677 mask costs about 2e-6 more exposure.
        analog = loss_factor(1.0, 169 / 677)
        _, bound = optimal_rho(cfg, d)
        assert lmmse(cfg.with_t(1e4 * analog), d, aperture) > \
            bound * (1 + 1e-9)
        assert analog < cert.penalty <= analog * (1 + 1e-5)
        assert cert.passed

    def test_small_quadratic_shot_dominant(self):
        cfg = ImagingConfig(7, 100.0, 1e-5, 1e-3)
        d = np.full(7, 1.0 / 7)
        aperture, cert = flat_design(cfg, d)
        assert aperture.values.sum() == 3
        assert cert.penalty == pytest.approx(loss_factor(0.01, 3 / 7))

    def test_penalized_exposure_meets_bound(self):
        for n, t in ((7, 50.0), (11, 1e3), (677, 1e5)):
            cfg = ImagingConfig(n, t, 1e-3, 1e-3)
            d = np.full(n, 1.0 / n)
            aperture, cert = flat_design(cfg, d)
            _, bound = optimal_rho(cfg, d)
            penalized = lmmse(cfg.with_t(t * cert.penalty), d, aperture)
            assert penalized <= bound * (1 + 1e-9)
            assert cert.passed

    def test_invalid_length(self):
        cfg = ImagingConfig(8, 1.0, 1e-3, 1e-3)
        with pytest.raises(ValueError):
            flat_design(cfg, np.full(8, 0.125))

    def test_non_iid_warns(self):
        cfg = ImagingConfig(7, 1.0, 1e-3, 1e-3)
        d = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
        with pytest.warns(UserWarning):
            flat_design(cfg, d)
