"""Tests for the sign-cortege search, bounded-vector transfer, and synthesis."""

import itertools
import math

import numpy as np
import pytest

from codedmask.model import ImagingConfig, ScenePrior, lmmse, sample_prior
from codedmask.nazarov import (DesignError, SignCortege, cortege_to_bounded,
                               design_aperture, design_aperture_2d,
                               greedy_cortege, potential)
from codedmask.spectra import basis_matrix, basis_vector, inner, m_bound
from codedmask.waterfill import optimal_rho


def random_target(n, rng, support_size=None):
    k = support_size or int(rng.integers(1, n))
    idx = rng.choice(np.arange(1, n), size=k, replace=False)
    p = np.zeros(n)
    p[idx] = rng.random(k) + 0.05
    return p / p.sum()


class TestSignCortege:
    def test_entries_must_be_unit(self):
        with pytest.raises(ValueError):
            SignCortege(np.array([1, 2]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            SignCortege(np.array([1]), np.array([1.0, -1.0]))


class TestPotential:
    def test_single_index_is_l1_norm(self):
        n = 11
        p = np.zeros(n)
        p[3] = 1.0
        want = float(np.mean(np.abs(basis_vector(n, 3))))
        for sign in (1.0, -1.0):
            cortege = SignCortege(np.array([3]), np.array([sign]))
            assert potential(p, cortege) == pytest.approx(want)

    def test_dc_only(self):
        p = np.zeros(6)
        p[0] = 1.0
        cortege = SignCortege(np.array([0]), np.array([1.0]))
        assert potential(p, cortege) == pytest.approx(1.0)

    def test_uniform_on_three_indices(self):
        # Direct-summation value sqrt(2/3), frozen from an independent
        # plain-Python evaluation.
        p = np.array([0.0, 1 / 3, 1 / 3, 1 / 3])
        cortege = SignCortege(np.array([1, 2, 3]), np.ones(3))
        assert potential(p, cortege) == pytest.approx(0.81649658092772592)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            potential(np.array([0.0, 0.5, 0.2, 0.0]),
                      SignCortege(np.array([1, 2]), np.ones(2)))


class TestGreedyCortege:
    def test_single_index_converges_immediately(self):
        p = np.zeros(9)
        p[2] = 1.0
        result = greedy_cortege(p, seed=0)
        assert result.converged and result.sweeps == 1
        assert len(result.trace) == 1

    def test_trace_is_nondecreasing(self):
        rng = np.random.default_rng(1)
        p = random_target(32, rng)
        result = greedy_cortege(p, seed=5)
        trace = result.trace
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert result.potential == pytest.approx(trace[-1])

    def test_local_optimality(self):
        rng = np.random.default_rng(2)
        p = random_target(24, rng)
        result = greedy_cortege(p, seed=3)
        assert result.converged
        base = result.potential
        for m in range(result.cortege.support.size):
            signs = result.cortege.signs.copy()
            signs[m] = -signs[m]
            flipped = SignCortege(result.cortege.support, signs)
            assert potential(p, flipped) <= base + 1e-12

    @pytest.mark.parametrize("n,k", [(4, 3), (5, 4), (6, 4)])
    def test_small_instances_reach_global_max(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        p = random_target(n, rng, support_size=k)
        support = np.flatnonzero(p > 0)
        best = max(
            potential(p, SignCortege(support, np.array(s, dtype=float)))
            for s in itertools.product([-1.0, 1.0], repeat=support.size))
        result = greedy_cortege(p, seed=0)
        assert result.potential == pytest.approx(best, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        p = random_target(40, rng)
        r1 = greedy_cortege(p, seed=123)
        r2 = greedy_cortege(p, seed=123)
        assert np.array_equal(r1.cortege.signs, r2.cortege.signs)

    def test_max_sweeps_validated(self):
        with pytest.raises(ValueError):
            greedy_cortege(np.array([0.0, 1.0]), seed=0, max_sweeps=0)


class TestCortegeToBounded:
    def test_dc_target(self):
        n = 8
        p = np.zeros(n)
        p[0] = 1.0
        b = cortege_to_bounded(p, SignCortege(np.array([0]), np.array([1.0])))
        M = m_bound(n)
        assert np.allclose(b, -M)
        assert inner(b, basis_vector(n, 0)) ** 2 >= 1.0

    def test_single_cosine_prime_length(self):
        n = 11
        p = np.zeros(n)
        p[1] = 1.0
        result = greedy_cortege(p, seed=0)
        b = cortege_to_bounded(p, result.cortege)
        assert np.abs(b).max() <= m_bound(n) * (1 + 1e-9)
        assert abs(inner(b, basis_vector(n, 1))) >= 1.0

    def test_nonpositive_mean(self):
        rng = np.random.default_rng(4)
        p = random_target(16, rng)
        result = greedy_cortege(p, seed=1)
        b = cortege_to_bounded(p, result.cortege)
        assert b.mean() <= 1e-12

    @pytest.mark.parametrize("n", [16, 64])
    def test_guarantees_on_random_targets(self, n):
        rng = np.random.default_rng(n)
        M = m_bound(n)
        B = basis_matrix(n)
        for trial in range(25):
            p = random_target(n, rng)
            result = greedy_cortege(p, seed=int(rng.integers(1 << 31)))
            b = cortege_to_bounded(p, result.cortege)
            assert np.abs(b).max() <= M * (1 + 1e-9)
            ips = (B @ b) / n
            support = np.flatnonzero(p > 0)
            assert np.all(ips[support] ** 2 >= p[support] * (1 - 1e-9))


class TestDesignAperture:
    def test_iid_prior_passes(self):
        n = 64
        cfg = ImagingConfig(n, 500.0, 1e-3, 1e-3)
        d = np.full(n, 1.0 / n)
        aperture, cert = design_aperture(cfg, d, seed=0)
        assert cert.passed
        assert aperture.values.min() >= 0 and aperture.values.max() <= 1
        assert aperture.rho <= 0.5 + 1e-9

    def test_certificate_contents(self):
        n = 32
        cfg = ImagingConfig(n, 200.0, 1e-3, 2e-3)
        d = sample_prior(ScenePrior.powerlaw(1.0, 1.5), n)
        aperture, cert = design_aperture(cfg, d, seed=7)
        assert cert.passed
        M = m_bound(n)
        assert cert.penalty == pytest.approx(2 * M * M)
        assert cert.b_sup_norm <= M * (1 + 1e-9)
        ahat2 = np.abs(aperture.spectrum()) ** 2
        assert np.all(ahat2[1:] >= cert.required[1:] * (1 - 1e-9) - 1e-300)
        _, bound = optimal_rho(cfg, d)
        assert lmmse(cfg.with_t(cfg.t * cert.penalty), d, aperture) <= \
            bound * (1 + 1e-9)

    def test_bandlimited_prior_passes(self):
        n = 64
        cfg = ImagingConfig(n, 1e4, 1e-3, 1e-3)
        d = sample_prior(ScenePrior.bandlimited(1.0, 0.2, 0.05), n)
        _, cert = design_aperture(cfg, d, seed=0)
        assert cert.passed

    def test_zero_exposure_degenerates(self):
        cfg = ImagingConfig(16, 0.0, 1e-3, 1e-3)
        d = np.full(16, 1.0 / 16)
        aperture, cert = design_aperture(cfg, d, seed=0)
        assert cert.passed
        assert not aperture.values.any()

    def test_faint_exposure_opens_the_mask(self):
        # At tiny exposure the bound is smallest at rho = 1, where no power
        # is left to pour; the all-open mask attains it.
        cfg = ImagingConfig(64, 1e-6, 1e-3, 1e-3)
        d = np.full(64, 1.0 / 64)
        rho_star, bound = optimal_rho(cfg, d)
        assert rho_star == 1.0
        aperture, cert = design_aperture(cfg, d, seed=0)
        assert cert.passed
        assert np.all(aperture.values == 1.0)
        assert cert.detail["rho_star"] == 1.0
        assert lmmse(cfg, d, aperture) == pytest.approx(bound, rel=1e-12)

    def test_deterministic(self):
        cfg = ImagingConfig(32, 100.0, 1e-3, 1e-3)
        d = np.full(32, 1.0 / 32)
        a1, c1 = design_aperture(cfg, d, seed=42)
        a2, c2 = design_aperture(cfg, d, seed=42)
        assert np.array_equal(a1.values, a2.values)
        assert c1.seed == c2.seed and c1.restarts == c2.restarts

    def test_validation(self):
        with pytest.raises(ValueError):
            design_aperture(ImagingConfig(1, 1.0, 1e-3, 1e-3), np.ones(1))
        with pytest.raises(ValueError):
            design_aperture(ImagingConfig(8, 1.0, 1e-3, 1e-3, dims=2),
                            np.ones(64) / 64)


class TestDesignAperture2d:
    def test_trivial_one_by_one(self):
        cfg = ImagingConfig(1, 10.0, 1e-3, 1e-3, dims=2)
        aperture, cert = design_aperture_2d(cfg, np.array([[1.0]]), seed=0)
        assert cert.passed
        assert aperture.values.shape == (1, 1)

    def test_iid_seven_uses_product_of_flat_masks(self):
        cfg = ImagingConfig(7, 100.0, 1e-3, 1e-3, dims=2)
        d = np.full((7, 7), 1.0 / 49)
        aperture, cert = design_aperture_2d(cfg, d, seed=0)
        assert cert.passed
        assert cert.detail["construction"] == "product-flat"
        line = np.zeros(7)
        line[[1, 2, 4]] = 1.0
        assert np.array_equal(aperture.values, np.outer(line, line))
        power = np.abs(aperture.spectrum()) ** 2
        off = np.ones((7, 7), dtype=bool)
        off[0, :] = False
        off[:, 0] = False
        assert np.allclose(power[off], 4.0, rtol=1e-9)

    def test_concentrated_pair_passes(self):
        cfg = ImagingConfig(7, 100.0, 1e-3, 1e-3, dims=2)
        d = np.full((7, 7), 1e-8)
        d[2, 3] = d[5, 4] = 1.0
        d /= d.sum()
        aperture, cert = design_aperture_2d(cfg, d, seed=0)
        assert cert.passed
        assert cert.detail["spectral_ok"] and cert.detail["exposure_ok"]

    def test_generic_prior_passes(self):
        cfg = ImagingConfig(12, 1e4, 1e-3, 1e-3, dims=2)
        d1 = sample_prior(ScenePrior.bandlimited(1.0, 0.25, 0.05), 12)
        d = np.outer(d1, d1)
        d /= d.sum()
        aperture, cert = design_aperture_2d(cfg, d, seed=0)
        assert cert.passed
        assert aperture.rho <= 0.5 + 1e-9

    def test_deterministic(self):
        cfg = ImagingConfig(9, 50.0, 1e-3, 1e-3, dims=2)
        rng = np.random.default_rng(0)
        d = rng.random((9, 9))
        d /= d.sum()
        a1, _ = design_aperture_2d(cfg, d, seed=5)
        a2, _ = design_aperture_2d(cfg, d, seed=5)
        assert np.array_equal(a1.values, a2.values)

    def test_size_cap(self):
        cfg = ImagingConfig(200, 1.0, 1e-3, 1e-3, dims=2)
        with pytest.raises(ValueError):
            design_aperture_2d(cfg, np.full((200, 200), 1 / 200 ** 2), seed=0)

    def test_validation(self):
        cfg = ImagingConfig(7, 1.0, 1e-3, 1e-3, dims=2)
        with pytest.raises(ValueError):
            design_aperture_2d(cfg, np.ones((3, 3)) / 9, seed=0)
        with pytest.raises(ValueError):
            design_aperture_2d(ImagingConfig(7, 1.0, 1e-3, 1e-3),
                               np.ones((7, 7)) / 49, seed=0)
