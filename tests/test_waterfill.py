"""Tests for the waterfilling bound and the transmissivity search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from codedmask.model import Aperture, ImagingConfig, lmmse, sample_prior, ScenePrior
from codedmask.waterfill import (lower_bound, optimal_rho, power_budget,
                                 waterfill)


class TestPowerBudget:
    def test_boundaries(self):
        assert power_budget(10, 0.0) == (0.0, 0.0)
        assert power_budget(10, 1.0) == (0.0, 0.0)

    def test_half_density_matches_simple(self):
        exact, simple = power_budget(10, 0.5)
        assert exact == pytest.approx(25.0)
        assert simple == pytest.approx(25.0)

    def test_exact_below_simple(self):
        for n in (3, 7, 10, 677):
            for rho in np.linspace(0, 1, 37):
                exact, simple = power_budget(n, rho)
                assert exact <= simple + 1e-9
                assert exact >= -1e-12

    def test_integer_densities_match(self):
        # When n*rho is an integer the floor correction vanishes.
        exact, simple = power_budget(8, 0.25)
        assert exact == pytest.approx(simple)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_budget(10, 1.2)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4096), st.floats(0.0, 1.0))
    def test_exact_never_exceeds_simple_property(self, n, rho):
        exact, simple = power_budget(n, rho)
        assert 0.0 <= exact <= simple + 1e-6 * max(1.0, simple)


def objective(d, gamma, x):
    d = np.asarray(d, dtype=float)
    pos = d > 0
    return float(np.sum(1.0 / (1.0 / d[pos] + gamma * x[pos])))


class TestWaterfill:
    def test_constant_prior_splits_evenly(self):
        d = np.full(9, 0.1)
        alloc = waterfill(d, 2.0, 18.0)
        assert np.allclose(alloc.targets[1:], 2.25)
        assert alloc.targets[0] == 0.0
        assert alloc.weights.sum() == pytest.approx(1.0)

    def test_zero_budget(self):
        alloc = waterfill(np.full(5, 0.1), 1.0, 0.0)
        assert not alloc.targets.any()
        assert not alloc.weights.any()

    def test_two_level_closed_form(self):
        # Half the tail at d_hi, half at d_lo, budget big enough to wet both:
        # T = (gamma*P + k_hi/d_hi + k_lo/d_lo) / (k_hi + k_lo).
        d_hi, d_lo, gamma, P = 0.5, 0.125, 3.0, 40.0
        d = np.array([0.1] + [d_hi] * 4 + [d_lo] * 4)
        k = 4
        T = (gamma * P + k / d_hi + k / d_lo) / (2 * k)
        assert T > 1 / d_lo
        alloc = waterfill(d, gamma, P)
        assert alloc.T == pytest.approx(T, rel=1e-8)
        assert np.allclose(alloc.targets[1:5], (T - 1 / d_hi) / gamma, rtol=1e-8)
        assert np.allclose(alloc.targets[5:], (T - 1 / d_lo) / gamma, rtol=1e-8)

    def test_budget_met_and_zero_density_skipped(self):
        rng = np.random.default_rng(3)
        d = rng.random(12)
        d[[4, 9]] = 0.0
        alloc = waterfill(d, 0.7, 31.0)
        assert alloc.targets.sum() == pytest.approx(31.0, rel=1e-6)
        assert alloc.targets[4] == 0.0 and alloc.targets[9] == 0.0

    def test_water_level_monotone_in_budget(self):
        d = np.array([0.2, 0.5, 0.01, 0.3, 0.002])
        levels = [waterfill(d, 1.3, P).T for P in (0.5, 2.0, 10.0, 100.0)]
        assert all(a <= b + 1e-12 for a, b in zip(levels, levels[1:]))

    def test_small_instance_optimality(self):
        # The allocation minimizes the error sum over the budget simplex;
        # compare against a constrained-solver oracle on tiny instances.
        rng = np.random.default_rng(8)
        for trial in range(50):
            n = int(rng.integers(2, 7))
            d = rng.random(n) + 0.01
            gamma = float(rng.random() + 0.1)
            P = float(rng.random() * 10 + 0.1)
            alloc = waterfill(d, gamma, P)
            mine = objective(d[1:], gamma, alloc.targets[1:])
            k = n - 1
            x0 = np.full(k, P / k)
            res = minimize(
                lambda x: objective(d[1:], gamma, x), x0,
                bounds=[(0, None)] * k,
                constraints=[{"type": "eq", "fun": lambda x: x.sum() - P}],
                method="SLSQP", options={"maxiter": 500, "ftol": 1e-14})
            assert mine <= res.fun + 1e-6 * max(1.0, abs(res.fun))

    def test_validation(self):
        with pytest.raises(ValueError):
            waterfill(np.ones(1), 1.0, 1.0)
        with pytest.raises(ValueError):
            waterfill(np.ones(4), 0.0, 1.0)
        with pytest.raises(ValueError):
            waterfill(np.ones(4), 1.0, -1.0)
        with pytest.raises(ValueError):
            waterfill(np.array([1.0, 0, 0, 0]), 1.0, 1.0)


class TestLowerBound:
    def setup_method(self):
        self.cfg = ImagingConfig(16, 50.0, 1e-3, 1e-3)
        self.d = np.full(16, 1.0 / 16)

    def test_zero_exposure(self):
        assert lower_bound(self.cfg.with_t(0.0), self.d, 0.4) == \
            pytest.approx(1.0)

    def test_zero_density_aperture(self):
        assert lower_bound(self.cfg, self.d, 0.0) == pytest.approx(1.0)

    def test_iid_closed_form(self):
        n, rho = 16, 0.375
        gamma = self.cfg.gamma(rho)
        P, _ = power_budget(n, rho)
        theta = n * self.d[0]
        want = 1.0 / (n / theta + gamma * (n * rho) ** 2) \
            + (n - 1) / (n / theta + gamma * P / (n - 1))
        assert lower_bound(self.cfg, self.d, rho) == pytest.approx(want,
                                                                   rel=1e-9)

    def test_sound_against_random_masks(self):
        rng = np.random.default_rng(5)
        d = sample_prior(ScenePrior.powerlaw(1.0, 1.2), 16)
        for _ in range(25):
            k = int(rng.integers(1, 16))
            vals = np.zeros(16)
            vals[rng.choice(16, size=k, replace=False)] = 1.0
            a = Aperture(vals)
            assert lmmse(self.cfg, d, a) >= \
                lower_bound(self.cfg, d, k / 16) - 1e-9

    def test_continuous_in_rho(self):
        rng = np.random.default_rng(17)
        for rho in rng.uniform(0.01, 0.99, size=12):
            a = lower_bound(self.cfg, self.d, rho)
            b = lower_bound(self.cfg, self.d, rho + 1e-7)
            assert abs(a - b) < 1e-4 * max(a, 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            lower_bound(self.cfg, self.d, 1.5)
        with pytest.raises(ValueError):
            lower_bound(self.cfg, np.ones(5), 0.5)


class TestOptimalRho:
    def test_thermal_only_prefers_half(self):
        cfg = ImagingConfig(64, 100.0, 1e-3, 0.0)
        d = np.full(64, 1.0 / 64)
        rho, _ = optimal_rho(cfg, d)
        assert rho >= 0.5 - 1 / 128

    def test_shot_dominant_drops_below_half(self):
        cfg = ImagingConfig(64, 100.0, 1e-6, 1e-1)
        d = np.full(64, 1.0 / 64)
        rho, _ = optimal_rho(cfg, d)
        assert rho < 0.5

    def test_zero_exposure(self):
        cfg = ImagingConfig(16, 0.0, 1e-3, 1e-3)
        d = np.full(16, 1.0 / 16)
        _, val = optimal_rho(cfg, d)
        assert val == pytest.approx(1.0)

    def test_never_worse_than_grid(self):
        cfg = ImagingConfig(32, 200.0, 1e-3, 2e-3)
        d = sample_prior(ScenePrior.bandlimited(1.0, 0.2, 0.05), 32)
        rho, val = optimal_rho(cfg, d)
        grid_best = min(lower_bound(cfg, d, r)
                        for r in np.linspace(0, 1, 1025))
        assert val <= grid_best + 1e-15
        assert val == pytest.approx(lower_bound(cfg, d, rho), rel=1e-12)

    def test_needs_some_noise(self):
        with pytest.raises(ValueError):
            optimal_rho(ImagingConfig(8, 1.0, 0.0, 0.0), np.full(8, 0.125))

    def test_finds_minimum_between_grid_points(self):
        # The 1025-point grid plus a local refinement used to stop at
        # rho ~ 0.0945 with bound 8.2434e-6.
        n = 677
        cfg = ImagingConfig(n, 1e6, 1e-4, 1e-2)
        rho, val = optimal_rho(cfg, np.full(n, 1.0 / n))
        assert rho == pytest.approx(0.0901, abs=5e-5)
        assert val < 8.2422e-6

    def test_minimum_on_a_kink(self):
        n = 677
        cfg = ImagingConfig(n, 50.0 * n, 1e-3, 1e-3)
        rho, val = optimal_rho(cfg, np.full(n, 1.0 / n))
        assert rho == 280 / n
        assert val == lower_bound(cfg, np.full(n, 1.0 / n), 280 / n)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 700),
           kind=st.sampled_from(["iid", "powerlaw", "bandlimited", "random"]),
           shape=st.floats(0.05, 0.45), seed=st.integers(0, 2 ** 32 - 1),
           log_t=st.floats(-3.0, 8.0), log_w=st.floats(-6.0, 0.0),
           log_j=st.floats(-6.0, 0.0),
           noise=st.sampled_from(["both", "thermal", "shot"]))
    def test_global_minimum_property(self, n, kind, shape, seed, log_t,
                                     log_w, log_j, noise):
        if kind == "iid":
            d = np.full(n, 1.0 / n)
        elif kind == "powerlaw":
            d = sample_prior(ScenePrior.powerlaw(1.0, 10 * shape), n)
        elif kind == "bandlimited":
            d = sample_prior(ScenePrior.bandlimited(1.0, shape, 0.01), n)
        else:
            rng = np.random.default_rng(seed)
            d = rng.random(n) ** 3
            d[rng.random(n) < shape] = 0.0
        W = 0.0 if noise == "shot" else 10.0 ** log_w
        J = 0.0 if noise == "thermal" else 10.0 ** log_j
        cfg = ImagingConfig(n, 10.0 ** log_t, W, J)
        rho, val = optimal_rho(cfg, d)
        assert val == lower_bound(cfg, d, rho)
        dense = np.union1d(np.arange(n + 1) / n, np.linspace(0.0, 1.0, 2001))
        for r in dense:
            assert val <= lower_bound(cfg, d, float(r)) * (1.0 + 1e-12)
