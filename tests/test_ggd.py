"""GGD fitting, closed-form KL, and the wavelet-domain texture distance."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln

from texsynth.ggd import (
    DegenerateSample,
    GGDParams,
    LOG_ZERO_SENTINEL,
    SHAPE_MAX,
    SHAPE_MIN,
    fit_ggd,
    kl_ggd,
    log_score,
    texture_distance_klw,
)


def ggd_pdf(x, alpha, beta):
    norm = beta / (2.0 * alpha * np.exp(gammaln(1.0 / beta)))
    return norm * np.exp(-((np.abs(x) / alpha) ** beta))


def ggd_logpdf(x, alpha, beta):
    norm = np.log(beta) - np.log(2.0 * alpha) - gammaln(1.0 / beta)
    return norm - (np.abs(x) / alpha) ** beta


def kl_quadrature(p, q):
    """KL(p || q) by adaptive integration; symmetric, so twice the half line.

    Works in log densities so deep tails never produce log(0)."""

    def integrand(x):
        px = ggd_pdf(x, p.alpha, p.beta)
        if px == 0.0:
            return 0.0
        return px * (ggd_logpdf(x, p.alpha, p.beta) - ggd_logpdf(x, q.alpha, q.beta))

    value, _ = quad(integrand, 0.0, np.inf, limit=400)
    return 2.0 * value


def moment_ratio(beta):
    return np.exp(2.0 * gammaln(2.0 / beta) - gammaln(1.0 / beta) - gammaln(3.0 / beta))


class TestFit:
    def test_gaussian_sample_recovers_shape_two(self):
        rng = np.random.default_rng(0)
        sigma = 0.7
        fit = fit_ggd(rng.normal(0.0, sigma, 100_000))
        assert 1.9 < fit.beta < 2.1
        assert 0.98 < fit.alpha / (sigma * np.sqrt(2.0)) < 1.02
        assert not fit.clamped

    def test_laplace_sample_recovers_shape_one(self):
        rng = np.random.default_rng(1)
        fit = fit_ggd(rng.laplace(0.0, 1.3, 100_000))
        assert 0.95 < fit.beta < 1.05

    def test_uniform_sample_clamps_at_the_heavy_end(self):
        rng = np.random.default_rng(2)
        fit = fit_ggd(rng.uniform(-1.0, 1.0, 100_000))
        assert fit.beta == 20.0
        assert fit.clamped

    @pytest.mark.parametrize("shape", np.geomspace(0.1, 15.0, 25))
    def test_shape_is_the_root_scipy_finds(self, shape):
        # a 0/1 sample's moment ratio (E|x|)^2 / E x^2 is its share of ones
        n = 100_000
        ones = round(moment_ratio(shape) * n)
        x = np.repeat([1.0, 0.0], [ones, n - ones])
        ratio = np.mean(np.abs(x)) ** 2 / np.mean(x**2)
        root = brentq(lambda b: moment_ratio(b) - ratio, SHAPE_MIN, SHAPE_MAX, xtol=1e-300)
        fit = fit_ggd(x)
        assert not fit.clamped
        assert abs(fit.beta - root) <= 1e-12 * root

    @pytest.mark.parametrize("x, beta", [
        (np.eye(1, 100_000).ravel(), SHAPE_MIN),  # ratio 1e-5 < moment_ratio(SHAPE_MIN)
        (np.resize([1.0, -1.0], 1000), SHAPE_MAX),  # ratio 1 > moment_ratio(SHAPE_MAX)
    ], ids=["SHAPE_MIN", "SHAPE_MAX"])
    def test_a_ratio_beyond_a_bracket_end_clamps_to_it(self, x, beta):
        fit = fit_ggd(x)
        assert fit.beta == beta
        assert fit.clamped

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError, match=">= 32"):
            fit_ggd(np.ones(31))

    # 48 x 0.1 leave np.var a rounding residue, 1.9e-34, instead of 0
    @pytest.mark.parametrize("x", [np.full(100, 3.0), np.full(48, 0.1)], ids=["3.0", "0.1"])
    def test_constant_sample_is_degenerate(self, x):
        with pytest.raises(DegenerateSample):
            fit_ggd(x)

    def test_non_finite_sample_rejected(self):
        x = np.zeros(64)
        x[10] = np.inf
        x[20] = 1.0
        with pytest.raises(ValueError, match="non-finite"):
            fit_ggd(x)


class TestKl:
    def test_identical_params_give_exact_zero(self):
        p = GGDParams(1.3, 0.9)
        assert kl_ggd(p, p) == 0.0

    def test_gaussian_case_matches_the_gaussian_formula(self):
        # shape 2 is a Gaussian with sigma = alpha / sqrt(2)
        p = GGDParams(1.0, 2.0)
        q = GGDParams(1.7, 2.0)
        sp, sq = p.alpha / np.sqrt(2.0), q.alpha / np.sqrt(2.0)
        want = np.log(sq / sp) + sp**2 / (2.0 * sq**2) - 0.5
        assert abs(kl_ggd(p, q) - want) < 1e-12

    def test_matches_quadrature_on_a_parameter_grid(self):
        params = [
            GGDParams(a, b)
            for a in (0.5, 1.0, 2.0)
            for b in (0.8, 1.5, 3.0)
        ]
        for p in params[::2]:
            for q in params[1::2]:
                assert abs(kl_ggd(p, q) - kl_quadrature(p, q)) < 1e-6

    def test_is_nonnegative_and_asymmetric(self):
        p = GGDParams(0.8, 1.2)
        q = GGDParams(1.5, 2.5)
        assert kl_ggd(p, q) > 0.0
        assert kl_ggd(q, p) > 0.0
        assert kl_ggd(p, q) != kl_ggd(q, p)


class TestTextureDistance:
    def texture(self, seed, n=64):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((n, n))
        # correlated field so the subband marginals are not degenerate
        smooth = np.fft.ifft2(np.fft.fft2(base) * np.exp(-0.05 * np.hypot(
            *np.meshgrid(np.fft.fftfreq(n) * n, np.fft.fftfreq(n) * n)
        ))).real
        return smooth / smooth.std()

    def test_self_distance_is_exactly_zero(self):
        a = self.texture(0)
        per, aggregate = texture_distance_klw(a, a, scales=3)
        assert aggregate == 0.0
        assert all(kl == 0.0 for _, _, kl in per)

    def test_grows_with_noise_amplitude(self):
        a = self.texture(1)
        rng = np.random.default_rng(2)
        noise = rng.standard_normal(a.shape)
        dists = [
            texture_distance_klw(a, a + amp * noise, scales=3)[1]
            for amp in (0.1, 0.4, 1.6)
        ]
        assert dists[0] < dists[1] < dists[2]

    def test_small_subbands_are_skipped(self):
        a = self.texture(3)
        b = self.texture(4)
        per, _ = texture_distance_klw(a, b, scales=4)
        # the 4x4 bands at scale 4 hold 16 < 32 coefficients
        assert len(per) == 9
        assert {s for s, _, _ in per} == {1, 2, 3}

    def test_channel_average_matches_gray(self):
        a = self.texture(5)
        b = self.texture(6)
        rgb_a = np.repeat(a[:, :, None], 3, axis=2)
        assert texture_distance_klw(rgb_a, b, scales=3)[1] == pytest.approx(
            texture_distance_klw(a, b, scales=3)[1], rel=1e-9
        )


class TestLogScore:
    def test_log_of_positive_aggregate(self):
        assert log_score(np.e) == pytest.approx(1.0)

    def test_zero_hits_the_sentinel(self):
        assert log_score(0.0) == LOG_ZERO_SENTINEL
        assert log_score(-1.0) == LOG_ZERO_SENTINEL
