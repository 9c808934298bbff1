"""The first passage of the all-in trader's backing (renewal.py): its
quadrature against scipy's, and its mean against its closed form's parts."""

import math

import pytest
from scipy import integrate

from pegstress import renewal
from pegstress.prices import NormalSpec, TruncatedNormal
from pegstress.renewal import first_passage, tail_expect
from pegstress.rounds import build_round_matrix
from pegstress.speculator import SpeculatorParams, waiting_interval

EX1 = NormalSpec(mu=100.0, sigma2=100.0)


def quad_expect(spec, x, below, g):
    """Oracle: E[g(p) | tail] by adaptive quadrature over u = ln p, where the
    integrand stays smooth also near a support floored at 1e-6."""
    a, b = (spec.support_lo, x) if below else (x, spec.support_hi)

    def dens(u):
        return math.exp(u - 0.5 * ((math.exp(u) - spec.mu) / spec.sigma) ** 2)

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=400)
    mass, _ = integrate.quad(dens, math.log(a), math.log(b), **opts)
    total, _ = integrate.quad(lambda u: g(math.exp(u)) * dens(u), math.log(a), math.log(b), **opts)
    return total / mass


class TestTailExpect:
    # The stdlib Gauss-Legendre rule the first passage integrates with,
    # against scipy's adaptive quadrature.
    GS = {"ln": math.log, "ln2": lambda p: math.log(p) ** 2, "p": lambda p: p, "sqrt": math.sqrt,
          "inv": lambda p: 1.0 / p}

    def test_rule_is_exact_for_polynomials_up_to_degree_2n_minus_1(self):
        nodes, weights = renewal._gauss_legendre(renewal._GL_NODES)
        assert len(nodes) == len(weights) == renewal._GL_NODES
        for degree in range(2 * renewal._GL_NODES):
            want = 0.0 if degree % 2 else 2.0 / (degree + 1)
            assert math.fsum(w * t**degree for t, w in zip(nodes, weights)) == pytest.approx(want, abs=1e-14)

    # sigma2 400 and up floor the support's lower edge at 1e-6.
    @pytest.mark.parametrize("sigma2", [4.0, 25.0, 100.0, 270.0, 400.0, 900.0, 2500.0])
    @pytest.mark.parametrize("below", [True, False], ids=["below", "above"])
    def test_matches_quad(self, sigma2, below):
        spec = NormalSpec(100.0, sigma2)
        tn = TruncatedNormal(spec)
        for z in (-3.0, -1.0, -0.3, 0.3, 1.0, 3.0):
            x = spec.mu + z * spec.sigma
            if x <= spec.support_lo:
                continue
            got = tail_expect(tn, x, below, *self.GS.values())
            for g, value in zip(self.GS.values(), got):
                assert value == pytest.approx(quad_expect(spec, x, below, g), rel=1e-10)

    def test_constant_and_mean(self):
        # E[1] is 1 whatever the rule; E[p] is tail()'s exact conditional mean.
        tn = TruncatedNormal(EX1)
        for x, below in ((93.9, True), (112.8, False)):
            (_, mean), = tn.tail([x], below)
            one, p = tail_expect(tn, x, below, lambda p: 1.0, lambda p: p)
            assert one == pytest.approx(1.0, rel=1e-15)
            assert p == pytest.approx(mean, rel=1e-13)

    def test_far_tail_does_not_underflow(self):
        # 30 sigma out, the density is 1e-196 of its peak; each mean is taken
        # relative to the largest density on the event.
        spec = NormalSpec(100.0, 1.0, support_lo=50.0, support_hi=150.0)
        (mean,) = tail_expect(TruncatedNormal(spec), 130.0, False, lambda p: p)
        assert 130.0 < mean < 130.04

    @pytest.mark.parametrize("x, below", [(40.0, True), (160.0, False), (20.0, True), (200.0, False)])
    def test_empty_event_raises(self, x, below):
        with pytest.raises(ValueError, match="empty conditioning event"):
            tail_expect(TruncatedNormal(EX1), x, below, math.log)

    def test_support_must_be_positive(self):
        with pytest.raises(ValueError, match="support_lo must be > 0"):
            tail_expect(TruncatedNormal(NormalSpec(100.0, 100.0, support_lo=-10.0)), 90.0, True, math.log)


def quad_first_passage(dist, interval, n0, reserves0, eps_alpha=0.0, eps_beta=0.0):
    """Oracle: the renewal form c / mu + E[X^2] / (2 mu^2) of the first
    passage, its four tail integrals by adaptive quadrature over p, and
    Wald's E[N] (i + j)."""
    def moments(a, b):
        opts = dict(epsabs=0.0, epsrel=1e-13, limit=400)
        mass, _ = integrate.quad(lambda p: math.exp(-0.5 * ((p - dist.mu) / dist.sigma) ** 2), a, b, **opts)
        return [integrate.quad(lambda p: math.log(p) ** k * math.exp(-0.5 * ((p - dist.mu) / dist.sigma) ** 2),
                               a, b, **opts)[0] / mass for k in (1, 2)], mass

    (buy, buy2), mass_buy = moments(interval.y2, dist.support_hi)
    (sell, sell2), mass_sell = moments(dist.support_lo, interval.y1)
    mu = buy - sell + math.log((1.0 - eps_beta) / (1.0 + eps_alpha))
    second = buy2 - buy**2 + sell2 - sell**2 + mu * mu
    rounds = math.log((n0 + reserves0) / n0) / mu + second / (2.0 * mu * mu)
    _, support = moments(dist.support_lo, dist.support_hi)
    return mu, rounds, rounds * (support / mass_buy + support / mass_sell)


class TestFirstPassage:
    REF = waiting_interval(EX1, SpeculatorParams(delta=0.1))

    def test_reference(self):
        # The mean depletion step a 100k-trial simulation reads at the
        # reference is 223.23 +/- 0.135; the expected path crosses at 226.67.
        fp = first_passage(EX1, self.REF, 1.0, 100.0)
        mat = build_round_matrix(EX1, self.REF, SpeculatorParams(delta=0.1))
        assert fp.timesteps == pytest.approx(223.05, abs=0.01)
        assert fp.timesteps == pytest.approx(fp.rounds * (mat.i + mat.j), rel=1e-14)
        assert fp.log_drift == pytest.approx(math.log(mat.y_ratio), rel=0.01)  # E ln vs ln E

    @pytest.mark.parametrize(
        "sigma2, delta, reserves0, fees",
        [(100.0, 0.1, 100.0, (0.0, 0.0)), (25.0, 0.05, 10.0, (0.0, 0.0)), (225.0, 0.3, 1000.0, (0.0, 0.0)),
         (100.0, 0.1, 100.0, (0.05, 0.05)), (100.0, 0.1, 100.0, (0.1, 0.0)), (270.0, 0.1, 100.0, (0.0, 0.0))],
    )
    def test_matches_quad(self, sigma2, delta, reserves0, fees):
        dist = NormalSpec(100.0, sigma2)
        interval = waiting_interval(dist, SpeculatorParams(delta=delta))
        fp = first_passage(dist, interval, 1.0, reserves0, *fees)
        mu, rounds, steps = quad_first_passage(dist, interval, 1.0, reserves0, *fees)
        assert (fp.log_drift, fp.rounds, fp.timesteps) == pytest.approx((mu, rounds, steps), rel=1e-9)

    def test_fees_shift_the_drift_by_ln_f(self):
        free = first_passage(EX1, self.REF, 1.0, 100.0)
        fee = first_passage(EX1, self.REF, 1.0, 100.0, 0.05, 0.02)
        assert fee.log_drift - free.log_drift == pytest.approx(math.log(0.98 / 1.05), rel=1e-12)
        assert fee.rounds > free.rounds and fee.timesteps > free.timesteps

    def test_a_drift_at_or_below_zero_is_not_a_time(self):
        # The fee at which E[ln(p_b / p_s)] + ln f reaches 0: tanh of half the
        # fee-free drift, 0.1457 at the reference (the matrix's
        # critical_fee, the crossing of E[p_b / p_s] f = 1, reads 0.1451).
        drift = first_passage(EX1, self.REF, 1.0, 100.0).log_drift
        fee = math.tanh(drift / 2.0)
        assert fee == pytest.approx(0.1457, abs=5e-5)
        below = first_passage(EX1, self.REF, 1.0, 100.0, 0.99 * fee, 0.99 * fee)
        above = first_passage(EX1, self.REF, 1.0, 100.0, 1.01 * fee, 1.01 * fee)
        assert below.log_drift > 0.0 and below.rounds > 0.0 and below.timesteps > 0.0
        assert above.log_drift < 0.0 and (above.rounds, above.timesteps) == (None, None)

    def test_no_backing_is_refused(self):
        with pytest.raises(ValueError, match="n0 must be > 0"):
            first_passage(EX1, self.REF, 0.0, 100.0)

    def test_rounds_grow_with_the_log_of_the_target(self):
        # Only c = ln((n0 + reserves0) / n0) moves with the reserves.
        fps = [first_passage(EX1, self.REF, 1.0, r) for r in (10.0, 100.0, 1000.0)]
        for (a, r_a), (b, r_b) in zip(zip(fps, (10.0, 100.0)), zip(fps[1:], (100.0, 1000.0))):
            assert b.rounds - a.rounds == pytest.approx(math.log((1.0 + r_b) / (1.0 + r_a)) / a.log_drift, rel=1e-12)
        assert first_passage(EX1, self.REF, 2.0, 200.0) == fps[1]
