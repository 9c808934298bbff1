"""Price-model tests.

The conditional-mean closed form is the load-bearing piece: everything in the
waiting-interval optimisation calls it thousands of times, so it is checked
here against adaptive quadrature (scipy) on random draws, not just spot
values.
"""

import csv
import dataclasses
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from pegstress import prices
from pegstress.prices import (
    BLOCK,
    MAX_BLOCK,
    NormalSpec,
    PriceSeries,
    WalkSpec,
    derive_seed,
    load_csv,
    mean_of,
    pcg64_states,
    random_walk,
    step_stats,
)
from pegstress.speculator import SpeculatorParams, _discount_pow, _s1, waiting_interval

from oracles import ScalarTruncatedNormal, cdf, load_csv_rows, pdf

STD = NormalSpec(mu=0.0, sigma2=1.0, support_lo=-40.0, support_hi=40.0)
EX1 = NormalSpec(mu=100.0, sigma2=100.0)

# Files past the first 64 KiB chunk, by name: 6000 quote-free rows, then
# the row that matters.
_CLEAN_ROWS = "timestamp,volume,price\n" + "".join(f"{t},9.5,1.5\n" for t in range(6000))
LONG_CSV = {
    "quote_after_64KiB": _CLEAN_ROWS + '"2024-01-01, 00:00",9.5,2.5\n',
    "bad_row_after_64KiB": _CLEAN_ROWS + "6000,9.5,-1\n",
    "bad_row_after_quote": _CLEAN_ROWS + '"2024-01-01, 00:00",9.5,2.5\n6001,9.5,x\n',
    "not_utf8_after_64KiB": _CLEAN_ROWS.encode() + b"6000,9.5,\xff\n",
    "underscore_after_64KiB": _CLEAN_ROWS + "6000,9.5,1_5\n",
    "extra_field_after_64KiB": _CLEAN_ROWS + "6000,9.5,2.5,x\n",
    "blank_line_after_64KiB": _CLEAN_ROWS + "\n6000,9.5,2.5\n",
    "short_row_after_64KiB": _CLEAN_ROWS + "6000,2.5\n",
    "no_line_end_after_64KiB": _CLEAN_ROWS + "6000,9.5,2.5",
    "quoted_line_separator_after_64KiB": _CLEAN_ROWS + '"6000\u2028",9.5,2.5\n6001,9.5,"3.5\u2028"\n',
}

# Texts (or bytes) and what the row-by-row csv.DictReader loader gave for
# each: the prices, or the message with the file's path as <path>.
CSV_OUTCOMES = {
    "open,price,volume,timestamp\n7,1.5,x,1\n8,2.25,y,2,extra\n": (1.5, 2.25),
    'timestamp,price\n"2024-01-01, 00:00","101.5"\n"2024-01-02",\t 99\n': (101.5, 99.0),
    "timestamp,price\r\n1,1.0\r\n2,2.0\r\n3,0.5\r\n": (1.0, 2.0, 0.5),
    "timestamp,price\n1,1.0\n\n2,2.0\n": (1.0, 2.0),
    "timestamp,price\n1,1.0\n2\n": "<path>: row 3: missing price value",
    "timestamp,price\n1,1.0\n2, \n": "<path>: row 3: missing price value",
    "timestamp,price\n1,nan\n": "<path>: row 2: price must be finite and > 0, got 'nan'",
    "timestamp,price\n1,1.0\n2,0\n": "<path>: row 3: price must be finite and > 0, got '0'",
    "timestamp,price,price\n1,1.0,2.0\n": (2.0,),
    "price\n1.0\n": "<path>: missing column 'timestamp' (header has ['price'])",
    "\ntimestamp,price\n1,1.0\n": "<path>: missing column 'timestamp' (header has [])",
    "": "<path>: empty file (missing header row)",
    # The split pass's guard cases.  csv.reader has read a NUL since Python
    # 3.11 and refused it before, so that guard sends the file to it.
    "timestamp,price\n1\0,1.5\n": (1.5,) if sys.version_info >= (3, 11) else "<path>: line 2: line contains NUL",
    "timestamp,price\n1,1.5\r2,2.5\n": (1.5, 2.5),
    "timestamp,price\r\n1,1.0\r\n\r\n2,2.0\r\n": (1.0, 2.0),
    "timestamp,price\n1,1.0\n \n2,2.0\n": "<path>: row 3: missing price value",
    "timestamp,price\n1,1.0\n2,2.0": (1.0, 2.0),
    '"timestamp","price"\n1,1.5\n2,2.5\n': (1.5, 2.5),
    # Split at commas, the quoted row's price column would read 9.5.
    LONG_CSV["quote_after_64KiB"]: (1.5,) * 6000 + (2.5,),
    LONG_CSV["bad_row_after_64KiB"]: "<path>: row 6002: price must be finite and > 0, got '-1'",
    LONG_CSV["bad_row_after_quote"]: "<path>: row 6003: non-numeric price 'x'",
    # Not UTF-8, in the header, in a row, and past the first 64 KiB.
    b"time\xe9stamp,price\n1,1.0\n": "<path>: not UTF-8 (invalid continuation byte: e9)",
    b"timestamp,price\n1,1.0\n2,\xff\n": "<path>: not UTF-8 (invalid start byte: ff)",
    LONG_CSV["not_utf8_after_64KiB"]: "<path>: not UTF-8 (invalid start byte: ff)",
    # float() reads "1_5" as 15.0 and an Arabic-Indic three as 3.0; a price
    # field is ASCII without "_", on the split pass, in csv.reader's quoted
    # fields, and past the first 64 KiB.  Non-ASCII outside it is text.
    "timestamp,price\n1,1.5\n2,1_5\n": "<path>: row 3: non-numeric price '1_5'",
    "timestamp,price\n1,\u0663\n": "<path>: row 2: non-numeric price '\u0663'",
    'timestamp,price\n"1","1_0"\n': "<path>: row 2: non-numeric price '1_0'",
    "timestamp,price\n1,\uff11.5\n": "<path>: row 2: non-numeric price '\uff11.5'",
    LONG_CSV["underscore_after_64KiB"]: "<path>: row 6002: non-numeric price '1_5'",
    "timestamp,price,note\n1,1.5,caf\u00e9\n2,2.5,_\n": (1.5, 2.5),
    # The structure guard: a chunk whose rows are not all the header's
    # width, or whose line ends differ, goes to csv.reader.
    "timestamp,price\n1,1.5,x\n2,2.5\n": (1.5, 2.5),
    "timestamp,price\n1,1.5\n2\n": "<path>: row 3: missing price value",
    "timestamp,price\n1,1.5\r\n2,2.5\n": (1.5, 2.5),
    "timestamp,price\n1,1.5\r\n2,2.5": (1.5, 2.5),
    "timestamp,price\n1,1.5\n2": "<path>: row 3: missing price value",
    "price,timestamp,open\n1.5,1,x\r\n2.5,2,y\r\n": (1.5, 2.5),
    "timestamp,price\n1,1.5\r,2\n": (1.5, 2.0),
    "timestamp,price\n1\r,1.5\n": "<path>: row 2: missing price value",
    # csv.reader splits a fallen-back chunk's lines as the file does: at
    # "\r" and "\n" alone, not at U+0085 or U+2028 (str.splitlines would).
    'timestamp,price\n"1",1.5\n2\x85,2.5\n': (1.5, 2.5),
    'timestamp,price\n"1",1.5\n2,"2.5\u2028"\n': "<path>: row 3: non-numeric price '2.5\\u2028'",
    LONG_CSV["extra_field_after_64KiB"]: (1.5,) * 6000 + (2.5,),
    LONG_CSV["blank_line_after_64KiB"]: (1.5,) * 6000 + (2.5,),
    LONG_CSV["short_row_after_64KiB"]: "<path>: row 6002: missing price value",
    LONG_CSV["no_line_end_after_64KiB"]: (1.5,) * 6000 + (2.5,),
    LONG_CSV["quoted_line_separator_after_64KiB"]: "<path>: row 6003: non-numeric price '3.5\\u2028'",
}
CSV_IDS = {text: name for name, text in LONG_CSV.items()}
CSV_IDS.update({b"time\xe9stamp,price\n1,1.0\n": "not_utf8_header", b"timestamp,price\n1,1.0\n2,\xff\n": "not_utf8"})


def csv_outcome(load, path):
    try:
        return load(path).prices
    except ValueError as exc:
        return str(exc).replace(path, "<path>")


def quad_moment(spec, a, b):
    """Oracle: integral of x*f(x) over [a, b] by adaptive quadrature."""
    val, _ = integrate.quad(lambda x: x * pdf(spec, x), a, b, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val


def iid_prices(spec, n, seed):
    """The first n prices of spec.blocks, as a simulation trial sees them."""
    return np.concatenate([b for b, _ in first_blocks(spec.blocks(np.random.default_rng(seed)), n)])


def quad_mass(spec, a, b):
    val, _ = integrate.quad(lambda x: pdf(spec, x), a, b, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


class TestDensity:
    def test_standard_normal_at_mode(self):
        assert pdf(STD, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-12)

    def test_wide_normal_at_mode(self):
        assert pdf(EX1, 100.0) == pytest.approx(1.0 / math.sqrt(200.0 * math.pi), abs=1e-12)

    def test_point_mass_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            pdf(NormalSpec(mu=5.0, sigma2=0.0), 5.0)

    def test_cdf_at_mean(self):
        assert cdf(EX1, 100.0) == pytest.approx(0.5, abs=1e-14)

    def test_cdf_standard_quantile(self):
        # 90th percentile of the standard normal.
        assert cdf(STD, 1.2816) == pytest.approx(0.9000, abs=1e-4)

    def test_cdf_far_left(self):
        assert cdf(STD, -39.0) < 1e-300 or cdf(STD, -39.0) == 0.0

    def test_cdf_monotone(self):
        rng = np.random.default_rng(5)
        xs = np.sort(rng.uniform(-30.0, 30.0, size=200))
        vals = [cdf(STD, float(x)) for x in xs]
        assert all(u <= v for u, v in zip(vals, vals[1:]))

    def test_trunc_cdf_clamps_and_renormalises(self):
        spec = NormalSpec(mu=100.0, sigma2=100.0, support_lo=90.0, support_hi=110.0)
        (p80, _), (p120, _), (p100, _), (p105, _) = spec.tail([80.0, 120.0, 100.0, 105.0], True)
        assert p80 == 0.0
        assert p120 == 1.0
        assert p100 == pytest.approx(0.5, abs=1e-12)
        # Renormalisation pushes mass inward relative to the raw cdf.
        assert p105 > cdf(spec, 105.0)


class TestConditionalMeans:
    # NormalSpec.tail's conditional mean at one point, below or above it.
    @staticmethod
    def below(spec, x):
        return mean_of(spec.tail([x], True)[0][1])

    @staticmethod
    def above(spec, x):
        return mean_of(spec.tail([x], False)[0][1])

    def test_half_normal_below(self):
        # E[x | x <= 0] for the standard normal is -sqrt(2/pi).
        assert self.below(STD, 0.0) == pytest.approx(-0.7978845608, abs=1e-4)

    def test_half_normal_above(self):
        assert self.above(STD, 0.0) == pytest.approx(0.7978845608, abs=1e-4)

    def test_whole_support_gives_mean(self):
        assert self.below(EX1, EX1.support_hi) == pytest.approx(100.0, abs=1e-6)
        assert self.above(EX1, EX1.support_lo) == pytest.approx(100.0, abs=1e-6)

    def test_empty_event_errors(self):
        with pytest.raises(ValueError, match="empty conditioning event"):
            self.below(EX1, EX1.support_lo)
        with pytest.raises(ValueError, match="empty conditioning event"):
            self.above(EX1, EX1.support_hi)

    def test_symmetry_about_mean(self):
        for d in (3.0, 10.0, 25.0):
            above = self.above(EX1, 100.0 + d)
            below = self.below(EX1, 100.0 - d)
            assert above + below == pytest.approx(200.0, abs=1e-9)

    def test_sandwich_property(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            mu = rng.uniform(-50.0, 150.0)
            sigma2 = rng.uniform(0.25, 400.0)
            spec = NormalSpec(mu=mu, sigma2=sigma2, support_lo=mu - 8 * math.sqrt(sigma2),
                              support_hi=mu + 8 * math.sqrt(sigma2))
            x = rng.uniform(mu - 2 * math.sqrt(sigma2), mu + 2 * math.sqrt(sigma2))
            below = self.below(spec, x)
            above = self.above(spec, x)
            assert below <= x <= above
            assert below <= above

    def test_matches_quadrature(self):
        # The closed form mu*mass - sigma2*(f(b) - f(a)) against scipy.quad;
        # the acceptance suite runs the full 1,000-draw version.
        rng = np.random.default_rng(23)
        for _ in range(60):
            mu = rng.uniform(-20.0, 120.0)
            sigma2 = rng.uniform(0.5, 300.0)
            sigma = math.sqrt(sigma2)
            spec = NormalSpec(mu=mu, sigma2=sigma2, support_lo=mu - 9 * sigma, support_hi=mu + 9 * sigma)
            a, b = sorted(rng.uniform(mu - 5 * sigma, mu + 5 * sigma, size=2))
            if b - a < 1e-3 * sigma:
                continue
            closed = mu * (cdf(spec, b) - cdf(spec, a)) - sigma2 * (pdf(spec, b) - pdf(spec, a))
            oracle = quad_moment(spec, a, b)
            assert closed == pytest.approx(oracle, abs=1e-8 * max(1.0, abs(oracle)))

    def test_cond_mean_is_moment_ratio(self):
        spec = NormalSpec(mu=100.0, sigma2=100.0)
        for x in (92.0, 100.0, 113.0):
            mass = quad_mass(spec, spec.support_lo, x)
            oracle = quad_moment(spec, spec.support_lo, x) / mass
            assert self.below(spec, x) == pytest.approx(oracle, rel=1e-9)


def oracle_tail(spec, xs, below):
    """NormalSpec.tail by the scalar chain, point by point: (P, mean or
    the mean's error message) up to the first point whose probability
    raises, and that point's index and message (None, None if none does)."""
    tn = ScalarTruncatedNormal(spec)
    out = []
    for idx, x in enumerate(xs):
        x, c = tn.at(x)
        try:
            df, prob, thin = tn.event(x, c, below)
        except ValueError as exc:
            return out, idx, str(exc)
        try:
            mean = tn.mean(x, below, df, thin)
        except ValueError as exc:
            mean = str(exc)
        out.append((prob, mean))
    return out, None, None


@st.composite
def tail_cases(draw):
    """A spec (default or explicit support, up to far-tail supports with no
    mass), and points: a grid, both edges, points beyond them, and points a
    hair inside each edge, where the thin-event branches fire."""
    mu = draw(st.floats(-50.0, 300.0))
    sigma = math.sqrt(draw(st.one_of(st.floats(1e-6, 1e4), st.sampled_from([1e-12, 1e-8, 100.0]))))
    kind = draw(st.sampled_from(["default", "explicit", "far"]))
    if kind == "default":
        assume(mu + 6.0 * sigma > 1e-6)  # the default support's floored lower edge
        spec = NormalSpec(mu=mu, sigma2=sigma * sigma)
    else:
        start = draw(st.floats(-12.0, 6.0) if kind == "explicit" else st.floats(40.0, 60.0))
        lo = mu + start * sigma
        hi = lo + draw(st.floats(1e-6, 20.0)) * sigma
        assume(lo < hi)
        spec = NormalSpec(mu=mu, sigma2=sigma * sigma, support_lo=lo, support_hi=hi)
    lo, hi = spec.support_lo, spec.support_hi
    grid = [lo + (hi - lo) * k / 63 for k in range(64)]
    hair = [d * max(1.0, sigma) for d in (1e-9, 1e-7, 1e-6, 2e-6, 1e-5, 1e-3)]
    edges = [lo, hi, lo - 1.0, hi + 1.0, lo - 1e300, hi + 1e300, *(lo + h for h in hair), *(hi - h for h in hair)]
    xs = draw(st.permutations(grid + edges)) if draw(st.booleans()) else grid + edges
    return spec, xs


# 300 examples, or the profile's count where that is higher (ci: 500).
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(case=tail_cases(), below=st.booleans())
def test_tail_matches_scalar_oracle(case, below):
    # The batched evaluator is the scalar chain at, event and mean, the same
    # floats point by point, compared with repr.  An empty event's mean is
    # the ValueError the chain raises; a support with no mass raises once a
    # point lies inside it, as event does there.
    spec, xs = case
    want, stop, message = oracle_tail(spec, xs, below)
    if stop is None:
        got = spec.tail(xs, below)
    else:
        got = spec.tail(xs[:stop], below)
        with pytest.raises(ValueError) as raised:
            spec.tail(xs[: stop + 1], below)
        assert str(raised.value) == message
    assert repr([(p, str(m) if isinstance(m, ValueError) else m) for p, m in got]) == repr(want)


class TestTailErrors:
    # Where the trader's objectives meet an empty event: such a mean raises
    # only where the point's discount is not 0.0.
    SPEC = NormalSpec(mu=100.0, sigma2=100.0, support_lo=10.0, support_hi=160.0)

    def test_thin_event_behind_a_zero_discount_is_skipped(self):
        # Grid point 96 of the s1 scan holds 1.6e-14 of mass below it, over
        # 1.4 sigma: its mean is an error.  At delta 0.1 its discount
        # 0.9^(1/P) underflows to 0.0, so the scan passes it and returns the
        # interval of the default support (which starts at 40, where the
        # normal has ~1e-9 of mass below).
        lo = 10.0 + 150.0 * 1e-12
        x = lo + (160.0 - lo) * 96 / 1023
        ((prob, mean),) = self.SPEC.tail([x], True)
        assert 0.0 < prob < 1e-13
        assert isinstance(mean, ValueError) and "numerically zero probability" in str(mean)
        assert _discount_pow(0.9, prob) == 0.0
        wi = waiting_interval(self.SPEC, SpeculatorParams(delta=0.1))
        ref = waiting_interval(NormalSpec(mu=100.0, sigma2=100.0), SpeculatorParams(delta=0.1))
        assert (wi.s1, wi.y1, wi.y2) == pytest.approx((ref.s1, ref.y1, ref.y2), rel=1e-8)

    def test_thin_event_with_a_discount_raises(self):
        # With no discount (1 - delta = 1) every point is weighed, and the
        # first empty event in grid order raises.
        with pytest.raises(ValueError, match="numerically zero probability"):
            _s1(self.SPEC, 1.0)


class TestThinEvents:
    # Events with under 1e-8 of the normal's mass take their mass from erfc
    # and, where narrow, their mean from the density's expansion at the
    # support edge; the x*f expansion lost every digit there.
    @staticmethod
    def quad(spec, a, b, g):
        # No absolute tolerance: these events hold down to 4e-13 of mass.
        val, _ = integrate.quad(lambda x: g(x) * pdf(spec, x), a, b, epsabs=0.0, epsrel=1e-13, limit=400)
        return val

    @pytest.mark.parametrize(
        "sigma2, x",
        # The first grid points of waiting_interval's x1 scan at delta 1e-9
        # whose mean the x*f expansion gave <= 0 (floored support, lo 1e-6).
        [(400.0, 7.241289610636004e-05), (625.0, 8.751707997122781e-06), (2500.0, 1.0003999999989999e-06)],
    )
    def test_thin_events_near_a_floored_support_match_quadrature(self, sigma2, x):
        spec = NormalSpec(100.0, sigma2)
        lo, hi = spec.support_lo, spec.support_hi
        ((prob, mean),) = spec.tail([x], True)
        mass = self.quad(spec, lo, x, lambda p: 1.0)
        assert mass < 1e-10
        assert mean == pytest.approx(self.quad(spec, lo, x, lambda p: p) / mass, rel=1e-12)
        # erfc keeps 1e-16 of F(lo), which is 0.023 at sigma2 2500: 4e-5 of this event.
        assert prob == pytest.approx(mass / self.quad(spec, lo, hi, lambda p: 1.0), rel=1e-4)

    @pytest.mark.parametrize("sigma2", [100.0, 400.0, 2500.0, 10_000.0])
    @pytest.mark.parametrize("below", [True, False], ids=["below", "above"])
    def test_means_of_thin_events_match_quadrature(self, sigma2, below):
        # Events from 1e-13 to 1e-8 of mass at an edge between 0 and mu,
        # narrow or not: the lower edge of the default support, or the upper
        # edge of its mirror image about 0.
        spec = NormalSpec(100.0, sigma2)
        if not below:
            spec = NormalSpec(-100.0, sigma2, -spec.support_hi, -spec.support_lo)
        lo, hi = spec.support_lo, spec.support_hi
        edge = lo if below else hi
        checked = 0
        for k in range(11):
            width = 10.0 ** (-13 + k / 2) / pdf(spec, edge)
            x = edge + width if below else edge - width
            a, b = (lo, x) if below else (x, hi)
            mass = self.quad(spec, a, b, lambda p: 1.0)
            if not (lo < x < hi and mass < 1e-8):
                continue
            ((_, mean),) = spec.tail([x], below)
            assert mean == pytest.approx(self.quad(spec, a, b, lambda p: p) / mass, rel=1e-8)
            checked += 1
        assert checked >= 8

    def test_events_beyond_mu_keep_the_expansion(self):
        # At the upper edge of a positive mu the expansion adds to mu and
        # does not cancel: a thin event there keeps F(hi) - F(x) as its mass.
        spec = NormalSpec(100.0, 278.0)
        x = 199.99988270110117
        ((prob, mean),) = spec.tail([x], False)
        tn = ScalarTruncatedNormal(spec)
        c = tn.at(x)[1]
        assert prob < 1e-8 and prob == 1.0 - (c - tn.cdf_lo) / tn.mass
        assert mean == spec.mu - spec.sigma2 * (pdf(spec, spec.support_hi) - pdf(spec, x)) / (tn.cdf_hi - c)


class TestLawObject:
    # NormalSpec computes its truncated law's constants once, out of its fields.
    def test_equality_hash_and_repr_ignore_the_constants(self):
        used, fresh = NormalSpec(100.0, 400.0), NormalSpec(100.0, 400.0)
        used.tail([90.0, 110.0], True)
        assert "_law" in vars(used) and "_law" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert repr(used) == "NormalSpec(mu=100.0, sigma2=400.0, support_lo=1e-06, support_hi=220.0)"

    def test_replace_evaluates_the_new_law(self):
        spec = NormalSpec(100.0, 100.0, 60.0, 140.0)
        before = spec.tail([90.0], True), spec.mass
        wider = dataclasses.replace(spec, sigma2=400.0)
        want = NormalSpec(100.0, 400.0, 60.0, 140.0)
        assert (wider.sigma, wider.mass, wider.tail([90.0], True)) == (20.0, want.mass, want.tail([90.0], True))
        assert (spec.tail([90.0], True), spec.mass) == before != (wider.tail([90.0], True), wider.mass)

    def test_point_mass_is_refused_at_tail(self):
        spec = NormalSpec(100.0, 0.0)
        for below in (True, False):
            with pytest.raises(ValueError, match=r"^degenerate distribution: no density for a point mass \(sigma2 == 0\)$"):
                spec.tail([100.0], below)


class TestSampling:
    def test_point_mass_is_constant(self):
        assert iid_prices(NormalSpec(mu=7.0, sigma2=0.0), 5, seed=123).tolist() == [7.0] * 5

    def test_sample_mean_near_mu(self):
        prices = iid_prices(EX1, 100_000, seed=7)
        assert abs(prices.mean() - 100.0) < 0.2

    def test_samples_respect_support(self):
        spec = NormalSpec(mu=100.0, sigma2=100.0, support_lo=95.0, support_hi=105.0)
        prices = iid_prices(spec, 2_000, seed=3)
        assert prices.min() >= 95.0
        assert prices.max() <= 105.0

    def test_floored_support_draws_the_truncated_law(self):
        # Below the floor 1e-6 the normal holds 4.3e-4 of its mass.  Clipped,
        # ~43 of these draws would sit on the edge; dropped, none does, and
        # the draws below 20 are the truncated law's share.
        spec = NormalSpec(100.0, 900.0)
        prices = iid_prices(spec, 100_000, seed=4)
        assert prices.min() > spec.support_lo and prices.max() < spec.support_hi
        ((share, _),) = spec.tail([20.0], True)
        sd = math.sqrt(share * (1.0 - share) / len(prices))
        assert abs(np.mean(prices <= 20.0) - share) < 5.0 * sd

    def test_support_with_too_little_mass_is_refused(self):
        # 2.9e-7 of the standard normal's mass: ~3.5 million draws a price.
        spec = NormalSpec(0.0, 1.0, support_lo=5.0, support_hi=6.0)
        with pytest.raises(ValueError, match="too little probability mass to draw from"):
            next(spec.blocks(np.random.default_rng(0)))

    def test_deterministic_per_seed(self):
        a = iid_prices(EX1, 50, seed=11)
        b = iid_prices(EX1, 50, seed=11)
        c = iid_prices(EX1, 50, seed=12)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_walk_pure_drift(self):
        series = random_walk(WalkSpec(mu_step=1.0, sigma_step=0.0, p0=10.0), 4, seed=0)
        assert series.prices == (10.0, 11.0, 12.0, 13.0)

    def test_walk_floor_clamp_counted(self):
        spec = WalkSpec(mu_step=-50.0, sigma_step=0.0, p0=10.0, floor=1.0)
        series = random_walk(spec, 5, seed=0)
        assert series.prices == (10.0, 1.0, 1.0, 1.0, 1.0)
        assert series.clamp_count == 4

    def test_walk_deterministic(self):
        spec = WalkSpec(mu_step=-0.056, sigma_step=16.7, p0=3047.70)
        a = random_walk(spec, 300, seed=9)
        b = random_walk(spec, 300, seed=9)
        assert a.prices == b.prices
        assert min(a.prices) > 0.0


def first_blocks(blocks, n):
    """The blocks of a generator up to n prices, the last one cut at n."""
    out, taken = [], 0
    for prices, clamped in blocks:
        out.append((prices[: n - taken], None if clamped is None else clamped[: n - taken]))
        taken += len(out[-1][0])
        if taken == n:
            return out


class TestBlockLayout:
    # The path generators' blocks grow from BLOCK to MAX_BLOCK; the prices
    # and clamp flags must be those of the 512-price blocks they replaced.
    N = 21_000  # past the fourth MAX_BLOCK block, with a short last one

    @pytest.mark.parametrize(
        "spec, clamps",
        [(WalkSpec(0.0, 1.0, 100.0), 0), (WalkSpec(-0.05, 1.0, 5.0), 1041), (WalkSpec(0.3, 30.0, 10.0, floor=2.0), 40)],
        ids=["plain", "clamping", "clamping_high_floor"],
    )
    def test_walk_blocks_equal_the_512_block_stream(self, spec, clamps, monkeypatch):
        wide = first_blocks(spec.blocks(np.random.default_rng(5)), self.N)
        assert [len(b) for b, _ in wide] == [1, 512, 1024, 2048, 4096, 4096, 4096, 4096, 1031]
        path = np.concatenate([b for b, _ in wide])
        clamped = np.concatenate([c for _, c in wide])
        # Oracle: the same steps added one by one, restarting at the floor.
        q, expected, flags = spec.p0, [spec.p0], [False]
        for step in np.random.default_rng(5).normal(spec.mu_step, spec.sigma_step, self.N - 1).tolist():
            q += step
            flags.append(q < spec.floor)
            q = max(q, spec.floor)
            expected.append(q)
        assert path.tolist() == expected and clamped.tolist() == flags
        series = random_walk(spec, self.N, 5)
        assert series.prices == tuple(expected) and series.clamp_count == sum(flags) == clamps
        monkeypatch.setattr(prices, "MAX_BLOCK", BLOCK)
        narrow = first_blocks(spec.blocks(np.random.default_rng(5)), self.N)
        assert {len(b) for b, _ in narrow[1:-1]} == {BLOCK}
        assert np.array_equal(np.concatenate([b for b, _ in narrow]), path)
        assert np.array_equal(np.concatenate([c for _, c in narrow]), clamped)
        assert random_walk(spec, self.N, 5) == series

    def test_iid_blocks_equal_the_512_block_stream(self, monkeypatch):
        # A support of 1.5 sigma, so draws fall outside both edges.  Oracle:
        # the generator's stream with those draws dropped.
        spec = NormalSpec(mu=100.0, sigma2=100.0, support_lo=85.0, support_hi=115.0)
        wide = first_blocks(spec.blocks(np.random.default_rng(5)), self.N)
        assert [len(b) for b, _ in wide] == [512, 1024, 2048, 4096, 4096, 4096, 4096, 1032]
        path = np.concatenate([b for b, _ in wide])
        stream = np.random.default_rng(5).normal(100.0, 10.0, 2 * self.N)
        kept = stream[(stream >= 85.0) & (stream <= 115.0)]
        assert len(kept) < 0.9 * len(stream)
        assert path.tolist() == kept[: self.N].tolist()
        monkeypatch.setattr(prices, "MAX_BLOCK", BLOCK)
        narrow = first_blocks(spec.blocks(np.random.default_rng(5)), self.N)
        assert {len(b) for b, _ in narrow[:-1]} == {BLOCK}
        assert np.array_equal(np.concatenate([b for b, _ in narrow]), path)

    def test_series_blocks_equal_the_512_block_stream(self, monkeypatch):
        series = PriceSeries(tuple(100.0 + (k * 7919) % 1009 for k in range(self.N)), "literal")
        wide = [b for b, _ in series.blocks()]
        assert [len(b) for b in wide] == [512, 1024, 2048, 4096, 4096, 4096, 4096, 1032]
        assert np.concatenate(wide).tolist() == list(series.prices)
        monkeypatch.setattr(prices, "MAX_BLOCK", BLOCK)
        narrow = [b for b, _ in series.blocks()]
        assert [len(b) for b in narrow] == [BLOCK] * (self.N // BLOCK) + [self.N % BLOCK]
        assert np.array_equal(np.concatenate(narrow), np.concatenate(wide))
        assert MAX_BLOCK == 8 * BLOCK


@pytest.fixture
def csv_reader_rows(monkeypatch):
    """The rows that csv.reader yields while the test runs, in order."""
    rows = []
    reader = csv.reader

    def counting_reader(*args, **kwargs):
        for row in reader(*args, **kwargs):
            rows.append(row)
            yield row

    monkeypatch.setattr(prices.csv, "reader", counting_reader)
    return rows


class TestCsv:
    def test_loads_in_order(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,price\n1,1.0\n2,2.0\n3,3.0\n")
        series = load_csv(str(f))
        assert series.prices == (1.0, 2.0, 3.0)
        assert series.source == "csv"

    def test_negative_price_names_row(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,price\n1,1.0\n2,-5\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(str(f))

    def test_non_numeric_names_row(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,price\n1,abc\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(str(f))

    def test_missing_column(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,close\n1,1.0\n")
        with pytest.raises(ValueError, match="price"):
            load_csv(str(f))

    def test_empty_file(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,price\n")
        with pytest.raises(ValueError, match="empty|no rows"):
            load_csv(str(f))

    def test_custom_column_names(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("ts,open\n1,42.5\n")
        series = load_csv(str(f), timestamp_column="ts", price_column="open")
        assert series.prices == (42.5,)

    @pytest.mark.parametrize("text", list(CSV_OUTCOMES)[:3], ids=["extra_and_reordered_columns", "quoted_fields", "crlf"])
    def test_column_reader_matches_row_reader(self, tmp_path, text):
        f = tmp_path / "p.csv"
        f.write_bytes(text.encode())
        assert csv_outcome(load_csv, str(f)) == csv_outcome(load_csv_rows, str(f)) == CSV_OUTCOMES[text]

    @pytest.mark.parametrize("text", list(CSV_OUTCOMES)[3:], ids=CSV_IDS.get)
    def test_fallback_gives_the_row_reader_result(self, tmp_path, text):
        # Irregular files: the pass that names a bad row, a skipped blank
        # line, a repeated column, the header's own errors, each guard that
        # keeps a chunk from the split pass or lets it through, and bytes
        # that are not UTF-8.
        f = tmp_path / "p.csv"
        f.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert csv_outcome(load_csv, str(f)) == csv_outcome(load_csv_rows, str(f)) == CSV_OUTCOMES[text]

    @pytest.mark.parametrize(
        "text, outcome",
        [("timestamp,price\n1,1.5\n2,2.5\n", (1.5, 2.5)), ("timestamp,price\n1,1.5\n2,-1\n", "row 3")],
        ids=["loads", "names_bad_row"],
    )
    def test_byte_order_mark_is_dropped(self, tmp_path, text, outcome):
        # A spreadsheet's "CSV UTF-8" export starts with U+FEFF; the second
        # pass, which names a bad row, reads past it too.
        f = tmp_path / "p.csv"
        f.write_bytes(b"\xef\xbb\xbf" + text.encode())
        if isinstance(outcome, str):
            with pytest.raises(ValueError, match=f"{outcome}: price must be finite and > 0"):
                load_csv(str(f))
        else:
            assert load_csv(str(f)).prices == outcome
        assert csv_outcome(load_csv, str(f)) == csv_outcome(load_csv_rows, str(f))

    def test_quote_free_body_skips_csv_reader(self, tmp_path, csv_reader_rows):
        # Only the header goes through csv.reader.  A guard that tripped by
        # mistake would send the body there too, with the same prices.
        f = tmp_path / "p.csv"
        f.write_text("timestamp,price\n" + "".join(f"{t},{t}.5\n" for t in range(1000)))
        assert load_csv(str(f)).prices == tuple(t + 0.5 for t in range(1000))
        assert csv_reader_rows == [["timestamp", "price"]]

    def test_quote_past_64KiB_sends_only_its_chunk_on_to_csv_reader(self, tmp_path, csv_reader_rows):
        body = [f"{t},{t}.5\n" for t in range(10_000)]
        body[8000] = '"8000",8000.5\n'
        f = tmp_path / "p.csv"
        f.write_text("timestamp,price\n" + "".join(body))
        # The first line of the ~64 KiB chunk that holds the quote.
        lines, start = io.StringIO("".join(body)), 0
        while start + len(chunk := lines.readlines(65536)) <= 8000:
            start += len(chunk)
        assert 0 < start <= 8000
        assert load_csv(str(f)).prices == tuple(t + 0.5 for t in range(10_000))
        assert csv_reader_rows == [["timestamp", "price"]] + [[str(t), f"{t}.5"] for t in range(start, 10_000)]

    @pytest.mark.parametrize("odd", ["8000,8000.5,x\n", "\n8000,8000.5\n", "8000,8000.5"],
                             ids=["extra_field", "blank_line", "no_line_end"])
    def test_ragged_chunk_past_64KiB_sends_only_its_chunk_on_to_csv_reader(self, tmp_path, csv_reader_rows, odd):
        # The structure guard sends a chunk to csv.reader that holds a row
        # of another width than the header's, a blank line, or the file's
        # last line without its line end; the chunks before it are split.
        body = [f"{t},{t}.5\n" for t in range(8000)] + [odd]
        f = tmp_path / "p.csv"
        f.write_text("timestamp,price\n" + "".join(body))
        lines, start = io.StringIO("".join(body)), 0
        while start + len(chunk := lines.readlines(65536)) <= 8000:
            start += len(chunk)
        assert 0 < start <= 8000
        assert load_csv(str(f)).prices == tuple(t + 0.5 for t in range(8001))
        rows = [line.rstrip("\n").split(",") if line != "\n" else [] for line in io.StringIO("".join(body[start:]))]
        assert csv_reader_rows == [["timestamp", "price"]] + rows

    def test_clean_crlf_file_with_price_inside_skips_csv_reader(self, tmp_path, csv_reader_rows, monkeypatch):
        # 100k CRLF rows, the price column between two others: every chunk
        # is split, and the prices are the DictReader reference's.
        rng = np.random.default_rng(4)
        ps = rng.uniform(0.5, 2e4, 100_000).tolist()
        f = tmp_path / "p.csv"
        f.write_text("timestamp,price,volume\r\n" + "".join(
            f"{t},{p!r},{v}\r\n" for t, p, v in zip(range(100_000), ps, rng.integers(0, 10**6, 100_000).tolist())),
            newline="")
        assert load_csv(str(f)).prices == tuple(ps)
        assert csv_reader_rows == [["timestamp", "price", "volume"]]
        monkeypatch.undo()  # the reference reads through csv.reader too
        assert load_csv_rows(str(f)).prices == tuple(ps)

    @pytest.mark.parametrize(
        "text, seeks",
        [("timestamp,price\n1,1.5\n2,2.5\n", 0), (LONG_CSV["quote_after_64KiB"], 0),
         (LONG_CSV["bad_row_after_64KiB"], 1), (LONG_CSV["bad_row_after_quote"], 1),
         (LONG_CSV["not_utf8_after_64KiB"], 1)],
        ids=["clean", "quote_after_64KiB", "bad_row_after_64KiB", "bad_row_after_quote", "not_utf8_after_64KiB"],
    )
    def test_only_a_failed_read_seeks_once(self, tmp_path, monkeypatch, text, seeks):
        calls = []

        class SeekCountingFile(io.TextIOWrapper):
            def seek(self, *args):
                calls.append(args)
                return super().seek(*args)

        monkeypatch.setattr(prices, "open", lambda path, **kw: SeekCountingFile(io.open(path, "rb"), **kw),
                            raising=False)
        f = tmp_path / "p.csv"
        f.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert csv_outcome(load_csv, str(f)) == csv_outcome(load_csv_rows, str(f))
        assert calls == [(0,)] * seeks

    def test_one_column_file_skips_its_blank_lines(self, tmp_path):
        # A blank line has the one-column shape, so such a file goes to csv.reader.
        f = tmp_path / "p.csv"
        f.write_bytes(b"price\n1.5\n\n2.5\n\n3.5\n")
        for load in (load_csv, load_csv_rows):
            assert load(str(f), timestamp_column="price").prices == (1.5, 2.5, 3.5)

    def test_unparsable_field_names_its_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(f"timestamp,price\n1,{'1' * 200_000}\n")
        with pytest.raises(ValueError, match=r"p\.csv: line 2: field larger than field limit \(131072\)$"):
            load_csv(str(f))
        # A well-formed price does not get the row past an over-long field.
        f.write_text(f"timestamp,price\n{'1' * 200_000},1.5\n")
        with pytest.raises(ValueError, match=r"p\.csv: line 2: field larger than field limit \(131072\)$"):
            load_csv(str(f))


CSV_CELLS = st.sampled_from(
    ["", " ", "nan", "inf", "-3", "0", "abc", "1.5", " 2 ", "1e3", "7,5", 'q"t', "a\nb", "1_5", "\u0663", "2\x85",
     "a\u2028b", "x\ry"]
)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.none() | st.lists(st.sampled_from(["timestamp", "price", "open", ""]), max_size=5)
    | st.permutations(["timestamp", "price", "open"]),
    rows=st.lists(st.none() | st.lists(CSV_CELLS, max_size=6), max_size=8),
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    newline=st.sampled_from(["\n", "\r\n"]),
    long=st.booleans(),
)
@example(header=["timestamp", "price"], rows=[["2", "1.5"]], quoting=csv.QUOTE_ALL, newline="\n", long=True)
@example(header=["timestamp", "price"], rows=[['"t"', "1.5"]], quoting=csv.QUOTE_MINIMAL, newline="\r\n", long=True)
@example(header=["timestamp", "price"], rows=[["2", "1.5", "x"], None, ["3", "2.5"]], quoting=csv.QUOTE_MINIMAL,
         newline="\r\n", long=True)
@example(header=["price", "timestamp"], rows=[["1.5"], ["a\u2028b", "2"]], quoting=csv.QUOTE_MINIMAL, newline="\n",
         long=True)
def test_load_csv_matches_dictreader_oracle(tmp_path, header, rows, quoting, newline, long):
    # Missing, repeated and reordered columns, blank lines (None), short
    # and long rows, quoted fields and both line ends: load_csv gives the
    # DictReader reference's prices or its message.  A long file puts 72 KB
    # of valid rows first, so the drawn rows fall past the first 64 KiB chunk.
    text = io.StringIO()
    if header is not None:
        writer = csv.writer(text, quoting=quoting, lineterminator=newline)
        prefix = [["1.000000000000000"] * max(len(header), 1)] * (4000 if long else 0)
        for row in [header, *prefix, *rows]:
            if row is None:
                text.write(newline)
            else:
                writer.writerow(row)
    f = tmp_path / "p.csv"
    f.write_bytes(text.getvalue().encode())
    assert csv_outcome(load_csv, str(f)) == csv_outcome(load_csv_rows, str(f))


class TestStepStats:
    def test_single_step(self):
        series = PriceSeries(prices=(100.0, 110.0), source="literal")
        walk = step_stats(series)
        assert (walk.mu_step, walk.sigma_step, walk.p0) == (10.0, 0.0, 100.0)

    def test_constant_series(self):
        series = PriceSeries(prices=(5.0, 5.0, 5.0), source="literal")
        walk = step_stats(series)
        assert (walk.mu_step, walk.sigma_step, walk.p0) == (0.0, 0.0, 5.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            step_stats(PriceSeries(prices=(1.0,), source="literal"))

    def test_round_trips_a_drift_walk(self):
        series = random_walk(WalkSpec(mu_step=2.0, sigma_step=0.0, p0=50.0), 10, seed=0)
        walk = step_stats(series)
        assert walk.mu_step == pytest.approx(2.0)
        assert walk.sigma_step == pytest.approx(0.0)


class TestSeedDerivation:
    def test_stable(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(123, 4) == derive_seed(123, 4)

    def test_distinct_streams(self):
        seeds = {derive_seed(99, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_masters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_u64_range(self):
        for i in range(50):
            s = derive_seed(2**63, i)
            assert 0 <= s < 2**64


@settings(deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=80))
@example(seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1] * 4)
@example(seeds=[2**64 - 1])
def test_seeding_property_pcg64_states_equal_numpy(seeds):
    # Every batch of seeds in [0, 2**64), down to one seed, takes the array
    # pass: the bulk SeedSequence hash gives each seed the state PCG64(seed)
    # starts in.
    assert pcg64_states(seeds) == [np.random.PCG64(s).state["state"] for s in seeds]


class TestSeeding:
    def test_edges_and_derived_seeds(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [derive_seed(m, i) for m in (0, 7, 2**64 + 5) for i in range(300)]
        assert pcg64_states(seeds) == [np.random.PCG64(s).state["state"] for s in seeds]

    @pytest.mark.parametrize("seed", [2**64, 2**70])
    def test_seeds_past_64_bits_take_numpy_state(self, seed):
        assert pcg64_states([seed]) == [np.random.PCG64(seed).state["state"]]
        assert pcg64_states([1, seed]) == [np.random.PCG64(1).state["state"], np.random.PCG64(seed).state["state"]]

    def test_negative_seed_raises_numpys_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            pcg64_states([-1])
        with pytest.raises(ValueError, match="non-negative"):
            random_walk(WalkSpec(0.0, 1.0, 100.0), 5, -1)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1, 2**64, 2**70])
    def test_streams_are_default_rngs(self, seed):
        # No draw of these streams falls outside EX1's +/- 6 sigma support.
        want = np.random.default_rng(seed).normal(100.0, 10.0, 3 * BLOCK)
        assert iid_prices(EX1, 3 * BLOCK, seed).tolist() == want.tolist()
        steps = np.random.default_rng(seed).normal(0.0, 1.0, 2000)
        path = np.add.accumulate(np.concatenate(([1000.0], steps)))  # far above the floor
        assert random_walk(WalkSpec(0.0, 1.0, 1000.0), 2001, seed).prices == tuple(path.tolist())

    def test_a_generator_is_drawn_from_as_it_stands(self):
        rng = np.random.default_rng(3)
        rng.normal(size=5)
        want = np.random.default_rng(3)
        want.normal(size=5)
        assert next(EX1.blocks(rng))[0].tolist() == want.normal(100.0, 10.0, BLOCK).tolist()

    @pytest.mark.parametrize(
        "make",
        [
            lambda s: EX1.blocks(np.random.default_rng(s)),
            lambda s: WalkSpec(0.0, 1.0, 100.0).blocks(np.random.default_rng(s)),
        ],
        ids=["iid", "walk"],
    )
    def test_streams_driven_alternately_equal_each_alone(self, make):
        # Each stream owns its generator: interleaving two cannot mix them.
        alone = [[next(blocks)[0].tolist() for _ in range(4)] for blocks in (make(4), make(5))]
        a, b = make(4), make(5)
        mixed = [[], []]
        for _ in range(4):
            mixed[0].append(next(a)[0].tolist())
            mixed[1].append(next(b)[0].tolist())
        assert mixed == alone and alone[0] != alone[1]


class TestSpecValidation:
    def test_default_support_six_sigma(self):
        assert EX1.support_lo == pytest.approx(40.0)
        assert EX1.support_hi == pytest.approx(160.0)

    def test_default_support_floored_positive(self):
        spec = NormalSpec(mu=1.0, sigma2=100.0)
        assert spec.support_lo > 0.0

    def test_bad_support_order(self):
        with pytest.raises(ValueError):
            NormalSpec(mu=0.0, sigma2=1.0, support_lo=2.0, support_hi=1.0)

    def test_negative_variance(self):
        with pytest.raises(ValueError):
            NormalSpec(mu=0.0, sigma2=-1.0)

    def test_walk_requires_positive_floor(self):
        with pytest.raises(ValueError):
            WalkSpec(mu_step=0.0, sigma_step=1.0, p0=10.0, floor=0.0)

    @pytest.mark.parametrize("floor", [math.inf, math.nan])
    def test_walk_requires_finite_floor(self, floor):
        with pytest.raises(ValueError, match="floor must be finite and positive"):
            WalkSpec(mu_step=0.0, sigma_step=1.0, p0=10.0, floor=floor)

    @pytest.mark.parametrize("edge, value", [("support_lo", -math.inf), ("support_hi", math.inf)])
    def test_infinite_support_edge_rejected(self, edge, value):
        with pytest.raises(ValueError, match=f"{edge} must be finite"):
            NormalSpec(mu=0.0, sigma2=1.0, **{edge: value})

    def test_point_mass_support_holds_mu(self):
        assert NormalSpec(mu=7.0, sigma2=0.0, support_lo=5.0, support_hi=9.0).support_lo == 5.0
        for edges in ({"support_hi": 6.0}, {"support_lo": 8.0, "support_hi": 9.0}):
            with pytest.raises(ValueError, match="a point mass needs support_lo <= mu <= support_hi"):
                NormalSpec(mu=7.0, sigma2=0.0, **edges)

    def test_series_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PriceSeries(prices=(1.0, 0.0), source="literal")
        # The message names the first bad price, whatever comes after it.
        for prices, idx, bad in [((2.0, -1.0, math.nan), 1, "-1.0"), ((2.0, 3.0, math.inf, 0.0), 2, "inf"),
                                 ((math.nan, -1.0), 0, "nan"), ((1.0, -0.0), 1, "-0.0")]:
            with pytest.raises(ValueError, match=rf"^price at index {idx} must be finite and > 0, got {bad}$"):
                PriceSeries(prices=prices, source="literal")

    def test_series_rejects_empty(self):
        with pytest.raises(ValueError):
            PriceSeries(prices=(), source="literal")
