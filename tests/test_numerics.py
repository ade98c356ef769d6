"""Quadrature, inversion, minimization, and stream-splitting contracts."""

import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from scipy.stats import ks_2samp

import macfusion
from macfusion import estimation as est
from macfusion import noise, numerics, transmit as tx
from macfusion.numerics import (
    QuadratureConvergenceError,
    QuadratureSpec,
    RngStream,
    adaptive_quadrature,
    expect,
    minimize_scalar,
)
from oracles import InversionRangeError, clear_moment_cache, eval_fn, invert_monotone, sample, split_stream


class TestExpect:
    def test_odd_integrand_vanishes(self):
        assert expect(noise.gaussian(1.0), lambda x: x) == pytest.approx(0.0, abs=1e-9)

    def test_unit_variance(self):
        assert expect(noise.gaussian(1.0), lambda x: x * x) == pytest.approx(1.0, abs=1e-8)

    def test_laplacian_second_moment(self):
        assert expect(noise.laplacian(1.0), lambda x: x * x) == pytest.approx(2.0, rel=1e-9)

    def test_cauchy_bounded_integrand_vs_mc_oracle(self):
        """Quadrature against a 1e7-sample Monte Carlo mean, 3 SE band."""
        model = noise.cauchy(1.0)
        g = lambda x: np.tanh(x + 0.5)
        value = expect(model, g)
        rng = np.random.default_rng(314159)
        draws = g(rng.standard_cauchy(10**7))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(value - draws.mean()) < 3.0 * se

    def test_linearity(self):
        """expect(a*g1 + b*g2) = a*expect(g1) + b*expect(g2) within 1e-9."""
        model = noise.laplacian(0.8)
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            g1 = lambda x: np.tanh(1.3 * x + 0.2)
            g2 = lambda x: np.cos(x) * np.exp(-np.abs(x) / 4.0)
            combined = expect(model, lambda x: a * g1(x) + b * g2(x))
            separate = a * expect(model, g1) + b * expect(model, g2)
            assert combined == pytest.approx(separate, abs=1e-9)

    def test_breakpoints_handle_discontinuous_integrand(self):
        """Piecewise-constant integrand integrates to exact cell masses."""
        model = noise.gaussian(1.0)
        g = lambda x: np.where(x >= 0.7, 1.0, 0.0)
        value = expect(model, g, breakpoints=(0.7,))
        assert value == pytest.approx(float(1.0 - noise.cdf(model, 0.7)), abs=1e-10)

    def test_non_convergence_carries_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=2)
        with pytest.raises(QuadratureConvergenceError) as err:
            expect(noise.cauchy(1.0), lambda x: np.tanh(x + 0.3), spec)
        assert math.isfinite(err.value.estimate)
        assert err.value.error_bound > 0.0

    def test_total_that_is_not_finite_is_a_numerics_error(self):
        """Panel totals of -inf and +inf ended in "-inf + inf in fsum" (a
        ValueError), and a NaN total came back as a value. Only the
        integrand's own division by zero is silenced: the package itself
        raises no floating-point warning on its infinite values."""
        with pytest.raises(numerics.NumericsError, match="quadrature of probe has a total that is not finite"):
            adaptive_quadrature(lambda x: np.where(x == 0.0, np.nan, 1.0), -1.0, 1.0, context="probe")
        with np.errstate(divide="ignore"), pytest.raises(numerics.NumericsError, match="total that is not finite"):
            adaptive_quadrature(lambda x: np.sign(x) / 0.0, -1.0, 1.0, breakpoints=(0.0,))


def _scalar_reference_quadrature(fun, a, b, rel_tol, abs_tol, breakpoints, max_subdivisions=2000):
    """The scalar-only adaptive G7/K15 loop the vector version replaced."""

    def batch(lefts, rights):
        centers = 0.5 * (lefts + rights)
        half = 0.5 * (rights - lefts)
        points = centers[:, None] + half[:, None] * numerics._NODES[None, :]
        y = np.asarray(fun(points.ravel()), dtype=np.float64).reshape(points.shape)
        vals = half * (y @ numerics._KW)
        errdiff = np.abs(vals - half * (y @ numerics._GW))
        mean = vals / np.where(rights != lefts, rights - lefts, 1.0)
        resasc = half * (np.abs(y - mean[:, None]) @ numerics._KW)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.where(
                resasc > 0.0,
                resasc * np.minimum(1.0, (200.0 * errdiff / np.where(resasc > 0.0, resasc, 1.0)) ** 1.5),
                errdiff,
            )
        return vals, scaled

    edges = np.unique(np.array([a, *sorted(p for p in breakpoints if a < p < b), b], dtype=np.float64))
    lefts, rights = edges[:-1], edges[1:]
    vals, errs = batch(lefts, rights)
    subdivisions = 0
    while True:
        total, err_total = math.fsum(vals.tolist()), math.fsum(errs.tolist())
        tol = max(abs_tol, rel_tol * abs(total))
        if err_total <= tol:
            order = np.argsort(lefts)
            return total, err_total, np.append(lefts[order], rights[order][-1])
        split = errs > tol / lefts.size
        if not split.any():
            split = errs == errs.max()
        subdivisions += int(split.sum())
        assert subdivisions <= max_subdivisions
        mids = 0.5 * (lefts[split] + rights[split])
        ref_vals, ref_errs = batch(np.concatenate([lefts[split], mids]), np.concatenate([mids, rights[split]]))
        vals = np.concatenate([vals[~split], ref_vals])
        errs = np.concatenate([errs[~split], ref_errs])
        lefts, rights = (
            np.concatenate([lefts[~split], lefts[split], mids]),
            np.concatenate([rights[~split], mids, rights[split]]),
        )


SCALAR_INTEGRANDS = [
    (lambda x: np.tanh(0.75 * (1.0 + 3.0 * x)) * np.exp(-0.5 * x * x), (-7.0, 7.0), (-1 / 3,)),
    (lambda x: np.where(x >= 0.7, 1.0, 0.0) / (1.0 + x * x), (-50.0, 50.0), (0.7,)),
    (lambda x: np.abs(x) ** 0.3 * np.exp(-np.abs(x)), (-30.0, 30.0), (0.0,)),
    (lambda x: np.cos(5.0 * x) * np.exp(-x * x), (-6.0, 6.0), ()),
]


class TestVectorQuadrature:
    @pytest.mark.parametrize("case", range(len(SCALAR_INTEGRANDS)))
    def test_one_component_takes_the_scalar_steps(self, case):
        fun, (a, b), bps = SCALAR_INTEGRANDS[case]
        want = _scalar_reference_quadrature(fun, a, b, 1e-10, 1e-13, bps)
        value, error, edges = adaptive_quadrature(fun, a, b, rel_tol=1e-10, abs_tol=1e-13, breakpoints=bps)
        assert (value, error) == want[:2]
        assert np.array_equal(edges, want[2])
        values, errors, row_edges = adaptive_quadrature(
            lambda x: fun(x)[None, :], a, b, rel_tol=1e-10, abs_tol=1e-13, breakpoints=bps
        )
        assert values.shape == errors.shape == (1,)
        assert (values[0], errors[0]) == want[:2]
        assert np.array_equal(row_edges, want[2])

    def test_components_meet_their_own_tolerances(self):
        funs = [fun for fun, _, _ in SCALAR_INTEGRANDS]
        bps = sorted({p for _, _, pts in SCALAR_INTEGRANDS for p in pts})
        values, errors, _ = adaptive_quadrature(
            lambda x: np.stack([fun(x) for fun in funs]), -6.0, 6.0, rel_tol=1e-10, abs_tol=1e-13, breakpoints=bps
        )
        for fun, value, error in zip(funs, values, errors):
            single, _, _ = adaptive_quadrature(fun, -6.0, 6.0, rel_tol=1e-10, abs_tol=1e-13, breakpoints=bps)
            tol = max(1e-13, 1e-10 * abs(value))
            assert error <= tol
            assert abs(value - single) <= 2.0 * tol

    def test_non_convergence_names_the_component(self):
        with pytest.raises(QuadratureConvergenceError) as err:
            adaptive_quadrature(
                lambda x: np.stack([np.exp(-x * x), np.tanh(40.0 * x - 3.0)]), -5.0, 5.0,
                rel_tol=1e-13, abs_tol=1e-16, max_subdivisions=3, context="pair",
            )
        assert "component" in str(err.value)
        assert math.isfinite(err.value.estimate)


def _fsum_reference_quadrature(fun, a, b, *, rel_tol, abs_tol, breakpoints, max_subdivisions, context=""):
    """The vector loop before its round decisions moved to numpy row sums:
    every round sums each component's values and errors with math.fsum."""
    edges = np.unique(np.array([a, *sorted(p for p in breakpoints if a < p < b), b], dtype=np.float64))
    lefts, rights = edges[:-1], edges[1:]
    vals, errs = numerics._gk15_batch(fun, lefts, rights)
    subdivisions = 0
    while True:
        panels = lefts.size
        errs2 = errs.reshape(-1, panels)
        totals = [math.fsum(row) for row in vals.reshape(-1, panels).tolist()]
        err_totals = [math.fsum(row) for row in errs2.tolist()]
        tols = [max(abs_tol, rel_tol * abs(total)) for total in totals]
        over = [err > tol for err, tol in zip(err_totals, tols)]
        if not any(over):
            order = np.argsort(lefts)
            return np.array(totals), np.array(err_totals), np.append(lefts[order], rights[order][-1])
        shares = np.array([[tol / panels if bad else math.inf] for tol, bad in zip(tols, over)])
        split = (errs2 > shares).any(axis=0)
        if not split.any():
            errs_over = errs2[over]
            split = (errs_over == errs_over.max(axis=1, keepdims=True)).any(axis=0)
        subdivisions += int(split.sum())
        assert subdivisions <= max_subdivisions
        keep = ~split
        mids = 0.5 * (lefts[split] + rights[split])
        ref_vals, ref_errs = numerics._gk15_batch(
            fun, np.concatenate([lefts[split], mids]), np.concatenate([mids, rights[split]])
        )
        lefts, rights = (
            np.concatenate([lefts[keep], lefts[split], mids]),
            np.concatenate([rights[keep], mids, rights[split]]),
        )
        vals = np.concatenate([vals.compress(keep, axis=-1), ref_vals], axis=-1)
        errs = np.concatenate([errs.compress(keep, axis=-1), ref_errs], axis=-1)


class TestRowSumDecisions:
    def test_theorem3_sigma_groups_match_the_fsum_loop(self, monkeypatch):
        """Every 64-component moment quadrature of the per-sigma moments on the
        theorem3 preset's sigma (sqrt growth, L = 100, 1000, 10000, theta = 1
        and 0) is bit-identical in value, error and edges to the loop that
        summed each round with math.fsum."""
        calls = []
        quadrature = numerics.adaptive_quadrature

        def recording(fun, a, b, **kwargs):
            calls.append((fun, a, b, kwargs, quadrature(fun, a, b, **kwargs)))
            return calls[-1][-1]

        f, model = tx.tanh_fn(0.75), noise.gaussian(1.0)
        clear_moment_cache()
        monkeypatch.setattr(numerics, "adaptive_quadrature", recording)
        try:
            for L in (100, 1000, 10000):
                values, _ = est.EstimationSetup(1.0, L, est.sqrt_growth_sigmas(1.0), model, f, 10.0, 1.0).sigma_shares()
                est.g_moment(model, f, values, 1.0, 1)
                est.g_moment(model, f, values, 0.0, 1)
        finally:
            monkeypatch.undo()
            clear_moment_cache()
        # Groups shared between the L values come from the moment cache.
        assert len(calls) >= 2 * -(-10000 // est.MOMENT_GROUP)
        widths = set()
        for fun, a, b, kwargs, (value, error, edges) in calls:
            want = _fsum_reference_quadrature(fun, a, b, **kwargs)
            widths.add(value.size)
            assert np.array_equal(value, want[0])
            assert np.array_equal(error, want[1])
            assert np.array_equal(edges, want[2])
        assert est.MOMENT_GROUP in widths


SIGMA_LIST = (0.5, 0.9, 1.3, 2.0, 3.7, 8.0, 21.0)


class TestVectorMoments:
    @pytest.mark.parametrize("model", [noise.gaussian(1.0), noise.laplacian(0.8), noise.cauchy(1.0)], ids=lambda m: m.kind)
    @pytest.mark.parametrize(
        "f",
        [tx.tanh_fn(0.75), tx.gudermannian_fn(2.0), tx.rational_fn(1.5), tx.uniform_quantizer_fn(x_max=1.0, levels=5)],
        ids=lambda f: f.kind,
    )
    @pytest.mark.parametrize("power", [1, 2])
    def test_each_sigma_within_tolerance_of_its_scalar_call(self, model, f, power):
        """Explicit-list sigmas: every component's kinks are panel edges."""
        spec = QuadratureSpec()
        sigmas = np.array(SIGMA_LIST)
        together = est.g_moment(model, f, sigmas, 0.4, power, spec)
        for sigma, value in zip(SIGMA_LIST, together):
            alone = est.g_moment(model, f, sigma, 0.4, power, spec)
            assert abs(value - alone) <= 2.0 * max(spec.abs_tol, spec.rel_tol * abs(alone))

    @pytest.mark.parametrize(
        "sigmas, f",
        [
            (est.sqrt_growth_sigmas(1.0), tx.tanh_fn(0.75)),
            (est.SigmaSequence(est.EXPLICIT_LIST, values=SIGMA_LIST * 40 + (0.7,) * 20), tx.uniform_quantizer_fn(1.0, 7)),
        ],
        ids=["sqrt_growth-tanh", "explicit_list-quantizer"],
    )
    def test_mean_response_matches_scalar_moments(self, sigmas, f):
        setup = est.EstimationSetup(1.0, 300, sigmas, noise.gaussian(1.0), f, 10.0, 1.0)
        values, counts = setup.sigmas.distinct(setup.L)
        scalar = math.fsum(
            (count / setup.L) * est.g_moment(setup.noise, setup.transmit, float(sigma), 0.8, 1)
            for sigma, count in zip(values, counts)
        )
        assert est.mean_response(setup, 0.8) == pytest.approx(scalar, rel=2e-9, abs=1e-12)

    def test_constant_sigma_is_the_scalar_moment(self):
        setup = est.EstimationSetup(
            0.6, 500, est.constant_sigmas(1.0), noise.cauchy(1.0), tx.rational_fn(1.2), 10.0, 1.0
        )
        assert est.mean_response(setup, 0.6) == est.g_moment(setup.noise, setup.transmit, 1.0, 0.6, 1)


class TestInvertMonotone:
    def test_tanh_at_zero(self):
        assert invert_monotone(math.tanh, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_tanh_round_trip(self):
        assert invert_monotone(math.tanh, math.tanh(1.3)) == pytest.approx(1.3, abs=1e-9)

    def test_cubic_plus_linear(self):
        assert invert_monotone(lambda x: x**3 + x, 10.0) == pytest.approx(2.0, abs=1e-9)

    def test_bracket_expansion_far_from_hint(self):
        assert invert_monotone(lambda x: 0.01 * x, 5.0, bracket_hint=(-0.1, 0.1)) == pytest.approx(500.0, rel=1e-10)

    def test_round_trips_random_monotone_family(self):
        """100 random scaled-tanh and cubic-plus-linear functions, 1e-8."""
        rng = np.random.default_rng(1234)
        for _ in range(50):
            a, b = rng.uniform(0.2, 3.0, size=2)
            x0 = rng.uniform(-2.0, 2.0)
            h = lambda x: a * math.tanh(b * x)
            assert invert_monotone(h, h(x0)) == pytest.approx(x0, abs=1e-8)
        for _ in range(50):
            c, d = rng.uniform(0.1, 2.0, size=2)
            x0 = rng.uniform(-3.0, 3.0)
            h = lambda x: c * x**3 + d * x
            assert invert_monotone(h, h(x0)) == pytest.approx(x0, abs=1e-8)

    def test_residual_tolerance(self):
        h = lambda x: 0.7 * math.tanh(0.9 * x)
        target = 0.31
        root = invert_monotone(h, target)
        assert abs(h(root) - target) <= 1e-10 * max(1.0, abs(target))

    def test_out_of_range_carries_nearest_endpoint(self):
        with pytest.raises(InversionRangeError) as err:
            invert_monotone(math.tanh, 2.0)
        assert err.value.nearest_endpoint == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(InversionRangeError) as err:
            invert_monotone(math.tanh, -2.0)
        assert err.value.nearest_endpoint == pytest.approx(-1.0, abs=1e-9)


class TestMinimizeScalar:
    def test_parabola(self):
        argmin, value = minimize_scalar(lambda x: (x - 2.0) ** 2, 0.0, 5.0, 32)
        assert argmin == pytest.approx(2.0, abs=1e-6)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_cosine(self):
        argmin, _ = minimize_scalar(math.cos, 0.0, 2.0 * math.pi, 64)
        assert argmin == pytest.approx(math.pi, abs=1e-6)

    def test_constant_ties_break_to_lo(self):
        argmin, value = minimize_scalar(lambda x: 1.5, 0.3, 4.0, 16)
        assert argmin == 0.3
        assert value == 1.5

    def test_deterministic(self):
        g = lambda x: math.sin(3.0 * x) + 0.1 * x
        assert minimize_scalar(g, 0.0, 5.0, 32) == minimize_scalar(g, 0.0, 5.0, 32)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda x: x, 1.0, 0.0, 32)
        with pytest.raises(ValueError):
            minimize_scalar(lambda x: x, 0.0, 1.0, 4)


class TestRngStreams:
    def test_split_same_id_identical(self):
        root = RngStream(99, 0)
        a = split_stream(root, 7).uniforms(100)
        b = split_stream(root, 7).uniforms(100)
        assert np.array_equal(a, b)

    def test_split_independent_of_call_order(self):
        root = RngStream(99, 0)
        first = split_stream(root, 3)
        _ = split_stream(root, 4).uniforms(10)
        late = split_stream(RngStream(99, 55), 3)
        assert np.array_equal(first.uniforms(50), late.uniforms(50))

    def test_disjoint_ids_pass_two_sample_ks(self):
        """Streams 0 and 1 look independent: two-sample KS at 1%."""
        a = numerics.words_to_uniforms(split_stream(RngStream(2024, 0), 0).uniforms(10**5))
        b = numerics.words_to_uniforms(split_stream(RngStream(2024, 0), 1).uniforms(10**5))
        assert ks_2samp(a, b).pvalue > 0.01

    def test_uniforms_open_interval(self):
        u = numerics.words_to_uniforms(RngStream(3, 3).uniforms(10**6))
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_largest_draw_stays_below_one(self):
        """The all-ones word, random() = 1 - 2**-53, must not round up to 1.0
        (ndtri would be inf)."""

        class TopWords:
            def random_raw(self, count):
                return np.full(count, 2**64 - 1, dtype=np.uint64)

        u = numerics.words_to_uniforms(RngStream(4, 4, _bits=TopWords()).uniforms(3))
        assert np.all(u == 1.0 - 2.0**-53)
        draws = sample(noise.gaussian(1.0), RngStream(4, 4, _bits=TopWords()), 3)
        assert np.all(np.isfinite(draws))

    @pytest.mark.parametrize("key", [(0, 0), (7, 1), (2024, 5), (2**64 - 1, 2**63 + 3)])
    def test_words_make_the_uniforms_of_generator_random(self, key):
        """Over 1.2e6 draws per key in consecutive calls of odd sizes, the
        uniform of each word is ``Generator.random``'s double plus 2**-54,
        clamped below 1, bit for bit, made into a new array or a given one of
        any shape; the calls advance ``counter`` and the sequence alike."""
        sizes = [1, 7, 999, 65_537, 1_134_007]
        stream = RngStream(*key)
        generator = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
        for size in sizes:
            expected = np.minimum(generator.random(size) + 2.0**-54, np.nextafter(1.0, 0.0))
            words = stream.uniforms(size)
            assert words.dtype == np.uint64
            got = numerics.words_to_uniforms(words)
            if size % 7 == 0:
                out = np.empty((7, size // 7))
                assert numerics.words_to_uniforms(words.reshape(7, -1), out=out) is out
                assert np.array_equal(out.view(np.uint64).ravel(), got.view(np.uint64))
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert stream.counter == sum(sizes)

    def test_extreme_words(self):
        """Word 0 gives 2**-54 and word 2**64 - 1 gives 1 - 2**-53. A word
        whose low 53 - 12 bits are all ones has its uniform on the upper end
        of its top-12-bit cell k once the half step rounds up (k >= 2048)."""
        words = np.array([0, 2**64 - 1, (3000 << 52) | ((2**41 - 1) << 11), (2047 << 52) | ((2**41 - 1) << 11)], dtype=np.uint64)
        u = numerics.words_to_uniforms(words)
        assert u[0] == 2.0**-54 and u[1] == 1.0 - 2.0**-53
        assert u[2] * 4096 == 3001.0
        assert 2047.0 < u[3] * 4096 < 2048.0

    def test_least_word_at_least_splits_the_words_as_their_uniforms(self):
        """``words >= least_word_at_least(p)`` is ``words_to_uniforms(words) >= p``
        for p at the ends of the interval, around 1/2, exactly at uniforms
        that the half step rounds (top values from 2**52 on), and at random:
        checked on the threshold word, its neighbours, the extreme words and
        1e5 Philox words."""
        tops = np.array([1, 2**52 - 1, 2**52, 2**52 + 1, 3 * 2**51 + 1, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
        ps = [2.0**-60, 2.0**-54, 2.0**-53, 3 * 2.0**-54, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0 - 2.0**-53]
        ps += [*numerics.words_to_uniforms(tops << np.uint64(11)), *np.random.default_rng(3).random(20)]
        words = RngStream(8, 1).uniforms(10**5)
        for p in ps:
            w0 = numerics.least_word_at_least(float(p))
            near = np.array([w0, max(int(w0), 1) - 1, w0 + 1, 0, 2**64 - 1], dtype=np.uint64)
            for w in (words, near):
                assert np.array_equal(w >= w0, numerics.words_to_uniforms(w) >= p)

    @pytest.mark.parametrize("cols", [7, 300])
    def test_row_blocks_hold_one_block_of_words(self, monkeypatch, cols):
        """Whole-row blocks and the spans of a wide row are words with the
        values of one request, at most ``block_elements`` of them per draw,
        and each is dropped before the next is drawn."""
        monkeypatch.setattr(numerics, "DRAW_BLOCK_ELEMENTS", 128)
        rows = 40
        reference = RngStream(2, 5).uniforms(rows * cols).reshape(rows, cols)
        got = np.empty((rows, cols), dtype=np.uint64)
        previous = None
        for start, count, draw in numerics.row_blocks(RngStream(2, 5), rows, cols):
            assert previous is None or previous() is None
            for lo in range(0, cols, 100):
                hi = min(lo + 100, cols)
                span = draw(lo, hi)
                assert span.dtype == np.uint64 and span.base.size <= numerics.block_elements(rows, cols)
                got[start : start + count, lo:hi] = span
                previous = weakref.ref(span.base)
                del span
        assert np.array_equal(got, reference)

    def test_counter_tracks_draws(self):
        s = RngStream(1, 2)
        s.uniforms(10)
        s.uniforms(5)
        assert s.counter == 15

    def test_seed_range_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-9
        assert spec.abs_tol == 1e-12
        assert spec.tail_mass == 1e-12
        assert spec.max_subdivisions == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=1.5)
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)


def quadrature_vs_mc_matrix(n_draws: int = 10**7) -> list[tuple[str, str, float, float, float]]:
    """Compare expect(f(theta + sigma n)) with an n-draw MC mean per pair.

    Returns (noise kind, transmit kind, quadrature, mc, se) rows; used both
    here and by the acceptance suite.
    """
    theta, sigma = 0.8, 1.3
    transmits = [
        tx.tanh_fn(0.75),
        tx.gudermannian_fn(1.0),
        tx.rational_fn(2.0),
        tx.uniform_quantizer_fn(x_max=1.0, levels=5),
        tx.signed_power_fn(0.3),
    ]
    rows = []
    rng = np.random.default_rng(271828)
    for kind in noise.NOISE_KINDS:
        model = noise.NoiseModel(kind, 1.0)
        draws = noise.transform_uniforms(model, rng.random(n_draws) + 2.0**-54)
        for f in transmits:
            value = expect(
                model,
                lambda n, _f=f: eval_fn(_f, theta + sigma * n),
                breakpoints=tuple((p - theta) / sigma for p in tx.breakpoints(f)),
            )
            samples = eval_fn(f, theta + sigma * draws)
            se = samples.std(ddof=1) / math.sqrt(n_draws)
            rows.append((kind, f.kind, value, float(samples.mean()), float(se)))
    return rows


class TestQuadratureVsMcOracle:
    def test_matrix_within_three_standard_errors(self):
        for kind, fkind, value, mc, se in quadrature_vs_mc_matrix():
            assert abs(value - mc) < 3.0 * se, f"{kind}/{fkind}: {value} vs {mc} (se={se})"


class TestImports:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        """No module of the package imports scipy.optimize, at import time or later."""
        package = os.path.dirname(os.path.abspath(macfusion.__file__))
        src = os.path.dirname(package)
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, macfusion, macfusion.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
        for name in os.listdir(package):
            if name.endswith(".py"):
                with open(os.path.join(package, name), encoding="utf-8") as f:
                    assert "scipy.optimize" not in f.read(), name
