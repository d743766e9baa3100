import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import gamma, ks_2samp

from relbound import bootstrap
from relbound.bootstrap import (
    _boundary_hits,
    _draw_aux,
    _first_layer,
    _r_hat,
    _second_layer,
    _select_dbpt,
    bb_lcl,
    bootstrap_curve,
    bp_lcl,
    dbp_lcl_oracle,
    dbpt_lcl,
)
from relbound.distributions import (
    EXPONENTIAL,
    LOGNORMAL,
    WEIBULL,
    ComponentModel,
    Generic,
    sample_lifetimes,
)
from relbound.errors import DegenerateSampleError, EstimationError
from relbound.estimators import delta_curve, moment_estimate
from relbound.resampling import transform_scale
from relbound.rng import child_seedseq, generator
from relbound.selection import ceil_div, ceil_index, kth_smallest
from relbound.simulation import compute_lcl, default_t_grid, lcl_curve
from relbound.structures import eval_structure, num_components, parse_structure

SERIES3 = parse_structure("series(c1,c2,c3)")
SINGLE = parse_structure("series(c1)")


def make_data(models, n, seed):
    return [sample_lifetimes(m, n, generator(seed, 0, i)) for i, m in enumerate(models)]


def scales_at(comps, t):
    """Each fitted component's scale value at the times ``t``, as ``_first_layer`` takes them."""
    return [c.family.scale(np.asarray(t, dtype=float), **c.params) for c in comps]


def first_layer_at(structure, families, data, t, B, seed):
    """The fitted components and the one-point first layer at time ``t``."""
    comps = [moment_estimate(f, d) for f, d in zip(families, data)]
    vals, r_star, _ = _first_layer(structure, comps, scales_at(comps, [t]),
                                   _draw_aux(comps, B, seed, 1, False))
    return comps, [v[:, 0] for v in vals], r_star[:, 0]


class TestBp:
    def test_b10_alpha_point1_returns_minimum(self):
        models = [ComponentModel(WEIBULL, mu=0.0, sigma=1.0)] * 3
        data = make_data(models, 8, 3)
        res = bp_lcl(SERIES3, [WEIBULL] * 3, data, 1.0, alpha=0.1, B=10, rng=77)
        # ceil(10 * 0.1) = 1: the smallest bootstrap value; reproduce it
        rerun = bp_lcl(SERIES3, [WEIBULL] * 3, data, 1.0, alpha=0.5, B=10, rng=77)
        assert res.lcl <= rerun.lcl
        assert 0.0 <= res.lcl <= 1.0

    def test_deterministic_given_seed(self):
        models = [ComponentModel(LOGNORMAL, mu=0.0, sigma=1.0)] * 3
        data = make_data(models, 12, 5)
        a = bp_lcl(SERIES3, [LOGNORMAL] * 3, data, 1.5, 0.1, 200, rng=11)
        b = bp_lcl(SERIES3, [LOGNORMAL] * 3, data, 1.5, 0.1, 200, rng=11)
        assert a.lcl == b.lcl

    def test_requires_b_at_least_inverse_alpha(self):
        models = [ComponentModel(EXPONENTIAL, rate=1.0)]
        data = make_data(models, 10, 1)
        with pytest.raises(ValueError):
            bp_lcl(SINGLE, [EXPONENTIAL], data, 0.1, alpha=0.05, B=10)

    def test_coverage_single_exponential_against_analytic_oracle(self):
        # Exponential BP has a closed-form B -> infinity coverage:
        # P(M <= 1 / m_alpha) with M ~ Gamma(n, 1/n) and m_alpha its alpha quantile.
        n, r, alpha = 20, 0.9, 0.1
        m_alpha = gamma.ppf(alpha, n, scale=1 / n)
        analytic = gamma.cdf(1 / m_alpha, n, scale=1 / n)
        model = ComponentModel(EXPONENTIAL, rate=1.0)
        t = -math.log(r)
        master = np.random.SeedSequence(606)
        cover = 0
        reps = 3000
        for rep in range(reps):
            rs = child_seedseq(master, rep)
            data = [sample_lifetimes(model, n, generator(rs, 0))]
            res = bp_lcl(SINGLE, [EXPONENTIAL], data, t, alpha, 1000, child_seedseq(rs, 1))
            cover += r >= res.lcl
        # 3 MC standard errors plus slack for the finite-B order statistic
        tol = 3 * math.sqrt(analytic * (1 - analytic) / reps) + 0.005
        assert cover / reps == pytest.approx(analytic, abs=tol)


class TestBb:
    def test_arithmetic_against_first_layer(self):
        models = [ComponentModel(WEIBULL, mu=0.5, sigma=0.8)] * 3
        data = make_data(models, 15, 9)
        res = bb_lcl(SERIES3, [WEIBULL] * 3, data, 1.0, 0.1, 500, rng=13)
        assert res.raw_value == pytest.approx(2 * res.r_hat - _upper_stat(data, res), rel=1e-10)

    def test_flags_raw_outside(self):
        # low-reliability series at n = 5: the upper bootstrap order statistic
        # exceeds 2*r_hat, pushing the raw limit below zero
        import math

        model = ComponentModel(EXPONENTIAL, rate=1.0)
        t = -math.log(0.3)
        master = np.random.SeedSequence(11)
        flagged = None
        for rep in range(50):
            rs = child_seedseq(master, rep)
            data = [sample_lifetimes(model, 5, generator(rs, 0, i)) for i in range(3)]
            res = bb_lcl(SERIES3, [EXPONENTIAL] * 3, data, t, 0.1, 200, child_seedseq(rs, 1))
            if res.fell_outside:
                flagged = res
                break
        assert flagged is not None
        assert flagged.raw_value < 0.0
        assert flagged.clamped == 0.0
        assert flagged.lcl == flagged.raw_value  # bb reports the raw real

    def test_small_sample_raw_leaves_unit_interval_often(self):
        import math

        model = ComponentModel(EXPONENTIAL, rate=1.0)
        t = -math.log(0.3)
        master = np.random.SeedSequence(404)
        outside = 0
        for rep in range(200):
            rs = child_seedseq(master, rep)
            data = [sample_lifetimes(model, 5, generator(rs, 0, i)) for i in range(3)]
            res = bb_lcl(SERIES3, [EXPONENTIAL] * 3, data, t, 0.1, 200, child_seedseq(rs, 1))
            outside += res.fell_outside
        assert outside > 20


def _upper_stat(data, res):
    # recompute the ceil(B(1-alpha)) first-layer order statistic with the same seed
    _, _, r_star = first_layer_at(SERIES3, [WEIBULL] * 3, data, res.t, res.B, 13)
    return kth_smallest(r_star, ceil_index(res.B * (1 - res.alpha)))


class TestDbptSelection:
    def test_all_u_zero_clamps_to_minimum(self):
        r_star = np.array([0.3, 0.1, 0.5, 0.2, 0.4])
        u = np.zeros(5, dtype=int)
        lcl, [(u_k, k, k_prime)] = _select_dbpt(r_star[:, None], u[:, None], B=5, C=1, alpha=0.2)
        assert k == 1 and u_k == 0 and k_prime == 1
        assert lcl[0] == 0.1

    def test_all_u_full_clamps_to_maximum(self):
        r_star = np.array([0.3, 0.1, 0.5, 0.2, 0.4])
        u = np.full(5, 4, dtype=int)
        lcl, [(_, _, k_prime)] = _select_dbpt(r_star[:, None], u[:, None], B=5, C=4, alpha=0.2)
        assert k_prime == 5 and lcl[0] == 0.5

    def test_exact_integer_rank_arithmetic(self):
        # B*u/C must not pick up float error: 1000 * 73 / 500 = 146 exactly
        r_star = np.linspace(0.0, 1.0, 1000)
        u = np.full(1000, 73, dtype=int)
        _, [(_, _, k_prime)] = _select_dbpt(r_star[:, None], u[:, None], B=1000, C=500, alpha=0.1)
        assert k_prime == 146

    def test_u_counts_non_increasing_as_r_hat_decreases(self):
        rng = np.random.default_rng(6)
        r_2star = rng.uniform(0.0, 1.0, size=(40, 60))
        lo = (r_2star <= 0.4).sum(axis=1)
        hi = (r_2star <= 0.6).sum(axis=1)
        assert np.all(lo <= hi)


class TestDbpt:
    def test_within_unit_interval_and_deterministic(self):
        models = [ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 3
        data = make_data(models, 10, 21)
        a = dbpt_lcl(SERIES3, [WEIBULL] * 3, data, 2.0, 0.1, 200, 100, rng=8)
        b = dbpt_lcl(SERIES3, [WEIBULL] * 3, data, 2.0, 0.1, 200, 100, rng=8)
        assert a.lcl == b.lcl
        assert 0.0 <= a.lcl <= 1.0
        assert not a.fell_outside

    def test_validates_parameters(self):
        models = [ComponentModel(EXPONENTIAL, rate=1.0)]
        data = make_data(models, 10, 1)
        with pytest.raises(ValueError):
            dbpt_lcl(SINGLE, [EXPONENTIAL], data, 1.0, 0.1, 100, 0)
        with pytest.raises(ValueError):
            dbpt_lcl(SINGLE, [EXPONENTIAL], data, 1.0, 1.5, 100, 50)

    def test_mixed_families(self):
        node = parse_structure("parallel(c1,series(c2,c3))")
        families = [EXPONENTIAL, WEIBULL, LOGNORMAL]
        models = [ComponentModel(EXPONENTIAL, rate=0.5),
                  ComponentModel(WEIBULL, mu=0.5, sigma=0.6),
                  ComponentModel(LOGNORMAL, mu=0.3, sigma=0.9)]
        data = make_data(models, 12, 33)
        res = dbpt_lcl(node, families, data, 1.0, 0.1, 300, 150, rng=4)
        assert 0.0 <= res.lcl <= 1.0

    def test_u_counts_are_integers_in_range(self):
        # the recalibration rank is reproducible from the result pieces
        models = [ComponentModel(LOGNORMAL, mu=0.0, sigma=1.0)]
        data = make_data(models, 6, 2)
        res = dbpt_lcl(SINGLE, [LOGNORMAL], data, 1.0, 0.2, 50, 25, rng=5)
        assert res.B == 50 and res.C == 25
        assert res.ties >= 0

    def test_coverage_parallel_weibull_high_reliability(self):
        # parallel 3-Weibull solved to R = 0.9988, n = 10
        from relbound.simulation import solve_identical_components

        node = parse_structure("parallel(c1,c2,c3)")
        models, _ = solve_identical_components(node, WEIBULL, 0.9988, 1.0)
        from relbound.structures import eval_reliability
        from relbound.distributions import component_reliability

        r_true = eval_reliability(node, [component_reliability(m, 1.0) for m in models])
        master = np.random.SeedSequence(909)
        cover = 0
        reps = 1500
        for rep in range(reps):
            rs = child_seedseq(master, rep)
            data = [sample_lifetimes(models[i], 10, generator(rs, 0, i)) for i in range(3)]
            res = dbpt_lcl(node, [WEIBULL] * 3, data, 1.0, 0.1, 1000, 500, child_seedseq(rs, 1))
            cover += r_true >= res.lcl
        assert cover / reps == pytest.approx(0.90, abs=0.025)


class TestDbpOracle:
    def test_c_zero_forbidden(self):
        models = [ComponentModel(EXPONENTIAL, rate=1.0)]
        data = make_data(models, 10, 1)
        with pytest.raises(ValueError):
            dbp_lcl_oracle(SINGLE, [EXPONENTIAL], data, 1.0, 0.1, 50, 0)

    def test_resampled_datasets_the_fit_refuses_raise_typed_errors(self):
        # a log spread of ~900 draws times that overflow to inf or underflow
        # to 0; a spread of 4e-16 draws datasets of one repeated value
        spread = [np.array([1e-200, 1e200, 1.0, 3.0])]
        with np.errstate(over="ignore"), pytest.raises(EstimationError, match="refused"):
            dbp_lcl_oracle(SINGLE, [WEIBULL], spread, 1.0, 0.1, 20, 10, rng=1)
        tied = [np.array([1.0, 1.0 + 4e-16, 1.0])]
        with pytest.raises(DegenerateSampleError):
            dbp_lcl_oracle(SINGLE, [WEIBULL], tied, 1.0, 0.1, 20, 10, rng=1)

    @pytest.mark.parametrize("method", ["bp", "bb", "dbpt", "dbp"])
    @pytest.mark.parametrize("times, t", [([1e308] * 3, 1e307), ([5e-324] * 3, 1e-323)])
    def test_an_exponential_rate_past_the_float_range_is_refused(self, method, times, t):
        # the total time on test overflows (rate 0, so R-hat was 1 and the LCL
        # 1.0) or underflows the rate to inf (R-hat 0 where the data imply 0.14)
        with np.errstate(over="ignore"), pytest.raises(EstimationError, match="moment fit refused"):
            compute_lcl(method, SINGLE, [EXPONENTIAL], [np.array(times)], t, 0.1, 20, 10, 1)

    def test_a_fitted_rate_of_zero_raises_a_typed_error(self):
        # the time on test overflows, so the first-layer fit has rate 0
        data = [np.array([1e308, 1e308, 1e308])]
        with np.errstate(over="ignore"), pytest.raises(EstimationError, match="refused"):
            dbp_lcl_oracle(SINGLE, [EXPONENTIAL], data, 1.0, 0.1, 20, 10, rng=1)

    @pytest.mark.parametrize("n_tilde", [[3, 3], [3, 0, 3]], ids=["wrong-length", "count-0"])
    def test_recensor_counts_are_checked(self, n_tilde):
        # one count in 1..n per component, or the oracle refuses before drawing
        data = make_data([ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 3, 5, 1)
        with pytest.raises(ValueError, match="recensor_n_tilde"):
            dbp_lcl_oracle(SERIES3, [WEIBULL] * 3, data, 1.0, 0.1, 20, 10, rng=1,
                           recensor_n_tilde=n_tilde)

    def test_b1_selection_collapses_to_the_single_value(self):
        # at B = 1 the shared selection rule can only return the lone
        # first-layer value, whatever the second layer said (the public
        # entry points reject B = 1 because B >= ceil(1/alpha) >= 2)
        for count in (0, 7, 20):
            lcl, [(_, k, k_prime)] = _select_dbpt(np.array([[0.42]]), np.array([[count]]),
                                                  B=1, C=20, alpha=0.5)
            assert k == 1 and k_prime == 1 and lcl[0] == 0.42
        with pytest.raises(ValueError):
            dbpt_lcl(SINGLE, [EXPONENTIAL], make_data(
                [ComponentModel(EXPONENTIAL, rate=1.0)], 10, 42), 1.0, 0.9, 1, 20, rng=3)

    def test_agreement_with_dbpt_paired(self):
        node = parse_structure("series(c1,c2)")
        model = ComponentModel(EXPONENTIAL, rate=1.0)
        t = -math.log(0.95)
        master = np.random.SeedSequence(17)
        diffs = []
        for rep in range(200):
            rs = child_seedseq(master, rep)
            data = [sample_lifetimes(model, 10, generator(rs, 0, i)) for i in range(2)]
            a = dbpt_lcl(node, [EXPONENTIAL] * 2, data, t, 0.1, 200, 100, child_seedseq(rs, 1))
            b = dbp_lcl_oracle(node, [EXPONENTIAL] * 2, data, t, 0.1, 200, 100, child_seedseq(rs, 2))
            diffs.append(abs(a.lcl - b.lcl))
        assert float(np.mean(diffs)) < 0.01

    def test_distribution_matches_dbpt(self):
        node = parse_structure("series(c1,c2)")
        model = ComponentModel(EXPONENTIAL, rate=2.0)
        t = -math.log(0.9) / 2.0
        master = np.random.SeedSequence(23)
        a_vals, b_vals = [], []
        for rep in range(400):
            rs = child_seedseq(master, rep)
            data_a = [sample_lifetimes(model, 10, generator(rs, 0, i)) for i in range(2)]
            data_b = [sample_lifetimes(model, 10, generator(rs, 1, i)) for i in range(2)]
            a_vals.append(dbpt_lcl(node, [EXPONENTIAL] * 2, data_a, t, 0.1, 200, 100,
                                   child_seedseq(rs, 2)).lcl)
            b_vals.append(dbp_lcl_oracle(node, [EXPONENTIAL] * 2, data_b, t, 0.1, 200, 100,
                                         child_seedseq(rs, 3)).lcl)
        assert ks_2samp(a_vals, b_vals).pvalue > 1e-3


# --- the blocked second layer against the unblocked map --------------------------


def _normal_inplace_sf(x):
    # a legal caller-supplied sf that overwrites and returns its argument
    np.negative(x, out=x)
    return ndtr(x, out=x)


GENERIC_NORMAL = Generic(cdf=ndtr, quantile=ndtri,
                         sample=lambda shape, rng: rng.standard_normal(shape),
                         kappa1=0.0, kappa2=1.0, name="normal-as-generic")
GENERIC_INPLACE = Generic(cdf=ndtr, quantile=ndtri, sf=_normal_inplace_sf,
                          sample=lambda shape, rng: rng.standard_normal(shape),
                          kappa1=0.0, kappa2=1.0, name="normal-inplace-sf")
KERNEL_FAMILIES = {
    "weibull": WEIBULL,
    "lognormal": LOGNORMAL,
    "exponential": EXPONENTIAL,
    "generic": GENERIC_NORMAL,
    "generic-inplace-sf": GENERIC_INPLACE,
}
KERNEL_STRUCTURES = [
    "series(c1,c2,c3)",
    "parallel(c1,c2,c3)",
    "koutofn(2;c1,c2,c3)",
    "parallel(c1,series(c2,koutofn(2;c3,c4,c5)))",
]
# (B, C): B not a multiple of the block rows, B below one block, C = 1, and
# C above 2**15 so that every block is a single row
KERNEL_SHAPES = [(300, 200), (20, 500), (50, 1), (5, 2 ** 15 + 3)]
# n = 5 at t = 0.7 pushes some second-layer values to exactly 0 or 1
KERNEL_TIMES = (0.7, 0.4, 1.3)


def _unblocked_second_layer(structure, comps, vals1, aux2, r_hat):
    """The whole B x C second layer at once: the reference for the blocked kernel."""
    hits, r2_list = 0, []
    for i, comp in enumerate(comps):
        z2, m2 = aux2[i]
        if comp.family is EXPONENTIAL:
            r2 = np.exp(vals1[i][:, None] / m2[None, :])
        else:
            scale = comp.family.kappa2 / m2
            r2 = comp.family.sf((vals1[i][:, None] - z2[None, :]) * scale[None, :]
                                + comp.family.kappa1)
        hits += _boundary_hits(r2)
        r2_list.append(r2)
    r_2star = np.asarray(eval_structure(structure, r2_list))
    return r_2star, (r_2star <= r_hat).sum(axis=1), hits, int((r_2star == r_hat).sum())


def _layers(structure, family, B, C, seed, G=1):
    """(B, G) first layers at the first G kernel times, the C second-layer pairs, and R-hat."""
    s = num_components(structure)
    if family is EXPONENTIAL:
        models = [ComponentModel(family, rate=1.0)] * s
    else:
        models = [ComponentModel(family, mu=0.3, sigma=0.8)] * s
    comps = [moment_estimate(family, d) for d in make_data(models, 5, seed)]
    t = np.array(KERNEL_TIMES[:G])
    vals1, _, _ = _first_layer(structure, comps, scales_at(comps, t),
                               _draw_aux(comps, B, seed, 1, False))
    return comps, vals1, _draw_aux(comps, C, seed, 2, False), _r_hat(structure, comps, t)


class TestSecondLayerKernel:
    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda bc: f"B{bc[0]}-C{bc[1]}")
    @pytest.mark.parametrize("text", KERNEL_STRUCTURES)
    @pytest.mark.parametrize("family_name", sorted(KERNEL_FAMILIES))
    def test_matches_unblocked_map(self, family_name, text, shape):
        B, C = shape
        node = parse_structure(text)
        for G in (1, 3):
            comps, vals1, aux2, r_hat = _layers(node, KERNEL_FAMILIES[family_name], B, C, 31, G)
            columns = [[v[:, g] for v in vals1] for g in range(G)]
            # a threshold taken from the second layer itself forces at least one tie
            tied = np.array([_unblocked_second_layer(node, comps, col, aux2, r)[0][B // 2, C // 2]
                             for col, r in zip(columns, r_hat)])
            for threshold in (r_hat, tied):
                u_counts, hits, ties = _second_layer(node, comps, vals1, aux2, threshold)
                assert u_counts.dtype == np.int64
                for g, col in enumerate(columns):
                    _, *expected = _unblocked_second_layer(node, comps, col, aux2, threshold[g])
                    assert np.array_equal(u_counts[:, g], expected[0])
                if G == 1:
                    assert (hits[0], ties[0]) == tuple(expected[1:])
            if G == 1:
                assert ties[0] >= 1

    @pytest.mark.parametrize("family_name", sorted(KERNEL_FAMILIES))
    def test_in_place_reliability_keeps_its_inputs(self, family_name):
        # reliability(out=) fills the kernel's own buffers: the first layer and
        # the auxiliary pairs it reads stay as they were
        family = KERNEL_FAMILIES[family_name]
        node = parse_structure(KERNEL_STRUCTURES[-1])
        comps, vals1, aux2, r_hat = _layers(node, family, 300, 200, 7, 3)
        kept = [v.copy() for v in vals1], [(z.copy(), m.copy()) for z, m in aux2]
        _second_layer(node, comps, vals1, aux2, r_hat)
        assert all(np.array_equal(a, b) for a, b in zip(vals1, kept[0]))
        assert all(np.array_equal(a, c) and np.array_equal(b, d)
                   for (a, b), (c, d) in zip(aux2, kept[1]))
        # into another array, the argument is kept and the result is the allocating one's
        v = vals1[0]
        out = np.empty_like(v)
        assert family.reliability(v, out=out) is out
        assert np.array_equal(v, kept[0][0])
        assert np.array_equal(out, family.reliability(v))

    def test_in_place_sf_leaves_the_first_layer_intact(self):
        # the same family with an sf that writes its result into its argument
        out_of_place = Generic(cdf=ndtr, quantile=ndtri, sf=lambda x: ndtr(-x),
                               sample=lambda shape, rng: rng.standard_normal(shape),
                               kappa1=0.0, kappa2=1.0, name="normal-sf")
        data = make_data([ComponentModel(out_of_place, mu=0.4, sigma=0.8)] * 3, 8, 6)
        a = dbpt_lcl(SERIES3, [out_of_place] * 3, data, 1.0, 0.1, 300, 100, rng=2)
        b = dbpt_lcl(SERIES3, [GENERIC_INPLACE] * 3, data, 1.0, 0.1, 300, 100, rng=2)
        assert a.to_dict() | {"per_component_estimates": None} == (
            b.to_dict() | {"per_component_estimates": None})

    def test_sf_returning_a_read_only_view_gives_the_same_lcls(self):
        # the structure function runs in place, so every array it is given must
        # be the library's own, whatever the callable returns
        def family(name, sf):
            return Generic(cdf=ndtr, quantile=ndtri, sf=sf, name=name, kappa1=0.0, kappa2=1.0,
                           sample=lambda shape, rng: rng.standard_normal(shape))

        plain = family("normal-sf", lambda x: ndtr(-x))
        read_only = family("read-only-sf", lambda x: np.broadcast_to(ndtr(-x), x.shape))
        data = make_data([ComponentModel(plain, mu=0.4, sigma=0.8)] * 3, 8, 6)
        for method in ("bp", "bb", "dbpt", "dbp"):
            a = compute_lcl(method, SERIES3, [plain] * 3, data, 1.0, 0.1, 100, 30, 2)
            b = compute_lcl(method, SERIES3, [read_only] * 3, data, 1.0, 0.1, 100, 30, 2)
            assert a.to_dict() | {"per_component_estimates": None} == (
                b.to_dict() | {"per_component_estimates": None})

    def test_diagnostics_off_keeps_counts(self):
        # over several times only the counts are kept, each column equal to its one-point call
        node = parse_structure(KERNEL_STRUCTURES[-1])
        comps, vals1, aux2, r_hat = _layers(node, WEIBULL, 300, 200, 5, 3)
        u_counts, hits, ties = _second_layer(node, comps, vals1, aux2, r_hat)
        one_point_hits = 0
        for g in range(3):
            one = _second_layer(node, comps, [v[:, g:g + 1] for v in vals1], aux2, r_hat[g:g + 1])
            assert np.array_equal(u_counts[:, g], one[0][:, 0])
            one_point_hits += one[1][0]
        assert one_point_hits > 0
        assert not hits.any() and not ties.any()

    def test_memory_stays_bounded(self):
        # the unblocked layer held s full B x C arrays: about 290 MB here
        node = parse_structure("series(c1,...,c16)")
        models = [ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 16
        data = make_data(models, 10, 3)
        for run in (lambda: dbpt_lcl(node, [WEIBULL] * 16, data, 0.5, 0.1, B=1000, C=2000, rng=1),
                    lambda: bootstrap_curve("dbpt", node, [WEIBULL] * 16, data,
                                            np.geomspace(0.3, 0.8, 5), 0.1, B=1000, C=2000,
                                            rng=1)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2 ** 20


# --- the hazard path for curves over series -----------------------------------


def _curve_layers(text, families, models, n, B, C, seed, grid):
    """The (B, G) first layer of a curve on ``grid``, its C second-layer pairs and R-hat."""
    node = parse_structure(text)
    comps = [moment_estimate(f, d) for f, d in zip(families, make_data(models, n, seed))]
    vals1, _, _ = _first_layer(node, comps, scales_at(comps, grid),
                               _draw_aux(comps, B, seed, 1, False))
    return node, comps, vals1, _draw_aux(comps, C, seed, 2, False), _r_hat(node, comps, grid)


def _assert_live_counts(node, comps, vals1, aux2, threshold):
    """``_second_layer`` gives, at every time, the unblocked map's counts bit for bit."""
    u_counts, hits, ties = _second_layer(node, comps, vals1, aux2, threshold)
    for g in range(threshold.size):
        _, expected, _, _ = _unblocked_second_layer(node, comps, [v[:, g] for v in vals1], aux2,
                                                    threshold[g])
        assert np.array_equal(u_counts[:, g], expected), g
    assert not hits.any() and not ties.any()


@pytest.fixture
def live_calls(monkeypatch):
    """The (rows, times) shape of every first layer the live kernel is handed."""
    calls, live = [], bootstrap._live_second_layer

    def spy(structure, comps, vals1, aux2, r_hat):
        calls.append(vals1[0].shape)
        return live(structure, comps, vals1, aux2, r_hat)

    monkeypatch.setattr(bootstrap, "_live_second_layer", spy)
    return calls


@pytest.fixture
def product_rows(monkeypatch):
    """The row of every element the running product is handed, one array per call."""
    calls, run = [], bootstrap._running_product

    def spy(log_h, log_ratios, rows, counts, *rest):
        calls.append(np.repeat(rows, counts))
        return run(log_h, log_ratios, rows, counts, *rest)

    monkeypatch.setattr(bootstrap, "_running_product", spy)
    return calls


def _elements(product_rows) -> int:
    return sum(rows.size for rows in product_rows)


SERIES2 = parse_structure("series(c1,c2)")


def _weibull_layers(*first_layers, C=50):
    """One Weibull component per (B, G) first layer, and C second-layer pairs shared by all."""
    comps = [moment_estimate(WEIBULL, [1.0, 2.0, 3.0])] * len(first_layers)
    aux2 = [(np.linspace(-0.5, 0.5, C), np.linspace(0.8, 1.2, C))] * len(first_layers)
    return comps, list(first_layers), aux2


# series(3) Weibull at n = 5, mu = 2.5, sigma = 0.6, B = 1000, C = 500, on
# default_t_grid(centre, 50, 1.0): (centre, seed) cells with values inside the
# guard band, a second-layer value of -820 on the scale, and R-hat = 0 at the
# top of the grid
PROTOTYPE = dict(text="series(c1,c2,c3)", families=[WEIBULL] * 3,
                 models=[ComponentModel(WEIBULL, mu=2.5, sigma=0.6)] * 3, n=5, B=1000, C=500)
PROTOTYPE_CELLS = [(1.0, 2), (10.0, 3), (30.0, 3)]


class TestHazardPath:
    @pytest.mark.parametrize("centre, seed", PROTOTYPE_CELLS)
    def test_prototype_cells_match_the_unblocked_map(self, centre, seed, live_calls,
                                                     product_rows):
        layers = _curve_layers(**PROTOTYPE, seed=seed, grid=default_t_grid(centre, 50, 1.0))
        _assert_live_counts(*layers)
        B, C, r_hat = PROTOTYPE["B"], PROTOTYPE["C"], layers[-1]
        if centre == 1.0:  # the rows with a value in the band, at every time
            assert live_calls and all(0 < rows < B and times == 50 for rows, times in live_calls)
        if centre == 30.0:  # every row at the times where R-hat is 0, and more
            assert any(rows == B and times >= np.count_nonzero(r_hat == 0.0) > 0
                       for rows, times in live_calls)
            # the certificate spans the fast times only, so the infinite H-hat
            # at the top of the grid does not stop it deciding elements
            assert 0 < _elements(product_rows) < 0.8 * B * C

    @pytest.mark.parametrize("direction", ["rising", "falling"])
    def test_start_hazards_past_the_normal_floats_send_their_rows_live(self, direction,
                                                                       live_calls):
        # one Weibull component whose log hazards cross the whole float range
        # along the grid: rising rows start the product at an infinite hazard,
        # falling rows at 0, and both hazards are wrong at the other end
        G, C = 10, 50
        ends, shifts = ((-20.0, 560.0), [0.0, -200.0, 20.0, -100.0]) if direction == "rising" \
            else ((0.0, -620.0), [0.0, 200.0, -20.0, 100.0])
        vals1 = [np.linspace(*ends, G)[None, :] + np.array(shifts)[:, None]]
        aux2 = [(np.linspace(-1.0, 1.0, C), np.linspace(0.9, 1.1, C))]
        r_hat = np.exp(-np.geomspace(0.01, 100.0, G))
        _assert_live_counts(SINGLE, [moment_estimate(WEIBULL, [1.0, 2.0, 3.0])], vals1, aux2,
                            r_hat)
        assert live_calls and all(0 < rows < 4 for rows, _ in live_calls)

    def test_threshold_on_a_live_element_sends_its_row_live(self, live_calls):
        # a threshold equal to one second-layer system value, at every time:
        # the value lies inside the band, so its row goes through the live kernel
        grid = np.geomspace(0.8, 2.5, 12)
        node, comps, vals1, aux2, r_hat = _curve_layers(
            "series(c1,c2,c3)", [WEIBULL] * 3, [ComponentModel(WEIBULL, mu=0.5, sigma=0.7)] * 3,
            8, 300, 200, 4, grid)
        rows = np.arange(12) * 20 + 7
        tied = np.array([_unblocked_second_layer(node, comps, [v[:, g] for v in vals1], aux2,
                                                 r_hat[g])[0][j, 3 * g]
                         for g, j in enumerate(rows)])
        _assert_live_counts(node, comps, vals1, aux2, tied)
        assert live_calls and live_calls[-1][0] >= 12

    @pytest.mark.parametrize("s", [1, 3, 16])
    def test_mixed_weibull_exponential_series(self, s, live_calls):
        text = "series(c1)" if s == 1 else f"series(c1,...,c{s})"
        families = [WEIBULL if i % 2 == 0 else EXPONENTIAL for i in range(s)]
        models = [ComponentModel(WEIBULL, mu=1.2, sigma=0.6) if f is WEIBULL
                  else ComponentModel(EXPONENTIAL, rate=0.05) for f in families]
        layers = _curve_layers(text, families, models, 6, 200, 300, 11,
                               np.geomspace(0.5, 2.0, 10))
        _assert_live_counts(*layers)
        # the hazard path decided the curve: the live kernel saw a few rows, if any
        assert all(rows < 200 for rows, _ in live_calls)

    def test_all_exponential_series_takes_the_hazard_path(self, live_calls, product_rows):
        layers = _curve_layers("series(c1,c2,c3)", [EXPONENTIAL] * 3,
                               [ComponentModel(EXPONENTIAL, rate=0.2)] * 3, 5, 300, 200, 6,
                               default_t_grid(1.0, 20))
        _assert_live_counts(*layers)
        assert all(rows < 300 for rows, _ in live_calls)
        # t cancels in R2 <= R-hat: each log sum runs parallel to the band, so
        # the certificate decides every element and the product runs on none
        assert _elements(product_rows) == 0

    def test_a_convex_log_sum_is_not_certified_by_its_ends(self, live_calls, product_rows):
        # two components, one falling and one rising along the grid: every sum
        # is far above H-hat = 1 at both ends and far below it in the middle,
        # which only the tangent at an end, not the two end values, can tell
        G = 21
        shifts = np.array([0.0, 0.5, -0.5, 1.0])[:, None]
        comps, vals1, aux2 = _weibull_layers(np.linspace(3.0, -12.0, G) + shifts,
                                             np.linspace(-12.0, 3.0, G) + shifts)
        threshold = np.full(G, math.exp(-1.0))
        _assert_live_counts(SERIES2, comps, vals1, aux2, threshold)
        assert _elements(product_rows) == 4 * 50 and not live_calls
        u_counts, _, _ = _second_layer(SERIES2, comps, vals1, aux2, threshold)
        assert (u_counts[:, [0, -1]] == 50).all() and (u_counts[:, G // 2] == 0).all()

    @pytest.mark.parametrize("bend", [1.0, -1.0], ids=["bump", "dip"])
    def test_a_band_bent_between_the_ends_is_not_certified_by_its_chord(self, bend,
                                                                         product_rows):
        # constant log hazards against an H-hat that bends between equal ends:
        # a sum between its end and middle values changes side in the middle,
        # so the band's bend away from its chord must keep it uncertified
        G = 21
        comps, vals1, aux2 = _weibull_layers(np.repeat([[-0.2], [0.0], [0.2], [0.4]], G, axis=1))
        h_hat = 1.0 + bend * 0.5 * np.sin(np.pi * np.arange(G) / (G - 1))
        _assert_live_counts(SINGLE, comps, vals1, aux2, np.exp(-h_hat))
        u_counts, _, _ = _second_layer(SINGLE, comps, vals1, aux2, np.exp(-h_hat))
        assert (u_counts[:, G // 2] != u_counts[:, 0]).any()
        assert _elements(product_rows) > 0

    def test_an_element_within_the_margin_runs_the_product(self, product_rows):
        # a sum 1e-7 above H-hat (relative) lies outside the band but inside
        # the certificate's margin, so only its element goes to the product
        G, j, k = 11, 2, 17
        comps, vals1, aux2 = _weibull_layers(np.repeat([[-0.2], [0.0], [0.2], [0.4]], G, axis=1))
        z2, m2 = aux2[0]
        h = math.exp(float(transform_scale(WEIBULL, vals1[0][j, 0], z2[k], m2[k])))
        threshold = np.full(G, math.exp(-h * (1.0 - 1e-7)))
        _assert_live_counts(SINGLE, comps, vals1, aux2, threshold)
        assert [rows.tolist() for rows in product_rows] == [[j]]

    # series(3): a curve on the running product alone peaked at 3.84 MB here:
    # its 2s + 1 block buffers, the first layer and the counts.  The
    # certificate's two more block buffers and the pending elements may add
    # up to 2 MB.  series(16): the first layer (6.4 MB), 2s + 3 block buffers
    # of half a live block, 2s + 1 pending buffers of one such block and the
    # spy's copy of the product's rows peak at 18.6 MB here; blocks of the
    # live kernel's size would peak at 22.9 MB.
    @pytest.mark.parametrize("s, bound_mb", [(3, 3.84 + 2.0), (16, 20.5)], ids=["s3", "s16"])
    def test_memory_of_a_curve_stays_bounded(self, s, bound_mb, product_rows):
        node = parse_structure(f"series(c1,...,c{s})")
        data = make_data(PROTOTYPE["models"][:1] * s, 5, 2)
        peak = traced_peak(lambda: bootstrap_curve("dbpt", node, [WEIBULL] * s, data,
                                                   default_t_grid(1.0, 50, 1.0), 0.1, B=1000,
                                                   C=500, rng=1))
        assert product_rows and peak < bound_mb * 2 ** 20

    def test_a_curve_with_no_fast_time_runs_no_product(self, live_calls, product_rows):
        # R-hat is 0 at every grid point, so the band guards no time: the
        # hazard path's model holds, but every row goes live at every time
        # and the product never runs.  Small B and C: the live kernel is slow
        # on the subnormal values these second layers hold.
        B, C, G = 40, 30, 8
        layers = _curve_layers("series(c1,c2,c3)", [WEIBULL] * 3,
                               [ComponentModel(WEIBULL, mu=0.0, sigma=0.5)] * 3, 10, B, C, 5,
                               np.geomspace(math.exp(4.0), math.exp(5.0), G))
        assert (layers[-1] == 0.0).all()
        assert bootstrap._hazard_model(*layers[:4]) is not None
        _assert_live_counts(*layers)
        assert live_calls == [(B, G)] and not product_rows

    @pytest.mark.parametrize("grid", [np.linspace(0.5, 2.0, 10), np.geomspace(2.0, 0.5, 10)],
                             ids=["linear", "decreasing"])
    def test_other_grids(self, grid, live_calls):
        # a linear grid is not log-uniform, so the curve takes the live kernel;
        # a decreasing log-uniform one takes the hazard path
        layers = _curve_layers("series(c1,c2,c3)", [WEIBULL] * 3,
                               [ComponentModel(WEIBULL, mu=0.5, sigma=0.7)] * 3, 5, 300, 200, 3,
                               grid)
        _assert_live_counts(*layers)
        if grid[0] < grid[-1]:
            assert live_calls == [(300, 10)]
        else:
            assert all(rows < 300 for rows, _ in live_calls)

    @pytest.mark.parametrize("text, family", [("series(c1,c2,c3)", LOGNORMAL),
                                              ("koutofn(2;c1,c2,c3)", WEIBULL),
                                              ("parallel(c1,c2,c3)", EXPONENTIAL)])
    def test_other_curves_take_the_live_kernel(self, text, family, live_calls):
        params = {"rate": 0.5} if family is EXPONENTIAL else {"mu": 0.5, "sigma": 0.7}
        layers = _curve_layers(text, [family] * 3, [ComponentModel(family, **params)] * 3,
                               5, 100, 50, 2, np.geomspace(0.5, 2.0, 5))
        _second_layer(*layers)
        assert live_calls == [(100, 5)]


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryOfTheOtherMethods:
    GRID = np.geomspace(1.5, 3.0, 5)

    @pytest.mark.parametrize("method", ["bp", "bb"])
    def test_first_layer_is_linear_in_b(self, method):
        # per first-layer row: each component's (zbar, m), scale value and
        # reliability at each time, plus the n draws one pair is reduced from;
        # about 21 MB at one time and 35 MB at five here.  Drawing the s
        # components' n draws at once would add 24 MB.
        data = make_data([ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 3, 10, 3)
        scalar = {"bp": bp_lcl, "bb": bb_lcl}[method]
        assert traced_peak(lambda: scalar(SERIES3, [WEIBULL] * 3, data, 2.0, 0.1,
                                          B=100_000, rng=1)) < 32 * 2 ** 20
        assert traced_peak(lambda: bootstrap_curve(method, SERIES3, [WEIBULL] * 3, data,
                                                   self.GRID, 0.1, B=100_000,
                                                   rng=1)) < 48 * 2 ** 20

    def test_nested_oracle_holds_one_row_at_a_time(self):
        # each first-layer row's C resamples are fitted and counted before the
        # next row is drawn: about 5 MB here, where one B x C array of doubles
        # alone takes 9.6 MB
        data = make_data([ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 3, 5, 3)
        for run in (lambda: dbp_lcl_oracle(SERIES3, [WEIBULL] * 3, data, 2.0, 0.1, B=60,
                                           C=20_000, rng=1),
                    lambda: bootstrap_curve("dbp", SERIES3, [WEIBULL] * 3, data, self.GRID,
                                            0.1, B=60, C=20_000, rng=1)):
            assert traced_peak(run) < 8 * 2 ** 20


CURVE_STRUCTURES = ["series(c1,c2,c3)", "parallel(c1,series(c2,c3))", "koutofn(2;c1,c2,c3)"]


class TestBootstrapCurve:
    @pytest.mark.parametrize("family", [WEIBULL, LOGNORMAL, EXPONENTIAL], ids=lambda f: f.name)
    @pytest.mark.parametrize("method", ["bp", "bb", "dbpt", "dbp"])
    def test_curve_equals_scalar_lcl_at_every_grid_point(self, method, family):
        # the scalar LCL is the one-point curve: same draws, same arithmetic, same bits
        B, C = (40, 15) if method == "dbp" else (400, 150)
        if family is EXPONENTIAL:
            models = [ComponentModel(family, rate=0.8)] * 3
        else:
            models = [ComponentModel(family, mu=0.4, sigma=0.7)] * 3
        grid = default_t_grid(1.0, 9)
        for text in CURVE_STRUCTURES:
            node = parse_structure(text)
            for data_seed in (12, 13):
                data = make_data(models, 8, data_seed)
                curve = lcl_curve(method, node, [family] * 3, data, grid, 0.1, B, C, 77)
                scalar = [compute_lcl(method, node, [family] * 3, data, float(t), 0.1, B, C,
                                      77).raw_value for t in grid]
                assert curve.tobytes() == np.array(scalar).tobytes()
                direct = bootstrap_curve(method, node, [family] * 3, data, grid, 0.1, B, C, 77)
                assert direct.tobytes() == curve.tobytes()

    def test_single_point_grid_is_accepted(self):
        models = [ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 3
        data = make_data(models, 10, 2)
        curve = bootstrap_curve("dbpt", SERIES3, [WEIBULL] * 3, data, [1.5], 0.1, 200, 50, 4)
        assert curve.tolist() == [dbpt_lcl(SERIES3, [WEIBULL] * 3, data, 1.5, 0.1, 200, 50,
                                           rng=4).raw_value]

    def test_rejects_unknown_methods_and_bad_grids(self):
        models = [ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 3
        data = make_data(models, 10, 2)
        with pytest.raises(ValueError, match="unknown method"):
            bootstrap_curve("delta", SERIES3, [WEIBULL] * 3, data, [1.0, 2.0], 0.1, 200, 50, 4)
        for grid in ([], [[1.0, 2.0]], [1.0, 0.0]):
            with pytest.raises(ValueError):
                bootstrap_curve("bp", SERIES3, [WEIBULL] * 3, data, grid, 0.1, 200, 50, 4)

    @pytest.mark.parametrize("grid", [np.ones((2, 2)), 1.5, []], ids=["2-D", "scalar", "empty"])
    @pytest.mark.parametrize("curve", [
        lambda data, grid: bootstrap_curve("bp", SERIES3, [WEIBULL] * 3, data, grid, 0.1, 200),
        lambda data, grid: delta_curve(SERIES3, [WEIBULL] * 3, data, grid, 0.1),
    ], ids=["bootstrap_curve", "delta_curve"])
    def test_both_curve_entries_refuse_the_same_grids(self, curve, grid):
        data = make_data([ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 3, 10, 2)
        with pytest.raises(ValueError, match="t_grid must be a non-empty 1-D array"):
            curve(data, grid)


class TestDbptRanks:
    def test_ranks_reproduce_the_selection(self):
        models = [ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 3
        data = make_data(models, 10, 21)
        B, C, alpha = 200, 100, 0.1
        res = dbpt_lcl(SERIES3, [WEIBULL] * 3, data, 2.0, alpha, B, C, rng=8)
        assert res.k == ceil_index(B * alpha)
        assert 0 <= res.u_k <= C
        assert res.k_prime == min(B, max(1, ceil_div(B * res.u_k, C)))
        _, _, r_star = first_layer_at(SERIES3, [WEIBULL] * 3, data, 2.0, B, 8)
        assert res.lcl == kth_smallest(r_star, res.k_prime)
        diagnostics = res.to_dict()["diagnostics"]
        assert (diagnostics["u_k"], diagnostics["k"], diagnostics["k_prime"]) == (
            res.u_k, res.k, res.k_prime)

    def test_absent_for_single_layer_methods(self):
        models = [ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 3
        data = make_data(models, 10, 21)
        res = bp_lcl(SERIES3, [WEIBULL] * 3, data, 2.0, 0.1, 200, rng=8)
        assert (res.u_k, res.k, res.k_prime) == (None, None, None)
        assert res.to_dict()["diagnostics"] == {"boundary_hits": res.boundary_hits,
                                                "ties": res.ties}
