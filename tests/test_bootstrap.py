import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import gamma, ks_2samp

from relbound.bootstrap import (
    _boundary_hits,
    _eval,
    _first_layer,
    _fit_components,
    _materialize,
    _second_layer,
    _select_dbpt,
    bb_lcl,
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
from relbound.resampling import gen_aux_batch
from relbound.rng import child_seedseq, generator
from relbound.selection import ceil_div, ceil_index, kth_smallest
from relbound.simulation import default_t_grid, lcl_curve
from relbound.structures import num_components, parse_structure

SERIES3 = parse_structure("series(c1,c2,c3)")
SINGLE = parse_structure("series(c1)")


def make_data(models, n, seed):
    return [sample_lifetimes(m, n, generator(seed, 0, i)) for i, m in enumerate(models)]


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
    from relbound.bootstrap import _first_layer, _fit_components
    from relbound.selection import ceil_index, kth_smallest

    comps, _ = _fit_components(SERIES3, [WEIBULL] * 3, data, res.t)
    _, r_star, _ = _first_layer(comps, SERIES3, res.B, 13, False)
    return kth_smallest(r_star, ceil_index(res.B * (1 - res.alpha)))


class TestDbptSelection:
    def test_all_u_zero_clamps_to_minimum(self):
        r_star = np.array([0.3, 0.1, 0.5, 0.2, 0.4])
        u = np.zeros(5, dtype=int)
        lcl, u_k, k, k_prime = _select_dbpt(r_star, u, B=5, C=1, alpha=0.2)
        assert k == 1 and u_k == 0 and k_prime == 1
        assert lcl == 0.1

    def test_all_u_full_clamps_to_maximum(self):
        r_star = np.array([0.3, 0.1, 0.5, 0.2, 0.4])
        u = np.full(5, 4, dtype=int)
        lcl, _, _, k_prime = _select_dbpt(r_star, u, B=5, C=4, alpha=0.2)
        assert k_prime == 5 and lcl == 0.5

    def test_exact_integer_rank_arithmetic(self):
        # B*u/C must not pick up float error: 1000 * 73 / 500 = 146 exactly
        r_star = np.linspace(0.0, 1.0, 1000)
        u = np.full(1000, 73, dtype=int)
        _, _, _, k_prime = _select_dbpt(r_star, u, B=1000, C=500, alpha=0.1)
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

    def test_b1_selection_collapses_to_the_single_value(self):
        # at B = 1 the shared selection rule can only return the lone
        # first-layer value, whatever the second layer said (the public
        # entry points reject B = 1 because B >= ceil(1/alpha) >= 2)
        for count in (0, 7, 20):
            lcl, _, k, k_prime = _select_dbpt(np.array([0.42]), np.array([count]),
                                              B=1, C=20, alpha=0.5)
            assert k == 1 and k_prime == 1 and lcl == 0.42
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


def _unblocked_second_layer(structure, comps, vals1, aux2, r_hat):
    """The whole B x C second layer at once: the reference for the blocked kernel."""
    hits, r2_list = 0, []
    for i, comp in enumerate(comps):
        z2, m2 = aux2[i]
        if comp.is_exp:
            vals2 = vals1[i][:, None] / m2[None, :]
        else:
            scale = comp.family.kappa2 / m2
            vals2 = (vals1[i][:, None] - z2[None, :]) * scale[None, :] + comp.family.kappa1
        r2 = _materialize(comp, vals2)
        hits += _boundary_hits(r2)
        r2_list.append(r2)
    r_2star = np.asarray(_eval(structure, r2_list))
    return r_2star, (r_2star <= r_hat).sum(axis=1), hits, int((r_2star == r_hat).sum())


def _layers(structure, family, B, C, seed):
    s = num_components(structure)
    if family is EXPONENTIAL:
        models = [ComponentModel(family, rate=1.0)] * s
    else:
        models = [ComponentModel(family, mu=0.3, sigma=0.8)] * s
    # n = 5 at t = 0.7 pushes some second-layer values to exactly 0 or 1
    comps, r_hat = _fit_components(structure, [family] * s, make_data(models, 5, seed), 0.7)
    vals1, _, _ = _first_layer(comps, structure, B, seed, False)
    aux2 = [gen_aux_batch(c.family, c.n, C, generator(seed, 2, i), False)
            for i, c in enumerate(comps)]
    return comps, vals1, aux2, r_hat


class TestSecondLayerKernel:
    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda bc: f"B{bc[0]}-C{bc[1]}")
    @pytest.mark.parametrize("text", KERNEL_STRUCTURES)
    @pytest.mark.parametrize("family_name", sorted(KERNEL_FAMILIES))
    def test_matches_unblocked_map(self, family_name, text, shape):
        B, C = shape
        node = parse_structure(text)
        comps, vals1, aux2, r_hat = _layers(node, KERNEL_FAMILIES[family_name], B, C, 31)
        r_2star, *expected = _unblocked_second_layer(node, comps, vals1, aux2, r_hat)
        u_counts, hits, ties = _second_layer(node, comps, vals1, aux2, r_hat)
        assert u_counts.dtype == np.int64
        assert np.array_equal(u_counts, expected[0])
        assert (hits, ties) == tuple(expected[1:])
        # a threshold taken from the second layer itself forces at least one tie
        tied = float(r_2star[B // 2, C // 2])
        _, *expected = _unblocked_second_layer(node, comps, vals1, aux2, tied)
        u_counts, hits, ties = _second_layer(node, comps, vals1, aux2, tied)
        assert np.array_equal(u_counts, expected[0])
        assert (hits, ties) == tuple(expected[1:])
        assert ties >= 1

    def test_diagnostics_off_keeps_counts(self):
        node = parse_structure(KERNEL_STRUCTURES[-1])
        comps, vals1, aux2, r_hat = _layers(node, WEIBULL, 300, 200, 5)
        full = _second_layer(node, comps, vals1, aux2, r_hat)
        bare = _second_layer(node, comps, vals1, aux2, r_hat, diagnostics=False)
        assert np.array_equal(full[0], bare[0])
        assert bare[1:] == (0, 0)

    @pytest.mark.parametrize("family", [WEIBULL, LOGNORMAL, EXPONENTIAL],
                             ids=lambda f: f.name)
    def test_curve_equals_scalar_lcl_at_every_grid_point(self, family):
        node = parse_structure("parallel(c1,series(c2,c3))")
        if family is EXPONENTIAL:
            models = [ComponentModel(family, rate=0.8)] * 3
        else:
            models = [ComponentModel(family, mu=0.4, sigma=0.7)] * 3
        data = make_data(models, 8, 12)
        grid = default_t_grid(1.0, 21)
        curve = lcl_curve("dbpt", node, [family] * 3, data, grid, 0.1, 400, 150, 77)
        scalar = [dbpt_lcl(node, [family] * 3, data, float(t), 0.1, 400, 150, rng=77).lcl
                  for t in grid]
        assert curve.tobytes() == np.array(scalar).tobytes()

    def test_memory_stays_bounded(self):
        # the unblocked layer held s full B x C arrays: about 290 MB here
        node = parse_structure("series(c1,...,c16)")
        models = [ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 16
        data = make_data(models, 10, 3)
        tracemalloc.start()
        try:
            dbpt_lcl(node, [WEIBULL] * 16, data, 0.5, 0.1, B=1000, C=2000, rng=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestDbptRanks:
    def test_ranks_reproduce_the_selection(self):
        models = [ComponentModel(WEIBULL, mu=1.0, sigma=0.7)] * 3
        data = make_data(models, 10, 21)
        B, C, alpha = 200, 100, 0.1
        res = dbpt_lcl(SERIES3, [WEIBULL] * 3, data, 2.0, alpha, B, C, rng=8)
        assert res.k == ceil_index(B * alpha)
        assert 0 <= res.u_k <= C
        assert res.k_prime == min(B, max(1, ceil_div(B * res.u_k, C)))
        comps, _ = _fit_components(SERIES3, [WEIBULL] * 3, data, 2.0)
        _, r_star, _ = _first_layer(comps, SERIES3, B, 8, False)
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
