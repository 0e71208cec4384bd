import tracemalloc

import numpy as np
import pytest

from riskscale.cdfs import (
    angular_marginal_cdf,
    beta_cdf,
    beta_prime_cdf,
    ks_pvalue,
    normal_cdf,
    y_marginal_cdf,
)
from riskscale.dirichlet import (
    SPHERE_TOL,
    LpSpec,
    RandomPSpec,
    WeightedSpec,
    angular_sample,
    beta_gamma_sample,
    lp_dirichlet_sample,
    random_p_sample,
    random_scale_sequence_sample,
    sphere_deviation,
    weighted_sample,
)
from riskscale.errors import ParameterError
from riskscale.gof import ks_one_sample, ks_two_sample
from riskscale.radial import GammaPower, Pareto, PointMass
from riskscale.rng import BLOCK_ROWS, RngStream, map_blocks
from riskscale.samplers import gamma_sample
from riskscale.verify import _ALPHAS

N = 10**4


def _chi(df):
    """The chi(df) radius, as the config law ``chi_square_sqrt:df`` builds it."""
    return GammaPower(df / 2.0, 0.5, 0.5)


class TestAngular:
    def test_d1_is_constant_one(self):
        o = angular_sample(LpSpec((2.0,), 1.5), RngStream(1).generator(), size=100)
        assert np.array_equal(o, np.ones((100, 1)))

    def test_sphere_constraint(self):
        spec = LpSpec((0.5, 1.0, 1.5, 2.0, 2.5), 3.0)
        o = angular_sample(spec, RngStream(2).generator(), size=N)
        assert np.abs((o ** spec.p).sum(axis=1) - 1.0).max() < 1e-12

    def test_large_exponent_sphere(self):
        spec = LpSpec((1.0, 2.0, 0.7), 80.0)
        o = angular_sample(spec, RngStream(3).generator(), size=N)
        assert np.abs((o ** spec.p).sum(axis=1) - 1.0).max() < 1e-12

    def test_uniform_marginal(self):
        # alphas (1, 1), p = 1: the first coordinate is Beta(1,1) = Uniform(0,1)
        o = angular_sample(LpSpec((1.0, 1.0), 1.0), RngStream(4).generator(), size=N)
        rep = ks_one_sample(o[:, 0], lambda v: np.clip(v, 0.0, 1.0))
        assert ks_pvalue(rep) > 0.01

    def test_single_draw_shape(self):
        o = angular_sample(LpSpec((1.0, 1.0, 1.0), 2.0), RngStream(5).generator(), size=1)
        assert o.shape == (1, 3)
        assert abs((o ** 2).sum() - 1.0) < 1e-12

    def test_block_holds_its_rows_and_two_columns_at_most(self):
        # the (m, d) output, one Gamma column being drawn and the row sums:
        # the d column temporaries of a stacked form are never alive at once
        spec = LpSpec(_ALPHAS, 3.0)
        m, d = BLOCK_ROWS, spec.dim
        gen = RngStream(6).generator()
        tracemalloc.start()
        try:
            angular_sample(spec, gen, size=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (m * d + 2 * m) * 8, peak

    def test_spec_validation(self):
        with pytest.raises(ParameterError, match=r"alphas\[0\] must be > 0"):
            LpSpec((0.0, 1.0), 1.0)
        with pytest.raises(ParameterError):
            LpSpec((1.0,), -2.0)


class TestAngularMarginalCdf:
    def test_support_clamping(self):
        spec = LpSpec((1.5, 2.5), 2.0)
        assert angular_marginal_cdf(spec, 0, -0.5) == 0.0
        assert angular_marginal_cdf(spec, 0, 0.0) == 0.0
        assert angular_marginal_cdf(spec, 1, 1.0) == 1.0
        assert angular_marginal_cdf(spec, 1, 7.0) == 1.0

    def test_uniform_case_value(self):
        # Beta(1, 1) marginal: cdf at 0.3 is exactly 0.3
        spec = LpSpec((1.0, 1.0), 1.0)
        assert abs(angular_marginal_cdf(spec, 0, 0.3) - 0.3) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ParameterError):
            angular_marginal_cdf(LpSpec((1.0, 1.0), 1.0), 2, 0.5)

    @pytest.mark.parametrize("i", [1.5, "1", -1])
    def test_index_outside_the_integer_rule_is_named(self, i):
        # a float, however whole, or a string used to fail with a bare TypeError
        with pytest.raises(ParameterError) as info:
            angular_marginal_cdf(LpSpec((1.0, 1.0, 2.0), 2.0), i, 0.5)
        assert info.value.param == "i"

    def test_numpy_integer_index_passes(self):
        spec = LpSpec((1.0, 1.0, 2.0), 2.0)
        assert angular_marginal_cdf(spec, np.int64(1), 0.5) == angular_marginal_cdf(spec, 1, 0.5)

    def test_empirical_component_matches_cdf(self):
        spec = LpSpec((0.7, 1.3, 2.0), 2.2)
        o = angular_sample(spec, RngStream(6).generator(), size=N)
        for i in range(3):
            rep = ks_one_sample(o[:, i],
                                lambda v, i=i: angular_marginal_cdf(spec, i, v))
            assert ks_pvalue(rep) > 0.01, f"component {i}: {rep}"

    @pytest.mark.parametrize("p", [1.0, 2.7])
    def test_is_the_beta_cdf_of_the_p_th_power_bit_for_bit(self, p):
        # the verify beta_marginals check tests O_i against this oracle; its
        # line keeps its bytes because, inside (0, 1), the oracle is exactly
        # beta_cdf(x ** p, alpha_i, rest) and KS does not see the map x -> x^p
        spec = LpSpec(_ALPHAS, p)
        o = angular_sample(spec, RngStream(31).generator(), size=2000)
        uniform = RngStream(32).generator().random(2000)
        total = sum(_ALPHAS)
        for i, alpha in enumerate(_ALPHAS):
            for x in (o[:, i], uniform[uniform > 0.0]):
                assert ((0.0 < x) & (x < 1.0)).all()
                got = angular_marginal_cdf(spec, i, x)
                want = beta_cdf(x ** p, alpha, total - alpha)
                assert got.tobytes() == want.tobytes()
            assert (ks_one_sample(o[:, i], lambda v, i=i: angular_marginal_cdf(spec, i, v))
                    == ks_one_sample(o[:, i] ** p, lambda v, a=alpha: beta_cdf(v, a, total - a)))

    def test_d1_step(self):
        spec = LpSpec((2.0,), 3.0)
        assert angular_marginal_cdf(spec, 0, 0.999) == 0.0
        assert angular_marginal_cdf(spec, 0, 1.0) == 1.0


class TestLpDirichlet:
    def test_point_mass_radius_stays_on_sphere(self):
        spec = LpSpec((1.0, 2.0, 3.0), 2.5)
        x = lp_dirichlet_sample(spec, PointMass(1.0), N, RngStream(7))
        assert np.abs((x ** spec.p).sum(axis=1) - 1.0).max() < 1e-12

    def test_two_dim_simplex_identity(self):
        x = lp_dirichlet_sample(LpSpec((1.0, 1.0), 1.0), PointMass(1.0),
                                N, RngStream(8))
        assert np.abs(x[:, 1] - (1.0 - x[:, 0])).max() < 1e-12

    def test_gamma_power_radius_factorizes(self):
        # independence radius: the scaled components follow the exact law of
        # the unnormalized factors (Gamma-Dirichlet factorization oracle)
        alphas, p = (0.5, 1.0, 1.5), 2.0
        spec = LpSpec(alphas, p)
        radial = GammaPower(sum(alphas), 1.0 / p, 1.0 / p)
        s = RngStream(9)
        x = lp_dirichlet_sample(spec, radial, N, s.child(0))
        for i, a in enumerate(alphas):
            assert ks_pvalue(ks_one_sample(x[:, i], lambda v: y_marginal_cdf(a, p, v))) > 0.01
        corr = np.corrcoef(x ** p, rowvar=False)
        off = np.abs(corr - np.diag(np.diag(corr))).max()
        assert off < 3.0 / np.sqrt(N)


class TestWeighted:
    def test_all_plus_signs_match_unsigned_sampler(self):
        base = LpSpec((0.8, 1.2), 1.7)
        spec = WeightedSpec(base=base, qs=(1.0, 1.0))
        radial = _chi(3.0)
        s = RngStream(10)
        signed = weighted_sample(spec, radial, N, s.child(0))
        plain = lp_dirichlet_sample(base, radial, N, s.child(1))
        assert (signed > 0).all()
        for i in range(2):
            assert ks_pvalue(ks_two_sample(signed[:, i], plain[:, i])) > 0.01

    def test_gaussian_case(self):
        # alpha_i = 1/2, p = 2, fair signs, chi(d) radius: i.i.d. N(0,1)
        d = 4
        spec = WeightedSpec(base=LpSpec((0.5,) * d, 2.0), qs=(0.5,) * d)
        x = weighted_sample(spec, _chi(d), N, RngStream(11))
        for i in range(d):
            assert ks_pvalue(ks_one_sample(x[:, i], normal_cdf)) > 0.01
        corr = np.corrcoef(x, rowvar=False)
        assert np.abs(corr - np.diag(np.diag(corr))).max() < 3.0 / np.sqrt(N)

    def test_chi_squared_weights_are_not_gaussian(self):
        # negative control: alpha_i = 2 makes the squared factors chi-square
        # with four degrees of freedom, and the margins stop being N(0,1)
        d = 4
        spec = WeightedSpec(base=LpSpec((2.0,) * d, 2.0), qs=(0.5,) * d)
        x = weighted_sample(spec, _chi(d), N, RngStream(12))
        rep = ks_one_sample(x[:, 0], normal_cdf)
        assert ks_pvalue(rep) <= 0.01

    def test_sphere_constraint_under_absolute_values(self):
        base = LpSpec((1.0, 1.5, 0.5), 2.0)
        spec = WeightedSpec(base=base, qs=(0.4, 0.9, 1.0))
        x = weighted_sample(spec, PointMass(2.0), N, RngStream(13))
        sums = (np.abs(x / 2.0) ** base.p).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_qs_validation(self):
        base = LpSpec((1.0, 1.0), 1.0)
        with pytest.raises(ParameterError):
            WeightedSpec(base=base, qs=(0.5,))
        with pytest.raises(ParameterError):
            WeightedSpec(base=base, qs=(0.5, 0.0))

    def test_d1_short_circuits_to_signed_radius(self):
        spec = WeightedSpec(base=LpSpec((2.0,), 3.0), qs=(0.5,))
        x = weighted_sample(spec, PointMass(2.5), 2000, RngStream(24))[:, 0]
        assert set(np.unique(np.abs(x))) == {2.5}
        assert (x < 0).any() and (x > 0).any()


class TestRandomP:
    def test_point_mass_exponent_reduces_to_fixed_p(self):
        # rate-change oracle: normalization cancels the Gamma rate, so a
        # degenerate exponent law reproduces the fixed-exponent sampler
        alphas, p = (0.5, 1.0, 1.5), 2.0
        radial = _chi(2.0)
        s = RngStream(14)
        xr, _ = random_p_sample(RandomPSpec(alphas, PointMass(p)), radial, N, s.child(0))
        xf = lp_dirichlet_sample(LpSpec(alphas, p), radial, N, s.child(1))
        for i in range(len(alphas)):
            assert ks_pvalue(ks_two_sample(xr[:, i], xf[:, i])) > 0.01

    def test_rate_change_oracle(self):
        # G ~ Gamma(a, 1) implies p G ~ Gamma(a, 1/p)
        s = RngStream(15)
        scaled = 2.5 * gamma_sample(1.3, 1.0, s.child(0).generator(), size=N)
        direct = gamma_sample(1.3, 1.0 / 2.5, s.child(1).generator(), size=N)
        assert ks_pvalue(ks_two_sample(scaled, direct)) > 0.01

    def test_per_row_sphere_identity(self):
        spec = RandomPSpec((0.5, 1.0, 1.5), Pareto(2.0))
        rows, expo = random_p_sample(spec, PointMass(1.0), N, RngStream(16))
        sums = (rows ** expo[:, None]).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_d1_angular_part_is_one(self):
        spec = RandomPSpec((1.0,), Pareto(3.0))
        rows, _ = random_p_sample(spec, PointMass(4.0), 200, RngStream(17))
        assert np.array_equal(rows, np.full((200, 1), 4.0))

    def test_exponent_law_must_be_a_radial_law(self):
        with pytest.raises(ParameterError, match="p_law must be a RadialLaw"):
            RandomPSpec((1.0, 2.0), p_law=2.0)


class TestRandomScaleSequence:
    def test_degenerate_scale_recovers_marginals(self):
        x = random_scale_sequence_sample(0.5, 2.0, PointMass(1.0), 2, N, RngStream(18))
        for i in range(2):
            assert ks_pvalue(ks_one_sample(x[:, i], lambda v: y_marginal_cdf(0.5, 2.0, v))) > 0.01

    def test_ratio_law_ignores_scale(self):
        s = RngStream(20)
        # (X_1/X_2)^p is Beta-prime(alpha, alpha) under either scale law
        for k, scale in enumerate((PointMass(1.0), Pareto(3.0))):
            x = random_scale_sequence_sample(0.5, 2.0, scale, 2, N, s.child(k))
            rep = ks_one_sample((x[:, 0] / x[:, 1]) ** 2.0,
                                lambda z: beta_prime_cdf(0.5, 0.5, z))
            assert ks_pvalue(rep) > 0.01

    def test_shared_scale_within_row(self):
        # ratios computed two ways agree draw for draw: scale cancels exactly
        x = random_scale_sequence_sample(1.0, 1.0, Pareto(2.0), 3, 500, RngStream(21))
        y = random_scale_sequence_sample(1.0, 1.0, PointMass(1.0), 3, 500, RngStream(21))
        # same underlying factor stream, so X_i / X_j must match Y_i / Y_j
        assert np.allclose(x[:, 0] / x[:, 2], y[:, 0] / y[:, 2], rtol=1e-12)

    def test_equal_weight_consistency_with_factorizing_radius(self):
        # the exchangeable case: the angular sampler scaled by the
        # GammaPower(d * alpha, 1/p, 1/p) radius reproduces i.i.d. marginals
        alpha, p, d = 0.5, 2.0, 3
        s = RngStream(25)
        x = lp_dirichlet_sample(LpSpec((alpha,) * d, p),
                                GammaPower(d * alpha, 1.0 / p, 1.0 / p),
                                N, s.child(0))
        for i in range(d):
            assert ks_pvalue(ks_one_sample(x[:, i], lambda v: y_marginal_cdf(alpha, p, v))) > 0.01

    def test_needs_at_least_one_component(self):
        with pytest.raises(ParameterError, match="d must be >= 1, got 0") as excinfo:
            random_scale_sequence_sample(0.5, 2.0, PointMass(1.0), 0, 10, RngStream(0))
        assert excinfo.value.param == "d"


class TestBetaGamma:
    @pytest.mark.parametrize("alpha,p", [(0.5, 1.0), (0.5, 2.0), (0.2, 3.0)])
    def test_matches_y_marginal(self, alpha, p):
        s = RngStream(22, int(10 * alpha + p))
        x = beta_gamma_sample(alpha, p, N, s.child(0))
        assert ks_pvalue(ks_one_sample(x, lambda v: y_marginal_cdf(alpha, p, v))) > 0.01

    def test_alpha_near_one_still_valid(self):
        x = beta_gamma_sample(0.999, 2.0, 2000, RngStream(23))
        assert np.isfinite(x).all() and (x > 0).all()

    def test_alpha_outside_unit_interval(self):
        for alpha in (0.0, 1.0, 1.5):
            with pytest.raises(ParameterError):
                beta_gamma_sample(alpha, 1.0, 100, RngStream(0))


def _whole_array_deviation(rows, p, radius):
    """The sphere identity over the whole array at once."""
    e = p if np.ndim(p) == 0 else np.asarray(p)[:, None]
    return float(np.abs(((np.abs(rows) / radius) ** e).sum(axis=1) - 1.0).max())


@pytest.mark.parametrize("per_row, p, radius", [
    (False, 2.0, 1.0), (False, 3.0, 2.5), (False, 1.5, 1.0),
    (True, None, 1.0), (True, None, 2.5),
], ids=["p2-r1", "p3-r2.5", "p1.5-r1", "per_row-r1", "per_row-r2.5"])
def test_sphere_deviation_blocks_give_the_whole_array_max(per_row, p, radius):
    gen = np.random.default_rng(3)
    n = 2 * BLOCK_ROWS + 5  # three blocks, the last of 5 rows
    if per_row:
        p = gen.uniform(0.5, 4.0, n)
    e = p if np.ndim(p) == 0 else p[:, None]
    direction = np.abs(gen.standard_normal((n, 3))) + 0.1
    direction /= (direction ** e).sum(axis=1, keepdims=True) ** (1 / e)
    rows = radius * direction * np.where(gen.random((n, 3)) < 0.5, -1.0, 1.0)

    deviation = sphere_deviation(rows, p, radius)
    assert deviation == _whole_array_deviation(rows, p, radius)
    assert 0.0 < deviation <= SPHERE_TOL

    rows[-1] *= 1.0 + 1e-9  # the largest deviation now sits in the last block
    deviation = sphere_deviation(rows, p, radius)
    assert deviation == _whole_array_deviation(rows, p, radius) > SPHERE_TOL

    for row in (0, n - 1):  # a nan row in the first block or the last
        with_nan = rows.copy()
        with_nan[row, 1] = np.nan
        assert np.isnan(sphere_deviation(with_nan, p, radius))


# The references below are the operator forms the Dirichlet block code used
# to run (stacked Gamma draws, numpy's row sum, out-of-place divide, power
# and radius product), drawing from the same block streams; the in-place
# kernels must reproduce them bit for bit. The angular law runs the full
# d x p grid; the samplers that wrap it run the d grid at p = 2 (the square
# fast path) and the p grid at d = 3. Nothing here pins absolute bits:
# numpy's pow differs between CPUs.

_BIT_N = BLOCK_ROWS + 7
_BIT_D = [1, 2, 3, 5, 7, 9]
_BIT_P = [1.0, 2.0, 0.5, 3.0]
_BIT_DP = [(d, 2.0) for d in _BIT_D] + [(3, p) for p in _BIT_P if p != 2.0]


def _bit_alphas(d):
    return tuple(0.5 + 0.5 * i for i in range(d))  # shapes < 1 and >= 1


def _ref_simplex(alphas, gen, m):
    g = np.column_stack([gen.standard_gamma(a, size=m) for a in alphas])
    return g / g.sum(axis=1, keepdims=True)


def _ref_angular(spec, gen, m):
    return _ref_simplex(spec.alphas, gen, m) ** (1.0 / spec.p)


def _ref_radius(law, stream, m):
    # GammaPower only: (G / rate) ** power
    return (stream.generator().standard_gamma(law.shape, size=m) / law.rate) \
        ** law.power


def _bit_radius(spec):
    return GammaPower(sum(spec.alphas), 1.0 / spec.p, 1.0 / spec.p)


class TestOperatorFormBits:
    @pytest.mark.parametrize("p", _BIT_P)
    @pytest.mark.parametrize("d", _BIT_D)
    def test_angular_sample(self, d, p):
        spec = LpSpec(_bit_alphas(d), p)
        ref = _ref_angular(spec, RngStream(341).generator(), _BIT_N)
        assert angular_sample(spec, RngStream(341).generator(), size=_BIT_N).tobytes() \
            == ref.tobytes()

    @pytest.mark.parametrize("d,p", _BIT_DP)
    def test_lp_dirichlet_sample(self, d, p):
        spec = LpSpec(_bit_alphas(d), p)
        radial = _bit_radius(spec)

        def fill(block, lo, hi):
            m = hi - lo
            o = _ref_angular(spec, block.child(0).generator(), m)
            return _ref_radius(radial, block.child(1), m)[:, None] * o

        ref = map_blocks(RngStream(342), _BIT_N, fill, ncols=d, workers=1)
        for workers in (1, 2):
            assert lp_dirichlet_sample(spec, radial, _BIT_N, RngStream(342),
                                       workers=workers).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d,p", _BIT_DP)
    def test_weighted_sample(self, monkeypatch, d, p):
        spec = WeightedSpec(LpSpec(_bit_alphas(d), p),
                            qs=((0.5, 1.0, 0.25) * 3)[:d])
        radial = _bit_radius(spec.base)

        def fill(block, lo, hi):
            m = hi - lo
            o = _ref_angular(spec.base, block.child(0).generator(), m)
            r = _ref_radius(radial, block.child(1), m)
            sign_gen = block.child(2).generator()
            signs = np.column_stack([np.where(sign_gen.random(m) < q, 1.0, -1.0)
                                     for q in spec.qs])
            return r[:, None] * signs * o

        ref = map_blocks(RngStream(343), _BIT_N, fill, ncols=d, workers=1)
        for workers in (1, 2):
            monkeypatch.setenv("RISKSCALE_THREADS", str(workers))
            assert weighted_sample(spec, radial, _BIT_N, RngStream(343)).tobytes() \
                == ref.tobytes()

    @pytest.mark.parametrize("d,law", [(d, Pareto(2.0)) for d in _BIT_D]
                             + [(3, PointMass(p)) for p in _BIT_P], ids=str)
    def test_random_p_sample(self, monkeypatch, d, law):
        # PointMass(p) gives every row the exponent p; the exponent is an
        # array in both forms, so numpy takes its general pow
        spec = RandomPSpec(_bit_alphas(d), law)
        radial = GammaPower(3.0, 0.5, 0.5)

        def fill(block, lo, hi):
            m = hi - lo
            p = law.sample(block.child(0).generator(), size=m)
            w = _ref_simplex(spec.alphas, block.child(1).generator(), m)
            o = w ** (1.0 / p[:, None])
            r = _ref_radius(radial, block.child(2), m)
            return np.hstack([r[:, None] * o, p[:, None]])

        ref = map_blocks(RngStream(344), _BIT_N, fill, ncols=d + 1, workers=1)
        for workers in (1, 2):
            monkeypatch.setenv("RISKSCALE_THREADS", str(workers))
            rows, expo = random_p_sample(spec, radial, _BIT_N, RngStream(344))
            assert rows.tobytes() == np.ascontiguousarray(ref[:, :d]).tobytes()
            assert expo.tobytes() == np.ascontiguousarray(ref[:, d]).tobytes()

    @pytest.mark.parametrize("p", _BIT_P)
    def test_random_scale_sequence_sample(self, monkeypatch, p):
        law = Pareto(2.0)

        def fill(block, lo, hi):
            m = hi - lo
            g = block.child(0).generator().standard_gamma(0.7, size=(m, 3))
            y = (g / (1.0 / p)) ** (1.0 / p)
            return law.sample(block.child(1).generator(), size=m)[:, None] * y

        ref = map_blocks(RngStream(345), _BIT_N, fill, ncols=3, workers=1)
        for workers in (1, 2):
            monkeypatch.setenv("RISKSCALE_THREADS", str(workers))
            assert random_scale_sequence_sample(0.7, p, law, 3, _BIT_N, RngStream(345)) \
                .tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", _BIT_P)
    def test_beta_gamma_sample(self, monkeypatch, p):
        def fill(block, lo, hi):
            m = hi - lo
            gen = block.child(0).generator()
            ga = gen.standard_gamma(0.4, size=m)
            gb = gen.standard_gamma(0.6, size=m)
            e = gen.exponential(scale=p, size=m)
            return (ga / (ga + gb) * e) ** (1.0 / p)

        ref = map_blocks(RngStream(346), _BIT_N, fill, workers=1)
        for workers in (1, 2):
            monkeypatch.setenv("RISKSCALE_THREADS", str(workers))
            assert beta_gamma_sample(0.4, p, _BIT_N, RngStream(346)).tobytes() \
                == ref.tobytes()
