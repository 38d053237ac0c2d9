import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfsv import model as m
from varfsv.exceptions import DimensionMismatchError, NonPositiveScaleError

# 20-variable / 5-shock example pattern used in the shipped example config
PATTERN_20x5 = [
    "+ + + + +",
    "- + + + +",
    ". + - + +",
    ". - . + +",
    "+ . . - +",
    ". . . . .",
    ". . . . .",
    ". . . . .",
    ". . . . .",
    "+ + + + +",
    "+ + + + +",
    "+ + + + +",
    "- + + + +",
    "- + + + +",
    ". . . . .",
    ". . . . .",
    ". + - + +",
    ". + - + +",
    "+ . . - +",
    "+ . . - +",
]


def signs_from_pattern(lines):
    trans = {"+": m.POS, "-": m.NEG, "0": m.ZERO, ".": m.FREE}
    return m.SignMatrix(
        np.array([[trans[c] for c in line.split()] for line in lines], dtype=np.int8)
    )


def small_draw(rng, n=3, p=2, r=1):
    k = n * p + 1
    return m.ParamDraw(
        beta=rng.standard_normal(n * k) * 0.1,
        load=rng.standard_normal((n, r)),
        mu=rng.standard_normal(n),
        phi=rng.uniform(-0.9, 0.9, n + r),
        sig2=rng.uniform(0.01, 0.2, n + r),
    )


class TestMinnesota:
    def test_growth_flag_zero_means(self):
        mean, _ = m.build_minnesota_prior(3, 2, 0.04, 0.01, np.ones(3), level_data=False)
        assert np.all(mean == 0.0)

    def test_level_flag_unit_first_own_lag(self):
        mean, _ = m.build_minnesota_prior(3, 2, 0.04, 0.01, np.ones(3), level_data=True)
        want = np.zeros((3, 7))
        want[0, 1] = want[1, 2] = want[2, 3] = 1.0
        assert np.array_equal(mean, want)

    def test_equal_kappas_equal_scales_symmetric(self):
        _, var = m.build_minnesota_prior(3, 2, 0.2, 0.2, np.full(3, 2.0), level_data=False)
        lag1 = var[:, 1:4]
        assert np.allclose(lag1, 0.2)
        assert np.allclose(var[:, 4:7], 0.2 / 4)

    def test_hand_case_cross_lag_variance(self):
        _, var = m.build_minnesota_prior(
            2, 1, 0.04, 0.0016, np.array([1.0, 4.0]), level_data=False
        )
        # equation 1 (index 0), coefficient on variable 2 at lag 1
        assert var[0, 2] == pytest.approx(0.0016 * (1.0 / 4.0))
        assert var[0, 1] == pytest.approx(0.04)
        assert var[1, 1] == pytest.approx(0.0016 * 4.0)

    def test_all_variances_positive(self):
        _, var = m.build_minnesota_prior(
            4, 3, 0.04, 0.0016, np.array([0.5, 1.0, 2.0, 3.0]), level_data=True
        )
        assert np.all(var > 0)

    def test_nonpositive_scale_raises(self):
        with pytest.raises(NonPositiveScaleError):
            m.build_minnesota_prior(2, 1, 0.04, 0.01, np.array([1.0, 0.0]), False)


class TestPointIdentification:
    def test_example_20x5_pattern_passes(self):
        assert m.validate_point_identification(signs_from_pattern(PATTERN_20x5)).passed

    def test_all_free_column_fails(self):
        s = signs_from_pattern(["+ .", "- ."])
        rep = m.validate_point_identification(s)
        assert not rep.passed
        assert any("column 1 unsigned" in p for p in rep.problems)

    def test_identical_columns_fail(self):
        s = signs_from_pattern(["+ +", "- -", ". ."])
        rep = m.validate_point_identification(s)
        assert not rep.passed
        assert any("0 and 1 identical" in p for p in rep.problems)

    def test_sign_flipped_columns_fail(self):
        s = signs_from_pattern(["+ -", "- +", ". ."])
        rep = m.validate_point_identification(s)
        assert not rep.passed
        assert any("sign flips" in p for p in rep.problems)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_row_permutation_covariant(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.choice([m.POS, m.NEG, m.ZERO, m.FREE], size=(6, 3)).astype(np.int8)
        s = m.SignMatrix(codes)
        perm = m.Permutation(rng.permutation(6))
        assert (
            m.validate_point_identification(s).passed
            == m.validate_point_identification(s.permute_rows(perm)).passed
        )


class TestPermutation:
    def test_identity_permutation_is_noop(self):
        rng = np.random.default_rng(0)
        draw = small_draw(rng)
        states = m.LatentStates(h=rng.standard_normal((5, 4)), f=rng.standard_normal((5, 1)))
        new, new_states = m.permute_model(draw, states, perm=m.Permutation(np.arange(3)))
        assert np.array_equal(new.beta, draw.beta)
        assert np.array_equal(new_states.h, states.h)

    def test_two_variable_swap_conjugates_lag_matrix(self):
        a, b, c, d = 0.3, -0.1, 0.2, 0.5
        beta = np.array([[0.0, a, b], [1.0, c, d]]).ravel()
        draw = m.ParamDraw(
            beta=beta, load=np.array([[1.0], [2.0]]), mu=np.zeros(2),
            phi=np.array([0.5, 0.6, 0.7]), sig2=np.ones(3) * 0.1,
        )
        states = m.LatentStates(h=np.zeros((4, 3)), f=np.zeros((4, 1)))
        swapped, _ = m.permute_model(draw, states, perm=m.Permutation([1, 0]))
        bm = swapped.beta_matrix()
        assert np.allclose(bm[:, 1:], [[d, c], [b, a]])  # the lag-1 matrix
        assert np.allclose(bm[:, 0], [1.0, 0.0])  # the intercepts
        assert np.allclose(swapped.load.ravel(), [2.0, 1.0])
        assert np.allclose(swapped.phi, [0.6, 0.5, 0.7])

    def test_inverse_round_trip_exact(self):
        rng = np.random.default_rng(3)
        draw = small_draw(rng, n=4, p=3, r=2)
        states = m.LatentStates(h=rng.standard_normal((6, 6)), f=rng.standard_normal((6, 2)))
        perm = m.Permutation(rng.permutation(4))
        fwd, fwd_states = m.permute_model(draw, states, perm)
        back, back_states = m.permute_model(fwd, fwd_states, perm.inverse())
        assert np.array_equal(back.beta, draw.beta)
        assert np.array_equal(back.load, draw.load)
        assert np.array_equal(back.phi, draw.phi)
        assert np.array_equal(back_states.h, states.h)

    def test_permute_data_matches_raw_column_reorder(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((30, 3))
        perm = m.Permutation([2, 0, 1])
        y1, x1 = m.build_lagged(raw[:, perm.order], 2)
        y0, x0 = m.build_lagged(raw, 2)
        y2, x2 = m.permute_data(y0, x0, perm)
        assert np.array_equal(y1, y2)
        assert np.array_equal(x1, x2)


class TestTypes:
    def test_modelspec_warns_when_r_large(self):
        priors = m.default_priors(np.random.default_rng(0).standard_normal((40, 4)), 4, 1, 2)
        with pytest.warns(UserWarning, match="exceeds"):
            m.ModelSpec(n=4, p=1, r=2, T=30, priors=priors, signs=m.SignMatrix.all_free(4, 2))

    def test_paramdraw_validation(self):
        rng = np.random.default_rng(1)
        draw = small_draw(rng)
        assert draw.validate()
        bad = small_draw(rng)
        bad.phi[0] = 1.0
        with pytest.raises(ValueError):
            bad.validate()

    def test_priorspec_rejects_zero_loading_variance(self):
        data = np.random.default_rng(2).standard_normal((40, 3))
        pri = m.default_priors(data, 3, 1, 1)
        fields = {name: getattr(pri, name) for name in pri.__dataclass_fields__}
        fields["load_var"] = pri.load_var.copy()
        fields["load_var"][0, 0] = 0.0
        with pytest.raises(ValueError, match="variances must be positive"):
            m.PriorSpec(**fields)
        no_factors = m.default_priors(data, 3, 1, 0)
        assert no_factors.load_var.shape == (3, 0)

    def test_sign_satisfaction_strict(self):
        s = signs_from_pattern(["+ 0", "- ."])
        ok = np.array([[0.5, 0.0], [-0.1, 3.0]])
        assert s.satisfied_by(ok)
        assert not s.satisfied_by(np.array([[0.0, 0.0], [-0.1, 3.0]]))
        assert not s.satisfied_by(np.array([[0.5, 1e-300], [-0.1, 3.0]]))

    def test_sign_matrix_rejects_non_codes(self):
        # a cast to int8 first would read 0.7 as ZERO and 1.9 as POS
        with pytest.raises(ValueError, match="sign entries"):
            m.SignMatrix([[0.7, -1.2], [1.9, 2.0]])
        s = m.SignMatrix([[1.0, -1.0], [0.0, 2.0]])
        assert s.codes.dtype == np.int8
        assert np.array_equal(s.codes, [[m.POS, m.NEG], [m.ZERO, m.FREE]])

    @pytest.mark.parametrize("name, shape", [
        ("beta_mean", (3, 5)), ("load_var", (3, 2)), ("mu_mean", (2,)),
        ("phi_mean", (5,)), ("sig2_scale", (3,)),
    ])
    def test_modelspec_rejects_prior_shapes(self, name, shape):
        # n=3, p=1, r=1 needs beta (3, 4), loadings (3, 1), mu (3,), SV (4,)
        pri = m.default_priors(np.random.default_rng(4).standard_normal((40, 3)), 3, 1, 1)
        fields = {f: getattr(pri, f) for f in pri.__dataclass_fields__}
        fields[name] = np.ones(shape)
        with pytest.raises(DimensionMismatchError, match=name):
            m.ModelSpec(n=3, p=1, r=1, T=30, priors=m.PriorSpec(**fields),
                        signs=m.SignMatrix.all_free(3, 1))

    def test_modelspec_rejects_priors_for_other_r(self):
        pri = m.default_priors(np.random.default_rng(5).standard_normal((40, 3)), 3, 1, 2)
        with pytest.raises(DimensionMismatchError, match="load_mean"):
            m.ModelSpec(n=3, p=1, r=1, T=30, priors=pri, signs=m.SignMatrix.all_free(3, 1))

    def test_build_lagged_layout(self):
        raw = np.arange(12.0).reshape(6, 2)
        y, x = m.build_lagged(raw, 2)
        assert y.shape == (4, 2) and x.shape == (4, 5)
        assert np.array_equal(y[0], raw[2])
        assert np.array_equal(x[0], [1.0, raw[1, 0], raw[1, 1], raw[0, 0], raw[0, 1]])
