import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from taskopt.stats import (
    one_way_anova,
    pairwise_bonferroni,
    percent_reduction,
    regularized_incomplete_beta,
    t_two_tailed,
)


class TestIncompleteBeta:
    GRID_AB = [0.5, 1.0, 2.5, 7.0, 30.0]
    GRID_X = [0.001, 0.01, 0.2, 0.5, 0.8, 0.99, 0.999]

    def test_symmetry_identity(self):
        for a in self.GRID_AB:
            for b in self.GRID_AB:
                for x in self.GRID_X:
                    left = regularized_incomplete_beta(a, b, x)
                    right = regularized_incomplete_beta(b, a, 1.0 - x)
                    assert abs(left + right - 1.0) < 1e-10, (a, b, x)

    def test_against_scipy(self):
        for a in self.GRID_AB:
            for b in self.GRID_AB:
                for x in self.GRID_X:
                    mine = regularized_incomplete_beta(a, b, x)
                    ref = float(scipy.special.betainc(a, b, x))
                    assert mine == pytest.approx(ref, abs=1e-12), (a, b, x)

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(0.1, 50.0),
        b=st.floats(0.1, 50.0),
        x=st.floats(0.0, 1.0),
    )
    def test_always_in_unit_interval(self, a, b, x):
        value = regularized_incomplete_beta(a, b, x)
        assert 0.0 <= value <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)

    def test_t_two_tailed_against_scipy(self):
        for t in [0.0, 0.5, 1.5, 2.7, 10.0, -2.2]:
            for df in [1, 4, 10, 30]:
                mine = t_two_tailed(t, df)
                ref = 2.0 * float(scipy.stats.t.sf(abs(t), df))
                assert mine == pytest.approx(ref, abs=1e-12), (t, df)


class TestAnova:
    def test_hand_computed_example(self):
        # Groups [1,2,3] and [2,3,4]: grand mean 2.5, SSB = 1.5, SSW = 4,
        # so F = (1.5/1) / (4/4) = 1.5 with df (1, 4).
        result = one_way_anova([[1, 2, 3], [2, 3, 4]])
        assert result.f_stat == pytest.approx(1.5, abs=1e-12)
        assert (result.df_between, result.df_within) == (1, 4)
        assert result.p_value == pytest.approx(
            float(scipy.stats.f.sf(1.5, 1, 4)), abs=1e-12
        )

    def test_identical_groups(self):
        result = one_way_anova([[1, 2, 3]] * 3)
        assert result.f_stat == 0.0
        assert result.p_value == 1.0

    def test_all_constant_groups_flagged(self):
        # Zero within AND between variance: F = 0, p = 1, flagged.
        result = one_way_anova([[2.0, 2.0], [2.0, 2.0]])
        assert result.f_stat == 0.0
        assert result.p_value == 1.0
        assert result.degenerate

    def test_group_order_symmetry(self):
        a = one_way_anova([[1, 2, 3], [2, 3, 4], [5, 6, 9]])
        b = one_way_anova([[5, 6, 9], [1, 2, 3], [2, 3, 4]])
        assert a.f_stat == pytest.approx(b.f_stat)
        assert a.p_value == pytest.approx(b.p_value)

    def test_shift_and_scale_invariance(self):
        groups = [[1.0, 2.0, 4.0], [2.0, 5.0, 3.0], [7.0, 4.0, 4.5]]
        base = one_way_anova(groups)
        shifted = one_way_anova([[v + 13.5 for v in g] for g in groups])
        scaled = one_way_anova([[v * 4.2 for v in g] for g in groups])
        assert shifted.f_stat == pytest.approx(base.f_stat, rel=1e-9)
        assert shifted.p_value == pytest.approx(base.p_value, rel=1e-9)
        assert scaled.f_stat == pytest.approx(base.f_stat, rel=1e-9)

    def test_against_scipy_random_groups(self):
        rng = np.random.default_rng(5)
        groups = [rng.normal(loc, 1.0, size=8) for loc in (0.0, 0.4, 0.9)]
        result = one_way_anova(groups)
        ref = scipy.stats.f_oneway(*groups)
        assert result.f_stat == pytest.approx(float(ref.statistic), rel=1e-10)
        assert result.p_value == pytest.approx(float(ref.pvalue), abs=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError, match="2 groups"):
            one_way_anova([[1, 2, 3]])
        with pytest.raises(ValueError, match="at least 2"):
            one_way_anova([[1, 2], [5]])

    def test_within_zero_between_nonzero(self):
        result = one_way_anova([[1, 1, 1], [2, 2, 2]])
        assert math.isinf(result.f_stat)
        assert result.p_value == 0.0
        assert result.degenerate


class TestPairwise:
    def test_bonferroni_clamp_and_monotonicity(self):
        rng = np.random.default_rng(7)
        groups = [("a", rng.normal(0, 1, 10)),
                  ("b", rng.normal(0.2, 1, 10)),
                  ("c", rng.normal(1.5, 1, 10))]
        results = pairwise_bonferroni(groups)
        assert len(results) == 3
        for r in results:
            assert r.p_adjusted == pytest.approx(min(1.0, 3 * r.p_raw))
            assert r.p_adjusted >= r.p_raw

    def test_explicit_m(self):
        a = ("a", [1.0, 2.0, 3.0, 4.0])
        b = ("b", [1.1, 2.2, 2.9, 4.3])
        (result,) = pairwise_bonferroni([a, b], m=3)
        assert result.p_adjusted == pytest.approx(min(1.0, 3 * result.p_raw))

    def test_identical_vectors_convention(self):
        (result,) = pairwise_bonferroni(
            [("a", [1.0, 2.0, 3.0]), ("b", [1.0, 2.0, 3.0])]
        )
        assert result.t_stat == 0.0
        assert result.p_raw == 1.0
        assert result.degenerate

    def test_constant_nonzero_difference(self):
        (result,) = pairwise_bonferroni(
            [("a", [2.0, 3.0, 4.0, 5.0]), ("b", [1.0, 2.0, 3.0, 4.0])]
        )
        assert math.isinf(result.t_stat) and result.t_stat > 0
        assert result.p_raw == 0.0
        assert result.degenerate

    def test_paired_against_scipy(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0.5, 1.0, 12)
        b = rng.normal(0.0, 1.0, 12)
        (result,) = pairwise_bonferroni([("a", a), ("b", b)])
        ref = scipy.stats.ttest_rel(a, b)
        assert result.t_stat == pytest.approx(float(ref.statistic), rel=1e-10)
        assert result.p_raw == pytest.approx(float(ref.pvalue), abs=1e-10)

    def test_paired_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            pairwise_bonferroni([("a", [1, 2, 3]), ("b", [1, 2])])

    def test_percent_reduction_attached(self):
        (result,) = pairwise_bonferroni(
            [("base", [2.0, 2.0]), ("new", [1.0, 1.0])]
        )
        assert result.pct_reduction_mean == pytest.approx(50.0)
        assert result.pct_reduction_std == pytest.approx(0.0)


class TestPercentReduction:
    def test_halving(self):
        mean, std = percent_reduction([2.0, 2.0], [1.0, 1.0])
        assert mean == pytest.approx(50.0)
        assert std == pytest.approx(0.0)

    def test_no_change(self):
        mean, std = percent_reduction([0.4, 0.3], [0.4, 0.3])
        assert mean == 0.0
        assert std == 0.0

    def test_mixed_by_hand(self):
        # reductions: 25% and 50%; sample std of [25, 50] is 17.677...
        mean, std = percent_reduction([0.4, 0.4], [0.3, 0.2])
        assert mean == pytest.approx(37.5)
        assert std == pytest.approx(float(np.std([25.0, 50.0], ddof=1)))

    def test_zero_baseline(self):
        with pytest.raises(ValueError, match="zero"):
            percent_reduction([0.0, 1.0], [0.0, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            percent_reduction([1.0], [1.0, 2.0])
