"""Signed-rank testing, effect sizes, and the comparison verdict."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from knnavg.core import ContractViolationError, RngStream
from knnavg.metrics import MetricReport
from knnavg.stats import (
    EXACT_LIMIT,
    HIGHER_IS_BETTER,
    METRICS,
    MIN_PAIRS,
    ComparisonVerdict,
    Verdict,
    WilcoxonResult,
    _average_ranks,
    compare_setting,
    vargha_delaney_a12,
    wilcoxon_signed_rank,
)


class TestWilcoxonSignedRank:
    def test_six_onesided_pairs(self):
        # all six differences positive: the most extreme table, p = 2/2^6
        result = wilcoxon_signed_rank([2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [1.0] * 6)
        assert result.p_value == pytest.approx(0.03125, abs=1e-12)
        assert result.sufficient
        assert result.n_pairs == 6

    def test_hand_enumerated_five_pairs(self):
        # |d| = (1, 2, 3, 4, 5), all positive: W+ = 15, p = 2 * (1/32)
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert result.statistic == 15.0
        assert result.p_value == pytest.approx(2.0 / 32.0, abs=1e-12)

    def test_hand_enumerated_with_midranks(self):
        # |d| = (1, 1, 2, 3, 4): midranks (1.5, 1.5, 3, 4, 5). All signs
        # positive puts W+ at the maximum 15; exactly one of the 32 sign
        # patterns reaches it from above, so p = 2/32 despite the tie.
        result = wilcoxon_signed_rank([1.0, 1.0, 2.0, 3.0, 4.0], [0.0] * 5)
        assert result.statistic == pytest.approx(15.0)
        assert result.p_value == pytest.approx(2.0 / 32.0, abs=1e-12)

    def test_midrank_statistic_can_be_fractional(self):
        # signs (+, -, +, +, +) on |d| = (1, 1, 2, 3, 4): W+ = 13.5
        result = wilcoxon_signed_rank([1.0, -1.0, 2.0, 3.0, 4.0], [0.0] * 5)
        assert result.statistic == pytest.approx(13.5)

    def test_zero_differences_dropped(self):
        result = wilcoxon_signed_rank(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.9, 9.9], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 9.9, 9.9]
        )
        assert result.n_pairs == 6

    def test_insufficient_pairs_flagged(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 0.5, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5, 0.5])
        assert not result.sufficient
        assert np.isnan(result.p_value)
        assert result.n_pairs == 2

    def test_all_equal_samples_flagged(self):
        result = wilcoxon_signed_rank([1.0] * 8, [1.0] * 8)
        assert not result.sufficient
        assert result.n_pairs == 0

    def test_too_short_input_rejected(self):
        with pytest.raises(ContractViolationError):
            wilcoxon_signed_rank([1.0, 2.0], [0.0, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            wilcoxon_signed_rank([1.0] * 6, [0.0] * 5)

    def test_exact_path_matches_reference(self):
        # tie-free samples, n in the exact range, against scipy's exact mode
        rng = RngStream(111)
        for trial in range(120):
            n = int(rng.integers(EXACT_LIMIT - MIN_PAIRS)) + MIN_PAIRS
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            diff = a - b
            if np.unique(np.abs(diff)).size != n or np.any(diff == 0.0):
                continue
            ours = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, mode="exact")
            assert ours.p_value == pytest.approx(float(ref.pvalue), abs=1e-14), trial

    def test_approx_path_matches_reference(self):
        # larger samples, including rounded data with ties, against scipy's
        # normal approximation with continuity correction
        rng = RngStream(112)
        for trial in range(120):
            n = EXACT_LIMIT + 1 + int(rng.integers(30))
            a = np.round(rng.standard_normal(n), 1)
            b = np.round(rng.standard_normal(n), 1)
            if np.count_nonzero(a - b) <= EXACT_LIMIT:
                # dropping zero differences would switch us to the exact path
                continue
            ours = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(
                a, b, zero_method="wilcox", correction=True, mode="approx"
            )
            assert ours.p_value == pytest.approx(float(ref.pvalue), abs=1e-12), trial

    def test_p_values_uniform_under_null(self):
        # under the null hypothesis p is stochastically no smaller than
        # uniform; check the rejection rate at the 5% level
        rng = RngStream(113)
        rejections = 0
        sims = 1000
        for _ in range(sims):
            a = rng.standard_normal(12)
            b = rng.standard_normal(12)
            if wilcoxon_signed_rank(a, b).p_value < 0.05:
                rejections += 1
        # binomial(1000, <=0.05): 3 standard deviations above mean is ~71
        assert rejections <= 71

    def test_scale_invariance(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.5, 0.25])
        b = np.array([0.5, 2.5, 1.0, 3.0, 6.0, 6.0, 0.5])
        assert wilcoxon_signed_rank(a, b).p_value == wilcoxon_signed_rank(
            a * 1000.0, b * 1000.0
        ).p_value

    def test_symmetry_in_arguments(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.5])
        b = np.array([0.5, 2.5, 1.0, 3.0, 6.0, 6.0])
        assert wilcoxon_signed_rank(a, b).p_value == pytest.approx(
            wilcoxon_signed_rank(b, a).p_value, abs=1e-14
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ContractViolationError, match="finite"):
            wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, bad], [0.0] * 5)


class TestAverageRanks:
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                st.floats(0.0, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_bitwise_equal_to_rankdata(self, values):
        # scipy stays the oracle; the small pool forces ties and duplicates,
        # and one-element lists cover a single value
        values = np.array(values)
        got = _average_ranks(values)
        assert got.tobytes() == scipy.stats.rankdata(values).tobytes()
        assert np.all(got * 2.0 == np.rint(got * 2.0))

    def test_hand_value_with_ties(self):
        ranks = _average_ranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0]))
        assert ranks.tolist() == [4.0, 1.0, 4.0, 2.0, 4.0]


class TestVarghaDelaneyA12:
    def test_hand_value(self):
        # pairs: 1>1 no (tie, half), 1>3 no, 2>1 yes, 2>3 no: (1 + 0.5)/4
        assert vargha_delaney_a12([1.0, 2.0], [1.0, 3.0]) == 0.375

    def test_identical_samples(self):
        assert vargha_delaney_a12([2.0, 2.0], [2.0, 2.0]) == 0.5

    def test_disjoint_samples(self):
        assert vargha_delaney_a12([10.0, 11.0], [1.0, 2.0]) == 1.0
        assert vargha_delaney_a12([1.0, 2.0], [10.0, 11.0]) == 0.0

    def test_complement_identity(self):
        rng = RngStream(114)
        for _ in range(50):
            a = rng.standard_normal(7)
            b = rng.standard_normal(9)
            assert vargha_delaney_a12(a, b) + vargha_delaney_a12(b, a) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = RngStream(115)
        for _ in range(30):
            a = rng.random(6) * 4.0
            b = rng.random(8) * 4.0
            assert vargha_delaney_a12(np.exp(a), np.exp(b)) == pytest.approx(
                vargha_delaney_a12(a, b), abs=1e-12
            )

    def test_empty_sample_rejected(self):
        with pytest.raises(ContractViolationError):
            vargha_delaney_a12([], [1.0])


def reports(hv, igd, df):
    return [
        MetricReport(
            hv_mean_adjusted=h,
            igd_mean_adjusted=i,
            delta_f=d,
            reference_point=(11.0, 11.0),
            front_sample_size=1000,
        )
        for h, i, d in zip(hv, igd, df)
    ]


def shifted_reports(rng, n, hv_shift=0.0, igd_shift=0.0, df_shift=0.0):
    hv = 100.0 + rng.standard_normal(n) + hv_shift
    igd = np.abs(1.0 + 0.1 * rng.standard_normal(n) + igd_shift)
    df = np.abs(1.0 + 0.1 * rng.standard_normal(n) + df_shift)
    return reports(hv, igd, df)


class TestCompareSetting:
    def test_consistent_reduction_wins(self):
        rng = RngStream(116)
        base = shifted_reports(rng, 30)
        knn = shifted_reports(rng, 30, df_shift=-0.5)
        verdict = compare_setting(knn, base, "delta_f")
        assert verdict.verdict is Verdict.BETTER
        assert verdict.p_value < 0.05
        assert verdict.a12 < 0.5

    def test_consistent_increase_loses(self):
        rng = RngStream(117)
        base = shifted_reports(rng, 30)
        knn = shifted_reports(rng, 30, df_shift=+0.5)
        verdict = compare_setting(knn, base, "delta_f")
        assert verdict.verdict is Verdict.WORSE

    def test_hypervolume_orientation(self):
        rng = RngStream(118)
        base = shifted_reports(rng, 30)
        taller = shifted_reports(rng, 30, hv_shift=+5.0)
        assert compare_setting(taller, base, "hv").verdict is Verdict.BETTER
        shorter = shifted_reports(rng, 30, hv_shift=-5.0)
        assert compare_setting(shorter, base, "hv").verdict is Verdict.WORSE

    def test_igd_orientation(self):
        rng = RngStream(119)
        base = shifted_reports(rng, 30)
        lower = shifted_reports(rng, 30, igd_shift=-0.5)
        assert compare_setting(lower, base, "igd").verdict is Verdict.BETTER

    def test_identical_runs_equivalent(self):
        rng = RngStream(120)
        base = shifted_reports(rng, 20)
        verdict = compare_setting(base, base, "hv")
        assert verdict.verdict is Verdict.EQUIVALENT
        assert verdict.insufficient

    def test_tiny_noise_is_equivalent(self):
        rng = RngStream(121)
        base = shifted_reports(rng, 12)
        jitter = [
            MetricReport(
                r.hv_mean_adjusted + float(rng.standard_normal(1)[0]) * 1e-9,
                r.igd_mean_adjusted,
                r.delta_f,
                r.reference_point,
                r.front_sample_size,
            )
            for r in base
        ]
        assert compare_setting(jitter, base, "hv").verdict is Verdict.EQUIVALENT

    def test_detection_power_on_clear_shift(self):
        # a two-sigma shift over 30 paired runs is detected essentially always
        rng = RngStream(122)
        detected = 0
        sims = 200
        for _ in range(sims):
            base = shifted_reports(rng, 30)
            knn = shifted_reports(rng, 30, hv_shift=2.0)
            if compare_setting(knn, base, "hv").verdict is Verdict.BETTER:
                detected += 1
        assert detected >= 0.95 * sims

    def test_unpaired_lengths_rejected(self):
        rng = RngStream(123)
        with pytest.raises(ContractViolationError):
            compare_setting(shifted_reports(rng, 10), shifted_reports(rng, 9), "hv")

    def test_unknown_metric_rejected(self):
        rng = RngStream(124)
        base = shifted_reports(rng, 6)
        with pytest.raises(ContractViolationError):
            compare_setting(base, base, "spread")

    def test_alpha_validated(self):
        rng = RngStream(125)
        base = shifted_reports(rng, 6)
        with pytest.raises(ContractViolationError):
            compare_setting(base, base, "hv", alpha=0.0)
        with pytest.raises(ContractViolationError):
            compare_setting(base, base, "hv", alpha=1.0)

    def test_alpha_threshold_respected(self):
        # the same data flips to equivalent under a stricter alpha
        rng = RngStream(126)
        base = shifted_reports(rng, 8)
        knn = shifted_reports(rng, 8, df_shift=-0.4)
        loose = compare_setting(knn, base, "delta_f", alpha=0.05)
        strict = compare_setting(knn, base, "delta_f", alpha=1e-6)
        assert loose.verdict is Verdict.BETTER
        assert strict.verdict is Verdict.EQUIVALENT

    def test_metric_catalogue(self):
        assert METRICS == ("hv", "igd", "delta_f")
        assert HIGHER_IS_BETTER == {"hv": True, "igd": False, "delta_f": False}
