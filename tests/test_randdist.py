import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from npivtest.errors import InputError
from npivtest.randdist import (
    CovarianceSpec,
    RngStream,
    chisq_quantile,
    chisq_sf,
    mvn_sample,
    std_normal_cdf,
)

from oracles import chisq_cdf, chisq_quantile_bisect, normal_cdf


def test_normal_cdf_center_and_symmetry():
    assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    for x in (-2.3, -0.7, 0.4, 1.9):
        assert std_normal_cdf(x) == pytest.approx(1.0 - std_normal_cdf(-x), abs=1e-14)


def test_normal_cdf_against_erf_reference():
    for x in np.linspace(-6.0, 6.0, 101):
        assert abs(std_normal_cdf(x) - normal_cdf(x)) <= 1e-12


def test_normal_cdf_975_point():
    assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_chisq_quantile_exponential_closed_form():
    # chi-square with 2 df is Exp(1/2): upper-a quantile is -2 ln a
    assert chisq_quantile(math.exp(-1.0), 2) == pytest.approx(2.0, abs=1e-10)
    assert chisq_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0), abs=1e-10)


def test_chisq_quantile_reference_point():
    assert chisq_quantile(0.05, 3) == pytest.approx(7.814728, abs=1e-5)
    assert chisq_quantile(0.05, 3) == pytest.approx(chisq_quantile_bisect(0.05, 3), abs=1e-8)


def test_chisq_quantile_domain():
    with pytest.raises(InputError):
        chisq_quantile(0.0, 3)
    with pytest.raises(InputError):
        chisq_quantile(1.0, 3)
    with pytest.raises(InputError):
        chisq_quantile(0.05, 0)


def test_chisq_roundtrip_grid():
    # acceptance-grade grid: hand-coded incomplete-gamma CDF inverts the quantile
    for a in (0.9, 0.5, 0.1, 0.05, 0.01, 0.001):
        for k in range(1, 65):
            q = chisq_quantile(a, k)
            assert abs(chisq_cdf(q, k) - (1.0 - a)) <= 1e-9, (a, k)


def test_chisq_quantile_monotonicity():
    a_grid = (0.9, 0.5, 0.2, 0.1, 0.05, 0.01)
    for k in (1, 2, 5, 17, 40, 64):
        vals = [chisq_quantile(a, k) for a in a_grid]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    for a in a_grid:
        vals = [chisq_quantile(a, k) for k in range(1, 65)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_chisq_sf_edges():
    assert chisq_sf(-1.0, 4) == 1.0
    assert chisq_sf(0.0, 4) == 1.0
    assert chisq_sf(1e9, 4) == pytest.approx(0.0, abs=1e-12)


@given(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=0, max_value=1000))
def test_stream_determinism(seed, stream_id):
    a = RngStream(seed, stream_id).generator().standard_normal(8)
    b = RngStream(seed, stream_id).generator().standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(7, 0).generator().standard_normal(16)
    b = RngStream(7, 1).generator().standard_normal(16)
    assert not np.allclose(a, b)


def test_stream_rejects_negative_id():
    with pytest.raises(InputError):
        RngStream(1, -1)


def test_mvn_scalar_unit_variance():
    draws = mvn_sample(CovarianceSpec(np.eye(1)), RngStream(11, 0), 100_000)
    assert abs(draws.mean()) <= 4.0 / math.sqrt(100_000)
    assert draws.std() == pytest.approx(1.0, abs=0.02)


def test_mvn_identity_cross_correlations():
    n = 100_000
    draws = mvn_sample(CovarianceSpec(np.eye(3)), RngStream(12, 0), n)
    corr = np.corrcoef(draws.T)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) <= 4.0 / math.sqrt(n))


def test_mvn_instrument_strength_block():
    n = 100_000
    cov = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.0], [0.3, 0.0, 1.0]])
    draws = mvn_sample(CovarianceSpec(cov), RngStream(13, 0), n)
    corr = np.corrcoef(draws.T)
    assert corr[0, 1] == pytest.approx(0.5, abs=4.0 / math.sqrt(n))
    for i in range(3):
        for j in range(3):
            assert corr[i, j] == pytest.approx(cov[i, j], abs=0.02)


def test_covariance_validation():
    with pytest.raises(InputError):
        CovarianceSpec(np.array([[1.0, 2.0], [2.0, 1.0]])).cholesky()  # not PSD
    with pytest.raises(InputError):
        CovarianceSpec(np.array([[1.0, 0.1], [0.2, 1.0]]))  # asymmetric


@pytest.mark.parametrize("call, message", [
    (lambda: CovarianceSpec(np.ones((2, 3))), "covariance must be square, got shape (2, 3)"),
    (lambda: CovarianceSpec(np.array([[1.0, np.nan], [np.nan, 1.0]])), "covariance contains non-finite entries"),
    (lambda: chisq_sf(1.0, 0), "degrees of freedom k must be an integer >= 1, got 0"),
    (lambda: mvn_sample(CovarianceSpec(np.eye(2)), RngStream(0), 0), "sample size n must be an integer >= 1, got 0"),
], ids=["non-square-covariance", "non-finite-covariance", "chisq-sf-df", "empty-sample"])
def test_randdist_input_guards(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message
