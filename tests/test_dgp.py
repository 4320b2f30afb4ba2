import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import ndtri

from npivtest.basis import BasisSpec, eval_design
from npivtest.dgp import (
    DesignConfig,
    HSpec,
    draw,
    generate,
    h_design2,
    h_mono,
    h_quad,
    h_sin,
    null_boundary,
)
from npivtest.errors import InputError
from npivtest.randdist import RngStream, std_normal_cdf
from oracles import gen_design1, gen_design2, gen_multivariate

DATA_DIR = pathlib.Path(__file__).parent / "data"


def cfg(design="I", n=1000, xi=0.5, h=None, seed=0, rep=0):
    return DesignConfig(design, n, xi, h or HSpec("mono", c0=1.0), RngStream(seed, rep))


# ------------------------------------------------------------------ h families


def test_h_mono_values():
    assert h_mono(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert h_mono(1.0, 0.0) == pytest.approx(1.0 - 2.0 * std_normal_cdf(-0.5), abs=1e-12)
    assert h_mono(1.0, 0.0) == pytest.approx(0.382925, abs=1e-6)


def test_h_mono_odd_symmetry():
    for t in (0.1, 0.23, 0.5):
        assert h_mono(0.3, 0.5 - t) == pytest.approx(-h_mono(0.3, 0.5 + t), abs=1e-13)


def test_h_mono_strictly_decreasing():
    xs = np.linspace(0.0, 1.0, 300)
    for c0 in (0.01, 0.1, 1.0):
        vals = h_mono(c0, xs)
        assert np.all(np.diff(vals) <= 0)
        # strict in the region where the normal CDF is not float-saturated
        active = np.abs(xs - 0.5) <= min(4.0 * c0, 0.49)
        assert np.all(np.diff(vals[active]) < 0)


def test_h_mono_rejects_nonpositive_c0():
    with pytest.raises(InputError):
        h_mono(0.0, 0.5)
    with pytest.raises(InputError):
        HSpec("mono", c0=-0.1)


def test_h_sin_reductions():
    xs = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(h_sin(0.0, 0.7, xs), -xs / 5.0, atol=1e-15)
    for x in (0.0, 0.5, 1.0):
        for cb in (0.0, 0.5, 1.0):
            assert h_sin(1.3, cb, x) == pytest.approx(-x / 5.0 + 1.3 * x**2, abs=1e-12)


def test_h_sin_monotonicity_threshold():
    xs = np.linspace(0.0, 1.0, 5001)

    def weakly_decreasing(c_a, c_b):
        vals = h_sin(c_a, c_b, xs)
        return np.all(np.diff(vals) <= 1e-9)

    assert weakly_decreasing(0.0999, 0.0)
    assert not weakly_decreasing(0.1012, 0.0)
    thresh = 0.1 / (1.0 + math.pi / 2.0)
    assert weakly_decreasing(0.999 * thresh, 0.5)
    assert not weakly_decreasing(1.02 * thresh, 0.5)


def test_null_boundaries_match_thresholds():
    assert null_boundary("sin", 0.0) == pytest.approx(0.1, abs=1e-6)
    assert null_boundary("sin", 0.5) == pytest.approx(0.1 / (1.0 + math.pi / 2.0), abs=1e-6)
    assert null_boundary("sin", 1.0) == pytest.approx(0.1 / (1.0 + math.pi), abs=1e-6)
    assert null_boundary("design2") == pytest.approx(0.184, abs=5e-4)
    assert null_boundary("quad") == 0.0


@given(st.floats(min_value=-1e12, max_value=1e12))
def test_sin_null_boundary_is_positive_and_finite(c_b):
    # the slope 2x + 2 pi c_b cos(2 pi x) is 2 + 2 pi c_b at x = 1 and 1 - 2 pi c_b at x = 1/2, points of the grid
    # whose slopes sum to 3, so its maximum is positive for every c_b
    assert 0.0 < null_boundary("sin", c_b) < math.inf


@pytest.mark.parametrize("call, message", [
    (lambda: cfg(n=0), "n must be an integer >= 1, got 0"),
    (lambda: null_boundary("mono"),
     "unknown h family with a null boundary 'mono'; expected one of ('sin', 'design2', 'quad')"),
], ids=["empty-sample", "mono-boundary"])
def test_dgp_input_guards(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


def test_h_design2_increasing_region():
    xs = np.linspace(0.0, 1.0, 5001)
    boundary = null_boundary("design2")
    assert np.all(np.diff(h_design2(0.99 * boundary, xs)) >= -1e-9)
    assert np.any(np.diff(h_design2(1.05 * boundary, xs)) < 0)


# -------------------------------------------------------------------- designs


def test_design1_instrument_strength():
    n = 20_000
    for xi in (0.3, 0.7):
        data = generate(cfg(n=n, xi=xi))
        x_star = ndtri(data.x)
        w_star = ndtri(data.w)
        corr = np.corrcoef(x_star, w_star)[0, 1]
        assert corr == pytest.approx(xi, abs=4.0 / math.sqrt(n))


def test_design1_uniform_marginal():
    data = generate(cfg(n=10_000))
    ks = sps.kstest(data.x, "uniform")
    assert ks.pvalue > 0.01
    assert np.all((data.x > 0) & (data.x < 1))
    assert np.all((data.w > 0) & (data.w < 1))


def test_design1_noise_variance_with_null_h():
    # c0 -> 0 makes h ~ 0, so y is dominated by the unit-variance error
    n = 20_000
    data = generate(cfg(n=n, h=HSpec("mono", c0=0.01)))
    assert data.y.var() == pytest.approx(1.0, abs=0.05)


def test_design1_instrument_validity():
    n = 20_000
    data = generate(cfg(n=n, h=HSpec("mono", c0=0.5)))
    u = data.y - h_mono(0.5, data.x)
    b = eval_design(BasisSpec("bspline", 8, 3), data.w)
    coef, *_ = np.linalg.lstsq(b, u, rcond=None)
    fitted = b @ coef
    assert np.sqrt(np.mean(fitted**2)) <= 4.0 / math.sqrt(n)


def test_design2_noise_variance():
    n = 20_000
    data = generate(cfg(design="II", n=n, h=HSpec("design2", c_a=0.0)))
    u = data.y - h_design2(0.0, data.x)
    assert u.var() == pytest.approx(0.25, abs=3.0 / math.sqrt(n))
    assert np.all((data.x > 0) & (data.x < 1))


def test_design2_golden_snapshot():
    data = generate(DesignConfig("II", 8, 0.5, HSpec("design2", c_a=0.1), RngStream(2024, 5)))
    got = {
        "y": data.y.tolist(),
        "x": data.x.tolist(),
        "w": data.w.tolist(),
    }
    expected = json.loads((DATA_DIR / "golden_design2_n8.json").read_text())
    for key in ("y", "x", "w"):
        np.testing.assert_allclose(got[key], expected[key], rtol=0, atol=1e-15)


def test_multivariate_correlations():
    n = 30_000
    data = generate(cfg(design="multivariate", n=n, xi=0.5, h=HSpec("quad", c_a=0.3)))
    assert data.w.shape == (n, 2)
    x_star = ndtri(data.x)
    w1_star = ndtri(data.w[:, 0])
    w2_star = ndtri(data.w[:, 1])
    tol = 4.0 / math.sqrt(n)
    assert np.corrcoef(x_star, w1_star)[0, 1] == pytest.approx(0.5, abs=tol)
    assert np.corrcoef(x_star, w2_star)[0, 1] == pytest.approx(0.4, abs=tol)
    assert np.corrcoef(w1_star, w2_star)[0, 1] == pytest.approx(0.0, abs=tol)


def test_multivariate_linear_when_ca_zero():
    xs = np.linspace(0, 1, 11)
    np.testing.assert_allclose(h_quad(0.0, xs), -xs / 5.0, atol=1e-15)


def test_generate_dispatch_and_determinism():
    for design in ("I", "II", "multivariate"):
        a = generate(cfg(design=design, n=50, rep=9))
        b = generate(cfg(design=design, n=50, rep=9))
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.w, b.w)
        c = generate(cfg(design=design, n=50, rep=10))
        assert not np.array_equal(a.y, c.y)


def test_design_config_validation():
    with pytest.raises(InputError):
        DesignConfig("III", 100, 0.5, HSpec("mono"), RngStream(0, 0))
    with pytest.raises(InputError):
        DesignConfig("I", 100, 1.5, HSpec("mono"), RngStream(0, 0))


def test_dataset_carries_provenance():
    c = cfg(n=40)
    data = generate(c)
    assert data.config is c
    assert data.n == 40


# ------------------------------------------------------ the pre-draw generators

ORACLE = {"I": gen_design1, "II": gen_design2, "multivariate": gen_multivariate}
H_FAMILIES = {  # two h families per design
    "I": (HSpec("mono", c0=0.1), HSpec("sin", c_a=0.6, c_b=0.5)),
    "II": (HSpec("design2", c_a=0.1), HSpec("mono", c0=1.0)),
    "multivariate": (HSpec("quad", c_a=0.3), HSpec("sin", c_a=1.0, c_b=1.0)),
}


@pytest.mark.parametrize("design", sorted(ORACLE))
@pytest.mark.parametrize("n", (20, 500, 5000))
def test_generate_matches_the_pre_draw_generators(design, n):
    streams = (RngStream(0, 0), RngStream(3, 7), RngStream(2024, 2**31 + 5))
    for xi, stream, h in itertools.product((0.3, 0.5, 0.7), streams, H_FAMILIES[design]):
        c = DesignConfig(design, n, xi, h, stream)
        want, got = ORACLE[design](c), generate(c)
        for key in ("y", "x", "w"):
            assert np.array_equal(getattr(got, key), getattr(want, key))
        x, w, _ = draw(c)
        assert np.array_equal(x, want.x) and np.array_equal(w, want.w)


@pytest.mark.parametrize("design", sorted(ORACLE))
def test_draw_does_not_depend_on_h(design):
    # the tasks of a Monte Carlo row that differ only in h may share one draw per replication
    first, second = (draw(cfg(design=design, n=200, h=h, rep=4)) for h in H_FAMILIES[design])
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
