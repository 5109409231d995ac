import math

import numpy as np
import pytest

from denoisekit import KERNEL_KINDS, Kernel, sample_table, samples_to_csv
from denoisekit.kernels import REDESCENDING_KINDS, UNDEFINED_AT_ZERO

# the argument where each piecewise kind changes branch
def breakpoint(kind, sigma):
    if kind == "truncated_l2":
        return math.sqrt(sigma)
    if kind in ("truncated_l1", "huber", "tukey", "box", "centin_rational"):
        return sigma
    return None


def grid(sigma=1.0, kind=None):
    xs = np.arange(1, 61) * 0.05 * sigma
    b = breakpoint(kind, sigma)
    return xs if b is None else xs[np.abs(xs - b) > 1e-3 * sigma]


# ----------------------------------------------------------------------
# construction

def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Kernel("cauchy")


def test_nonpositive_sigma_rejected():
    """An infinite sigma gave every weight 0 and left the normals unchanged."""
    for sigma in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="kernel sigma must be finite and > 0"):
            Kernel("gaussian", sigma)


def test_box_floor_range():
    with pytest.raises(ValueError):
        Kernel("box", 1.0, box_floor=-0.1)
    with pytest.raises(ValueError):
        Kernel("box", 1.0, box_floor=1.5)
    Kernel("box", 1.0, box_floor=0.1)


def test_differentiable_flag():
    assert not Kernel("l1").differentiable
    assert not Kernel("truncated_l1").differentiable
    assert Kernel("gaussian").differentiable


# ----------------------------------------------------------------------
# pinned values

def test_gaussian_rho_values():
    k = Kernel("gaussian", 1.0)
    assert k.rho(0.0) == 0.0
    assert abs(k.rho(1.0) - (1.0 - math.exp(-1.0))) < 1e-15


def test_tukey_rho_plateau():
    k = Kernel("tukey", 1.0)
    assert abs(k.rho(2.0) - 1.0 / 3.0) < 1e-15
    assert abs(k.rho(1.5) - 1.0 / 3.0) < 1e-15


def test_box_rho_is_integral_of_weight():
    # rho(x) = int_0^x x' g(x') dx' with g = 1 inside, floor outside
    k = Kernel("box", 1.0, box_floor=0.1)
    assert abs(k.rho(0.5) - 0.125) < 1e-15
    assert abs(k.rho(2.0) - 0.65) < 1e-15
    # numeric cross-check of the closed form
    xs = np.linspace(0, 2.0, 200001)
    num = np.trapezoid(xs * k.weight(xs), xs)
    assert abs(num - k.rho(2.0)) < 1e-4  # step discontinuity limits quadrature


def test_centin_rho_matches_numeric_integral():
    k = Kernel("centin_rational", 0.7)
    for x in (0.3, 0.7 + 1e-6, 1.5, 3.0):
        xs = np.linspace(0, x, 200001)
        num = np.trapezoid(xs * k.weight(xs), xs)
        assert abs(num - float(k.rho(x))) < 1e-6


def test_huber_psi_values():
    k = Kernel("huber", 1.0)
    assert abs(k.psi(0.5) - 0.5) < 1e-15
    assert abs(k.psi(2.0) - 1.0) < 1e-15


def test_gaussian_psi_redescends():
    k = Kernel("gaussian", 1.0)
    assert abs(float(k.psi(10.0)) - 20.0 * math.exp(-100.0)) < 1e-50


def test_tukey_psi_zero_beyond_sigma():
    assert float(Kernel("tukey", 1.0).psi(1.5)) == 0.0


def test_weight_values():
    assert float(Kernel("lorentzian", 1.0).weight(0.0)) == 1.0
    assert abs(float(Kernel("l1").weight(2.0)) - 0.5) < 1e-15
    k = Kernel("box", math.pi / 6.0, box_floor=0.1)
    assert float(k.weight(math.pi / 4.0)) == 0.1
    assert float(k.weight(math.pi / 8.0)) == 1.0


def test_huber_weight_quarter_sigma():
    k = Kernel("huber", 0.25)
    assert float(k.weight(0.0)) == 4.0
    assert abs(float(k.weight(1.0)) - 1.0) < 1e-15


def test_weight_limits_at_zero():
    limits = {
        "l2": 2.0,
        "gaussian": 2.0,
        "lorentzian": 1.0,
        "tukey": 2.0,
        "huber": 1.0,
        "box": 1.0,
        "centin_rational": 1.0,
        "truncated_l2": 2.0,
    }
    for kind, expect in limits.items():
        assert float(Kernel(kind, 1.0).weight(0.0)) == expect, kind


def test_l1_family_nan_at_zero():
    for kind in UNDEFINED_AT_ZERO:
        k = Kernel(kind, 1.0)
        assert math.isnan(float(k.psi(0.0)))
        assert math.isnan(float(k.weight(0.0)))
        assert math.isfinite(float(k.psi(0.5)))


# ----------------------------------------------------------------------
# identities and invariants

@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("sigma", [0.35, 1.0, 2.5])
def test_identity_g_times_x_equals_psi(kind, sigma):
    k = Kernel(kind, sigma, box_floor=0.1 if kind == "box" else 0.0)
    xs = np.linspace(1e-4, 5.0 * sigma, 400)
    err = np.abs(k.weight(xs) * xs - k.psi(xs))
    assert np.nanmax(err) < 1e-12


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_psi_is_derivative_of_rho(kind):
    """The independent check of g, since psi is x * g: central differences
    of rho at sigma from 0.05 to 20, away from the kind's own breakpoint,
    with a step scaled by sigma."""
    for sigma in (0.05, 0.2, 0.35, 1.0, 2.5, 7.0, 20.0):
        k = Kernel(kind, sigma, box_floor=0.1 if kind == "box" else 0.0)
        h = 1e-6 * sigma
        xs = grid(sigma, kind=kind)
        num = (k.rho(xs + h) - k.rho(xs - h)) / (2.0 * h)
        psi = k.psi(xs)
        assert np.max(np.abs(psi - num)) < 1e-7 * np.max(np.abs(psi)), sigma


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_rho_monotone_nondecreasing(kind):
    k = Kernel(kind, 1.0, box_floor=0.1 if kind == "box" else 0.0)
    xs = np.linspace(0, 4.0, 500)
    r = k.rho(xs)
    assert np.all(np.diff(r) >= -1e-14)


def test_rho_plateaus_bounded():
    xs = np.linspace(0, 10.0, 200)
    assert np.all(Kernel("gaussian", 1.0).rho(xs) <= 1.0 + 1e-15)
    assert np.all(Kernel("tukey", 1.0).rho(xs) <= 1.0 / 3.0 + 1e-15)
    assert np.all(Kernel("truncated_l2", 0.8).rho(xs) <= 0.8 + 1e-15)
    assert np.all(Kernel("truncated_l1", 0.8).rho(xs) <= 0.8 + 1e-15)


def test_redescending_classification():
    # fast decay: negligible influence already at 100 sigma
    for kind in ("gaussian", "tukey", "truncated_l1"):
        k = Kernel(kind, 1.0)
        peak = np.nanmax(np.abs(k.psi(grid(kind=kind))))
        assert float(k.psi(100.0)) < 1e-6 * peak, kind
    # rational tails decay like 1/x: still vanishing, just slowly
    for kind in ("lorentzian", "centin_rational"):
        k = Kernel(kind, 1.0)
        peak = np.nanmax(np.abs(k.psi(grid(kind=kind))))
        assert float(k.psi(1e8)) < 1e-6 * peak, kind
    # non-redescending kinds keep full influence at large arguments
    for kind in ("huber", "l1", "l2"):
        k = Kernel(kind, 1.0)
        peak = np.nanmax(np.abs(k.psi(grid(kind=kind))))
        assert float(k.psi(100.0)) >= peak, kind
    # truncated kinds vanish exactly beyond sigma
    assert float(Kernel("tukey", 1.0).psi(1.001)) == 0.0
    assert float(Kernel("truncated_l1", 1.0).psi(1.001)) == 0.0


# ----------------------------------------------------------------------
# sampling / CSV

def test_sample_table_endpoints():
    rows = sample_table(Kernel("gaussian", 1.0), 4.0, 2)
    assert [r.x for r in rows] == [0.0, 4.0]


def test_sample_table_identity_rows():
    for kind in ("gaussian", "huber", "box"):
        k = Kernel(kind, 0.5, box_floor=0.1 if kind == "box" else 0.0)
        for r in sample_table(k, 2.0, 33):
            if r.x > 0:
                assert abs(r.g * r.x - r.psi) < 1e-12


def test_sample_table_validation():
    with pytest.raises(ValueError):
        sample_table(Kernel("gaussian"), 4.0, 1)
    for x_max in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="x_max must be finite and > 0"):
            sample_table(Kernel("gaussian"), x_max, 10)


def test_csv_header_and_nan_token():
    text = samples_to_csv(sample_table(Kernel("l1"), 2.0, 3))
    lines = text.strip().splitlines()
    assert lines[0] == "x,rho,psi,g"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[2] == "nan" and first[3] == "nan"
    last = lines[3].split(",")
    assert float(last[3]) == 0.5
