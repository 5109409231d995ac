import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from denoisekit import (
    FilterSpec,
    Kernel,
    NeighborhoodSpec,
    TriMesh,
    add_noise,
    energy,
    filter_gradient_descent,
    filter_normals,
    guidance_normals,
    make_cube,
    make_plane,
    vector_directional_median,
    vector_median,
)
from denoisekit.meshfilter import METHODS, PRESET
from conftest import max_angle, rotation_matrix

PRESET_SIGMAS = {"yadav_box_2017": math.radians(30.0),
                 "tasdizen": math.radians(30.0),
                 "belyaev_ohtake": 1.0}


def preset(method, **kw):
    return FilterSpec.preset(method, sigma=PRESET_SIGMAS.get(method, 0.35), **kw)


# ----------------------------------------------------------------------
# FilterSpec

def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        FilterSpec("magic", Kernel("gaussian"))


def test_preset_pins_kernel_kind():
    with pytest.raises(ValueError):
        FilterSpec("belyaev_ohtake", Kernel("tukey"), argument="angle_per_distance")


def test_preset_pins_argument():
    with pytest.raises(ValueError):
        FilterSpec("zheng_bilateral", Kernel("gaussian"), spatial_sigma="auto",
                   argument="angle")


def test_box_floor_pinned():
    with pytest.raises(ValueError):
        FilterSpec("yadav_box_2017", Kernel("box", 0.5, box_floor=0.0),
                   argument="angle")
    FilterSpec("yadav_box_2017", Kernel("box", 0.5, box_floor=0.1), argument="angle")


def test_bilateral_needs_spatial_sigma():
    with pytest.raises(ValueError):
        FilterSpec("zheng_bilateral", Kernel("gaussian"))


def test_step_lambda_range():
    with pytest.raises(ValueError):
        FilterSpec("gradient_descent", Kernel("gaussian"), step_lambda=0.0)
    with pytest.raises(ValueError):
        FilterSpec("gradient_descent", Kernel("gaussian"), step_lambda=1.5)


def test_gradient_descent_rejects_l1():
    with pytest.raises(ValueError):
        FilterSpec("gradient_descent", Kernel("l1"), step_lambda=0.05)


def test_iterations_positive():
    with pytest.raises(ValueError):
        FilterSpec("generic_unilateral", Kernel("gaussian"), iterations=0)


@pytest.mark.parametrize("method", METHODS)
def test_spec_text_roundtrip(method):
    spec = preset(method, iterations=3)
    again = FilterSpec.from_text(spec.to_text())
    assert again == spec


POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def filter_specs(draw):
    """A spec of any row of ``PRESET``, face or point, on any neighbourhood
    its domain takes, with numeric or "auto" sigmas where the row allows them."""
    method = draw(st.sampled_from(tuple(PRESET)))
    row = PRESET[method]
    if row.domain == "points":
        mode, include_self = draw(st.sampled_from(("knn", "radius"))), True
    else:
        mode = draw(st.sampled_from(("shared_vertex", "shared_edge", "radius")))
        include_self = draw(st.booleans())
    radius = draw(POSITIVE if mode == "radius" else st.none() | POSITIVE)
    k = draw(st.integers(1, 64)) if mode == "knn" else None
    sigma = st.floats(1e-3, 10.0)
    if row.auto_sigma:
        sigma |= st.just("auto")
    spatial = st.just("auto") | POSITIVE
    if row.spatial in (None, "area"):
        spatial |= st.none()
    return FilterSpec.preset(
        method, sigma=draw(sigma),
        neighborhood=NeighborhoodSpec(mode, radius, include_self, k),
        spatial_sigma=draw(spatial), iterations=draw(st.integers(1, 100)),
        step_lambda=draw(st.floats(0.0, 1.0, exclude_min=True)),
        guidance_threshold=draw(st.floats(0.01, 3.1)))


@settings(max_examples=200, deadline=None)
@given(filter_specs())
# the threshold was written in degrees: this one read back 1 ulp larger
@example(preset("zhang_guided", guidance_threshold=0.7302309512958995))
def test_drawn_spec_text_roundtrip(spec):
    assert FilterSpec.from_text(spec.to_text()) == spec


def test_from_text_bad_line():
    with pytest.raises(ValueError, match="line"):
        FilterSpec.from_text("method=generic_unilateral\nbogus\n")


def test_from_text_rejects_unknown_key():
    """A misspelt key is an error, not a silent default."""
    text = preset("zheng_bilateral", iterations=20).to_text().replace("iterations=", "iteratons=")
    with pytest.raises(ValueError, match="line 10: unknown key 'iteratons'"):
        FilterSpec.from_text(text)


@pytest.mark.parametrize("key", ["method", "kernel", "sigma"])
def test_from_text_names_a_missing_key(key):
    """A text without one of these raised a bare KeyError."""
    text = "".join(line + "\n" for line in preset("tasdizen").to_text().splitlines()
                   if not line.startswith(f"{key}="))
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        FilterSpec.from_text(text)


def test_auto_kernel_reads_back_from_text():
    spec = FilterSpec.preset("li_bilateral", sigma="auto")
    assert spec.range_kernel == "auto"
    assert "sigma=auto\n" in spec.to_text()
    assert FilterSpec.from_text(spec.to_text()) == spec


def test_preset_names_an_unknown_method():
    """``preset`` raised a bare KeyError."""
    with pytest.raises(ValueError, match="unknown method 'bogus'; valid: .*'li_bilateral'"):
        FilterSpec.preset("bogus")


def test_mesh_rows_reject_knn():
    with pytest.raises(ValueError, match="takes no knn neighborhood"):
        preset("zheng_bilateral", neighborhood=NeighborhoodSpec("knn", k=8))


@pytest.mark.parametrize("value", [0.0, -0.5, math.inf, math.nan, "0.5"])
def test_spatial_sigma_must_be_finite_and_positive(value):
    """Zero gave zero weights everywhere and a negative value acted as its
    absolute value; only "auto", None or a finite number > 0 pass."""
    with pytest.raises(ValueError, match="spatial_sigma must be finite and > 0"):
        preset("zheng_bilateral", spatial_sigma=value)
    for ok in ("auto", 0.2):
        preset("zheng_bilateral", spatial_sigma=ok)


# ----------------------------------------------------------------------
# vector medians

def test_vector_median_singleton():
    v, i = vector_median([[0, 0, 1]])
    assert i == 0


def test_vector_median_majority():
    a, b = [0, 0, 1], [1, 0, 0]
    v, i = vector_median([a, a, b])
    assert np.array_equal(v, a)


def test_vector_median_tie_lowest_index():
    basis = np.eye(3)
    v, i = vector_median(basis)
    assert i == 0


def test_vector_median_weights_shift_choice():
    a = np.array([0, 0, 1.0])
    b = np.array([1.0, 0, 0])
    # heavy weight on b's slot pulls the winner toward whoever is close to b
    _, i = vector_median([a, a, b], weights=[1, 1, 10])
    assert i == 2


def test_vector_median_empty():
    with pytest.raises(ValueError):
        vector_median([])


def test_vector_median_matches_bruteforce():
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(50):
        n = rng.normal(size=(7, 3))
        n /= np.linalg.norm(n, axis=1)[:, None]
        _, i = vector_median(n)
        sums = [sum(np.linalg.norm(n[j] - n[k]) for k in range(7)) for j in range(7)]
        assert i == int(np.argmin(sums))


def test_directional_median_planar_fan():
    angs = np.radians([0.0, 10.0, 20.0, 30.0, 90.0])
    n = np.column_stack([np.sin(angs), np.zeros(5), np.cos(angs)])
    _, i = vector_directional_median(n)
    assert i == 2


def test_directional_median_majority():
    a, b = [0, 0, 1.0], [1.0, 0, 0]
    _, i = vector_directional_median([a, a, b])
    assert i == 0


# ----------------------------------------------------------------------
# averaging engine

def test_single_neighbor_gaussian_oracle(bent_pair):
    spec = FilterSpec.preset("generic_unilateral", sigma=1.0)
    out = filter_normals(bent_pair, spec).normals
    w_far = 2.0 * math.exp(-2.0)
    expect = np.array([w_far, 0.0, 2.0])
    expect /= np.linalg.norm(expect)
    assert np.max(np.abs(out[0] - expect)) < 1e-9
    assert abs(expect[0] - 0.13411) < 1e-5 and abs(expect[2] - 0.99097) < 1e-5


def test_symmetric_pair_average():
    th = 0.4
    normals = np.array([
        [0.0, 0.0, 1.0],
        [math.sin(th), 0.0, math.cos(th)],
        [-math.sin(th), 0.0, math.cos(th)],
    ])
    w = Kernel("gaussian", 1.0).weight(np.linalg.norm(normals - normals[0], axis=1))
    acc = (w[:, None] * normals).sum(axis=0)
    acc /= np.linalg.norm(acc)
    assert np.max(np.abs(acc - [0, 0, 1])) < 1e-12


@pytest.mark.parametrize("method", [m for m in METHODS if m != "gradient_descent"])
def test_constant_field_fixed_point(method, plane5):
    spec = preset(method, iterations=2)
    out = filter_normals(plane5, spec).normals
    assert max_angle(out, plane5.face_normals) < 1e-9


def test_outputs_unit_norm():
    noisy = add_noise(make_cube(4), 0.3, 5)
    for method in METHODS:
        spec = preset(method, iterations=2,
                      step_lambda=0.05 if method == "gradient_descent" else 1.0)
        out = filter_normals(noisy, spec).normals
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-9, method


def test_mean_filter_matches_manual_area_average():
    noisy = add_noise(make_plane(5), 0.4, 9)
    spec = FilterSpec.preset("yagou_mean", iterations=1)
    out = filter_normals(noisy, spec).normals
    nb = noisy.neighbor_lists(spec.neighborhood)
    for i, idx in enumerate(nb):
        acc = (noisy.face_areas[idx, None] * noisy.face_normals[idx]).sum(axis=0)
        acc /= np.linalg.norm(acc)
        assert np.max(np.abs(out[i] - acc)) < 1e-12


def test_zero_weight_fallback(bent_pair):
    spec = FilterSpec("generic_unilateral", Kernel("truncated_l2", 0.01),
                      neighborhood=NeighborhoodSpec("shared_vertex", include_self=False))
    field = filter_normals(bent_pair, spec)
    assert field.zero_weight_warnings == 2
    assert np.array_equal(field.normals, bent_pair.face_normals)


def test_l1_nan_substitution(bent_pair):
    spec = FilterSpec("generic_unilateral", Kernel("l1"))
    out = filter_normals(bent_pair, spec).normals
    # the x=0 self term takes over the largest finite neighbor weight, so the
    # result is the plain normalized sum of the two normals
    expect = bent_pair.face_normals.sum(axis=0)
    expect /= np.linalg.norm(expect)
    assert np.max(np.abs(out[0] - expect)) < 1e-12


def test_l1_all_coincident_uniform_fallback(plane5):
    spec = FilterSpec("generic_unilateral", Kernel("l1"))
    out = filter_normals(plane5, spec).normals
    assert max_angle(out, plane5.face_normals) < 1e-12


def test_box_floor_keeps_faraway_contribution(bent_pair):
    # neighbor at 90 degrees, sigma below that: weight is exactly the floor
    spec = FilterSpec.preset("yadav_box_2017", sigma=math.radians(30.0))
    out = filter_normals(bent_pair, spec).normals
    expect = np.array([0.1, 0.0, 1.0])
    expect /= np.linalg.norm(expect)
    assert np.max(np.abs(out[0] - expect)) < 1e-12


def test_double_buffering(bent_pair):
    # two iterations of a symmetric pair stay symmetric: both faces see the
    # other's previous normal, not a half-updated one
    spec = FilterSpec.preset("generic_unilateral", sigma=1.0, iterations=2)
    out = filter_normals(bent_pair, spec).normals
    assert abs(out[0][0] - out[1][2]) < 1e-12
    assert abs(out[0][2] - out[1][0]) < 1e-12


def test_rotation_equivariance_sample():
    noisy = add_noise(make_cube(3), 0.3, 2)
    R = rotation_matrix([1, 1, 0], 0.9)
    rotated = TriMesh(noisy.vertices @ R.T, noisy.faces, validate=False)
    for method in ("zheng_bilateral", "yadav_box_2017", "centin_signoroni"):
        spec = preset(method, iterations=2)
        a = filter_normals(noisy, spec).normals @ R.T
        b = filter_normals(rotated, spec).normals
        assert max_angle(a, b) < 1e-6, method


def test_initial_field_override(bent_pair):
    spec = FilterSpec.preset("generic_unilateral", sigma=1.0)
    init = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    out = filter_normals(bent_pair, spec, initial=init).normals
    assert max_angle(out, init) < 1e-12


# ----------------------------------------------------------------------
# guidance

def test_guidance_flat_is_identity(plane5):
    g = guidance_normals(plane5, NeighborhoodSpec("shared_vertex"), math.radians(60))
    assert max_angle(g, plane5.face_normals) < 1e-12


def test_guidance_cube_edge_stays_on_side(cube2):
    g = guidance_normals(cube2, NeighborhoodSpec("shared_vertex"), math.radians(70))
    assert max_angle(g, cube2.face_normals) < 1e-12


def test_guidance_threshold_pi_is_area_mean(bent_pair):
    g = guidance_normals(bent_pair, NeighborhoodSpec("shared_vertex"),
                         math.pi - 1e-9)
    areas = bent_pair.face_areas
    expect = (areas[:, None] * bent_pair.face_normals).sum(axis=0)
    expect /= np.linalg.norm(expect)
    assert np.max(np.abs(g[0] - expect)) < 1e-12


def test_guidance_threshold_validation(plane5):
    with pytest.raises(ValueError):
        guidance_normals(plane5, NeighborhoodSpec("shared_vertex"), 0.0)


# ----------------------------------------------------------------------
# gradient descent and energy

def test_gradient_descent_constant_field(plane5):
    spec = FilterSpec.preset("gradient_descent", sigma=1.0, step_lambda=0.05,
                             iterations=10)
    out = filter_gradient_descent(plane5, spec).normals
    assert max_angle(out, plane5.face_normals) < 1e-12


def test_gradient_descent_reduces_energy():
    noisy = add_noise(make_plane(5), 0.4, 3)
    spec = FilterSpec.preset("gradient_descent", sigma=1.0, step_lambda=0.05,
                             iterations=50)
    out = filter_gradient_descent(noisy, spec).normals
    e_spec = FilterSpec.preset("generic_unilateral", sigma=1.0)
    assert energy(noisy, out, e_spec) < energy(noisy, noisy.face_normals, e_spec)


def test_energy_constant_field_zero(plane5):
    spec = FilterSpec.preset("generic_unilateral", sigma=1.0)
    assert energy(plane5, plane5.face_normals, spec) == 0.0


def test_energy_single_pair(bent_pair):
    spec = FilterSpec.preset("generic_unilateral", sigma=1.0)
    x = math.sqrt(2.0)
    expect = 2.0 * float(Kernel("gaussian", 1.0).rho(x))
    assert abs(energy(bent_pair, bent_pair.face_normals, spec) - expect) < 1e-12


def test_energy_nonincreasing_under_filtering():
    ok = 0
    seeds = range(20)
    for seed in seeds:
        noisy = add_noise(make_plane(5), 0.4, seed)
        spec = FilterSpec.preset("generic_unilateral", sigma=1.0)
        out = filter_normals(noisy, spec).normals
        if energy(noisy, out, spec) <= energy(noisy, noisy.face_normals, spec) + 1e-12:
            ok += 1
    assert ok >= 19
