"""Differential and property tests of the CSR neighbourhood graph and the
vectorised filters, against the per-element loops in ``reference_loops``."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_loops as ref
from denoisekit import (
    DegenerateFaceError,
    FilterSpec,
    Kernel,
    NeighborhoodSpec,
    NonManifoldError,
    PointCloud,
    TriMesh,
    add_noise,
    energy,
    filter_normals,
    guidance_normals,
    laplacian_smooth,
    make_cube,
    make_icosphere,
    make_plane,
    make_wedge,
    orthogonality_residual,
    update_vertices,
)
from denoisekit import filter_point_normals, meshcore, meshfilter
from denoisekit.bench import _weld
from denoisekit.kernels import KERNEL_KINDS
from denoisekit.meshcore import (csr_graph, graph_sum, index_graph, pair_distances, pair_dots,
                                 pair_slots)
from denoisekit.meshfilter import METHODS
from conftest import ball, knn, point_spec

TOLERANCE = 1e-12
SHAPES = {
    "cube": lambda: make_cube(4),
    "plane": lambda: make_plane(5),
    "icosphere": lambda: make_icosphere(2),
    "wedge": lambda: make_wedge(),
}
MEDIANS = ("yagou_median", "yagou_weighted_median", "shen_fuzzy_median")
PRESET_SIGMAS = {"yadav_box_2017": math.radians(30.0),
                 "tasdizen": math.radians(30.0),
                 "belyaev_ohtake": 1.0}


def preset(method, **kw):
    return FilterSpec.preset(method, sigma=PRESET_SIGMAS.get(method, 0.35), **kw)


def all_specs(mesh):
    """Every mode with and without the face itself. One radius is an exact
    centroid distance, so the ``<=`` boundary is exercised."""
    c = mesh.face_centroids
    radii = [1.5 * max(mesh.avg_edge_length, 1e-3)]
    if len(c) > 1 and np.isfinite(c[:2]).all() and np.any(c[1] != c[0]):
        radii.append(float(np.linalg.norm(c[1] - c[0])))
    specs = []
    for include_self in (True, False):
        specs += [NeighborhoodSpec("shared_edge", include_self=include_self),
                  NeighborhoodSpec("shared_vertex", include_self=include_self)]
        specs += [NeighborhoodSpec("radius", radius=r, include_self=include_self)
                  for r in radii]
    return specs


def assert_same_lists(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b), (a, b)


def assert_graph_holds(graph, n, rows):
    """A CSR graph of n centers is well formed and holds the given rows."""
    assert_csr_invariants(graph, n)
    _, neighbors, _, counts = graph
    assert np.array_equal(counts, [len(r) for r in rows])
    assert np.array_equal(neighbors, np.concatenate([np.zeros(0, dtype=np.int64), *rows]))


def assert_csr_invariants(graph, n, m=None):
    """Row c of the graph is its c-th run of pairs, neighbours (of ``m`` rows,
    by default ``n``) ascend within a row, and no array can be written."""
    centers, neighbors, starts, counts = graph
    assert len(counts) == n
    assert np.array_equal(centers, np.repeat(np.arange(n), counts))
    assert np.array_equal(starts, np.cumsum(counts) - counts)
    assert np.all(np.diff(neighbors)[centers[1:] == centers[:-1]] > 0)
    assert np.all((0 <= neighbors) & (neighbors < (n if m is None else m)))
    assert not any(a.flags.writeable for a in graph)


def assert_topology_matches(mesh):
    topo = ref.build_topology(mesh.faces, len(mesh.vertices))
    assert np.array_equal(mesh.edges, topo["edges"])
    assert mesh.edge_faces == topo["edge_faces"]
    assert_graph_holds(mesh.vertex_graph, len(mesh.vertices), topo["vertex_ring"])
    assert_same_lists(mesh.face_adjacency_vertex, topo["face_adjacency_vertex"])
    if all(len(fs) <= 2 for fs in topo["edge_faces"]):
        mesh.require_edge_manifold()
    else:
        with pytest.raises(NonManifoldError):
            mesh.require_edge_manifold()
    for spec in all_specs(mesh):
        want = ref.neighbor_lists(mesh, spec)
        assert_same_lists(mesh.neighbor_lists(spec), want)
        assert_graph_holds(mesh.neighbor_graph(spec), len(mesh.faces), want)
    with np.errstate(invalid="ignore"):
        for threshold in (0.0, 30.0, 70.0):
            assert np.array_equal(mesh.dihedral_feature_edges(threshold),
                                  ref.dihedral_feature_edges(mesh, threshold))


def filter_or_error(fn, *args):
    """The result of fn, or the type of the error it raised: curvature needs
    a manifold."""
    try:
        return fn(*args)
    except NonManifoldError as e:
        return type(e)


def assert_filters_match(mesh, methods, neighborhood=None, iterations=3):
    """Largest deviation of each preset's output and energy from the reference."""
    for method in methods:
        kw = {"iterations": iterations}
        if neighborhood is not None:
            kw["neighborhood"] = neighborhood
        if method == "gradient_descent":
            kw["step_lambda"] = 0.05
        spec = preset(method, **kw)
        got = filter_or_error(lambda: filter_normals(mesh, spec).normals)
        want = filter_or_error(ref.filter_normals, mesh, spec)
        if isinstance(want, type):
            assert got is want, method
            continue
        assert np.max(np.abs(got - want)) <= TOLERANCE, method
        e_got, e_want = energy(mesh, want, spec), ref.energy(mesh, want, spec)
        assert abs(e_got - e_want) <= TOLERANCE * max(1.0, abs(e_want)), method


def assert_medians_match(mesh, neighborhood, iterations=20, initial=None):
    """The batched median pass against the face-by-face loop, from the mesh's
    normals or ``initial``: the two Euclidean medians bit for bit, zeros'
    signs too, the fuzzy median to within TOLERANCE, and the same number of
    warnings."""
    for method in MEDIANS:
        spec = preset(method, neighborhood=neighborhood, iterations=iterations)
        field = filter_normals(mesh, spec, initial=initial)
        want, warnings = ref.median_filter(mesh, spec, initial=initial)
        if method == "shen_fuzzy_median":
            assert np.max(np.abs(field.normals - want), initial=0.0) <= TOLERANCE, method
        else:
            assert np.array_equal(field.normals.view(np.uint64), want.view(np.uint64)), method
        assert field.zero_weight_warnings == warnings, method


# ----------------------------------------------------------------------
# topology on the synthetic shapes

@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_topology_lists_match_reference(shape):
    assert_topology_matches(SHAPES[shape]())


@pytest.mark.parametrize("n_vertices", [0, 4])
def test_faceless_mesh_topology_matches_reference(n_vertices):
    assert_topology_matches(TriMesh(np.zeros((n_vertices, 3)), np.zeros((0, 3), dtype=int)))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_curvature_and_guidance_match_reference(shape):
    mesh = add_noise(SHAPES[shape](), 0.3, 7)
    k = mesh.vertex_mean_curvature()
    assert np.max(np.abs(k - ref.vertex_mean_curvature(mesh))) <= TOLERANCE * max(1.0, k.max())
    for spec in all_specs(mesh):
        got = guidance_normals(mesh, spec, math.radians(60.0))
        want = ref.guidance_normals(mesh, spec, math.radians(60.0))
        assert np.max(np.abs(got - want)) <= TOLERANCE


def test_neighbor_graph_is_cached():
    mesh = make_plane(4)
    for spec in all_specs(mesh):
        graph = mesh.neighbor_graph(spec)
        assert mesh.neighbor_graph(spec) is graph


def csr_graphs(kind):
    """(graph, number of centers, number of neighbour rows) of one kind on a
    noisy plane with one vertex on no face: its ring and its corners are
    empty, and as a point it is far from every other. A corner graph holds
    the positions of an index array per value, as the vertex update's."""
    mesh = add_noise(make_plane(5), 0.3, 3)
    mesh = TriMesh(np.vstack([mesh.vertices, [[9.0, 9.0, 9.0]]]), mesh.faces)
    cloud = PointCloud(mesh.vertices)
    nf, nv = len(mesh.faces), len(mesh.vertices)
    if kind == "face":
        return [(mesh.neighbor_graph(spec), nf, nf) for spec in all_specs(mesh)]
    if kind == "vertex":
        return [(mesh.vertex_graph, nv, nv)]
    if kind == "corner":
        index = [(mesh.faces.ravel(), nv), (np.roll(mesh.faces, 1, axis=1).ravel(), nv),
                 (mesh.neighbor_graph(NeighborhoodSpec("shared_vertex"))[0], nf),
                 (np.zeros(0, dtype=np.int64), nv)]
        return [(index_graph(i, n), n, len(i)) for i, n in index]
    if kind == "point_knn":
        return [(cloud.neighbor_graph(knn(k)), nv, nv) for k in (1, 6)]
    return [(cloud.neighbor_graph(ball(r)), nv, nv) for r in (0.05, 0.5)]


@pytest.mark.parametrize("kind", ["face", "vertex", "corner", "point_knn", "point_radius"])
def test_every_graph_is_well_formed_csr(kind):
    """Face, vertex, corner and point graphs all come from one builder and
    share its layout."""
    for graph, n, m in csr_graphs(kind):
        assert_csr_invariants(graph, n, m)


def test_radius_graph_follows_vertex_edits():
    mesh = make_plane(4)
    vertex_spec = NeighborhoodSpec("shared_vertex")
    radius_spec = NeighborhoodSpec("radius", radius=0.4)
    kept = mesh.neighbor_graph(vertex_spec)
    mesh.neighbor_graph(radius_spec)
    mesh.vertices = mesh.vertices * 2.0
    mesh.recompute_face_fields()
    assert mesh.neighbor_graph(vertex_spec) is kept
    assert_same_lists(mesh.neighbor_lists(radius_spec), ref.neighbor_lists(mesh, radius_spec))


def test_non_finite_vertex_matches_reference():
    """Unvalidated meshes may carry a NaN vertex: its faces are near no
    centroid, and their NaN normals make their edges features."""
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [np.nan, 0, 0]]
    mesh = TriMesh(verts, [[0, 1, 2], [1, 3, 2], [1, 4, 3]], validate=False)
    with np.errstate(invalid="ignore"):
        for include_self in (True, False):
            spec = NeighborhoodSpec("radius", radius=2.0, include_self=include_self)
            assert_same_lists(mesh.neighbor_lists(spec), ref.neighbor_lists(mesh, spec))
        assert np.array_equal(mesh.dihedral_feature_edges(70.0),
                              ref.dihedral_feature_edges(mesh, 70.0))


# ----------------------------------------------------------------------
# every preset against the reference engine

@pytest.mark.parametrize("shape", ["cube", "wedge"])
def test_all_presets_match_reference(shape):
    assert_filters_match(add_noise(SHAPES[shape](), 0.3, 42), METHODS)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("method", ["generic_unilateral", "generic_bilateral"])
def test_generic_kernels_match_reference(method, kind):
    """The L1 kernels give the self pair a NaN weight, which is replaced by
    the largest finite weight of its neighbourhood."""
    mesh = add_noise(make_cube(4), 0.3, 9)
    spec = FilterSpec.preset(method, range_kernel=Kernel(kind, 0.5), iterations=3)
    got = filter_normals(mesh, spec).normals
    assert np.max(np.abs(got - ref.filter_normals(mesh, spec))) <= TOLERANCE


# The id keeps the case name it had when a sigma_d_global case ran as kw0.
@pytest.mark.parametrize("kw", [pytest.param({"spatial_sigma": 0.2}, id="kw1")])
def test_spatial_sigma_variants_match_reference(kw):
    mesh = add_noise(make_cube(4), 0.3, 3)
    spec = FilterSpec.preset("zheng_bilateral", iterations=3, **kw)
    got = filter_normals(mesh, spec).normals
    assert np.max(np.abs(got - ref.filter_normals(mesh, spec))) <= TOLERANCE


@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("mode", ["shared_edge", "shared_vertex", "radius"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_median_presets_match_reference(shape, mode, include_self):
    """Boundary faces give the plane, wedge and radius graphs several
    neighbourhood sizes, so the pass runs more than one batch."""
    mesh = add_noise(SHAPES[shape](), 0.3, 42)
    radius = 1.5 * mesh.avg_edge_length if mode == "radius" else None
    assert_medians_match(mesh, NeighborhoodSpec(mode, radius=radius, include_self=include_self))


@pytest.mark.parametrize("block", [1, 100])
def test_median_presets_in_small_blocks_match_reference(monkeypatch, block):
    """Splitting a size group over several blocks changes nothing; a block
    of 1 puts every face in a block of its own."""
    monkeypatch.setattr(meshfilter, "_MEDIAN_BLOCK", block)
    mesh = add_noise(SHAPES["wedge"](), 0.3, 42)
    assert_medians_match(mesh, NeighborhoodSpec("shared_vertex"), iterations=5)


def test_median_pass_memory_is_bounded_for_large_neighbourhoods():
    """A radius of four edge lengths gives up to 131 neighbours: one batch
    per neighbourhood size would hold 26 MiB of (m, k, k) arrays, the blocks
    about 1 MiB."""
    mesh = make_plane(16)
    nb = NeighborhoodSpec("radius", radius=4 * mesh.avg_edge_length)
    mesh.neighbor_graph(nb)
    tracemalloc.start()
    try:
        filter_normals(mesh, preset("yagou_median", neighborhood=nb))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("shape", ["cube", "plane"])
def test_median_presets_with_nan_weights_match_reference(shape):
    """Without noise, whole neighbourhoods share one normal: every argument
    is 0 and every truncated-L1 weight NaN, so the weights fall back to
    uniform and such a face keeps its normal."""
    mesh = SHAPES[shape]()
    spec = preset("yagou_weighted_median", neighborhood=NeighborhoodSpec("shared_vertex"))
    n = mesh.face_normals
    flat = [i for i, nb in enumerate(mesh.neighbor_lists(spec.neighborhood))
            if np.all(n[nb] == n[i])]
    assert flat and np.isnan(spec.range_kernel.weight(0.0))
    assert_medians_match(mesh, spec.neighborhood)
    assert np.array_equal(filter_normals(mesh, spec).normals[flat], n[flat])


@pytest.mark.parametrize("method", MEDIANS)
def test_median_presets_keep_normal_of_face_without_neighbours(method):
    """Two triangles that share no vertex: without the face itself, each
    neighbourhood is empty, so each face keeps its normal and counts one
    warning per pass, as in the averaging engine."""
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 0, 0], [5, 1, 0], [5, 0, 1]]
    mesh = TriMesh(verts, [[0, 1, 2], [3, 4, 5]])
    for nb in (NeighborhoodSpec("shared_vertex", include_self=False),
               NeighborhoodSpec("radius", radius=1.0, include_self=False)):
        field = filter_normals(mesh, preset(method, neighborhood=nb, iterations=3))
        assert np.array_equal(field.normals, mesh.face_normals)
        assert field.zero_weight_warnings == 2 * 3


def test_update_vertices_equals_reference():
    mesh = add_noise(make_cube(5), 0.3, 11)
    normals = filter_normals(mesh, preset("yadav_tukey_2018", iterations=2)).normals
    assert np.array_equal(update_vertices(mesh, normals, 7, 0.5),
                          ref.update_vertices(mesh, normals, 7, 0.5))


def test_update_vertices_keeps_vertex_on_no_face():
    """A vertex on no face has no corner to move it: it stays put, and the
    rest match the reference bit for bit."""
    mesh = add_noise(make_cube(4), 0.3, 11)
    mesh = TriMesh(np.vstack([mesh.vertices, [[9.0, 9.0, 9.0]]]), mesh.faces)
    got = update_vertices(mesh, mesh.face_normals, 5)
    assert np.array_equal(got, ref.update_vertices(mesh, mesh.face_normals, 5))
    assert np.array_equal(got[-1], mesh.vertices[-1])


def assert_residual_matches(mesh, normals):
    """Only the order of the sum of squares differs from the reference."""
    got = orthogonality_residual(mesh.vertices, mesh.faces, normals)
    want = ref.orthogonality_residual(mesh.vertices, mesh.faces, normals)
    assert abs(got - want) <= TOLERANCE * want


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_orthogonality_residual_matches_reference(shape):
    truth = SHAPES[shape]()
    noisy = add_noise(truth, 0.3, 5)
    for normals in (truth.face_normals, noisy.face_normals,
                    filter_normals(noisy, preset("yadav_tukey_2018", iterations=2)).normals):
        assert_residual_matches(noisy, normals)


@pytest.mark.parametrize("shape", ["icosphere", "plane"])
def test_laplacian_smooth_equals_reference(shape):
    """The plane's boundary vertices have shorter rings than its interior;
    the appended vertex is on no face and has an empty ring."""
    mesh = add_noise(SHAPES[shape](), 0.3, 5)
    mesh = TriMesh(np.vstack([mesh.vertices, [[9.0, 9.0, 9.0]]]), mesh.faces)
    got = laplacian_smooth(mesh, 7, 0.5)
    assert np.array_equal(got, ref.laplacian_smooth(mesh, 7, 0.5))
    assert np.array_equal(got[-1], mesh.vertices[-1])


def test_weld_equals_reference():
    rng = np.random.Generator(np.random.Philox(key=5))
    base = rng.normal(size=(40, 3))
    v = base[rng.integers(0, 40, 200)] + rng.choice([0.0, 1e-12], size=(200, 3))
    faces = rng.integers(0, 200, (60, 3))
    for got, want in zip(_weld(v, faces), ref.weld(v, faces)):
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# property tests on random small meshes

@st.composite
def small_meshes(draw, validate):
    """Random faces on a few integer-grid vertices. Without validation the
    faces may repeat a vertex, repeat each other or share an edge with
    several others."""
    nv = draw(st.integers(3, 8))
    coords = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=nv, max_size=nv))
    index = st.integers(0, nv - 1)
    face = (st.lists(index, min_size=3, max_size=3, unique=True) if validate
            else st.tuples(index, index, index))
    faces = draw(st.lists(face, min_size=1, max_size=10))
    try:
        return TriMesh(np.array(coords, dtype=float), np.array(faces), validate=validate)
    except DegenerateFaceError:
        assume(False)


def with_far_face(mesh):
    """The mesh and a face far from it, which shares no vertex and lies
    farther than any radius drawn here."""
    far = len(mesh.vertices) + np.arange(3)
    return TriMesh(np.vstack([mesh.vertices, [[99, 0, 0], [100, 0, 0], [99, 1, 0]]]),
                   np.vstack([mesh.faces, far]))


@settings(max_examples=60, deadline=None)
@given(small_meshes(validate=False))
def test_random_mesh_topology_matches_reference(mesh):
    with np.errstate(invalid="ignore"):
        assert_topology_matches(mesh)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_meshes(validate=False), st.sampled_from(["shared_edge", "shared_vertex", "radius"]),
       st.booleans(), st.floats(0.01, 3.13), st.data())
def test_guidance_matches_near_pair_graph(mesh, mode, include_self, threshold, data):
    """Weighing the far pairs of the cached graph by 0 gives the sum over a
    graph of the near pairs alone, bit for bit: a row's partial sum starts at
    +0 and never turns -0. The normals are the mesh's own (a degenerate face
    has a zero one) or drawn finite rows, with zero rows and ties; the
    neighbourhood itself is taken with or without the face."""
    nb = NeighborhoodSpec(mode, radius=2.5 if mode == "radius" else None,
                          include_self=include_self)
    normals = data.draw(st.none() | hnp.arrays(float, (len(mesh.faces), 3), elements=st.one_of(
        st.floats(-2, 2), st.sampled_from([0.0, -0.0, 1.0, -1.0]))))
    with np.errstate(invalid="ignore", divide="ignore"):
        got = guidance_normals(mesh, nb, threshold, normals=normals)
        want = ref.guidance_near_pairs(mesh, nb, threshold, normals=normals)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# rows of a drawn initial field: a unit row repeated and its copies with a
# -0.0 (equal as floats, not in bits), its opposite, and the zero row, on
# which a fuzzy sum vanishes; or any finite row
INITIAL_ROWS = st.one_of(
    st.sampled_from([(0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (-0.0, -0.0, 1.0),
                     (0.0, 0.0, -1.0), (1.0, -0.0, 0.0), (0.0, 0.0, 0.0)]),
    st.tuples(*[st.floats(-2, 2)] * 3))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_meshes(validate=True), st.sampled_from(["shared_edge", "shared_vertex", "radius"]),
       st.booleans(), st.booleans(), st.integers(1, 8),
       st.lists(INITIAL_ROWS, min_size=1, max_size=12))
# two faces on an edge, each the other's only neighbour: they swap normals that
# differ in a zero's sign, or keep zero normals whose fuzzy sums vanish
@example(TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 2], [1, 3, 2]]),
         "shared_edge", False, False, 2, [(0.0, 0.0, 1.0), (-0.0, 0.0, 1.0)])
@example(TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 2], [1, 3, 2]]),
         "shared_edge", False, False, 2, [(0.0, 0.0, 0.0)])
def test_median_skip_matches_reference_from_drawn_initial(mesh, mode, include_self, far,
                                                          iterations, rows):
    """A median pass computes only the faces whose normal or a neighbour's
    changed its bits in the pass before; the others keep their normal and
    count their warning again. The loop computes every face on every pass.
    The drawn rows repeat over the faces; with a far face, a neighbourhood
    without the face itself can be empty."""
    mesh = with_far_face(mesh) if far else mesh
    nb = NeighborhoodSpec(mode, radius=2.5 if mode == "radius" else None,
                          include_self=include_self)
    initial = np.resize(np.array(rows, dtype=float), (len(mesh.faces), 3))
    with np.errstate(invalid="ignore", divide="ignore"):
        assert_medians_match(mesh, nb, iterations, initial=initial)


def median_work(monkeypatch, mesh, spec):
    """Run the filter and return, per pass that takes medians, its normals
    in, its normals out and the faces whose median it computed, in order:
    those of the mask it gave ``_median_pairs`` that have a neighbour, each
    one row of a batch."""
    passes = []
    run_pairs, run_index = meshfilter._median_pairs, meshfilter._median_index

    def median_pairs(normals, graph, faces, *rest):
        passes.append([normals, None, np.flatnonzero(faces & (graph[3] > 0)).tolist(), 0])
        return run_pairs(normals, graph, faces, *rest)

    def median_index(normals, members, *rest):
        passes[-1][3] += len(members)
        return run_index(normals, members, *rest)

    monkeypatch.setattr(meshfilter, "_median_pairs", median_pairs)
    monkeypatch.setattr(meshfilter, "_median_index", median_index)
    out = filter_normals(mesh, spec).normals
    for this, after in zip(passes, passes[1:] + [[out]]):
        this[1] = after[0]
        assert this.pop() == len(this[2])
    return passes


def moved_faces(before, after):
    return (before.view(np.uint64) != after.view(np.uint64)).any(axis=1)


@pytest.mark.parametrize("method", ["yagou_median", "yagou_weighted_median"])
def test_median_passes_compute_only_faces_whose_neighbourhood_moved(monkeypatch, method):
    """The first pass computes every face; pass t + 1 exactly those whose
    normal or a neighbour's moved in pass t, so none after a pass that moved
    nothing. Without the face itself in its neighbourhood, its own move
    counts too. With it, the vector median reaches a fixed point (a root
    signal), and its last passes compute nothing."""
    mesh = add_noise(make_cube(4), 0.3, 42)
    for include_self in (True, False):
        nb = NeighborhoodSpec("shared_vertex", include_self=include_self)
        passes = median_work(monkeypatch, mesh, preset(method, neighborhood=nb, iterations=20))
        assert len(passes) == 20 and sorted(passes[0][2]) == list(range(len(mesh.faces)))
        for (before, after, _), (_, _, rows) in zip(passes, passes[1:]):
            moved = moved_faces(before, after)
            dirty = moved | np.array([moved[n].any() for n in mesh.neighbor_lists(nb)])
            assert sorted(rows) == np.flatnonzero(dirty).tolist()
            assert moved.any() or not rows
        if method == "yagou_median" and include_self:
            assert not passes[-1][2]


def test_fuzzy_median_passes_compute_every_face(monkeypatch):
    """Shen's fuzzy median is a mean pass whose argument is each neighbour's
    distance to the directional median: every pass takes the median of every
    face that has a neighbour, whether or not its neighbourhood moved."""
    mesh = with_far_face(add_noise(make_cube(4), 0.3, 42))
    for include_self in (True, False):
        nb = NeighborhoodSpec("shared_vertex", include_self=include_self)
        passes = median_work(monkeypatch, mesh,
                             preset("shen_fuzzy_median", neighborhood=nb, iterations=5))
        faces = np.flatnonzero(mesh.neighbor_graph(nb)[3] > 0).tolist()
        assert len(faces) == len(mesh.faces) - (not include_self)
        assert [rows for _, _, rows in passes] == [faces] * 5


def test_median_passes_stop_on_the_noise_free_cube(monkeypatch):
    """The noise-free cube's normals on one side differ only in the signs of
    their zeros, and a median takes the bits of one of its members: the
    passes move only those signs, the moves die out, and the later passes
    compute no face. A comparison of floats would take -0.0 for 0.0."""
    mesh = make_cube(4)
    passes = median_work(monkeypatch, mesh, preset("yagou_median", iterations=10))
    assert any(moved_faces(before, after).any() for before, after, _ in passes)
    assert all(np.array_equal(before, after) for before, after, _ in passes)
    assert [len(rows) for _, _, rows in passes[-5:]] == [0] * 5


def test_guidance_threshold_is_strict(bent_pair):
    """A neighbour exactly at the threshold angle (its dot is cos θ) is left
    out, as the near-pair graph left it out: each face keeps its own normal."""
    normals = np.array([[1.0, 0.0, 0.0], [math.cos(1.0), math.sin(1.0), 0.0]])
    got = guidance_normals(bent_pair, NeighborhoodSpec("shared_edge"), 1.0, normals=normals)
    want = ref.guidance_near_pairs(bent_pair, NeighborhoodSpec("shared_edge"), 1.0, normals)
    assert np.array_equal(got, want)
    assert np.allclose(got, normals, rtol=0, atol=1e-15)


def test_guidance_nan_neighbour_keeps_own_normal(bent_pair):
    """A NaN neighbour normal, which only a caller's normals supply, weighs
    0 but poisons the sum, so the face keeps its own normal, as a vanished
    mean does."""
    normals = np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]])
    with np.errstate(invalid="ignore"):
        got = guidance_normals(bent_pair, NeighborhoodSpec("shared_edge"), math.radians(60),
                               normals=normals)
    assert np.array_equal(got, normals, equal_nan=True)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_meshes(validate=True), st.sampled_from(["shared_edge", "shared_vertex", "radius"]),
       st.booleans())
# a triangle and its reversed copy: their normals' dot rounds to 1 ulp above -1,
# and arccos turns a reference that rounds it otherwise into 1.5e-8
@example(TriMesh([[0, 3, -2], [2, 1, -3], [-1, 3, 0]], [[0, 1, 2], [0, 2, 1]]),
         "shared_vertex", True)
def test_random_mesh_filters_match_reference(mesh, mode, include_self):
    nb = NeighborhoodSpec(mode, radius=2.5 if mode == "radius" else None,
                          include_self=include_self)
    with np.errstate(invalid="ignore", divide="ignore"):
        assert_filters_match(mesh, METHODS, neighborhood=nb, iterations=2)
        assert_medians_match(mesh, nb)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_meshes(validate=True), st.data())
def test_random_orthogonality_residual_matches_reference(mesh, data):
    normals = data.draw(hnp.arrays(float, (len(mesh.faces), 3), elements=st.floats(-2, 2)))
    assert_residual_matches(mesh, normals)


# ----------------------------------------------------------------------
# the neighbourhood sum

FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def sums(draw):
    """(index, neighbors, w, rows, n): up to 40 terms on n centers, some of
    which get none. Term p adds ``w[p] * rows[neighbors[p]]`` to center
    ``index[p]``; the index is in any order, and rows repeat."""
    n, m, r = draw(st.integers(1, 8)), draw(st.integers(0, 40)), draw(st.integers(1, 6))
    index = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    neighbors = draw(hnp.arrays(np.int64, m, elements=st.integers(0, r - 1)))
    w = draw(hnp.arrays(float, m, elements=FINITE))
    rows = draw(hnp.arrays(float, (r, draw(st.integers(1, 3))), elements=FINITE))
    return index, neighbors, w, rows, n


@settings(max_examples=100, deadline=None)
@given(sums())
def test_graph_sum_matches_add_at(case):
    """Each center adds its terms in the order of its pairs, bit for bit as
    ``np.add.at`` does: on a CSR graph with sorted centers, and on the graph
    of an unsorted index, whose pairs keep the index's order. The sum is
    built once: a second call with other weights holds only those."""
    index, neighbors, w, rows, n = case
    centers = np.sort(index)
    counts = np.bincount(centers, minlength=n)
    total = graph_sum((centers, neighbors, np.cumsum(counts) - counts, counts), len(rows))
    for weights in (w, w[::-1]):
        assert np.array_equal(total(weights, rows),
                              ref.scatter_sum(centers, weights, rows[neighbors], n))
    terms = rows[neighbors]
    graph = index_graph(index, n)
    assert np.array_equal(graph_sum(graph, len(terms))(w[graph[1]], terms),
                          ref.scatter_sum(index, w, terms, n))


# ----------------------------------------------------------------------
# the pair distance

# two-decimal coordinates, whose squares often round apart in another order of
# addition; and any finite coordinates, with squares that overflow or go
# subnormal and with signed zeros
COORDINATES = (st.integers(-999, 999).map(lambda c: c / 100), st.one_of(
    FINITE, st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(
        [0.0, -0.0, 5e-324, -2.2e-308, 1e-160, -3e-170, 1e155, -1e200, 1.7e308, -1.7e308])))


@st.composite
def distance_cases(draw):
    """(rows, i, j): up to 6 rows of 3 coordinates, and index arrays of two
    shapes that broadcast, such as (m, k, 1) and (m, 1, k); some are empty,
    and indices repeat."""
    n = draw(st.integers(1, 6))
    rows = draw(hnp.arrays(float, (n, 3), elements=draw(st.sampled_from(COORDINATES))))
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=4))
    i, j = (draw(hnp.arrays(np.int64, shape, elements=st.integers(0, n - 1)))
            for shape in shapes.input_shapes)
    return rows, i, j


@settings(max_examples=200, deadline=None)
@given(distance_cases())
# a pair whose squares an einsum, or x + (y + z), adds to another rounding
@example((np.array([[-0.11, -0.45, 0.78], [0.19, -1.63, -1.2]]), np.array([0]), np.array([1])))
def test_pair_distances_match_norm(case):
    """Bit for bit the norm of the gathered differences, in its shape."""
    rows, i, j = case
    with np.errstate(over="ignore"):
        got, want = pair_distances(rows, i, j), np.linalg.norm(rows[i] - rows[j], axis=-1)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# any float but NaN, with inf, subnormal values and both zeros drawn often
EXTREME = st.one_of(st.floats(allow_nan=False), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e155, 1.7e308]))


def scalar_dot(a, b) -> float:
    """A dot as a loop over Python floats, from zero in column order."""
    total = 0
    for x, y in zip(a.tolist(), b.tolist()):
        total += x * y
    return total


@settings(max_examples=200, deadline=None)
@given(distance_cases())
def test_pair_dots_match_a_scalar_loop(case):
    """Each dot is the scalar loop's, bit for bit and in the broadcast shape
    of the indices; drawn rows hold squares that overflow or go subnormal."""
    rows, i, j = case
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = pair_dots(rows, i, j)
    i, j = np.broadcast_arrays(i, j)
    want = np.array([scalar_dot(rows[a], rows[b]) for a, b in zip(i.ravel(), j.ravel())])
    assert np.shape(got) == i.shape
    assert np.array_equal(np.ravel(got).view(np.uint64), want.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, st.tuples(st.integers(1, 6), st.just(3)), elements=EXTREME),
       st.data())
def test_pair_distances_are_symmetric(rows, data):
    """``x_ij == x_ji`` bit for bit, for the distance, the dot and the angle
    argument: IEEE subtraction gives ``fl(a - b) == -fl(b - a)`` and
    multiplication commutes, which lets a filter take each argument once per
    unordered pair. Two infinities of one sign give NaN both ways. The dots
    are the scalar loop's here too, NaN (inf * 0) included."""
    i, j = (data.draw(hnp.arrays(np.int64, 5, elements=st.integers(0, len(rows) - 1)))
            for _ in range(2))

    def angle(rows, i, j):
        return meshfilter.pair_argument("angle", i, j)(rows)

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for fn in (pair_distances, pair_dots, angle):
            ij, ji = fn(rows, i, j), fn(rows, j, i)
            assert np.array_equal(ij.view(np.uint64), ji.view(np.uint64)), fn.__name__
        want = [scalar_dot(rows[a], rows[b]) for a, b in zip(i, j)]
        assert np.array_equal(pair_dots(rows, i, j), want, equal_nan=True)


# ----------------------------------------------------------------------
# the slots of the unordered pairs

@st.composite
def pair_graphs(draw):
    """A CSR graph, of one of three kinds: drawn neighbour sets on n centers,
    where a row may be empty, hold its center, or name a center that does not
    name it back; the kNN graph of a drawn point set (points may coincide),
    whose pairs are often one-way; or a radius graph of a small mesh with one
    face far from the rest, which is isolated or holds only itself."""
    kind = draw(st.sampled_from(["drawn", "knn", "radius"]))
    if kind == "drawn":
        n = draw(st.integers(1, 8))
        rows = [sorted(draw(st.sets(st.integers(0, n - 1)))) for _ in range(n)]
        keys = [c * n + j for c, row in enumerate(rows) for j in row]
        return csr_graph(np.array(keys, dtype=np.int64), n, n)
    if kind == "knn":
        n = draw(st.integers(2, 12))
        points = draw(hnp.arrays(float, (n, 3), elements=st.integers(-2, 2).map(float)))
        return PointCloud(points).neighbor_graph(knn(draw(st.integers(1, n - 1))))
    mesh = with_far_face(draw(small_meshes(validate=True)))
    return mesh.neighbor_graph(NeighborhoodSpec("radius", radius=draw(st.sampled_from([0.5, 2.5])),
                                                include_self=draw(st.booleans())))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(pair_graphs())
def test_pair_slots_hold_each_unordered_pair_once(graph):
    """Every pair's slot holds the pair or its reverse, and every distinct
    unordered pair of the graph has exactly one slot."""
    centers, neighbors, _, _ = graph
    slot, i, j = pair_slots(graph)
    assert len(slot) == len(centers)
    a, b = i[slot], j[slot]
    assert np.all(((a == centers) & (b == neighbors)) | ((a == neighbors) & (b == centers)))
    want = {(min(c, n), max(c, n)) for c, n in zip(centers.tolist(), neighbors.tolist())}
    assert sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist())) == sorted(want)
    assert np.array_equal(np.unique(slot), np.arange(len(i)))


def test_pair_slots_are_built_once_per_graph(monkeypatch):
    """The slots are kept with the cached graph, read-only: a second filter
    or energy call on the same mesh, or a point filter on a copy of a cloud
    with other normals, builds none. A vertex edit drops them with the radius
    graphs only."""
    built = []
    build = meshcore.pair_slots
    monkeypatch.setattr(meshcore, "pair_slots", lambda graph: built.append(graph) or build(graph))
    mesh = add_noise(make_cube(3), 0.3, 42)
    spec = preset("yadav_tukey_2018", iterations=2)
    radius = preset("yadav_tukey_2018", iterations=2, neighborhood=NeighborhoodSpec(
        "radius", radius=1.5 * mesh.avg_edge_length))
    for s in (spec, radius):
        first = filter_normals(mesh, s).normals
        assert np.array_equal(filter_normals(mesh, s).normals, first)
        energy(mesh, first, s)
    assert len(built) == 2
    assert not any(a.flags.writeable for a in mesh.neighbor_graph(spec.neighborhood).slots)
    mesh.recompute_face_fields()
    for s in (spec, radius):
        filter_normals(mesh, s)
    assert len(built) == 3
    cloud = PointCloud(make_icosphere(2).vertices, make_icosphere(2).vertices)
    spec = point_spec("li_bilateral", "auto")
    first = filter_point_normals(cloud, spec)
    assert np.array_equal(filter_point_normals(cloud.with_normals(first), spec),
                          filter_point_normals(PointCloud(cloud.points, first), spec))
    assert len(built) == 5


def test_update_vertices_with_negative_zero_corners_equals_reference():
    """Faces whose three corners share a -0.0 coordinate: the centroid is the
    gathered corners' (v0 + v1) + v2, -0.0 as in the reference (a sum from
    zero, 0 + v0 + v1 + v2, would give +0.0). Bit for bit, zeros' signs too."""
    mesh = make_cube(2)
    vertices = np.where(mesh.vertices == 0.0, -0.0, mesh.vertices)
    mesh = TriMesh(vertices, mesh.faces)
    corners = mesh.vertices[mesh.faces]  # (F, corner, xyz)
    assert np.any(np.all(np.signbit(corners) & (corners == 0.0), axis=1))
    # the mesh's own normals give zero offsets; step 0 keeps a vertex's -0.0
    for normals in (mesh.face_normals, add_noise(mesh, 0.3, 4).face_normals):
        for step in (1.0, 0.0):
            got = update_vertices(mesh, normals, 3, step)
            want = ref.update_vertices(mesh, normals, 3, step)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), step
