"""Differential tests of the OBJ, ASCII PLY and XYZ readers against the
line-by-line readers of ``reference_loops``.

Drawn files use comments, blank lines, tabs, CRLF line ends, ``v`` lines with
a fourth value, ``vn``/``vt``/``g``/``o``/``s`` records, the corner forms
``a``, ``a/b``, ``a//c`` and ``a/b/c``, negative indices and polygons of 3 to 6
corners. Good files must give equal arrays (faces as int64). A file with
exactly one bad line must fail with the reference's exception and message,
except where the readers now reject on purpose: an OBJ index 0, and a number
that does not convert in an XYZ file (now ``line N: bad coordinate``). With
several bad lines the readers may name another line than the reference,
because they check widths before numbers; that is not tested.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_loops as ref
from denoisekit import ParseError, load_mesh, load_xyz
from denoisekit.cli import main
from denoisekit.pointcloud import PointCloudError

FORMATS = st.sampled_from(["{!r}", "{:.6f}", "{:.3e}", "{:+.4g}"])
SEP = st.sampled_from([" ", "  ", "\t", " \t "])
LEAD = st.sampled_from(["", "", " ", "\t"])
COMMENT = st.sampled_from(["", "", " # note", "# x y z"])
OTHER = st.sampled_from(["", "   ", "# comment", "vn 0 0 1", "vt 0.5 0.5", "g part",
                         "o body", "s 1", "s off", "usemtl steel", "mtllib a.mtl"])


def number(draw, base=0.0):
    return draw(FORMATS).format(base + draw(st.floats(0.0, 0.25)))


def join(draw, words):
    sep = draw(SEP)
    return draw(LEAD) + sep.join(words) + draw(COMMENT)


@st.composite
def obj_lines(draw):
    """(kind, line) pairs of an OBJ file that the reference reader accepts:
    vertex j sits near (j, j², z) on a parabola, so no face is degenerate."""
    nv, nf = draw(st.integers(3, 7)), draw(st.integers(1, 5))
    seen, out = 0, []
    for kind in draw(st.permutations(["v"] * nv + ["f"] * nf)):
        out += [("other", draw(OTHER)) for _ in range(draw(st.integers(0, 1)))]
        if kind == "v":
            j = seen
            words = ["v", number(draw, j), number(draw, j * j),
                     draw(FORMATS).format(draw(st.floats(-100, 100)))]
            words += [number(draw, 1.0)] * draw(st.integers(0, 1))
            seen += 1
        else:
            corners = draw(st.permutations(range(nv)))[:draw(st.integers(3, min(6, nv)))]
            words = ["f"]
            for j in corners:
                a = j - seen if j < seen and draw(st.booleans()) else j + 1
                words.append(draw(st.sampled_from(["{}", "{}/7", "{}//2", "{}/3/4"])).format(a))
        out.append((kind, join(draw, words)))
    return out


def text_of(draw, lines):
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def outcome(load, *args):
    """The arrays a reader returns, or the type and message of its error."""
    try:
        obj = load(*args)
    except Exception as e:  # the error is the outcome
        return type(e), str(e)
    if hasattr(obj, "faces"):
        return obj.vertices, obj.faces
    return obj.points, obj.normals


def failed(result) -> bool:
    return isinstance(result[0], type)


def assert_same(got, want):
    """Equal errors, or equal arrays (with dtype) and equal ``None``s."""
    assert failed(got) == failed(want), (got, want)
    if failed(want):
        assert got == want
        return
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b)


def load_obj_both(path, text):
    path.write_bytes(text.encode("utf-8"))
    read = path.read_text(encoding="utf-8", errors="replace")
    return outcome(load_mesh, path), outcome(ref.load_obj, read)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_obj_matches_reference(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "drawn.obj"
    lines = [line for _, line in data.draw(obj_lines())]
    got, want = load_obj_both(path, text_of(data.draw, lines))
    assert not failed(want), want  # drawn files are good
    assert want[1].dtype == np.int64
    assert_same(got, want)


OBJ_FAULTS = {
    "v": [(["v", "1", "2"], None), (["v", "1", "x", "2"], None), (["v", "1e", "0", "0"], None)],
    "f": [(["f", "1", "2"], None), (["f", "1", "2", "x"], None), (["f", "1", "2", "1.5"], None),
          (["f", "/2", "1", "3"], None), (["f", "1", "2", "99"], None),
          (["f", "1", "2", "0"], "bad face index"), (["f", "0/1", "1", "2"], "bad face index")],
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_obj_one_bad_line(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "bad.obj"
    lines = data.draw(obj_lines())
    at = data.draw(st.sampled_from([i for i, (kind, _) in enumerate(lines) if kind != "other"]))
    words, changed = data.draw(st.sampled_from(OBJ_FAULTS[lines[at][0]]))
    text = [line for _, line in lines]
    text[at] = join(data.draw, words)
    got, want = load_obj_both(path, text_of(data.draw, text))
    if changed:  # an index 0 is no vertex; the reference counted it back
        want = (ParseError, f"line {at + 1}: {changed}")
    assert failed(want), want
    assert_same(got, want)


@st.composite
def ply_texts(draw):
    """An ASCII PLY with extra vertex values in any column order, a header
    comment and polygons."""
    lines = draw(obj_lines())
    verts = [line.split("#")[0].split()[1:4] for kind, line in lines if kind == "v"]
    faces = [[int(c.split("/")[0]) for c in line.split("#")[0].split()[1:]]
             for kind, line in lines if kind == "f"]
    seen = np.cumsum([kind == "v" for kind, _ in lines])[[k == "f" for k, _ in lines]]
    faces = [[i - 1 if i > 0 else s + i for i in f] for f, s in zip(faces, seen)]
    props = draw(st.permutations(["x", "y", "z", "nx", "ny"][:3 + draw(st.integers(0, 2))]))
    head = ["ply", "format ascii 1.0", "comment drawn", f"element vertex {len(verts)}"]
    head += [f"property float {p}" for p in props]
    head += [f"element face {len(faces)}", "property list uchar int vertex_indices",
             "end_header"]
    body = [join(draw, [dict(zip("xyz", v)).get(p, "0.5") for p in props]).split("#")[0]
            for v in verts]
    body += [draw(SEP).join(map(str, [len(f)] + f)) for f in faces]
    return text_of(draw, head + body)


@settings(max_examples=60, deadline=None)
@given(ply_texts())
def test_ply_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "drawn.ply"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(ref.load_ply, path.read_text(encoding="utf-8"))
    assert not failed(want), want
    assert_same(outcome(load_mesh, path), want)


@pytest.mark.parametrize("element", ["element vertex", "element vertex 3.5",
                                     "element vertex -1"],
                         ids=["no-count", "fractional-count", "negative-count"])
def test_ply_bad_element_count(tmp_path, capsys, element):
    """An element line needs a name and a count >= 0: anything else is a
    ParseError naming its header line, and ``denoise`` exits 1."""
    path = tmp_path / "bad.ply"
    path.write_text(f"ply\nformat ascii 1.0\n{element}\nproperty float x\nproperty float y\n"
                    "property float z\nelement face 1\n"
                    "property list uchar int vertex_indices\nend_header\n"
                    "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    message = "line 3: element without a name and a count >= 0"
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_mesh(path)
    code = main(["denoise", "--input", str(path), "--method", "zheng-bilateral",
                 "--output", str(tmp_path / "out.obj")])
    assert code == 1 and capsys.readouterr().err == f"error: {message}\n"


@st.composite
def xyz_lines(draw):
    """Lines of an XYZ file with 3 or 6 columns on every point line."""
    cols, out = draw(st.sampled_from([3, 6])), []
    for _ in range(draw(st.integers(1, 6))):
        out += [("other", draw(st.sampled_from(["", "  ", "# comment"])))
                for _ in range(draw(st.integers(0, 1)))]
        words = [draw(FORMATS).format(draw(st.floats(-10, 10))) for _ in range(cols)]
        out.append(("point", join(draw, words)))
    return cols, out


def load_xyz_both(path, lines, draw):
    path.write_bytes(text_of(draw, lines).encode("utf-8"))
    return outcome(load_xyz, path), outcome(ref.load_xyz, path)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_xyz_matches_reference(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "drawn.xyz"
    cols, lines = data.draw(xyz_lines())
    got, want = load_xyz_both(path, [line for _, line in lines], data.draw)
    assert not failed(want), want
    assert (want[1] is None) == (cols == 3)
    assert_same(got, want)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_xyz_one_bad_line(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "bad.xyz"
    cols, lines = data.draw(xyz_lines())
    points = [i for i, (kind, _) in enumerate(lines) if kind == "point"]
    at = data.draw(st.sampled_from(points))
    bad_number = data.draw(st.booleans())
    if bad_number:
        words = ["1"] * cols
        words[data.draw(st.integers(0, cols - 1))] = data.draw(st.sampled_from(["x", "1,5"]))
    else:  # a wrong width, or the other width when another point keeps this one
        widths = [2, 4, 5, 7] + ([9 - cols] if len(points) > 1 else [])
        words = ["1"] * data.draw(st.sampled_from(widths))
    text = [line for _, line in lines]
    text[at] = join(data.draw, words)
    got, want = load_xyz_both(path, text, data.draw)
    if bad_number:  # the reference let float() speak without the line
        assert want[0] is ValueError
        want = (PointCloudError, f"line {at + 1}: bad coordinate")
    assert failed(want), want
    assert_same(got, want)
