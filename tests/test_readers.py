"""Differential tests of the OBJ, ASCII PLY and XYZ readers against the
line-by-line readers of ``reference_loops``.

Drawn files use comments, blank lines, tabs, ``\\v`` and ``\\f`` between words,
LF, CRLF and lone-CR line ends, ``v`` lines with a fourth value,
``vn``/``vt``/``g``/``o``/``s`` records, the corner forms ``a``, ``a/b``,
``a//c`` and ``a/b/c``, negative indices and polygons of 3 to 6 corners.
Characters that are whitespace to ``str.split`` or line breaks to
``str.splitlines`` but not ASCII whitespace (U+00A0, ``\\x1c``-``\\x1f``,
U+0085, U+2028, U+2029) appear in comments, in ignored records, after a
corner's slash and in bad numbers: they belong to a token and end no line.
A comment may hold a second ``#``. Good files must give equal
arrays (faces as int64). A file with exactly one bad line must fail with the
reference's exception and message, except where the readers now reject on
purpose: an OBJ index 0, and a number that does not convert in an XYZ file
(now ``line N: bad coordinate``). With several bad lines the readers may name
another line than the reference, because they check widths before numbers;
that is not tested.

Every number is read on the byte path (one ``np.fromstring`` per kind) or,
where that cannot read it as ``float`` or ``int`` would, on the token path
(the same tokens converted one at a time). Drawn OBJ, PLY and XYZ texts with
odd tokens (``nan(1)``, ``1_0``, ``١``, integers past the int64 limits,
``/b`` corners) must give the same outcome on both, valid files must never
need the token path, and a file with a bad number is scanned once.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_loops as ref
from denoisekit import ParseError, add_noise, load_mesh, load_xyz, make_shape, meshcore, save_mesh
from denoisekit.cli import main
from denoisekit.pointcloud import PointCloudError

FORMATS = st.sampled_from(["{!r}", "{:.6f}", "{:.3e}", "{:+.4g}"])
# of a value >= 0: digits grouped by "_", which float() reads and np.fromstring does not
GROUPED = st.just("0_0{:.5f}")
SEP = st.sampled_from([" ", "  ", "\t", " \t ", "\v", " \f"])
LEAD = st.sampled_from(["", "", " ", "\t", "\f\v"])
# characters that split or break lines for str.split or str.splitlines alone
NOT_BLANK = "\xa0\x1c\x1d\x1e\x1f\x85\u2028\u2029"
COMMENT = st.sampled_from(["", "", " # note", "# x y z", " # a # b", f" # a{NOT_BLANK}b",
                          " # nan(1) 1_0"])
OTHER = st.sampled_from(["", "   ", "# comment", "vn 0 0 1", "vt 0.5 0.5", "g part",
                         "o body", "s 1", "s off", "usemtl steel", "mtllib a.mtl",
                         "g part\xa0two", "o \x1cbody\u2029\x85", "g part_(1)"])


def number(draw, base=0.0):
    return draw(FORMATS | GROUPED).format(base + draw(st.floats(0.0, 0.25)))


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
                words.append(draw(st.sampled_from(["{}", "{}/7", "{}//2", "{}/3/4", "{}/2\xa03"]))
                             .format(a))
        out.append((kind, join(draw, words)))
    return out


def text_of(draw, lines):
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


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
    return outcome(load_mesh, path), outcome(ref.load_obj, text)


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
    "v": [(["v", "1", "2"], None), (["v", "1", "x", "2"], None), (["v", "1e", "0", "0"], None),
          (["v", "1\xa05", "0", "0"], None), (["v", "0", "0", "2\x1c"], None),
          (["v", "nan(1)", "0", "0"], None), (["v", "1__0", "0", "0"], None),
          (["v", "0", "(1)", "0"], None)],
    "f": [(["f", "1", "2"], None), (["f", "1", "2", "x"], None), (["f", "1", "2", "1.5"], None),
          (["f", "/2", "1", "3"], None), (["f", "1", "2", "99"], None),
          (["f", "1", "2", "0"], "bad face index"), (["f", "0/1", "1", "2"], "bad face index"),
          (["f", "1", "2\u20283", "3"], None), (["f", "1", "2", "3_"], None),
          (["f", "(1)", "2", "3"], None)],
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
    verts = [ref.words(line.split("#")[0])[1:4] for kind, line in lines if kind == "v"]
    faces = [[int(c.split("/")[0]) for c in ref.words(line.split("#")[0])[1:]]
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
    want = outcome(ref.load_ply, text)
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
        words[data.draw(st.integers(0, cols - 1))] = data.draw(
            st.sampled_from(["x", "1,5", "1\xa05", "2\x1c", "1\x855", "nan(1)", "_1", "(1)"]))
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


@pytest.mark.parametrize("char", list(NOT_BLANK))
def test_other_whitespace_is_part_of_a_token(tmp_path, char):
    """Only ASCII whitespace splits a line into words: a number with another
    whitespace character inside is bad, and a word that ends in one is another
    word, so ``v`` followed by U+00A0 is no vertex record."""
    obj, xyz = tmp_path / "a.obj", tmp_path / "a.xyz"
    obj.write_text(f"v{char} 5 5 5\nv 0 0 0\nv 1{char}5 0 0\nv 0 1 0\nf 1 2 3\n",
                   encoding="utf-8")
    with pytest.raises(ParseError, match="^line 3: bad vertex coordinate$"):
        load_mesh(obj)
    xyz.write_text(f"0 0 0\n1{char}5 0 0\n", encoding="utf-8")
    with pytest.raises(PointCloudError, match="^line 2: bad coordinate$"):
        load_xyz(xyz)


@pytest.mark.parametrize("char", ["\t", "\v", "\f", *NOT_BLANK])
def test_only_cr_and_lf_end_a_line(tmp_path, char):
    """``\\n``, ``\\r\\n`` and a lone ``\\r`` end a line; no other character
    does, so the line numbers of every reader count only those."""
    for end, line in (("\n", 3), ("\r\n", 3), ("\r", 3), (char, 2)):
        obj, xyz = tmp_path / "a.obj", tmp_path / "a.xyz"
        obj.write_bytes(f"v 0 0 0 #{end}v 1 0 0\nv 0 x 0\n".encode("utf-8"))
        with pytest.raises(ParseError, match=f"^line {line}: bad vertex coordinate$"):
            load_mesh(obj)
        xyz.write_bytes(f"0 0 0 #{end}1 0 0\n0 x 0\n".encode("utf-8"))
        with pytest.raises(PointCloudError, match=f"^line {line}: bad coordinate$"):
            load_xyz(xyz)


def test_xyz_undecodable_byte_names_its_line(tmp_path, capsys):
    """A byte that is not UTF-8 reads as U+FFFD in every reader, so an XYZ
    coordinate that holds one is a bad coordinate of its line, as in an OBJ."""
    xyz, obj = tmp_path / "bad.xyz", tmp_path / "bad.obj"
    xyz.write_bytes(b"0 0 0\n1 \xff 0\n0 1 0\n")
    obj.write_bytes(b"v 0 0 0\nv 1 \xff 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(ParseError, match="^line 2: bad vertex coordinate$"):
        load_mesh(obj)
    with pytest.raises(PointCloudError, match="^line 2: bad coordinate$"):
        load_xyz(xyz)
    code = main(["denoise", "--input", str(xyz), "--method", "li-bilateral",
                 "--output", str(tmp_path / "out.xyz")])
    assert code == 1 and capsys.readouterr().err == "error: line 2: bad coordinate\n"
    assert not (tmp_path / "out.xyz").exists()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["cube", "plane", "icosphere", "wedge"]), n=st.integers(2, 4),
       scale=st.sampled_from([1e-3, 1.0, 7.5, 1e4]), noise=st.floats(0.0, 0.3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_obj_round_trip(tmp_path_factory, kind, n, scale, noise, seed):
    """``save_mesh`` then ``load_mesh`` gives the same faces, and each vertex
    coordinate as its 9 significant digits read back by ``float``."""
    mesh = add_noise(make_shape(kind, n=n, scale=scale), noise, seed)
    path = tmp_path_factory.getbasetemp() / "round.obj"
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert back.faces.dtype == np.int64 and np.array_equal(back.faces, mesh.faces)
    want = [float("%.9g" % x) for x in mesh.vertices.ravel().tolist()]
    assert back.vertices.ravel().tolist() == want


PLY_VERTEX = ("element vertex 4\nproperty float x\nproperty float y\nproperty float z\n",
              ["0 0 0", "1 0 0", "0 1 0", "1 1 0"])
PLY_FACE = ("element face 2\nproperty list uchar int vertex_indices\n", ["3 0 1 2", "3 1 3 2"])
PLY_EDGE = ("element edge 2\nproperty int vertex1\nproperty int vertex2\n", ["0 1", "1 3"])
PLY_MATERIAL = ("element material 1\nproperty int id\n", ["7"])
PLY_STRIP = ("element strip 1\nproperty list uchar int vertex_indices\n", ["3 3 2 1"])


@pytest.mark.parametrize("elements", [[PLY_VERTEX, PLY_EDGE, PLY_FACE],
                                      [PLY_MATERIAL, PLY_VERTEX, PLY_FACE],
                                      [PLY_VERTEX, PLY_STRIP, PLY_FACE]],
                         ids=["edge-between", "material-first", "face-like-rows"])
def test_ply_rows_go_to_elements_in_header_order(tmp_path, elements):
    """Body rows belong to the elements in header order, and the rows of an
    element other than ``vertex`` and ``face`` are skipped by its count, even
    when they look like vertex or face rows."""
    path = tmp_path / "e.ply"
    path.write_text("ply\nformat ascii 1.0\n" + "".join(head for head, _ in elements)
                    + "end_header\n" + "".join(r + "\n" for _, rows in elements for r in rows))
    mesh = load_mesh(path)
    assert mesh.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
    assert mesh.faces.tolist() == [[0, 1, 2], [1, 3, 2]]


# numbers that int() (and float()) or only float() reads, some only on the token
# path, and odd tokens: bad to int() or to both, or read otherwise by np.fromstring
INTS = ["0", "1", "2", "3", "-1", "-2", "+3", "007", "-0", "1_0", "١", "9" * 19, "-" + "9" * 19,
        "9223372036854775807", "-9223372036854775808"]
FLOATS = INTS + ["1.5", "2e1", ".5", "5.", "inf", "-Infinity", "nan", "1e999"]
ODD = ["nan(1)", "9223372036854775808", "9" * 25, "-" + "9" * 20, "1__0", "_1", "(1)", "1e",
       "x", "1-2", "1.2.3", "0x10", "1.5", "nan"]
INT = st.sampled_from(INTS) | st.integers(-9, 9).map(str)
FLOAT = st.sampled_from(FLOATS) | st.floats(-1e3, 1e3).map(repr)
# a corner whose "/..." suffix does not count
CORNER = (INT | st.builds("{}/{}/{}".format, INT, INT, INT) | st.builds("{}//{}".format, INT, INT)
          | st.builds("{}/{}".format, INT, INT))
ODD_TOKEN = st.one_of(st.sampled_from(ODD), st.sampled_from(ODD),
                      st.builds("{}/{}".format, st.sampled_from(ODD), INT),
                      st.builds("/{}".format, INT))
BLANK = st.sampled_from([" ", "  ", "\t", "\v", " \f"])


@st.composite
def drawn_text(draw, kinds, comment=True):
    """Lines of a tag of ``kinds`` (or none, the tag "") and tokens drawn from its
    strategy, at most one of them odd, with drawn blanks, comments and LF, CRLF
    or CR line ends."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        tag = draw(st.sampled_from(sorted(kinds)))
        lines.append([tag] + draw(st.lists(kinds[tag], min_size=3, max_size=4)
                                  | st.lists(kinds[tag], max_size=6)))
    spots = [(i, j) for i, line in enumerate(lines) for j in range(1, len(line))]
    if spots and draw(st.booleans()):
        i, j = draw(st.sampled_from(spots))
        lines[i][j] = draw(ODD_TOKEN)
    ends = st.sampled_from(["", "", " # c", "#1 2"] if comment else [""])
    return text_of(draw, [draw(BLANK).join(w for w in line if w) + draw(ends) for line in lines])


@st.composite
def drawn_ply(draw):
    """An ASCII PLY header with vertex properties in any order and an element
    before or between ``vertex`` and ``face``, and a drawn body."""
    props = draw(st.permutations(["x", "y", "z", "nx"][:draw(st.integers(3, 4))]))
    vertex = f"element vertex {draw(st.integers(0, 3))}\n" + "".join(
        f"property float {p}\n" for p in props)
    face = f"element face {draw(st.integers(0, 3))}\nproperty list uchar int vertex_indices\n"
    other = draw(st.sampled_from(["", "element edge 1\nproperty int v1\n"]))
    elements = draw(st.sampled_from([[other, vertex, face], [vertex, other, face]]))
    body = draw(drawn_text({"": FLOAT, "3": INT, "4": INT, "2": INT}, comment=False))
    return "ply\nformat ascii 1.0\n" + "".join(elements) + "end_header\n" + body


def raw(load, *args):
    """The arrays a reader returns (dtype, shape and bytes) or its error."""
    try:
        out = load(*args)
    except Exception as e:  # the error is the outcome
        return type(e), str(e)
    arrays = (out.points, out.normals) if hasattr(out, "points") else out
    return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays]


def byte_and_token_paths(load, *args):
    """A reader's outcome, and its outcome with every number read on the token
    path (the tokens converted one at a time)."""
    got = raw(load, *args)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(meshcore, "_from_bytes", lambda *_: None)
        return got, raw(load, *args)


@settings(max_examples=200, deadline=None)
@given(drawn_text({"v": FLOAT, "f": CORNER, "vn": FLOAT, "": FLOAT, "#": FLOAT}))
@example("v nan(1) 0 0\n")
@example("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/2 /2 3 -1\n")  # an empty vertex index
@example("v 0 0 0\nf 1 1 " + "9" * 20 + "\n")
def test_obj_byte_path_matches_token_path(text):
    got, want = byte_and_token_paths(meshcore._load_obj, text)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(drawn_ply())
@example("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float y\n"
         "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
         "end_header\n0 0 nan(1)\n3 0 0 -" + "9" * 20 + "\n")
def test_ply_byte_path_matches_token_path(text):
    got, want = byte_and_token_paths(meshcore._load_ply, text)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(drawn_text({"": FLOAT}))
@example("0 0 0\n0 nan(1) 0\n")
def test_xyz_byte_path_matches_token_path(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "drawn-path.xyz"
    path.write_bytes(text.encode("utf-8"))
    got, want = byte_and_token_paths(load_xyz, path)
    assert got == want


VALID = {
    "slashes.obj": "# corners with slashes\r\nv 0 0 0 # origin\r\nv 1 0 0\r\nv 0 1 0\r\n"
                   "vt 0 0\r\nvn 0 0 1\r\nf 1/1/1 2/1/1 3/1/1\r\nv 1 1 0\r\n"
                   "f -3//1 -1//1 -2//1\r\nf\t2/1 4/1\v3/1 # a tab and a \\v\r\n",
    "plain.obj": "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 1e-3\nf 1 2 3\nf 2 4 3\n",
    "mesh.ply": "ply\nformat ascii 1.0\nelement vertex 4\nproperty float z\nproperty float x\n"
                "property float y\nelement face 1\nproperty list uchar int vertex_indices\n"
                "end_header\n0 0 0\n0 1 0\n0 0 1\n0.5 1 1\n4 0 1 3 2\n",
    "three.xyz": "# points\n0 0 0\n1 0 0\r\n0 1 0 # last\n",
    "six.xyz": "0 0 0 0 0 1\n1 0 0 0 0 1\n0 1 0 0 0 1\n",
}


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_files_never_reach_the_token_path(tmp_path, monkeypatch, name):
    """Comments, corner slashes, CRLF, negative indices, a PLY and both XYZ
    widths load to the same arrays with every number read by ``_from_bytes``,
    which never gives up on them."""
    path = tmp_path / name
    path.write_bytes(VALID[name].encode("utf-8"))
    load = load_xyz if name.endswith(".xyz") else load_mesh
    want = outcome(load, path)
    assert not failed(want), want
    reads, from_bytes = [], meshcore._from_bytes

    def read(*args):
        reads.append(from_bytes(*args))
        return reads[-1]

    monkeypatch.setattr(meshcore, "_from_bytes", read)
    assert_same(outcome(load, path), want)
    assert reads and all(values is not None for values in reads)


BAD = {  # one bad number each (past int64, a cut corner, nan(1)), and the error it fails with
    "index.ply": ("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                  "property float y\nproperty float z\nelement face 1\n"
                  "property list uchar int vertex_indices\nend_header\n"
                  "0 0 0\n1 0 0\n0 1 0\n3 0 1 " + "9" * 20 + "\n",
                  ParseError, "line 13: bad face index"),
    "corner.obj": ("v 0 0 0\nv 1 0 0\n# a comment\nv 0 1 0\nf 1 2/1 y/3\n",
                   ParseError, "line 5: bad face index"),
    "nan.xyz": ("0 0 0\n1 0 0\n0 1 nan(1)\n", PointCloudError, "line 3: bad coordinate"),
}


@pytest.mark.parametrize("name", sorted(BAD))
def test_a_bad_number_is_found_in_one_scan(tmp_path, monkeypatch, name):
    """A file with one bad number fails with its message, and its text is
    scanned into ``Tokens`` once."""
    text, error, message = BAD[name]
    path = tmp_path / name
    path.write_text(text)
    scans, init = [], meshcore.Tokens.__init__

    def counted(self, *args, **kwargs):
        scans.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(meshcore.Tokens, "__init__", counted)
    with pytest.raises(error, match=f"^{message}$"):
        (load_xyz if name.endswith(".xyz") else load_mesh)(path)
    assert len(scans) == 1
