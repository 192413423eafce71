"""Persistence round trips and the command-line surface.

Round trips must be bit-identical: coordinates are written with 17
significant digits, so a reloaded mesh reproduces every derived measure
exactly. CLI exit codes under test: 0 for completed analyses (violated
certificates included), 1 for usage and input errors, 2 when any
certificate comes back not-applicable.
"""

import json
import math
import os

import numpy as np
import pytest

from surfcert import (
    CornerFlag,
    InvalidParameterError,
    MeshParseError,
    PolylineCurve,
    SurfaceModel,
    UnsupportedOperationError,
    atomic_write,
    build_scene,
    catalog_names,
    load_curve,
    load_mesh,
    m_profile,
    report_envelope,
    save_curve,
    save_mesh,
    validate_report,
    profile_csv_text,
    profile_svg_text,
)
from surfcert.cli import main


@pytest.fixture(scope="module")
def disk16():
    return build_scene("flat_disk", res=16)


class TestMeshRoundTrips:
    @pytest.mark.parametrize("ext", ["obj", "off", "json"])
    def test_bit_identical_round_trip(self, tmp_path, disk16, ext):
        path = str(tmp_path / f"disk.{ext}")
        save_mesh(path, disk16.surface)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, disk16.surface.vertices)
        assert np.array_equal(back.faces, disk16.surface.faces)
        # derived measures agree exactly, not just numerically
        assert float(back.face_areas.sum()) == float(disk16.surface.face_areas.sum())

    def test_four_dimensional_mesh_needs_json(self, tmp_path):
        br = build_scene("branched_disk", res=16)
        for ext in ("obj", "off"):
            with pytest.raises(UnsupportedOperationError):
                save_mesh(str(tmp_path / f"b.{ext}"), br.surface)
        path = str(tmp_path / "b.json")
        save_mesh(path, br.surface)
        back = load_mesh(path)
        assert back.dim == 4
        assert np.array_equal(back.vertices, br.surface.vertices)

    def test_unknown_extension_rejected(self, tmp_path, disk16):
        with pytest.raises(InvalidParameterError):
            save_mesh(str(tmp_path / "disk.stl"), disk16.surface)
        p = tmp_path / "disk.stl"
        p.write_text("solid\n")
        with pytest.raises(InvalidParameterError):
            load_mesh(str(p))

    def test_obj_negative_indices_and_comments(self, tmp_path):
        p = tmp_path / "tri.obj"
        p.write_text(
            "# comment\n"
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "f -3 -2 -1\n"
        )
        s = load_mesh(str(p))
        assert s.n_faces == 1
        assert float(s.face_areas.sum()) == pytest.approx(0.5)

    def test_obj_texture_normal_references_ignored(self, tmp_path):
        p = tmp_path / "tri.obj"
        p.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "vn 0 0 1\nvt 0 0\n"
            "f 1/1/1 2/1/1 3/1/1\n"
        )
        assert load_mesh(str(p)).n_faces == 1

    def test_obj_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 nine\n")
        with pytest.raises(MeshParseError) as exc:
            load_mesh(str(p))
        assert exc.value.line == 4
        assert "bad.obj:4:" in str(exc.value)

    def test_obj_quad_rejected(self, tmp_path):
        p = tmp_path / "quad.obj"
        p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(MeshParseError):
            load_mesh(str(p))

    def test_off_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "bad.off"
        p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 x\n3 0 1 2\n")
        with pytest.raises(MeshParseError) as exc:
            load_mesh(str(p))
        assert exc.value.line == 5


TRI_V = "0 0 0\n1 0 0\n0 1 0\n"  # one triangle's vertices, OFF layout


def write(tmp_path, name: str, text: str, newline: str = "\n") -> str:
    path = tmp_path / name
    path.write_bytes(text.replace("\n", newline).encode())
    return str(path)


class TestMeshParsing:
    """The array parsers: exact arrays for every accepted form, and each
    MeshParseError with its message and line."""

    @pytest.mark.parametrize("res", [8, 33])
    @pytest.mark.parametrize("name", catalog_names())
    def test_save_load_is_bitwise(self, tmp_path, name, res):
        s = build_scene(name, res=res).surface
        for ext in ("obj", "off", "json") if s.dim == 3 else ("json",):
            path = str(tmp_path / f"m.{ext}")
            save_mesh(path, s)
            back = load_mesh(path)
            assert back.vertices.tobytes() == s.vertices.tobytes()
            assert back.faces.tobytes() == s.faces.tobytes()

    def assert_arrays(self, path, verts, faces):
        s = load_mesh(path)
        assert s.vertices.tobytes() == np.array(verts, dtype=np.float64).tobytes()
        assert s.faces.tobytes() == np.array(faces, dtype=np.int64).tobytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_obj_accepted_forms(self, tmp_path, newline):
        text = (
            "# header\n\n"
            "mtllib x.mtl\n"
            "v\t-0.0 1e-310\t0.1\n"
            "  v 1 0 0 1.0\n"  # a w coordinate, ignored
            "vt 0 0\nvn 0 0 1\n"
            "v 0 1 0\n"
            "f 1//1 2//1 3//1\n"
            "v 1 1 0\n"
            "f -3/1/1 -1 -2\n"  # relative: vertices 2, 4, 3
            "s off\n"
        )
        path = write(tmp_path, "m.obj", text, newline)
        verts = [[-0.0, 1e-310, 0.1], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        self.assert_arrays(path, verts, [[0, 1, 2], [1, 3, 2]])

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_off_accepted_forms(self, tmp_path, newline):
        text = (
            "off\n# counts\n4 2 5\n"
            "-0.0\t1e-310 0.1\n1 0 0 255 0 0\n\n0 1 0\n1 1 0\n"
            "3 0 1 2 255 255 255\n3\t1 3 2\n"
            "trailing lines past the counts are ignored\n"
        )
        path = write(tmp_path, "m.off", text, newline)
        verts = [[-0.0, 1e-310, 0.1], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        self.assert_arrays(path, verts, [[0, 1, 2], [1, 3, 2]])

    def test_off_header_is_optional(self, tmp_path):
        path = write(tmp_path, "m.off", "3 1 0\n" + TRI_V + "3 0 1 2\n")
        self.assert_arrays(path, [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("v 0 0\n", 1, "vertex needs three coordinates"),
            ("# c\nv 0 0 x\n", 2, "bad vertex coordinate in 'v 0 0 x'"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n", 5,
             "face has 4 vertices; only triangles are supported"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\n\nf 1 2 3.0\n", 5, "bad face index '3.0'"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 /3\n", 4, "bad face index '/3'"),
            ("v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\n", 3, "face index '3' out of range"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 -4\n", 4, "face index '-4' out of range"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", 4, "face index '0' out of range"),
            ("f 1 2 3\n", 1, "face index '1' out of range"),
            ("# only a comment\n", 0, "no vertices found"),
            ("v 0 0 0\nv 1 0 0\nv 0 1 0\n", 0, "no faces found"),
        ],
    )
    def test_obj_errors(self, tmp_path, text, line, message):
        with pytest.raises(MeshParseError) as exc:
            load_mesh(write(tmp_path, "bad.obj", text))
        assert exc.value.line == line
        assert str(exc.value).endswith(f"bad.obj:{line}: {message}")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("# nothing\n\n", 0, "empty file"),
            ("\nOFF\n", 2, "missing vertex/face counts"),
            ("OFF\n3\n" + TRI_V, 2, "bad count line '3'"),
            ("OFF\nthree 1 0\n" + TRI_V, 2, "bad count line 'three 1 0'"),
            ("OFF\n-3 1 0\n" + TRI_V, 2, "bad count line '-3 1 0'"),
            ("OFF\n3 2 0\n" + TRI_V + "3 0 1 2\n", 6, "file ends before declared counts are met"),
            ("OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", 4, "vertex needs three coordinates"),
            ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 x\n3 0 1 2\n", 5, "bad vertex coordinate in '0 1 x'"),
            ("OFF\n3 1 0\n" + TRI_V + "3 0 1 b\n", 6, "bad face line '3 0 1 b'"),
            ("OFF\n3 1 0\n" + TRI_V + "4 0 1 2 0\n", 6, "face has 4 vertices; only triangles are supported"),
            ("OFF\n3 1 0\n" + TRI_V + "3 0 1\n", 6, "face has 3 vertices; only triangles are supported"),
            ("OFF\n3 1 0\n" + TRI_V + "3 0 1 3\n", 6, "face index out of range"),
            ("OFF\n0 0 0\n", 0, "no vertices found"),
            ("OFF\n3 0 0\n" + TRI_V, 0, "no faces found"),
        ],
    )
    def test_off_errors(self, tmp_path, text, line, message):
        with pytest.raises(MeshParseError) as exc:
            load_mesh(write(tmp_path, "bad.off", text))
        assert exc.value.line == line
        assert str(exc.value).endswith(f"bad.off:{line}: {message}")

    @pytest.mark.parametrize("faces", ["[[0.9, 1.2, 2.7]]", "[[0, 1, true]]", "[[0, 1, 2.0]]", '[["0", 1, 2]]'])
    def test_json_faces_must_be_integers(self, tmp_path, faces):
        # the int64 conversion alone would read these as face [0, 1, 2]
        text = '{"dimension": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "faces": %s}'
        with pytest.raises(MeshParseError) as exc:
            load_mesh(write(tmp_path, "bad.json", text % faces))
        assert exc.value.line == 1
        assert str(exc.value).endswith("bad.json:1: face indices must be JSON integers")


class TestCurveRoundTrips:
    def test_raw_polygon(self, tmp_path):
        sq = PolylineCurve(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))
        path = str(tmp_path / "sq.json")
        save_curve(path, sq)
        back = load_curve(path)
        assert np.array_equal(back.vertices, sq.vertices)
        assert back.corner_flags is None  # raw polygon stays raw

    def test_flagged_curve(self, tmp_path):
        flags = (CornerFlag(0, math.pi / 2), CornerFlag(2, 0.3))
        c = PolylineCurve(
            np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float),
            corner_flags=flags,
        )
        path = str(tmp_path / "c.json")
        save_curve(path, c)
        back = load_curve(path)
        assert back.corner_flags == flags

    def test_empty_corner_list_means_smooth(self, tmp_path):
        p = tmp_path / "smooth.json"
        p.write_text(
            json.dumps(
                {
                    "dimension": 3,
                    "vertices": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                    "closed": True,
                    "corners": [],
                }
            )
        )
        back = load_curve(str(p))
        assert back.corner_flags == ()

    def test_garbage_json_reports_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(MeshParseError):
            load_curve(str(p))


class TestReports:
    def test_envelope_shape(self):
        doc = report_envelope("curve-analysis", {"x": 1})
        assert doc == {"kind": "curve-analysis", "version": 1, "payload": {"x": 1}}
        validate_report(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(Exception):
            report_envelope("novel-kind", {})

    def test_validate_rejects_wrong_version(self):
        doc = report_envelope("curve-analysis", {})
        doc["version"] = 99
        with pytest.raises(Exception):
            validate_report(doc)

    def test_certificate_payload_consistency_enforced(self):
        good = {
            "theorem": "density-lower-bound",
            "status": "not-applicable",
            "hypotheses": [
                {"name": "h", "required": "x", "measured": 1.0, "ok": False, "source": "measured"}
            ],
            "conclusion": {"satisfied": True},
            "citations": ["density-lower-bound"],
            "inputs_digest": "0" * 64,
        }
        validate_report(report_envelope("certificate", good))
        bad = dict(good, status="satisfied")  # failed hypothesis cannot satisfy
        with pytest.raises(Exception):
            validate_report(report_envelope("certificate", bad))

    def test_batch_reports_validate_recursively(self):
        inner = report_envelope("curve-analysis", {"x": 1})
        batch = report_envelope("batch", {"items": [inner]})
        validate_report(batch)
        batch_bad = report_envelope("batch", {"items": [{"kind": "nope"}]})
        with pytest.raises(Exception):
            validate_report(batch_bad)


@pytest.fixture(scope="module")
def profile(disk16):
    return m_profile(
        disk16.surface, disk16.boundaries, (0.0, 0.0, 0.0), radii=(0.5, 1.0, 2.0)
    )


class TestProfileSerialization:
    def test_csv_layout(self, profile):
        text = profile_csv_text(profile)
        lines = text.strip().splitlines()
        assert lines[0] == "r,m,weighted_m,defect"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[3]) == 0.0  # defect column starts at zero

    def test_svg_is_self_contained(self, profile):
        text = profile_svg_text(profile)
        assert text.startswith("<svg")
        assert "</svg>" in text
        assert "http-equiv" not in text  # no external anything


class TestAtomicWrite:
    def test_writes_and_cleans_up(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write(str(target), "payload\n")
        assert target.read_text() == "payload\n"
        leftovers = [f for f in os.listdir(tmp_path) if f != "out.txt"]
        assert leftovers == []

    def test_replaces_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write(str(target), "new")
        assert target.read_text() == "new"

    @pytest.fixture
    def restore_umask(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    @staticmethod
    def _mode(path) -> int:
        return os.stat(path).st_mode & 0o7777

    @pytest.mark.parametrize("mask", [0o022, 0o027], ids=["022", "027"])
    def test_new_files_get_the_umask_mode(self, tmp_path, disk16, restore_umask, mask):
        os.umask(mask)
        out = tmp_path / "catalog.json"
        assert main(["catalog", "--out", str(out)]) == 0
        mesh = tmp_path / "disk.obj"
        save_mesh(str(mesh), disk16.surface)
        # the mode open(path, "w") would give
        assert self._mode(out) == self._mode(mesh) == 0o666 & ~mask

    def test_overwritten_file_keeps_its_mode(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        os.chmod(target, 0o604)
        atomic_write(str(target), "new")
        assert target.read_text() == "new"
        assert self._mode(target) == 0o604


class TestCommandLine:
    def curve_file(self, tmp_path) -> str:
        path = str(tmp_path / "square.json")
        sq = PolylineCurve(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float))
        save_curve(path, sq)
        return path

    def test_analyze_curve(self, tmp_path, capsys):
        path = self.curve_file(tmp_path)
        code = main(["analyze-curve", "--curve", path, "--x0", "0.5,0.5,0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "curve-analysis"
        assert doc["payload"]["tc"] == pytest.approx(2.0 * math.pi)
        assert doc["payload"]["cone_density"] == pytest.approx(1.0)

    def test_analyze_curve_writes_output_file(self, tmp_path):
        path = self.curve_file(tmp_path)
        out = str(tmp_path / "report.json")
        code = main(["analyze-curve", "--curve", path, "--x0", "0.5,0.5,0", "--out", out])
        assert code == 0
        validate_report(json.loads(open(out).read()))

    def test_analyze_curve_batch_points(self, tmp_path, capsys):
        path = self.curve_file(tmp_path)
        code = main(
            ["analyze-curve", "--curve", path, "--x0", "0.5,0.5,0", "--x0", "0.25,0.5,0"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["payload"]["points"]) == 2

    def test_certify_cap_is_satisfied(self, capsys):
        code = main(
            ["certify", "--catalog", "cap", "--param", "R=10", "--param", "theta=0.1",
             "--res", "32", "--p", "inf", "--which", "full"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["payload"]["status"] == "satisfied"

    def test_certify_hemisphere_not_applicable_exits_2(self, capsys):
        code = main(["certify", "--catalog", "hemisphere", "--res", "16", "--p", "inf"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["payload"]["status"] == "not-applicable"

    def test_analyze_surface_from_mesh_file(self, tmp_path, capsys):
        scene = build_scene("flat_disk", res=16)
        path = str(tmp_path / "disk.obj")
        save_mesh(path, scene.surface)
        code = main(["analyze-surface", "--mesh", path, "--x0", "0,0,0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "surface-analysis"
        (entry,) = doc["payload"]["densities"]
        assert entry["value"] == pytest.approx(1.0, abs=1e-9)
        assert doc["payload"]["genus"] == 0

    def test_genus_subcommand(self, capsys):
        code = main(["genus", "--catalog", "torus_minus_disk", "--res", "24", "--delta", "0.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["payload"]["certificate"]["conclusion"]["genus"] == 1
        assert doc["payload"]["certificate"]["status"] == "satisfied"

    def test_catalog_listing(self, capsys):
        code = main(["catalog"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        names = [e["name"] for e in doc["payload"]["surfaces"]]
        assert "cap" in names and "torus_minus_disk" in names

    def test_unknown_catalog_name_exits_1(self, capsys):
        code = main(["certify", "--catalog", "moebius", "--p", "inf"])
        assert code == 1
        assert "available" in capsys.readouterr().err

    def test_usage_error_exits_1(self, capsys):
        # neither --catalog nor --mesh: reported as an input error
        code = main(["certify", "--p", "inf"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_file_exits_1(self, capsys):
        code = main(["analyze-surface", "--mesh", "/nonexistent/x.obj", "--x0", "0,0,0"])
        assert code == 1
        assert "error" in capsys.readouterr().err
