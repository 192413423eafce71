"""Mesh, curve, and report serialization.

OBJ and OFF cover triangle meshes in R^3; a JSON scene format carries
meshes in higher ambient dimension (the branched examples live in R^4).
Curves travel as JSON with optional corner flags. Reports are JSON
envelopes; profile data can additionally be emitted as CSV or as a
self-contained SVG plot. All writes are atomic (temp file + rename).
"""
from __future__ import annotations

import json
import os
import secrets
import stat
from itertools import chain

import numpy as np

from .curves import CornerFlag, PolylineCurve
from .errors import (
    InputInconsistentError,
    InvalidParameterError,
    MeshParseError,
    UnsupportedOperationError,
)
from .surfaces import SurfaceModel

__all__ = [
    "atomic_write",
    "load_mesh",
    "save_mesh",
    "load_curve",
    "save_curve",
    "report_envelope",
    "validate_report",
    "profile_csv_text",
    "profile_svg_text",
]

REPORT_VERSION = 1
REPORT_KINDS = (
    "curve-analysis",
    "surface-analysis",
    "monotonicity",
    "certificate",
    "genus",
    "catalog",
    "selftest",
    "batch",
)


def atomic_write(path: str, text: str) -> None:
    """Write text so readers never observe a half-written file.

    The text goes to a fresh file in the same directory, which then replaces
    path. An existing file keeps its mode; a new one gets the mode that
    open(path, "w") gives, 0o666 less the umask, because the temporary file
    is opened with mode 0o666 and the kernel applies the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            try:
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt(x: float) -> str:
    # 17 significant digits round-trip any double exactly
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# meshes


def load_mesh(path: str) -> SurfaceModel:
    """Read a triangle mesh (.obj, .off, or .json scene) into a model."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".obj":
        v, f = _parse_obj(path)
    elif ext == ".off":
        v, f = _parse_off(path)
    elif ext == ".json":
        v, f = _parse_scene(path)
    else:
        raise InvalidParameterError(
            f"unknown mesh format {ext!r}; expected .obj, .off, or .json"
        )
    return SurfaceModel.build(v, f)


def save_mesh(path: str, surface: SurfaceModel) -> None:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".obj":
        atomic_write(path, _obj_text(surface))
    elif ext == ".off":
        atomic_write(path, _off_text(surface))
    elif ext == ".json":
        atomic_write(path, _scene_text(surface))
    else:
        raise InvalidParameterError(
            f"unknown mesh format {ext!r}; expected .obj, .off, or .json"
        )


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _token_rows(text: str) -> tuple:
    """The tokens of text's lines that are neither blank nor comments, as one
    object array, with each such line's first token position and its count."""
    rows = [r for r in map(str.split, text.split("\n")) if r and r[0][0] != "#"]
    width = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    tokens = np.array(list(chain.from_iterable(rows)), dtype=object)
    return tokens, np.cumsum(width) - width, width


def _parse_obj(path: str) -> tuple:
    """Vertices and faces of an OBJ file as whole arrays.

    The object arrays convert through float() and int(), the functions
    `_scan_obj` applies line by line, so the two accept the same files; the
    scan runs only after the array parse has failed, to name the line.
    """
    text = _read_text(path)
    try:
        tokens, first, width = _token_rows(text)
        tag = tokens[first]
        is_v, is_f = tag == "v", tag == "f"
        if (width[is_v] < 4).any() or (width[is_f] != 4).any():
            raise ValueError("a vertex or face line has the wrong token count")
        verts = tokens[first[is_v, None] + np.arange(1, 4)].astype(np.float64)
        refs = tokens[first[is_f, None] + np.arange(1, 4)]
        if "/" in text:  # drop texture/normal refs
            refs = np.array([t.split("/")[0] for t in refs.ravel()], dtype=object)
        idx = refs.reshape(-1, 3).astype(np.int64)
        seen = np.cumsum(is_v)[is_f, None]  # vertices defined before each face
        idx = np.where(idx < 0, seen + 1 + idx, idx)  # OBJ relative indexing
        if ((idx < 1) | (idx > seen)).any():
            raise ValueError("a face index is out of range")
    except (ValueError, OverflowError):
        _scan_obj(path, text)
        raise MeshParseError(path, 0, "malformed OBJ file")
    if not verts.size:
        raise MeshParseError(path, 0, "no vertices found")
    if not idx.size:
        raise MeshParseError(path, 0, "no faces found")
    return verts, idx - 1


def _scan_obj(path: str, text: str) -> None:
    """Raise MeshParseError at the first line the OBJ parse rejects."""
    nv = 0
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise MeshParseError(path, ln, "vertex needs three coordinates")
            try:
                [float(t) for t in parts[1:4]]
            except ValueError:
                raise MeshParseError(path, ln, f"bad vertex coordinate in {line!r}")
            nv += 1
        elif tag == "f":
            if len(parts) != 4:
                raise MeshParseError(
                    path, ln, f"face has {len(parts) - 1} vertices; only triangles are supported"
                )
            for tok in parts[1:]:
                try:
                    i = int(tok.split("/")[0])
                except ValueError:
                    raise MeshParseError(path, ln, f"bad face index {tok!r}")
                if i < 0:
                    i = nv + 1 + i
                if not (1 <= i <= nv):
                    raise MeshParseError(path, ln, f"face index {tok!r} out of range")
        # other tags (vn, vt, o, g, s, usemtl, mtllib) are ignored


def _obj_text(surface: SurfaceModel) -> str:
    if surface.dim != 3:
        raise UnsupportedOperationError(
            f"OBJ stores 3D meshes; this surface lives in R^{surface.dim} "
            "(use the .json scene format)"
        )
    out = []
    for v in surface.vertices:
        out.append(f"v {_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}")
    for f in surface.faces:
        out.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    out.append("")
    return "\n".join(out)


def _parse_off(path: str) -> tuple:
    """Vertices and faces of an OFF file as whole arrays.

    The count line, the vertex block and the face block each convert in one
    call, through the int() and float() that `_scan_off` applies line by line
    after a failure. Tokens past a face's three indices (colors) and lines
    past the declared counts are ignored.
    """
    text = _read_text(path)
    try:
        tokens, first, width = _token_rows(text)
        head = 1 if width.size and width[0] == 1 and tokens[0].upper() == "OFF" else 0
        if head >= width.size or width[head] < 2:
            raise ValueError("no count line")
        nv, nf = tokens[first[head] : first[head] + 2].astype(np.int64).tolist()
        if nv < 0 or nf < 0 or width.size - head - 1 < nv + nf:
            raise ValueError("bad counts")
        vrows = slice(head + 1, head + 1 + nv)
        frows = slice(head + 1 + nv, head + 1 + nv + nf)
        if (width[vrows] < 3).any() or (width[frows] < 4).any():
            raise ValueError("a vertex or face line is short")
        verts = tokens[first[vrows, None] + np.arange(3)].astype(np.float64)
        faces = tokens[first[frows, None] + np.arange(4)].astype(np.int64)
        if (faces[:, 0] != 3).any() or ((faces[:, 1:] < 0) | (faces[:, 1:] >= nv)).any():
            raise ValueError("a face is not a triangle of declared vertices")
    except (ValueError, OverflowError):
        _scan_off(path, text)
        raise MeshParseError(path, 0, "malformed OFF file")
    if not nv:
        raise MeshParseError(path, 0, "no vertices found")
    if not nf:
        raise MeshParseError(path, 0, "no faces found")
    return verts, faces[:, 1:]


def _scan_off(path: str, text: str) -> None:
    """Raise MeshParseError at the first line the OFF parse rejects."""
    # strip comments and blanks but remember original line numbers
    rows = [
        (ln, s)
        for ln, s in ((i + 1, l.strip()) for i, l in enumerate(text.split("\n")))
        if s and not s.startswith("#")
    ]
    if not rows:
        raise MeshParseError(path, 0, "empty file")
    pos = 0
    if rows[pos][1].upper() == "OFF":
        pos += 1
    if pos >= len(rows):
        raise MeshParseError(path, rows[-1][0], "missing vertex/face counts")
    ln, header = rows[pos]
    try:
        nv, nf = [int(t) for t in header.split()[:2]]
    except (ValueError, IndexError):
        raise MeshParseError(path, ln, f"bad count line {header!r}")
    if nv < 0 or nf < 0:
        raise MeshParseError(path, ln, f"bad count line {header!r}")
    pos += 1
    if len(rows) - pos < nv + nf:
        raise MeshParseError(path, rows[-1][0], "file ends before declared counts are met")
    for ln, line in rows[pos : pos + nv]:
        parts = line.split()
        if len(parts) < 3:
            raise MeshParseError(path, ln, "vertex needs three coordinates")
        try:
            [float(t) for t in parts[:3]]
        except ValueError:
            raise MeshParseError(path, ln, f"bad vertex coordinate in {line!r}")
    for ln, line in rows[pos + nv : pos + nv + nf]:
        parts = line.split()
        try:
            cnt = int(parts[0])
            idx = [int(t) for t in parts[1 : 1 + cnt]]
        except (ValueError, IndexError):
            raise MeshParseError(path, ln, f"bad face line {line!r}")
        if cnt != 3 or len(idx) != 3:
            raise MeshParseError(path, ln, f"face has {cnt} vertices; only triangles are supported")
        if any(not (0 <= i < nv) for i in idx):
            raise MeshParseError(path, ln, "face index out of range")


def _off_text(surface: SurfaceModel) -> str:
    if surface.dim != 3:
        raise UnsupportedOperationError(
            f"OFF stores 3D meshes; this surface lives in R^{surface.dim} "
            "(use the .json scene format)"
        )
    out = ["OFF", f"{surface.n_vertices} {surface.n_faces} {surface.edge_count}"]
    for v in surface.vertices:
        out.append(f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}")
    for f in surface.faces:
        out.append(f"3 {f[0]} {f[1]} {f[2]}")
    out.append("")
    return "\n".join(out)


def _parse_scene(path: str) -> tuple:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise MeshParseError(path, e.lineno, f"invalid JSON: {e.msg}")
    if not isinstance(doc, dict):
        raise MeshParseError(path, 1, "scene must be a JSON object")
    for key in ("dimension", "vertices", "faces"):
        if key not in doc:
            raise MeshParseError(path, 1, f"scene is missing {key!r}")
    dim = doc["dimension"]
    if not isinstance(dim, int) or dim < 3:
        raise MeshParseError(path, 1, f"dimension must be an integer >= 3, got {dim!r}")
    try:
        v = np.asarray(doc["vertices"], dtype=np.float64)
        f = np.asarray(doc["faces"], dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        raise MeshParseError(path, 1, "vertices/faces are not numeric arrays")
    if v.ndim != 2 or v.shape[1] != dim:
        raise MeshParseError(
            path, 1, f"vertices must be shaped (V, {dim}), got {list(v.shape)}"
        )
    if f.ndim != 2 or f.shape[1] != 3:
        raise MeshParseError(path, 1, f"faces must be shaped (F, 3), got {list(f.shape)}")
    # the int64 conversion truncates 0.9 to 0 and reads true as 1
    if not all(type(i) is int for row in doc["faces"] for i in row):
        raise MeshParseError(path, 1, "face indices must be JSON integers")
    return v, f


def _scene_text(surface: SurfaceModel) -> str:
    doc = {
        "dimension": surface.dim,
        "vertices": [[float(x) for x in row] for row in surface.vertices],
        "faces": [[int(i) for i in row] for row in surface.faces],
        "boundary_loops": [[int(i) for i in lp] for lp in surface.boundary_loops],
    }
    return json.dumps(doc, indent=1) + "\n"


# ---------------------------------------------------------------------------
# curves


def load_curve(path: str) -> PolylineCurve:
    """Read a polyline curve from JSON.

    Schema: {"dimension": n, "vertices": [[...], ...], "closed": bool,
    "corners": [{"index": i, "theta": t}, ...]}. A missing "corners" key
    means a raw polygon (every vertex a corner); an empty list means a
    smooth sampled curve.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise MeshParseError(path, e.lineno, f"invalid JSON: {e.msg}")
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise MeshParseError(path, 1, "curve file needs a 'vertices' array")
    try:
        v = np.asarray(doc["vertices"], dtype=np.float64)
    except (TypeError, ValueError):
        raise MeshParseError(path, 1, "vertices are not a numeric array")
    dim = doc.get("dimension", v.shape[1] if v.ndim == 2 else None)
    if v.ndim != 2 or v.shape[1] != dim:
        raise MeshParseError(path, 1, f"vertices must be shaped (k, {dim})")
    closed = bool(doc.get("closed", True))
    flags = None
    if "corners" in doc:
        if not isinstance(doc["corners"], list):
            raise MeshParseError(path, 1, "'corners' must be a list")
        parsed = []
        for c in doc["corners"]:
            try:
                parsed.append(CornerFlag(index=int(c["index"]), theta=float(c["theta"])))
            except (TypeError, KeyError, ValueError):
                raise MeshParseError(path, 1, f"bad corner entry {c!r}")
        flags = tuple(parsed)
    try:
        return PolylineCurve(vertices=v, closed=closed, corner_flags=flags)
    except InvalidParameterError as e:
        raise MeshParseError(path, 1, str(e))


def save_curve(path: str, curve: PolylineCurve) -> None:
    doc = {
        "dimension": int(curve.vertices.shape[1]),
        "vertices": [[float(x) for x in row] for row in curve.vertices],
        "closed": curve.closed,
    }
    if curve.corner_flags is not None:
        doc["corners"] = [
            {"index": int(f.index), "theta": float(f.theta)} for f in curve.corner_flags
        ]
    atomic_write(path, json.dumps(doc, indent=1) + "\n")


# ---------------------------------------------------------------------------
# reports


def report_envelope(kind: str, payload: dict) -> dict:
    if kind not in REPORT_KINDS:
        raise InvalidParameterError(f"unknown report kind {kind!r}")
    return {"kind": kind, "version": REPORT_VERSION, "payload": payload}


def validate_report(doc: dict) -> None:
    """Raise InputInconsistentError unless doc is a well-formed report."""
    if not isinstance(doc, dict):
        raise InputInconsistentError("report must be a JSON object")
    kind = doc.get("kind")
    if kind not in REPORT_KINDS:
        raise InputInconsistentError(f"unknown report kind {kind!r}")
    if doc.get("version") != REPORT_VERSION:
        raise InputInconsistentError(f"unsupported report version {doc.get('version')!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise InputInconsistentError("report payload must be an object")
    if kind == "batch":
        items = payload.get("items")
        if not isinstance(items, list):
            raise InputInconsistentError("batch payload needs an 'items' list")
        for item in items:
            validate_report(item)
    if kind == "certificate":
        _validate_certificate(payload)
    if kind == "monotonicity":
        for key in ("radii", "m", "weighted_m"):
            if not isinstance(payload.get(key), list):
                raise InputInconsistentError(f"monotonicity payload needs list {key!r}")


def _validate_certificate(payload: dict) -> None:
    for key in ("theorem", "status", "hypotheses", "conclusion", "citations", "inputs_digest"):
        if key not in payload:
            raise InputInconsistentError(f"certificate payload is missing {key!r}")
    if payload["status"] not in ("satisfied", "violated", "not-applicable"):
        raise InputInconsistentError(f"bad certificate status {payload['status']!r}")
    if not isinstance(payload["hypotheses"], list):
        raise InputInconsistentError("certificate hypotheses must be a list")
    for h in payload["hypotheses"]:
        if not isinstance(h, dict) or not {"name", "required", "measured", "ok"} <= set(h):
            raise InputInconsistentError(f"bad hypothesis entry {h!r}")
    if not isinstance(payload["conclusion"], dict) or "satisfied" not in payload["conclusion"]:
        raise InputInconsistentError("certificate conclusion needs a 'satisfied' flag")
    ok_hyps = all(h["ok"] for h in payload["hypotheses"])
    if payload["conclusion"]["satisfied"] and payload["status"] == "satisfied" and not ok_hyps:
        raise InputInconsistentError("satisfied certificate with a failed hypothesis")


# ---------------------------------------------------------------------------
# profile emission


def profile_csv_text(profile) -> str:
    """CSV with columns r, m, weighted_m, defect.

    defect is the increment of the weighted profile from the previous radius
    (0 for the first row); nonnegative values witness monotonicity.
    """
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["r", "m", "weighted_m", "defect"])
    wm = profile.weighted_m
    for i, r in enumerate(profile.radii):
        defect = 0.0 if i == 0 else wm[i] - wm[i - 1]
        w.writerow([_fmt(r), _fmt(profile.m_values[i]), _fmt(wm[i]), _fmt(defect)])
    return buf.getvalue()


def _svg_path(xs, ys) -> str:
    return " ".join(f"{'M' if i == 0 else 'L'}{x:.2f},{y:.2f}" for i, (x, y) in enumerate(zip(xs, ys)))


def _ticks(lo: float, hi: float, n: int = 5) -> list:
    if not (hi > lo):
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return [float(t) for t in raw]


def profile_svg_text(profile, title: str = "area ratio profile") -> str:
    """Standalone SVG plot of m(r) and the weighted profile."""
    W, H = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    radii = list(profile.radii)
    m = list(profile.m_values)
    wm = list(profile.weighted_m)
    x_lo, x_hi = min(radii), max(radii)
    y_lo = min(min(m), min(wm))
    y_hi = max(max(m), max(wm))
    if not (y_hi > y_lo):
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    span_x = max(x_hi - x_lo, 1e-300)

    def px(x):
        return ml + (x - x_lo) / span_x * (W - ml - mr)

    def py(y):
        return H - mb - (y - y_lo) / (y_hi - y_lo) * (H - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        # axes
        f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{H - mb}" x2="{x:.2f}" y2="{H - mb + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{H - mb + 18}" text-anchor="middle">{t:.3g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{(ml + W - mr) / 2:.0f}" y="{H - 12}" text-anchor="middle">r</text>'
    )
    parts.append(
        f'<text x="18" y="{(mt + H - mb) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(mt + H - mb) / 2:.0f})">area ratio</text>'
    )
    xs = [px(r) for r in radii]
    parts.append(
        f'<path d="{_svg_path(xs, [py(v) for v in m])}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    parts.append(
        f'<path d="{_svg_path(xs, [py(v) for v in wm])}" fill="none" stroke="#d62728" stroke-width="1.5"/>'
    )
    for x, v in zip(xs, m):
        parts.append(f'<circle cx="{x:.2f}" cy="{py(v):.2f}" r="2.5" fill="#1f77b4"/>')
    for x, v in zip(xs, wm):
        parts.append(f'<circle cx="{x:.2f}" cy="{py(v):.2f}" r="2.5" fill="#d62728"/>')
    lx = W - mr - 170
    parts.append(f'<rect x="{lx}" y="{mt}" width="160" height="40" fill="white" stroke="#999"/>')
    parts.append(f'<line x1="{lx + 8}" y1="{mt + 13}" x2="{lx + 30}" y2="{mt + 13}" stroke="#1f77b4" stroke-width="1.5"/>')
    parts.append(f'<text x="{lx + 36}" y="{mt + 17}">m(r)</text>')
    parts.append(f'<line x1="{lx + 8}" y1="{mt + 29}" x2="{lx + 30}" y2="{mt + 29}" stroke="#d62728" stroke-width="1.5"/>')
    parts.append(f'<text x="{lx + 36}" y="{mt + 33}">exp(&#923;r&#945;)&#183;m(r)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
