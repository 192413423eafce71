"""Command-line front end.

Subcommands: analyze-curve, analyze-surface, monotonicity, certify, genus,
catalog, selftest. Reports are JSON on stdout unless --out is given; profile
data can also land in CSV and SVG files. Exit codes: 0 for a completed
analysis (including a certificate whose conclusion failed: "violated" is a
successful determination), 2 when a certificate came out not-applicable,
1 for any error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import catalog as _catalog
from .certificates import (
    corner_density_certificate,
    density_estimate_certificate,
    embeddedness_certificate,
    genus_certificate,
)
from .curves import curve_length, projection_bound_report, total_curvature
from .errors import GeometryError, InvalidParameterError
from .fileio import (
    atomic_write,
    load_curve,
    load_mesh,
    profile_csv_text,
    profile_svg_text,
    report_envelope,
    validate_report,
)
from .monotonicity import (
    check_large_radius_bound,
    check_weighted_monotonicity,
    m_profile,
    property_p_constants,
)
from .surfaces import (
    boundary_polyline,
    density_estimate,
    euler_characteristic,
    extrinsic_diameter,
    genus,
    lp_norm,
    mean_curvature_field,
    second_form_sup,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # usage problems are errors (exit 1), not the not-applicable code 2 that
    # argparse would use by default
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_point(text: str) -> tuple:
    try:
        coords = tuple(float(t) for t in text.split(","))
    except ValueError:
        raise InvalidParameterError(f"bad coordinate list {text!r}; expected e.g. 0,0,0")
    if len(coords) < 2:
        raise InvalidParameterError(f"point {text!r} needs at least two coordinates")
    return coords


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise InvalidParameterError(f"--param expects name=value, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise InvalidParameterError(f"--p expects a number or 'inf', got {text!r}")


def _parse_radii(text: str):
    if text.strip().lower() == "auto":
        return None
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise InvalidParameterError(f"--radii expects 'auto' or comma floats, got {text!r}")


def _load_scene(args):
    """Surface + boundary curves (+ default point) from --catalog or --mesh."""
    if getattr(args, "catalog", None):
        scene = _catalog.build_scene(args.catalog, _parse_params(args.param), res=args.res)
        curves = list(scene.boundaries)
        return scene.surface, curves, scene
    if getattr(args, "mesh", None):
        s = load_mesh(args.mesh)
        curves = [boundary_polyline(s, i) for i in range(len(s.boundary_loops))]
        return s, curves, None
    raise InvalidParameterError("provide a surface via --catalog NAME or --mesh PATH")


def _points_of(args, scene) -> list:
    pts = [_parse_point(t) for t in (args.x0 or [])]
    if not pts:
        if scene is not None and scene.default_x0 is not None:
            pts = [tuple(float(v) for v in scene.default_x0)]
        else:
            raise InvalidParameterError("provide at least one --x0 point")
    return pts


def _emit(args, envelope: dict) -> None:
    validate_report(envelope)
    text = json.dumps(envelope, indent=1, sort_keys=False) + "\n"
    out = getattr(args, "out", None)
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _exit_code(certificates) -> int:
    return 2 if any(c.status == "not-applicable" for c in certificates) else 0


def _maybe_batch(kind: str, payloads: list) -> dict:
    if len(payloads) == 1:
        return report_envelope(kind, payloads[0])
    return report_envelope(
        "batch", {"items": [report_envelope(kind, p) for p in payloads]}
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze_curve(args) -> int:
    if args.curve:
        curve = load_curve(args.curve)
    elif args.catalog:
        _s, curves, _scene = _load_scene(args)
        curve = curves[0]
    else:
        raise InvalidParameterError("provide --curve PATH or --catalog NAME")
    payload = {
        "vertices": curve.k,
        "closed": True,
        "length": curve_length(curve),
        "tc": total_curvature(curve),
    }
    def _point_entry(pt):
        rep = projection_bound_report(curve, pt)
        return {
            "x0": list(pt),
            "projection_length": rep.projection_length,
            "cone_density": rep.projection_length / (2.0 * math.pi),
            "bound": rep.to_dict(),
        }

    points = [_parse_point(t) for t in (args.x0 or [])]
    if len(points) == 1:
        entry = _point_entry(points[0])
        entry["tc"] = payload["tc"]
        payload.update(entry)
    elif points:
        payload["points"] = [_point_entry(pt) for pt in points]
    _emit(args, report_envelope("curve-analysis", payload))
    return 0


def _cmd_analyze_surface(args) -> int:
    s, curves, scene = _load_scene(args)
    payload = {
        "vertices": s.n_vertices,
        "faces": s.n_faces,
        "edges": s.edge_count,
        "euler_characteristic": euler_characteristic(s),
        "genus": genus(s),
        "boundary_loops": len(s.boundary_loops),
        "area": s.total_area,
        "extrinsic_diameter": extrinsic_diameter(s),
        "tc": sum(total_curvature(c) for c in curves),
        "mean_curvature_sup": lp_norm(mean_curvature_field(s), s, math.inf),
        "curvature_source": "analytic" if s.patch is not None else "discrete",
    }
    if s.patch is not None:
        payload["second_form_sup"] = second_form_sup(s)
    if scene is not None:
        payload["provenance"] = scene.provenance
    if args.x0:
        ests = [density_estimate(s, _parse_point(t)) for t in args.x0]
        payload["densities"] = [
            {
                "x0": [float(v) for v in e.x0],
                "value": e.value,
                "mode": e.mode,
                "note": e.note,
            }
            for e in ests
        ]
    _emit(args, report_envelope("surface-analysis", payload))
    return 0


def _cmd_monotonicity(args) -> int:
    s, curves, scene = _load_scene(args)
    points = _points_of(args, scene)
    radii = _parse_radii(args.radii)
    p = _parse_p(args.p)
    if (args.csv or args.svg) and len(points) != 1:
        raise InvalidParameterError("--csv/--svg need exactly one --x0")
    k = property_p_constants(s, p)
    payloads = []
    for pt in points:
        prof = m_profile(s, curves, pt, radii=radii, constants=k)
        wrep = check_weighted_monotonicity(prof)
        lrep = check_large_radius_bound(prof)
        payloads.append(
            {
                "x0": list(pt),
                "constants": k.to_dict(),
                "r0": prof.r0,
                "tol_disc": prof.tol_disc,
                "radii": list(prof.radii),
                "m": list(prof.m_values),
                "weighted_m": list(prof.weighted_m),
                "weighted_monotone": wrep.ok,
                "weighted_violations": [list(v) for v in wrep.violations],
                "large_radius_ok": lrep.ok,
                "large_radius_violations": [list(v) for v in lrep.violations],
            }
        )
        if args.csv:
            atomic_write(args.csv, profile_csv_text(prof))
        if args.svg:
            atomic_write(args.svg, profile_svg_text(prof))
    _emit(args, _maybe_batch("monotonicity", payloads))
    return 0


def _cmd_certify(args) -> int:
    s, curves, scene = _load_scene(args)
    p = _parse_p(args.p)
    if args.curve:
        boundary = load_curve(args.curve)
        curves = [boundary]
    certs = []
    if args.kind == "embeddedness":
        certs.append(embeddedness_certificate(s, curves, p, args.which))
    elif args.kind == "density":
        for pt in _points_of(args, scene):
            certs.append(density_estimate_certificate(s, curves, pt, p))
    elif args.kind == "corner":
        curve = curves[0]
        idx = args.corner_index
        if idx is None:
            flagged = list(curve.corner_flags or ())
            if not flagged:
                raise InvalidParameterError(
                    "the boundary carries no corner flags; pass --corner-index "
                    "or a flagged --curve"
                )
            idx = flagged[0].index
        certs.append(corner_density_certificate(s, curve, idx))
    else:  # argparse choices guard this
        raise InvalidParameterError(f"unknown certificate kind {args.kind!r}")
    _emit(args, _maybe_batch("certificate", [c.to_dict() for c in certs]))
    return _exit_code(certs)


def _cmd_genus(args) -> int:
    s, curves, _scene = _load_scene(args)
    delta = args.delta
    if delta is None:
        if s.patch is None:
            raise InvalidParameterError(
                "--delta is required for meshes without an analytic source"
            )
        delta = extrinsic_diameter(s) * second_form_sup(s)
    cert = genus_certificate(s, curves, delta)
    _emit(args, report_envelope("genus", {"delta": delta, "certificate": cert.to_dict()}))
    return _exit_code([cert])


def _cmd_catalog(args) -> int:
    entries = []
    for name in _catalog.catalog_names():
        entry = _catalog.catalog_entry(name)
        entries.append(
            {
                "name": entry.name,
                "doc": entry.doc,
                "analytic": entry.analytic,
                "parameters": {
                    key: {"type": typ.__name__, "default": default, "doc": doc}
                    for key, (typ, default, doc) in entry.schema.items()
                },
            }
        )
    _emit(args, report_envelope("catalog", {"surfaces": entries}))
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_checks

    results = run_checks(only=args.only or None)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    payload = {
        "checks": [
            {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": not failed,
    }
    if args.out:
        _emit(args, report_envelope("selftest", payload))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser


def _add_surface_inputs(sp):
    sp.add_argument("--catalog", help="catalog surface name")
    sp.add_argument("--mesh", help="mesh file (.obj, .off, .json scene)")
    sp.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="catalog parameter, repeatable",
    )
    sp.add_argument("--res", type=int, default=64, help="catalog resolution (default 64)")


def _add_out(sp):
    sp.add_argument("--out", help="write the JSON report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and each parse fills a fresh namespace."""
    parser = _Parser(
        prog="surfcert",
        description="Densities, boundary curvature, monotonicity profiles and "
        "embeddedness/genus certificates for triangulated surfaces with boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("analyze-curve", help="turning, length and projections of a curve")
    sp.add_argument("--curve", help="curve file (.json)")
    _add_surface_inputs(sp)
    sp.add_argument("--x0", action="append", metavar="X,Y,Z", help="projection center, repeatable")
    _add_out(sp)
    sp.set_defaults(func=_cmd_analyze_curve)

    sp = sub.add_parser("analyze-surface", help="mesh topology, area, curvature, densities")
    _add_surface_inputs(sp)
    sp.add_argument("--x0", action="append", metavar="X,Y,Z", help="density sample point, repeatable")
    _add_out(sp)
    sp.set_defaults(func=_cmd_analyze_surface)

    sp = sub.add_parser("monotonicity", help="weighted area-ratio profile m(r)")
    _add_surface_inputs(sp)
    sp.add_argument("--x0", action="append", metavar="X,Y,Z", help="profile center, repeatable")
    sp.add_argument("--p", default="inf", help="curvature exponent (> 2 or 'inf')")
    sp.add_argument("--radii", default="auto", help="'auto' or comma-separated radii")
    sp.add_argument("--csv", help="also write the profile as CSV")
    sp.add_argument("--svg", help="also write the profile plot as SVG")
    _add_out(sp)
    sp.set_defaults(func=_cmd_monotonicity)

    sp = sub.add_parser("certify", help="emit a checkable certificate")
    _add_surface_inputs(sp)
    sp.add_argument(
        "--kind",
        choices=("embeddedness", "density", "corner"),
        default="embeddedness",
        help="certificate family (default embeddedness)",
    )
    sp.add_argument("--p", default="inf", help="curvature exponent (> 2 or 'inf')")
    sp.add_argument(
        "--which",
        choices=("interior", "full"),
        default="interior",
        help="embeddedness scope (default interior)",
    )
    sp.add_argument("--x0", action="append", metavar="X,Y,Z", help="density certificate center")
    sp.add_argument("--corner-index", type=int, help="boundary vertex index for corner certificates")
    sp.add_argument("--curve", help="override boundary curve file (.json)")
    _add_out(sp)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("genus", help="genus bound certificate from total curvature")
    _add_surface_inputs(sp)
    sp.add_argument("--delta", type=float, help="curvature-scale constant (default: analytic r0 sup|A|)")
    _add_out(sp)
    sp.set_defaults(func=_cmd_genus)

    sp = sub.add_parser("catalog", help="list built-in surfaces and their parameters")
    _add_out(sp)
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("selftest", help="run the acceptance checks")
    sp.add_argument(
        "--only",
        action="append",
        type=int,
        metavar="N",
        help="run only check number N (repeatable)",
    )
    _add_out(sp)
    sp.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
