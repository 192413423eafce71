"""Triangle-mesh toolkit for curvature-based surface analysis.

The package splits into layers that build on one another:

``geometry``
    exact triangle/ball clipping, angle sums, compensated summation.
``curves``
    closed polygons, turning angles, radial projection, cone surfaces.
``surfaces``
    validated triangle-mesh model with cached derived data, the ring-strip
    triangulation, area densities, mean curvature.
``intersect``
    embeddedness by projection, triangle-pair distances and the self-contact
    sweep.
``monotonicity``
    area-ratio profiles, weighted monotonicity and large-radius checks.
``certificates``
    machine-checkable records tying measured quantities to conclusions
    (density lower bounds, embeddedness, corner dichotomy, genus).
``catalog``
    named analytic scenes with their meshes and boundary curves.
``fileio`` / ``cli``
    OBJ/OFF/JSON persistence, report envelopes, the ``surfcert`` tool.
"""

from .errors import (
    GeometryError,
    InvalidParameterError,
    ProjectionSingularError,
    RadiusTooLargeError,
    InputInconsistentError,
    UnsupportedOperationError,
    InfeasibleError,
    MeshParseError,
)
from .geometry import (
    Ball,
    as_point,
    stable_sum,
    angle_between,
    triangle_areas,
    subdivide4,
    point_triangle_dist2,
    clip_areas_total,
    FaceReach,
    face_reach,
    vertex_total_angle,
)
from .curves import (
    CornerFlag,
    PolylineCurve,
    ConeSurface,
    BoundReport,
    turning_angles,
    total_curvature,
    curve_length,
    radial_projection_length,
    cone_density,
    build_cone,
    projection_bound_report,
    best_fit_plane_deviation,
)
from .surfaces import (
    AnalyticPatch,
    ScalarField,
    SurfaceModel,
    DensityEstimate,
    nearest_vertex,
    boundary_distance,
    boundary_polyline,
    density_estimate,
    mean_curvature_field,
    lp_norm,
    extrinsic_diameter,
    second_form_sup,
    euler_characteristic,
    genus,
)
from .monotonicity import (
    PropertyPConstants,
    MonotonicityProfile,
    PropertyPReport,
    WeightedMonotonicityReport,
    LargeRadiusReport,
    curvature_prefactor,
    property_p_constants,
    default_radius_grid,
    m_profile,
    FirstVariation,
    first_variation,
    check_property_p,
    check_weighted_monotonicity,
    check_large_radius_bound,
)
from .intersect import (
    IntersectionReport,
    triangle_pair_dist2,
    self_intersections,
    projected_embedding,
)
from .certificates import (
    DeltaSolution,
    Hypothesis,
    Certificate,
    certificate_status,
    delta_for_epsilon,
    density_estimate_certificate,
    embeddedness_certificate,
    corner_density_certificate,
    genus_bound,
    genus_certificate,
)
from .catalog import Scene, CatalogEntry, catalog_names, catalog_entry, build_scene, scaled_scene
from .fileio import (
    atomic_write,
    load_mesh,
    save_mesh,
    load_curve,
    save_curve,
    report_envelope,
    validate_report,
    profile_csv_text,
    profile_svg_text,
)

__version__ = "0.1.0"

__all__ = [
    "GeometryError",
    "InvalidParameterError",
    "ProjectionSingularError",
    "RadiusTooLargeError",
    "InputInconsistentError",
    "UnsupportedOperationError",
    "InfeasibleError",
    "MeshParseError",
    "Ball",
    "as_point",
    "stable_sum",
    "angle_between",
    "triangle_areas",
    "subdivide4",
    "point_triangle_dist2",
    "clip_areas_total",
    "FaceReach",
    "face_reach",
    "vertex_total_angle",
    "CornerFlag",
    "PolylineCurve",
    "ConeSurface",
    "BoundReport",
    "turning_angles",
    "total_curvature",
    "curve_length",
    "radial_projection_length",
    "cone_density",
    "build_cone",
    "projection_bound_report",
    "best_fit_plane_deviation",
    "AnalyticPatch",
    "ScalarField",
    "SurfaceModel",
    "DensityEstimate",
    "nearest_vertex",
    "boundary_distance",
    "boundary_polyline",
    "density_estimate",
    "mean_curvature_field",
    "lp_norm",
    "extrinsic_diameter",
    "second_form_sup",
    "euler_characteristic",
    "genus",
    "PropertyPConstants",
    "MonotonicityProfile",
    "PropertyPReport",
    "WeightedMonotonicityReport",
    "LargeRadiusReport",
    "property_p_constants",
    "default_radius_grid",
    "m_profile",
    "FirstVariation",
    "first_variation",
    "check_property_p",
    "check_weighted_monotonicity",
    "check_large_radius_bound",
    "IntersectionReport",
    "triangle_pair_dist2",
    "self_intersections",
    "projected_embedding",
    "DeltaSolution",
    "Hypothesis",
    "Certificate",
    "certificate_status",
    "delta_for_epsilon",
    "curvature_prefactor",
    "density_estimate_certificate",
    "embeddedness_certificate",
    "corner_density_certificate",
    "genus_bound",
    "genus_certificate",
    "Scene",
    "CatalogEntry",
    "catalog_names",
    "catalog_entry",
    "build_scene",
    "scaled_scene",
    "atomic_write",
    "load_mesh",
    "save_mesh",
    "load_curve",
    "save_curve",
    "report_envelope",
    "validate_report",
    "profile_csv_text",
    "profile_svg_text",
    "__version__",
]
