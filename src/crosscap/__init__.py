"""Computational geometry of cross cap singularities.

Jet-based tools for maps from the plane into 3-space with a cross cap
(Whitney umbrella) at the origin: detection, reduction to the canonical
form, intrinsic invariants computed from either the map or its first
fundamental form, an isometric deformation family driven by spherical
curves, ruled-surface redeployment with singularity classification, and
leading-order curvature asymptotics along rays into the singular point.
"""
from .asymptotics import (
    ConvergenceReport,
    GapReport,
    PolarLeading,
    leading,
    umbilic_gap,
    verify_convergence,
)
from .deformation import (
    DeformationFamily,
    IsometryReport,
    SphericalCurve,
    build_crosscap,
    circle_family,
    circle_point,
    deformation_family,
    degenerate_first_form,
    degenerate_quadratic,
    extrinsic_invariants,
    second_form_closed,
    verify_isometry,
)
from .errors import (
    ChartError,
    CrosscapError,
    JetDomainError,
    MetricError,
    NormalFormError,
    NotACrossCapError,
    SingularJetError,
    SingularPointError,
    SpecFormatError,
)
from .invariants import (
    ComboQuadruple,
    FocalConic,
    IntrinsicTriple,
    classify_sign,
    focal_conic,
    intrinsic_from_map,
    intrinsic_from_metric,
    isometry_combos,
    route_discrepancy,
)
from .jets import Jet2, Jet3
from .normalform import (
    CrossCapFrame,
    NormalForm,
    classify,
    frame,
    reduce_to_normal_form,
)
from .ruled import (
    FrameCoefficients,
    RuledSurface,
    classify_singularity,
    frame_coefficients,
    from_deformation,
    from_frame,
    from_polynomials,
    normalize,
    redeploy,
)
from .surface import (
    DEFAULT_TOL,
    CrossCapTest,
    FundamentalForms,
    LimitingNormal,
    SurfaceMap,
    canonical_crosscap,
    curvatures_at,
    detect_crosscap,
    first_form,
    limiting_normal,
    quadratic_crosscap,
    require_crosscap,
    second_form_at,
    standard_crosscap,
    surface_from_polynomial,
)

__version__ = "0.1.0"
