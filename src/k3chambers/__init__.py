"""Exact chamber decompositions of the big cone on K3 lattice models.

The package computes Zariski decompositions of big divisor classes over
exact rational arithmetic, enumerates the Zariski and simple Weyl chamber
families of the big cone, decides when the two decompositions coincide and
how individual chambers include into one another (with certificates), and
renders 2-D cross-sections of the chamber structure as SVG.
"""

from .chambers import (
    ChamberAtlas,
    ChamberKind,
    ChamberSignature,
    classify_ade,
    decompositions_coincide,
    divergence_witness,
    enumerate_weyl_chambers,
    enumerate_zariski_chambers,
    verify_bijection,
    weyl_in_zariski,
    weyl_only_witness,
    weyl_signature,
    weyl_witness,
    zariski_chamber_of,
    zariski_interior_in_weyl,
)
from .gallery import (
    GalleryEntry,
    double_cover_example,
    gallery_entry,
    quartic_example,
    random_ade_gram,
    random_configuration,
)
from .linalg import (
    FeasibilityResult,
    InfeasibilityCertificate,
    LinearSystemFeasibility,
    SignConstraint,
    fm_feasible,
    is_negative_definite,
    signature,
    solve_linear,
)
from .model import (
    Curve,
    DivisorClass,
    Mode,
    SurfaceModel,
    config_divisor,
    configuration_model,
    full_divisor,
    full_lattice_model,
    model_from_json,
    model_to_json,
    pair,
    restrict_gram,
    to_configuration,
    validate_model,
)
from .plot import CrossSectionSpec, classify_cross_section, render_cross_section
from .zariski import BignessCheck, ZariskiResult, is_big, volume, zariski_decompose

__version__ = "0.1.0"
