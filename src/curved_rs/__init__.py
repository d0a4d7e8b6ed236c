"""Numerical verification engine for the first-order spin-3/2
(vector-bispinor) field on curved spacetimes.

The package evaluates metrics and curvature at points, builds tetrads and
position-dependent Dirac matrices with their bispinor connection,
assembles the wave operator and its transformed closed form, and verifies
the algebraic and differential identities the theory rests on, including
the Einstein-tensor criterion for gradient-type gauge solutions of the
massless equation.
"""

from .errors import (
    ConfigError,
    CurvedRSError,
    EvalError,
    FitDegenerate,
    InvalidParameter,
    InvalidTransform,
    OutOfDomain,
    ParseError,
    SignatureError,
    SingularMetric,
)
from .fields import FieldSampler, fixture_family, plane_wave, polynomial_field, trig_field
from .gauge import gauge_criterion, massless_residual
from .geometry import (
    CurvatureBundle,
    MetricAtPoint,
    MetricSpec,
    Point,
    curvature,
    eval_metric,
    levi_civita,
    metric_derivatives,
)
from .identity_suite import SuiteReport, run_suite
from .rs_operator import (
    BlockMatrix16,
    MassParam,
    build_alpha_beta,
    contraction_identity,
    covariant_derivative,
    covariant_rows,
    rs_residual,
    tilde_closed_form,
    transform_CS,
)
from .spacetimes import MetricConfig, load_preset, parse_metric_config, spec_from_config
from .spin_frame import (
    GammaSet,
    Tetrad,
    build_tetrad,
    curved_gammas,
    spin_connection,
    spinor_commutator_curvature,
)

__version__ = "0.1.0"
