"""Smooth speed-transfer protocols for the damped linear drive xdot + x = u.

Two families of solutions to the same steering problem, cross-validated
against each other:

* basis-function trajectory design (:mod:`lincontrol.sta`): postulate
  ``x(t)`` in a polynomial, trigonometric, or exponential family, eliminate
  the boundary conditions exactly, and minimise the running cost as an
  explicit quadratic form;
* Pontryagin optimal control (:mod:`lincontrol.oct`): the impulsive global
  optimum and the energy-regularized linear-quadratic solver at any
  boundary order; at first order the regularized optimum is the
  exponential basis family at rate ``1/sqrt(lambda)``.
"""

__version__ = "0.1.0"

from .model import (
    BoundaryReport,
    BoundaryResidual,
    ControlProblem,
    CostBreakdown,
    Impulse,
    InvalidOrder,
    NegativeCostPart,
    ProtocolSolution,
    Trajectory,
    certify,
    cost_functional,
    csv_text,
    sample_table,
    verify_boundaries,
    write_csv,
)
from .numerics import (
    DefectiveMatrix,
    NoConvergence,
    NonFiniteSample,
    NumericsError,
    Overflow,
    SingularMatrix,
    eigendecompose,
    integrate,
    minimize_quadratic,
    solve_linear,
)
from .oct import (
    LambdaOutOfRange,
    PontryaginFlow,
    ShootingSingular,
    build_lq,
    regular_order1_analytic,
    singular_consistency_check,
    singular_solution,
    solve_regular,
)
from .sta import (
    AnsatzFamily,
    DegenerateBasis,
    GramForm,
    assemble_gram,
    build_exponential,
    build_polynomial,
    build_trigonometric,
    solve_sta,
)

__all__ = [
    "__version__",
    "AnsatzFamily",
    "BoundaryReport",
    "BoundaryResidual",
    "ControlProblem",
    "CostBreakdown",
    "DefectiveMatrix",
    "DegenerateBasis",
    "GramForm",
    "Impulse",
    "InvalidOrder",
    "LambdaOutOfRange",
    "NegativeCostPart",
    "NoConvergence",
    "NonFiniteSample",
    "NumericsError",
    "Overflow",
    "PontryaginFlow",
    "ProtocolSolution",
    "ShootingSingular",
    "SingularMatrix",
    "Trajectory",
    "assemble_gram",
    "build_exponential",
    "build_lq",
    "build_polynomial",
    "build_trigonometric",
    "certify",
    "cost_functional",
    "csv_text",
    "eigendecompose",
    "integrate",
    "minimize_quadratic",
    "regular_order1_analytic",
    "sample_table",
    "singular_consistency_check",
    "singular_solution",
    "solve_linear",
    "solve_regular",
    "solve_sta",
    "verify_boundaries",
    "write_csv",
]
