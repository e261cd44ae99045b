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

``__all__`` is the declared public surface, and the README's "Public API"
section lists the same names.  Every other name lives in its module only
and may change without notice.
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
    csv_text,
    verify_boundaries,
    write_csv,
)
from .numerics import NumericsError, Overflow, SingularMatrix
from .oct import (
    LambdaOutOfRange,
    ShootingSingular,
    build_lq,
    fit_exponential_arc,
    regular_order1_analytic,
    singular_consistency_check,
    singular_solution,
    solve_regular,
)
from .sta import DegenerateBasis, build_exponential, build_polynomial, build_trigonometric, solve_sta

__all__ = [
    # records
    "ControlProblem",
    "ProtocolSolution",
    "Trajectory",
    "CostBreakdown",
    "Impulse",
    "BoundaryReport",
    # builders and solvers
    "build_polynomial",
    "build_trigonometric",
    "build_exponential",
    "solve_sta",
    "build_lq",
    "solve_regular",
    "regular_order1_analytic",
    "singular_solution",
    # checks and output
    "certify",
    "verify_boundaries",
    "singular_consistency_check",
    "csv_text",
    "write_csv",
    "fit_exponential_arc",
    # the errors a command prints
    "NumericsError",
    "Overflow",
    "SingularMatrix",
    "ShootingSingular",
    "BoundaryResidual",
    "NegativeCostPart",
    "InvalidOrder",
    "LambdaOutOfRange",
    "DegenerateBasis",
    "__version__",
]
