"""ultralip: exact p-adic Lipschitz analysis of semialgebraic functions.

Exact arithmetic in Q_p over rational representatives, ultrametric balls
and cells, per-ball Jacobian-property certification, empirical and
certified Lipschitz constants, and preparation of factored-linear terms.
"""

from .qp_core import (
    CosetSpec,
    INFINITE_ORD,
    PadicScalar,
    PrimeContext,
    format_ord,
    in_coset,
)
from .regions import Ball, Window, enumerate_window
from .syntax import (
    Condition,
    PiecewiseFunction,
    Term,
    format_condition,
    format_term,
    parse,
    parse_condition,
    parse_term,
)
from .terms import differentiate, eval_condition, evaluate, evaluate_piecewise
from .cells import (
    Cell,
    NoCandidateFits,
    ZeroCellHasNoBalls,
    ball_of_cell,
    cell_contains,
    enumerate_balls,
    fit_cell,
    format_cell,
    parse_cell,
    point_cell,
)
from .jacobian import (
    BallCorrespondence,
    CorrespondenceFailure,
    JacobianCertificate,
    JacobianViolation,
    NotABall,
    ViolationKind,
    check_ball_correspondence,
    check_jacobian_on_ball,
    map_ball,
    verify_certificate,
)
from .lipschitz import (
    CounterexampleTrace,
    EmptyRegion,
    LipschitzReport,
    Mode,
    certified_cell_constant,
    check_bounded_derivative_local_lipschitz,
    counterexample_exloc,
    counterexample_exloc2,
    empirical_lipschitz,
)
from .prepare import (
    FactoredTerm,
    PreparedPiece,
    parse_factored,
    prepare,
    verify_prepared,
)

__version__ = "0.1.0"
