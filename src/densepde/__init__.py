"""densepde: generalized solutions of smooth nonlinear PDEs with dense
singularities.

The pipeline: parse an operator, prolong it in jet space, certify that
zero lies in the range of the prolonged system at dense sets of points,
solve the jets there, glue Taylor polynomials with disjoint smooth bumps
into a staged sequence, and verify the vanishing condition on the error
terms.
"""

from .multiindex import MultiIndex, multi_indices, zero_index
from .expr import (
    Bump,
    Const,
    Expr,
    JetVar,
    SpaceVar,
    Var,
    differentiate,
    evaluate_exact,
    evaluate_float,
    is_rational_closed,
    jet_variables,
    free_variables,
    simplify,
    substitute,
    EvaluationError,
    ExactnessUnavailable,
)
from .parser import Context, ParseError, parse_expression
from .printer import to_text
from .jets import (
    Jet,
    PdeOperator,
    ProlongedSystem,
    load_pde_file,
    normalize_homogeneous,
    parse_pde_text,
    prolong,
)
from .ranges import (
    JetSolveResult,
    NotLinearError,
    RangeReport,
    RankCertificate,
    linearize,
    range_condition_check,
    rank_condition,
    solve_jets_triangular,
)
from .construct import (
    AssembledFunction,
    ConstructionError,
    DensePointStream,
    DiscreteSolve,
    SolutionSequence,
    construct_sequence,
    taylor_from_jet,
)
from .verify import (
    FunctionSequence,
    VanishingReport,
    VerificationResult,
    check_vanishing,
    example_sequence,
    verify_solution,
)
from .manifest import (
    load_sequence,
    sample_grid,
    save_sequence,
    sequence_from_json,
    sequence_to_json,
)
from .systems import lewy_operator

__version__ = "0.1.0"
