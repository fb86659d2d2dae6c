"""fgz: exact computation in free groups.

Word arithmetic and normal forms, one-variable equations and their
solution sets in cyclic-coset form, closed-set algebra with a Noetherian
chain checker, product embeddings verified on finite balls, and finite
permutation witnesses separating nontrivial elements from the identity.
"""

from .algset import (
    AlgebraicSet,
    ChainReport,
    CyclicCoset,
    chain_check,
    from_json_dict,
    from_json_text,
    intersect,
    intersect_cosets,
    subset,
    to_json_dict,
    union,
)
from .embed import (
    EmbedCheckReport,
    Homomorphism,
    build_phi_g,
    check_mono_on_ball,
)
from .errors import (
    AlphabetError,
    BallLimitError,
    EvaluationLimitError,
    FreeGroupError,
    IdentityWordError,
    ParseError,
    RootError,
    SeparationLimitError,
    SolverError,
    WholeGroupError,
)
from .onevar import (
    ConcreteBlock,
    LineSolutionSet,
    OneVarWord,
    ParametricWord,
    PowerBlock,
    brute_solutions,
    reduce_parametric,
    substitute_line,
)
from .residual import Permutation, PermRep, apply_perm_rep, separate
from .solver import OracleReport, SolveConfig, SolveReport, exact_solution_set, solve, verify_against_oracle
from .words import (
    Alphabet,
    CyclicDecomposition,
    RootDecomposition,
    Word,
    ball_size,
    centralizer,
    enumerate_ball,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlgebraicSet",
    "AlphabetError",
    "BallLimitError",
    "ChainReport",
    "ConcreteBlock",
    "CyclicCoset",
    "CyclicDecomposition",
    "EmbedCheckReport",
    "EvaluationLimitError",
    "FreeGroupError",
    "Homomorphism",
    "IdentityWordError",
    "LineSolutionSet",
    "OneVarWord",
    "OracleReport",
    "ParametricWord",
    "ParseError",
    "PermRep",
    "Permutation",
    "PowerBlock",
    "RootDecomposition",
    "RootError",
    "SeparationLimitError",
    "SolveConfig",
    "SolveReport",
    "SolverError",
    "WholeGroupError",
    "Word",
    "apply_perm_rep",
    "ball_size",
    "brute_solutions",
    "build_phi_g",
    "centralizer",
    "chain_check",
    "check_mono_on_ball",
    "enumerate_ball",
    "exact_solution_set",
    "from_json_dict",
    "from_json_text",
    "intersect",
    "intersect_cosets",
    "parse_word",
    "reduce_parametric",
    "separate",
    "solve",
    "subset",
    "substitute_line",
    "to_json_dict",
    "union",
    "verify_against_oracle",
]
