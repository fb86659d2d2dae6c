"""fgz: exact computation in free groups.

Word arithmetic and normal forms, one-variable equations and their
solution sets in cyclic-coset form, closed-set algebra with a Noetherian
chain checker, product embeddings verified on finite balls, and finite
permutation witnesses separating nontrivial elements from the identity.
The root exports the quickstart's names only; import the rest from its module.
"""

from .onevar import OneVarWord
from .solver import SolveConfig, solve
from .words import Alphabet, parse_word

__version__ = "0.1.0"

__all__ = ["Alphabet", "OneVarWord", "SolveConfig", "parse_word", "solve"]
