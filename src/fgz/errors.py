"""Exception hierarchy shared by all fgz modules."""


class FreeGroupError(Exception):
    """Base class for every error raised by this package."""


class ParseError(FreeGroupError, ValueError):
    """Word text does not conform to the word grammar."""


class AlphabetError(FreeGroupError, ValueError):
    """Bad alphabet declaration, or operands over different alphabets."""


class IdentityWordError(FreeGroupError, ValueError):
    """Operation is undefined on the identity (primitive root, separation)."""


class WholeGroupError(FreeGroupError):
    """The requested object is the whole group, not a cyclic coset.

    Raised by ``centralizer`` on the identity: every element commutes
    with it, so the centralizer is not an infinite cyclic subgroup.
    """


class BallLimitError(FreeGroupError, ValueError):
    """A ball to enumerate is over ``words.MAX_BALL_ELEMENTS`` or ``words.MAX_BALL_LETTERS``."""


class EvaluationLimitError(FreeGroupError, ValueError):
    """An evaluation ``w(g)`` is over ``words.MAX_PARSE_LETTERS`` letters before reduction."""


class SeparationLimitError(FreeGroupError, ValueError):
    """A word to separate is over ``residual.MAX_SEPARATE_LETTERS`` letters."""


class RootError(FreeGroupError, ValueError):
    """A coset root or line direction is trivial or a proper power."""


class SolverError(FreeGroupError):
    """The equation solver could not certify its output (see message)."""
