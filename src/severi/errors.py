"""Exception hierarchy shared by all severi modules."""


class SeveriError(Exception):
    """Base class for every error raised by this package."""


class InputError(SeveriError):
    """Bad user-supplied data; the CLI maps these to exit code 2."""


class VerificationError(SeveriError):
    """An exact identity that must hold failed; exit code 1 in the CLI."""


# -- field / extension construction -----------------------------------------

class NotIrreducible(InputError):
    pass


class NotGalois(InputError):
    pass


class WrongOrder(InputError):
    pass


class InternalDescentFailure(VerificationError):
    """A norm/trace/descent landed outside the base field."""


class SearchExhausted(SeveriError):
    pass


# -- linear algebra ----------------------------------------------------------

class Singular(SeveriError):
    pass


class ShapeMismatch(InputError):
    pass


# -- polynomials -------------------------------------------------------------

class MixedDegrees(InputError):
    pass


class DegreeTooSmall(InputError):
    pass


# -- cocycles ----------------------------------------------------------------

class ZeroA(InputError):
    pass


class AllAttemptsSingular(SeveriError):
    pass


class NotHonestCocycle(InputError):
    pass


class NotMonomialCocycle(InputError):
    pass


class NotAWitness(InputError):
    pass


# -- algebra -----------------------------------------------------------------

class LengthMismatch(InputError):
    pass


# -- grammar -----------------------------------------------------------------

class GrammarError(InputError):
    """Unparseable polynomial / element text."""
