"""The symbolic vanishing test of the model certificate, used only by the tests.

Each equation is composed with the parametrization P o Ver by substitution
over L, through `polyring.substitute_all`, and the composite is expanded in
the plane variables.  It shares nothing with `twisting.vanishes_on_image`
beyond the equations and P, so the two agreeing is evidence for both.
"""
from severi.polyring import substitute_all
from severi.veronese import ParametrizationMap


def parametrization_residuals(equations, basis, P):
    """Each equation composed with P o Ver; all are zero exactly when the
    equations vanish on its image."""
    coords = ParametrizationMap(basis, P).symbolic(P.ext)
    return substitute_all(equations, list(coords))
