"""Exact-arithmetic construction of cyclic Brauer-Severi varieties.

From cyclic extension data (L/k, chi, a) the package builds the companion
cocycle, lifts it through the Veronese embedding, splits it by constructive
Hilbert 90, and descends the Veronese ideal to defining equations over k.
It also produces the twisted Fermat-type Picard-group generators, the
cyclic algebra's structure constants, and a verification harness covering
point counts, smoothness, and every identity the pipeline relies on.
"""

from .algebra import (
    CyclicAlgebra,
    build_algebra,
    center_dimension,
    diagonal_table,
    is_associative,
    left_multiplication_is_singular,
    multiply,
    zero_divisor_from_witness,
)
from .cohomology import (
    Cocycle,
    coboundary_from_witness,
    cyclic_cocycle,
    lift_to_veronese,
    make_cocycle,
    split_generic,
    split_structured,
    witness_split_scalar,
)
from .errors import (
    InputError,
    NotIrreducible,
    SeveriError,
    VerificationError,
)
from .fields import (
    GF,
    QQ,
    BaseField,
    CyclicExtension,
    ExtElement,
    NormalBasis,
    WitnessResult,
    conjugates,
    find_normal_basis,
    frobenius_extension,
    galois_apply,
    make_extension,
    make_shanks_cubic,
    norm,
    norm_witness,
)
from .grammar import (
    format_poly,
    omega_names,
    parse_field_spec,
    parse_univariate,
    plane_names,
)
from .linalg import (
    Matrix,
    ScaledPermutation,
    as_scaled_permutation,
    from_rows,
    galois_matrix,
    identity,
    inverse,
    mul,
    rank,
    rref,
)
from .polyring import (
    MultiPoly,
    coefficient_matrix,
    make_poly,
    monomial,
    span_reduce,
    substitute_linear,
    variables,
    zero_poly,
)
from .twisting import (
    FermatHypersurface,
    PicardGenerator,
    SurfaceModel,
    appendix_model,
    descend_to_base,
    fermat,
    image_defect,
    model_to_json,
    picard_generator,
    pullback_to_plane,
    surface_model,
    verify_theorem1_equations,
)
from .verify import (
    Check,
    Report,
    count_points,
    genus_plane,
    rational_points,
    report_to_json,
    run_all,
    smoothness_spot,
)
from .veronese import (
    MonomialBasis,
    ParametrizationMap,
    canonical_embedding,
    induced_matrix,
    monomial_basis,
    veronese_ideal,
)

__version__ = "1.0.0"
