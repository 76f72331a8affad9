"""Finite groupoid algebra toolkit: semidirect products, crossed-product
convolution algebras, unitary representations, random operators, and gauge
groupoids, with every construction machine-checkable on finite instances."""

from .algebra import (
    BundleFunction,
    GroupoidFunction,
    HaarWeights,
    K_inverse,
    K_map,
    carrier_weights,
    groupoid_convolve,
    semidirect_convolve_pairform,
    twisted_convolve,
    verify_theorem1,
)
from .errors import (
    GroupoidError,
    MalformedTableError,
    PreconditionError,
    SizeCapError,
)
from .gauge import (
    FinitePrincipalBundle,
    GaugeGroupoid,
    Section,
    gauge_groupoid,
    lorentz_subgroupoid,
    poincare_convolve,
    poincare_convolve_agreement,
    poincare_decomposition,
    translation_subgroupoid,
    verify_poincare_decomposition,
)
from .groupoid import (
    FiniteGroupoid,
    GroupoidMorphism,
    SubgroupoidSelection,
    ValidationReport,
    group_groupoid,
    isotropy_subgroupoid,
    pair_groupoid,
    quotient_by_isotropy,
    selection_to_groupoid,
    subgroupoid_properties,
    validate_groupoid,
)
from .groups import FiniteGroup, builtin_group, cyclic, dihedral, symmetric
from .morphism import find_isomorphism, verify_morphism
from .representation import (
    HilbertBundle,
    RandomOperator,
    UnitaryRep,
    block_diagonal_generators,
    check_commutation,
    check_equivariance,
    commutant,
    contains_in_span,
    norm_bound,
    operator_norm,
    quantize,
    random_operator_from,
    simple_extension,
    spectral_norm,
    validate_rep,
)
from .semidirect import (
    J_map,
    SemidirectGroupoid,
    prop1_equivalence,
    semidirect_product,
)

__version__ = "0.1.0"
