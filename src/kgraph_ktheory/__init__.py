"""Exact real and complex K-theory tables for two-vertex rank-k graph algebras."""

from .abgroup import (
    ExtensionCertificate,
    ExtensionOutcome,
    FinAbGroup,
    ZERO_GROUP,
    direct_sum,
    equal_groups,
    group_from_cokernel,
    resolve_extension,
)
from .families import (
    CuntzSummand,
    FamilyInvariants,
    IsoClassLabel,
    closed_form,
    cuntz_decomposition,
    expected_table,
    iso_class,
    iso_equal,
)
from .homology import homology_all, homology_at
from .intmat import (
    IntMatrix,
    SNFDecomposition,
    block_matrix,
    det,
    determinantal_divisor,
    mat_mul,
    snf,
)
from .kgraph import (
    ChainComplex,
    CoefficientRow,
    ColorKind,
    ColorSpec,
    FamilyCase,
    GraphSpec,
    Involution,
    adjacency_matrices,
    enumerate_family_case,
    koszul_complex,
    validate,
)
from .spectral import (
    CertificateKind,
    ConvergenceCertificate,
    E2Page,
    E2Route,
    KTheoryTable,
    Part,
    PipelineResult,
    assemble,
    build_e2,
    compute_ktheory,
    converge,
)

__all__ = [name for name in dir() if not name.startswith("_")]
