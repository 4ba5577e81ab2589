"""Gentile-statistics operator algebra on finite Fock spaces.

The package builds deformed ladder operators with a finite maximum
occupation, assembles exchange and unitary-group operators from them,
verifies the algebra's operator identities as numeric residuals, and solves
the all-pairs exchange model both by exact diagonalization and through
Casimir eigenvalues over integer partitions.
"""

from .basis import (
    DEFAULT_DIMENSION_CAP,
    FockBasis,
    ModeIndex,
    SizingError,
    enumerate_basis,
    index_to_state,
    state_to_index,
)
from .heisenberg import (
    CasimirLevel,
    SingularPrefactorError,
    SpectrumMatch,
    SpectrumReport,
    build_hamiltonian,
    compare_spectra,
    spectrum_casimir,
    spectrum_ed,
    spectrum_report,
)
from .operators import (
    DENSE_EIG_CAP,
    DROP_TOL,
    ComplexOperator,
    NonHermitianError,
    SingleModeSet,
    as_operator,
    casimir_c1,
    casimir_c2,
    class_sum,
    coupling_sum,
    eigensolve_hermitian,
    entrywise_real,
    exchange_op,
    hermitian_part,
    leakage,
    max_abs,
    position_number,
    restrict,
    single_mode_ops,
    total_number,
    unitary_generator,
)
from .partitions import (
    Partition,
    casimir_sp,
    casimir_value,
    partitions_of,
    weight,
    weyl_dimension,
)
from .scalars import (
    BOSE_PROXY_N,
    GentileOrder,
    bose_proxy,
    bracket_nu,
    coupling_j,
    occ_f,
    occ_g,
    sqrt_bracket,
)
from .verifier import (
    CONTESTED,
    GUARANTEED,
    IdentityId,
    VerificationTask,
    Verdict,
    default_grid_tasks,
    expand_tasks,
    limit_theorem_agreement,
    run_grid,
    run_task,
    single_mode_residuals,
)

__version__ = "0.1.0"
