"""Gentile-statistics operator algebra on finite Fock spaces.

The package builds deformed ladder operators with a finite maximum
occupation, assembles exchange and unitary-group operators from them,
verifies the algebra's operator identities as numeric residuals, and solves
the all-pairs exchange model both by exact diagonalization and through
Casimir eigenvalues over integer partitions.
"""

from .basis import (
    DEFAULT_DIMENSION_CAP,
    DENSE_EIG_CAP,
    FockBasis,
    SizingError,
    enumerate_basis,
)
from .heisenberg import (
    CasimirLevel,
    SingularPrefactorError,
    SpectrumMatch,
    SpectrumReport,
    compare_spectra,
    spectrum_casimir,
    spectrum_report,
)
from .operators import (
    DROP_TOL,
    NonHermitianError,
    as_operator,
    casimir_c1,
    casimir_c2,
    class_sum,
    class_sum_spectrum,
    coupling_sum,
    entrywise_real,
    exchange_op,
    hermitian_part,
    max_abs,
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
    run_grid,
    run_task,
)

__version__ = "0.1.0"
