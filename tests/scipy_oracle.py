"""SciPy as a test-only oracle: the one conversion from a library operator.

The library never imports scipy.  Tests that slice a library operator, or
mix it with a scipy matrix, convert it here first.  The module also holds
the test-only helpers that more than one test file reads.
"""

import scipy.sparse as sp

from gentile import GentileOrder, enumerate_basis
from gentile.operators import CSR, max_abs
from gentile.verifier import _limit_sides, _theorem_sides


def to_scipy(mat):
    """``mat`` as a scipy ``csr_matrix``: a library :class:`CSR` over copies
    of its arrays, any other matrix through ``sp.csr_matrix``."""
    if isinstance(mat, CSR):
        return sp.csr_matrix((mat.data.copy(), mat.indices.copy(), mat.indptr.copy()),
                             shape=mat.shape)
    return sp.csr_matrix(mat)


def limit_theorem_agreement(nu, m, subspace=1):
    """Max distance between the two residual recipes at maximum occupation 1.

    With the entrywise real-part reading, the class-sum relation's recipe and
    the limit relation's minus-sign recipe are algebraically the same
    expression there (the coupling sum reduces to minus the total number), so
    they must agree whatever the shared residual is worth.
    """
    basis = enumerate_basis(nu, m, GentileOrder(1), sector=subspace)
    d_limit, _ = _limit_sides(basis)
    return max_abs(_theorem_sides(basis, "entrywise_real") - d_limit)
