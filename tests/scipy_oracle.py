"""SciPy as a test-only oracle: the one conversion from a library operator.

The library never imports scipy.  Tests that slice a library operator, or
mix it with a scipy matrix, convert it here first.
"""

import scipy.sparse as sp

from gentile.operators import CSR


def to_scipy(mat):
    """``mat`` as a scipy ``csr_matrix``: a library :class:`CSR` over copies
    of its arrays, any other matrix through ``sp.csr_matrix``."""
    if isinstance(mat, CSR):
        return sp.csr_matrix((mat.data.copy(), mat.indices.copy(), mat.indptr.copy()),
                             shape=mat.shape)
    return sp.csr_matrix(mat)
