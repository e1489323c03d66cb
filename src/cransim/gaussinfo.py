"""Numerically robust Gaussian-information kernels.

All covariance matrices are treated as Hermitian PSD ndarrays; helpers here
symmetrize before factorizing, and LN2 converts natural logs to bits.
"""

import numpy as np

from .errors import NumericalDomainError

LN2 = np.log(2.0)


def hermitize(m):
    """Symmetrize to (M + M^H)/2."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + m.conj().T)


def cholesky(m):
    """Lower Cholesky factor of a positive definite Hermitian matrix.

    A non-finite entry raises: LAPACK passes NaN through into the factor
    instead of failing.  A finite positive definite matrix has a finite
    factor, since |L_ij| <= sqrt(m_ii).
    """
    if not np.isfinite(m).all():
        raise NumericalDomainError("matrix has non-finite entries")
    m = hermitize(m)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(m)
        raise NumericalDomainError(
            f"matrix is not positive definite (min eigenvalue {w.min():.6e})")
