import numpy as np
import pytest

from cransim import gaussinfo
from cransim.errors import NumericalDomainError
from helpers import logdet2, logdet2_oracle, rand_psd


def test_logdet2_reference_values():
    assert logdet2(np.eye(3)) == pytest.approx(0.0, abs=1e-12)
    assert logdet2(np.diag([2.0, 2.0])) == pytest.approx(2.0, abs=1e-12)


def test_logdet2_matches_eigenvalue_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rand_psd(rng, 4)
        assert logdet2(m) == pytest.approx(logdet2_oracle(m), abs=1e-9)


def test_cholesky_rejects_indefinite_naming_eigenvalue():
    m = np.diag([1.0, -0.5])
    with pytest.raises(NumericalDomainError, match="eigenvalue"):
        gaussinfo.cholesky(m)
    with pytest.raises(NumericalDomainError):
        gaussinfo.cholesky(np.zeros((2, 2)))


def test_logdet2_monotone_under_psd_order():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m1 = rand_psd(rng, 4)
        m2 = m1 + rand_psd(rng, 4, scale=0.5)
        assert logdet2(m1) <= logdet2(m2) + 1e-12


def test_cholesky_rejects_non_finite_input():
    # LAPACK factors [[1, nan], [nan, 1]] into [[1, 0], [nan, nan]] without
    # an error; the kernel raises instead
    for bad in (np.nan, np.inf, -np.inf):
        m = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(NumericalDomainError, match="non-finite"):
            gaussinfo.cholesky(m)
        with pytest.raises(NumericalDomainError):
            gaussinfo.cholesky(np.diag([1.0, bad]))
