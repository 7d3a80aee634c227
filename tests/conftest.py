import numpy as np
import pytest

import fracpow.quadrature as quadrature


@pytest.fixture(autouse=True)
def fresh_gauss_jacobi_tables():
    """Start every test without the Gauss-Jacobi tables that earlier tests cached."""
    quadrature._cayley_table.cache_clear()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_hermitian(rng: np.random.Generator, n: int, *, complex_valued: bool = False):
    """Dense random Hermitian matrix with moderate spectrum."""
    if complex_valued:
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        B = rng.standard_normal((n, n))
    return (B + B.conj().T) / 2.0


def random_hpd(rng: np.random.Generator, n: int, *, delta: float = 0.1):
    """Dense random HPD matrix built as B^T B + delta I."""
    B = rng.standard_normal((n, n))
    return B.T @ B + delta * np.eye(n)
