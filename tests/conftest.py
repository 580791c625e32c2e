import numpy as np
import pytest

from qmcbounds.fixtures import (
    driven_qubit,
    poisson_counting_qubit,
    random_channel,
    ring_channel,
    two_block_ring,
    two_state_chain,
    two_unitary_qubit,
)
from qmcbounds.spectral import invariant_state


@pytest.fixture(scope="session")
def ring():
    channel, payoff = ring_channel()
    return channel, payoff


@pytest.fixture(scope="session")
def ring_sigma(ring):
    channel, _ = ring
    return invariant_state(channel)


@pytest.fixture(scope="session")
def qubit():
    return two_unitary_qubit()


@pytest.fixture(scope="session")
def qubit_gen():
    return driven_qubit()


@pytest.fixture(scope="session")
def poisson_gen():
    return poisson_counting_qubit()


@pytest.fixture(scope="session")
def two_block():
    return two_block_ring()


@pytest.fixture(scope="session")
def chain2():
    return two_state_chain()


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def reject_constant(name):
    """``parse_constant`` for ``json.loads`` that rejects NaN and infinities."""
    raise ValueError(f"non-finite JSON constant {name}")


__all__ = ["random_channel", "random_state", "random_hermitian", "reject_constant"]
