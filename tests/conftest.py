import numpy as np
import pytest

from povm_lab import basis as bs
from povm_lab import catalog, linalg, statespace
from povm_lab import povm as pv


def random_hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (x + x.conj().T) / 2.0


def random_unitary(rng, n):
    """Gram-Schmidt orthonormalization of a random complex matrix."""
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q = np.zeros_like(x)
    for j in range(n):
        v = x[:, j]
        for k in range(j):
            v = v - q[:, k] * (q[:, k].conj() @ v)
        q[:, j] = v / np.linalg.norm(v)
    return q


def random_state(rng, n):
    v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = v @ v.conj().T
    return rho / rho.trace().real


def reference_overlaps(elements):
    """The pairwise oracle for `povm.overlap_matrix`: `linalg.hs_inner` of
    every ordered pair."""
    return np.array([[linalg.hs_inner(a, b) for b in elements] for a in elements])


def overlap_tolerance(elements):
    """The (m, m) tolerance of `overlap_matrix` against `reference_overlaps`:
    4 ulps of n^2 max|E_i| max|E_j| per pair, as the two sum Tr(E_i E_j) in
    different orders (random Hermitian stacks differ by up to about 1.3)."""
    peaks = np.array([np.abs(e).max() for e in elements])
    return 4 * np.finfo(float).eps * elements[0].shape[0] ** 2 * np.outer(peaks, peaks)


def coordinate_element(a0, a, basis):
    """The element a0 (I + a . sigma) of one weight a0 and direction a, built
    one row at a time: the oracle for the stacked `FreeElements.elements`."""
    return a0 * (basis.expand(a) + np.eye(basis.dim))


def free_coordinates(P, basis):
    """(a0, a) of each free element of P (all but the last), read off its
    `element_rows` as `AnnealChain` reads its start: a0 = x[0], a = x[1:] / a0."""
    return [(x[0], x[1:] / x[0]) for x in pv.element_rows(P.elements[:-1], basis)]


@pytest.fixture(scope="session")
def basis2():
    return bs.gell_mann_basis(2)


@pytest.fixture(scope="session")
def basis3():
    return bs.gell_mann_basis(3)


@pytest.fixture(scope="session")
def basis4():
    return bs.gell_mann_basis(4)


@pytest.fixture(scope="session")
def qubit_pattern():
    return bs.ParameterPattern.from_known(2, {3: 0.0})


@pytest.fixture(scope="session")
def qutrit_pattern():
    return bs.ParameterPattern.from_known(3, {7: 0.0, 8: 0.0})


@pytest.fixture(scope="session")
def dim4_diag_unknown_pattern():
    return bs.ParameterPattern.from_known(
        4, {i: 0.0 for i in range(1, 16) if i not in (3, 12, 15)}
    )


@pytest.fixture(scope="session")
def qubit_cluster(basis2, qubit_pattern):
    """Largest cluster of the default qubit grid (g = 7, B = 10)."""
    spec = statespace.GridSpec(7, bs.bloch_radius_bound(2), qubit_pattern)
    clusters = statespace.cluster_states(
        statespace.generate_grid(spec, basis2), 10, basis2
    )
    return statespace.select_cluster(clusters)


@pytest.fixture(scope="session")
def qutrit_small_cluster(basis3, qutrit_pattern):
    """Largest cluster of a coarse qutrit grid (g = 3) for fast objective tests."""
    spec = statespace.GridSpec(3, bs.bloch_radius_bound(3), qutrit_pattern)
    clusters = statespace.cluster_states(
        statespace.generate_grid(spec, basis3), 10, basis3
    )
    return statespace.select_cluster(clusters)


@pytest.fixture(scope="session")
def qutrit_default_cluster(basis3, qutrit_pattern):
    """Largest cluster of the default qutrit grid (g = 7, B = 10); built once."""
    spec = statespace.GridSpec(7, bs.bloch_radius_bound(3), qutrit_pattern)
    clusters = statespace.cluster_states(
        statespace.generate_grid(spec, basis3), 10, basis3
    )
    return statespace.select_cluster(clusters)


@pytest.fixture(scope="session")
def trine():
    return catalog.qubit_trine()


@pytest.fixture(scope="session")
def qutrit_csic():
    return catalog.qutrit_csic()
