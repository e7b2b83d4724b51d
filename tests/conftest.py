import numpy as np
import pytest

from povm_lab import basis as bs
from povm_lab import catalog, linalg, statespace
from povm_lab import povm as pv
from povm_lab.errors import ContractViolation, SingularDesign

PIVOT_FLOOR = 1e-12


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


def boundary_points(basis, seed, support, offsets):
    """A random direction with `support` nonzero coordinates, scaled so that
    the lowest eigenvalue of rho = I/n + theta . sigma is each of `offsets`."""
    rng = np.random.default_rng(seed)
    k = basis.dim**2 - 1
    u = np.zeros(k)
    pos = rng.choice(k, size=support, replace=False)
    u[pos] = rng.normal(size=support)
    lowest = np.linalg.eigvalsh(np.tensordot(u, basis.stack, axes=1))[0]  # < 0: traceless
    # lambda_min(rho(t u)) = 1/n + t * lowest for t >= 0
    return np.array([(1.0 / basis.dim - off) / -lowest * u for off in offsets])


def hs_inner(A, B) -> float:
    """Hilbert-Schmidt pairing Tr(A B) of two Hermitian matrices."""
    A = linalg.symmetrize(A)
    B = linalg.symmetrize(B)
    if A.shape != B.shape:
        raise ContractViolation(f"dimension mismatch: {A.shape} vs {B.shape}")
    # Tr(A B) = sum_ij A_ij conj(B_ij) for Hermitian B
    z = complex(np.vdot(B, A))
    scale = max(1.0, float(np.abs(A).max()) * float(np.abs(B).max()) * A.shape[0] ** 2)
    if abs(z.imag) > 1e-12 * scale:
        raise ContractViolation(f"trace pairing has imaginary residue {z.imag:g}")
    return z.real


def solve_linear(M, b) -> np.ndarray:
    """Solve M x = b for real square M; raises SingularDesign on tiny pivots."""
    A = np.asarray(M, dtype=float)
    rhs = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ContractViolation(f"solve_linear needs a square matrix, got {A.shape}")
    n = A.shape[0]
    if rhs.shape != (n,):
        raise ContractViolation(f"rhs has shape {rhs.shape}, expected ({n},)")
    scale = max(1.0, float(np.abs(A).max()))
    a = [list(map(float, row)) + [float(rhs[i])] for i, row in enumerate(A)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) <= PIVOT_FLOOR * scale:
            raise SingularDesign(f"pivot {a[piv][col]:g} below floor at column {col}")
        if piv != col:
            a[piv], a[col] = a[col], a[piv]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f != 0.0:
                for c in range(col + 1, n + 1):
                    a[r][c] -= f * a[col][c]
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        s = a[row][n] - sum(a[row][c] * x[c] for c in range(row + 1, n))
        x[row] = s / a[row][row]
    return np.array(x)


def multinomial_covariance(p, n_unknown: int) -> np.ndarray:
    """Covariance of the first N outcome frequencies (single repetition)."""
    p = np.asarray(p, dtype=float)
    if n_unknown > p.shape[0] - 1:
        raise ContractViolation(f"N = {n_unknown} exceeds m - 1 = {p.shape[0] - 1}")
    head = p[:n_unknown]
    return np.diag(head) - np.outer(head, head)


def state_to_bloch(rho, basis: bs.OrthonormalBasis) -> np.ndarray:
    """Coordinates theta_i = Tr(rho sigma_i); requires unit trace."""
    rho = linalg.symmetrize(rho)
    tr = rho.trace().real
    if abs(tr - 1.0) > 1e-9:
        raise ContractViolation(f"state trace {tr:.12g} is not 1")
    coords = np.einsum("aij,ji->a", basis.stack, rho)
    return np.real(coords).copy()


def reference_overlaps(elements):
    """The pairwise oracle for `povm.overlap_matrix`: `hs_inner` of every
    ordered pair."""
    return np.array([[hs_inner(a, b) for b in elements] for a in elements])


def overlap_tolerance(elements):
    """The (m, m) tolerance of `overlap_matrix` against `reference_overlaps`:
    4 ulps of n^2 max|E_i| max|E_j| per pair, as the two sum Tr(E_i E_j) in
    different orders (random Hermitian stacks differ by up to about 1.3)."""
    peaks = np.array([np.abs(e).max() for e in elements])
    return 4 * np.finfo(float).eps * elements[0].shape[0] ** 2 * np.outer(peaks, peaks)


def coordinate_element(a0, a, basis):
    """The element a0 (I + a . sigma) of one weight a0 and direction a, built
    one row at a time: the oracle for the stacked `annealer.coordinate_elements`."""
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
    spec = statespace.GridSpec(7, qubit_pattern)
    clusters = statespace.cluster_states(statespace.generate_grid(spec), 10, basis2)
    return statespace.select_cluster(clusters)


@pytest.fixture(scope="session")
def qutrit_small_cluster(basis3, qutrit_pattern):
    """Largest cluster of a coarse qutrit grid (g = 3) for fast objective tests."""
    spec = statespace.GridSpec(3, qutrit_pattern)
    clusters = statespace.cluster_states(statespace.generate_grid(spec), 10, basis3)
    return statespace.select_cluster(clusters)


@pytest.fixture(scope="session")
def qutrit_default_cluster(basis3, qutrit_pattern):
    """Largest cluster of the default qutrit grid (g = 7, B = 10); built once."""
    spec = statespace.GridSpec(7, qutrit_pattern)
    clusters = statespace.cluster_states(statespace.generate_grid(spec), 10, basis3)
    return statespace.select_cluster(clusters)


@pytest.fixture(scope="session")
def trine():
    return catalog.qubit_trine()


@pytest.fixture(scope="session")
def qutrit_csic():
    return catalog.qutrit_csic()
