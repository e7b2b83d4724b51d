"""Optimal POVM search for quantum state tomography with known parameters.

Modules:
    linalg      dense Hermitian eigenvalues and PSD tests, determinants
    basis       orthonormal Hermitian operator bases, Bloch conversions, the parameter pattern
    povm        POVMs as element matrices: closure, validation, diagnostics, file format
    statespace  constrained-state grids and eigenvalue clustering
    objective   estimator design matrix, averaged covariance, DACM
    annealer    Glauber-dynamics simulated annealing from any (N + 1)-element POVM
    rankone     equi-modular rank-one phase refinement
    catalog     closed-form measurements and the conditional-SIC certification report
    cli         the povm-lab command line front end
"""

__version__ = "0.1.0"
