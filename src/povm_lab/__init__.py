"""Optimal POVM search for quantum state tomography with known parameters.

Modules:
    linalg      dense Hermitian eigenvalues and PSD tests, determinants
    basis       orthonormal Hermitian operator bases, Bloch conversions
    povm        POVMs as element matrices: closure, validation, diagnostics, file format
    statespace  constrained-state grids and eigenvalue clustering
    objective   estimator design matrix, averaged covariance, DACM
    annealer    Glauber-dynamics simulated annealing from any (N + 1)-element POVM
    rankone     equi-modular rank-one phase refinement
    catalog     closed-form measurements and the conditional-SIC certification report
    cli         the povm-lab command line front end
"""

from .annealer import AnnealConfig, AnnealResult, TraceRecord, anneal
from .basis import OrthonormalBasis, ParameterPattern, gell_mann_basis
from .catalog import ConditionalSicReport, conditional_sic_report
from .objective import AveragedCovariance, DesignMatrix, dacm
from .povm import Povm, PovmMetrics
from .rankone import PhaseConfiguration, refine
from .statespace import Cluster, GridSpec

__all__ = [
    "AnnealConfig",
    "AnnealResult",
    "AveragedCovariance",
    "Cluster",
    "ConditionalSicReport",
    "DesignMatrix",
    "GridSpec",
    "OrthonormalBasis",
    "ParameterPattern",
    "PhaseConfiguration",
    "Povm",
    "PovmMetrics",
    "TraceRecord",
    "anneal",
    "conditional_sic_report",
    "dacm",
    "gell_mann_basis",
    "refine",
]

__version__ = "0.1.0"
