"""The paper's four evaluated applications, written against the
Dyn-MPI API: Jacobi iteration, Red/Black SOR, Conjugate Gradient, and
the particle simulation.  Sequential references live in
:mod:`repro.apps.reference`; shared scaffolding in
:mod:`repro.apps.base`."""

from .base import AppResult, collect_rows, exchange_halo, run_program
from .cg import CGConfig, cg_program
from .jacobi import JacobiConfig, jacobi_program
from .particle import ParticleConfig, initial_counts, particle_program
from .sor import SORConfig, sor_program
from . import kernels, reference

__all__ = [
    "AppResult",
    "run_program",
    "exchange_halo",
    "collect_rows",
    "JacobiConfig",
    "jacobi_program",
    "SORConfig",
    "sor_program",
    "CGConfig",
    "cg_program",
    "ParticleConfig",
    "particle_program",
    "initial_counts",
    "kernels",
    "reference",
]
