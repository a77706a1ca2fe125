"""oscillab: a Hermite-spectral laboratory for the cubic NLS with harmonic potential.

The package provides, in layers:

* :mod:`oscillab.hermite` — orthonormal Hermite bases, Gauss quadrature with
  envelope-compensated weights, synthesis and projection transforms;
* :mod:`oscillab.operators` — ladder words (gradients / coordinate multiplications),
  the Hamiltonian, Littlewood-Paley blocks, Sobolev norms and the I-operator;
* :mod:`oscillab.solver` — Strang splitting for i u_t = H u + |u|^2 u with a
  recording driver, the conserved energy and spillage tracking;
* :mod:`oscillab.lab` — quadrilinear identity checks, almost-orthogonality sweeps,
  bilinear space-time measurements, modified-energy and growth experiments;
* :mod:`oscillab.cli` — the ``oscillab`` command-line experiment runner.
"""

__version__ = "0.1.0"

from .hermite import (
    HermiteBasis,
    MultiIndex,
    QuadratureRule,
    SpectralField,
    eigenvalue,
    galerkin_project,
    gauss_hermite_rule,
    hermite_values_1d,
    synthesize,
)
from .operators import (
    IOperatorSpec,
    PWord,
    apply_H,
    apply_I,
    apply_I_inverse,
    apply_P,
    bernstein_ratio,
    bernstein_ratios,
    commutator_H_P,
    i_multiplier,
    littlewood_paley,
    project_pi_mu,
    sobolev_norm,
)
from .solver import (
    SolverConfig,
    energy,
    linear_propagator,
    nonlinear_phase_step,
    run_recorded,
    strang_step,
)
from .lab import (
    QuadTuple,
    ResonantTupleError,
    ScalingFit,
    almost_orthogonality_scan,
    bilinear_min_K,
    bilinear_strichartz_ratio,
    derivative_bilinear_ratio,
    energy_increment_scan,
    fit_power_law,
    identity_residual_scan_1d,
    norm_growth_experiment,
    quad_L0,
    quad_L1_plus_weight,
    random_shell_field,
    verify_identity_k1,
)

__all__ = [
    "__version__",
    # hermite
    "HermiteBasis", "MultiIndex", "QuadratureRule", "SpectralField",
    "eigenvalue", "galerkin_project", "gauss_hermite_rule",
    "hermite_values_1d", "synthesize",
    # operators
    "IOperatorSpec", "PWord", "apply_H", "apply_I", "apply_I_inverse",
    "apply_P", "bernstein_ratio", "bernstein_ratios", "commutator_H_P",
    "i_multiplier", "littlewood_paley", "project_pi_mu", "sobolev_norm",
    # solver
    "SolverConfig", "energy", "linear_propagator", "nonlinear_phase_step",
    "run_recorded", "strang_step",
    # lab
    "QuadTuple", "ResonantTupleError", "ScalingFit", "almost_orthogonality_scan",
    "bilinear_min_K", "bilinear_strichartz_ratio", "derivative_bilinear_ratio",
    "energy_increment_scan", "fit_power_law", "identity_residual_scan_1d",
    "norm_growth_experiment", "quad_L0", "quad_L1_plus_weight",
    "random_shell_field", "verify_identity_k1",
]
