"""Floquet-spectroscopy toolkit for dynamical-decoupling quantum sensing."""

from .engine import (
    ConditionalHamiltonians,
    EnvelopeTerms,
    FloquetPair,
    PulseSequence,
    SpectrumScan,
    coherence_floquet,
    coherence_numeric,
    envelope_general,
    floquet_pair,
    half_period_check,
    half_period_operators,
    spectrum_scan,
    thermal_coherence_numeric,
    unit_cell,
)
from .errors import (
    CapacityError,
    ConfigError,
    NumericalConsistencyError,
    SymmetryViolationError,
    ValidationError,
)
from .linalg import EigenSystem, eig_unitary, expm_hermitian
from .pseudospin import (
    DipRecord,
    PseudoField,
    Regime,
    TwoStateModel,
    avg_hamiltonian_dip,
    coherence_analytic,
    cos_floquet_phase,
    diamond_boundaries,
    dip_depth,
    dip_positions,
    envelope,
    floquet_phase,
    omega_average,
    regime_classify,
)
from .clusters import (
    DipEstimate,
    PairSet,
    SpinCluster,
    basis_state_coherences,
    conditional_cluster_hamiltonians,
    doublet_dip_estimates,
    joint_full_model,
    secular_quasienergies,
)
from .sensors import (
    DonorModel,
    NVModel,
    PairTarget,
    donor_levels,
    donor_pair_polarizations,
    donor_polarization,
    nv_two_state,
    owp_locate,
    si_bi,
)

__version__ = "0.1.0"
