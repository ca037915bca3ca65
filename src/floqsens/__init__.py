"""Floquet-spectroscopy toolkit for dynamical-decoupling quantum sensing."""

from .engine import (
    ConditionalHamiltonians,
    SpectrumScan,
    spectrum_scan,
)
from .errors import (
    CapacityError,
    ConfigError,
    NumericalConsistencyError,
    SymmetryViolationError,
    ValidationError,
)
from .linalg import expm_hermitian
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
    regime_classify,
)
from .clusters import (
    DipEstimate,
    PairSet,
    SpinCluster,
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
    nv_two_state,
    owp_locate,
    si_bi,
)

__version__ = "0.1.0"
