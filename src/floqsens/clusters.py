"""Multi-spin bath models: interacting clusters and independent pairs.

A cluster of n spin-1/2 nuclei with hyperfine couplings A_k and secular
dipolar couplings C_jk evolves under the state-conditional Hamiltonian

    H_i = (P_i / 2) sum_k A_k Iz_k
          + sum_{j<k} C_jk [Iz_j Iz_k - (s+_j s-_k + s-_j s+_k) / 4],

with Iz = sigma_z / 2 and P_i the sensor-level polarization.  The A term
is the projected hyperfine coupling <i|S_z|i> A_k Iz_k (P_i = 2 <i|S_z|i>),
which on an n = 2 cluster reproduces the pair pseudofield
h_i = (C12, 0, delta_a P_i) / 2 block by block.

For n = 3 the flip-flop dynamics splits into the total-Iz = +-1/2
subspaces, each contributing a locus of coherence dips whose positions a
secular (diagonal) quasienergy estimate predicts well.  The quasienergies
returned here are normalized as twice the diagonal of H_u + H_d so that a
dip sits at tau = 2 pi / |eps_l - eps_m|; with that normalization the
first doublet lands at tau = 2 pi / |Delta_12 (P_u + P_d) +- 2 (C31 - C23)|.

Independent pairs are two-state targets (``PairSet.two_state_models``);
their joint 2^k space (``PairSet.conditional``) serves only spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .engine import ConditionalHamiltonians, PulseSequence, unit_cell, unitary_power
from .errors import CapacityError, ValidationError
from .linalg import MAX_DIM, kron
from .pseudospin import TwoStateModel
from .sensors import DonorModel, PairTarget, donor_eigensystem, donor_electron_sz

MAX_BATH_SPINS = 6


@dataclass(frozen=True)
class SpinCluster:
    """n spin-1/2 bath spins: hyperfine couplings a[k] and dipolar matrix c[j,k]."""

    a: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise ValidationError("hyperfine couplings must be a 1-d list")
        n = a.size
        if c.shape != (n, n):
            raise ValidationError(f"dipolar matrix must be {n}x{n}, got {c.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(c))):
            raise ValidationError("cluster couplings must be finite")
        if np.abs(c - c.T).max() > 0 or np.abs(np.diag(c)).max() > 0:
            raise ValidationError("dipolar matrix must be symmetric with zero diagonal")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.a.size

    def delta(self, j: int, k: int) -> float:
        """Flip-flop energy cost Delta_jk = A_j - A_k (0-based indices)."""
        return float(self.a[j] - self.a[k])


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for j in range(n):
        m = np.kron(m, op if j == site else np.eye(2, dtype=complex))
    return m


def _bath_operators(n: int):
    sz = np.diag([1.0 + 0j, -1.0])
    sp = np.array([[0, 1.0 + 0j], [0, 0]])
    iz = [0.5 * _site_operator(sz, k, n) for k in range(n)]
    raise_ops = [_site_operator(sp, k, n) for k in range(n)]
    return iz, raise_ops


def intra_bath_hamiltonian(cluster: SpinCluster) -> np.ndarray:
    """Secular dipolar part: Ising shifts plus flip-flop exchange."""
    n = cluster.n
    iz, rp = _bath_operators(n)
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j, k in combinations(range(n), 2):
        flip = rp[j] @ rp[k].conj().T
        h += cluster.c[j, k] * (iz[j] @ iz[k] - 0.25 * (flip + flip.conj().T))
    return h


def hyperfine_bath_operator(cluster: SpinCluster) -> np.ndarray:
    """sum_k A_k Iz_k on the bath space."""
    n = cluster.n
    iz, _ = _bath_operators(n)
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for k in range(n):
        h += cluster.a[k] * iz[k]
    return h


def conditional_cluster_hamiltonians(cluster: SpinCluster, p_u: float,
                                     p_d: float) -> ConditionalHamiltonians:
    """State-conditional bath Hamiltonians for the given sensor polarizations."""
    if cluster.n > MAX_BATH_SPINS:
        raise CapacityError(f"bath of {cluster.n} spins exceeds maximum {MAX_BATH_SPINS}")
    h_a = hyperfine_bath_operator(cluster)
    h_c = intra_bath_hamiltonian(cluster)
    return ConditionalHamiltonians(h_u=0.5 * p_u * h_a + h_c,
                                   h_d=0.5 * p_d * h_a + h_c)


@dataclass(frozen=True)
class PairSet:
    """Independent flip-flopping pairs sharing one sensor."""

    pairs: tuple[PairTarget, ...]

    @classmethod
    def from_cluster(cls, cluster: SpinCluster) -> "PairSet":
        """The three pairs (Delta_12, C12), (Delta_23, C23), (Delta_31, C31)
        that mimic a 3-cluster without its many-body correlations."""
        if cluster.n != 3:
            raise ValidationError("pair decomposition is defined for 3-spin clusters")
        return cls(pairs=(
            PairTarget(delta_a=cluster.delta(0, 1), c12=cluster.c[0, 1]),
            PairTarget(delta_a=cluster.delta(1, 2), c12=cluster.c[1, 2]),
            PairTarget(delta_a=cluster.delta(2, 0), c12=cluster.c[2, 0]),
        ))

    def two_state_models(self, p_u: float, p_d: float) -> list[TwoStateModel]:
        return [t.two_state(p_u, p_d) for t in self.pairs]

    def conditional(self, p_u: float, p_d: float) -> ConditionalHamiltonians:
        """Joint tensor-product conditional Hamiltonians of all pairs."""
        dim = 2 ** len(self.pairs)
        if dim > MAX_DIM:
            raise CapacityError(f"joint pair space of dim {dim} exceeds {MAX_DIM}")
        h_u = np.zeros((dim, dim), dtype=complex)
        h_d = np.zeros((dim, dim), dtype=complex)
        models = self.two_state_models(p_u, p_d)
        for idx, model in enumerate(models):
            mu, md = model.hamiltonians()
            left = np.eye(2 ** idx, dtype=complex)
            right = np.eye(2 ** (len(self.pairs) - idx - 1), dtype=complex)
            h_u += kron(kron(left, mu), right)
            h_d += kron(kron(left, md), right)
        return ConditionalHamiltonians(h_u=h_u, h_d=h_d)


def basis_state_coherences(ch: ConditionalHamiltonians, seq: PulseSequence) -> np.ndarray:
    """Complex coherence of each computational basis state individually."""
    t_u2, t_d2 = unit_cell(ch, seq)
    p_u = unitary_power(t_u2, seq.n_p)
    p_d = unitary_power(t_d2, seq.n_p)
    return np.diag(p_u.conj().T @ p_d).copy()


def secular_quasienergies(cluster: SpinCluster, p_u: float, p_d: float) -> np.ndarray:
    """Diagonal quasienergy estimates eps_1..3 of a 3-cluster (rad/s).

    eps_l = (A_i - A_j - A_k)(P_u + P_d) / 2 + C_jk - C_ij - C_ik for the
    cyclic permutations (i, j, k); this is twice the matching diagonal of
    H_u + H_d on the spin-i-up states, the normalization that puts dips at
    tau = 2 pi / |eps_l - eps_m|.
    """
    if cluster.n != 3:
        raise ValidationError("secular quasienergies are defined for 3-spin clusters")
    p_sum = p_u + p_d
    a, c = cluster.a, cluster.c
    eps = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps.append(0.5 * (a[i] - a[j] - a[k]) * p_sum
                   + c[j, k] - c[i, j] - c[i, k])
    return np.array(eps)


@dataclass(frozen=True)
class DipEstimate:
    """Secular dip estimate: location, quasienergy pair and Iz subspace sign."""

    tau: float
    pair: tuple[int, int]
    subspace: int
    label: str


def doublet_dip_estimates(cluster: SpinCluster, p_u: float,
                          p_d: float) -> list[DipEstimate]:
    """All pairwise secular dip estimates, one per total-Iz subspace sign.

    The two subspaces flip the hyperfine part of the quasienergy
    differences, which splits each estimate into the observed doublet;
    degenerate quasienergy pairs are omitted.  Sorted by tau.
    """
    eps = secular_quasienergies(cluster, p_u, p_d)
    p_sum = p_u + p_d
    a = cluster.a
    out = []
    for l, m in combinations(range(3), 2):
        hyper = (a[l] - a[m]) * p_sum
        dip_c = eps[l] - eps[m] - hyper
        # eps was derived on the Iz = -1/2 states; the +1/2 subspace flips
        # the hyperfine part of every difference
        for subspace in (+1, -1):
            diff = -subspace * hyper + dip_c
            if diff == 0.0:
                continue
            tau = 2.0 * math.pi / abs(diff)
            out.append(DipEstimate(tau=tau, pair=(l + 1, m + 1), subspace=subspace,
                                   label=f"{l + 1}{m + 1}{'+' if subspace > 0 else '-'}"))
    return sorted(out, key=lambda rec: rec.tau)


def joint_full_model(donor: DonorModel, cluster: SpinCluster,
                     b0: float) -> ConditionalHamiltonians:
    """Conditional bath Hamiltonians from the full joint sensor-bath problem.

    Builds H_total = H_donor x 1 + sum_k A_k (S_z x Iz_k) + 1 x H_bath on
    the joint space and projects onto the exact donor eigenstates of the
    transition, H_i = <i|H_total|i>, so the polarizations emerge from the
    diagonalization instead of being imposed.
    """
    bath_dim = 2 ** cluster.n
    joint_dim = donor.dim * bath_dim
    if cluster.n > MAX_BATH_SPINS or joint_dim > MAX_DIM:
        raise CapacityError(f"joint dimension {joint_dim} exceeds capacity")
    energies, states = donor_eigensystem(donor, b0)
    sz = donor_electron_sz(donor)
    h_a = hyperfine_bath_operator(cluster)
    h_c = intra_bath_hamiltonian(cluster)
    eye_bath = np.eye(bath_dim, dtype=complex)
    out = []
    for level in (donor.level_u, donor.level_d):
        psi = states[:, level - 1]
        energy = float(energies[level - 1])
        sz_exp = float(np.real(np.vdot(psi, sz @ psi)))
        out.append(energy * eye_bath + sz_exp * h_a + h_c)
    return ConditionalHamiltonians(h_u=out[0], h_d=out[1])
