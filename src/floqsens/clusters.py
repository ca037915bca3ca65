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

Every 2^n space is built from the bit patterns of its basis indices, site
0 the most significant bit (kron order): Iz_k is diagonal with the sign of
bit k, and a flip-flop or sigma_x term is one entry per basis state, at the
index with the flipped bits.  No kron product is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .engine import ConditionalHamiltonians
from .errors import CapacityError, ValidationError
from .linalg import MAX_DIM
from .pseudospin import TwoStateModel
from .sensors import DonorModel, PairTarget, donor_levels

MAX_BATH_SPINS = 6


@dataclass(frozen=True)
class SpinCluster:
    """n spin-1/2 bath spins: hyperfine couplings a[k] and dipolar matrix c[j,k].

    ``operators`` builds the cluster's bath operators on first use and keeps
    them, so every Hamiltonian of one cluster (one per field row of a map)
    shares one build.
    """

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

    @cached_property
    def operators(self) -> tuple[np.ndarray, np.ndarray]:
        """(hyperfine, dipolar) from ``_bath_operators``, built once and read-only."""
        out = _bath_operators(self)
        for m in out:
            m.flags.writeable = False
        return out


def _basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices of n spin-1/2 and their (n, 2^n) sigma_z values, site 0 the
    most significant bit (the order of a kron chain over sites 0..n-1)."""
    idx = np.arange(2 ** n)
    shifts = np.arange(n - 1, -1, -1)[:, None]
    return idx, 1.0 - 2.0 * ((idx >> shifts) & 1)


def _bath_operators(cluster: SpinCluster) -> tuple[np.ndarray, np.ndarray]:
    """(sum_k A_k Iz_k, secular dipolar part) on the 2^n bath space.

    Both are diagonal in the spin basis apart from the flip-flop term, which
    puts -C_jk / 4 at (b with bits j and k swapped, b) for every state b whose
    bits j and k differ.  Entries are summed from +0 over sites and pairs in
    ascending order, as a kron-chain build sums them, so they equal its bit for bit.
    """
    n = cluster.n
    if n > MAX_BATH_SPINS:
        raise CapacityError(f"bath of {n} spins exceeds maximum {MAX_BATH_SPINS}")
    idx, sz = _basis(n)
    hyperfine = np.zeros(idx.size)
    for k in range(n):
        hyperfine += cluster.a[k] * (0.5 * sz[k])
    dipolar = np.zeros((idx.size, idx.size))
    for j, k in combinations(range(n), 2):
        dipolar[idx, idx] += cluster.c[j, k] * (0.25 * sz[j] * sz[k])
        b = idx[sz[j] != sz[k]]
        dipolar[b ^ (1 << (n - 1 - j)) ^ (1 << (n - 1 - k)), b] -= 0.25 * cluster.c[j, k]
    return np.diag(hyperfine).astype(complex), dipolar.astype(complex)


def conditional_cluster_hamiltonians(cluster: SpinCluster, p_u: float,
                                     p_d: float) -> ConditionalHamiltonians:
    """State-conditional bath Hamiltonians for the given sensor polarizations."""
    h_a, h_c = cluster.operators
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
        """Joint tensor-product conditional Hamiltonians of all pairs, pair 0
        the most significant bit: sum_k (x_k sigma_x,k + z_k sigma_z,k) / 2."""
        k = len(self.pairs)
        dim = 2 ** k
        if dim > MAX_DIM:
            raise CapacityError(f"joint pair space of dim {dim} exceeds {MAX_DIM}")
        idx, sz = _basis(k)
        models = self.two_state_models(p_u, p_d)
        out = []
        for fields in ([m.h_u for m in models], [m.h_d for m in models]):
            h = np.zeros((dim, dim))
            for site, f in enumerate(fields):
                h[idx, idx] += (0.5 * f.z) * sz[site]
                h[idx ^ (1 << (k - 1 - site)), idx] += 0.5 * f.x
            out.append(h.astype(complex))
        return ConditionalHamiltonians(h_u=out[0], h_d=out[1])


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
    h_a, h_c = cluster.operators
    bath_dim = h_a.shape[0]
    joint_dim = donor.dim * bath_dim
    if joint_dim > MAX_DIM:
        raise CapacityError(f"joint dimension {joint_dim} exceeds capacity")
    energies, pols = donor_levels(donor, b0)
    eye_bath = np.eye(bath_dim, dtype=complex)
    out = []
    for level in (donor.level_u, donor.level_d):
        sz_exp = 0.5 * float(pols[level - 1])
        out.append(float(energies[level - 1]) * eye_bath + sz_exp * h_a + h_c)
    return ConditionalHamiltonians(h_u=out[0], h_d=out[1])
