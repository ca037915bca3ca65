"""General-dimension Floquet machinery for pulsed conditional evolution.

A CPMG unit cell alternates free evolution of the bath under two
conditional Hamiltonians H_u, H_d (selected by the sensor state).  With
pulse interval tau the cell propagators are

    T_u2 = T_u(tau) T_d(2 tau) T_u(tau),   T_d2 = T_d(tau) T_u(2 tau) T_d(tau),

where T_i(t) = exp(-i H_i t).  Both factor through the half-period
operators W_u = T_u(tau) T_d(tau) and W_d = T_d(tau) T_u(tau) as
T_u2 = W_u W_d and T_d2 = W_d W_u, which forces the two cells to share
one eigenphase multiset and makes each u-mode the half-period image of
its d-partner.  A finite pi pulse of half-width delta, during which the
bath keeps evolving under its conditional Hamiltonian (flip at the pulse
midpoint), makes the cell the ideal cell at the free interval tau + delta.

Both kernels (``floquet_rows`` and ``spectrum_scan``) build every cell
with one builder, ``_cell_blocks``, in the eigenbasis V_u of its sector's
H_u: with X = V_u^dag V_d computed once per sector, T_u(t) is the
diagonal D_u = exp(-i E_u t) and T_d(t) is Y = X exp(-i E_d t) X^dag, so
W_u = D_u Y and W_d = Y D_u cost one (d, d) product per cell and a
spectrum cell T_u2 = D_u (X exp(-2 i E_d t) X^dag) D_u costs one too.
Every stacked product of the kernels (Y, T_u2 = W_u W_d, T_d2 = W_d W_u,
the grams of the unitarity checks, the half-period images W_d Phi, the
residual T_d2 W_d Phi and the squarings and multiplies of
``unitary_power``) is a ``linalg.matmul``: for a real X, Y is two real
products, (X cos) X^T and (X (-sin)) X^T, and a complex product of cells
of at most ``linalg.SMALL_PRODUCT_DIM`` states is one real product of the
realified right operand, not a complex BLAS call per cell.  These cells
are similar to the computational-basis ones by the tau-independent V_u:
eigenphases, mode overlaps from tau to tau, Re tr(P_u^dag P_d) and the
envelope floor agree in exact arithmetic.  One eigensolver serves both
kernels: ``linalg.eig_unitaries`` returns orthonormal modes of a stack of
cells (Cayley transform and batched ``eigh``) at any phase gap.  A sector
whose H_u and H_d blocks are real (every cluster3 and joint_full bath)
has real V_u, V_d and X, so Y and D_u are complex symmetric and so is
every palindromic cell built from them: T_u2 = D_u Y Y D_u and
T_d2 = Y D_u D_u Y, and the spectrum cell D_u Y(2t) D_u.  Its Floquet
modes can be chosen real, and the kernels pass such cells as
``symmetric`` to ``eig_unitaries``, which returns real modes from a real
``eigh``; complex Hamiltonians keep the complex one.

The row kernel ``floquet_rows`` works on conserved sectors.  A sector
(``ConditionalHamiltonians.sectors``) is a set of basis states that
neither H_u nor H_d couples to the rest, found from the exact-zero
pattern of H_u | H_d; every cell is block-diagonal in the sectors of its
pair.  Cluster baths conserve total Iz, so D = 8 splits into sectors of
1, 3, 3 and 1 states and D = 64 into 1, 6, 15, 20, 15, 6 and 1.  Each
sector block of H_u and H_d is diagonalized once, the (row, sector, tau)
cells of one sector size across all rows of a call form one stack, and
the kernel computes only the requested quantities, block by block.  A
one-state sector needs none of this: its block of H - c is exactly
[[0]], so its cell is exactly 1, it adds exactly ``ONE_STATE_VALUES``
(1 to D times the coherence, 2 to D (floor + 1)) and no check can fail
on it; spectra give it its offset phase (below).  The others get

* coherence from ``unitary_power`` of the stacked T_u2 and T_d2, the
  binary power P_i = T_i2^n_p; a row's coherence is
  sum_b Re tr_b(P_u^dag P_d) / D over its sectors b;
* the envelope floor from one solve of the T_u2 block: the d-partner of
  each u-mode Phi is its half-period image W_d Phi, so with
  M = Phi^dag W_d Phi the floor (2/D) sum_{l,l' same cluster} |M_ll'|^2 - 1
  needs no mode pairing.  A cluster is a chain of eigenphases closer
  than PHASE_MATCH_TOL; summed over whole clusters the floor does not
  depend on the basis a solver picks inside one.  Away from degeneracy
  only the diagonal l = l' remains.  Modes of different sectors have
  M_ll' = 0, so a row's floor is (2/D) sum_b w_b - 1 over the
  cluster-summed weights w_b of its sectors, and a crossing between
  sectors is a true crossing.

Sectors add up in a fixed order, so a value depends only on its own row
and tau.  Each sector's Hamiltonians are stored less their first
diagonal entries (c_u, c_d), a phase common to the sector: rows drop it,
since it cancels in both quantities, and spectra add 2 (c_u + c_d) t back,
formed exactly and reduced mod 2 pi (``_offset_phases``).

``spectrum_scan`` works on the same sectors.  The cells of all sectors of
one size are stacked in (tau, sector) order and solved block by block,
and each sector tracks its own modes from tau to tau: one batched product
gives the mode overlaps of each cell with the one before it, a row
maximum above TRACKING_OVERLAP is the unique best continuation of its
mode, and only a cell whose modes mix goes to SciPy's
``linear_sum_assignment``.  A crossing between sectors is a true
crossing and needs no assignment; the smallest gap a spectrum reports is
the one inside a sector, where phases repel.  Every stacked cell passes
the ``UNITARITY_TOL`` check, and errors, those of the eigensolver
included, name the failing tau (``errors.locate``).  The envelope also
checks the half-period identity at every tau: the residual
||T_d2 W_d Phi - lambda W_d Phi|| must stay below ``PHASE_MATCH_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NumericalConsistencyError, SymmetryViolationError, ValidationError, locate
from .linalg import (
    block_slices,
    eig_unitaries,
    matmul,
    polar_unitary,
    require_hermitian,
    require_unitary,
    two_product,
    unitarity_defect,
)

PHASE_MATCH_TOL = 1e-8
POWER_DRIFT_TOL = 1e-12
QUANTITIES = ("coherence", "envelope")
# What _sector_values gives on a one-state cell, which is exactly 1:
# Re tr(1^dag 1) = 1 and d (floor + 1) = 2 (its weight |1|^2 counted twice).
ONE_STATE_VALUES = {"coherence": 1.0, "envelope": 2.0}
# 2 pi as the double nearest to it plus the rest, for _offset_phases.
TWO_PI_HI = 2 * np.pi
TWO_PI_LO = 2.4492935982947064e-16
# Overlap |Phi_{i-1}^dag Phi_i| above which spectrum_scan continues a mode
# by its row maximum.  Above 1/sqrt(2) two maxima cannot share a column;
# 0.75 leaves each row maximum ahead of any other assignment by > 0.08.
TRACKING_OVERLAP = 0.75


@dataclass(frozen=True)
class ConditionalHamiltonians:
    """The pair of bath Hamiltonians selected by the sensor state (rad/s)."""

    h_u: np.ndarray
    h_d: np.ndarray

    def __post_init__(self):
        hu = require_hermitian(self.h_u, name="h_u")
        hd = require_hermitian(self.h_d, name="h_d")
        if hu.shape != hd.shape:
            raise ValidationError(f"conditional Hamiltonians disagree in shape: "
                                  f"{hu.shape} vs {hd.shape}")
        object.__setattr__(self, "h_u", hu)
        object.__setattr__(self, "h_d", hd)

    @property
    def dim(self) -> int:
        return self.h_u.shape[0]

    @cached_property
    def sectors(self) -> tuple[SectorStack, ...]:
        """Basis states that H_u and H_d never connect to the rest, diagonalized once.

        A sector is a connected component of the exact-zero pattern of
        H_u | H_d, found by squaring the boolean reachability matrix until
        it stops growing.  Cluster baths conserve total Iz, so their
        sectors are the Iz sectors, or finer ones where a coupling is
        exactly 0.  One ``SectorStack`` per sector size, ascending; the
        sectors of a stack are ordered by their smallest state.  Each
        branch's first diagonal entry of a sector block is subtracted
        before its ``eigh``: a phase common to the whole sector, which
        would otherwise limit its phases to about eps |H| t (the donor level
        energy of ``joint_full``, where the subtraction is exact).  The
        blocks of one size whose imaginary parts are all exactly zero are
        diagonalized by a real ``eigh``, so their modes and transfer are real.
        A one-state block less its entry is exactly [[0]]: energy 0 and the
        real mode 1, what ``eigh`` returns for it, without the call.
        """
        reach = (self.h_u != 0) | (self.h_d != 0) | np.eye(self.dim, dtype=bool)
        reach |= reach.T
        while True:
            wider = reach @ reach
            if (wider == reach).all():
                break
            reach = wider
        first = reach.argmax(axis=1)  # the smallest state of each state's sector
        size = np.bincount(first)[first]
        by_sector = np.argsort(first, kind="stable")
        out = []
        for s in sorted(set(size.tolist())):
            index = by_sector[size[by_sector] == s].reshape(-1, s)
            block = index[:, :, None], index[:, None, :]
            h = np.concatenate([self.h_u[block], self.h_d[block]])
            k = len(index)
            offsets = h[:, 0, 0].real.copy()
            if s == 1:  # H - c is exactly [[0]]: energy 0, mode 1
                out.append(SectorStack(index, np.zeros((k, 1)), np.zeros((k, 1)),
                                       np.ones((k, 1, 1)), offsets.reshape(2, k).T))
                continue
            if not h.imag.any():  # a real pair: real modes, a real transfer
                h = h.real.copy()
            h[:, np.arange(s), np.arange(s)] -= offsets[:, None]
            energies, modes = np.linalg.eigh(h)
            out.append(SectorStack(index, energies[:k], energies[k:],
                                   modes[:k].conj().swapaxes(-1, -2) @ modes[k:],
                                   offsets.reshape(2, k).T))
        return tuple(out)

    @property
    def spectral_radius(self) -> float:
        """Largest |eigenvalue| of H_u and H_d, from the sector eigenvalues and offsets."""
        return max(float(np.abs(energies + stack.offsets[:, b, None]).max())
                   for stack in self.sectors
                   for b, energies in enumerate((stack.energies_u, stack.energies_d)))


class SectorStack(NamedTuple):
    """The k sectors of one size s of a Hamiltonian pair.

    ``index`` (k, s) holds the states of each sector, ascending, and
    ``offsets`` (k, 2) the first diagonal entries (c_u, c_d) of H_u and H_d
    there.  With H_i - c_i 1 = V_i E_i V_i^dag on a sector, ``energies_u``
    and ``energies_d`` (k, s) are E_u and E_d and ``transfer`` (k, s, s) is
    X = V_u^dag V_d, a real orthogonal array when the blocks are real.
    """

    index: np.ndarray
    energies_u: np.ndarray
    energies_d: np.ndarray
    transfer: np.ndarray
    offsets: np.ndarray


def _cell_blocks(energies_u: np.ndarray, energies_d: np.ndarray, transfer: np.ndarray,
                 j: np.ndarray, t: np.ndarray):
    """Yield (block, D_u, Y) over ``block_slices`` of the cells k, in the eigenbasis of H_u.

    Cell k evolves under sector pair j[k] of the stacked ``energies_u``,
    ``energies_d`` (m, d) and ``transfer`` (m, d, d) (see SectorStack) for
    the free interval t[k].  In the basis V_u of its pair T_u(t) is
    diagonal, D_u = exp(-i E_u t), returned as an (n, d) array, and T_d(t)
    is Y = X exp(-i E_d t) X^dag, (n, d, d): so W_u = D_u Y and W_d = Y D_u,
    one product per cell.  For a real X, Y is complex symmetric, and its
    real and imaginary parts are two real products (X cos) X^T and
    (X (-sin)) X^T of the parts of exp(-i E_d t) (``linalg.matmul``).  Each
    slice holds as many (d, d) complex cells as fit BLOCK_BYTES, so for
    d > 64 a block of one cell exceeds it.
    """
    for block in block_slices(t.size, 16 * transfer.shape[-1] ** 2):
        pair = j[block]
        x = transfer[pair]
        interval = t[block, None]
        phase = np.exp(-1j * energies_d[pair] * interval)[:, None, :]
        y = matmul(x * phase, x.conj().swapaxes(-1, -2) if np.iscomplexobj(x)
                   else x.swapaxes(-1, -2))
        yield block, np.exp(-1j * energies_u[pair] * interval), y


def _circular_distance(diff: np.ndarray) -> np.ndarray:
    """Distance on the circle of phases whose difference is ``diff``."""
    diff = np.abs(diff) % (2 * np.pi)
    return np.minimum(diff, 2 * np.pi - diff)


def _smallest_gap(phases: np.ndarray) -> np.ndarray:
    """Smallest circular distance of two eigenphases, per row of a (..., D) array in [-pi, pi].

    Only neighbours of the sorted phases, and the last and first across
    the cut, can be closest: a rounded difference grows with the distance
    of its operands, so with the ``_circular_distance`` of each pair the
    result equals the minimum over all pairs bit for bit.  A row of a
    single phase has no gap: inf.
    """
    if phases.shape[-1] < 2:
        return np.full(phases.shape[:-1], np.inf)
    ordered = np.sort(phases, axis=-1)
    return _circular_distance(np.concatenate(
        [np.diff(ordered, axis=-1), ordered[..., -1:] - ordered[..., :1]], axis=-1)).min(axis=-1)


def _same_cluster(phases: np.ndarray) -> np.ndarray:
    """(..., D, D) mask of mode pairs in one phase cluster, for ascending (..., D) phases.

    A cluster is a chain of neighbours on the circle (the last phase and
    the first are neighbours across the +-pi cut) closer than
    PHASE_MATCH_TOL.  Inside a cluster the modes are defined only up to a
    unitary rotation, so a quantity summed over whole clusters does not
    depend on the eigenbasis a solver returns.
    """
    apart = np.diff(phases, axis=-1) >= PHASE_MATCH_TOL
    label = np.concatenate([np.zeros_like(apart[..., :1]), np.cumsum(apart, axis=-1)], axis=-1)
    wrapped = phases[..., :1] + 2 * np.pi - phases[..., -1:] < PHASE_MATCH_TOL
    label = np.where(wrapped & (label == label[..., -1:]), 0, label)
    return label[..., :, None] == label[..., None, :]


def unitary_power(u: np.ndarray, n: int) -> np.ndarray:
    """U^n of each matrix of an (m, D, D) stack, by binary exponentiation.

    Each squaring and multiply is a ``linalg.matmul`` of the whole stack.
    A squared base whose unitarity defect exceeds POWER_DRIFT_TOL is
    replaced by its polar factor.  ``matmul`` computes each matrix from its
    own operands and only the drifted matrices of a stack are touched, so
    every matrix gets the same bits as a call on it alone.
    """
    if n < 0:
        raise ValidationError("negative powers are not used here")
    base, result = u, None
    while n:
        if n & 1:
            result = base if result is None else matmul(result, base)
        n >>= 1
        if n:
            base = matmul(base, base)
            drifted = unitarity_defect(base) > POWER_DRIFT_TOL
            if drifted.any():
                base[drifted] = polar_unitary(base[drifted])
    if result is None:
        result = np.broadcast_to(np.eye(u.shape[-1], dtype=complex), u.shape).copy()
    return result


def _require_taus(taus) -> np.ndarray:
    """A one-dimensional grid of finite, positive pulse intervals."""
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1:
        raise ValidationError("tau grid must be one-dimensional")
    bad = np.flatnonzero(~(np.isfinite(taus) & (taus > 0)))
    if bad.size:
        i = bad[0]
        raise locate(ValidationError("pulse interval tau must be > 0"), i,
                     f"tau[{i}] = {taus[i]:g}")
    return taus


def _free_intervals(taus: np.ndarray, pulse_duration: float) -> np.ndarray:
    """The free intervals tau + pulse_duration of a tau grid, after the
    pulse_duration check.  A sum that overflows raises ValidationError at
    its tau, without a NumPy warning."""
    if not np.isfinite(pulse_duration) or pulse_duration < 0:
        raise ValidationError(f"pulse_duration must be >= 0, got {pulse_duration}")
    with np.errstate(over="ignore"):
        t = taus + pulse_duration
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        i = bad[0]
        raise locate(ValidationError(f"tau + pulse_duration {pulse_duration:g} overflows"), i,
                     f"tau[{i}] = {taus[i]:g}")
    return t


def _stacked_floor(t_u2: np.ndarray, t_d2: np.ndarray, w_d: np.ndarray,
                   symmetric: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Envelope floor per tau from one batched eigen-solve of T_u2 = W_u W_d.

    T_d2 = W_d W_u maps the half-period image W_d Phi of a u-mode Phi onto
    lambda W_d Phi, so W_d Phi is the d-partner of Phi and, with
    M = Phi^dag W_d Phi, floor = (2/D) sum_{l,l' same cluster} |M_ll'|^2 - 1
    (``_same_cluster``; off the diagonal only in cells whose smallest
    phase gap is below PHASE_MATCH_TOL).  The modes come from
    ``eig_unitaries`` (real if the cells are ``symmetric``, and then
    W_d Phi is two real products of ``matmul``) and are orthonormal at any
    gap.  Returns (floor, smallest u-phase gap, largest residual
    ||T_d2 W_d Phi - lambda W_d Phi||).
    """
    d = t_u2.shape[-1]
    phases, modes = eig_unitaries(t_u2, symmetric)
    bra = modes.conj() if np.iscomplexobj(modes) else modes
    images = matmul(w_d, modes)
    lam = np.exp(-1j * phases)
    residual = np.linalg.norm(matmul(t_d2, images) - lam[:, None, :] * images,
                              axis=1).max(axis=1)
    weight = (np.abs(np.einsum("nil,nil->nl", bra, images)) ** 2).sum(axis=1)
    min_gap = _smallest_gap(phases)
    clustered = np.flatnonzero(min_gap < PHASE_MATCH_TOL)
    if clustered.size:
        m = bra[clustered].swapaxes(-1, -2) @ images[clustered]
        weight[clustered] = (np.abs(m) ** 2 * _same_cluster(phases[clustered])).sum(axis=(1, 2))
    return weight * (2.0 / d) - 1.0, min_gap, residual


def floquet_rows(chs, taus, n_p: int, quantities: tuple[str, ...] = QUANTITIES,
                 pulse_duration: float = 0.0) -> dict[str, np.ndarray]:
    """Requested quantities over a tau grid for each pair of ``chs``, as (rows, tau) arrays.

    'coherence' is the bath-averaged (1/D) Re tr[(T_u2^n_p)^dag T_d2^n_p]
    and 'envelope' the n_p-independent floor of its Floquet expansion at
    each tau (see the module docstring).  Every cell is block-diagonal in
    the sectors of its pair (``ConditionalHamiltonians.sectors``); the
    cells of one sector size, over all rows, sectors and taus, form one
    stack built by ``_cell_blocks``, in (row, tau, sector) order.  The
    sector offsets are left out: e^{-i (c_u + c_d) t} is a phase common to
    W_u and W_d, so it cancels in P_u^dag P_d and in |M|^2.  Sector b
    of a row of dimension D adds Re tr_b(P_u^dag P_d) to D times the
    coherence, P_i = T_i2^n_p from ``unitary_power``, and twice its
    cluster-summed weight w_b (``_stacked_floor``) to D (floor + 1).  The
    sectors of a row add up in the order ``sectors`` lists them, so a value
    depends only on its own row and tau, not on the other rows or
    quantities of the call or on the block cuts.  A one-state sector's
    cell is exactly 1: it adds ``ONE_STATE_VALUES`` with no cell built.

    Every cell built passes the UNITARITY_TOL check and, for the envelope, the
    half-period residual check against PHASE_MATCH_TOL
    (SymmetryViolationError); a NaN defect or residual fails them.  An
    error names the first failing row (its ``index``) and the first
    failing tau in it, as 'tau[i] = ...:'.  A tau + pulse_duration that
    overflows raises ValidationError at its tau (``index`` that tau)
    before any row.
    """
    taus = _require_taus(taus)
    if int(n_p) != n_p or n_p < 0:
        raise ValidationError(f"n_p must be a non-negative integer, got {n_p}")
    unknown = set(quantities) - set(QUANTITIES)
    if unknown:
        raise ValidationError(f"unknown quantities {sorted(unknown)}; expected {QUANTITIES}")
    t = _free_intervals(taus, pulse_duration)
    # One slot per (row, sector) contribution: rows in order, each row's
    # sectors as ch.sectors lists them; the sector stacks grouped by size.
    groups, starts, slot = {}, [], 0
    for i, ch in enumerate(chs):
        starts.append(slot)
        for stack in ch.sectors:
            own = np.arange(slot, slot + len(stack.index))
            groups.setdefault(stack.index.shape[1], []).append((i, stack, own))
            slot += own.size
    parts = {q: np.empty((slot, taus.size)) for q in quantities}
    failures = []
    for size, group in sorted(groups.items()):
        slots = np.concatenate([own for _, _, own in group])
        if size == 1:  # every cell is exactly 1 (see ONE_STATE_VALUES)
            for q in quantities:
                parts[q][slots] = ONE_STATE_VALUES[q]
            continue
        rows = np.concatenate([np.full(own.size, i) for i, _, own in group])
        pairs = [np.concatenate(a) for a in zip(*((stack.energies_u, stack.energies_d,
                                                   stack.transfer) for _, stack, _ in group))]
        # Cells in (row, tau, sector) order: a stable sort of (sector, tau) by row and tau.
        order = np.argsort(np.repeat(rows * taus.size, taus.size)
                           + np.tile(np.arange(taus.size), rows.size), kind="stable")
        j, k = np.divmod(order, taus.size)
        symmetric = not np.iscomplexobj(pairs[2])
        for block, d_u, y in _cell_blocks(*pairs, j, t[k]):
            try:
                values = _sector_values(d_u[:, :, None] * y, y * d_u[:, None, :], int(n_p),
                                        quantities, symmetric)
            except (ValidationError, NumericalConsistencyError) as exc:  # located in the block
                c = block.start + exc.index
                failures.append((rows[j[c]], k[c], exc))
                break
            for q, v in values.items():
                parts[q][slots[j[block]], k[block]] = v
    if failures:
        i, tau_i, exc = min(failures, key=lambda f: f[:2])
        raise locate(exc, i, f"tau[{tau_i}] = {taus[tau_i]:g}")
    dims = np.array([ch.dim for ch in chs], dtype=float)[:, None]
    out = {q: (np.add.reduceat(p, starts, axis=0) if chs else p) / dims for q, p in parts.items()}
    if "envelope" in out:
        out["envelope"] -= 1.0
    return out


def _sector_values(w_u: np.ndarray, w_d: np.ndarray, n_p: int,
                   quantities: tuple[str, ...], symmetric: bool) -> dict[str, np.ndarray]:
    """Per cell of a stack of d-state sector cells: Re tr(P_u^dag P_d) for
    'coherence' and twice the cluster-summed weight, d (floor + 1), for
    'envelope', after the unitarity and half-period checks; an error's
    ``index`` is its cell.  ``symmetric`` cells (from real sectors) get
    real modes."""
    t_u2, t_d2 = matmul(w_u, w_d), matmul(w_d, w_u)
    require_unitary(t_u2)
    require_unitary(t_d2)
    out = {}
    if "coherence" in quantities:
        p_u = unitary_power(t_u2, n_p)
        p_d = unitary_power(t_d2, n_p)
        out["coherence"] = np.einsum("nij,nij->n", p_u.conj(), p_d).real
    if "envelope" in quantities:
        floor, _, residual = _stacked_floor(t_u2, t_d2, w_d, symmetric)
        bad = np.flatnonzero(~(residual <= PHASE_MATCH_TOL))  # NaN fails too
        if bad.size:
            raise locate(SymmetryViolationError(
                f"u/d eigenphase residual {residual[bad[0]]:.3e} > "
                f"{PHASE_MATCH_TOL:.1e}"), bad[0])
        out["envelope"] = w_u.shape[-1] * (floor + 1.0)
    return out


@dataclass(frozen=True)
class SpectrumScan:
    """Continuity-ordered eigenphase trajectories over a pulse-interval grid."""

    taus: np.ndarray
    phases: np.ndarray       # shape (n_tau, D), column = one trajectory
    crossings: np.ndarray    # bool per tau: some gap inside a sector below threshold
    min_gaps: np.ndarray


def spectrum_scan(ch: ConditionalHamiltonians, tau_grid: np.ndarray,
                  pulse_duration: float = 0.0,
                  gap_threshold: float = 1e-2) -> SpectrumScan:
    """Track cell eigenphases along ascending tau, keeping trajectories smooth.

    Every cell is block-diagonal in the sectors of ``ch``
    (``ConditionalHamiltonians.sectors``), so each sector tracks its own
    modes (``_sector_trajectories``) and a crossing between sectors is a
    true crossing.  The columns are the trajectories of all sectors,
    ascending at the first tau.  ``min_gaps`` is the smallest gap between
    two phases of one sector per tau (inf if every sector holds one
    state): phases of different sectors cross without repelling, so only
    a gap inside a sector marks an avoided crossing.  ``crossings`` marks
    the gaps below ``gap_threshold``.  Errors name the first failing tau.
    """
    taus = _require_taus(tau_grid)
    if taus.size < 1 or np.any(np.diff(taus) <= 0):
        raise ValidationError("tau grid must be non-empty and strictly ascending")
    if not gap_threshold >= 0:
        raise ValidationError(f"gap_threshold must be >= 0, got {gap_threshold}")
    t = _free_intervals(taus, pulse_duration)
    sectors, failures = [], []  # (n_tau, k, s) phases per sector size
    for stack in ch.sectors:
        try:
            sectors.append(_sector_trajectories(stack, t).reshape(t.size, *stack.index.shape))
        except (ValidationError, NumericalConsistencyError) as exc:  # located at its tau
            failures.append(exc)
    if failures:
        exc = min(failures, key=lambda f: f.index)
        raise locate(exc, exc.index, f"tau[{exc.index}] = {taus[exc.index]:g}")
    phases = np.concatenate([p.reshape(t.size, -1) for p in sectors], axis=1)
    phases = phases[:, np.argsort(phases[0], kind="stable")]
    min_gaps = np.min([_smallest_gap(p).min(axis=1) for p in sectors], axis=0)
    return SpectrumScan(taus=taus, phases=phases,
                        crossings=min_gaps < gap_threshold, min_gaps=min_gaps)


def _sector_trajectories(stack: SectorStack, t: np.ndarray) -> np.ndarray:
    """Tracked eigenphases (n_tau, k s) of the cells T_u2 of the k sectors of ``stack``.

    The cells of all k sectors and every free interval t are built in
    (tau, sector) order by ``_cell_blocks``, one product each:
    T_u2 = D_u (X exp(-2 i E_d t) X^dag) D_u.  Each block passes the
    UNITARITY_TOL check and is diagonalized in one ``eig_unitaries`` call.
    A sector's modes are matched to those of its cell at the previous tau
    by the assignment of largest total overlap, so a column follows one
    Floquet state through avoided crossings instead of jumping at each
    phase sort.  The overlaps |Phi_{i-1}^dag Phi_i| of a block come from
    one batched product.  They are the magnitudes of a unitary matrix, so
    when every row has an entry above TRACKING_OVERLAP the row maxima lie
    in distinct columns, and any other assignment loses at least
    0.75 - sqrt(1 - 0.75^2) > 0.08 on each row it changes: the argmaxes
    are the unique optimum.  Only a cell whose modes mix (some row below
    the threshold) calls ``linear_sum_assignment``, the one place a
    spectrum needs SciPy.  Columns are sector by sector, in the order of
    the sector's phases at the first tau, with the offset phase
    2 (c_u + c_d) t (``_offset_phases``) added back and folded into
    (-pi, pi].  A real sector's cells are symmetric: their modes are real,
    and so are the tracked modes and their overlap product.  A one-state
    sector's cells are exactly 1, of phase -0, so its column is its folded
    offset phase, with no cell built.  An error's ``index`` is its tau.
    """
    k, s = stack.index.shape
    offsets = _offset_phases(stack.offsets, t)[:, :, None]
    if s == 1:  # every cell is exactly 1, of phase -0: the offsets alone
        return _fold(offsets).reshape(t.size, k)
    j = np.tile(np.arange(k), t.size)
    tau_of = np.repeat(np.arange(t.size), k)
    phases = np.empty((t.size * k, s))
    symmetric = not np.iscomplexobj(stack.transfer)  # real modes, real overlaps
    last = np.empty((k, s, s), dtype=stack.transfer.dtype)  # the latest modes of each sector
    orders = np.tile(np.arange(s), (k, 1))
    for block, d_u, y in _cell_blocks(stack.energies_u, 2 * stack.energies_d, stack.transfer,
                                      j, t[tau_of]):
        try:
            cells = d_u[:, :, None] * y * d_u[:, None, :]
            require_unitary(cells)
            block_phases, block_modes = eig_unitaries(cells, symmetric)
        except (ValidationError, NumericalConsistencyError) as exc:  # located in the block
            raise locate(exc, tau_of[block.start + exc.index])
        # A cell continues the one k cells before it: earlier in this block,
        # in ``last``, or, at the first tau, itself.
        chain = np.concatenate([last, block_modes])
        c = np.arange(block.stop - block.start)
        before = np.where(c >= k, c, np.where(block.start + c >= k, j[block], c + k))
        bra = chain[before].swapaxes(-1, -2)
        overlaps = np.abs((bra if symmetric else bra.conj()) @ block_modes)
        clear = (overlaps.max(axis=-1) > TRACKING_OVERLAP).all(axis=-1)
        best = overlaps.argmax(axis=-1)
        # Each cell keeps its sector's order unless its modes mix or the row
        # maxima permute them; cells c, c + k, ... of a block share a sector.
        cell_orders = orders[j[block]]
        for i in np.flatnonzero(~clear | (best != np.arange(s)).any(axis=-1)).tolist():
            b = j[block.start + i]
            if clear[i]:
                orders[b] = best[i, orders[b]]
            else:
                orders[b] = _assign_modes(chain[before[i]][:, orders[b]], block_modes[i])
            cell_orders[i::k] = orders[b]
        phases[block] = np.take_along_axis(block_phases, cell_orders, axis=-1)
        last[j[block][-k:]] = block_modes[-k:]
    return _fold(phases.reshape(t.size, k, s) + offsets).reshape(t.size, k * s)


def _fold(phases: np.ndarray) -> np.ndarray:
    """Phases folded into (-pi, pi] through the unit circle."""
    folded = -np.angle(np.exp(-1j * phases))
    folded[folded <= -np.pi] += 2 * np.pi
    return folded


def _offset_phases(offsets: np.ndarray, t: np.ndarray) -> np.ndarray:
    """2 (c_u + c_d) t mod 2 pi, about in [-pi, pi], as (n_tau, k) for the
    (k, 2) ``offsets`` of a SectorStack and the (n_tau,) intervals t.

    The phase reaches 3e5 rad on ``joint_full`` (the donor level energy),
    where a plain double product is off by about 1e-11, so it is formed
    exactly and reduced with a two-part 2 pi: c_u + c_d = c + e by
    two-sum, 2 c t = p + q by ``two_product``, the turn count
    n = rint(p / 2 pi), and p - n 2 pi with 2 pi = TWO_PI_HI + TWO_PI_LO
    (Cody-Waite), n TWO_PI_HI = m + r exactly by ``two_product`` and p - m
    exact by Sterbenz.  The result is within a few ulps of pi of the exact
    reduction.
    """
    c_u, c_d = offsets[:, 0], offsets[:, 1]
    c = c_u + c_d
    back = c - c_u
    e = (c_u - (c - back)) + (c_d - back)
    t = t[:, None]
    p, q = two_product(2 * c, t)
    turns = np.rint(p / TWO_PI_HI)
    m, r = two_product(turns, TWO_PI_HI)
    return (p - m) - r + (q + 2 * e * t - turns * TWO_PI_LO)


def _assign_modes(prev_modes: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Column of ``modes`` that continues each column of ``prev_modes``, by largest total overlap."""
    # Imported here, not at module level: SciPy is most of a cold start.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-np.abs(prev_modes.conj().T @ modes))
    order = np.empty(modes.shape[-1], dtype=int)
    order[rows] = cols
    return order
