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

Every cell is block-diagonal in the conserved sectors of its pair
(``ConditionalHamiltonians.sectors``), sets of basis states that neither
H_u nor H_d couples to the rest.  Cluster baths conserve total Iz, so
D = 8 splits into sectors of 1, 3, 3 and 1 states and D = 64 into 1, 6,
15, 20, 15, 6 and 1.  Each sector block is diagonalized once and stored
less its first diagonal entries (c_u, c_d), a phase common to the
sector: rows drop it, since it cancels in both quantities, and spectra
add 2 (c_u + c_d) t back, formed exactly and reduced mod 2 pi
(``_offset_phases``).  A one-state sector needs no cell: less its entry
its block is exactly [[0]], so its cell is exactly 1.

Both kernels, ``floquet_rows`` (coherence and envelope of many pairs)
and ``spectrum_scan`` (the tracked eigenphases of one pair), run one
loop, ``_solve_cells``.  It stacks the cells of each sector size above 1
over all rows in (row, tau, sector) order, so the cell of a sector at the
previous tau lies as many cells back as its row has sectors of that
size; a spectrum is the one-row case.  Per block of ``_cell_blocks`` it
forms the kernel's cells, checks them against ``UNITARITY_TOL``, solves
them in one ``eig_unitaries`` call and hands the modes to the kernel;
an error of any of these steps names the first failing row and tau.
``_cell_blocks`` works in the eigenbasis V_u of a sector's H_u: with
X = V_u^dag V_d, T_u(t) is the diagonal D_u = exp(-i E_u t) and T_d(t)
is Y = X exp(-i E_d t) X^dag, one product per cell.  The kernels differ
only in their cells and in what they take from the modes:

* A row cell is W_u = D_u Y and W_d = Y D_u, solved as T_u2 = W_u W_d,
  and T_d2 = W_d W_u is checked too.  The d-partner of a u-mode Phi is its
  half-period image W_d Phi (the residual ||T_d2 W_d Phi - lambda W_d Phi||
  must stay below PHASE_MATCH_TOL), so with M = Phi^dag W_d Phi no mode
  pairing is needed for the coherence, the paper's Floquet expansion
  Re tr_b(P_u^dag P_d) = Re sum_{l,l'} e^{i n_p (E_l - E_l')} |M_ll'|^2
  with P_i = T_i2^n_p, or for the envelope floor
  (2/D) sum_{l,l' same cluster} |M_ll'|^2 - 1.  A cluster is a chain of
  eigenphases closer than PHASE_MATCH_TOL; summed over whole clusters the
  floor does not depend on the basis a solver picks inside one.  Modes
  of different sectors have M_ll' = 0, so a row adds its sectors up in a
  fixed order, and a value depends only on its own row and tau.
* A spectrum cell is D_u Y(2t) D_u.  Each sector continues its modes
  from its cell at the previous tau by their largest overlaps, and only
  a cell whose modes mix goes to SciPy's ``linear_sum_assignment``.  A
  crossing between sectors is a true crossing, so the smallest gap a
  spectrum reports is the one inside a sector, where phases repel.

Every stacked product (Y, the cells, the grams of the unitarity checks,
W_d Phi, T_d2 W_d Phi and M) is a ``linalg.matmul``.  A sector whose H_u
and H_d blocks are real (every cluster3 and joint_full bath) has a real
X, so Y and D_u are complex symmetric and so is every palindromic cell
built from them; the loop solves such cells as ``symmetric``, and
``eig_unitaries`` returns their modes real from a real ``eigh``.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    NumericalConsistencyError,
    SymmetryViolationError,
    ValidationError,
    _Validated,
    locate,
)
from .linalg import (
    block_slices,
    eig_unitaries,
    matmul,
    require_hermitian,
    require_unitary,
    two_product,
)

PHASE_MATCH_TOL = 1e-8
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


class _HamiltonianPair(NamedTuple):
    h_u: np.ndarray
    h_d: np.ndarray


class ConditionalHamiltonians(_Validated, _HamiltonianPair):
    """The pair of bath Hamiltonians selected by the sensor state (rad/s)."""

    # No __slots__: ``sectors`` is cached in the instance dict.
    def __new__(cls, h_u, h_d):
        h_u = require_hermitian(h_u, name="h_u")
        h_d = require_hermitian(h_d, name="h_d")
        if h_u.shape != h_d.shape:
            raise ValidationError(f"conditional Hamiltonians disagree in shape: "
                                  f"{h_u.shape} vs {h_d.shape}")
        return super().__new__(cls, h_u, h_d)

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
    (X (-sin)) X^T of the parts of exp(-i E_d t) (``linalg.matmul``).  X^dag
    is gathered from one contiguous copy per call: a transposed right
    operand sends NumPy's stacked product of real cells to a slower loop,
    about twice the time at d = 3.  Each slice holds as many (d, d) complex
    cells as fit BLOCK_BYTES, so for d > 64 a block of one cell exceeds it.
    """
    transfer_dag = np.ascontiguousarray(transfer.conj().swapaxes(-1, -2))
    for block in block_slices(t.size, 16 * transfer.shape[-1] ** 2):
        pair = j[block]
        interval = t[block, None]
        phase = np.exp(-1j * energies_d[pair] * interval)[:, None, :]
        y = matmul(transfer[pair] * phase, transfer_dag[pair])
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


def _solve_cells(rows, t: np.ndarray, product, consume):
    """Solve the sector cells of ``rows`` over the free intervals t, block by block.

    ``rows`` holds one ``ConditionalHamiltonians.sectors`` tuple per row.
    A slot is one (row, sector) of them: rows in order, each row's sectors
    in the order of its stacks.  The stacks of each sector size above 1
    over all rows are one stream of cells in (row, tau, sector) order: a
    cell at a tau after the first finds its slot at the previous tau k_r
    cells before it, k_r the number of sectors of that size in its row.
    For each block of ``_cell_blocks``, ``product(D_u, Y)`` returns
    (cells, kept); the cells pass the UNITARITY_TOL check and one
    ``eig_unitaries`` solve (``symmetric`` for real transfers), and
    ``consume(slot, tau, phases, modes, kept)`` takes the modes, with the
    slot and tau index of each cell.  An error of the product, the check,
    the solve or the consumer carries the index of its cell in the block;
    the stream stops there.  Returns the first failing (row, tau) over all
    streams as (row, tau, error), or None.
    """
    groups, slot = {}, 0
    for i, sectors in enumerate(rows):
        for stack in sectors:
            k, s = stack.index.shape
            if s > 1:
                groups.setdefault(s, []).append((i, stack, np.arange(slot, slot + k)))
            slot += k
    failures = []
    for _, group in sorted(groups.items()):
        slots = np.concatenate([own for _, _, own in group])
        row_of = np.concatenate([np.full(own.size, i) for i, _, own in group])
        pairs = [np.concatenate(a) for a in zip(*((stack.energies_u, stack.energies_d,
                                                   stack.transfer) for _, stack, _ in group))]
        # Cells in (row, tau, sector) order: a stable sort of (sector, tau) by row and tau.
        order = np.argsort(np.repeat(row_of * t.size, t.size)
                           + np.tile(np.arange(t.size), row_of.size), kind="stable")
        j, tau = np.divmod(order, t.size)
        symmetric = not np.iscomplexobj(pairs[2])
        for block, d_u, y in _cell_blocks(*pairs, j, t[tau]):
            try:
                cells, kept = product(d_u, y)
                require_unitary(cells)
                phases, modes = eig_unitaries(cells, symmetric)
                consume(slots[j[block]], tau[block], phases, modes, kept)
            except (ValidationError, NumericalConsistencyError) as exc:  # located in the block
                c = block.start + exc.index
                failures.append((row_of[j[c]], tau[c], exc))
                break
    return min(failures, key=lambda f: f[:2], default=None)


def floquet_rows(chs, taus, n_p: int, quantities: tuple[str, ...] = QUANTITIES,
                 pulse_duration: float = 0.0) -> dict[str, np.ndarray]:
    """Requested quantities over a tau grid for each pair of ``chs``, as (rows, tau) arrays.

    'coherence' is the bath-averaged (1/D) Re tr[(T_u2^n_p)^dag T_d2^n_p]
    and 'envelope' the n_p-independent floor of its Floquet expansion at
    each tau (see the module docstring).  The cells of all rows go through
    ``_solve_cells``; the sector offsets are left out, since
    e^{-i (c_u + c_d) t} is a phase common to W_u and W_d and cancels in
    P_u^dag P_d and in |M|^2.  Sector b of a row of dimension D adds
    Re tr_b(P_u^dag P_d) to D times the coherence, P_i = T_i2^n_p, and twice
    its cluster-summed weight w_b to D (floor + 1), both from one solve
    (``_sector_values``).  The sectors of a row add up in the order
    ``sectors`` lists them, so a value depends only on its own row and tau,
    not on the other rows or quantities of the call or on the block cuts.
    A one-state sector's cell is exactly 1: it adds ``ONE_STATE_VALUES``
    with no cell built.

    n_p must be a positive integer.  Every cell built passes the
    UNITARITY_TOL check of T_u2 and T_d2 and the half-period residual check
    against PHASE_MATCH_TOL (SymmetryViolationError); a NaN defect or
    residual fails them.  An error names the first failing row (its
    ``index``) and the first failing tau in it, as 'tau[i] = ...:'.  A tau +
    pulse_duration that overflows raises ValidationError at its tau
    (``index`` that tau) before any row.
    """
    taus = _require_taus(taus)
    if int(n_p) != n_p or n_p < 1:
        raise ValidationError(f"n_p must be a positive integer, got {n_p}")
    unknown = set(quantities) - set(QUANTITIES)
    if unknown:
        raise ValidationError(f"unknown quantities {sorted(unknown)}; expected {QUANTITIES}")
    t = _free_intervals(taus, pulse_duration)
    # One slot per (row, sector), as _solve_cells numbers them.
    sizes = np.array([stack.index.shape[1] for ch in chs for stack in ch.sectors
                      for _ in stack.index], dtype=int)
    counts = [sum(len(stack.index) for stack in ch.sectors) for ch in chs]
    parts = {q: np.empty((sizes.size, taus.size)) for q in quantities}
    for q in quantities:  # every one-state cell is exactly 1 (see ONE_STATE_VALUES)
        parts[q][sizes == 1] = ONE_STATE_VALUES[q]

    def cells(d_u, y):
        w_u, w_d = d_u[:, :, None] * y, y * d_u[:, None, :]
        t_d2 = matmul(w_d, w_u)
        require_unitary(t_d2)
        return matmul(w_u, w_d), (w_d, t_d2)

    def values(slot, tau, phases, modes, kept):
        for q, v in _sector_values(phases, modes, *kept, int(n_p), quantities).items():
            parts[q][slot, tau] = v

    failure = _solve_cells([ch.sectors for ch in chs], t, cells, values)
    if failure:
        i, tau_i, exc = failure
        raise locate(exc, i, f"tau[{tau_i}] = {taus[tau_i]:g}")
    dims = np.array([ch.dim for ch in chs], dtype=float)[:, None]
    starts = np.cumsum([0] + counts[:-1])
    out = {q: (np.add.reduceat(p, starts, axis=0) if chs else p) / dims for q, p in parts.items()}
    if "envelope" in out:
        out["envelope"] -= 1.0
    return out


def _sector_values(phases: np.ndarray, modes: np.ndarray, w_d: np.ndarray, t_d2: np.ndarray,
                   n_p: int, quantities: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Per cell of a stack of d-state sector cells, from the eigenphases E and
    modes Phi of its T_u2 = W_u W_d: Re tr(P_u^dag P_d) for 'coherence' and
    twice the cluster-summed weight, d (floor + 1), for 'envelope', after
    the half-period check of ``_floquet_modes``; an error's ``index`` is its
    cell.

    With M = Phi^dag W_d Phi and c = e^{i n_p E}, Re tr(P_u^dag P_d) =
    Re sum_{l,l'} conj(c_l) |M_ll'|^2 c_l' for any orthonormal eigenbasis
    Phi of T_u2, because T_d2 = W_d T_u2 W_d^dag: a rotation inside an
    exactly degenerate cluster leaves each block sum of |M|^2 unchanged.
    The envelope needs only the diagonal of M, and the whole M only in a
    cell whose smallest phase gap is below PHASE_MATCH_TOL."""
    bra, images, residual = _floquet_modes(phases, modes, w_d, t_d2)
    bad = np.flatnonzero(~(residual <= PHASE_MATCH_TOL))  # NaN fails too
    if bad.size:
        raise locate(SymmetryViolationError(
            f"u/d eigenphase residual {residual[bad[0]]:.3e} > "
            f"{PHASE_MATCH_TOL:.1e}"), bad[0])
    out = {}
    if "coherence" in quantities:
        # |M|^2 transposed, which leaves the real part of the sum unchanged
        weights = np.abs(matmul(images.swapaxes(-1, -2), bra)) ** 2
        turn = np.exp(1j * (n_p * phases))
        out["coherence"] = np.einsum("nl,nlm,nm->n", turn.conj(), weights, turn).real
    if "envelope" in quantities:
        d = w_d.shape[-1]
        weight = (np.abs(np.einsum("nil,nil->nl", bra, images)) ** 2).sum(axis=1)
        clustered = np.flatnonzero(_smallest_gap(phases) < PHASE_MATCH_TOL)
        if clustered.size:
            m = bra[clustered].swapaxes(-1, -2) @ images[clustered]
            weight[clustered] = (np.abs(m) ** 2 * _same_cluster(phases[clustered])).sum(axis=(1, 2))
        floor = weight * (2.0 / d) - 1.0
        out["envelope"] = d * (floor + 1.0)
    return out


def _floquet_modes(phases: np.ndarray, modes: np.ndarray, w_d: np.ndarray,
                   t_d2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(conj(Phi), W_d Phi, residual) for the eigenphases E and modes Phi of
    each T_u2 = W_u W_d of a stack.

    T_d2 = W_d W_u maps the half-period image W_d Phi of a u-mode Phi onto
    lambda W_d Phi, so W_d Phi is the d-partner of Phi; the residual is the
    largest ||T_d2 W_d Phi - lambda W_d Phi|| per cell.  Real modes (of
    ``symmetric`` cells) make W_d Phi two real products of ``matmul``.
    """
    images = matmul(w_d, modes)
    lam = np.exp(-1j * phases)
    residual = np.linalg.norm(matmul(t_d2, images) - lam[:, None, :] * images,
                              axis=1).max(axis=1)
    return modes.conj() if np.iscomplexobj(modes) else modes, images, residual


class SpectrumScan(NamedTuple):
    """Continuity-ordered eigenphase trajectories over a pulse-interval grid."""

    taus: np.ndarray
    phases: np.ndarray       # shape (n_tau, D), column = one trajectory
    crossings: np.ndarray    # bool per tau: some gap inside a sector below threshold
    min_gaps: np.ndarray


def spectrum_scan(ch: ConditionalHamiltonians, tau_grid: np.ndarray,
                  pulse_duration: float = 0.0,
                  gap_threshold: float = 1e-2) -> SpectrumScan:
    """Track cell eigenphases along ascending tau, keeping trajectories smooth.

    The cells T_u2 = D_u (X exp(-2 i E_d t) X^dag) D_u of every sector of
    ``ch`` go through ``_solve_cells`` as its one row, and each sector
    tracks its own modes, so a crossing between sectors is a true
    crossing.  A sector's modes are matched to those of its cell at the
    previous tau by the assignment of largest total overlap, so a column
    follows one Floquet state through avoided crossings instead of jumping
    at each phase sort.  The overlaps |Phi_{i-1}^dag Phi_i| of a block come
    from one batched product.  They are the magnitudes of a unitary matrix,
    so when every row has an entry above TRACKING_OVERLAP the row maxima
    lie in distinct columns, and any other assignment loses at least
    0.75 - sqrt(1 - 0.75^2) > 0.08 on each row it changes: the argmaxes are
    the unique optimum.  Only a cell whose modes mix (some row below the
    threshold) calls ``linear_sum_assignment``, the one place a spectrum
    needs SciPy.  A real sector's modes are real, and so is their overlap
    product.  Each phase gets its sector's offset phase 2 (c_u + c_d) t
    (``_offset_phases``) back and is folded into (-pi, pi]; a one-state
    sector's cells are exactly 1, of phase -0, so its phase is its folded
    offset phase, with no cell built.

    The columns are the trajectories of all sectors, ascending at the first
    tau.  ``min_gaps`` is the smallest gap between two phases of one
    sector per tau (inf if every sector holds one state): phases of
    different sectors cross without repelling, so only a gap inside a
    sector marks an avoided crossing.  ``crossings`` marks the gaps below
    ``gap_threshold``.  An error names the first failing tau, its
    ``index``.
    """
    taus = _require_taus(tau_grid)
    if taus.size < 1 or np.any(np.diff(taus) <= 0):
        raise ValidationError("tau grid must be non-empty and strictly ascending")
    if not gap_threshold >= 0:
        raise ValidationError(f"gap_threshold must be >= 0, got {gap_threshold}")
    t = _free_intervals(taus, pulse_duration)
    # Per sector size (one stack each): the first slot, the tracked phases
    # (n_tau, k, s), the latest modes of each sector and its column order.
    tracks, slot = {}, 0
    for stack in ch.sectors:
        k, s = stack.index.shape
        tracks[s] = (slot, np.full((t.size, k, s), -0.0),
                     np.empty((k, s, s), dtype=stack.transfer.dtype), np.tile(np.arange(s), (k, 1)))
        slot += k

    def track(slot, tau, block_phases, block_modes, _):
        first, phases, last, orders = tracks[block_modes.shape[-1]]
        k, s = orders.shape
        j = slot - first
        # A cell continues the one k cells before it: earlier in this block,
        # in ``last``, or, at the first tau, itself.
        chain = np.concatenate([last, block_modes])
        c = np.arange(j.size)
        before = np.where(c >= k, c, np.where(tau > 0, j, c + k))
        bra = chain[before].swapaxes(-1, -2)
        overlaps = np.abs((bra.conj() if np.iscomplexobj(bra) else bra) @ block_modes)
        clear = (overlaps.max(axis=-1) > TRACKING_OVERLAP).all(axis=-1)
        best = overlaps.argmax(axis=-1)
        # Each cell keeps its sector's order unless its modes mix or the row
        # maxima permute them; cells c, c + k, ... of a block share a sector.
        cell_orders = orders[j]
        for i in np.flatnonzero(~clear | (best != np.arange(s)).any(axis=-1)).tolist():
            b = j[i]
            if clear[i]:
                orders[b] = best[i, orders[b]]
            else:
                orders[b] = _assign_modes(chain[before[i]][:, orders[b]], block_modes[i])
            cell_orders[i::k] = orders[b]
        phases[tau, j] = np.take_along_axis(block_phases, cell_orders, axis=-1)
        last[j[-k:]] = block_modes[-k:]

    failure = _solve_cells([tuple(stack._replace(energies_d=2 * stack.energies_d)
                                  for stack in ch.sectors)], t,
                           lambda d_u, y: (d_u[:, :, None] * y * d_u[:, None, :], None), track)
    if failure:
        _, tau_i, exc = failure
        raise locate(exc, tau_i, f"tau[{tau_i}] = {taus[tau_i]:g}")
    sectors = [_fold(tracks[stack.index.shape[1]][1] + _offset_phases(stack.offsets, t)[:, :, None])
               for stack in ch.sectors]
    phases = np.concatenate([p.reshape(t.size, -1) for p in sectors], axis=1)
    phases = phases[:, np.argsort(phases[0], kind="stable")]
    min_gaps = np.min([_smallest_gap(p).min(axis=1) for p in sectors], axis=0)
    return SpectrumScan(taus=taus, phases=phases,
                        crossings=min_gaps < gap_threshold, min_gaps=min_gaps)


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
