"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured margins.
"""

import json
import math
import time

import numpy as np
import pytest

import floqsens as fs
from floqsens.cli import main as cli_main
from floqsens.engine import floquet_rows
from floqsens.sensors import donor_pair_polarizations

from conftest import (floquet_sum, kernel_residual, matched_gap, oracle_basis_coherences,
                      oracle_cells, oracle_powers, random_hermitian, schur_floor,
                      schur_floquet, schur_modes)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_model(rng):
    return fs.TwoStateModel.from_components(*rng.uniform(-2.0, 2.0, size=4))


def first_dip_record(model, cap_hint=None):
    cap = cap_hint or 3.0 * fs.avg_hamiltonian_dip(model)
    for _ in range(12):
        records = fs.dip_positions(model, cap)
        if records:
            return records[0]
        cap *= 2.0
    raise AssertionError("no dip found")


def test_criterion_1_analytic_numeric_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    pulse_counts = (1, 10, 40)
    for _ in range(200):
        model = random_model(rng)
        ch = model.conditional()
        scale = max(model.omega_u + model.omega_d, 0.2)
        taus = np.linspace(0.3, 6.0, 50) / scale
        w_u, w_d = oracle_cells(ch.h_u, ch.h_d, taus)
        for n_p in pulse_counts:
            p_u, p_d = oracle_powers(w_u, w_d, n_p)
            ref = np.einsum("nij,nij->n", p_u.conj(), p_d).real / 2.0
            analytic = np.asarray(fs.coherence_analytic(model, taus, n_p))
            worst = max(worst, float(np.abs(analytic - ref).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(1, ok, f"200 models x 50 tau x 3 n_p: max |analytic - numeric| = "
                  f"{worst:.3e} (< 1e-9), runtime {elapsed:.1f} s (< 10 s)")


def test_criterion_2_cell_eigenphase_symmetry():
    rng = np.random.default_rng(202)
    worst_gap = 0.0
    worst_residual = 0.0
    count = 0
    for _ in range(500):
        dim = int(rng.choice([2, 4, 8]))
        ch = fs.ConditionalHamiltonians(random_hermitian(dim, rng),
                                        random_hermitian(dim, rng))
        tau = float(rng.uniform(0.05, 1.5))
        # Oracle cells, ideal and with a finite pulse whose window holds the
        # bath still; the residual ||T_d2 W_d Phi - lambda W_d Phi|| is the
        # engine's half-period check on them.
        for w_u, w_d in (oracle_cells(ch.h_u, ch.h_d, [tau]),
                         oracle_cells(ch.h_u, ch.h_d, [tau], 0.1 * tau, np.zeros((dim, dim)))):
            t_u2, t_d2 = w_u @ w_d, w_d @ w_u
            matched = matched_gap(schur_modes(t_u2)[0][0], schur_modes(t_d2)[0][0])
            residual = kernel_residual(t_u2, t_d2, w_d)[0]
            worst_gap = max(worst_gap, float(matched))
            worst_residual = max(worst_residual, float(residual))
            count += 1
    ok = worst_gap < 1e-12 and worst_residual < 1e-10
    report(2, ok, f"{count} cells (ideal + finite pulses, D in {{2,4,8}}): max "
                  f"phase-multiset gap {worst_gap:.2e} (< 1e-12), max half-period "
                  f"residual {worst_residual:.2e} (< 1e-10)")


def test_criterion_3_dip_condition():
    rng = np.random.default_rng(303)

    def golden(f, a, b):
        phi = (math.sqrt(5) - 1) / 2
        c, d = b - phi * (b - a), a + phi * (b - a)
        fc, fd = f(c), f(d)
        while (b - a) > 1e-12 * (abs(a) + abs(b)):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = f(d)
        return 0.5 * (a + b)

    checked = 0
    worst_pos = 0.0
    worst_depth = 0.0
    while checked < 100:
        model = random_model(rng)
        try:
            cap = 3.0 * fs.avg_hamiltonian_dip(model)
        except fs.ValidationError:
            continue
        records = fs.dip_positions(model, 8.0 * cap)
        # the independent minimizer needs a dip wide enough to resolve
        if not records or records[0].delta < 1e-3:
            continue
        rec = records[0]
        lo, hi = 0.8 * rec.tau_dip, 1.2 * rec.tau_dip
        if len(records) > 1:
            hi = min(hi, 0.5 * (rec.tau_dip + records[1].tau_dip))
        # prescan for the global bracket minimum, then refine locally
        scan = np.linspace(lo, hi, 6001)
        vals = np.asarray(fs.envelope(model, scan))
        j = int(np.argmin(vals))
        a = scan[max(j - 2, 0)]
        b = scan[min(j + 2, scan.size - 1)]
        t_min = golden(lambda t: float(fs.envelope(model, t)), float(a), float(b))
        worst_pos = max(worst_pos, abs(t_min - rec.tau_dip) / rec.tau_dip)
        delta, depth = fs.dip_depth(model, rec.tau_dip, 10)
        ref = float(fs.coherence_analytic(model, rec.tau_dip, 10))
        worst_depth = max(worst_depth, abs(depth - ref))
        checked += 1
    ok = worst_pos < 1e-3 and worst_depth < 1e-9
    report(3, ok, f"100 models: dip root vs envelope minimizer max rel dev "
                  f"{worst_pos:.2e} (< 1e-3); depth vs full coherence max dev "
                  f"{worst_depth:.2e} (< 1e-9)")


def test_criterion_4_avg_hamiltonian_identity_and_regimes():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    worst_id = 0.0
    count = 0
    while count < 1000:
        model = random_model(rng)
        try:
            tau_bar = fs.avg_hamiltonian_dip(model)
        except fs.ValidationError:
            continue
        omega = math.hypot(model.h_u.x + model.h_d.x, model.h_u.z + model.h_d.z) / 4
        ref = math.pi / (4.0 * omega)
        worst_id = max(worst_id, abs(tau_bar - ref) / ref)
        count += 1

    donor = fs.si_bi()
    b_owp = fs.owp_locate(donor, 0.05, 0.35)
    sweep = np.linspace(0.05, 0.25, 61)
    delta_a = 180e3

    def deviations(ratio):
        pair = fs.PairTarget(delta_a=delta_a, c12=delta_a / ratio)
        out = []
        for b0 in sweep:
            model = pair.two_state(*fs.donor_pair_polarizations(donor, float(b0)))
            tau_bar = fs.avg_hamiltonian_dip(model)
            rec = first_dip_record(model)
            out.append(abs(tau_bar - rec.tau_dip) / rec.tau_dip)
        return np.array(out)

    dev_100 = deviations(100)
    dev_10 = deviations(10)
    away = np.abs(sweep - b_owp) >= 0.02
    elapsed = time.perf_counter() - t0
    ok = (worst_id < 1e-12 and dev_100.max() < 0.01
          and dev_10[away].max() > 0.05 and elapsed < 30.0)
    report(4, ok, f"identity max rel dev {worst_id:.1e} over 1000 models "
                  f"(< 1e-12); R=100 sweep max dev {dev_100.max()*100:.2f}% (< 1%); "
                  f"R=10 max dev away from OWP {dev_10[away].max()*100:.1f}% (> 5%); "
                  f"runtime {elapsed:.1f} s (< 30 s)")


def test_criterion_5_owp_location_and_sharpness():
    donor = fs.si_bi()
    b_owp = fs.owp_locate(donor, 0.05, 0.35)
    pair = fs.PairTarget(delta_a=180e3, c12=1.8e3)

    def first_delta(b0):
        model = pair.two_state(*fs.donor_pair_polarizations(donor, b0))
        return first_dip_record(model).delta

    d_owp = first_delta(b_owp)
    d_lo = first_delta(b_owp - 0.02)
    d_hi = first_delta(b_owp + 0.02)
    ratio = min(d_lo, d_hi) / max(d_owp, 1e-300)
    ok = abs(b_owp - 0.188) <= 0.005 and ratio >= 10.0
    report(5, ok, f"OWP at {b_owp*1e3:.1f} mT (188 +- 5 mT); first-dip repulsion "
                  f"{d_owp:.2e} rad vs {min(d_lo, d_hi):.2e} rad at +-20 mT "
                  f"({ratio:.0f}x smaller, >= 10x required)")


def test_criterion_6_diamond_map_boundaries():
    # Half cell V = a 1 - i b.sigma, symmetric cell V V^T: cos^2(E(tau)/2) =
    # a^2 + b_y^2, so the envelope is (a^2 - b_y^2) / (a^2 + b_y^2) with
    #   a     = cos E(tau/2) = [(1 + k) cos(S tau) + (1 - k) cos(D tau)] / 2,
    #   b_y^2 = (1 - k^2) (cos(D tau) - cos(S tau))^2 / 4,
    # k = cos(theta_u - theta_d), S = w_u + w_d, D = w_u - w_d.  Hence the
    # envelope is exactly -k on the sum curves (cos S tau = 0) and +k on the
    # difference curves (cos D tau = 0), and for 0 <= k < 1 the diamonds,
    # the cells with cos(S tau) cos(D tau) < 0, are sandwiched:
    #   envelope < -k  =>  inside a diamond  =>  envelope < +k.
    t0 = time.perf_counter()
    two_pi = 2 * math.pi
    a_par = two_pi * 50e3
    n_field, n_tau = 120, 240
    omega_x = np.linspace(two_pi * 1e3, two_pi * 80e3, n_field)
    taus = np.linspace(0.05e-6, 36e-6, n_tau)
    rounding = 1e-12
    vertex = 0.05

    # NV fields h_u = (w_x, a_par) and h_d = (w_x, 0); w = |h| / 2
    h_u = np.hypot(omega_x, a_par)
    omega_sum = 0.5 * (h_u + omega_x)
    omega_diff = 0.5 * (h_u - omega_x)
    k = omega_x / h_u

    env = np.empty((n_field, n_tau))
    worst = 0.0
    n_curve = [0, 0]  # sum, difference
    for i, wx in enumerate(omega_x):
        model = fs.nv_two_state(fs.NVModel(omega_x=float(wx), omega_z=0.0, a_par=a_par))
        env[i] = fs.envelope(model, taus)
        for family, (omega, other, value) in enumerate(
                ((omega_sum[i], omega_diff[i], -k[i]), (omega_diff[i], omega_sum[i], k[i]))):
            j = np.arange(int(taus[-1] * omega / math.pi) + 1)
            t_curve = (2 * j + 1) * math.pi / (2 * omega)
            t_curve = t_curve[(t_curve >= taus[0]) & (t_curve <= taus[-1])]
            t_curve = t_curve[np.abs(np.cos(other * t_curve)) >= vertex]
            if t_curve.size:
                dev = np.abs(np.asarray(fs.envelope(model, t_curve)) - value)
                worst = max(worst, float(dev.max()))
                n_curve[family] += t_curve.size

    diamonds = np.cos(np.outer(omega_sum, taus)) * np.cos(np.outer(omega_diff, taus)) < 0
    below = env < -k[:, None] - rounding
    not_above = env < k[:, None] + rounding
    outside = int((below & ~diamonds).sum())
    unbounded = int((diamonds & ~not_above).sum())
    elapsed = time.perf_counter() - t0
    ok = (outside == 0 and unbounded == 0 and worst <= 1e-9
          and below.any() and diamonds.any() and min(n_curve) > 0 and elapsed < 60.0)
    report(6, ok, f"{n_field}x{n_tau} grid, {int(diamonds.sum())} points in the "
                  f"diamonds cos(S tau) cos(D tau) < 0: {outside} of "
                  f"{int(below.sum())} points with envelope < -k lie outside "
                  f"them and {unbounded} points inside have envelope >= +k "
                  f"(0 allowed, rounding guard {rounding:.0e}); envelope = -k "
                  f"at {n_curve[0]} sum-curve points and +k at {n_curve[1]} "
                  f"difference-curve points off the vertices, worst deviation "
                  f"{worst:.1e} (<= 1e-9); runtime {elapsed:.1f} s (< 60 s)")


def test_criterion_7_cluster_doublets():
    t0 = time.perf_counter()
    cl = fs.SpinCluster(a=np.array([180e3, 0.0, 100e3]),
                        c=np.array([[0.0, 1.05e3, 2.2e3],
                                    [1.05e3, 0.0, 1.05e3],
                                    [2.2e3, 1.05e3, 0.0]]))
    donor = fs.si_bi()
    n_p = 100

    # desk-scale (tau, B0) envelope map around the first doublet
    fields = np.linspace(0.10, 0.26, 100)
    tau_grid = np.linspace(9.0e-5, 3.0e-4, 100)
    chs = [fs.conditional_cluster_hamiltonians(cl, *donor_pair_polarizations(donor, float(b0)))
           for b0 in fields]
    grid = floquet_rows(chs, tau_grid, 1, ("envelope",))["envelope"]
    assert grid.shape == (100, 100) and np.isfinite(grid).all()

    # refined minima vs secular doublet estimates across the sweep
    worst = 0.0
    min_stretched = 1.0
    for b0 in np.linspace(0.10, 0.26, 9):
        p_u, p_d = donor_pair_polarizations(donor, float(b0))
        ch = fs.conditional_cluster_hamiltonians(cl, p_u, p_d)
        est = sorted(r.tau for r in fs.doublet_dip_estimates(cl, p_u, p_d)
                     if r.pair == (1, 2))
        local = np.linspace(0.93 * est[0], 1.07 * est[1], 1500)
        env = floquet_rows([ch], local, 1, ("envelope",))["envelope"][0]
        mins = [j for j in range(1, local.size - 1)
                if env[j] < env[j - 1] and env[j] <= env[j + 1]]
        mins = sorted(mins, key=lambda j: env[j])[:2]
        located = sorted(local[j] for j in mins)
        assert len(located) == 2, f"doublet unresolved at B0 = {b0}"
        worst = max(worst, max(abs(a - b) / a for a, b in zip(located, est)))
        vals = oracle_basis_coherences(*oracle_cells(ch.h_u, ch.h_d, [est[0]]), n_p)[0]
        min_stretched = min(min_stretched, float(vals[0].real), float(vals[-1].real))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.05 and min_stretched > 0.99 and elapsed < 300.0
    report(7, ok, f"100x100 map plus 9-field refinement: envelope minima vs "
                  f"secular doublet estimates max rel dev {worst*100:.2f}% (< 5%); "
                  f"stretched-state coherence min {min_stretched:.5f} (> 0.99); "
                  f"runtime {elapsed:.0f} s (< 300 s)")


def test_criterion_8_envelope_pulse_number_independence():
    # The kernel's floor, computed without n_p, against the oracle's Schur
    # floor of the same cells; its coherence under n_p = 10 and 40 against
    # the oracle's Floquet expansion sum_{l,l'} e^{i n_p (E_l - E_l')} |M_ll'|^2 / D
    # on Schur modes (the kernel's comes from Cayley modes).
    rng = np.random.default_rng(808)
    worst_floor = worst_sum = 0.0
    checked = 0
    chs = [random_model(rng).conditional() for _ in range(25)]  # D = 2
    chs += [fs.ConditionalHamiltonians(random_hermitian(8, rng), random_hermitian(8, rng))
            for _ in range(25)]  # D = 8
    for ch in chs:
        tau = float(rng.uniform(0.1, 2.0 if ch.dim == 2 else 1.0))
        cells = oracle_cells(ch.h_u, ch.h_d, [tau])
        phases, m, _ = schur_floquet(*cells)
        floor = schur_floor(*cells)[0]
        for n_p in (10, 40):
            values = floquet_rows([ch], [tau], n_p)
            worst_floor = max(worst_floor, abs(values["envelope"][0, 0] - floor))
            worst_sum = max(worst_sum, abs(values["coherence"][0, 0]
                                           - floquet_sum(phases[0], m[0], n_p)))
        checked += 1
    ok = worst_floor < 1e-9 and worst_sum < 1e-9
    report(8, ok, f"{checked} models (D = 2 and 8): kernel envelope floor vs Schur floor "
                  f"of the oracle cells {worst_floor:.1e} (< 1e-9); kernel coherence under "
                  f"n_p = 10 and 40 vs the Schur-mode Floquet expansion {worst_sum:.1e} "
                  f"(< 1e-9)")


def test_criterion_9_determinism(tmp_path):
    doc = {
        "system": {"kind": "nv", "omega_z_hz": 0.0, "a_par_hz": 50e3},
        "sequence": {"n_p": 10},
        "axes": {"tau_s": {"start": 5e-7, "stop": 3.2e-5, "count": 64},
                 "omega_x_hz": {"start": 2e3, "stop": 8e4, "count": 24}},
        "output": {"quantity": "envelope", "format": "both"},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["map", "--config", str(cfg), "--output", str(tmp_path / "t1"),
                     "--threads", "1"]) == 0
    assert cli_main(["map", "--config", str(cfg), "--output", str(tmp_path / "t8"),
                     "--threads", "8"]) == 0
    same_csv = (tmp_path / "t1" / "map.csv").read_bytes() == \
        (tmp_path / "t8" / "map.csv").read_bytes()
    same_pgm = (tmp_path / "t1" / "map.pgm").read_bytes() == \
        (tmp_path / "t8" / "map.pgm").read_bytes()
    ok = same_csv and same_pgm
    report(9, ok, "map with --threads 1 and --threads 8: CSV and PGM byte-identical")
