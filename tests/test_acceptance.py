"""Acceptance criteria, one test per numbered clause.

Every test prints one `ACCEPTANCE n: PASS/FAIL` line with the measured
values next to the required tolerance, then asserts the criterion as
stated.  Clauses 2, 3b, 4b, 7 and 9b stated targets that a closed form
contradicts; they assert that closed form instead, at a tight tolerance,
and still print the stated target next to the measured value.
Tolerances are pinned here, not deferred.  Run with
``pytest tests/test_acceptance.py -v -s`` for the full report.
"""

import numpy as np
import pytest

from conftest import diagonalized, mathieu_band_edges, snapshot_at
from latticeepr import band_structure as bs
from latticeepr import distributions as dist
from latticeepr import liddi
from latticeepr import protocol as pr
from latticeepr import two_atom as ta
from latticeepr.constants import HBAR


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def check(criterion: str, passed: bool, detail: str) -> None:
    report(criterion, passed, detail)
    assert passed, f"criterion {criterion}: {detail}"


def pair_decay(hop: float, vdd: float) -> float:
    """Amplitude ratio c_{j,j+1} / c_{jj} of the bound pair,
    (sqrt(V_dd^2 + 16 V_hop^2) - |V_dd|) / (4 |V_hop|), written in the form
    that stays finite as V_hop -> 0.

    The relative coordinate hops with 2 V_hop because both atoms hop
    (Valiente & Petrosyan, J. Phys. B 41, 161002 (2008)); the bound state
    decays as lambda^|r| and lambda -> 2 |V_hop / V_dd| for weak hopping.
    A pair of quasimomentum K decays with V_hop cos(K/2) in place of V_hop.
    """
    return 4 * abs(hop) / (np.sqrt(vdd**2 + 16 * hop**2) + abs(vdd))


def test_criterion_1_parameter_pipeline(lithium_model):
    model = lithium_model
    vhop2 = model.diatom_hop()
    ok_u0 = abs(model.lattice_depth - 3.93) / 3.93 <= 0.05
    ok_vdd = abs(model.vdd - (-0.5)) / 0.5 <= 0.15
    ok_hop = abs(model.hop - (-0.09)) / 0.09 <= 0.10
    ok_pair = vhop2 == pytest.approx(2 * model.hop**2 / model.vdd, rel=1e-12)
    check(
        "1",
        ok_u0 and ok_vdd and ok_hop and ok_pair,
        f"U0={model.lattice_depth:.4f} (3.93 +-5%), "
        f"Vdd={model.vdd:.4f} (-0.5 +-15%), "
        f"Vhop={model.hop:.5f} (-0.09 +-10%), "
        f"Vhop_pair={vhop2:.5f} (=2Vhop^2/Vdd exactly; quoted -0.0324)",
    )


def test_criterion_2_nearest_site_consistency(lithium_config):
    phys = lithium_config.physical
    field = liddi.LiddiField.from_atom(
        phys.dipole_coupling,
        phys.transition_freq_coupling,
        phys.lambda_coupling,
        phys.intensity_coupling,
    )
    lam_c = phys.lambda_coupling

    # At theta = pi/2, full / nearest = cos kl + kl sin kl exactly, so the
    # gap grows as (kl)^2 / 2 and the 1% window ends near lam_C/44.
    def mismatch(frac):
        shift = lam_c / frac
        nearest = liddi.vdd_nearest(field.coupling, lam_c, shift)
        kl = field.wavenumber * shift
        full = -field.coupling * liddi.f_theta(kl, np.pi / 2)
        identity = abs(full / nearest - (np.cos(kl) + kl * np.sin(kl)))
        return abs(nearest - full) / abs(full), identity

    results = {frac: mismatch(frac) for frac in (20, 30, 45, 100)}
    mismatches = {frac: gap for frac, (gap, _) in results.items()}
    worst_identity = max(identity for _, identity in results.values())
    outside = mismatch(44)[0]
    lithium_frac = lam_c / phys.lattice_shift
    ok = (
        worst_identity <= 1e-12
        and outside > 0.01 >= mismatches[45]
        and mismatches[100] <= 0.01
    )
    detail = ", ".join(f"l=lam/{f}: {m:.2%}" for f, m in mismatches.items())
    check(
        "2",
        ok,
        f"stated <=1% for l <= lam_C/20; measured {detail}; full/nearest = "
        f"cos kl + kl sin kl to {worst_identity:.1e} (<=1e-12); 1% edge "
        f"between lam_C/45 ({mismatches[45]:.3%}) and lam_C/44 ({outside:.3%}); "
        f"lithium l = "
        f"{phys.lattice_shift * 1e9:.0f} nm = lam_C/{lithium_frac:.1f}: "
        f"{mismatch(lithium_frac)[0]:.1%}",
    )


def test_criterion_3_mathieu_band_edges():
    worst = 0.0
    details = []
    for u0 in (2.0, 3.93, 10.0):
        band = bs.bloch_spectrum(u0, n_k=64).lowest_band()
        a0, b1 = mathieu_band_edges(u0)
        err = max(abs(band.min() - a0), abs(band.max() - b1))
        worst = max(worst, err)
        details.append(f"U0={u0}: {err:.2e}")
    check("3a", worst <= 1e-6, f"band edges vs Mathieu oracle (<=1e-6): {details}")


def test_criterion_3_hopping_approximation_window():
    def exact_hop(u0):
        return abs(bs.hopping_exact(bs.bloch_spectrum(u0, n_k=32)).hop)

    depths = (2.0, 3.93, 6.0, 10.0, 13.0, 15.0)
    exact = {u0: exact_hop(u0) for u0 in (*depths, 14.3, 14.6)}
    deviations = {u0: abs(bs.hopping_approx(u0) - h) / h for u0, h in exact.items()}
    # The exact hopping is right: at U0 = 15 it is the Mathieu bandwidth
    # (b_1(q) - a_0(q)) / 4, q = U0 / 4.  The fit leaves 20% below U0 = 15.
    a0, b1 = mathieu_band_edges(15.0)
    mathieu_hop = (b1 - a0) / 4
    mathieu_err = abs(exact[15.0] - mathieu_hop) / mathieu_hop
    ok = (
        mathieu_err <= 1e-4
        and deviations[14.3] <= 0.20 < deviations[14.6]
        and all(deviations[u0] <= 0.20 for u0 in depths if u0 <= 14.3)
    )
    detail = ", ".join(f"U0={u}: {deviations[u]:.1%}" for u in depths)
    check(
        "3b",
        ok,
        f"stated exp(-0.26 U0)/4 within 20% over [2, 15]; {detail}; exact hop at "
        f"U0=15 vs Mathieu (b1-a0)/4 = {mathieu_hop:.7f}: {mathieu_err:.1e} "
        f"(<=1e-4); 20% edge between U0 = 14.3 ({deviations[14.3]:.1%}) and "
        f"14.6 ({deviations[14.6]:.1%})",
    )


def test_criterion_4_gaussian_fidelity():
    fidelities = {}
    for u0 in (6.0, 8.0, 10.0, 13.4):
        _, fidelity = bs.gaussian_approx(u0)
        fidelities[u0] = fidelity
    detail = ", ".join(f"U0={u}: {f:.4f}" for u, f in fidelities.items())
    check("4a", min(fidelities.values()) > 0.98, f"fidelity > 0.98 for U0 >= 6; {detail}")


def test_criterion_4_gaussian_hopping_caveat():
    def closed_form(u0):
        # <G_0|H|G_1> for Gaussians of density width sigma one site apart
        s2 = bs.gaussian_sigma(u0) ** 2
        kinetic = (1 - 1 / (4 * s2)) / (4 * np.pi**2 * s2)
        potential = 0.5 * u0 * np.exp(-2 * np.pi**2 * s2)
        return np.exp(-1 / (8 * s2)) * (kinetic + potential)

    exact = {
        u0: bs.hopping_exact(bs.bloch_spectrum(u0, n_k=32)).hop for u0 in (3.93, 5.0, 5.15)
    }
    deviations = {u0: abs(bs.gaussian_hopping(u0) - h) / abs(h) for u0, h in exact.items()}
    closed_err = max(
        abs(bs.gaussian_hopping(u0) - closed_form(u0)) / abs(closed_form(u0))
        for u0 in (3.93, 5.0, 6.0, 10.0, 15.0)
    )
    check(
        "4b",
        closed_err <= 1e-10 and deviations[5.0] <= 0.25 < deviations[5.15],
        f"Gaussian-orbital hopping {bs.gaussian_hopping(3.93):.5f} vs exact "
        f"{exact[3.93]:.5f}: deviation {deviations[3.93]:.1%} (stated > 25% at "
        f"U0 = 3.93); closed form <G0|H|G1> to {closed_err:.1e} (<=1e-10) over "
        f"U0 in [3.93, 15]; 25% edge between U0 = 5.0 ({deviations[5.0]:.1%}) "
        f"and 5.15 ({deviations[5.15]:.1%})",
    )


def test_criterion_5_split_band():
    details = []
    ok = True
    for vdd in (0.5, 1.0, 1.5, 2.5):
        spectrum = diagonalized(-0.0355, -vdd)
        size = len(spectrum.diatom_band)
        lo, hi = spectrum.diatom_band_edges
        width = hi - lo
        predicted = 8 * 0.0355**2 / vdd
        dev = abs(width - predicted) / predicted
        ok &= size == 25 and dev <= 0.20
        details.append(f"|Vdd|={vdd}: {size} states, width dev {dev:.1%}")
    check("5", ok, "; ".join(details))


def test_criterion_6_epr_structure(fig7a_state, wannier393):
    pos = dist.position_joint(fig7a_state, wannier393)
    mom = dist.momentum_joint(fig7a_state, wannier393)
    metrics = dist.epr_metrics(pos, mom)
    n = fig7a_state.site_count
    ridge_target = np.pi / n
    corr_x = dist.correlation_coefficient(pos)
    corr_p = dist.correlation_coefficient(mom, window=np.pi)
    ok = (
        abs(metrics.peak_spacing_x - 1.0) <= 0.03
        and abs(metrics.peak_spacing_p - 2 * np.pi) <= 0.1
        and abs(metrics.dp_plus - ridge_target) / ridge_target <= 0.20
        and corr_x > 0.9
        and corr_p < -0.9
    )
    check(
        "6",
        ok,
        f"x-spacing {metrics.peak_spacing_x:.3f} a (1), p-spacing "
        f"{metrics.peak_spacing_p:.3f} (2pi), ridge HWHM {metrics.dp_plus:.4f} vs "
        f"pi/N {ridge_target:.4f} (+-20%), corr_x {corr_x:.3f} (>0.9), "
        f"corr_p {corr_p:.3f} (<-0.9)",
    )


def test_criterion_7_perturbative_width(wannier393):
    # sigma^2 + 2 eta^2 assumes offset amplitude eta, but the exact pair
    # carries lambda -> 2 eta and two first-order Wannier terms of the same
    # size; they cancel near eta = 0.05.  The reference here is the
    # conditional density built from the closed-form amplitudes
    # lambda^|r|: phi(x2) = sum_j chi_j(12) sum_r lambda^|r| chi_{j+r}(x2).
    sigma = wannier393.sigma
    grid = wannier393.grid
    n = wannier393.site_count
    sites = wannier393.site_matrix()
    at_12 = int(np.argmin(np.abs(grid - 12.0)))
    offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) % n
    offset = np.minimum(offset, n - offset)  # periodic |r|
    deviations, variance_errs, lambda_errs = {}, {}, {}
    for eta in (0.0355, 0.05, 0.08, 0.1):
        lam = pair_decay(-eta, -1.0)
        state = diagonalized(-eta, -1.0).state(0)
        amp = state.amplitudes
        lambda_errs[eta] = abs(amp[12, 13] / amp[12, 12] - lam)

        joint = dist.position_joint(state, wannier393)
        conditional = dist.conditional(joint, 12.0, which_atom=1)
        variance = np.trapezoid(
            (conditional.grid - 12.0) ** 2 * conditional.density, conditional.grid
        )
        phi = sites[:, at_12] @ lam**offset @ sites
        density = phi**2 / (np.sum(phi**2) * wannier393.dx)
        closed = np.trapezoid((grid - 12.0) ** 2 * density, grid)
        variance_errs[eta] = abs(variance - closed) / closed

        predicted = sigma**2 + 2 * eta**2
        deviations[eta] = abs(variance - predicted) / predicted
    worst_var = max(variance_errs.values())
    worst_lambda = max(lambda_errs.values())
    detail = ", ".join(f"eta={e}: {d:.1%}" for e, d in deviations.items())
    check(
        "7",
        worst_var <= 1e-4 and worst_lambda <= 1e-10,
        f"stated conditional spread^2 vs sigma^2 + 2 a^2 eta^2 within 10% for "
        f"eta <= 0.1; measured {detail}; variance vs lambda^|r| closed form "
        f"{worst_var:.1e} (<=1e-4); c_12,13/c_12,12 vs lambda {worst_lambda:.1e} "
        f"(<=1e-10)",
    )


def test_criterion_8_thermal_formula_consistency():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(5):
        mass = rng.uniform(5e-27, 5e-26)
        a = rng.uniform(1e-7, 5e-7)
        sigma_e_a = rng.uniform(3.0, 9.0)
        sigma_a = rng.uniform(0.1, 0.25)
        temperature = rng.uniform(5e-9, 2e-7)
        erec = np.pi**2 * HBAR**2 / (2 * mass * a**2)
        dp = dist.thermal_dp_plus(sigma_e_a * a, temperature, mass)
        s_from_dp = HBAR / (2 * sigma_a * a * dp)
        s_closed = dist.s_thermal_estimate(sigma_e_a, sigma_a, temperature, erec)
        worst = max(worst, abs(s_from_dp - s_closed) / s_closed)
    check("8a", worst <= 1e-6, f"closed-form s vs hbar/(2 sigma dp): worst {worst:.2e}")


def test_criterion_8_s_trend_and_operating_point(
    lithium_model, wannier_measure, operating_joints
):
    spectrum = diagonalized(lithium_model.hop, lithium_model.vdd)
    s_values = []
    temperatures = (5e-9, 2e-8, 5e-8, 1e-7, 2e-7)
    for temperature in temperatures:
        thermal = ta.thermal_state(spectrum, temperature, lithium_model.recoil_energy)
        states = thermal.states(spectrum)
        pos = dist.thermal_position_joint(states, thermal.weights, wannier_measure)
        mom = dist.thermal_momentum_joint(states, thermal.weights, wannier_measure)
        s_values.append(dist.epr_metrics(pos, mom).s)
    decreasing = all(b < a * 1.001 for a, b in zip(s_values, s_values[1:]))

    _, _, pos_op, mom_op = operating_joints
    s_operating = dist.epr_metrics(pos_op, mom_op).s
    detail = (
        "s(T) = "
        + ", ".join(f"{t * 1e9:.0f} nK: {s:.2f}" for t, s in zip(temperatures, s_values))
        + f"; operating point s = {s_operating:.2f} (> 1)"
    )
    check("8b", decreasing and s_operating > 1.0, detail)


def test_criterion_9_separation_ratio_and_ejection(protocol_run):
    config, model, _, trace = protocol_run
    ratio_target = abs(model.hop / model.diatom_hop())
    _, diag1 = snapshot_at(trace, 1.4e-4)
    _, diag2 = snapshot_at(trace, 2.16e-4)
    bound = 4 * abs(model.hop) / config.protocol.slope_erec_per_site
    max_drift = max(
        abs(d.single_centroid - config.protocol.center_site)
        for d in trace.diagnostics
        if np.isfinite(d.single_centroid)
    )
    ok_ratio = abs(diag1.displacement_ratio - ratio_target) / ratio_target <= 0.30
    ok_eject = (
        diag2.single_centroid > config.protocol.ejection_line_site
        and diag2.diatom_centroid < config.protocol.ejection_line_site
    )
    ok_bound = max_drift <= 1.2 * bound
    check(
        "9a",
        ok_ratio and ok_eject and ok_bound,
        f"ratio(t=1.4e-4 s) = {diag1.displacement_ratio:.2f} vs |Vhop/Vpair| = "
        f"{ratio_target:.2f} (+-30%); singles at {diag2.single_centroid:.1f} vs "
        f"ejection line {config.protocol.ejection_line_site} (pairs at "
        f"{diag2.diatom_centroid:.1f}); max drift {max_drift:.2f} <= 1.2 x V_B/F = "
        f"{1.2 * bound:.2f}",
    )


def test_criterion_9_retained_diagonal_weight(protocol_run):
    # a/(2 sqrt(pi) sigma_E) is the initial facing-site weight sum alpha^4
    # of an unclipped envelope.  The product state puts F(lambda) sum alpha^4
    # into the split-off pair band, F = (1 + lambda)^3 / ((1 - lambda)(1 +
    # lambda^2)).  The tilt advances the pair quasimomentum K by the slope in
    # E_rec / hbar per tilted atom, and a pair at K keeps
    # (1 - lambda_K^2) / (1 + lambda_K^2) of its weight on facing sites.
    config, model, psi0, trace = protocol_run
    prot = config.protocol
    lam = pair_decay(model.hop, model.vdd)
    halo = (1 + lam) ** 3 / ((1 - lam) * (1 + lam**2))
    facing = psi0.diagonal_weight()
    capture = facing * halo
    spectrum = diagonalized(model.hop, model.vdd, model.site_count, boundary="open")
    projection = pr.bound_band_projection(psi0, spectrum)
    capture_dev = abs(projection - capture) / capture

    tilted = 2 if prot.tilt_species == "both" else 1
    rate = tilted * prot.slope_erec_per_site * model.recoil_energy / HBAR  # dK/dt

    def target(t):
        lam_k = pair_decay(model.hop * np.cos(rate * t / 2), model.vdd)
        return capture * (1 - lam_k**2) / (1 + lam_k**2)

    def deviation(t, diag):
        return abs(diag.diagonal_weight - target(t)) / target(t)

    _, diag2 = snapshot_at(trace, 2.16e-4)
    snapshot_dev = deviation(2.16e-4, diag2)
    # after one Bloch period the unbound remainder has swept past the pairs
    bloch_period = 2 * np.pi / rate
    late_dev = max(
        deviation(t, d) for t, d in zip(trace.times, trace.diagnostics) if t >= bloch_period
    )
    stated = 1.0 / (2 * np.sqrt(np.pi) * prot.sigma_e_sites)
    check(
        "9b",
        capture_dev <= 0.20 and snapshot_dev <= 0.20 and late_dev <= 0.20,
        f"diagonal weight at t=2.16e-4 s = {diag2.diagonal_weight:.4f} vs "
        f"F(lambda) sum alpha^4 (1-lambda_K^2)/(1+lambda_K^2) = "
        f"{target(2.16e-4):.4f} (K = {rate * 2.16e-4 % (2 * np.pi):.2f}, "
        f"+-20%): {snapshot_dev:.1%}; worst over t >= {bloch_period * 1e6:.0f} us: "
        f"{late_dev:.1%}; pair-band projection {projection:.4f} vs F(lambda) sum "
        f"alpha^4 = {halo:.2f} x {facing:.4f} = {capture:.4f} (+-20%, lambda = "
        f"{lam:.3f}): {capture_dev:.1%}; stated a/(2 sqrt(pi) sigma_E) = {stated:.4f}",
    )


def test_criterion_10_property_suite(lithium_model, fig7a_state, wannier393, tmp_path):
    import itertools
    import subprocess
    import sys

    import scipy.linalg

    from conftest import dense, model_for

    checks = {}

    ham = ta.build(model_for(-0.0881, -0.4693))
    matrix = dense(ham)
    checks["hermiticity"] = np.array_equal(matrix, matrix.T)

    spectrum = diagonalized(-0.0881, -0.4693)
    scale = np.max(np.abs(spectrum.eigenvalues))
    vec = spectrum.state(0).vector()
    residual = np.max(np.abs(matrix @ vec - spectrum.eigenvalues[0] * vec))
    checks["eigen_residual<=1e-8"] = residual <= 1e-8 * scale

    pos = dist.position_joint(fig7a_state, wannier393)
    mom = dist.momentum_joint(fig7a_state, wannier393)
    checks["norm/parseval 1e-8"] = (
        abs(pos.mass - 1) < 1e-8 and abs(mom.mass - 1) < 1e-8
    )

    state = pr.initial_state(5.0, 12.0, 25)
    forward = pr.evolve(state, ham, [200.0]).final()
    back = pr.evolve(forward, ham, [-200.0]).final()
    fidelity = abs(np.vdot(back.vector(), state.vector())) ** 2
    checks["time_reversal 1e-6"] = abs(fidelity - 1.0) <= 1e-6

    free = ta.diagonalize(ta.build(model_for(-0.0881, 0.0)))
    single = scipy.linalg.eigvalsh(ta.single_atom_matrix(25, -0.0881, "periodic"))
    sums = np.sort(np.add.outer(single, single).ravel())
    checks["tensor_sum 1e-8"] = np.allclose(free.eigenvalues, sums, atol=1e-8)

    model4 = model_for(-0.7, -1.3, site_count=4)
    brute = np.zeros((16, 16))
    for j, l in itertools.product(range(4), repeat=2):
        row = j * 4 + l
        if j == l:
            brute[row, row] += model4.vdd
        for jp in ((j + 1) % 4, (j - 1) % 4):
            brute[row, jp * 4 + l] += model4.hop
        for lp in ((l + 1) % 4, (l - 1) % 4):
            brute[row, j * 4 + lp] += model4.hop
    checks["n4_brute_force"] = np.array_equal(brute, dense(ta.build(model4)))

    config_path = tmp_path / "lithium.ini"
    from latticeepr.parameters import lithium_default, write_config

    write_config(lithium_default(), config_path)
    bodies = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        subprocess.run(
            [
                sys.executable, "-m", "latticeepr",
                "--config", str(config_path), "--out", str(out), "liddi-scan",
            ],
            check=True,
            capture_output=True,
        )
        bodies.append((out / "liddi_scan.csv").read_bytes())
    checks["cli_determinism"] = bodies[0] == bodies[1]

    detail = ", ".join(f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks.items())
    check("10", all(checks.values()), detail)
