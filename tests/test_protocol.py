"""Preparation protocol: initial state, tilt evolution, pair separation."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, diagonalized, lithium_protocol, model_for, snapshot_at
from latticeepr import cli
from latticeepr import protocol as pr
from latticeepr import two_atom as ta
from latticeepr.constants import HBAR, KB


class TestInitialState:
    def test_diagonal_weight_matches_gaussian_sum(self):
        # sum_j alpha_j^4 ~ a / (2 sqrt(pi) sigma_E) for a centered envelope
        state = pr.initial_state(5.0, 12.0, 25)
        assert state.diagonal_weight() == pytest.approx(
            1.0 / (2 * np.sqrt(np.pi) * 5.0), rel=0.05
        )

    def test_narrow_envelope_single_site(self):
        with pytest.warns(UserWarning, match="several sites"):
            state = pr.initial_state(0.05, 12.0, 25)
        assert abs(state.amplitudes[12, 12]) == pytest.approx(1.0, abs=1e-10)

    def test_swap_symmetry(self):
        state = pr.initial_state(5.0, 12.0, 25)
        assert np.allclose(state.amplitudes, state.amplitudes.T)

    def test_boundary_clipping_warns(self):
        with pytest.warns(UserWarning, match="clipped"):
            pr.initial_state(5.0, 3.0, 25)

    @pytest.mark.parametrize("site_count, tail", [(25, 0.0448), (40, 0.0443)])
    def test_lithium_envelope_tail_mass(self, site_count, tail):
        # sigma_E = 5 a centered on site 8: the left edge clips ~4.4%
        mass = pr.envelope_tail_mass(5.0, 8.0, site_count)
        assert mass == pytest.approx(tail, abs=5e-5)
        with pytest.warns(UserWarning, match=f"tail mass {mass:.2e}"):
            pr.gaussian_envelope(5.0, 8.0, site_count)

    def test_centered_envelope_has_no_tail(self):
        assert pr.envelope_tail_mass(2.0, 20.0, 41) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            pr.initial_state(0.0, 12.0, 25)


# Two-atom models drawn by the matrix-free and propagation checks.
MODELS = dict(
    site_count=st.integers(3, 10),
    boundary=st.sampled_from(["open", "periodic"]),
    hop=st.floats(-1.0, 1.0, allow_subnormal=False),
    vdd=st.one_of(st.floats(-4.0, -0.01), st.just(0.0), st.floats(0.01, 4.0)),
    tilt=st.tuples(*[st.floats(-0.5, 0.5, allow_subnormal=False)] * 2),
)


def random_state(site_count, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(site_count, site_count)) + 1j * rng.normal(
        size=(site_count, site_count)
    )
    return ta.TwoAtomState(amp / np.linalg.norm(amp))


def apply_per_slice(amplitudes, hop, diagonal, periodic):
    """H C with the hop multiplied into each shifted slice (the reference
    for ``two_atom._apply``, which multiplies C by the hop once)."""
    c = amplitudes
    out = diagonal * c
    out[1:] += hop * c[:-1]
    out[:-1] += hop * c[1:]
    out[:, 1:] += hop * c[:, :-1]
    out[:, :-1] += hop * c[:, 1:]
    if periodic:
        out[0] += hop * c[-1]
        out[-1] += hop * c[0]
        out[:, 0] += hop * c[:, -1]
        out[:, -1] += hop * c[:, 0]
    return out


class TestMatrixFreeHamiltonian:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        site_count=st.integers(2, 12),
        periodic=st.booleans(),
        hop=st.one_of(st.floats(-2.0, 2.0), st.just(-1e-300)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_apply_is_bit_equal_to_per_slice_hop(self, site_count, periodic, hop, seed):
        # the same products added in the same order: the same bits, signed
        # zeros included (a hop of -1e-300 flushes the products to +-0)
        rng = np.random.default_rng(seed)
        amplitudes = random_state(site_count, seed).amplitudes
        parts = amplitudes.view(float)
        zeros = rng.random(parts.shape) < 0.2
        parts[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        diagonal = rng.normal(size=(site_count, site_count))
        got = ta._apply(amplitudes, hop, diagonal, periodic)
        want = apply_per_slice(amplitudes, hop, diagonal, periodic)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(**MODELS, seed=st.integers(0, 2**32 - 1))
    def test_apply_matches_dense(self, site_count, boundary, hop, vdd, tilt, seed):
        ham = ta.build(model_for(hop, vdd, site_count, boundary), tilt)
        state = random_state(site_count, seed)
        expected = dense(ham) @ state.vector()
        assert np.max(np.abs(ham.apply(state.amplitudes).ravel() - expected)) <= 1e-13 * max(
            1.0, np.max(np.abs(expected))
        )

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(**MODELS)
    def test_spectral_bounds_enclose_spectrum(self, site_count, boundary, hop, vdd, tilt):
        ham = ta.build(model_for(hop, vdd, site_count, boundary), tilt)
        energies = np.linalg.eigvalsh(dense(ham))
        lo, hi = ham.spectral_bounds()
        slack = 1e-12 * max(1.0, hi - lo)
        assert lo - slack <= energies[0] and energies[-1] <= hi + slack

    @pytest.mark.parametrize("x", [1e-12, 1e-3, 0.7, 5.0, 37.3, 450.7, 2000.0])
    def test_bessel_series(self, x):
        # against scipy's J_k, with a tail below the truncation tolerance
        values = ta._bessel_series(x)
        k = np.arange(values.size + 200)
        reference = scipy.special.jv(k, x)
        assert np.max(np.abs(values - reference[: values.size])) <= 1e-15 * max(1.0, x) ** 0.5
        assert 2 * np.sum(np.abs(reference[values.size :])) <= 2 * ta.CHEBYSHEV_TAIL


@pytest.fixture(scope="module")
def free_setup():
    model = model_for(-0.0881, -0.4693, boundary="open")
    hamiltonian = ta.build(model)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = pr.initial_state(5.0, 12.0, 25)
    return model, hamiltonian, state


class TestEvolve:
    def test_time_zero_identity(self, free_setup):
        _, hamiltonian, state = free_setup
        trace = pr.evolve(state, hamiltonian, [0.0])
        assert np.allclose(trace.final().amplitudes, state.amplitudes, atol=1e-12)

    def test_eigenstate_stationary(self, free_setup):
        model, hamiltonian, _ = free_setup
        spectrum = ta.diagonalize(hamiltonian)
        eigen = spectrum.state(3)
        trace = pr.evolve(eigen, hamiltonian, [37.5])
        overlap = abs(np.vdot(trace.final().vector(), eigen.vector()))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_norm_conserved(self, free_setup):
        _, hamiltonian, state = free_setup
        trace = pr.evolve(state, hamiltonian, np.linspace(0, 300, 7))
        for snapshot in trace.states:
            assert np.sum(np.abs(snapshot.amplitudes) ** 2) == pytest.approx(
                1.0, abs=1e-8
            )

    def test_energy_conserved(self, free_setup):
        _, hamiltonian, state = free_setup
        trace = pr.evolve(state, hamiltonian, np.linspace(0, 300, 5))
        energies = [hamiltonian.expectation(s) for s in trace.states]
        assert np.max(np.abs(np.diff(energies))) < 1e-8 * max(1.0, abs(energies[0]))

    def test_time_reversal(self, free_setup):
        _, hamiltonian, state = free_setup
        forward = pr.evolve(state, hamiltonian, [140.0]).final()
        back = pr.evolve(forward, hamiltonian, [-140.0]).final()
        fidelity = abs(np.vdot(back.vector(), state.vector())) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        **MODELS,
        times=st.lists(st.floats(0.01, 30.0), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_exponential(
        self, site_count, boundary, hop, vdd, tilt, times, seed
    ):
        # psi(t) = expm(-i t H) psi0 for a random state, at times that
        # include 0 and a negative value
        ham = ta.build(model_for(hop, vdd, site_count, boundary), tilt)
        state = random_state(site_count, seed)
        times = sorted([-times[0], 0.0, *times[1:]])
        trace = pr.evolve(state, ham, times)
        matrix = dense(ham)
        for t, snapshot in zip(times, trace.states):
            expected = scipy.linalg.expm(-1j * t * matrix) @ state.vector()
            assert np.max(np.abs(snapshot.vector() - expected)) <= 1e-10

    def test_evolve_never_builds_dense(self):
        # the dense H at N = 60 would take N^4 x 8 B = 104 MB; evolve peaks
        # at about 0.6 MB
        config, model, ham, psi0 = lithium_protocol(60)
        times = config.protocol.snapshot_times_s
        tracemalloc.start()
        try:
            trace = pr.evolve(psi0, ham, times, erec_joule=model.recoil_energy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.states) == len(times)
        assert peak < 60**4 * 8 / 10

    def test_independent_of_global_rng(self):
        # the Chebyshev propagator draws no random numbers, so the
        # propagated states cannot depend on numpy's global random state
        config, model, ham, psi0 = lithium_protocol(40)
        times = config.protocol.snapshot_times_s
        saved = np.random.get_state()
        try:
            runs = []
            for seed in (1, 2):
                np.random.seed(seed)
                runs.append(pr.evolve(psi0, ham, times, erec_joule=model.recoil_energy).states)
        finally:
            np.random.set_state(saved)
        for a, b in zip(*runs):
            assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_leaves_global_rng_alone(self):
        config, model, ham, psi0 = lithium_protocol()
        saved = np.random.get_state()
        try:
            np.random.seed(5)
            pr.evolve(psi0, ham, config.protocol.snapshot_times_s, erec_joule=model.recoil_energy)
            after = np.random.random()
            np.random.seed(5)
            assert after == np.random.random()
        finally:
            np.random.set_state(saved)

    def test_lithium_100_sites_conserves_norm_and_energy(self):
        config, model, ham, psi0 = lithium_protocol(100)
        times = config.protocol.snapshot_times_s
        trace = pr.evolve(psi0, ham, times, erec_joule=model.recoil_energy)
        assert trace.norm_drift <= 1e-12
        energies = np.array([ham.expectation(s) for s in trace.states])
        assert np.max(np.abs(energies - energies[0])) <= 1e-10 * abs(energies[0])

    def test_zero_spectral_width_is_identity(self, free_setup):
        # hop = V_dd = 0 and no potential: H = 0, every step is the identity
        _, _, state = free_setup
        ham = ta.build(model_for(0.0, 0.0, boundary="open"))
        assert ham.spectral_bounds() == (0.0, 0.0)
        trace = pr.evolve(state, ham, [0.0, 12.5, 3e4])
        for snapshot in trace.states:
            assert np.array_equal(snapshot.amplitudes, state.amplitudes)

    def test_lithium_backward_step_matches_expm_multiply(self):
        # a step of -370 hbar/E_rec, longer than either protocol step, on
        # the tilted N = 40 lattice of the benchmark
        _, _, ham, psi0 = lithium_protocol(40)
        trace = pr.evolve(psi0, ham, [-370.0])
        generator = scipy.sparse.csr_array(dense(ham)) * (370.0j)
        expected = scipy.sparse.linalg.expm_multiply(generator, psi0.vector())
        assert np.max(np.abs(trace.final().vector() - expected)) <= 1e-12

    def test_monotone_times_required(self, free_setup):
        _, hamiltonian, state = free_setup
        with pytest.raises(ValueError, match="non-decreasing"):
            pr.evolve(state, hamiltonian, [1.0, 0.5])

    def test_zero_slope_control(self, free_setup):
        # no interaction, no tilt: both centroids stay at the start site
        model = model_for(-0.0881, 0.0, boundary="open")
        hamiltonian = ta.build(model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = pr.initial_state(5.0, 12.0, 25)
        trace = pr.evolve(state, hamiltonian, [150.0], origin=12.0)
        diag = trace.diagnostics[-1]
        assert diag.diatom_centroid == pytest.approx(12.0, abs=0.1)
        assert diag.single_centroid == pytest.approx(12.0, abs=0.1)


class TestSeparationRun:
    def test_displacement_ratio_tracks_hop_ratio(self, protocol_run):
        config, model, _, trace = protocol_run
        expected = abs(model.hop / model.diatom_hop())
        for t in (1.4e-4, 2.16e-4):
            _, diag = snapshot_at(trace, t)
            assert diag.displacement_ratio == pytest.approx(expected, rel=0.30)

    def test_bloch_oscillation_bound(self, protocol_run):
        config, model, _, trace = protocol_run
        bound = 4 * abs(model.hop) / config.protocol.slope_erec_per_site
        drift = [
            abs(d.single_centroid - config.protocol.center_site)
            for d in trace.diagnostics
            if np.isfinite(d.single_centroid)
        ]
        assert max(drift) <= 1.2 * bound

    def test_singles_cross_ejection_line(self, protocol_run):
        config, _, _, trace = protocol_run
        _, diag = snapshot_at(trace, 2.16e-4)
        assert diag.single_centroid > config.protocol.ejection_line_site
        assert diag.diatom_centroid < config.protocol.ejection_line_site

    def test_retained_fraction_matches_bound_capture(self, protocol_run):
        # the surviving pair fraction equals the initial overlap with the
        # split-off band (~ a / sigma_E); it is conserved by the tilt
        config, model, psi0, trace = protocol_run
        spectrum = diagonalized(model.hop, model.vdd, boundary="open")
        capture = pr.bound_band_projection(psi0, spectrum)
        assert capture == pytest.approx(0.2, rel=0.2)  # ~ a / sigma_E
        _, diag = snapshot_at(trace, 2.16e-4)
        assert diag.diagonal_weight == pytest.approx(capture, rel=0.25)

    def test_bound_band_projection_needs_a_band(self):
        # the free open chain binds no pair at V_dd = 0
        spectrum = diagonalized(-0.0881, 0.0, boundary="open")
        assert len(spectrum.diatom_band) == 0
        with pytest.raises(ValueError, match="no split-off diatom band"):
            pr.bound_band_projection(pr.initial_state(5.0, 12.0, 25), spectrum)

    def test_initial_ratio_undefined(self):
        # an unclipped product state sits exactly at its center: no drift,
        # no ratio
        state = pr.initial_state(5.0, 12.0, 25)
        diag = pr.separation_diagnostics(state, origin=12.0)
        assert np.isnan(diag.displacement_ratio)

    def test_heavy_mass_freezing(self, protocol_run):
        # 10x smaller hop -> 100x smaller pair hop -> pair drift drops >= 50x
        config, model, psi0, trace = protocol_run
        frozen_model = dataclasses.replace(model, hop=model.hop / 10)
        tilt = cli._tilt(config.protocol.tilt_species, config.protocol.slope_erec_per_site)
        frozen = pr.evolve(
            psi0,
            ta.build(frozen_model, tilt),
            [1.4e-4],
            erec_joule=model.recoil_energy,
            origin=config.protocol.center_site,
        )
        _, diag = snapshot_at(trace, 1.4e-4)
        drift = abs(diag.diatom_centroid - config.protocol.center_site)
        frozen_drift = abs(
            frozen.diagnostics[-1].diatom_centroid - config.protocol.center_site
        )
        assert drift / frozen_drift >= 50


class TestPostselect:
    def test_identity_on_diagonal_state(self):
        n = 25
        amp = np.zeros((n, n), dtype=complex)
        np.fill_diagonal(amp, 1.0 / np.sqrt(n))
        state = ta.TwoAtomState(amp)
        kept, retained = pr.postselect_diatoms(state, region=None, band=0)
        assert retained == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(kept.amplitudes, state.amplitudes)

    def test_region_and_band_cut(self, protocol_run):
        config, _, psi0, trace = protocol_run
        final, _ = snapshot_at(trace, 2.16e-4)
        region = (0.0, config.protocol.ejection_line_site)
        kept, retained = pr.postselect_diatoms(final, region=region, band=1)
        assert 0.0 < retained < 1.0
        j, l = np.indices(kept.amplitudes.shape)
        outside = (np.abs(j - l) > 1) | (j > region[1]) | (l > region[1])
        assert np.max(np.abs(kept.amplitudes[outside])) == 0.0

    def test_retained_close_to_band_weight(self, protocol_run):
        config, _, _, trace = protocol_run
        final, diag = snapshot_at(trace, 2.16e-4)
        kept, retained = pr.postselect_diatoms(
            final, region=(0.0, config.protocol.ejection_line_site), band=1
        )
        assert retained <= diag.band_weight + 1e-12
        assert retained > 0.6 * diag.band_weight

    def test_surviving_comb_resembles_envelope(self, protocol_run):
        # after removing the rigid drift and boost the retained pairs carry
        # the squared initial envelope on the diagonal
        config, _, _, trace = protocol_run
        final, _ = snapshot_at(trace, 2.16e-4)
        kept, _ = pr.postselect_diatoms(
            final, region=(0.0, config.protocol.ejection_line_site), band=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            alpha = pr.gaussian_envelope(
                config.protocol.sigma_e_sites,
                config.protocol.center_site,
                config.site_count,
            )
        fidelity = pr.diagonal_comb_fidelity(kept, alpha**2)
        assert fidelity > 0.75

    def test_empty_postselection_rejected(self):
        state = ta.TwoAtomState(
            np.eye(25, k=5, dtype=complex) / np.sqrt(20)
        )
        with pytest.raises(ValueError, match="retained"):
            pr.postselect_diatoms(state, region=None, band=1)


class TestCombFidelity:
    @staticmethod
    def comb(site_count, sites):
        amplitudes = np.zeros((site_count, site_count), dtype=complex)
        amplitudes[sites, sites] = 1.0 / np.sqrt(len(sites))
        return ta.TwoAtomState(amplitudes)

    def test_open_chain_does_not_wrap(self):
        # the last 3 of 10 sites lie 7 sites past the first 3, beyond the
        # largest displacement of 5; only a ring brings them within reach
        state = self.comb(10, [7, 8, 9])
        target = np.zeros(10)
        target[:3] = 1.0
        assert pr.diagonal_comb_fidelity(state, target) == pytest.approx(1 / 9)
        assert pr.diagonal_comb_fidelity(state, target, periodic=True) == pytest.approx(1.0)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_displacement_within_reach(self, periodic):
        state = self.comb(12, [5, 6, 7])
        target = np.zeros(12)
        target[:3] = 1.0
        fidelity = pr.diagonal_comb_fidelity(state, target, periodic=periodic)
        assert fidelity == pytest.approx(1.0)


class TestCoolingRequirements:
    def test_initial_bound_matches_trap_frequency(self):
        # sigma_E = 5 a for lithium corresponds to a ~1 kHz trap; the bound
        # is hbar omega / (2 kB) ~ 30 nK scale
        mass, a = 1.1624e-26, 161.5e-9
        sigma_e = 5 * a
        bounds = pr.cooling_requirements(sigma_e, mass)
        omega = HBAR / (2 * mass * sigma_e**2)
        assert bounds.initial_stage == pytest.approx(
            HBAR * omega / (2 * KB), rel=1e-12
        )
        assert omega / (2 * np.pi) == pytest.approx(1000.0, rel=0.25)
        assert bounds.initial_stage == pytest.approx(30e-9, rel=0.25)

    def test_quadratic_width_scaling(self):
        mass = 1.1624e-26
        one = pr.cooling_requirements(5 * 161.5e-9, mass).initial_stage
        two = pr.cooling_requirements(10 * 161.5e-9, mass).initial_stage
        assert one / two == pytest.approx(4.0, rel=1e-12)

    def test_band_stage_bound(self):
        erec = 1.8101785620944626e-28
        bounds = pr.cooling_requirements(
            5 * 161.5e-9, 1.1624e-26, diatom_hop_erec=-0.0324, erec_joule=erec
        )
        assert bounds.band_stage == pytest.approx(4 * 0.0324 * erec / KB, rel=1e-12)

    def test_band_stage_needs_energy_scale(self):
        with pytest.raises(ValueError):
            pr.cooling_requirements(1e-6, 1e-26, diatom_hop_erec=-0.03)
