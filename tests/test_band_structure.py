"""Band structure, Wannier construction and tight-binding reduction."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import curvature_mass, mathieu_band_edges
from latticeepr import band_structure as bs


@pytest.fixture(scope="module")
def spectrum393():
    return bs.bloch_spectrum(3.93, n_k=64)


class TestBlochSpectrum:
    def test_free_particle_band_is_folded_parabola(self):
        spectrum = bs.bloch_spectrum(0.0, n_k=32)
        expected = (spectrum.quasimomenta / np.pi) ** 2
        assert np.allclose(spectrum.lowest_band(), expected, atol=1e-12)

    def test_band_ordering(self, spectrum393):
        energies = spectrum393.band_energies
        assert np.all(energies[0] < energies[1])
        assert np.all(energies[1] <= energies[2] + 1e-12)

    def test_lowest_band_periodicity(self, spectrum393):
        # E(k) must be even in k: the grid pairs +-k
        band = spectrum393.lowest_band()
        ks = spectrum393.quasimomenta
        for ik, k in enumerate(ks):
            partner = np.argmin(np.abs(ks + k))
            if abs(ks[partner] + k) < 1e-12:
                assert band[ik] == pytest.approx(band[partner], abs=1e-12)

    def test_mathieu_band_edges(self, spectrum393):
        a0, b1 = mathieu_band_edges(3.93)
        band = spectrum393.lowest_band()
        assert band.min() == pytest.approx(a0, abs=1e-10)
        assert band.max() == pytest.approx(b1, abs=1e-10)

    def test_hermitian_tridiagonal_by_construction(self):
        stack = bs._pendulum_matrices(3.93, bs.quasimomentum_grid(8), 33)
        assert stack.shape == (8, 33, 33) and np.isrealobj(stack)
        assert np.array_equal(stack, stack.transpose(0, 2, 1))
        assert np.array_equal(np.triu(stack, 2), np.zeros_like(stack))
        assert np.all(np.diagonal(stack, 1, 1, 2) == -3.93 / 4)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bs.bloch_spectrum(3.93, n_planewaves=20)
        with pytest.raises(ValueError):
            bs.bloch_spectrum(3.93, n_k=4)
        with pytest.raises(ValueError):
            bs.bloch_spectrum(-1.0)
        for depth in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                bs.bloch_spectrum(depth)

    def test_convergence_check_runs(self):
        # n_planewaves = 21 already converges far below the 1e-10 gate
        bs.bloch_spectrum(10.0, n_planewaves=21, n_k=8)

    def test_convergence_check_fires(self):
        # at U0 = 1600 the 33-wave basis is too narrow for the deep wells
        with pytest.raises(bs.ConvergenceError, match=r"residual 8\.800e-07 E_rec"):
            bs.bloch_spectrum(1600.0)

    def test_check_at_nonpositive_k_matches_every_k(self):
        # H(-k) is H(k) with the plane waves reversed, in both bases, so the
        # doubled-basis residual over k <= 0 is the one over the whole grid
        ks = bs.quasimomentum_grid(9)
        vals = np.linalg.eigvalsh(bs._pendulum_matrices(1600.0, ks, 33))[:, :3]
        vals2 = np.linalg.eigvalsh(bs._pendulum_matrices(1600.0, ks, 67))[:, :3]
        residual = np.max(np.abs(vals - vals2), axis=1)
        assert np.max(residual[ks <= 0]) == pytest.approx(np.max(residual), rel=1e-6)
        assert np.max(residual) == pytest.approx(7.701e-07, rel=1e-3)


class TestSturmCertificate:
    """A Sturm count of the doubled basis stands in for its dense solve."""

    @staticmethod
    def certified_and_residual(depth, n_planewaves, n_k):
        ks = bs.quasimomentum_grid(n_k)[: n_k // 2 + 1]
        vals = np.linalg.eigh(bs._pendulum_matrices(depth, ks, n_planewaves))[0][:, :3]
        doubled = 2 * n_planewaves + 1
        certified = bs._sturm_certified(depth, ks, doubled, vals)
        vals2 = np.linalg.eigvalsh(bs._pendulum_matrices(depth, ks, doubled))[:, :3]
        return certified, float(np.max(np.abs(vals - vals2)))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        depth=st.floats(0.0, 3000.0),
        n_planewaves=st.sampled_from(range(21, 42, 2)),
        n_k=st.integers(8, 64),
    )
    # U0 = 0: bands 1 and 2 meet at k = 0, bands 0 and 1 at k = -pi
    @example(depth=0.0, n_planewaves=33, n_k=64)
    @example(depth=0.0, n_planewaves=21, n_k=8)
    def test_passes_only_where_the_doubled_basis_agrees(self, depth, n_planewaves, n_k):
        certified, residual = self.certified_and_residual(depth, n_planewaves, n_k)
        if certified:
            assert residual <= bs.CONVERGENCE_TOL
        else:
            # it fails only where the dense check fails or comes near the
            # tolerance (the residual also rounds differently)
            assert residual > 0.5 * bs.CERTIFICATE_MARGIN * bs.CONVERGENCE_TOL

    @pytest.mark.parametrize("n_k", [8, 9, 64])
    def test_passes_on_the_free_particle_degeneracies(self, n_k):
        assert self.certified_and_residual(0.0, 33, n_k) == (True, 0.0)

    @pytest.mark.parametrize("depth, n_k", [(3.93, 64), (3.93, 40), (13.4, 25)])
    def test_working_points_solve_no_doubled_basis(self, monkeypatch, depth, n_k):
        # the model lattice at N = 64 and 40, the measurement lattice at 25
        def dense(*args, **kwargs):
            raise AssertionError("doubled basis solved densely")

        monkeypatch.setattr(np.linalg, "eigvalsh", dense)
        bs.bloch_spectrum(depth, n_k=n_k)


class TestTimeReversal:
    """``bloch_spectrum`` solves k <= 0 and takes k > 0 from -k."""

    @staticmethod
    def full_grid(u0: float, n_k: int) -> bs.BlochSpectrum:
        ks = bs.quasimomentum_grid(n_k)
        vals, vecs = np.linalg.eigh(bs._pendulum_matrices(u0, ks, 33))
        return bs.BlochSpectrum(ks, vals.T, vecs[:, :, 0], 33)

    @pytest.mark.parametrize("n_k", [8, 9, 25, 40, 64, 100])
    def test_bands_at_minus_k_bit_equal(self, n_k):
        spectrum = bs.bloch_spectrum(3.93, n_k=n_k)
        ks = spectrum.quasimomenta
        positive = np.flatnonzero(ks > 0)
        partner = [int(np.argmin(np.abs(ks + k))) for k in ks[positive]]
        assert np.allclose(ks[partner], -ks[positive], rtol=0, atol=1e-12)
        assert np.array_equal(spectrum.band_energies[:, positive], spectrum.band_energies[:, partner])
        reference = self.full_grid(3.93, n_k)
        assert np.allclose(spectrum.band_energies[:3], reference.band_energies[:3], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n_k", [8, 9, 25, 40, 100])
    @pytest.mark.parametrize("depth", [1.0, 3.93, 10.0])
    def test_wannier_matches_full_grid_solve(self, n_k, depth):
        halved = bs.wannier(bs.bloch_spectrum(depth, n_k=n_k))
        full = bs.wannier(self.full_grid(depth, n_k))
        scale = np.max(np.abs(full.wannier_0))
        assert np.max(np.abs(halved.wannier_0 - full.wannier_0)) <= 1e-14 * scale
        assert halved.sigma == pytest.approx(full.sigma, rel=1e-14)


class TestHopping:
    def test_lithium_depth_value(self, spectrum393):
        result = bs.hopping_exact(spectrum393)
        assert result.hop == pytest.approx(-0.09, rel=0.10)
        assert result.hop < 0
        assert result.tight_binding_valid

    def test_bandwidth_four_hops(self, spectrum393):
        result = bs.hopping_exact(spectrum393)
        assert abs(4 * abs(result.hop) - result.bandwidth) / result.bandwidth <= 0.05

    def test_free_particle_flags_invalid(self):
        result = bs.hopping_exact(bs.bloch_spectrum(0.0, n_k=64))
        assert not result.tight_binding_valid

    def test_tight_binding_reconstruction(self, spectrum393):
        # H0 + 2 hop cos(ka) reproduces the band to <= 5% of the bandwidth
        result = bs.hopping_exact(spectrum393)
        ks = spectrum393.quasimomenta
        rebuilt = result.center_energy + 2 * result.hop * np.cos(ks)
        err = np.max(np.abs(rebuilt - spectrum393.lowest_band()))
        assert err <= 0.05 * result.bandwidth

    def test_approx_values(self):
        assert bs.hopping_approx(3.93) == pytest.approx(0.0900, abs=1e-4)
        assert bs.hopping_approx(0.0) == pytest.approx(0.25, rel=1e-12)
        assert bs.hopping_approx(15.0) == pytest.approx(0.25 * np.exp(-3.9), rel=1e-12)

    def test_approx_tracks_exact_at_moderate_depth(self):
        spectrum = bs.bloch_spectrum(10.0, n_k=32)
        exact = abs(bs.hopping_exact(spectrum).hop)
        assert bs.hopping_approx(10.0) == pytest.approx(exact, rel=0.20)


class TestEffectiveMass:
    def test_two_forms_agree(self, spectrum393):
        result = bs.hopping_exact(spectrum393)
        from_bandwidth = bs.effective_mass(result.bandwidth)
        from_hop = 1.0 / (2 * abs(result.hop))
        assert from_bandwidth == pytest.approx(from_hop, rel=0.05)

    def test_inverse_proportionality(self):
        assert bs.effective_mass(0.2) == pytest.approx(2 * bs.effective_mass(0.4), rel=1e-12)

    def test_curvature_oracle_deep_lattice(self):
        # band-curvature mass; nearest-neighbor truncation good at U0 = 10
        spectrum = bs.bloch_spectrum(10.0, n_k=64)
        from_bandwidth = bs.effective_mass(bs.hopping_exact(spectrum).bandwidth)
        from_curvature = curvature_mass(spectrum)
        assert from_bandwidth == pytest.approx(from_curvature, rel=0.10)

    def test_free_mass_is_half_pi_squared(self):
        spectrum = bs.bloch_spectrum(0.0, n_k=64)
        assert curvature_mass(spectrum) == pytest.approx(np.pi**2 / 2, rel=1e-3)


@pytest.fixture(scope="module")
def basis():
    return bs.wannier(bs.bloch_spectrum(3.93, n_k=16), points_per_cell=64)


class TestWannier:
    def test_normalized(self, basis):
        assert np.sum(basis.wannier_0**2) * basis.dx == pytest.approx(1.0, abs=1e-10)

    def test_parseval(self, basis):
        # distinct modes integrate to N over the N-cell domain, so the
        # grid norm equals N times the coefficient norm
        coef_norm = np.sum(np.abs(basis.mode_amps) ** 2) * basis.site_count
        assert coef_norm == pytest.approx(1.0, abs=1e-10)

    def test_even_about_center(self, basis):
        xc = basis.centered_grid()
        chi = basis.wannier_0
        order = np.argsort(xc)
        x_sorted, chi_sorted = xc[order], chi[order]
        mirrored = np.interp(-x_sorted, x_sorted, chi_sorted)
        assert np.max(np.abs(chi_sorted - mirrored)) < 1e-8

    def test_orthonormal_translates(self, basis):
        chi0 = basis.site_function(0)
        chi1 = basis.site_function(1)
        assert np.sum(chi0 * chi1) * basis.dx == pytest.approx(0.0, abs=1e-8)
        assert np.sum(chi1**2) * basis.dx == pytest.approx(1.0, abs=1e-10)

    def test_exponential_localization(self, basis):
        xc = np.abs(basis.centered_grid())
        chi = np.abs(basis.wannier_0)
        assert np.max(chi[xc > 3.0]) < 1e-3 * np.max(chi)

    @pytest.mark.parametrize("site_count, ppc", [(8, 16), (9, 17), (25, 32)])
    def test_site_matrix_is_the_strided_translates(self, site_count, ppc):
        basis = bs.wannier(bs.bloch_spectrum(3.93, n_k=site_count), points_per_cell=ppc)
        for stride in range(1, 6):
            expected = [basis.site_function(j)[::stride] for j in range(basis.site_count)]
            assert np.array_equal(basis.site_matrix(stride), np.stack(expected)), stride

    def test_pickled_basis_builds_the_same_site_matrix(self):
        # sweep workers receive the basis pickled
        basis = bs.wannier(bs.bloch_spectrum(3.93, n_k=16), points_per_cell=16)
        restored = pickle.loads(pickle.dumps(basis))
        assert np.array_equal(restored.wannier_0, basis.wannier_0)
        for stride in (1, 4):
            assert np.array_equal(restored.site_matrix(stride), basis.site_matrix(stride))

    def test_hopping_matrix_element_matches_band_value(self, basis):
        # <chi_0|H|chi_1> via the plane-wave modes equals the Fourier hop
        freqs, amps = basis.mode_freqs, basis.mode_amps
        n = basis.site_count
        # H chi_0 in mode space: kinetic (f/pi)^2 plus cosine coupling
        grid, dx = basis.grid, basis.dx
        modes = np.exp(1j * np.outer(grid, freqs))
        h_chi = (modes * (freqs / np.pi) ** 2) @ amps
        h_chi += -0.5 * 3.93 * np.cos(2 * np.pi * grid) * (modes @ amps)
        chi1 = basis.site_function(1)
        element = np.sum(chi1 * h_chi.real) * dx
        hop = bs.hopping_exact(bs.bloch_spectrum(3.93, n_k=16)).hop
        assert element == pytest.approx(hop, rel=1e-6)
        assert element == pytest.approx(-0.09, rel=0.10)

    def test_momentum_transform_normalized(self, basis):
        p = 2 * np.pi / 314 * np.arange(-2000, 2001)
        density = np.abs(basis.momentum_transform(p)) ** 2
        assert np.trapezoid(density, p) == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(
        site_count=st.integers(8, 40),
        points_per_cell=st.sampled_from([16, 32, 64]),
        depth=st.floats(2.0, 15.0),
    )
    def test_wannier_matches_dense_mode_sum(self, site_count, points_per_cell, depth):
        basis = bs.wannier(bs.bloch_spectrum(depth, n_k=site_count), points_per_cell)
        dense = np.exp(1j * np.outer(basis.grid, basis.mode_freqs)) @ basis.mode_amps
        scale = np.max(np.abs(basis.wannier_0))
        assert np.max(np.abs(dense - basis.wannier_0)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "per_2pi, first",
        [
            (128, -300),     # the default-grid form, M = 8N
            (16, -40),       # M = N
            (5, -12),        # M < N: the sum needs a longer FFT than M ppc
            (37, 64 * 37),   # from 2 pi ppc on, past the transform's period
            (20, -64 * 20 - 7),
        ],
    )
    def test_momentum_transform_matches_riemann_sum(self, basis, per_2pi, first):
        p = 2 * np.pi / per_2pi * np.arange(first, first + 3 * per_2pi + 2)
        xc = basis.centered_grid()
        expected = (np.exp(-1j * np.outer(p, xc)) @ basis.wannier_0) * basis.dx / np.sqrt(2 * np.pi)
        assert np.max(np.abs(basis.momentum_transform(p) - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "p",
        [
            np.linspace(-40, 40, 4001),
            2 * np.pi / 64 * (np.arange(-50, 50) + 0.5),
            np.array([0.0]),
        ],
    )
    def test_momentum_transform_rejects_non_fourier_grid(self, basis, p):
        with pytest.raises(ValueError):
            basis.momentum_transform(p)

    @pytest.mark.parametrize("first", [0, 2400, 6400, -6400, 10**6])
    def test_fourier_indices_far_from_zero(self, first):
        # the spacing is 2 pi / M, not p[1] - p[0], whose rounding grows with |p|
        k, m = bs.fourier_indices(2 * np.pi / 64 * np.arange(first, first + 65), 8)
        assert m == 64
        assert np.array_equal(k, np.arange(first, first + 65))


class TestGaussianApprox:
    def test_sigma_lithium_depth(self):
        assert bs.gaussian_sigma(3.93) == pytest.approx(0.19, abs=0.005)

    def test_sigma_depth_scaling(self):
        # sigma ~ U0^(-1/4)
        assert bs.gaussian_sigma(16.0) / bs.gaussian_sigma(1.0) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_diverges_at_zero_depth(self):
        with pytest.raises(ValueError):
            bs.gaussian_sigma(0.0)

    def test_fidelity_above_98_percent_for_deep_lattice(self):
        for u0 in (6.0, 10.0):
            _, fidelity = bs.gaussian_approx(u0)
            assert fidelity > 0.98

    def test_gaussian_hopping_not_trustworthy(self):
        # the non-Gaussian tails matter: the Gaussian estimate drifts from
        # the band value as the lattice deepens (33% at U0 = 6)
        spectrum = bs.bloch_spectrum(6.0, n_k=32)
        exact = bs.hopping_exact(spectrum).hop
        gauss = bs.gaussian_hopping(6.0)
        assert abs(gauss - exact) / abs(exact) > 0.25
