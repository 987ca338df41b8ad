"""Two-atom Hamiltonian assembly, diagonalization and pair-band physics."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, diagonalized, model_for
from latticeepr import two_atom as ta
from latticeepr.constants import KB


def bound_band_edges(hop: float, vdd: float) -> tuple[float, float]:
    """Analytic pair band of the infinite lattice: the bound state at total
    quasimomentum K has energy -sqrt(vdd^2 + 16 hop^2 cos^2(K/2))."""
    u, t = abs(vdd), abs(hop)
    return -np.sqrt(u**2 + 16 * t**2), -u


class TestBuild:
    def test_hermitian(self):
        ham = ta.build(model_for(-0.0881, -0.4693))
        matrix = dense(ham)
        assert np.array_equal(matrix, matrix.T)

    def test_three_site_noninteracting_tensor_sums(self):
        ham = ta.build(model_for(-1.0, 0.0, site_count=3, boundary="open"))
        spectrum = ta.diagonalize(ham)
        single = sorted((-np.sqrt(2), 0.0, np.sqrt(2)))
        sums = sorted(a + b for a, b in itertools.product(single, repeat=2))
        assert np.allclose(spectrum.eigenvalues, sums, atol=1e-12)

    def test_noninteracting_factorization(self):
        model = model_for(-0.0881, 0.0)
        single = ta.single_atom_matrix(model.site_count, model.hop, model.boundary)
        singles = scipy.linalg.eigvalsh(single)
        sums = np.sort(np.add.outer(singles, singles).ravel())
        spectrum = ta.diagonalize(ta.build(model))
        assert np.allclose(spectrum.eigenvalues, sums, atol=1e-8)

    def test_four_site_brute_force(self):
        # enumerate the 16x16 matrix element by element, independently
        model = model_for(-0.7, -1.3, site_count=4, boundary="periodic")
        n = 4
        brute = np.zeros((16, 16))
        for j, l in itertools.product(range(n), repeat=2):
            row = j * n + l
            if j == l:
                brute[row, row] += model.vdd
            for jp in ((j + 1) % n, (j - 1) % n):
                brute[row, jp * n + l] += model.hop
            for lp in ((l + 1) % n, (l - 1) % n):
                brute[row, j * n + lp] += model.hop
        built = dense(ta.build(model))
        assert np.array_equal(brute, built)
        assert np.allclose(
            scipy.linalg.eigvalsh(brute), ta.diagonalize(ta.build(model)).eigenvalues
        )

    def test_spectral_sum_rule(self):
        ham = ta.build(model_for(-0.0881, -0.4693))
        spectrum = ta.diagonalize(ham)
        trace = np.trace(dense(ham))
        total = np.sum(spectrum.eigenvalues)
        assert total == pytest.approx(trace, rel=1e-8, abs=1e-10)

    def test_exchange_symmetry(self):
        spectrum = diagonalized(-0.0881, -0.4693)
        swapped = [ta.TwoAtomState(spectrum.state(i).amplitudes.T.copy()) for i in range(6)]
        for i, state in enumerate(swapped):
            # nondegenerate eigenvectors have definite swap parity
            gap_below = np.inf if i == 0 else spectrum.eigenvalues[i] - spectrum.eigenvalues[i - 1]
            gap_above = spectrum.eigenvalues[i + 1] - spectrum.eigenvalues[i]
            if min(gap_below, gap_above) < 1e-10:
                continue
            overlap = np.vdot(spectrum.state(i).vector(), state.vector())
            assert abs(abs(overlap) - 1.0) < 1e-8


class TestDiagonalize:
    def test_eigen_residuals(self):
        ham = ta.build(model_for(-0.0881, -0.4693))
        spectrum = ta.diagonalize(ham)
        matrix = dense(ham)
        scale = np.max(np.abs(spectrum.eigenvalues))
        for i in (0, 100, 600):
            vec = spectrum.state(i).vector()
            residual = matrix @ vec - spectrum.eigenvalues[i] * vec
            assert np.max(np.abs(residual)) <= 1e-8 * scale

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_eigenpair_residual_kept(self, lithium_config, boundary):
        spectrum = ta.diagonalize(ta.build(lithium_config.model(boundary=boundary)))
        scale = np.max(np.abs(spectrum.eigenvalues))
        assert np.isfinite(spectrum.eigenpair_residual)
        assert 0.0 < spectrum.eigenpair_residual <= 1e-8 * scale

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        site_count=st.integers(3, 12),
        hop=st.floats(-1.0, 1.0, allow_subnormal=False),
        vdd=st.one_of(st.floats(-4.0, -0.01), st.just(0.0), st.floats(0.01, 4.0)),
    )
    def test_blocks_match_dense_reference(self, site_count, hop, vdd):
        ham = ta.build(model_for(hop, vdd, site_count=site_count))
        matrix = dense(ham)
        reference = scipy.linalg.eigvalsh(matrix)
        scale = np.max(np.abs(reference)) or 1.0
        spectrum = ta.diagonalize(ham)
        assert np.allclose(spectrum.eigenvalues, reference, rtol=0, atol=1e-12 * scale)
        vectors = np.array([spectrum.state(i).vector() for i in range(site_count**2)]).T
        residual = matrix @ vectors - vectors * spectrum.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-10 * scale
        gram = vectors.conj().T @ vectors
        assert np.allclose(gram, np.eye(site_count**2), rtol=0, atol=1e-12)

    def test_free_ring_beyond_40_sites(self):
        # V_dd = 0: every one of the N^2 states is a sum of two free-atom
        # energies 2 V_hop cos k, k = 2 pi q / N
        n, hop = 100, -0.0881
        spectrum = ta.diagonalize(ta.build(model_for(hop, 0.0, site_count=n)))
        single = 2 * hop * np.cos(2 * np.pi * np.arange(n) / n)
        sums = np.sort(np.add.outer(single, single).ravel())
        assert spectrum.eigenvalues.shape == (n * n,)
        assert np.allclose(spectrum.eigenvalues, sums, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "hop, vdd, site_count",
        [
            pytest.param(-0.0881, -1.0, 25, id="25"),
            pytest.param(-0.0881, -1.0, 40, id="40"),
            pytest.param(-0.0881, -1.0, 60, id="60"),
            # the lithium point of configs/lithium.ini, where the band is
            # wider than its gap to the continuum from N = 50 on; lambda <= 0.34
            pytest.param(-0.088112203682, -0.4693, 50, id="lithium-50"),
            pytest.param(-0.088112203682, -0.4693, 60, id="lithium-60"),
            pytest.param(-0.088112203682, -0.4693, 100, id="lithium-100"),
        ],
    )
    def test_bound_band_closed_form(self, hop, vdd, site_count):
        # |V_dd| > 4 |V_hop| puts all N pairs below the continuum, at
        # E_K = -sqrt(V_dd^2 + 16 V_hop^2 cos^2(K/2)); the ring's finite-size
        # shift is ~lambda^N with lambda <= 0.17 at |V_dd| = 1
        spectrum = ta.diagonalize(ta.build(model_for(hop, vdd, site_count=site_count)))
        k = 2 * np.pi * np.arange(site_count) / site_count
        band = np.sort(-np.sqrt(vdd**2 + 16 * hop**2 * np.cos(k / 2) ** 2))
        assert np.allclose(spectrum.eigenvalues[:site_count], band, rtol=0, atol=1e-12)
        assert np.array_equal(spectrum.diatom_band, np.arange(site_count))

    def test_no_split_band_without_interaction(self):
        for boundary in ("periodic", "open"):
            spectrum = diagonalized(-0.0355, 0.0, boundary=boundary)
            assert len(spectrum.diatom_band) == 0
            assert spectrum.split_gap == 0.0

    def test_whole_band_below_continuum_at_weak_binding(self):
        # V_dd = 0.4 > 4 |V_hop| = 0.352: every block binds one pair, and
        # the band top -0.4006 lies below the continuum bottom -0.352
        spectrum = diagonalized(-0.088112203682, -0.4)
        assert np.array_equal(spectrum.diatom_band, np.arange(25))
        assert spectrum.split_gap > 0
        assert spectrum.split_gap == pytest.approx(0.05138, abs=1e-5)

    def test_band_overlapping_the_continuum(self):
        # V_dd = 0.1 < 4 |V_hop|: the pairs near K = pi lie above the
        # continuum bottom of the blocks near K = 0
        spectrum = diagonalized(-0.088112203682, -0.1)
        band = spectrum.diatom_band
        assert np.all(np.diff(band) > 0)
        assert band[-1] >= band.size
        lo, hi = spectrum.diatom_band_edges
        assert hi > 4 * -0.088112203682
        assert spectrum.split_gap < 0
        # at most one bound pair per block, and each block's edge is
        # -4 |V_hop cos(K/2)|
        blocks = spectrum.order[band] // 25
        assert np.unique(blocks).size == band.size
        edges = -4 * 0.088112203682 * np.abs(np.cos(spectrum.quasimomenta[blocks] / 2))
        assert np.all(spectrum.eigenvalues[band] < edges)

    def test_split_band_full_size_at_strong_binding(self):
        spectrum = diagonalized(-0.0355, -0.5)
        assert len(spectrum.diatom_band) == 25

    def test_split_band_grows_with_interaction(self):
        gaps = []
        for vdd in (0.5, 1.0, 1.5, 2.0, 2.5):
            spectrum = diagonalized(-0.0355, -vdd)
            assert len(spectrum.diatom_band) == 25
            lo, hi = spectrum.diatom_band_edges
            gaps.append(spectrum.split_gap)
            # edges track the analytic bound band
            alo, ahi = bound_band_edges(-0.0355, -vdd)
            assert lo == pytest.approx(alo, abs=2e-3)
            assert hi == pytest.approx(ahi, abs=2e-3)
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_bandwidth_quadratic_in_hop(self):
        # pair bandwidth ~ hop^2 at fixed interaction (log-log slope 2 +- 0.2)
        hops = np.array([0.02, 0.04, 0.06, 0.08, 0.1])
        widths = []
        for hop in hops:
            spectrum = diagonalized(-float(hop), -2.16)
            lo, hi = spectrum.diatom_band_edges
            widths.append(hi - lo)
        slope = np.polyfit(np.log(hops), np.log(widths), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_lithium_point_binds_below_pair_energy(self):
        spectrum = diagonalized(-0.0881, -0.4693)
        assert spectrum.eigenvalues[0] < -0.4693
        assert spectrum.eigenvalues[0] == pytest.approx(
            bound_band_edges(-0.0881, -0.4693)[0], abs=1e-3
        )


class TestOpenChain:
    """The free open chain is solved as its atom-swap blocks: the even
    states (|jl> + |lj>) / sqrt(2) and |jj>, and the odd (|jl> - |lj>) / sqrt(2)."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        site_count=st.integers(3, 10),
        hop=st.floats(-1.0, 1.0, allow_subnormal=False),
        vdd=st.one_of(st.floats(-4.0, -0.01), st.just(0.0), st.floats(0.01, 4.0)),
    )
    def test_swap_blocks_match_dense_reference(self, site_count, hop, vdd):
        ham = ta.build(model_for(hop, vdd, site_count=site_count, boundary="open"))
        matrix = dense(ham)
        reference = scipy.linalg.eigvalsh(matrix)
        scale = max(1.0, np.max(np.abs(reference)))
        spectrum = ta.diagonalize(ham)
        even = site_count * (site_count + 1) // 2
        odd = site_count * (site_count - 1) // 2
        assert [v.shape for v in spectrum.block_vectors] == [(even, even), (odd, odd)]
        assert np.max(np.abs(spectrum.eigenvalues - reference)) <= 1e-12 * scale
        for i in range(site_count**2):
            amplitudes = spectrum.state(i).amplitudes
            vec = amplitudes.ravel()
            residual = matrix @ vec - spectrum.eigenvalues[i] * vec
            assert np.max(np.abs(residual)) <= 1e-10 * scale
            swapped = amplitudes.T
            assert np.array_equal(swapped, amplitudes) or np.array_equal(swapped, -amplitudes)
        for i in spectrum.diatom_band:
            amplitudes = spectrum.state(i).amplitudes
            assert np.array_equal(amplitudes.T, amplitudes)

    def test_memory_at_40_sites(self):
        # the dense N^2 x N^2 solve peaked at 78 MiB; the two swap blocks
        # at about 30 MiB
        ham = ta.build(model_for(-0.088112203682, -0.4693, site_count=40, boundary="open"))
        tracemalloc.start()
        try:
            spectrum = ta.diagonalize(ham)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectrum.eigenvalues.shape == (1600,)
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("tilt", [(0.0, 0.0), (-0.0, 0.0)], ids=["zero", "negative-zero"])
    def test_untilted_solved(self, tilt):
        # -0.0 counts as no tilt
        for boundary in ("open", "periodic"):
            model = model_for(-0.0881, -0.4693, boundary=boundary)
            free = ta.diagonalize(ta.build(model)).eigenvalues
            assert np.array_equal(ta.diagonalize(ta.build(model, tilt)).eigenvalues, free)

    @pytest.mark.parametrize("tilt", [(0.01, 0.0), (0.0, 0.01)], ids=["atom1", "atom2"])
    def test_tilt_refused(self, tilt):
        # a tilted model is propagated, never diagonalized
        for boundary in ("open", "periodic"):
            tilted = ta.build(model_for(-0.0881, -0.4693, boundary=boundary), tilt)
            with pytest.raises(ValueError, match="free models only"):
                ta.diagonalize(tilted)


def every_ring_block(ham: ta.TwoAtomHamiltonian) -> np.ndarray:
    """All N relative-coordinate blocks of a free ring, each built from its
    own K = 2 pi m / N: hop 2 V_hop cos(K/2), wrap sign (-1)^m, V_dd at r = 0."""
    n = ham.site_count
    m = np.arange(n)
    t = 2 * ham.hop * np.cos(np.pi * m / n)
    blocks = np.zeros((n, n, n))
    r = np.arange(n - 1)
    blocks[:, r, r + 1] = blocks[:, r + 1, r] = t[:, None]
    blocks[:, 0, n - 1] = blocks[:, n - 1, 0] = t * (-1.0) ** m
    blocks[:, 0, 0] = ham.vdd
    return blocks


class TestTimeReversal:
    """The ring solves blocks m = 0..N//2; block N - m is block m in the
    gauge g(r) -> (-1)^r g(r)."""

    SITES = [3, 8, 9, 25, 40, 100]

    @pytest.fixture(params=SITES, ids=[f"N{n}" for n in SITES])
    def ring(self, request):
        ham = ta.build(model_for(-0.088112203682, -0.4693, site_count=request.param))
        return ham, ta.diagonalize(ham)

    @staticmethod
    def block_eigenvalues(spectrum: ta.SpectrumResult) -> np.ndarray:
        """(N, N) eigenvalues by block: row m holds block m's columns."""
        n = spectrum.site_count
        vals = np.empty(n * n)
        vals[spectrum.order] = spectrum.eigenvalues
        return vals.reshape(n, n)

    def test_matches_a_solve_of_every_block(self, ring):
        ham, spectrum = ring
        n = ham.site_count
        assert spectrum.block_vectors.shape == (n // 2 + 1, n, n)
        reference = np.sort(np.linalg.eigvalsh(every_ring_block(ham)), axis=None)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(spectrum.eigenvalues - reference)) <= 1e-14 * scale

    def test_partner_blocks_bit_equal(self, ring):
        _, spectrum = ring
        n = spectrum.site_count
        vals = self.block_eigenvalues(spectrum)
        assert np.array_equal(vals, vals[(n - np.arange(n)) % n])

    def test_residual_over_every_block(self, ring):
        ham, spectrum = ring
        n = ham.site_count
        solved, _, _ = ta._symmetry_blocks(ham)
        vecs = spectrum.block_vectors
        vals = self.block_eigenvalues(spectrum)
        worst = np.max(np.abs(solved @ vecs - vecs * vals[: n // 2 + 1, None, :]))
        # the gauge maps each solved block and its vectors onto the partner
        m = np.arange(n)
        sign = np.where(m > n // 2, -1.0, 1.0)[:, None] ** np.arange(n)
        mirror = np.minimum(m, n - m)
        blocks = solved[mirror] * sign[:, :, None] * sign[:, None, :]
        vectors = vecs[mirror] * sign[:, :, None]
        every = np.max(np.abs(blocks @ vectors - vectors * vals[:, None, :]))
        assert every == worst == spectrum.eigenpair_residual
        # and onto the block built from the partner's own K
        direct = every_ring_block(ham)
        assert np.max(np.abs(blocks - direct)) <= 1e-15 * abs(ham.hop)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(direct @ vectors - vectors * vals[:, None, :])) <= 1e-14 * scale

    def test_state_at_minus_k_is_the_conjugate(self, ring):
        # H is real, so c(-K) = conj c(K); K = pi is its own partner only up
        # to the gauge (-1)^r and is left out
        _, spectrum = ring
        n = spectrum.site_count
        band = spectrum.diatom_band
        blocks = spectrum.order[band] // n
        assert band.size == n  # |V_dd| > 4 |V_hop|: one pair per block
        for i, m in zip(band, blocks):
            if 2 * m == n:
                continue
            (j,) = band[blocks == (n - m) % n]
            c, c_minus = spectrum.state(i), spectrum.state(j)
            assert c.quasimomentum + c_minus.quasimomentum == pytest.approx(
                2 * np.pi * (c.quasimomentum > 0), abs=1e-12
            )
            assert np.max(np.abs(c_minus.amplitudes - c.amplitudes.conj())) <= 1e-13


class TestGroundState:
    def test_zero_hop_exactly_diagonal(self):
        spectrum = diagonalized(0.0, -1.0)
        state = spectrum.state(0)
        assert state.diagonal_weight() == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_weight_strong_binding(self):
        state = diagonalized(-0.0355, -1.0).state(0)
        assert state.diagonal_weight() >= 0.99

    def test_diagonal_weight_weak_binding(self):
        state = diagonalized(-0.0355, -0.10).state(0)
        assert state.diagonal_weight() < 0.9

    def test_overlap_with_uniform_comb(self):
        spectrum = diagonalized(-0.0355, -1.0)
        state = spectrum.state(0)
        n = state.site_count
        uniform = np.sum(np.diag(state.amplitudes)) / np.sqrt(n)
        eta = 0.0355 / 1.0
        assert abs(uniform) ** 2 > 1 - 2.5 * 4 * eta**2

    def test_amplitude_halo_matches_bound_state(self):
        # c_{j, j+1} / c_{j, j} equals (sqrt(U^2+16t^2) - U) / 4t
        t, u = 0.05, 1.0
        state = diagonalized(-t, -u).state(0)
        c = state.amplitudes.real
        measured = c[12, 13] / c[12, 12]
        lam = (np.sqrt(u**2 + 16 * t**2) - u) / (4 * t)
        assert measured == pytest.approx(lam, rel=1e-3)


class TestPairFormulas:
    def test_hopping_value(self):
        assert ta.diatom_hopping(-0.09, -0.5) == pytest.approx(-0.0324, rel=1e-12)

    def test_hopping_zero(self):
        assert ta.diatom_hopping(0.0, -0.5) == 0.0

    def test_hopping_needs_interaction(self):
        with pytest.raises(ValueError):
            ta.diatom_hopping(-0.09, 0.0)

    def test_bandwidth_matches_diagonalization(self):
        spectrum = diagonalized(-0.0881, -0.4693)
        lo, hi = spectrum.diatom_band_edges
        assert (hi - lo) == pytest.approx(
            ta.diatom_bandwidth(-0.0881, -0.4693), rel=0.20
        )

    def test_effective_mass_value(self):
        mass = ta.diatom_effective_mass(-0.09, -0.5)
        assert mass == pytest.approx(0.5 / (4 * 0.09**2), rel=1e-12)

    def test_mass_ratio_to_single_atom(self):
        # pair mass / single-atom mass = |hop| / |pair hop|
        single = 1.0 / (2 * 0.09)
        pair = ta.diatom_effective_mass(-0.09, -0.5)
        assert pair / single == pytest.approx(0.09 / 0.0324, rel=1e-10)

    def test_mass_linear_in_interaction(self):
        assert ta.diatom_effective_mass(-0.09, -1.0) == pytest.approx(
            2 * ta.diatom_effective_mass(-0.09, -0.5), rel=1e-12
        )

    def test_mass_curvature_oracle(self):
        # compare with the curvature of the diagonalized pair band at its
        # bottom (ring quasimomenta K_n = 2 pi n / N)
        t, u, n = 0.0355, 0.5, 25
        spectrum = diagonalized(-t, -u)
        band = np.sort(spectrum.eigenvalues[list(spectrum.diatom_band)])
        dk = 2 * np.pi / n
        curvature = 2 * (band[1] - band[0]) / dk**2  # band[1] is the K = +-dk pair
        assert 1.0 / curvature == pytest.approx(
            ta.diatom_effective_mass(-t, -u), rel=0.20
        )


class TestThermalState:
    def test_zero_temperature_ground_state_only(self):
        spectrum = diagonalized(-0.0881, -0.4693)
        thermal = ta.thermal_state(spectrum, 0.0, 1.81e-28)
        assert thermal.indices[np.argmax(thermal.weights)] == 0
        assert np.max(thermal.weights) == pytest.approx(1.0, abs=1e-12)

    def test_boltzmann_ratio_at_bandwidth_temperature(self):
        spectrum = diagonalized(-0.0881, -0.4693)
        erec = 1.8101785620944626e-28
        band = spectrum.eigenvalues[list(spectrum.diatom_band)]
        temperature = (band[-1] - band[0]) * erec / KB
        thermal = ta.thermal_state(spectrum, temperature, erec)
        energies = spectrum.eigenvalues[thermal.indices]
        top = thermal.weights[np.argmax(energies)]
        bottom = thermal.weights[np.argmin(energies)]
        assert top / bottom == pytest.approx(np.exp(-1.0), rel=1e-6)

    def test_weights_normalized(self):
        spectrum = diagonalized(-0.0881, -0.4693)
        thermal = ta.thermal_state(spectrum, 1e-7, 1.81e-28)
        assert np.sum(thermal.weights) == pytest.approx(1.0, abs=1e-12)

    def test_negative_temperature_rejected(self):
        spectrum = diagonalized(-0.0881, -0.4693)
        with pytest.raises(ValueError):
            ta.thermal_state(spectrum, -1.0, 1.81e-28)


class TestExternalPotential:
    # the tilt is the lattice's linear external potential: -s j on site j

    def test_linear_site_energies(self):
        model = model_for(-0.1, 0.0, site_count=5, boundary="open")
        diagonal = ta.build(model, (0.04, 0.04)).diagonal
        assert np.allclose(diagonal[:, 0], -0.04 * np.arange(5))
        assert np.allclose(diagonal[0, :], -0.04 * np.arange(5))

    def test_species_selection(self):
        model = model_for(-0.1, 0.0, site_count=4, boundary="open")
        diag = np.diag(dense(ta.build(model, (0.04, 0.0)))).reshape(4, 4)
        # energy depends on the first index only
        assert np.allclose(diag, diag[:, :1])
        assert not np.allclose(diag, diag[:1, :])
        diag = np.diag(dense(ta.build(model, (0.0, 0.04)))).reshape(4, 4)
        # and on the second index only
        assert np.allclose(diag, diag[:1, :])
        assert not np.allclose(diag, diag[:, :1])


class TestTilt:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        site_count=st.integers(3, 10),
        boundary=st.sampled_from(["open", "periodic"]),
        vdd=st.floats(-4.0, 4.0),
        tilt=st.tuples(*[st.floats(-0.5, 0.5, allow_subnormal=False)] * 2),
    )
    def test_diagonal_is_the_outer_sum(self, site_count, boundary, vdd, tilt):
        # D_jl = -t1 j - t2 l + V_dd delta_jl, entry by entry
        diagonal = ta.build(model_for(-0.1, vdd, site_count, boundary), tilt).diagonal
        t1, t2 = tilt
        want = np.array(
            [
                [-t1 * j - t2 * l + (vdd if j == l else 0.0) for l in range(site_count)]
                for j in range(site_count)
            ]
        )
        assert np.array_equal(diagonal, want)

    @pytest.mark.parametrize("slope", [np.nan, np.inf, -np.inf])
    def test_nonfinite_slope_refused(self, slope):
        model = model_for(-0.1, 0.0, site_count=4, boundary="open")
        for tilt in ((slope, 0.0), (0.0, slope)):
            with pytest.raises(ValueError, match="finite"):
                ta.build(model, tilt)
