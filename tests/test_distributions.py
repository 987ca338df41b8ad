"""Joint distributions, conditionals, correlation widths and references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    diagonal_sums,
    diagonalized,
    gathered_momentum_density,
    lithium_protocol,
    model_for,
    per_state_momentum_power,
    tiled_ring_position_density,
    wannier_basis,
)
from latticeepr import cli
from latticeepr import distributions as dist
from latticeepr import two_atom as ta
from latticeepr.constants import HBAR, KB


def product_state(n: int, site1: int, site2: int) -> ta.TwoAtomState:
    amp = np.zeros((n, n), dtype=complex)
    amp[site1, site2] = 1.0
    return ta.TwoAtomState(amp)


def uniform_comb(n: int) -> ta.TwoAtomState:
    amp = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(amp, 1.0 / np.sqrt(n))
    return ta.TwoAtomState(amp)


class TestPositionJoint:
    def test_single_site_product_peak(self, wannier393):
        state = product_state(25, 12, 12)
        joint = dist.position_joint(state, wannier393)
        assert joint.mass == pytest.approx(1.0, abs=1e-8)
        i, j = np.unravel_index(np.argmax(joint.density), joint.density.shape)
        assert joint.axis1[i] == pytest.approx(12.0, abs=0.02)
        assert joint.axis2[j] == pytest.approx(12.0, abs=0.02)
        # per-axis spread of the single peak is the Wannier width
        marginal = dist.axis_marginal(joint, 1)
        assert dist.distribution_sigma(marginal) == pytest.approx(
            wannier393.sigma, rel=0.02
        )

    def test_uniform_comb_diagonal_peaks(self, wannier393):
        n = 25
        joint = dist.position_joint(uniform_comb(n), wannier393)
        marginal = dist.axis_marginal(joint, 1)
        assert dist.comb_spacing(marginal) == pytest.approx(1.0, abs=0.02)
        # peak heights are equal on the ring
        inner = np.arange(1, marginal.grid.size - 1)
        peaks = inner[
            (marginal.density[inner] > marginal.density[inner - 1])
            & (marginal.density[inner] > marginal.density[inner + 1])
            & (marginal.density[inner] > 0.5 * np.max(marginal.density))
        ]
        assert peaks.size == n
        heights = marginal.density[peaks]
        assert np.max(heights) / np.min(heights) < 1.01
        # the mass hugs the x1 = x2 line (which wraps around the ring, so
        # u = x1 - x2 is diagonal both near 0 and near +-N); the Wannier
        # density tails are exponential, not Gaussian, hence the 1% slack
        diff = dist.difference_marginal(joint)
        near = (np.abs(diff.grid) < 1.5) | (np.abs(diff.grid) > n - 1.5)
        assert np.sum(diff.density[near]) / np.sum(diff.density) > 0.99
        central = dist.central_peak_width(diff)
        assert central.center == pytest.approx(0.0, abs=0.02)

    def test_resolution_floor(self, fig7a_state):
        basis = wannier_basis(3.93, points_per_cell=8)
        with pytest.raises(ValueError, match="16"):
            dist.position_joint(fig7a_state, basis)

    def test_pair_halo_shoulder_weight(self, wannier393):
        # conditional shoulders at one site offset carry the bound-state
        # halo weight lambda^2 = ((sqrt(U^2+16t^2)-U)/4t)^2 per side
        t, u = 0.0355, 1.0
        state = diagonalized(-t, -u).state(0)
        lam = (np.sqrt(u**2 + 16 * t**2) - u) / (4 * t)
        c = state.amplitudes.real
        shoulder = (c[12, 13] / c[12, 12]) ** 2
        assert shoulder == pytest.approx(lam**2, rel=1e-3)


def full_grid_position_density(states, weights, basis) -> np.ndarray:
    """sum_n w_n |S^T C_n S|^2 over the whole Wannier grid (S the site
    matrix): the joint position density computed without symmetry."""
    site_matrix = basis.site_matrix()
    return sum(
        w * np.abs(site_matrix.T @ s.amplitudes @ site_matrix) ** 2
        for s, w in zip(states, weights)
    )


def lithium_ring_mixture(site_count: int, kind: str = "position"):
    """The thermal pair-band states of the lithium ring on ``site_count``
    sites at the temperature of the ``kind`` joint (10 nK position,
    100 nK momentum), their weights and the K of each one's block."""
    import dataclasses

    from latticeepr.parameters import lithium_default

    config = dataclasses.replace(lithium_default(), site_count=site_count)
    model = config.model(boundary="periodic")
    spectrum = diagonalized(model.hop, model.vdd, site_count)
    temperature = (
        config.temperature_position_k if kind == "position" else config.temperature_momentum_k
    )
    thermal = ta.thermal_state(spectrum, temperature, model.recoil_energy)
    blocks = spectrum.order[thermal.indices] // site_count
    return thermal.states(spectrum), thermal.weights, spectrum.quasimomenta[blocks]


def assert_ring_covariant(states, quasimomenta) -> None:
    """Each state carries its block's K and obeys c_{j+1,l+1} = e^{iK} c_jl
    to 1e-12 of max|C|; the phases e^{iK(j + r/2)} round to ~N 1e-15."""
    for state, k in zip(states, quasimomenta):
        assert state.quasimomentum == k
        c = state.amplitudes
        shifted = np.exp(1j * k) * np.roll(c, (1, 1), axis=(0, 1))
        assert np.max(np.abs(c - shifted)) <= 1e-12 * np.max(np.abs(c))


def general_path_calls(monkeypatch) -> list:
    """Records each call of the full-grid amplitude (the general path)."""
    calls = []
    amplitude = dist._position_amplitude

    def recording(state, site_matrix):
        calls.append(site_matrix.shape)
        return amplitude(state, site_matrix)

    monkeypatch.setattr(dist, "_position_amplitude", recording)
    return calls


class TestRingPositionJoint:
    """Ring eigenstates carry their K, and their thermal position density
    is built from the rows of one lattice cell; every other input takes the
    full-grid product."""

    @pytest.mark.parametrize("n", [25, 40])
    def test_thermal_ring_matches_full_grid(self, n, monkeypatch):
        states, weights, quasimomenta = lithium_ring_mixture(n)
        assert len(states) > 1
        assert_ring_covariant(states, quasimomenta)
        basis = wannier_basis(13.4, site_count=n, points_per_cell=32)
        calls = general_path_calls(monkeypatch)
        joint = dist.thermal_position_joint(states, weights, basis)
        assert calls == []
        want = full_grid_position_density(states, weights, basis)
        assert np.max(np.abs(joint.density - want)) <= 1e-14 * np.max(want)
        assert np.array_equal(joint.axis1, basis.grid)

    def test_ring_states_covariant_at_100_sites(self):
        # the full-grid density is too costly here (~9 s, ~500 MB)
        states, _, quasimomenta = lithium_ring_mixture(100)
        assert_ring_covariant(states, quasimomenta)

    def test_ring_comb_matches_full_grid(self, wannier393, monkeypatch):
        # a facing-site comb with a quasimomentum phase, c_jj = e^{iKj}/sqrt N
        n = 25
        k = 2.0 * np.pi * 3 / n
        amp = np.diag(np.exp(1j * k * np.arange(n))) / np.sqrt(n)
        state = ta.TwoAtomState(amp, quasimomentum=k)
        calls = general_path_calls(monkeypatch)
        joint = dist.position_joint(state, wannier393)
        assert calls == []
        want = full_grid_position_density([state], [1.0], wannier393)
        assert np.max(np.abs(joint.density - want)) <= 1e-14 * np.max(want)

    def test_states_without_ring_symmetry_take_full_grid(self, wannier393, monkeypatch):
        _, _, tilted, psi0 = lithium_protocol()
        ring_state = lithium_ring_mixture(25)[0][0]
        open_chain = ta.diagonalize(ta.build(model_for(-0.088, -0.469, boundary="open")))
        cases = {
            "open chain": [open_chain.state(0)],
            "tilted": [ta.TwoAtomState(tilted.propagate(psi0.amplitudes, 50.0))],
            "product": [product_state(25, 12, 12)],
            "initial comb": [psi0],
            "ring state from its vector": [ta.TwoAtomState.from_vector(ring_state.vector(), 25)],
            # one state with a K does not give the mixture the one-cell path
            "mixture": [ring_state, product_state(25, 3, 4)],
        }
        for name, states in cases.items():
            weights = np.full(len(states), 1.0 / len(states))
            calls = general_path_calls(monkeypatch)
            joint = dist.thermal_position_joint(states, weights, wannier393)
            assert len(calls) == len(states), name
            want = full_grid_position_density(states, weights, wannier393)
            assert np.array_equal(joint.density, want), name

    def test_strided_grid_takes_full_grid(self, monkeypatch):
        states, weights, _ = lithium_ring_mixture(25)
        basis = wannier_basis(13.4, site_count=25, points_per_cell=32)
        calls = general_path_calls(monkeypatch)
        joint = dist.thermal_position_joint(states, weights, basis, stride=3)
        assert len(calls) == len(states)
        want = full_grid_position_density(states, weights, basis)[::3, ::3]
        assert np.max(np.abs(joint.density - want)) <= 1e-14 * np.max(want)


def assert_reads_like_array(joint, oracle, axis_rtol: float = 0.0) -> None:
    """Every consumer of ``joint`` gives, bit for bit, what it gave when
    the joint held the ``oracle`` array (the old full-grid expressions on
    that array), except the single-axis marginals, which agree to
    ``axis_rtol`` of their maximum (a factored momentum joint sums its
    factors, not its rows); ``mass`` agrees to a relative 1e-13."""
    n = joint.axis1.size
    step = joint.axis1[1] - joint.axis1[0]
    assert np.array_equal(dist.difference_marginal(joint).density, diagonal_sums(oracle, -1) * step)
    assert np.array_equal(dist.sum_marginal(joint).density, diagonal_sums(oracle, +1) * step)
    stride = cli.plot_stride(n)
    for read, array in ((joint, oracle), (cli.decimate_joint(joint), oracle[::stride, ::stride])):
        cell = read.axis1[1] - read.axis1[0]
        for atom, sums in ((1, array.sum(axis=1)), (2, array.sum(axis=0))):
            got, want = dist.axis_marginal(read, atom).density, sums * cell
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= axis_rtol * np.max(want), atom
    middle = n // 2
    bin_width = 4.5 * step
    inside = np.abs(joint.axis1 - joint.axis1[middle]) <= bin_width / 2.0
    for which, lines in ((1, oracle), (2, oracle.T)):
        for idx in (n // 3 + 1, middle, int(np.argmin(np.abs(joint.axis1 - np.pi / 2)))):
            line = lines[idx].copy()
            got = dist.conditional(joint, joint.axis1[idx], which_atom=which)
            assert np.array_equal(got.density, line / (np.sum(line) * step)), (which, idx)
        binned = oracle[inside].sum(axis=0) if which == 1 else oracle[:, inside].sum(axis=1)
        got = dist.conditional(joint, joint.axis1[middle], which_atom=which, bin_width=bin_width)
        assert np.array_equal(got.density, binned / (np.sum(binned) * step)), which
    assert np.array_equal(cli.decimate_joint(joint).density, oracle[::stride, ::stride])
    assert joint.mass == pytest.approx(np.sum(oracle) * joint.cell_area, rel=1e-13)
    assert np.array_equal(joint.density, oracle)


def assert_power_matches_per_state(joint, states, weights, rtol: float = 1e-13) -> None:
    """The joint's power is the per-state FFT power to ``rtol`` of its
    maximum (0: bit for bit)."""
    power = joint._rows.power
    want = per_state_momentum_power(states, weights, power.shape[0])
    assert np.max(np.abs(power - want)) <= rtol * np.max(want)


def row_transforms(monkeypatch) -> list:
    """Records the number of rows of each transform along axis 1 that
    ``np.fft.fft`` makes."""
    calls = []
    fft = np.fft.fft

    def counting(a, *args, **kwargs):
        if kwargs.get("axis") == 1:
            calls.append(np.shape(a)[0])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    return calls


class TestStreamedJoints:
    """The ring's position joint keeps its one-cell strip and the momentum
    joint its FFT power and envelope; read in row blocks, they give the
    consumers the numbers the full-grid arrays gave."""

    @pytest.mark.parametrize("n", [25, 30, 40])
    def test_lithium_joints_match_full_grid(self, n):
        basis = wannier_basis(13.4, site_count=n, points_per_cell=32)
        states, weights, _ = lithium_ring_mixture(n)
        joint = dist.thermal_position_joint(states, weights, basis)
        assert isinstance(joint._rows, dist._RingRows)
        assert_reads_like_array(joint, tiled_ring_position_density(states, weights, basis))

        states, weights, _ = lithium_ring_mixture(n, "momentum")
        joint = dist.thermal_momentum_joint(states, weights, basis)
        assert joint._rows.power.shape == (8 * n, 8 * n)
        assert_power_matches_per_state(joint, states, weights)
        oracle = gathered_momentum_density(joint._rows.power, basis)
        assert_reads_like_array(joint, oracle, axis_rtol=1e-13)

    def test_wrapped_grid_matches_full_grid(self, wannier393):
        # a grid of 2M + 3 points from -1.3 periods wraps past the M x M
        # power twice, and its 323 points are written at stride 2
        n, m = 10, 160
        rng = np.random.default_rng(20)
        states = []
        for _ in range(3):
            amp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            states.append(ta.TwoAtomState(amp / np.linalg.norm(amp)))
        weights = rng.random(3)
        weights /= weights.sum()
        first = int(np.floor(-1.3 * m))
        grid = 2 * np.pi / m * np.arange(first, first + 2 * m + 3)
        joint = dist.thermal_momentum_joint(states, weights, wannier393, grid=grid)
        assert cli.plot_stride(grid.size) == 2
        # states without a K are transformed one by one, as the reference
        assert_power_matches_per_state(joint, states, weights, rtol=0.0)
        oracle = gathered_momentum_density(joint._rows.power, wannier393, grid=grid)
        assert_reads_like_array(joint, oracle, axis_rtol=1e-13)

    def test_factors_checked_for_sign(self):
        power = np.ones((4, 4))
        power[1, 2] = -1e-12
        rows = dist._MomentumRows(power, np.arange(4), np.ones(4))
        axis = np.arange(4.0)
        with pytest.raises(ValueError, match="non-negative"):
            dist.JointDistribution(axis, axis.copy(), rows, "momentum")
        with pytest.raises(ValueError, match="non-negative"):
            dist.JointDistribution(axis, axis.copy(), dist._RingRows(-np.ones((2, 4))), "position")


class TestMomentumTransforms:
    """The power takes one transform of the N filled rows per state, and
    one per pair of ring states at K and -K."""

    @pytest.mark.parametrize("m", [10, 37, 160])
    def test_two_stage_transform_is_fft2(self, m):
        n = 10
        rng = np.random.default_rng(m)
        amp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        out = np.full((m, m), 7.0 + 7.0j)  # rows past N are zeroed
        got = dist._structure_factor(amp, out)
        assert got is out
        assert np.array_equal(got, np.fft.fft2(amp, s=(m, m)))

    @pytest.mark.parametrize("n", [25, 30])
    def test_one_transform_per_pair(self, n, monkeypatch):
        # K = 0, K = pi (even N) and one state of each +-K pair: N//2 + 1
        states, weights, _ = lithium_ring_mixture(n, "momentum")
        assert len(states) == n
        basis = wannier_basis(13.4, site_count=n, points_per_cell=32)
        calls = row_transforms(monkeypatch)
        joint = dist.thermal_momentum_joint(states, weights, basis)
        assert len(calls) == n // 2 + 1
        assert set(calls) == {n}
        assert_power_matches_per_state(joint, states, weights)

    def test_unpaired_states_keep_per_state_power(self, wannier393, monkeypatch):
        # states at K and 2 pi - K whose amplitudes are not conjugate, or
        # whose weights differ, take a transform each, in the given order
        n = 10
        k = 2 * np.pi * 3 / n
        rng = np.random.default_rng(27)
        amp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        amp /= np.linalg.norm(amp)
        states = [
            ta.TwoAtomState(amp, k),
            ta.TwoAtomState(amp.conj() * np.exp(0.3j), 2 * np.pi - k),
            ta.TwoAtomState(amp.conj(), 2 * np.pi - k),
        ]
        weights = np.array([0.4, 0.4, 0.2])
        calls = row_transforms(monkeypatch)
        joint = dist.thermal_momentum_joint(states, weights, wannier393)
        assert len(calls) == 3
        assert_power_matches_per_state(joint, states, weights, rtol=0.0)

    def test_zero_temperature_single_state(self):
        from latticeepr.parameters import lithium_default

        config = lithium_default()
        model = config.model(boundary="periodic")
        spectrum = diagonalized(model.hop, model.vdd, config.site_count)
        thermal = ta.thermal_state(spectrum, 0.0, model.recoil_energy)
        states = thermal.states(spectrum)
        assert len(states) == 1
        basis = wannier_basis(13.4, site_count=config.site_count, points_per_cell=32)
        joint = dist.thermal_momentum_joint(states, thermal.weights, basis)
        assert_power_matches_per_state(joint, states, thermal.weights, rtol=0.0)


class TestCombinedMarginal:
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_equals_bincount_over_full_index(self, sign):
        # the row-by-row sum adds each bin's terms in the order of one
        # bincount over the n x n index array, so the results are equal
        n = 301
        axis = -1.25 + 0.01 * np.arange(n)
        density = np.random.default_rng(3).random((n, n))
        joint = dist.JointDistribution(axis, axis.copy(), density, "momentum")
        i = np.arange(n)
        index = (i[:, None] - i[None, :]) + (n - 1) if sign < 0 else i[:, None] + i[None, :]
        want = np.bincount(index.ravel(), weights=density.ravel(), minlength=2 * n - 1)
        marginal = dist.difference_marginal(joint) if sign < 0 else dist.sum_marginal(joint)
        assert np.array_equal(marginal.density, want * (axis[1] - axis[0]))
        first = -(n - 1) * 0.01 if sign < 0 else 2 * axis[0]
        assert marginal.grid[0] == pytest.approx(first)
        assert marginal.grid.size == 2 * n - 1


def unequal_grid_joint(n1: int, n2: int) -> dist.JointDistribution:
    """Uniform joint of mass 1 on 0.1 steps along axis 1, 0.2 along axis 2."""
    axis1, axis2 = 0.1 * np.arange(n1), 0.2 * np.arange(n2)
    density = np.full((n1, n2), 1.0 / (n1 * n2 * 0.1 * 0.2))
    return dist.JointDistribution(axis1, axis2, density, "position")


class TestUnequalGrids:
    def test_axis_marginals_integrate_each_other_axis(self):
        joint = unequal_grid_joint(11, 41)
        assert joint.mass == pytest.approx(1.0, rel=1e-12)
        for atom, step in ((1, 0.1), (2, 0.2)):
            marginal = dist.axis_marginal(joint, atom)
            assert np.sum(marginal.density) * step == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("shape", [(11, 41), (21, 21)])
    def test_sum_and_difference_need_one_grid(self, shape):
        joint = unequal_grid_joint(*shape)
        for marginal in (dist.difference_marginal, dist.sum_marginal):
            with pytest.raises(ValueError, match="same grid on both axes"):
                marginal(joint)


class TestMomentumJoint:
    def test_mass_and_parseval(self, fig7a_state, wannier393):
        pos = dist.position_joint(fig7a_state, wannier393)
        mom = dist.momentum_joint(fig7a_state, wannier393)
        assert pos.mass == pytest.approx(1.0, abs=1e-8)
        assert mom.mass == pytest.approx(1.0, abs=1e-8)

    def test_uniform_comb_ridges(self, wannier393):
        n = 25
        mom = dist.momentum_joint(uniform_comb(n), wannier393)
        total = dist.sum_marginal(mom)
        # ridges along p2 = -p1 repeat with the reciprocal lattice vector
        assert dist.comb_spacing(total) == pytest.approx(2 * np.pi, rel=0.01)
        width = dist.central_peak_width(total)
        assert width.hwhm == pytest.approx(2.7832 / n, rel=0.05)

    def test_envelope_width(self, wannier393):
        # single-atom momentum envelope has half-width ~ 1 / (2 sigma)
        state = product_state(25, 12, 12)
        mom = dist.momentum_joint(state, wannier393)
        marginal = dist.axis_marginal(mom, 1)
        assert dist.distribution_sigma(marginal) == pytest.approx(
            1.0 / (2 * wannier393.sigma), rel=0.10
        )

    def test_fourier_consistency_product_state(self, wannier393):
        # momentum marginal of a product state equals |FT of the one-atom
        # position amplitude|^2
        n = 25
        alpha = np.exp(-((np.arange(n) - 12.0) ** 2) / 20.0)
        alpha /= np.linalg.norm(alpha)
        state = ta.TwoAtomState(np.outer(alpha, alpha).astype(complex))
        mom = dist.momentum_joint(state, wannier393)
        marginal = dist.axis_marginal(mom, 1)
        envelope = wannier393.momentum_transform(marginal.grid)
        phases = np.exp(-1j * np.outer(marginal.grid, np.arange(n)))
        amplitude = envelope * (phases @ alpha)
        assert np.max(np.abs(marginal.density - np.abs(amplitude) ** 2)) < 1e-6

    def test_correlations(self, fig7a_state, wannier393):
        pos = dist.position_joint(fig7a_state, wannier393)
        mom = dist.momentum_joint(fig7a_state, wannier393)
        assert dist.correlation_coefficient(pos) > 0.9
        assert dist.correlation_coefficient(mom, window=np.pi) < -0.9

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        site_count=st.integers(3, 10),
        state_count=st.integers(1, 3),
        per_site=st.sampled_from([1, 8, 16]),
        start=st.floats(-3.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_sum(
        self, wannier393, site_count, state_count, per_site, start, seed
    ):
        # on a grid of spacing 2 pi / M the joint equals the direct sum
        # sum_s w_s |chi~(p1) chi~(p2) sum_jl c_jl e^{-i(p1 j + p2 l)}|^2,
        # also where the grid wraps past one period; the basis only supplies
        # the envelope chi~, so one basis serves every N
        n, m = site_count, per_site * site_count
        rng = np.random.default_rng(seed)
        states = []
        for _ in range(state_count):
            amp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            states.append(ta.TwoAtomState(amp / np.linalg.norm(amp)))
        weights = rng.random(state_count)
        weights /= weights.sum()
        first = int(np.floor(start * m))
        grid = 2 * np.pi / m * np.arange(first, first + 2 * m + 3)

        joint = dist.thermal_momentum_joint(states, weights, wannier393, grid=grid)

        chi = wannier393.momentum_transform(grid)
        phase = np.exp(-1j * np.outer(grid, np.arange(n)))
        expected = np.zeros((grid.size, grid.size))
        for state, weight in zip(states, weights):
            total = np.einsum("jl,aj,bl->ab", state.amplitudes, phase, phase)
            expected += weight * np.abs(chi[:, None] * total * chi[None, :]) ** 2
        assert np.max(np.abs(joint.density - expected)) <= 1e-12 * np.max(expected)

    def test_grid_without_fourier_form_rejected(self, fig7a_state, wannier393):
        n = fig7a_state.site_count
        step = 2 * np.pi / (8 * n)
        uneven = step * np.arange(-100, 101.0)
        uneven[150] += 0.3 * step
        grids = {
            "does not divide 2 pi": 0.01 * np.arange(-100, 101),
            "not uniform": uneven,
            "fewer than": 2 * np.pi / (n - 1) * np.arange(-10, 11),
            "not multiples": step * (np.arange(-100, 101) + 0.5),
        }
        for message, grid in grids.items():
            with pytest.raises(ValueError, match=message):
                dist.momentum_joint(fig7a_state, wannier393, grid=grid)


class TestConditional:
    def test_position_conditional_width(self, fig7a_state, wannier_measure):
        # readout-depth Wannier width ~ 0.14 a sets the conditional spread
        joint = dist.position_joint(fig7a_state, wannier_measure)
        cond = dist.conditional(joint, 12.0, which_atom=1)
        peak = cond.grid[np.argmax(cond.density)]
        assert peak == pytest.approx(12.0, abs=0.05)
        width = np.sqrt(
            np.trapezoid((cond.grid - 12.0) ** 2 * cond.density, cond.grid)
        )
        assert width == pytest.approx(0.14, rel=0.15)

    def test_swap_symmetric_state(self, fig7a_state, wannier393):
        joint = dist.position_joint(fig7a_state, wannier393)
        c1 = dist.conditional(joint, 10.0, which_atom=1)
        c2 = dist.conditional(joint, 10.0, which_atom=2)
        assert np.allclose(c1.density, c2.density, atol=1e-10)

    def test_momentum_comb_anticorrelated(self, wannier393):
        n = 25
        mom = dist.momentum_joint(uniform_comb(n), wannier393)
        p_measured = 1.2
        cond = dist.conditional(mom, p_measured, which_atom=1)
        inner = np.arange(1, cond.grid.size - 1)
        local_max = inner[
            (cond.density[inner] > cond.density[inner - 1])
            & (cond.density[inner] > cond.density[inner + 1])
            & (cond.density[inner] > 0.2 * np.max(cond.density))
        ]
        # peaks sit at -p1 modulo the reciprocal lattice vector
        offsets = (cond.grid[local_max] + p_measured) % (2 * np.pi)
        offsets = np.minimum(offsets, 2 * np.pi - offsets)
        assert np.max(offsets) < 0.05

    def test_thermal_conditional_peak_width(self, operating_joints):
        # the conditional momentum peak is a cross-section of the central
        # ridge, so its half-width matches dp_plus; in momentum units of
        # the envelope half-width 1/(2 dx_minus) that number is 1/s
        _, _, pos, mom = operating_joints
        metrics = dist.epr_metrics(pos, mom)
        p_measured = np.pi / 2
        cond = dist.conditional(mom, p_measured, which_atom=1)
        peak = dist.central_peak_width(cond, near=-p_measured)
        assert peak.center == pytest.approx(-p_measured, abs=0.1)
        # local cross-section vs envelope-averaged ridge width: ~20% geometry
        assert peak.hwhm == pytest.approx(metrics.dp_plus, rel=0.25)
        normalized = peak.hwhm / (1.0 / (2 * metrics.dx_minus))
        assert normalized == pytest.approx(1.0 / metrics.s, rel=0.25)

    def test_bin_integrated_variant(self, fig7a_state, wannier393):
        joint = dist.position_joint(fig7a_state, wannier393)
        sliced = dist.conditional(joint, 12.0, which_atom=1)
        binned = dist.conditional(joint, 12.0, which_atom=1, bin_width=0.5)
        # same peak, slightly smeared
        assert np.argmax(binned.density) == np.argmax(sliced.density)

    def test_out_of_grid_rejected(self, fig7a_state, wannier393):
        joint = dist.position_joint(fig7a_state, wannier393)
        with pytest.raises(ValueError, match="outside"):
            dist.conditional(joint, 99.0)

    def test_empty_slice_rejected(self, wannier393):
        state = product_state(25, 12, 12)
        joint = dist.position_joint(state, wannier393)
        with pytest.raises(ValueError, match="mass"):
            dist.conditional(joint, 3.0, which_atom=1)


class TestEprMetrics:
    def test_consistency_relation(self, fig7a_state, wannier393):
        pos = dist.position_joint(fig7a_state, wannier393)
        mom = dist.momentum_joint(fig7a_state, wannier393)
        metrics = dist.epr_metrics(pos, mom)
        assert metrics.s == pytest.approx(
            1.0 / (2 * metrics.dx_minus * metrics.dp_plus), rel=1e-12
        )
        assert metrics.peak_spacing_x == pytest.approx(1.0, abs=0.02)
        assert metrics.peak_spacing_p == pytest.approx(2 * np.pi, rel=0.01)

    def test_widths_stable_under_grid_refinement(self, fig7a_state):
        coarse = wannier_basis(3.93, points_per_cell=64)
        fine = wannier_basis(3.93, points_per_cell=128)
        m1 = dist.epr_metrics(
            dist.position_joint(fig7a_state, coarse),
            dist.momentum_joint(fig7a_state, coarse),
        )
        grid = dist.default_momentum_grid(fine)
        spacing = (grid[1] - grid[0]) / 2
        refined = spacing * np.arange(-2 * (grid.size // 2), 2 * (grid.size // 2) + 1)
        m2 = dist.epr_metrics(
            dist.position_joint(fig7a_state, fine),
            dist.momentum_joint(fig7a_state, fine, grid=refined),
        )
        assert abs(m2.dx_minus - m1.dx_minus) / m1.dx_minus < 0.02
        assert abs(m2.dp_plus - m1.dp_plus) / m1.dp_plus < 0.02

    def test_perturbative_conditional_variance(self, wannier393):
        # conditional spread^2 lies within 10% of sigma^2 + 2 a^2 (hop/vdd)^2
        # at eta <= 0.05, but by cancellation: the exact offset amplitude is
        # ~2 eta, not eta, and two first-order Wannier terms of the same size
        # (<chi_0|x^2|chi_1>, the measured atom's tail chi_1(0)) pull the
        # other way (acceptance clause 7)
        sigma = wannier393.sigma
        for eta in (0.0355, 0.05):
            state = diagonalized(-eta, -1.0).state(0)
            joint = dist.position_joint(state, wannier393)
            cond = dist.conditional(joint, 12.0, which_atom=1)
            variance = np.trapezoid(
                (cond.grid - 12.0) ** 2 * cond.density, cond.grid
            )
            assert variance == pytest.approx(sigma**2 + 2 * eta**2, rel=0.10)

    def test_zero_hop_conditional_reduces_to_wannier_width(self, wannier393):
        # hop -> 0, T -> 0: a single facing-site pair; measuring atom 1
        # leaves atom 2 with exactly the Wannier spread
        joint = dist.position_joint(product_state(25, 12, 12), wannier393)
        cond = dist.conditional(joint, 12.0, which_atom=1)
        width = np.sqrt(np.trapezoid((cond.grid - 12.0) ** 2 * cond.density, cond.grid))
        assert width == pytest.approx(wannier393.sigma, rel=1e-6)

    def test_thermal_broadening(self, wannier393):
        # momentum anti-correlation ridge broadens between 10 nK and 100 nK
        model = model_for(-0.0881, -0.4693)
        spectrum = diagonalized(-0.0881, -0.4693)
        widths = []
        for temperature in (10e-9, 100e-9):
            thermal = ta.thermal_state(spectrum, temperature, model.recoil_energy)
            mom = dist.thermal_momentum_joint(
                thermal.states(spectrum), thermal.weights, wannier393
            )
            widths.append(dist.central_peak_width(dist.sum_marginal(mom)).hwhm)
        assert widths[1] > 1.5 * widths[0]

    def test_joint_kind_check(self, fig7a_state, wannier393):
        pos = dist.position_joint(fig7a_state, wannier393)
        with pytest.raises(ValueError):
            dist.epr_metrics(pos, pos)


class TestCubicCrossing:
    """``cubic_peak_hwhm`` takes each half-height crossing from the cubic
    through the 4 samples around it (``dx_minus_converged``)."""

    @pytest.mark.parametrize("shape", ["lorentzian", "gaussian"])
    def test_error_falls_faster_than_linear(self, shape):
        # HWHM 0.97, so the crossings fall between grid points; the error
        # of the linear crossing falls as step^2, that of the cubic as step^4
        hwhm = 0.97
        steps = np.array([0.2, 0.1, 0.05, 0.025])
        linear, cubic = [], []
        for step in steps:
            grid = step * np.arange(-round(12 / step), round(12 / step) + 1)
            if shape == "lorentzian":
                density = 1.0 / (1.0 + (grid / hwhm) ** 2)
            else:
                density = np.exp(-np.log(2.0) * (grid / hwhm) ** 2)
            marginal = dist.Marginal(grid, density)
            linear.append(abs(dist.central_peak_width(marginal).hwhm - hwhm))
            cubic.append(abs(dist.cubic_peak_hwhm(marginal) - hwhm))
        assert np.all(np.array(cubic) < np.array(linear))
        linear_order = np.polyfit(np.log(steps), np.log(linear), 1)[0]
        cubic_order = np.polyfit(np.log(steps), np.log(cubic), 1)[0]
        assert linear_order < 2.5
        assert cubic_order > 3.5

    def test_lithium_dx_minus_converged_at_32_points_per_cell(self):
        states, weights, _ = lithium_ring_mixture(25)
        values = {}
        for ppc in (32, 128):
            basis = wannier_basis(13.4, site_count=25, points_per_cell=ppc)
            diff = dist.difference_marginal(dist.thermal_position_joint(states, weights, basis))
            values[ppc] = dist.cubic_peak_hwhm(diff), dist.central_peak_width(diff).hwhm
        (cubic, linear), (fine, _) = values[32], values[128]
        assert cubic == pytest.approx(fine, rel=1e-4)
        assert cubic == pytest.approx(0.2099477, abs=1e-7)
        # the linear crossing reads 8.3e-4 high at 32 points per cell
        assert linear - fine > 5e-4 * fine

    def test_epr_metrics_reports_both_crossings(self, fig7a_state, wannier393):
        pos = dist.position_joint(fig7a_state, wannier393)
        metrics = dist.epr_metrics(pos, dist.momentum_joint(fig7a_state, wannier393))
        diff = dist.difference_marginal(pos)
        assert metrics.dx_minus == dist.central_peak_width(diff).hwhm
        assert metrics.dx_minus_converged == dist.cubic_peak_hwhm(diff)


class TestThermalFormulas:
    def test_zero_temperature_limit(self):
        sigma_e = 6 * 161.5e-9
        assert dist.thermal_dp_plus(sigma_e, 0.0, 1.1624e-26) == pytest.approx(
            HBAR / (np.sqrt(2) * sigma_e), rel=1e-12
        )

    def test_tanh_argument_identity(self):
        # hbar^2/(2 sigma_E^2 m kB T) == (a/sigma_E)^2 E_rec / (pi^2 kB T)
        rng = np.random.default_rng(7)
        for _ in range(5):
            mass = rng.uniform(1e-27, 1e-25)
            a = rng.uniform(1e-7, 1e-6)
            sigma_e = rng.uniform(2, 10) * a
            temperature = rng.uniform(1e-9, 1e-6)
            erec = np.pi**2 * HBAR**2 / (2 * mass * a**2)
            lhs = HBAR**2 / (2 * sigma_e**2 * mass * KB * temperature)
            rhs = (a / sigma_e) ** 2 * erec / (np.pi**2 * KB * temperature)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_s_estimate_consistent_with_dp(self):
        # s = 1/(2 sigma dp) with the thermal dp reproduces the closed form
        mass, a = 1.1624e-26, 161.5e-9
        erec = np.pi**2 * HBAR**2 / (2 * mass * a**2)
        sigma_a, sigma_e_a, temperature = 0.14, 6.0, 10e-9
        dp = dist.thermal_dp_plus(sigma_e_a * a, temperature, mass)
        s_direct = HBAR / (2 * sigma_a * a * dp)
        s_estimate = dist.s_thermal_estimate(sigma_e_a, sigma_a, temperature, erec)
        assert s_estimate == pytest.approx(s_direct, rel=1e-6)

    def test_s_estimate_decreasing_in_temperature(self):
        erec = 1.81e-28
        values = [
            dist.s_thermal_estimate(6.0, 0.14, t, erec)
            for t in (5e-9, 2e-8, 1e-7, 2e-7)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
