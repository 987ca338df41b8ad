"""Shared fixtures; expensive spectra and protocol runs are session-cached."""

import dataclasses
import inspect
import warnings

import numpy as np
import pytest

from latticeepr import band_structure, cli, distributions, protocol, two_atom
from latticeepr.parameters import ExperimentConfig, ModelParams, lithium_default


@pytest.fixture(scope="session")
def lithium_config() -> ExperimentConfig:
    return lithium_default()


@pytest.fixture(scope="session")
def lithium_model(lithium_config) -> ModelParams:
    return lithium_config.model()


def model_for(hop: float, vdd: float, site_count: int = 25, boundary: str = "periodic"):
    """Hand-tuned model point (recoil scale fixed to the lithium value)."""
    return ModelParams(
        recoil_energy=1.8101785620944626e-28,
        lattice_depth=3.93,
        hop=hop,
        vdd=vdd,
        site_count=site_count,
        lattice_constant=161.5e-9,
        boundary=boundary,
    )


def dense(hamiltonian: two_atom.TwoAtomHamiltonian) -> np.ndarray:
    """H as a dense N^2 x N^2 array, row-major in (j, l) (the oracle for
    the symmetry blocks of ``two_atom.diagonalize`` and for the matrix-free
    ``apply`` and ``propagate``)."""
    n = hamiltonian.site_count
    single = two_atom.single_atom_matrix(n, hamiltonian.hop, hamiltonian.boundary)
    matrix = np.zeros((n, n, n, n))
    sites = np.arange(n)
    matrix[:, sites, :, sites] = single  # atom 1 hops: <j l|H|j' l> = h_jj'
    matrix[sites, :, sites, :] += single  # atom 2 hops: <j l|H|j l'> = h_ll'
    matrix = matrix.reshape(n * n, n * n)
    matrix[np.diag_indices(n * n)] += hamiltonian.diagonal.ravel()
    return matrix


_SPECTRA: dict = {}


def diagonalized(hop: float, vdd: float, site_count: int = 25, boundary: str = "periodic"):
    key = (hop, vdd, site_count, boundary)
    if key not in _SPECTRA:
        ham = two_atom.build(model_for(hop, vdd, site_count, boundary))
        _SPECTRA[key] = two_atom.diagonalize(ham)
    return _SPECTRA[key]


_WANNIER: dict = {}


def wannier_basis(u0: float, site_count: int = 25, points_per_cell: int = 64):
    key = (u0, site_count, points_per_cell)
    if key not in _WANNIER:
        spectrum = band_structure.bloch_spectrum(u0, n_k=site_count)
        _WANNIER[key] = band_structure.wannier(spectrum, points_per_cell=points_per_cell)
    return _WANNIER[key]


@pytest.fixture
def bloch_solves(monkeypatch) -> list:
    """Records the ``(u0, n_k)`` of every ``band_structure.bloch_spectrum``
    call made in this process, positional or keyword; calls made in
    forked pool workers are not seen."""
    solve = band_structure.bloch_spectrum
    signature = inspect.signature(solve)
    calls = []

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["u0"], bound.arguments["n_k"]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(band_structure, "bloch_spectrum", counting)
    return calls


def mathieu_band_edges(u0: float) -> tuple[float, float]:
    """Lowest-band edges from Mathieu characteristic values (band oracle).

    With x = a v / pi the lattice Schroedinger equation is Mathieu's
    equation with characteristic parameter q = U0 / (4 E_rec); the lowest
    band spans [a_0(q), b_1(q)].
    """
    from scipy.special import mathieu_a, mathieu_b

    q = u0 / 4.0
    return float(mathieu_a(0, q)), float(mathieu_b(1, q))


def curvature_mass(spectrum: band_structure.BlochSpectrum, hbar: float = 1.0) -> float:
    """hbar^2 / (d^2E/dk^2) at the bottom of the computed lowest band (the
    oracle that ``band_structure.effective_mass`` is held to)."""
    ks = spectrum.quasimomenta
    band = spectrum.lowest_band()
    i0 = int(np.argmin(np.abs(ks)))
    if not np.isclose(ks[i0], 0.0):
        raise ValueError("k = 0 not on the quasimomentum grid")
    dk = ks[1] - ks[0]
    d2 = (band[(i0 + 1) % ks.size] - 2.0 * band[i0] + band[i0 - 1]) / dk**2
    return hbar**2 / d2


def fmt_oracle(value) -> str:
    """One CSV cell as the per-value CSV writer wrote it (the reference
    for ``cli.write_csv``)."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isnan(v):
        return "nan"
    return f"{v:.12g}"


def write_csv_oracle(path, header, rows) -> None:
    """The per-value CSV writer: one ``fmt_oracle`` call per cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_oracle(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_matrix_oracle(path, joint, comment) -> None:
    """The per-value matrix writer: one %-format of a row's Python floats
    per row (the reference for ``cli.write_matrix``)."""
    joint = cli.decimate_joint(joint)
    unit = "a" if joint.kind == "position" else "hbar/a"
    x1s = [cli._fmt(x1) for x1 in joint.axis1]
    x2s = [cli._fmt(x2) for x2 in joint.axis2]
    w1, w2 = max(map(len, x1s)), max(map(len, x2s))
    cells = ["%*s %%19.11e" % (w2, x2) for x2 in x2s]
    # Written row by row, so no copy of the whole file is held in memory.
    # Each row is one %-format of its Python floats.
    with path.open("w") as f:
        f.write(f"# {comment}\n# columns: axis1 [{unit}], axis2 [{unit}], probability density\n")
        for x1, block in zip(x1s, joint.density):
            prefix = "%*s " % (w1, x1)
            template = prefix + ("\n" + prefix).join(cells)
            f.write(template % tuple(block.tolist()))
            f.write("\n\n")


def per_state_momentum_power(states, weights, m: int) -> np.ndarray:
    """The M x M weighted FFT power, one zero-padded ``fft2`` per state
    added as ``weight * (re^2 + im^2)`` (the reference for the power of
    ``thermal_momentum_joint``)."""
    power = np.zeros((m, m))
    for state, weight in zip(states, weights):
        structure = np.fft.fft2(state.amplitudes, s=(m, m))
        power += weight * (structure.real**2 + structure.imag**2)
    return power


def gathered_momentum_density(power, basis, grid=None) -> np.ndarray:
    """The momentum density of the M x M ``power`` as one n_p x n_p array:
    the power gathered onto the grid and multiplied by the envelope,
    (P[k_i, k_j] env_i) env_j (the reference for the factored
    ``thermal_momentum_joint``)."""
    p = distributions.default_momentum_grid(basis) if grid is None else np.asarray(grid, float)
    k, m = band_structure.fourier_indices(p)
    assert power.shape == (m, m)
    k %= m
    envelope = np.abs(basis.momentum_transform(p)) ** 2
    density = power[np.ix_(k, k)]
    density *= envelope[:, None]
    density *= envelope[None, :]
    return density


def tiled_ring_position_density(states, weights, basis) -> np.ndarray:
    """The thermal position density of ring eigenstates as one G x G
    array: the ``ppc x G`` strip of cell 0, rolled by b cells into row
    block b (the reference for the strip-keeping
    ``thermal_position_joint``)."""
    ppc, site_matrix = basis.points_per_cell, basis.site_matrix()
    size = site_matrix.shape[1]
    strip = np.zeros((ppc, size))
    for state, weight in zip(states, weights):
        strip += weight * np.abs(site_matrix[:, :ppc].T @ state.amplitudes @ site_matrix) ** 2
    density = np.empty((size, size))
    for shift in range(0, size, ppc):
        cell = density[shift : shift + ppc]
        cell[:, shift:] = strip[:, : size - shift]
        cell[:, :shift] = strip[:, size - shift :]
    return density


def diagonal_sums(density: np.ndarray, sign: int) -> np.ndarray:
    """Row i of ``density`` added to the bins i - j + n - 1 (``sign``
    -1) or i + j (``sign`` +1), row after row: the difference and sum
    marginals before the cell side multiplies them."""
    n = density.shape[0]
    sums = np.zeros(2 * n - 1)
    for i, row in enumerate(density[:, ::-1] if sign < 0 else density):
        sums[i : i + n] += row
    return sums


@pytest.fixture(scope="session")
def wannier393():
    return wannier_basis(3.93)


@pytest.fixture(scope="session")
def wannier_measure():
    # deep readout lattice of the documented working point
    return wannier_basis(13.4)


@pytest.fixture(scope="session")
def fig7a_state():
    """Ground state at the |V_hop| = 0.0355, |V_dd| = 1.0 working point."""
    return diagonalized(-0.0355, -1.0).state(0)


def lithium_protocol(site_count: int = 25):
    """Config, model, tilted Hamiltonian and initial state of the lithium
    separation protocol on ``site_count`` sites."""
    config = dataclasses.replace(lithium_default(), site_count=site_count)
    prot = config.protocol
    model = config.model(boundary=prot.boundary)
    tilt = two_atom.ExternalPotential.linear(
        prot.slope_erec_per_site, species=prot.tilt_species
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        psi0 = protocol.initial_state(prot.sigma_e_sites, prot.center_site, site_count)
    return config, model, two_atom.build(model, tilt), psi0


@pytest.fixture(scope="session")
def protocol_run():
    """The documented separation run: snapshots at 0, 1.4e-4, 2.16e-4 s."""
    config, model, hamiltonian, psi0 = lithium_protocol()
    prot = config.protocol
    dense = sorted(set(np.linspace(0, 2.3e-4, 24)) | set(prot.snapshot_times_s))
    trace = protocol.evolve(
        psi0,
        hamiltonian,
        dense,
        erec_joule=model.recoil_energy,
        origin=prot.center_site,
        band=prot.diatom_band_width,
    )
    return config, model, psi0, trace


def snapshot_at(trace, t: float):
    idx = int(np.argmin(np.abs(trace.times - t)))
    assert abs(trace.times[idx] - t) < 1e-9
    return trace.states[idx], trace.diagnostics[idx]


@pytest.fixture(scope="session")
def operating_joints(lithium_config, wannier_measure):
    """Thermal position (10 nK) and momentum (100 nK) joints at the
    documented working point."""
    model = lithium_config.model()
    spectrum = diagonalized(model.hop, model.vdd)
    pos_w = two_atom.thermal_state(
        spectrum, lithium_config.temperature_position_k, model.recoil_energy
    )
    mom_w = two_atom.thermal_state(
        spectrum, lithium_config.temperature_momentum_k, model.recoil_energy
    )
    pos = distributions.thermal_position_joint(
        pos_w.states(spectrum), pos_w.weights, wannier_measure
    )
    mom = distributions.thermal_momentum_joint(
        mom_w.states(spectrum), mom_w.weights, wannier_measure
    )
    return model, spectrum, pos, mom
