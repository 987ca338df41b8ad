"""Time-domain preparation: cool in a shallow trap, load the lattice,
then pull unpaired atoms away from the heavy bound pairs with a tilt.

The three steps are modeled as sudden switches: the cooled state is
constructed directly as a product of Gaussian site envelopes, and the
separation stage evolves it under the lattice + pair interaction + linear
tilt Hamiltonian.  From snapshot to snapshot a Chebyshev series in the
matrix-free two-atom H propagates the N x N amplitude matrix, and the
trace records how far the norm drifts from one.  The light single atoms
run roughly |V_hop / V_hop_pair| times farther down the tilt than the
pairs before their band turns them around.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, KB
from .two_atom import SpectrumResult, TwoAtomHamiltonian, TwoAtomState

ENVELOPE_TAIL_TOLERANCE = 1e-4


def envelope_tail_mass(sigma_e: float, center: float, site_count: int) -> float:
    """Share of the weight sum_j alpha_j^2 that the envelope would carry on
    the infinite lattice and that falls off sites 0..N-1."""
    j = np.arange(-8 * site_count, 9 * site_count)
    weight = np.exp(-((j - center) ** 2) / (2.0 * sigma_e**2))
    return float(1.0 - np.sum(weight[8 * site_count : 9 * site_count]) / np.sum(weight))


def gaussian_envelope(sigma_e: float, center: float, site_count: int) -> np.ndarray:
    """Normalized single-atom envelope alpha_j ~ exp(-(j-j0)^2 / 4 sigma_E^2).

    sigma_E in lattice constants; warns when the finite lattice clips more
    than ``ENVELOPE_TAIL_TOLERANCE`` of the weight.
    """
    if sigma_e <= 0:
        raise ValueError(f"sigma_E must be positive, got {sigma_e}")
    if sigma_e < 1.0:
        warnings.warn(
            f"envelope width {sigma_e} below one lattice constant; the "
            "cooled state should span several sites",
            stacklevel=2,
        )
    j = np.arange(site_count, dtype=float)
    alpha = np.exp(-((j - center) ** 2) / (4.0 * sigma_e**2))
    tail = envelope_tail_mass(sigma_e, center, site_count)
    if tail > ENVELOPE_TAIL_TOLERANCE:
        warnings.warn(
            f"envelope clipped by the lattice boundary: tail mass {tail:.2e}",
            stacklevel=2,
        )
    return alpha / np.sqrt(np.sum(alpha**2))


def initial_state(sigma_e: float, center: float, site_count: int) -> TwoAtomState:
    """Product state c_jl = alpha_j alpha_l of two independently cooled atoms."""
    alpha = gaussian_envelope(sigma_e, center, site_count)
    return TwoAtomState(np.outer(alpha, alpha).astype(complex))


@dataclass(frozen=True)
class SeparationDiagnostics:
    """Pair/single bookkeeping of a snapshot.

    Centroids are of the first-atom coordinate, taken separately over the
    near-diagonal band |j - l| <= band (pairs) and its complement
    (singles); ``displacement_ratio`` compares their drifts from
    ``origin``.
    """

    diagonal_weight: float
    band_weight: float
    diatom_centroid: float
    single_centroid: float
    displacement_ratio: float


def separation_diagnostics(
    state: TwoAtomState, origin: float | None = None, band: int = 1
) -> SeparationDiagnostics:
    n = state.site_count
    prob = np.abs(state.amplitudes) ** 2
    j, l = np.indices((n, n))
    mask = np.abs(j - l) <= band

    band_mass = float(np.sum(prob[mask]))
    single_mass = float(np.sum(prob[~mask]))
    diatom_centroid = (
        float(np.sum((j * prob)[mask]) / band_mass) if band_mass > 1e-12 else float("nan")
    )
    single_centroid = (
        float(np.sum((j * prob)[~mask]) / single_mass)
        if single_mass > 1e-12
        else float("nan")
    )
    ratio = float("nan")
    if origin is not None and np.isfinite(diatom_centroid) and np.isfinite(single_centroid):
        pair_drift = diatom_centroid - origin
        if abs(pair_drift) > 1e-9:
            ratio = (single_centroid - origin) / pair_drift
    return SeparationDiagnostics(
        diagonal_weight=state.diagonal_weight(),
        band_weight=band_mass,
        diatom_centroid=diatom_centroid,
        single_centroid=single_centroid,
        displacement_ratio=ratio,
    )


@dataclass(frozen=True)
class ProtocolTrace:
    """States and diagnostics at the requested snapshot times (seconds).

    ``norm_drift`` is the largest |‖psi(t)‖ - 1| over the snapshots, taken
    before each snapshot state is renormalized.
    """

    times: np.ndarray
    states: list[TwoAtomState]
    diagnostics: list[SeparationDiagnostics]
    norm_drift: float

    def final(self) -> TwoAtomState:
        return self.states[-1]


def evolve(
    state: TwoAtomState,
    hamiltonian: TwoAtomHamiltonian,
    times,
    erec_joule: float | None = None,
    origin: float | None = None,
    band: int = 1,
) -> ProtocolTrace:
    """Propagate from snapshot to snapshot, psi(t) = e^{-i H (t - t')} psi(t'),
    starting from ``state`` at t' = 0.

    Each step is ``TwoAtomHamiltonian.propagate``: a Chebyshev series in
    the matrix-free H (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984)) whose dropped terms sum to at most 1e-15 of the norm; a step
    of zero length is the identity.  The unrenormalized state is carried
    from step to step, so the trace's ``norm_drift`` accumulates over the
    run.  ``times`` are in seconds when ``erec_joule`` is given (energies
    are in E_rec), otherwise in natural units hbar/E_rec.  The Hamiltonian
    is held fixed over the whole span; compose several calls for switched
    stages.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(np.diff(times) < 0):
        raise ValueError("snapshot times must be non-decreasing")

    scale = erec_joule / HBAR if erec_joule is not None else 1.0
    if origin is None:
        origin = float(
            np.sum(np.arange(state.site_count)[:, None] * np.abs(state.amplitudes) ** 2)
        )

    amplitudes = state.amplitudes.astype(complex)
    elapsed = 0.0
    norm_drift = 0.0
    states: list[TwoAtomState] = []
    diagnostics: list[SeparationDiagnostics] = []
    for t in times:
        if t != elapsed:
            amplitudes = hamiltonian.propagate(amplitudes, (t - elapsed) * scale)
            elapsed = t
        norm_drift = max(norm_drift, abs(float(np.linalg.norm(amplitudes)) - 1.0))
        snapshot = TwoAtomState.from_vector(amplitudes, state.site_count)
        states.append(snapshot)
        diagnostics.append(separation_diagnostics(snapshot, origin=origin, band=band))
    return ProtocolTrace(
        times=times, states=states, diagnostics=diagnostics, norm_drift=norm_drift
    )


def postselect_diatoms(
    state: TwoAtomState,
    region: tuple[float, float] | None = None,
    band: int = 1,
) -> tuple[TwoAtomState, float]:
    """Keep amplitudes with |j - l| <= band and both atoms inside ``region``
    (inclusive site range); renormalize and report the retained mass."""
    n = state.site_count
    j, l = np.indices((n, n))
    mask = np.abs(j - l) <= band
    if region is not None:
        lo, hi = region
        mask &= (j >= lo) & (j <= hi) & (l >= lo) & (l <= hi)
    kept = np.where(mask, state.amplitudes, 0.0)
    retained = float(np.sum(np.abs(kept) ** 2))
    if retained < 1e-10:
        raise ValueError("postselection retained no probability mass")
    return TwoAtomState(kept / np.sqrt(retained)), retained


def _displaced(values: np.ndarray, shift: int, periodic: bool) -> np.ndarray:
    """``values`` moved ``shift`` sites along the lattice: around the ring
    when ``periodic``, else off the open chain's end, with zeros moved in."""
    if periodic:
        return np.roll(values, shift)
    moved = np.zeros_like(values)
    if shift >= 0:
        moved[shift:] = values[: values.size - shift]
    else:
        moved[:shift] = values[-shift:]
    return moved


def diagonal_comb_fidelity(
    state: TwoAtomState, envelope: np.ndarray, periodic: bool = False
) -> float:
    """Overlap of the facing-site amplitudes with a target diagonal comb.

    The tilt stage leaves the surviving pairs with a rigid drift and a
    uniform momentum boost; both are gauge freedoms of the preparation, so
    the fidelity is maximized over a displacement of up to 5 sites and a
    boost phase e^{i q j} before comparing against ``envelope`` (target c_jj).
    The target wraps around the lattice only when ``periodic`` (a ring);
    on an open chain what it moves past an end is lost.
    """
    diag = np.diag(state.amplitudes).copy()
    norm = np.linalg.norm(diag)
    if norm < 1e-12:
        raise ValueError("state has no facing-site amplitude")
    diag = diag / norm
    target = np.asarray(envelope, dtype=complex)
    target = target / np.linalg.norm(target)

    qs = np.linspace(-np.pi, np.pi, 721)
    boosts = np.exp(-1j * np.outer(qs, np.arange(diag.size)))
    best = 0.0
    for shift in range(-5, 6):
        overlaps = np.abs(boosts @ (diag * _displaced(target, shift, periodic).conj()))
        best = max(best, float(np.max(overlaps)))
    return best**2


@dataclass(frozen=True)
class CoolingBounds:
    """Temperatures the protocol stages must stay well below (kelvin)."""

    initial_stage: float    # hbar^2 / (4 m k_B sigma_E^2): trap ground state
    band_stage: float | None  # 4 |pair hopping| E_rec / k_B: pair band occupation


def cooling_requirements(
    sigma_e_m: float,
    mass: float,
    diatom_hop_erec: float | None = None,
    erec_joule: float | None = None,
) -> CoolingBounds:
    """Both cooling bounds; the band-stage bound needs the pair hopping."""
    if sigma_e_m <= 0:
        raise ValueError(f"sigma_E must be positive, got {sigma_e_m}")
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    initial = HBAR**2 / (4.0 * mass * KB * sigma_e_m**2)
    band = None
    if diatom_hop_erec is not None:
        if erec_joule is None:
            raise ValueError("erec_joule required together with diatom_hop_erec")
        band = 4.0 * abs(diatom_hop_erec) * erec_joule / KB
    return CoolingBounds(initial_stage=initial, band_stage=band)


def bound_band_projection(state: TwoAtomState, spectrum: SpectrumResult) -> float:
    """Probability the state carries in the split-off pair band;
    ValueError where the spectrum has no pair band."""
    if len(spectrum.diatom_band) == 0:
        raise ValueError("no split-off diatom band to project onto")
    total = 0.0
    vec = state.vector()
    for i in spectrum.diatom_band:
        total += abs(np.vdot(spectrum.state(i).vector(), vec)) ** 2
    return float(total)
