"""Joint position/momentum distributions of two-atom states and the
widths that quantify their correlations.

Positions are in lattice constants a, momenta in hbar/a, hbar = 1.  The
momentum comb of a lattice state repeats with the reciprocal lattice
vector 2 pi; the figure of merit is s = 1 / (2 dx_minus dp_plus), where
dx_minus is the half-width of the central peak of the relative-position
marginal and dp_plus that of the total-momentum marginal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .band_structure import WannierBasis, fourier_indices
from .constants import HBAR, KB
from .two_atom import TwoAtomState

RECIPROCAL = 2.0 * np.pi  # momentum comb period, hbar/a units


@dataclass(frozen=True)
class JointDistribution:
    """2D probability density with its axes; kind is position|momentum."""

    axis1: np.ndarray
    axis2: np.ndarray
    density: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ("position", "momentum"):
            raise ValueError(f"kind must be position or momentum, got {self.kind!r}")
        if self.density.shape != (self.axis1.size, self.axis2.size):
            raise ValueError("density shape does not match axes")
        if np.any(self.density < -1e-14):
            raise ValueError("density must be non-negative")

    @property
    def cell_area(self) -> float:
        return float((self.axis1[1] - self.axis1[0]) * (self.axis2[1] - self.axis2[0]))

    @property
    def mass(self) -> float:
        return float(np.sum(self.density) * self.cell_area)


@dataclass(frozen=True)
class Marginal:
    """1D density over a derived coordinate (difference or sum)."""

    grid: np.ndarray
    density: np.ndarray


def _position_amplitude(state: TwoAtomState, site_matrix: np.ndarray) -> np.ndarray:
    # psi(x1, x2) = sum_{jl} c_jl chi_j(x1) chi_l(x2)
    return site_matrix.T @ state.amplitudes @ site_matrix


def position_joint(
    state: TwoAtomState, basis: WannierBasis, stride: int = 1
) -> JointDistribution:
    """P(x1, x2) including the Wannier cross terms."""
    return thermal_position_joint([state], [1.0], basis, stride)


def thermal_position_joint(
    states: Sequence[TwoAtomState],
    weights: Sequence[float],
    basis: WannierBasis,
    stride: int = 1,
) -> JointDistribution:
    """Incoherent mixture of per-state joint position densities, on every
    ``stride``-th point of the Wannier grid of ``basis``.

    When every state carries its total quasimomentum K (the eigenstates
    of a free ring) and ``stride`` is 1, the density is the same after
    both atoms move one cell: chi_j is chi_0 moved j cells, so
    psi(x1 + 1, x2 + 1) = e^{iK} psi(x1, x2).  Then only the
    ``ppc`` rows of x1 in cell 0 are computed, and row block b of the
    density is that strip rolled by b cells along x2.
    """
    ppc = basis.points_per_cell
    if ppc < 16:
        raise ValueError(f"resolution below 16 points per cell: {ppc}")
    site_matrix = basis.site_matrix()[:, ::stride]
    grid = basis.grid[::stride]
    size = grid.size
    if not (stride == 1 and all(s.quasimomentum is not None for s in states)):
        density = np.zeros((size, size))
        for state, weight in zip(states, weights):
            density += weight * np.abs(_position_amplitude(state, site_matrix)) ** 2
        return JointDistribution(grid.copy(), grid.copy(), density, "position")
    strip = np.zeros((ppc, size))
    for state, weight in zip(states, weights):
        strip += weight * np.abs(site_matrix[:, :ppc].T @ state.amplitudes @ site_matrix) ** 2
    density = np.empty((size, size))
    for shift in range(0, size, ppc):
        cell = density[shift : shift + ppc]
        cell[:, shift:] = strip[:, : size - shift]
        cell[:, :shift] = strip[:, size - shift :]
    return JointDistribution(grid.copy(), grid.copy(), density, "position")


def default_momentum_grid(basis: WannierBasis) -> np.ndarray:
    """Uniform grid fine enough to resolve the 1/(N a) comb teeth
    (spacing 2 pi / 8N), spanning at least +-3 envelope widths and the
    first few reciprocal-lattice shoulders of the Wannier transform so
    the captured mass is complete to ~1e-8."""
    span = max(3.0 / basis.sigma, 3.5 * RECIPROCAL)
    spacing = RECIPROCAL / (8.0 * basis.site_count)
    n_half = int(np.ceil(span / spacing))
    return spacing * np.arange(-n_half, n_half + 1)


def momentum_joint(
    state: TwoAtomState,
    basis: WannierBasis,
    grid: np.ndarray | None = None,
) -> JointDistribution:
    """P(p1, p2) = |sum_jl c_jl e^{-i(p1 x_j + p2 x_l)} chi~(p1) chi~(p2)|^2."""
    return thermal_momentum_joint([state], [1.0], basis, grid)


def thermal_momentum_joint(
    states: Sequence[TwoAtomState],
    weights: Sequence[float],
    basis: WannierBasis,
    grid: np.ndarray | None = None,
) -> JointDistribution:
    """Incoherent mixture of per-state joint momentum densities.

    The structure factor sum_jl c_jl e^{-i(p1 j + p2 l)} is 2 pi-periodic
    in each momentum, so on a grid p = k dp with dp = 2 pi / M it is the
    M x M discrete Fourier transform of the zero-padded amplitudes.  The
    grid must be uniform, its spacing must divide 2 pi into M >= N steps
    and its points must lie on multiples of the spacing; the default grid
    (M = 8N) does.
    """
    p = default_momentum_grid(basis) if grid is None else np.asarray(grid, float)
    k, m = fourier_indices(p, states[0].site_count)
    k %= m
    power = np.zeros((m, m))
    for state, weight in zip(states, weights):
        structure = np.fft.fft2(state.amplitudes, s=(m, m))
        power += weight * (structure.real**2 + structure.imag**2)
    envelope = np.abs(basis.momentum_transform(p)) ** 2
    density = power[np.ix_(k, k)]
    density *= envelope[:, None]
    density *= envelope[None, :]
    return JointDistribution(p.copy(), p.copy(), density, "momentum")


# ---------------------------------------------------------------------------
# Marginals over difference / sum coordinates and width extraction


def difference_marginal(joint: JointDistribution) -> Marginal:
    """Density of u = axis1 - axis2."""
    return _combined_marginal(joint, sign=-1)


def sum_marginal(joint: JointDistribution) -> Marginal:
    """Density of v = axis1 + axis2."""
    return _combined_marginal(joint, sign=+1)


def _combined_marginal(joint: JointDistribution, sign: int) -> Marginal:
    n = joint.axis1.size
    step = joint.axis1[1] - joint.axis1[0]
    # Row i of the joint adds to the bins i - j + n - 1 (difference) or
    # i + j (sum), a contiguous run of n bins; rows are added in order, so
    # each bin sums its terms in the order of a row-major bincount.
    if sign < 0:
        grid = step * np.arange(-(n - 1), n)
        rows = joint.density[:, ::-1]
    else:
        grid = joint.axis1[0] * 2.0 + step * np.arange(2 * n - 1)
        rows = joint.density
    density = np.zeros(2 * n - 1)
    for i, row in enumerate(rows):
        density[i : i + n] += row
    # one factor of the cell side stays integrated out
    return Marginal(grid, density * step)


def axis_marginal(joint: JointDistribution, which_atom: int = 1) -> Marginal:
    """Single-particle marginal along one axis."""
    step = joint.axis2[1] - joint.axis2[0]
    if which_atom == 1:
        return Marginal(joint.axis1.copy(), joint.density.sum(axis=1) * step)
    if which_atom == 2:
        return Marginal(joint.axis2.copy(), joint.density.sum(axis=0) * step)
    raise ValueError(f"which_atom must be 1 or 2, got {which_atom}")


@dataclass(frozen=True)
class PeakWidth:
    hwhm: float
    center: float
    sigma: float       # second moment of the central lobe


def central_peak_width(marginal: Marginal, near: float = 0.0) -> PeakWidth:
    """Half-width at half-maximum of the peak nearest ``near``.

    The peak must be a local maximum; the half-height crossings are found
    by linear interpolation.  ``sigma`` is the second moment of the lobe
    between the minima on either side of the peak.  On a comb, such as the
    ring's total-momentum marginal with teeth 2 pi / N apart, that lobe is
    one tooth, so ``sigma`` measures the tooth and not the envelope.
    """
    grid, dens = marginal.grid, marginal.density
    if dens.size < 5 or np.max(dens) <= 0:
        raise ValueError("no identifiable central peak: empty density")
    inner = np.arange(1, dens.size - 1)
    is_max = (dens[inner] >= dens[inner - 1]) & (dens[inner] >= dens[inner + 1])
    peaks = inner[is_max & (dens[inner] > 0.05 * np.max(dens))]
    if peaks.size == 0:
        raise ValueError("no identifiable central peak")
    ip = peaks[np.argmin(np.abs(grid[peaks] - near))]
    height = dens[ip]
    half = height / 2.0

    def crossing(direction: int) -> float:
        i = ip
        while 0 < i < dens.size - 1 and dens[i + direction] >= half:
            i += direction
            if dens[i] > height:  # climbed into a taller neighbor peak
                raise ValueError("central peak not isolated at half height")
        j = i + direction
        if j < 0 or j >= dens.size:
            raise ValueError("half-height crossing outside the grid")
        frac = (dens[i] - half) / (dens[i] - dens[j])
        return grid[i] + frac * (grid[j] - grid[i])

    left = crossing(-1)
    right = crossing(+1)
    hwhm = 0.5 * (right - left)

    # second moment over the lobe between the surrounding minima
    lo = ip
    while lo > 0 and dens[lo - 1] < dens[lo]:
        lo -= 1
    hi = ip
    while hi < dens.size - 1 and dens[hi + 1] < dens[hi]:
        hi += 1
    lobe = slice(lo, hi + 1)
    sigma = distribution_sigma(Marginal(grid[lobe], dens[lobe]))
    return PeakWidth(hwhm=float(hwhm), center=float(grid[ip]), sigma=sigma)


def comb_spacing(marginal: Marginal) -> float:
    """Tooth spacing of a comb density on a uniform grid: the most frequent
    gap between adjacent local maxima above 5% of the highest, counted in
    grid steps (the smallest on a tie), times the mean grid step."""
    grid, dens = marginal.grid, marginal.density
    inner = np.arange(1, dens.size - 1)
    is_max = (dens[inner] > dens[inner - 1]) & (dens[inner] > dens[inner + 1])
    peaks = inner[is_max & (dens[inner] > 0.05 * np.max(dens))]
    if peaks.size < 2:
        return float("nan")
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    return float(np.argmax(np.bincount(np.diff(peaks))) * step)


def conditional(
    joint: JointDistribution,
    measured_value: float,
    which_atom: int = 1,
    bin_width: float | None = None,
) -> Marginal:
    """Distribution of the unmeasured atom given the measured value.

    Slices the joint at the grid point nearest ``measured_value`` (or
    integrates over a detector bin of ``bin_width``) and renormalizes.
    """
    axis = joint.axis1 if which_atom == 1 else joint.axis2
    other = joint.axis2 if which_atom == 1 else joint.axis1
    if which_atom not in (1, 2):
        raise ValueError(f"which_atom must be 1 or 2, got {which_atom}")
    if not (axis[0] <= measured_value <= axis[-1]):
        raise ValueError(
            f"measured value {measured_value} outside grid [{axis[0]}, {axis[-1]}]"
        )
    if bin_width is None:
        idx = int(np.argmin(np.abs(axis - measured_value)))
        slc = joint.density[idx, :] if which_atom == 1 else joint.density[:, idx]
        slc = slc.copy()
    else:
        mask = np.abs(axis - measured_value) <= bin_width / 2.0
        if not np.any(mask):
            raise ValueError("detector bin contains no grid points")
        slc = (
            joint.density[mask, :].sum(axis=0)
            if which_atom == 1
            else joint.density[:, mask].sum(axis=1)
        )
    step = other[1] - other[0]
    mass = float(np.sum(slc) * step)
    if mass < 1e-12:
        raise ValueError(f"no probability mass at measured value {measured_value}")
    return Marginal(other.copy(), slc / mass)


def distribution_sigma(marginal: Marginal) -> float:
    """Standard deviation of a (normalized) 1D density."""
    mass = np.trapezoid(marginal.density, marginal.grid)
    mean = np.trapezoid(marginal.grid * marginal.density, marginal.grid) / mass
    var = np.trapezoid(
        (marginal.grid - mean) ** 2 * marginal.density, marginal.grid
    ) / mass
    return float(np.sqrt(var))


def correlation_coefficient(
    joint: JointDistribution, window: float | None = None
) -> float:
    """Pearson correlation of the two coordinates under the joint density,
    optionally restricted to |axis| <= window on both axes."""
    a1, a2, dens = joint.axis1, joint.axis2, joint.density
    if window is not None:
        m1 = np.abs(a1) <= window
        m2 = np.abs(a2) <= window
        a1, a2 = a1[m1], a2[m2]
        dens = dens[np.ix_(m1, m2)]
    mass = np.sum(dens)
    mean1 = np.sum(a1[:, None] * dens) / mass
    mean2 = np.sum(a2[None, :] * dens) / mass
    var1 = np.sum((a1[:, None] - mean1) ** 2 * dens) / mass
    var2 = np.sum((a2[None, :] - mean2) ** 2 * dens) / mass
    cov = np.sum((a1[:, None] - mean1) * (a2[None, :] - mean2) * dens) / mass
    return float(cov / np.sqrt(var1 * var2))


@dataclass(frozen=True)
class EprMetrics:
    """Correlation widths and the inferred s parameter.

    ``dx_minus``/``dp_plus`` are HWHM of the central peaks.  The
    ``*_sigma`` widths are the second moments of the central lobes (see
    ``central_peak_width``); ``dp_plus_sigma`` is that of one comb tooth,
    so it falls as 1/N (0.105, 0.056, 0.038, 0.018 at N = 25, 40, 60, 100
    on the lithium config) while ``dp_plus`` stays at 0.41-0.46.  The
    ``peak_spacing_*`` are the comb tooth spacings (``comb_spacing``) of
    the atom-1 position marginal, one cell, and of the total-momentum
    marginal, 2 pi / N.  At N = 25 the latter's maxima lie 7 to 166 grid
    steps apart; the most frequent gap, 8 steps, is the tooth spacing.
    """

    dx_minus: float
    dp_plus: float
    s: float
    peak_spacing_x: float
    peak_spacing_p: float
    dx_minus_sigma: float
    dp_plus_sigma: float

    def __post_init__(self):
        if min(self.dx_minus, self.dp_plus, self.s) <= 0:
            raise ValueError("widths and s must be positive")


def epr_metrics(
    pos_joint: JointDistribution, mom_joint: JointDistribution
) -> EprMetrics:
    """Extract dx_minus, dp_plus and s = 1/(2 dx dp) from the two joints."""
    if pos_joint.kind != "position" or mom_joint.kind != "momentum":
        raise ValueError("expected a position joint and a momentum joint")
    diff = difference_marginal(pos_joint)
    total = sum_marginal(mom_joint)
    wx = central_peak_width(diff)
    wp = central_peak_width(total)
    spacing_x = comb_spacing(axis_marginal(pos_joint, 1))
    spacing_p = comb_spacing(total)
    return EprMetrics(
        dx_minus=wx.hwhm,
        dp_plus=wp.hwhm,
        s=1.0 / (2.0 * wx.hwhm * wp.hwhm),
        peak_spacing_x=spacing_x,
        peak_spacing_p=spacing_p,
        dx_minus_sigma=wx.sigma,
        dp_plus_sigma=wp.sigma,
    )


# ---------------------------------------------------------------------------
# Thermal estimates


def thermal_dp_plus(sigma_e: float, temperature: float, mass: float) -> float:
    """Total-momentum spread of imperfectly cooled pairs (SI).

    dp_plus = hbar / ( sqrt(2) sigma_E tanh[ hbar^2 / (2 sigma_E^2 m k_B T) ] ),
    approaching hbar / (sqrt 2 sigma_E) as T -> 0.
    """
    if sigma_e <= 0:
        raise ValueError(f"sigma_E must be positive, got {sigma_e}")
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    if temperature == 0:
        return HBAR / (np.sqrt(2.0) * sigma_e)
    arg = HBAR**2 / (2.0 * sigma_e**2 * mass * KB * temperature)
    return HBAR / (np.sqrt(2.0) * sigma_e * np.tanh(arg))


def s_thermal_estimate(
    sigma_e_a: float, sigma_a: float, temperature: float, erec_joule: float
) -> float:
    """s ~ (sigma_E / sqrt(2) sigma) tanh[(a/sigma_E)^2 E_rec/(pi^2 k_B T)].

    All lengths in lattice constants; equivalent to combining the thermal
    dp_plus with dx_minus = sigma.
    """
    if min(sigma_e_a, sigma_a) <= 0:
        raise ValueError("widths must be positive")
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    prefactor = sigma_e_a / (np.sqrt(2.0) * sigma_a)
    if temperature == 0:
        return prefactor
    arg = erec_joule / (np.pi**2 * sigma_e_a**2 * KB * temperature)
    return prefactor * np.tanh(arg)


# ---------------------------------------------------------------------------
# Analytic Gaussian reference state


@dataclass(frozen=True)
class GaussianEprReference:
    """The finite-width two-particle Gaussian reference (hbar = 1).

    Amplitude ~ exp(-(x1-x2)^2/4 dx_minus^2) exp(-(x1+x2)^2/4 dx_plus^2),
    with momentum widths dp_pm = 1/dx_pm.
    """

    dx_minus: float
    dx_plus: float

    def __post_init__(self):
        if min(self.dx_minus, self.dx_plus) <= 0:
            raise ValueError("widths must be positive")

    @property
    def dp_minus(self) -> float:
        return 1.0 / self.dx_minus

    @property
    def dp_plus(self) -> float:
        return 1.0 / self.dx_plus

    def position_density(self, x1, x2) -> np.ndarray:
        x1, x2 = np.asarray(x1, float), np.asarray(x2, float)
        norm = 1.0 / (np.pi * self.dx_minus * self.dx_plus)
        return norm * np.exp(
            -((x1 - x2) ** 2) / (2.0 * self.dx_minus**2)
            - ((x1 + x2) ** 2) / (2.0 * self.dx_plus**2)
        )

    def momentum_density(self, p1, p2) -> np.ndarray:
        p1, p2 = np.asarray(p1, float), np.asarray(p2, float)
        norm = 1.0 / (np.pi * self.dp_minus * self.dp_plus)
        return norm * np.exp(
            -((p1 - p2) ** 2) / (2.0 * self.dp_minus**2)
            - ((p1 + p2) ** 2) / (2.0 * self.dp_plus**2)
        )
