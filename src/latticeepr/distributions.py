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
from numpy.lib.stride_tricks import sliding_window_view

from .band_structure import WannierBasis, fourier_indices
from .constants import HBAR, KB
from .two_atom import TwoAtomState

RECIPROCAL = 2.0 * np.pi  # momentum comb period, hbar/a units


_BLOCK_VALUES = 1 << 16  # values per row block a consumer reads: 512 kB


class _Rows:
    """The density of a joint, handed out in row blocks: ``rows(start,
    stop)`` is density[start:stop], ``strided(step)`` the rows of
    density[::step, ::step] and ``total()`` the sum of the density.
    ``factors`` are the arrays it is made of, which must be non-negative."""

    shape: tuple[int, int]
    factors: tuple[np.ndarray, ...]


class _StoredRows(_Rows):
    """A density held as an array: protocol snapshots, open or tilted
    states, hand-built joints."""

    def __init__(self, density: np.ndarray):
        self.density = density
        self.shape = density.shape
        self.factors = (density,)

    def rows(self, start, stop):
        return self.density[start:stop]

    def strided(self, step):
        return _StoredRows(self.density[::step, ::step])

    def total(self) -> float:
        return np.sum(self.density)


class _MomentumRows(_Rows):
    """(power[k_i, k_j] env_i) env_j: the M x M weighted FFT power, the
    grid's indices k mod M and the envelope |chi~(p)|^2 on the grid."""

    def __init__(self, power: np.ndarray, k: np.ndarray, envelope: np.ndarray):
        self.power, self.k, self.envelope = power, k, envelope
        self.shape = (k.size, k.size)
        self.factors = (power, envelope)
        # the envelope summed over the grid points of each index a
        self.weight = np.bincount(k, envelope, minlength=power.shape[0])

    def rows(self, start, stop):
        # two takes copy the values as one fancy index would, 3-4x faster
        block = self.power.take(self.k[start:stop], axis=0).take(self.k, axis=1)
        block *= self.envelope[start:stop, None]
        block *= self.envelope[None, :]
        return block

    def strided(self, step):
        return _MomentumRows(self.power, self.k[::step], self.envelope[::step])

    def total(self) -> float:
        # sum_ij P[k_i, k_j] e_i e_j = W P W
        return self.weight @ self.power @ self.weight

    def axis_sums(self, which_atom: int) -> np.ndarray:
        """The density summed over the other axis: sum_j P[k_i, k_j] e_i e_j
        = e_i (P W)[k_i] for atom 1, e_j (W P)[k_j] for atom 2."""
        if which_atom == 1:
            return self.envelope * (self.power @ self.weight)[self.k]
        return self.envelope * (self.weight @ self.power)[self.k]


class _RingRows(_Rows):
    """Every ``step``-th row and column of the density whose row i is row
    c = i mod ppc of the ``ppc x G`` strip of cell 0 moved i - c points
    along x2.  ``pair`` is the strip laid twice end to end (the strip is
    its left half), so that row is the window of G points that starts
    G - (i - c) points in; a decimated joint reads the same windows."""

    def __init__(self, pair: np.ndarray, step: int = 1):
        size = pair.shape[1] // 2
        self.pair, self.strip, self.step = pair, pair[:, :size], step
        self.windows = sliding_window_view(pair, size, axis=1)
        self.shape = (-(-size // step),) * 2
        self.factors = (self.strip,)

    def rows(self, start, stop):
        ppc, size = self.strip.shape
        i = np.arange(start, stop) * self.step
        cell = i % ppc
        return self.windows[cell, size - (i - cell), :: self.step]

    def strided(self, step):
        return _RingRows(self.pair, self.step * step)

    def total(self) -> float:
        if self.step > 1:
            return np.sum(self.rows(0, self.shape[0]))
        # every cell's row block is the strip, moved
        return np.sum(self.strip) * (self.shape[0] // self.strip.shape[0])


class JointDistribution:
    """2D probability density with its axes; kind is position|momentum.

    ``density`` is the array itself, or the factors it is made of (a
    ``_Rows``).  The ring's thermal position joint keeps the ``ppc x G``
    strip of cell 0, laid twice end to end (``_RingRows``), and the
    thermal momentum joint the M x M FFT power, the grid's indices into it
    and the envelope (``_MomentumRows``), so neither holds its G x G or
    n_p x n_p density.
    Every consumer (the marginals, ``conditional``, ``mass``, the matrix
    writer) reads the density in row blocks of at most ``_BLOCK_VALUES``
    values (``blocks``, ``rows``); the ``density`` property builds the
    whole array and is meant for tests and ``correlation_coefficient``.
    """

    def __init__(self, axis1: np.ndarray, axis2: np.ndarray, density, kind: str):
        if kind not in ("position", "momentum"):
            raise ValueError(f"kind must be position or momentum, got {kind!r}")
        rows = density if isinstance(density, _Rows) else _StoredRows(density)
        if rows.shape != (axis1.size, axis2.size):
            raise ValueError("density shape does not match axes")
        if any(np.any(factor < -1e-14) for factor in rows.factors):
            raise ValueError("density must be non-negative")
        self.axis1, self.axis2, self.kind = axis1, axis2, kind
        self._rows = rows

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start`` to ``stop`` of the density (``stop`` clipped to
        the last row)."""
        return self._rows.rows(start, min(stop, self.axis1.size))

    def blocks(self, start: int = 0, stop: int | None = None):
        """(first row, block) over rows ``start`` to ``stop``, in order, in
        blocks of at most ``_BLOCK_VALUES`` values (one row at least)."""
        stop = self.axis1.size if stop is None else stop
        height = max(1, _BLOCK_VALUES // self.axis2.size)
        for first in range(start, stop, height):
            yield first, self._rows.rows(first, min(stop, first + height))

    def decimated(self, step: int) -> JointDistribution:
        """The joint on every ``step``-th point of each axis."""
        return JointDistribution(
            self.axis1[::step], self.axis2[::step], self._rows.strided(step), self.kind
        )

    @property
    def density(self) -> np.ndarray:
        return self.rows(0, self.axis1.size)

    @property
    def cell_area(self) -> float:
        return float((self.axis1[1] - self.axis1[0]) * (self.axis2[1] - self.axis2[0]))

    @property
    def mass(self) -> float:
        return float(self._rows.total() * self.cell_area)


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
    ``ppc`` rows of x1 in cell 0 are computed, and the joint keeps that
    strip: row block b of the density is the strip moved b cells along
    x2, gathered when a consumer reads it (``_RingRows``).
    """
    ppc = basis.points_per_cell
    if ppc < 16:
        raise ValueError(f"resolution below 16 points per cell: {ppc}")
    site_matrix = basis.site_matrix(stride)
    grid = basis.grid[::stride]
    size = grid.size
    if not (stride == 1 and all(s.quasimomentum is not None for s in states)):
        density = np.zeros((size, size))
        for state, weight in zip(states, weights):
            density += weight * np.abs(_position_amplitude(state, site_matrix)) ** 2
        return JointDistribution(grid.copy(), grid.copy(), density, "position")
    pair = np.zeros((ppc, 2 * size))
    strip = pair[:, :size]
    for state, weight in zip(states, weights):
        strip += weight * np.abs(site_matrix[:, :ppc].T @ state.amplitudes @ site_matrix) ** 2
    pair[:, size:] = strip
    return JointDistribution(grid.copy(), grid.copy(), _RingRows(pair), "position")


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

    H is real, so a ring eigenstate at -K is the conjugate of the one at
    K, and its power is the K power at (-p1, -p2).  A state at K is
    paired with one at 2 pi - K of equal weight whose amplitudes are the
    conjugate of its own to ``_CONJUGATE_TOL``; each pair takes one
    transform, and the reflection of the pairs' power is added once.
    Every other state takes a transform of its own: one without K or
    without such a partner, as the pair band's states at K = 0 and pi are.

    The joint keeps the factors of the density
    P(p1, p2) = power[k1, k2] |chi~(p1)|^2 |chi~(p2)|^2, k = p / dp mod M:
    the M x M weighted power (M^2 values, against the n_p^2 of the
    density), the grid's indices k and the envelope.  Its rows are built
    when a consumer reads them, and ``mass`` sums the factors.
    """
    p = default_momentum_grid(basis) if grid is None else np.asarray(grid, float)
    k, m = fourier_indices(p, states[0].site_count)
    k %= m
    paired, single = _conjugate_pairs(states, weights)
    power = np.zeros((m, m))
    structure = np.empty((m, m), dtype=complex)
    scratch = np.empty((m, m))
    for i in paired:
        _add_power(power, weights[i], states[i].amplitudes, structure, scratch)
    if paired:  # power[-k1 mod M, -k2 mod M]
        scratch[0, 0] = power[0, 0]
        scratch[0, 1:] = power[0, :0:-1]
        scratch[1:, 0] = power[:0:-1, 0]
        scratch[1:, 1:] = power[:0:-1, :0:-1]
        power += scratch
    for i in single:
        _add_power(power, weights[i], states[i].amplitudes, structure, scratch)
    envelope = np.abs(basis.momentum_transform(p)) ** 2
    return JointDistribution(p.copy(), p.copy(), _MomentumRows(power, k, envelope), "momentum")


_CONJUGATE_TOL = 1e-12  # |c(-K) - conj c(K)| of a ring pair: ~1e-14 at N = 100


def _conjugate_pairs(states, weights) -> tuple[list[int], list[int]]:
    """Indices of one state of each pair of equal weight whose amplitudes
    are conjugate to ``_CONJUGATE_TOL``, and of every other state, each in
    order.  A state at K looks for its partner among those at 2 pi - K."""
    waiting: dict[int, list[int]] = {}
    paired, partnered = [], set()
    for i, state in enumerate(states):
        if state.quasimomentum is None:
            continue
        n = state.site_count
        block = round(state.quasimomentum * n / RECIPROCAL) % n
        candidates = waiting.get(-block % n, [])
        for j in candidates:
            if (
                weights[j] == weights[i]
                and np.max(np.abs(states[j].amplitudes.conj() - state.amplitudes))
                <= _CONJUGATE_TOL
            ):
                candidates.remove(j)
                paired.append(j)
                partnered.update((i, j))
                break
        else:
            waiting.setdefault(block, []).append(i)
    return sorted(paired), [i for i in range(len(states)) if i not in partnered]


def _structure_factor(amplitudes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """fft2(amplitudes, s=out.shape) into ``out``: only the N rows the
    amplitudes fill are transformed along axis 1, the rest stay zero."""
    n = amplitudes.shape[0]
    out[n:] = 0.0
    np.fft.fft(amplitudes, n=out.shape[1], axis=1, out=out[:n])
    return np.fft.fft(out, axis=0, out=out)


def _add_power(power, weight, amplitudes, structure, scratch) -> None:
    """power += weight * |fft2(amplitudes)|^2, in the buffers given."""
    _structure_factor(amplitudes, structure)
    np.square(structure.real, out=scratch)
    np.square(structure.imag, out=structure.imag)
    scratch += structure.imag
    scratch *= weight
    power += scratch


# ---------------------------------------------------------------------------
# Marginals over difference / sum coordinates and width extraction


def difference_marginal(joint: JointDistribution) -> Marginal:
    """Density of u = axis1 - axis2."""
    return _combined_marginal(joint, sign=-1)


def sum_marginal(joint: JointDistribution) -> Marginal:
    """Density of v = axis1 + axis2."""
    return _combined_marginal(joint, sign=+1)


def _combined_marginal(joint: JointDistribution, sign: int) -> Marginal:
    if not np.array_equal(joint.axis1, joint.axis2):
        raise ValueError("sum and difference marginals need the same grid on both axes")
    n = joint.axis1.size
    step = joint.axis1[1] - joint.axis1[0]
    # Row i of the joint adds to the bins i - j + n - 1 (difference) or
    # i + j (sum), a contiguous run of n bins; rows are added in order, so
    # each bin sums its terms in the order of a row-major bincount.
    if sign < 0:
        grid = step * np.arange(-(n - 1), n)
    else:
        grid = joint.axis1[0] * 2.0 + step * np.arange(2 * n - 1)
    density = np.zeros(2 * n - 1)
    for first, block in joint.blocks():
        for i, row in enumerate(block[:, ::-1] if sign < 0 else block, first):
            density[i : i + n] += row
    # one factor of the cell side stays integrated out
    return Marginal(grid, density * step)


def axis_marginal(joint: JointDistribution, which_atom: int = 1) -> Marginal:
    """Single-particle marginal along one axis: the other axis is summed
    out with its own step.  A factored momentum joint sums its factors
    (``_MomentumRows.axis_sums``); any other joint adds its rows."""
    if which_atom not in (1, 2):
        raise ValueError(f"which_atom must be 1 or 2, got {which_atom}")
    if isinstance(joint._rows, _MomentumRows):
        sums = joint._rows.axis_sums(which_atom)
    elif which_atom == 1:
        sums = np.concatenate([block.sum(axis=1) for _, block in joint.blocks()])
    else:
        sums = _row_sum(joint, 0, joint.axis1.size)
    if which_atom == 1:
        return Marginal(joint.axis1.copy(), sums * (joint.axis2[1] - joint.axis2[0]))
    return Marginal(joint.axis2.copy(), sums * (joint.axis1[1] - joint.axis1[0]))


def _row_sum(joint: JointDistribution, start: int, stop: int) -> np.ndarray:
    """Rows ``start`` to ``stop`` of the density added one after another,
    the order of ``density[start:stop].sum(axis=0)``."""
    total = np.zeros(joint.axis2.size)
    for _, block in joint.blocks(start, stop):
        for row in block:
            total += row
    return total


@dataclass(frozen=True)
class PeakWidth:
    hwhm: float
    center: float
    sigma: float       # second moment of the central lobe


def _half_height_brackets(marginal: Marginal) -> tuple[int, list]:
    """The peak nearest 0 (a local maximum above 5% of the highest)
    and, on its left and on its right, the pair (i, j) of adjacent points
    between which the density first falls below half the peak: the last
    point at or above half height and the next one out."""
    grid, dens = marginal.grid, marginal.density
    if dens.size < 5 or np.max(dens) <= 0:
        raise ValueError("no identifiable central peak: empty density")
    inner = np.arange(1, dens.size - 1)
    is_max = (dens[inner] >= dens[inner - 1]) & (dens[inner] >= dens[inner + 1])
    peaks = inner[is_max & (dens[inner] > 0.05 * np.max(dens))]
    if peaks.size == 0:
        raise ValueError("no identifiable central peak")
    ip = peaks[np.argmin(np.abs(grid[peaks]))]
    height = dens[ip]
    half = height / 2.0
    brackets = []
    for direction in (-1, +1):
        i = ip
        while 0 < i < dens.size - 1 and dens[i + direction] >= half:
            i += direction
            if dens[i] > height:  # climbed into a taller neighbor peak
                raise ValueError("central peak not isolated at half height")
        j = i + direction
        if j < 0 or j >= dens.size:
            raise ValueError("half-height crossing outside the grid")
        brackets.append((i, j))
    return ip, brackets


def central_peak_width(marginal: Marginal) -> PeakWidth:
    """Half-width at half-maximum of the peak nearest 0.

    The peak must be a local maximum; the half-height crossings are found
    by linear interpolation.  ``sigma`` is the second moment of the lobe
    between the minima on either side of the peak.  On a comb, such as the
    ring's total-momentum marginal with teeth 2 pi / N apart, that lobe is
    one tooth, so ``sigma`` measures the tooth and not the envelope.
    """
    grid, dens = marginal.grid, marginal.density
    ip, brackets = _half_height_brackets(marginal)
    half = dens[ip] / 2.0
    left, right = (
        grid[i] + (dens[i] - half) / (dens[i] - dens[j]) * (grid[j] - grid[i])
        for i, j in brackets
    )
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


def cubic_peak_hwhm(marginal: Marginal) -> float:
    """Half-width at half-maximum of the peak ``central_peak_width``
    measures, with each half-height crossing taken from the cubic through
    the 4 samples around it (Lagrange): the root of that cubic minus half
    the height on the bracketing interval, the one nearest the peak's side
    when there are several.  Its error falls as the fourth power of the
    grid step, the linear crossing's as the square."""
    grid, dens = marginal.grid, marginal.density
    ip, brackets = _half_height_brackets(marginal)
    half = dens[ip] / 2.0
    left, right = (_cubic_crossing(grid, dens - half, i, j) for i, j in brackets)
    return float(0.5 * (right - left))


def _cubic_crossing(grid: np.ndarray, values: np.ndarray, i: int, j: int) -> float:
    """The zero of the cubic through the 4 ``values`` around the
    adjacent points i and j (values[i] >= 0 > values[j]) between them."""
    a = min(i, j)
    start = min(max(a - 1, 0), values.size - 4)
    nodes = slice(start, start + 4)
    step = grid[a + 1] - grid[a]
    t = (grid[nodes] - grid[a]) / step  # 0 at point a, 1 at a + 1
    roots = np.roots(np.linalg.solve(np.vander(t), values[nodes]))
    inside = roots.real[(np.abs(roots.imag) <= 1e-9) & (np.abs(roots.real - 0.5) <= 0.5 + 1e-9)]
    root = inside[np.argmin(np.abs(inside - (i - a)))]
    return grid[a] + min(max(root, 0.0), 1.0) * step


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
        lo = int(np.argmin(np.abs(axis - measured_value)))
        hi = lo + 1
    else:
        # the axis is monotonic, so the bin is a run of grid points
        inside = np.flatnonzero(np.abs(axis - measured_value) <= bin_width / 2.0)
        if inside.size == 0:
            raise ValueError("detector bin contains no grid points")
        lo, hi = inside[0], inside[-1] + 1
    if which_atom == 1:
        slc = _row_sum(joint, lo, hi)
    else:
        slc = np.concatenate([block[:, lo:hi].sum(axis=1) for _, block in joint.blocks()])
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
    ``dx_minus_converged`` is ``dx_minus`` with cubic half-height crossings
    (``cubic_peak_hwhm``): on the lithium config it reads 0.2099477 at 32
    points per cell, against 0.2101126 for ``dx_minus`` and 0.2099384 for
    both in the limit of a fine grid.
    """

    dx_minus: float
    dp_plus: float
    s: float
    peak_spacing_x: float
    peak_spacing_p: float
    dx_minus_sigma: float
    dp_plus_sigma: float
    dx_minus_converged: float

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
        dx_minus_converged=cubic_peak_hwhm(diff),
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
