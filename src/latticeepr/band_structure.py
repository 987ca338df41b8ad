"""Lowest-band physics of the 1D cosine lattice.

Everything here works in natural units: lengths in lattice constants ``a``,
energies in recoil energies ``E_rec``, ``hbar = 1``.  The reciprocal lattice
vector is ``G = 2 pi`` and the free dispersion is ``E(k) = (k/pi)^2``.

The lattice potential is ``-(U0/2) cos(2 pi x)`` so that the potential
minima (the sites) sit at integer x; this is the quantum-pendulum problem
with the origin placed on a well, which leaves the spectrum untouched and
makes the Wannier functions even about their site centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

G = 2.0 * np.pi  # reciprocal lattice vector, 1/a
CONVERGENCE_TOL = 1e-10  # E_rec, lowest bands under plane-wave basis doubling
CERTIFICATE_MARGIN = 0.9  # Sturm shifts at +-0.9 CONVERGENCE_TOL, rounding kept inside the rest
MIN_K_POINTS = 8  # smallest quasimomentum grid, hence ring, for the Wannier basis


class ConvergenceError(RuntimeError):
    """Plane-wave eigenvalues failed to converge under basis doubling."""


class GaugeError(RuntimeError):
    """Could not phase-fix a Bloch function at any reference point."""


def quasimomentum_grid(n_k: int) -> np.ndarray:
    """Symmetric k grid spanning the first Brillouin zone [-pi, pi)/a.

    Always contains k = 0; for even n_k the -pi/a edge point is included
    (and is its own inversion partner modulo G).
    """
    return G / n_k * (np.arange(n_k) - n_k // 2)


def _kinetic(ks: np.ndarray, n_planewaves: int) -> np.ndarray:
    """Kinetic terms ((k + nG)/pi)^2, n = -P//2 .. P//2, at every k of
    ``ks``: (n_k, P)."""
    m = n_planewaves // 2
    return ((ks[:, None] + G * np.arange(-m, m + 1)) / np.pi) ** 2


def _pendulum_matrices(u0: float, ks: np.ndarray, n_planewaves: int) -> np.ndarray:
    """Plane-wave Hamiltonians at every k of ``ks``, stacked (n_k, P, P):
    kinetic terms on the diagonal, -U0/4 on the off-diagonals."""
    i = np.arange(n_planewaves)
    stack = np.zeros((ks.size, n_planewaves, n_planewaves))
    stack[:, i, i] = _kinetic(ks, n_planewaves)
    stack[:, i[1:], i[:-1]] = stack[:, i[:-1], i[1:]] = -u0 / 4.0
    return stack


def _sturm_certified(u0: float, ks: np.ndarray, n_planewaves: int, bands: np.ndarray) -> bool:
    """True when, at every k of ``ks``, the b-th eigenvalue of the
    ``n_planewaves``-wave matrix lies within ``CERTIFICATE_MARGIN *
    CONVERGENCE_TOL`` of ``bands[:, b]``, for each column b of ``bands``.

    The number of eigenvalues below a shift s is the number of negative
    pivots of the LDL^T factorization of H - s, which for a tridiagonal H
    is the recurrence q_i = (d_i - s) - e^2 / q_(i-1) (Barth, Martin &
    Wilkinson, Numer. Math. 9, 386 (1967)).  In floating point the count
    is exact for a matrix with the same diagonal and an off-diagonal
    within 2.5 eps |e| of e (Demmel, Applied Numerical Linear Algebra,
    Lemma 5.4), 3 eps with the rounding of e^2.  False, never an exception
    or a warning, where rounding could reach the rest of the tolerance or
    the recurrence leaves the finite numbers (a zero pivot).
    """
    tau = CERTIFICATE_MARGIN * CONVERGENCE_TOL
    n_bands = bands.shape[1]
    shifts = np.concatenate([bands - tau, bands + tau], axis=1)  # (n_k, 2 n_bands)
    pivots = _kinetic(ks, n_planewaves).T[:, :, None] - shifts  # (P, n_k, 2 n_bands)
    # rounding moves the counted eigenvalues by at most 1.5 eps U0 (twice
    # 3 eps |e|) and eps |s| (the shifts), |s| <= max |d - s| as d >= 0 and
    # s lies below the middle of the diagonal's range; twice that must fit
    # in what the shifts leave of the tolerance
    rounding = 4.0 * np.finfo(float).eps * (np.max(np.abs(pivots)) + u0)
    if not rounding < CONVERGENCE_TOL - tau:
        return False
    off2 = (u0 / 4.0) ** 2
    with np.errstate(all="ignore"):
        for i in range(1, n_planewaves):
            pivots[i] -= off2 / pivots[i - 1]
    if not np.all(np.isfinite(pivots)):
        return False
    below = np.count_nonzero(pivots < 0, axis=0)
    b = np.arange(n_bands)
    # at most b eigenvalues below band b - tau, at least b + 1 below band b + tau
    return bool(np.all(below[:, :n_bands] <= b) and np.all(below[:, n_bands:] >= b + 1))


@dataclass(frozen=True)
class BlochSpectrum:
    """Bands of the lattice Hamiltonian on a discrete Brillouin-zone grid.

    ``band_energies[b, ik]`` is the b-th band at quasimomentum
    ``quasimomenta[ik]``; ``band_states[ik]`` holds the real plane-wave
    coefficients of the lowest band (coefficient n multiplies
    ``exp(i (k + n G) x)``).
    """

    quasimomenta: np.ndarray
    band_energies: np.ndarray
    band_states: np.ndarray
    n_planewaves: int

    @property
    def n_k(self) -> int:
        return self.quasimomenta.size

    def lowest_band(self) -> np.ndarray:
        return self.band_energies[0]


def bloch_spectrum(u0: float, n_planewaves: int = 33, n_k: int = 64) -> BlochSpectrum:
    """Diagonalize the plane-wave lattice Hamiltonian at every k point.

    The matrix is tridiagonal: kinetic terms ((k + nG)/pi)^2 on the
    diagonal, -U0/4 on the off-diagonals.  H(-k) is H(k) with the plane
    waves reversed (time reversal), so one batched ``eigh`` solves the
    k <= 0 points; the bands at k > 0 are those at -k, and the lowest-band
    state is the -k vector reversed.  The lowest three bands must agree to
    ``CONVERGENCE_TOL`` with those of the doubled basis of 2P + 1 waves.
    A Sturm count of the doubled matrices certifies that without solving
    them (``_sturm_certified``); where it cannot, the doubled basis is
    solved and the residual compared.
    """
    if not np.isfinite(u0):
        raise ValueError(f"lattice depth must be finite, got {u0}")
    if u0 < 0:
        raise ValueError(f"lattice depth must be non-negative, got {u0}")
    if n_planewaves % 2 == 0 or n_planewaves < 21:
        raise ValueError(f"n_planewaves must be odd and >= 21, got {n_planewaves}")
    if n_k < MIN_K_POINTS:
        raise ValueError(f"n_k must be >= {MIN_K_POINTS}, got {n_k}")

    ks = quasimomentum_grid(n_k)
    # k <= 0 are the first n_k // 2 + 1 points; k > 0 at index i is -k at 2 (n_k // 2) - i
    half = ks <= 0
    vals, vecs = np.linalg.eigh(_pendulum_matrices(u0, ks[half], n_planewaves))
    doubled = 2 * n_planewaves + 1
    if not _sturm_certified(u0, ks[half], doubled, vals[:, :3]):
        vals2 = np.linalg.eigvalsh(_pendulum_matrices(u0, ks[half], doubled))
        worst = float(np.max(np.abs(vals[:, :3] - vals2[:, :3])))
        if worst > CONVERGENCE_TOL:
            raise ConvergenceError(
                f"lowest bands not converged at n_planewaves={n_planewaves}: "
                f"residual {worst:.3e} E_rec > {CONVERGENCE_TOL:.1e}"
            )
    i = np.arange(n_k)
    partner = np.minimum(i, 2 * (n_k // 2) - i)
    states = np.where(half[:, None], vecs[partner, :, 0], vecs[partner, ::-1, 0])
    return BlochSpectrum(ks, vals[partner].T, states, n_planewaves)


@dataclass(frozen=True)
class HoppingResult:
    """Tight-binding reduction of the lowest band.

    ``hop`` is the nearest-neighbor Fourier coefficient of the dispersion
    and ``center_energy`` its mean, ``nn_deviation`` the relative
    mismatch between 4|hop| and the bandwidth (the part carried by longer
    hops).  ``tight_binding_valid`` is False when that mismatch exceeds 5%.
    """

    hop: float
    center_energy: float
    bandwidth: float
    nn_deviation: float
    tight_binding_valid: bool


def hopping_exact(spectrum: BlochSpectrum) -> HoppingResult:
    """Hopping from the Fourier transform of the computed lowest band.

    Negative for the cosine lattice: the band minimum is at k = 0.
    """
    band = spectrum.lowest_band()
    ks = spectrum.quasimomenta
    h0 = float(np.mean(band))
    hop = float(np.mean(band * np.cos(ks)))
    bandwidth = float(np.max(band) - np.min(band))
    if bandwidth > 0:
        nn_deviation = abs(4.0 * abs(hop) - bandwidth) / bandwidth
    else:
        nn_deviation = 0.0
    return HoppingResult(
        hop=hop,
        center_energy=h0,
        bandwidth=bandwidth,
        nn_deviation=nn_deviation,
        tight_binding_valid=bool(nn_deviation <= 0.05),
    )


def hopping_approx(u0: float) -> float:
    """Moderate-depth estimate |V_hop| ~ (1/4) exp(-0.26 U0), in E_rec.

    Stated for U0 up to ~15 E_rec: within 20% of the exact band hopping up
    to U0 ~ 14.5, and 22% low at U0 = 15.  Returns the magnitude.
    """
    if u0 < 0:
        raise ValueError(f"lattice depth must be non-negative, got {u0}")
    return 0.25 * np.exp(-0.26 * u0)


def effective_mass(bandwidth: float, lattice_constant: float = 1.0, hbar: float = 1.0) -> float:
    """Band-bottom effective mass 2 hbar^2 / (a^2 V_B).

    Unit-agnostic: pass SI values for an SI answer, or leave the defaults
    for natural units (where the bare mass is pi^2/2).
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    return 2.0 * hbar**2 / (lattice_constant**2 * bandwidth)


def fourier_indices(p: np.ndarray, n_sites: int = 1) -> tuple[np.ndarray, int]:
    """Integers k with p = k dp on the Fourier grid of spacing
    dp = 2 pi / M, and M.  ValueError unless ``p`` is uniform, its spacing
    divides 2 pi into M >= ``n_sites`` steps and its points are multiples
    of the spacing."""
    if p.ndim != 1 or p.size < 2:
        raise ValueError("momentum grid needs at least two points")
    step = p[1] - p[0]
    if not np.all(np.abs(np.diff(p) - step) <= 1e-9 * abs(step)):
        raise ValueError("momentum grid is not uniform")
    m = int(round(G / step)) if step > 0 else 0
    if m < n_sites:
        raise ValueError(
            f"momentum grid spacing {step} gives {m} points per 2 pi, fewer than {n_sites} sites"
        )
    if abs(m * step - G) > 1e-9 * G:
        raise ValueError(f"momentum grid spacing {step} does not divide 2 pi")
    # p[1] - p[0] carries the rounding of |p|; 2 pi / M does not
    step = G / m
    k = np.rint(p / step)
    if np.any(np.abs(p - k * step) > 1e-9 * step):
        raise ValueError("momentum grid points are not multiples of the spacing")
    return k.astype(int), m


@dataclass(frozen=True)
class WannierBasis:
    """Lowest-band Wannier function on a grid covering the whole lattice.

    The grid spans x in [-1/2, N - 1/2) with ``points_per_cell`` samples
    per lattice constant; site j is centered at x = j and its Wannier
    function is the periodic translate of ``wannier_0`` by j cells.
    """

    grid: np.ndarray
    wannier_0: np.ndarray
    site_count: int
    points_per_cell: int
    sigma: float
    mode_freqs: np.ndarray
    mode_amps: np.ndarray

    @property
    def dx(self) -> float:
        return 1.0 / self.points_per_cell

    def centered_grid(self) -> np.ndarray:
        """Grid coordinates wrapped to [-N/2, N/2), centered on site 0."""
        n = self.site_count
        return (self.grid + n / 2.0) % n - n / 2.0

    def site_function(self, site: int) -> np.ndarray:
        """chi_j on the common grid (periodic translate of chi_0)."""
        return np.roll(self.wannier_0, site * self.points_per_cell)

    def site_matrix(self, stride: int = 1) -> np.ndarray:
        """(N, n_grid / stride) array of the translated Wannier functions on
        every ``stride``-th grid point: row j is ``site_function(j)[::stride]``."""
        size = self.wannier_0.size
        # window r of chi_0 twice over is chi_0 moved by size - r points
        windows = sliding_window_view(np.concatenate([self.wannier_0, self.wannier_0]), size)
        starts = (size - self.points_per_cell * np.arange(self.site_count)) % size
        return windows[:, ::stride][starts]

    def momentum_transform(self, p) -> np.ndarray:
        """Fourier transform chi~(p) = (2 pi)^(-1/2) int chi_0(x) e^{-ipx} dx,
        as the Riemann sum over the centered grid, on a Fourier grid
        p = 2 pi k / M (see ``fourier_indices``).

        The centered grid points are x = -1/2 + j / ppc with integer j, so
        e^{-ipx} = e^{ip/2} e^{-2 pi i r k j / L} on a buffer of L = r M ppc
        points, r the smallest multiple that holds all N ppc offsets: the
        sum is one length-L FFT read at r k mod L.
        """
        p = np.asarray(p, dtype=float)
        k, m = fourier_indices(p)
        ppc = self.points_per_cell
        r = -(-self.site_count // m)
        size = r * m * ppc
        offsets = np.rint((self.centered_grid() + 0.5) * ppc).astype(int)
        buffer = np.zeros(size)
        buffer[offsets % size] = self.wannier_0
        spectrum = np.fft.fft(buffer)[(r * k) % size]
        return spectrum * np.exp(0.5j * p) * (self.dx / np.sqrt(2.0 * np.pi))


def wannier(spectrum: BlochSpectrum, points_per_cell: int = 64) -> WannierBasis:
    """Build the lowest-band Wannier function centered at site 0.

    Gauge: each Bloch function is made real and positive at the site
    center, which in 1D yields the real, even, exponentially localized
    (maximally localized) Wannier function.  The lattice size equals the
    number of k points of ``spectrum``.
    """
    n = spectrum.n_k
    ks = spectrum.quasimomenta
    m = spectrum.n_planewaves // 2
    pw = np.arange(-m, m + 1)

    # Phase fix: real and positive at the site center.  If a Bloch function
    # vanishes there, retry at shifted reference points before giving up.
    coeffs = np.empty((n, spectrum.n_planewaves), dtype=complex)
    for ik in range(n):
        c = spectrum.band_states[ik].astype(complex)
        for x_ref in (0.0, 0.25, 0.125):
            value = np.sum(c * np.exp(1j * (ks[ik] + G * pw) * x_ref))
            if abs(value) > 1e-8:
                coeffs[ik] = c * (value.conjugate() / abs(value))
                break
        else:
            raise GaugeError(
                f"could not gauge-fix Bloch function at k={ks[ik]:.4f}: "
                "vanishes at all reference points"
            )

    freqs = (ks[:, None] + G * pw[None, :]).ravel()
    amps = (coeffs / n).ravel().astype(complex)

    # Every mode sits on the comb f = 2 pi q / N and every grid point on
    # x = -1/2 + i / ppc, so sum_q a_q e^{i f x} is an inverse DFT of
    # length N ppc of a_q e^{-i f/2}, folded onto q mod N ppc (modes that
    # alias take the same values on the grid).
    n_grid = n * points_per_cell
    grid = -0.5 + np.arange(n_grid) / points_per_cell
    folded = np.zeros(n_grid, dtype=complex)
    np.add.at(folded, np.rint(freqs * n / G).astype(int) % n_grid, amps * np.exp(-0.5j * freqs))
    values = np.fft.ifft(folded) * n_grid
    imag_residual = float(np.max(np.abs(values.imag)))
    if imag_residual > 1e-8:
        raise GaugeError(f"Wannier function not real: residual {imag_residual:.2e}")
    chi0 = values.real

    dx = 1.0 / points_per_cell
    norm = float(np.sum(chi0**2) * dx)
    chi0 = chi0 / np.sqrt(norm)
    amps = amps / np.sqrt(norm)

    xc = (grid + n / 2.0) % n - n / 2.0
    sigma = float(np.sqrt(np.sum(xc**2 * chi0**2) * dx))

    return WannierBasis(
        grid=grid,
        wannier_0=chi0,
        site_count=n,
        points_per_cell=points_per_cell,
        sigma=sigma,
        mode_freqs=freqs,
        mode_amps=amps,
    )


def gaussian_sigma(u0: float) -> float:
    """Ground-well Gaussian width: sigma^2 = (1/pi^2) sqrt(1/(2 U0)), in a.

    This sigma^2 is sqrt(2) times the ground-state variance
    1/(2 pi^2 sqrt(U0)) of the harmonic approximation to one well
    (0.190 a against 0.160 a at U0 = 3.93).  At that depth it overlaps the
    Wannier function better than the harmonic width does (0.9949 against
    0.9783); the best-fitting Gaussian has width 0.1945 a.
    """
    if u0 <= 0:
        raise ValueError(f"Gaussian width diverges for lattice depth {u0}")
    return (1.0 / np.pi) * (2.0 * u0) ** -0.25


def gaussian_site_function(grid: np.ndarray, center: float, sigma: float) -> np.ndarray:
    """Normalized Gaussian orbital (2 pi s^2)^(-1/4) exp(-(x-c)^2 / 4 s^2)."""
    return (2.0 * np.pi * sigma**2) ** -0.25 * np.exp(-((grid - center) ** 2) / (4.0 * sigma**2))


def gaussian_approx(u0: float) -> tuple[float, float]:
    """Gaussian width sigma_G and overlap fidelity |<G|chi_0>|^2 against
    the Wannier function of a 16-site lattice."""
    sigma_g = gaussian_sigma(u0)
    basis = wannier(bloch_spectrum(u0, n_k=16))
    xc = basis.centered_grid()
    gauss = gaussian_site_function(xc, 0.0, sigma_g)
    overlap = float(np.sum(gauss * basis.wannier_0) * basis.dx)
    return sigma_g, overlap**2


def gaussian_hopping(u0: float) -> float:
    """<G_0|H|G_1> between Gaussian orbitals on neighboring sites.

    Only useful as a cautionary number: the Gaussian tails are wrong for
    tunneling, so this disagrees with the exact band result, by 15% at
    U0 = 3.93 and by more than 25% from U0 ~ 5.1 on.  In closed form,
    exp(-1/(8 s^2)) [(1 - 1/(4 s^2)) / (4 pi^2 s^2) + (U0/2) exp(-2 pi^2 s^2)]
    with s = ``gaussian_sigma(u0)``.
    """
    sigma = gaussian_sigma(u0)
    span = 1.0 + 10.0 * sigma
    x = np.linspace(-span, span + 1.0, 20001)
    dx = x[1] - x[0]
    g0 = gaussian_site_function(x, 0.0, sigma)
    g1 = gaussian_site_function(x, 1.0, sigma)
    # analytic second derivative of the displaced Gaussian
    g1_xx = g1 * (((x - 1.0) ** 2) / (4.0 * sigma**4) - 1.0 / (2.0 * sigma**2))
    kinetic = -np.sum(g0 * g1_xx) * dx / np.pi**2
    potential = -0.5 * u0 * np.sum(g0 * np.cos(2.0 * np.pi * x) * g1) * dx
    return float(kinetic + potential)


def dispersion_csv_rows(spectrum: BlochSpectrum, n_bands: int = 3):
    """(k, E_0(k), ..., E_{n-1}(k)) rows for the band dump."""
    for ik, k in enumerate(spectrum.quasimomenta):
        yield [k, *spectrum.band_energies[:n_bands, ik]]
