"""Two distinguishable atoms on shifted lattices: build and diagonalize.

Basis: the N x N product Wannier states |chi_j (atom 1)> |chi_l (atom 2)>,
flattened row-major (index = j * N + l).  Energies in E_rec, on-site band
energy H_0 set to zero (a global offset).  The dipole-dipole interaction
acts only when the atoms face each other, j == l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .constants import KB
from .parameters import ModelParams

DENSE_SITE_LIMIT = 40  # N^2 x N^2 dense solve up to 1600 x 1600


@dataclass(frozen=True)
class ExternalPotential:
    """Per-site external potential added to the lattice Hamiltonian.

    * ``none``: free lattice.
    * ``harmonic``: shallow well whose band-mass ground state has width
      ``sigma_e`` (in a), centered at ``center``; acts on both atoms.
    * ``linear``: tilt of ``slope`` E_rec per site, potential decreasing
      toward larger site index; ``species`` selects which atom feels it.
    """

    kind: str = "none"
    sigma_e: float = 0.0
    center: float = 0.0
    slope: float = 0.0
    species: str = "both"

    def __post_init__(self):
        if self.kind not in ("none", "harmonic", "linear"):
            raise ValueError(f"unknown external potential kind {self.kind!r}")
        if self.kind == "harmonic" and self.sigma_e <= 0:
            raise ValueError("harmonic potential needs sigma_e > 0")
        if self.species not in ("both", "first", "second"):
            raise ValueError(f"species must be both/first/second, got {self.species!r}")
        if not np.isfinite(self.slope):
            raise ValueError("slope must be finite")

    @classmethod
    def none(cls) -> "ExternalPotential":
        return cls()

    @classmethod
    def harmonic(cls, sigma_e: float, center: float) -> "ExternalPotential":
        return cls(kind="harmonic", sigma_e=sigma_e, center=center)

    @classmethod
    def linear(cls, slope: float, species: str = "both") -> "ExternalPotential":
        return cls(kind="linear", slope=slope, species=species)

    def site_energies(self, site_count: int, hop: float) -> np.ndarray:
        """Potential energy per site, E_rec units."""
        j = np.arange(site_count, dtype=float)
        if self.kind == "none":
            return np.zeros(site_count)
        if self.kind == "linear":
            return -self.slope * j
        # harmonic well with curvature set so the band-mass ground state
        # has width sigma_e: V(x) = |hop| (x - c)^2 / (4 sigma_e^4)
        return abs(hop) * (j - self.center) ** 2 / (4.0 * self.sigma_e**4)


@dataclass(frozen=True)
class TwoAtomState:
    """Normalized amplitudes c_{jl} over the product Wannier basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = self.amplitudes
        if amp.ndim != 2 or amp.shape[0] != amp.shape[1]:
            raise ValueError(f"amplitudes must be square, got shape {amp.shape}")
        norm = np.sum(np.abs(amp) ** 2)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state not normalized: |psi|^2 = {norm}")

    @property
    def site_count(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def from_vector(cls, vector: np.ndarray, site_count: int) -> "TwoAtomState":
        amp = np.asarray(vector).reshape(site_count, site_count)
        amp = amp / np.sqrt(np.sum(np.abs(amp) ** 2))
        return cls(amp)

    def vector(self) -> np.ndarray:
        return self.amplitudes.ravel()

    def diagonal_weight(self) -> float:
        """Probability of finding the atoms on facing sites, sum_j |c_jj|^2."""
        return float(np.sum(np.abs(np.diag(self.amplitudes)) ** 2))


@dataclass(frozen=True)
class TwoAtomHamiltonian:
    """Assembled two-atom matrix plus the scalars that built it."""

    matrix: np.ndarray | scipy.sparse.spmatrix
    site_count: int
    hop: float
    vdd: float
    boundary: str
    external: ExternalPotential

    @property
    def is_sparse(self) -> bool:
        return scipy.sparse.issparse(self.matrix)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray() if self.is_sparse else self.matrix

    def expectation(self, state: TwoAtomState) -> float:
        vec = state.vector()
        return float(np.real(np.vdot(vec, self.matrix @ vec)))


def single_atom_matrix(site_count: int, hop: float, boundary: str) -> np.ndarray:
    """Tridiagonal single-band lattice Hamiltonian (H_0 = 0)."""
    m = np.zeros((site_count, site_count))
    idx = np.arange(site_count - 1)
    m[idx, idx + 1] = hop
    m[idx + 1, idx] = hop
    if boundary == "periodic":
        m[0, -1] = hop
        m[-1, 0] = hop
    elif boundary != "open":
        raise ValueError(f"boundary must be open or periodic, got {boundary!r}")
    return m


def build(
    model: ModelParams,
    external: ExternalPotential | None = None,
    sparse: bool | None = None,
) -> TwoAtomHamiltonian:
    """Assemble H = H_lat x 1 + 1 x H_lat + V_dd sum_j |jj><jj| + external."""
    n = model.site_count
    external = external or ExternalPotential.none()
    if sparse is None:
        sparse = n > DENSE_SITE_LIMIT

    single = single_atom_matrix(n, model.hop, model.boundary)
    site_e = external.site_energies(n, model.hop)
    e1 = site_e if external.species in ("both", "first") else np.zeros(n)
    e2 = site_e if external.species in ("both", "second") else np.zeros(n)

    if sparse:
        sp_single = scipy.sparse.csr_matrix(single)
        eye = scipy.sparse.identity(n, format="csr")
        matrix = scipy.sparse.kron(sp_single, eye) + scipy.sparse.kron(eye, sp_single)
        diag = (
            model.vdd * np.eye(n).ravel()
            + np.add.outer(e1, e2).ravel()
        )
        matrix = (matrix + scipy.sparse.diags(diag)).tocsr()
    else:
        if n > DENSE_SITE_LIMIT:
            raise ValueError(
                f"dense two-atom matrix for N={n} is {n * n}x{n * n}; "
                "pass sparse=True"
            )
        eye = np.eye(n)
        matrix = np.kron(single, eye) + np.kron(eye, single)
        matrix[np.diag_indices(n * n)] += np.add.outer(e1, e2).ravel()
        pair = np.arange(n) * n + np.arange(n)  # facing-site states j == l
        matrix[pair, pair] += model.vdd

    return TwoAtomHamiltonian(
        matrix=matrix,
        site_count=n,
        hop=model.hop,
        vdd=model.vdd,
        boundary=model.boundary,
        external=external,
    )


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenpairs plus the detected split-off pair band."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray        # (n_states, N, N)
    site_count: int
    diatom_band: range
    single_atom_min: float
    split_gap: float

    def state(self, index: int) -> TwoAtomState:
        return TwoAtomState(self.eigenvectors[index])

    @property
    def diatom_band_edges(self) -> tuple[float, float]:
        if len(self.diatom_band) == 0:
            raise ValueError("no split-off diatom band")
        return (
            float(self.eigenvalues[self.diatom_band[0]]),
            float(self.eigenvalues[self.diatom_band[-1]]),
        )


def _detect_diatom_band(
    eigenvalues: np.ndarray, single_min: float, site_count: int
) -> tuple[range, float]:
    """States split below the two-free-atom band.

    A band of the lowest m states counts as split off when the gap above it
    exceeds the width of the band itself and the band top lies strictly
    below twice the single-atom minimum.
    """
    n_total = eigenvalues.size
    threshold = 2.0 * single_min - 1e-9 * max(1.0, abs(single_min))
    limit = min(2 * site_count, n_total - 1)
    best_m, best_gap = 0, 0.0
    for m in range(1, limit + 1):
        if eigenvalues[m - 1] >= threshold:
            break
        gap = eigenvalues[m] - eigenvalues[m - 1]
        width = eigenvalues[m - 1] - eigenvalues[0]
        if gap > max(width, 1e-12) and gap > best_gap:
            best_m, best_gap = m, gap
    return range(best_m), best_gap


def diagonalize(
    hamiltonian: TwoAtomHamiltonian,
    n_eigen: int | None = None,
    residual_tol: float = 1e-8,
) -> SpectrumResult:
    """Solve for the spectrum; full dense solve, or lowest ``n_eigen``
    pairs iteratively for sparse problems."""
    n = hamiltonian.site_count
    if hamiltonian.is_sparse:
        k = n_eigen or 2 * n
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                hamiltonian.matrix, k=k, which="SA"
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise RuntimeError(
                f"iterative eigensolver did not converge: {exc}"
            ) from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    else:
        matrix = hamiltonian.dense()
        if not np.all(np.isfinite(matrix)):
            raise ValueError("Hamiltonian contains non-finite entries")
        vals, vecs = scipy.linalg.eigh(matrix)

    scale = float(np.max(np.abs(vals))) or 1.0
    residual = hamiltonian.matrix @ vecs - vecs * vals
    worst = float(np.max(np.abs(residual)))
    if worst > residual_tol * scale:
        raise RuntimeError(
            f"eigenpair residual {worst:.2e} exceeds {residual_tol:.1e} * |H|"
        )

    single = single_atom_matrix(n, hamiltonian.hop, hamiltonian.boundary)
    single_min = float(scipy.linalg.eigvalsh(single)[0])
    if hamiltonian.external.kind == "none":
        band, gap = _detect_diatom_band(vals, single_min, n)
    else:
        band, gap = range(0), 0.0

    return SpectrumResult(
        eigenvalues=vals,
        eigenvectors=np.moveaxis(vecs.reshape(n, n, -1), -1, 0),
        site_count=n,
        diatom_band=band,
        single_atom_min=single_min,
        split_gap=gap,
    )


def diatom_ground_state(spectrum: SpectrumResult) -> TwoAtomState:
    """Lowest eigenvector; for strong binding it approaches the uniform
    facing-sites superposition (1/sqrt N) sum_j |jj>."""
    return spectrum.state(0)


def diatom_hopping(hop: float, vdd: float) -> float:
    """Second-order pair hopping 2 V_hop^2 / V_dd (sign follows V_dd)."""
    if vdd == 0:
        raise ValueError("pair hopping undefined for vanishing interaction")
    return 2.0 * hop**2 / vdd


def diatom_bandwidth(hop: float, vdd: float) -> float:
    """Width of the bound-pair band, 4 |diatom hopping|."""
    return 4.0 * abs(diatom_hopping(hop, vdd))


def diatom_effective_mass(
    hop: float, vdd: float, lattice_constant: float = 1.0, hbar: float = 1.0
) -> float:
    """Pair effective mass hbar^2 |V_dd| / (4 V_hop^2 a^2)."""
    if hop == 0:
        raise ValueError("pair mass diverges for vanishing hopping")
    return hbar**2 * abs(vdd) / (4.0 * hop**2 * lattice_constant**2)


@dataclass(frozen=True)
class ThermalWeights:
    """Boltzmann mixture over a subset of eigenstates."""

    indices: np.ndarray
    weights: np.ndarray

    def states(self, spectrum: SpectrumResult) -> list[TwoAtomState]:
        return [spectrum.state(i) for i in self.indices]


def thermal_state(
    spectrum: SpectrumResult,
    temperature: float,
    erec_joule: float,
    subset: str = "diatom",
    cutoff: float = 1e-12,
) -> ThermalWeights:
    """Boltzmann weights exp(-E_n / k_B T) over the chosen eigenstate subset.

    ``subset`` is 'diatom' (the split-off band) or 'full'.  Temperature in
    kelvin; energies are converted from E_rec via ``erec_joule``.  T = 0
    puts all weight on the (possibly degenerate) lowest states.
    """
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    if subset == "diatom":
        if len(spectrum.diatom_band) == 0:
            raise ValueError("no split-off diatom band to thermalize over")
        indices = np.array(list(spectrum.diatom_band))
    elif subset == "full":
        indices = np.arange(spectrum.eigenvalues.size)
    else:
        raise ValueError(f"subset must be 'diatom' or 'full', got {subset!r}")

    energies = spectrum.eigenvalues[indices]
    e0 = float(np.min(energies))
    if temperature == 0.0:
        degenerate = np.abs(energies - e0) < 1e-12 * max(1.0, abs(e0))
        weights = degenerate.astype(float)
    else:
        beta = erec_joule / (KB * temperature)
        weights = np.exp(-beta * (energies - e0))
    weights = weights / np.sum(weights)
    keep = weights > cutoff
    indices, weights = indices[keep], weights[keep]
    return ThermalWeights(indices=indices, weights=weights / np.sum(weights))
