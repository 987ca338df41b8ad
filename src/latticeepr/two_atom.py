"""Two distinguishable atoms on shifted lattices: build and diagonalize.

Basis: the N x N product Wannier states |chi_j (atom 1)> |chi_l (atom 2)>,
flattened row-major (index = j * N + l).  Energies in E_rec, on-site band
energy H_0 set to zero (a global offset).  The dipole-dipole interaction
acts only when the atoms face each other, j == l.

``diagonalize`` solves a free model in symmetry blocks, never the N^2 x N^2
matrix: on a ring one N x N block per total quasimomentum K = 2 pi m / N
(Valiente & Petrosyan, J. Phys. B 41, 161002 (2008)), of which only
m = 0..N//2 are solved as H is real; on an open chain the blocks of even
and odd atom-swap parity.  A model under a potential is only propagated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import KB
from .parameters import ModelParams

CHEBYSHEV_TAIL = 1e-15
# a pair-band state lies more than BAND_EDGE_MARGIN * max(1, |edge|) below
# its block's continuum edge, so that V_dd = 0 binds nothing at rounding level
BAND_EDGE_MARGIN = 1e-9


@dataclass(frozen=True)
class ExternalPotential:
    """Per-site external potential added to the lattice Hamiltonian.

    * ``none``: free lattice.
    * ``linear``: tilt of ``slope`` E_rec per site, potential decreasing
      toward larger site index; ``species`` selects which atom feels it.
    """

    kind: str = "none"
    slope: float = 0.0
    species: str = "both"

    def __post_init__(self):
        if self.kind not in ("none", "linear"):
            raise ValueError(f"unknown external potential kind {self.kind!r}")
        if self.species not in ("both", "first", "second"):
            raise ValueError(f"species must be both/first/second, got {self.species!r}")
        if not np.isfinite(self.slope):
            raise ValueError("slope must be finite")

    @classmethod
    def linear(cls, slope: float, species: str = "both") -> "ExternalPotential":
        return cls(kind="linear", slope=slope, species=species)

    def site_energies(self, site_count: int) -> np.ndarray:
        """Potential energy per site, E_rec units."""
        if self.kind == "none":
            return np.zeros(site_count)
        return -self.slope * np.arange(site_count, dtype=float)


@dataclass(frozen=True)
class TwoAtomState:
    """Normalized amplitudes c_{jl} over the product Wannier basis.

    ``quasimomentum`` is the total quasimomentum K of a free-ring
    eigenstate, set only by ``SpectrumResult.state``; such a state obeys
    c_{j+1,l+1} = e^{iK} c_jl (indices mod N, as e^{iKN} = 1).  Every other
    state has None.
    """

    amplitudes: np.ndarray
    quasimomentum: float | None = None

    def __post_init__(self):
        amp = self.amplitudes
        if amp.ndim != 2 or amp.shape[0] != amp.shape[1]:
            raise ValueError(f"amplitudes must be square, got shape {amp.shape}")
        norm = np.sum(np.abs(amp) ** 2)
        if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
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
    """H = h x 1 + 1 x h + D: the scalars that define it and its action.

    ``h`` is the tridiagonal single-atom hop (``single_atom_matrix``); it
    moves one atom at a time.  D is diagonal in the product basis,
    D_jl = e1_j + e2_l + V_dd delta_jl: the external potential felt by
    each atom and the interaction on facing sites.  On the N x N amplitude
    matrix C, H C = h C + C h + D o C (elementwise product), so H is
    applied without forming any N^2 x N^2 matrix.
    """

    site_count: int
    hop: float
    vdd: float
    boundary: str
    external: ExternalPotential

    @cached_property
    def diagonal(self) -> np.ndarray:
        """D_jl, the N x N diagonal of H in the product basis."""
        n = self.site_count
        site_e = self.external.site_energies(n)
        e1 = site_e if self.external.species in ("both", "first") else np.zeros(n)
        e2 = site_e if self.external.species in ("both", "second") else np.zeros(n)
        diagonal = np.add.outer(e1, e2)
        diagonal[np.diag_indices(n)] += self.vdd  # facing-site states j == l
        diagonal.flags.writeable = False  # cached: H must not change under its users
        return diagonal

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """H C for the N x N amplitude matrix C."""
        return _apply(amplitudes, self.hop, self.diagonal, self.boundary == "periodic")

    def spectral_bounds(self) -> tuple[float, float]:
        """Gershgorin bounds on the spectrum: min and max of
        D_jl -/+ (r_j + r_l), r the absolute row sums of h."""
        r = np.sum(np.abs(single_atom_matrix(self.site_count, self.hop, self.boundary)), axis=1)
        radius = np.add.outer(r, r)
        return float(np.min(self.diagonal - radius)), float(np.max(self.diagonal + radius))

    def propagate(self, amplitudes: np.ndarray, step: float) -> np.ndarray:
        """e^{-i H step} C by the Chebyshev series of Tal-Ezer & Kosloff,
        J. Chem. Phys. 81, 3967 (1984).

        The Gershgorin bounds map H to X = (H - c) / w with spectrum in
        [-1, 1], and e^{-i H s} = e^{-i c s} sum_k (2 - delta_k0) (-i)^k
        J_k(w s) T_k(X), with J_k(-x) = (-1)^k J_k(x) for s < 0.  Since
        |T_k(X)| <= 1, the truncation error is at most ``CHEBYSHEV_TAIL``
        times |C|.  A zero step is the identity, and an H of zero spectral
        width a pure phase.
        """
        lo, hi = self.spectral_bounds()
        center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        phase = np.exp(-1j * center * step)
        x = half * abs(step)
        if x <= CHEBYSHEV_TAIL:  # |e^{-i x X} - 1| <= x
            return phase * amplitudes
        coeffs = _bessel_series(x)
        coeffs = coeffs * (-1j * np.sign(step)) ** np.arange(coeffs.size)
        coeffs[1:] *= 2.0
        # T_{k+1} = 2X T_k - T_{k-1}, with 2X applied as one operator
        hop, diagonal = 2.0 * self.hop / half, 2.0 * (self.diagonal - center) / half
        periodic = self.boundary == "periodic"
        prev, cur = amplitudes, 0.5 * _apply(amplitudes, hop, diagonal, periodic)
        total = coeffs[0] * prev + coeffs[1] * cur
        for a in coeffs[2:]:
            nxt = _apply(cur, hop, diagonal, periodic)
            nxt -= prev
            prev, cur = cur, nxt
            total += a * cur
        return phase * total

    def expectation(self, state: TwoAtomState) -> float:
        return float(np.real(np.vdot(state.amplitudes, self.apply(state.amplitudes))))


def _apply(amplitudes: np.ndarray, hop: float, diagonal: np.ndarray, periodic: bool) -> np.ndarray:
    """h C + C h + D o C: the hop as shifted slices of hop * C along each
    axis, with the ring wrap when ``periodic``."""
    c = hop * amplitudes
    out = diagonal * amplitudes
    out[1:] += c[:-1]
    out[:-1] += c[1:]
    out[:, 1:] += c[:, :-1]
    out[:, :-1] += c[:, 1:]
    if periodic:
        out[0] += c[-1]
        out[-1] += c[0]
        out[:, 0] += c[:, -1]
        out[:, -1] += c[:, 0]
    return out


def _bessel_series(x: float) -> np.ndarray:
    """J_k(x), k = 0..K, for x > ``CHEBYSHEV_TAIL``, with K >= 1 the first
    index past which 2 sum_{k>K} |J_k(x)| is at most ``CHEBYSHEV_TAIL``.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started
    at k = x + 20 x^(1/3) + 30, where J_k(x) < 1e-40 (the turning region
    around k = x is ~x^(1/3) wide), and rescaled whenever it grows past
    1e100; the sign comes from J_0 + 2 sum J_2k = 1 and the scale from
    J_0^2 + 2 sum J_k^2 = 1, a sum of positive terms.
    """
    start = int(x + 20.0 * x ** (1.0 / 3.0)) + 30
    values = [0.0] * (start + 2)
    values[start] = 1.0
    for k in range(start, 0, -1):
        values[k - 1] = 2.0 * k / x * values[k] - values[k + 1]
        if abs(values[k - 1]) > 1e100:
            values[k - 1 :] = [v * 1e-100 for v in values[k - 1 :]]
    j = np.array(values)
    sign = np.sign(j[0] + 2.0 * np.sum(j[2::2]))
    j *= sign / np.sqrt(j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2))
    tail = 2.0 * np.cumsum(np.abs(j[::-1]))[::-1]
    return j[: max(2, int(np.argmax(tail <= CHEBYSHEV_TAIL)))]


def single_atom_matrix(site_count: int, hop: float, boundary: str) -> np.ndarray:
    """Tridiagonal single-band lattice Hamiltonian (H_0 = 0)."""
    m = np.zeros((site_count, site_count))
    idx = np.arange(site_count - 1)
    m[idx, idx + 1] = m[idx + 1, idx] = hop
    if boundary == "periodic":
        m[0, -1] = m[-1, 0] = hop
    elif boundary != "open":
        raise ValueError(f"boundary must be open or periodic, got {boundary!r}")
    return m


def build(model: ModelParams, external: ExternalPotential | None = None) -> TwoAtomHamiltonian:
    """Two-atom Hamiltonian of ``model`` plus an optional external potential;
    ValueError where ``model.tight_binding_valid`` is False."""
    if not model.tight_binding_valid:
        raise ValueError(
            f"tight-binding model does not hold at lattice depth {model.lattice_depth:.4g} E_rec"
        )
    return TwoAtomHamiltonian(
        model.site_count, model.hop, model.vdd, model.boundary, external or ExternalPotential()
    )


def _swap_basis(site_count: int, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """The atom-swap basis of parity ``sign``: (|jl> + sign |lj>) / sqrt(2)
    for j < l, and |jj> if ``sign`` is +1, in the order of the upper
    triangle, row by row.  For each |jl>, the index of its basis state and
    its amplitude there (0 for |jj> in the odd basis)."""
    j, l = np.triu_indices(site_count, int(sign < 0))
    pair = np.zeros((site_count, site_count), dtype=int)
    pair[j, l] = pair[l, j] = np.arange(j.size)
    a, b = np.indices(pair.shape)
    return pair, np.select([a < b, a > b], [np.sqrt(0.5), sign * np.sqrt(0.5)], float(sign > 0))


def _swap_block(hamiltonian: TwoAtomHamiltonian, sign: float) -> np.ndarray:
    """S^T H S on the open chain's swap basis of parity ``sign``, added up
    entry by entry: S has one entry per |jl>, its amplitude in its basis
    state.  Atom 2's hops are atom 1's under the swap."""
    pair, s = _swap_basis(hamiltonian.site_count, sign)
    block = np.zeros((pair.max() + 1,) * 2)
    np.add.at(block, (pair[:-1], pair[1:]), 2.0 * hamiltonian.hop * s[:-1] * s[1:])  # j -> j + 1
    block += block.T
    np.add.at(block, (pair, pair), hamiltonian.diagonal * s**2)
    return block


def _symmetry_blocks(
    hamiltonian: TwoAtomHamiltonian,
) -> tuple[np.ndarray | list, np.ndarray | None, np.ndarray]:
    """Diagonal blocks of H to solve, the total quasimomentum K of every
    block, and the bottom edge of each solved block's two-free-atom
    continuum; ValueError under an external potential.

    On a free ring c_jl = e^{iK(j+l)/2} g(l - j) / sqrt(N) gives one real
    block per K = 2 pi m / N: relative hopping t_K = 2 V_hop cos(K/2),
    V_dd at r = 0, and the sign (-1)^m = e^{iKN/2} on the hop that wraps
    from r = N - 1 to r = 0.  Its continuum starts at -2|t_K|.  Block
    N - m is block m in the gauge g(r) -> (-1)^r g(r) (t_K flips sign and
    so does the wrap's relative sign), so only m = 0..N//2 are returned.
    A free open chain gives its swap-even and swap-odd blocks, with K None
    and one edge for both, -4|V_hop| cos(pi/(N+1)), twice the single-atom
    minimum; odd states vanish on facing sites, so none binds.
    """
    n = hamiltonian.site_count
    if hamiltonian.external.kind != "none":
        raise ValueError("diagonalize solves free models only; propagate one under a potential")
    if hamiltonian.boundary != "periodic":
        edge = -4.0 * abs(hamiltonian.hop) * np.cos(np.pi / (n + 1))
        return [_swap_block(hamiltonian, sign) for sign in (1.0, -1.0)], None, np.array([edge])
    k = 2.0 * np.pi * np.arange(n) / n
    m = np.arange(n // 2 + 1)
    relative_hop = 2.0 * hamiltonian.hop * np.cos(k[m] / 2.0)
    blocks = np.zeros((m.size, n, n))
    r = np.arange(n - 1)
    blocks[:, r, r + 1] = blocks[:, r + 1, r] = relative_hop[:, None]
    blocks[:, 0, n - 1] = blocks[:, n - 1, 0] = relative_hop * (-1.0) ** m
    blocks[:, 0, 0] = hamiltonian.vdd
    return blocks, k, -2.0 * np.abs(relative_hop)


@dataclass(frozen=True)
class SpectrumResult:
    """Sorted eigenvalues, the eigenvectors of each solved block (see
    ``_symmetry_blocks``) and the pair band: the sorted indices of the
    eigenvalues that lie below their own block's continuum edge.
    ``order[i]`` is the flat (block, column) index of the i-th eigenvalue,
    over every block; on the ring, block N - m is solved block m in the
    gauge g(r) -> (-1)^r g(r).  ``eigenpair_residual`` is the largest
    |B v - v w| over the solved blocks B (E_rec), which ``diagonalize``
    keeps at most 1e-8 of the largest |eigenvalue|."""

    eigenvalues: np.ndarray
    block_vectors: np.ndarray | tuple  # eigenvectors in columns, per solved block
    quasimomenta: np.ndarray | None
    order: np.ndarray
    site_count: int
    diatom_band: np.ndarray
    eigenpair_residual: float

    def state(self, index: int) -> TwoAtomState:
        """The ``index``-th eigenstate in the product basis."""
        n = self.site_count
        flat = int(self.order[index])
        if self.quasimomenta is None:
            even = self.block_vectors[0].shape[1]
            odd = int(flat >= even)
            pair, amplitude = _swap_basis(n, -1.0 if odd else 1.0)
            return TwoAtomState(amplitude * self.block_vectors[odd][pair, flat - odd * even])
        block, column = divmod(flat, n)
        sites = np.arange(n)
        vector = self.block_vectors[min(block, n - block)][:, column]
        if block > n // 2:
            vector = vector * (-1.0) ** sites
        relative = (sites[None, :] - sites[:, None]) % n
        k = float(self.quasimomenta[block])
        # e^{iK(j+l)/2} g(l-j) = e^{iK(j+r/2)} g(r) with r = (l-j) mod N
        phase = np.exp(1j * k * (sites[:, None] + relative / 2.0))
        return TwoAtomState(phase * vector[relative] / np.sqrt(n), k)

    @property
    def diatom_band_edges(self) -> tuple[float, float]:
        if len(self.diatom_band) == 0:
            raise ValueError("no split-off diatom band")
        band = self.eigenvalues[self.diatom_band]
        return float(band[0]), float(band[-1])

    @property
    def split_gap(self) -> float:
        """Lowest eigenvalue outside the pair band minus the band's top:
        0 without a band, negative where the band overlaps the continuum."""
        if len(self.diatom_band) == 0:
            return 0.0
        outside = np.delete(self.eigenvalues, self.diatom_band)
        return float(outside[0] - self.eigenvalues[self.diatom_band[-1]])


def diagonalize(hamiltonian: TwoAtomHamiltonian) -> SpectrumResult:
    """Full spectrum of a free model by a dense solve of each symmetry
    block; ValueError under an external potential."""
    blocks, quasimomenta, edges = _symmetry_blocks(hamiltonian)
    # the ring's blocks are one batch; the two swap blocks differ in size
    batches = [blocks] if quasimomenta is not None else blocks
    if not all(np.all(np.isfinite(b)) for b in batches):
        raise ValueError("Hamiltonian contains non-finite entries")
    solved = [np.linalg.eigh(b) for b in batches]

    # against the whole spectrum: a block can be ~0 throughout (K = pi at V_dd = 0)
    scale = max(np.abs(w).max() for w, _ in solved) or 1.0
    worst = max(np.abs(b @ v - v * w[..., None, :]).max() for b, (w, v) in zip(batches, solved))
    if worst > 1e-8 * scale:
        raise RuntimeError(f"eigenpair residual {worst:.2e} exceeds 1e-8 * |H|")
    vals, vecs = solved[0] if quasimomenta is not None else zip(*solved)
    if quasimomenta is None:  # the swap blocks share the open chain's continuum edge
        vals = np.concatenate(vals)[None]
    else:  # block N - m has the spectrum of block m
        m = np.arange(quasimomenta.size)
        mirror = np.minimum(m, m.size - m)
        vals, edges = vals[mirror], edges[mirror]

    order = np.argsort(vals, axis=None, kind="stable")
    threshold = edges - BAND_EDGE_MARGIN * np.maximum(1.0, np.abs(edges))
    bound = (vals < threshold[:, None]).ravel()[order]
    return SpectrumResult(
        eigenvalues=vals.ravel()[order],
        block_vectors=vecs,
        quasimomenta=quasimomenta,
        order=order,
        site_count=hamiltonian.site_count,
        diatom_band=np.flatnonzero(bound),
        eigenpair_residual=float(worst),
    )


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
    """Boltzmann mixture over the split-off pair band."""

    indices: np.ndarray
    weights: np.ndarray

    def states(self, spectrum: SpectrumResult) -> list[TwoAtomState]:
        return [spectrum.state(i) for i in self.indices]


def thermal_state(
    spectrum: SpectrumResult, temperature: float, erec_joule: float
) -> ThermalWeights:
    """Boltzmann weights exp(-E_n / k_B T) over the split-off pair band,
    dropping states of relative weight 1e-12 or less.

    Temperature in kelvin; energies are converted from E_rec via
    ``erec_joule``.  T = 0 puts all weight on the (possibly degenerate)
    lowest states.
    """
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    if len(spectrum.diatom_band) == 0:
        raise ValueError("no split-off diatom band to thermalize over")
    indices = spectrum.diatom_band
    energies = spectrum.eigenvalues[indices]
    e0 = float(np.min(energies))
    if temperature == 0.0:
        degenerate = np.abs(energies - e0) < 1e-12 * max(1.0, abs(e0))
        weights = degenerate.astype(float)
    else:
        beta = erec_joule / (KB * temperature)
        weights = np.exp(-beta * (energies - e0))
    weights = weights / np.sum(weights)
    keep = weights > 1e-12
    indices, weights = indices[keep], weights[keep]
    return ThermalWeights(indices=indices, weights=weights / np.sum(weights))
