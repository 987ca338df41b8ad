"""Laser-induced dipole-dipole interaction between atoms in adjacent tubes.

Geometry: the coupling laser travels along x (the direction of atomic
motion) and is linearly polarized along y; the two lattices are offset by
``l`` along y.  ``theta`` is the angle between the interatomic axis and the
laser wavevector, so two atoms facing each other across the tube gap have
theta = pi/2.  All quantities here are SI.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import C, EPSILON_0, HBAR


def polarizability(dipole: float, omega_atom: float, omega: float) -> float:
    """Atomic dynamic polarizability, 2 w_A |mu|^2 / (hbar (w_A^2 - w^2)).

    Negative above resonance (omega > omega_atom).  Units: C m^2 / V.
    """
    if omega == omega_atom:
        raise ValueError("polarizability diverges on resonance (omega == omega_atom)")
    return 2.0 * omega_atom * abs(dipole) ** 2 / (HBAR * (omega_atom**2 - omega**2))


def coupling_strength(alpha: float, wavelength: float, intensity: float) -> float:
    """Interaction energy scale V_C = alpha^2 k^3 I / (4 pi eps0^2 c), in J."""
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if intensity < 0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    k = 2.0 * np.pi / wavelength
    return alpha**2 * k**3 * intensity / (4.0 * np.pi * EPSILON_0**2 * C)


def f_theta(kr, theta):
    """Dimensionless angular/radial interaction profile F_theta(kR).

    F = cos(kR cos t) { (2 - 3 cos^2 t)[cos kR/(kR)^3 + sin kR/(kR)^2]
                        + cos^2 t cos kR/(kR) }

    The interaction energy is ``-V_C * F``; F > 0 near kR -> 0 at
    theta = pi/2, i.e. attraction between nearest-site atoms.  Accepts
    scalars or arrays (broadcast).  The 1/(kR)^3 and 1/(kR)^2 terms share
    a sign as kR -> 0, so the expression needs no small-kR switch: from
    kR = 1e-12 to 1e-4 it matches 50-digit arithmetic to 3e-16 relative
    wherever (2 - 3 cos^2 t) does not itself cancel.
    """
    kr_arr, theta_arr = np.broadcast_arrays(
        np.asarray(kr, dtype=float), np.asarray(theta, dtype=float)
    )
    if np.any(kr_arr <= 0):
        raise ValueError("kR must be strictly positive")

    ct = np.cos(theta_arr)
    c2 = ct**2
    radial = (2.0 - 3.0 * c2) * (np.cos(kr_arr) / kr_arr**3 + np.sin(kr_arr) / kr_arr**2)
    radial += c2 * np.cos(kr_arr) / kr_arr
    out = np.cos(kr_arr * ct) * radial

    if np.isscalar(kr) and np.isscalar(theta):
        return float(out)
    return out


def vdd_nearest(coupling: float, wavelength: float, shift: float) -> float:
    """Nearest-site interaction -(V_C / 4 pi^3)(lambda_C / l)^3, in J.

    Leading small-(k l) limit of ``-V_C F_theta(k l, pi/2)``: the full
    profile over this formula is exactly cos kl + kl sin kl
    = 1 + (kl)^2/2 - ..., so the gap relative to the full value is 4.6% at
    l = lambda_C/20, 1% at lambda_C/44 and 6.3% at the lithium offset
    (40 nm = lambda_C/16.8).  Warns when the lattice offset is no longer
    small against the coupling wavelength.
    """
    if shift <= 0:
        raise ValueError(f"lattice shift must be positive, got {shift}")
    if shift > wavelength / 10.0:
        warnings.warn(
            f"nearest-site formula marginal: shift {shift:.3g} m exceeds "
            f"lambda_C/10 = {wavelength / 10.0:.3g} m",
            stacklevel=2,
        )
    return -(coupling / (4.0 * np.pi**3)) * (wavelength / shift) ** 3


@dataclass(frozen=True)
class LiddiField:
    """Coupling laser: wavelength (m) and induced energy scale V_C (J)."""

    wavelength: float
    coupling: float

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.coupling < 0:
            raise ValueError(f"coupling V_C must be non-negative, got {self.coupling}")

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @classmethod
    def from_atom(
        cls,
        dipole: float,
        transition_freq: float,
        wavelength: float,
        intensity: float,
    ) -> "LiddiField":
        """Build the field for a laser of given wavelength driving a
        transition at ``transition_freq`` (laser frequency omega = kc)."""
        omega = 2.0 * np.pi * C / wavelength
        alpha = polarizability(dipole, transition_freq, omega)
        return cls(wavelength, coupling_strength(alpha, wavelength, intensity))


def vdd_map(
    field: LiddiField, shift: float, lattice_constant: float, site_range: int
) -> tuple[np.ndarray, np.ndarray]:
    """Interaction energy versus relative site offset of the two atoms.

    Atom 1 sits at site 0 of its lattice, atom 2 at site j of the lattice
    shifted by ``shift`` along y; returns (offsets, energies in J) for
    j = -site_range .. site_range.  The interatomic distance is
    R = sqrt(l^2 + (j a)^2) with cos(theta) = j a / R.
    """
    if shift <= 0:
        raise ValueError(f"lattice shift must be positive, got {shift}")
    offsets = np.arange(-site_range, site_range + 1)
    along = offsets * lattice_constant
    r = np.hypot(shift, along)
    theta = np.arccos(np.clip(along / r, -1.0, 1.0))
    energies = -field.coupling * f_theta(field.wavenumber * r, theta)
    return offsets, energies


def nearest_site_truncation_error(
    field: LiddiField, shift: float, lattice_constant: float, site_range: int = 20
) -> float:
    """sum_{|j|>=1} |V(j)| / |V(0)|: what keeping only the same-site term
    of the interaction throws away."""
    offsets, energies = vdd_map(field, shift, lattice_constant, site_range)
    center = np.abs(energies[offsets == 0][0])
    return float(np.sum(np.abs(energies[offsets != 0])) / center)
