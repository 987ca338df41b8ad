"""Dipole-dipole interaction formulas against hand-evaluated values."""

import numpy as np
import pytest

from latticeepr import liddi
from latticeepr.constants import C, HBAR


# documented lithium coupling laser
LAMBDA_C = 670.8e-9
DIPOLE_C = 2.7e-29
DETUNING_C = 100 * 3.7e7
OMEGA_A = 2 * np.pi * C / LAMBDA_C + DETUNING_C
INTENSITY_C = 230.0
SHIFT = 40e-9


class TestPolarizability:
    def test_lithium_coupling_value(self):
        # far from resonance alpha ~ |mu|^2 / (hbar delta), an independent route
        alpha = liddi.polarizability(DIPOLE_C, OMEGA_A, OMEGA_A - DETUNING_C)
        near_resonance = DIPOLE_C**2 / (HBAR * DETUNING_C)
        assert alpha == pytest.approx(near_resonance, rel=1e-3)
        assert alpha == pytest.approx(1.9e-33, rel=0.05)

    def test_static_limit(self):
        alpha = liddi.polarizability(DIPOLE_C, OMEGA_A, 0.0)
        assert alpha == pytest.approx(2 * DIPOLE_C**2 / (HBAR * OMEGA_A), rel=1e-12)

    def test_sign_above_resonance(self):
        assert liddi.polarizability(DIPOLE_C, OMEGA_A, 1.01 * OMEGA_A) < 0

    def test_resonance_rejected(self):
        with pytest.raises(ValueError):
            liddi.polarizability(DIPOLE_C, OMEGA_A, OMEGA_A)


class TestFTheta:
    def test_perpendicular_small_kr_asymptote(self):
        for kr in (1e-6, 1e-3, 1e-2):
            assert liddi.f_theta(kr, np.pi / 2) == pytest.approx(2 / kr**3, rel=2 * kr**2)

    def test_perpendicular_at_pi(self):
        # cos(pi)/pi^3 + sin(pi)/pi^2 term only, doubled
        assert liddi.f_theta(np.pi, np.pi / 2) == pytest.approx(-2 / np.pi**3, rel=1e-12)

    def test_parallel_at_pi(self):
        # cos(pi) * { -(cos(pi)/pi^3) + cos(pi)/pi } = 1/pi - 1/pi^3
        expected = 1 / np.pi - 1 / np.pi**3
        assert liddi.f_theta(np.pi, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_smooth_and_bounded_on_scan_grid(self):
        kr = np.linspace(0.1, 50.0, 400)
        theta = np.linspace(0.0, np.pi, 40)
        values = liddi.f_theta(kr[:, None], theta[None, :])
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values)) <= 2 / 0.1**3 * 1.01

    def test_rejects_nonpositive_kr(self):
        with pytest.raises(ValueError):
            liddi.f_theta(0.0, 0.3)


@pytest.fixture(scope="module")
def field():
    return liddi.LiddiField.from_atom(DIPOLE_C, OMEGA_A, LAMBDA_C, INTENSITY_C)


class TestVddNearest:
    def test_cubic_scaling(self, field):
        v1 = liddi.vdd_nearest(field.coupling, LAMBDA_C, SHIFT)
        with pytest.warns(UserWarning, match="marginal"):
            v2 = liddi.vdd_nearest(field.coupling, LAMBDA_C, 2 * SHIFT)
        assert v1 / v2 == pytest.approx(8.0, rel=1e-12)

    def test_attractive(self, field):
        assert liddi.vdd_nearest(field.coupling, LAMBDA_C, SHIFT) < 0

    def test_agrees_with_full_profile_at_small_shift(self, field):
        # leading-order agreement: relative error ~ (k l)^2 / 2
        for frac, tol in ((100, 0.003), (50, 0.01)):
            shift = LAMBDA_C / frac
            nearest = liddi.vdd_nearest(field.coupling, LAMBDA_C, shift)
            full = -field.coupling * liddi.f_theta(field.wavenumber * shift, np.pi / 2)
            assert nearest == pytest.approx(full, rel=tol)

    def test_warns_when_shift_large(self, field):
        with pytest.warns(UserWarning, match="marginal"):
            liddi.vdd_nearest(field.coupling, LAMBDA_C, LAMBDA_C / 5)

    def test_zero_shift_rejected(self, field):
        with pytest.raises(ValueError):
            liddi.vdd_nearest(field.coupling, LAMBDA_C, 0.0)


class TestVddMap:
    def test_center_dominates(self, field):
        offsets, energies = liddi.vdd_map(field, SHIFT, 161.5e-9, 5)
        center = np.abs(energies[offsets == 0][0])
        neighbors = np.abs(energies[np.abs(offsets) == 1])
        assert np.all(center / neighbors > 10)

    def test_even_in_offset(self, field):
        offsets, energies = liddi.vdd_map(field, SHIFT, 161.5e-9, 6)
        assert np.allclose(energies, energies[::-1], rtol=1e-12)

    def test_well_depth_grows_with_shift_reduction(self, field):
        # central well at l = 40 nm vs l = 200 nm: > 50x deeper
        _, near = liddi.vdd_map(field, 40e-9, 161.5e-9, 2)
        _, far = liddi.vdd_map(field, 200e-9, 161.5e-9, 2)
        assert abs(near[2]) / abs(far[2]) > 50

    def test_truncation_error_small_for_lithium_geometry(self, field):
        err = liddi.nearest_site_truncation_error(field, SHIFT, 161.5e-9)
        assert err < 0.10


class TestCouplingStrength:
    def test_positive_and_linear_in_intensity(self):
        alpha = liddi.polarizability(DIPOLE_C, OMEGA_A, OMEGA_A - DETUNING_C)
        v1 = liddi.coupling_strength(alpha, LAMBDA_C, INTENSITY_C)
        v2 = liddi.coupling_strength(alpha, LAMBDA_C, 2 * INTENSITY_C)
        assert v1 > 0
        assert v2 == pytest.approx(2 * v1, rel=1e-12)
