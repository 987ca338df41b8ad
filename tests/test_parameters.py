"""SI reduction, config parsing and the derived-parameter report."""

import dataclasses

import numpy as np
import pytest
import scipy.constants

from latticeepr import constants, parameters
from latticeepr.constants import HBAR
from latticeepr.parameters import (
    ConfigError,
    ExperimentConfig,
    PhysicalParams,
    lithium_default,
    load_config,
    write_config,
)

LI_MASS = 1.1624e-26
LAMBDA_L = 323e-9


def test_constants_match_codata():
    # the literals are scipy.constants' CODATA values, bit for bit
    assert constants.C == scipy.constants.c
    assert constants.HBAR == scipy.constants.hbar
    assert constants.KB == scipy.constants.k
    assert constants.EPSILON_0 == scipy.constants.epsilon_0


class TestRecoilEnergy:
    def test_lithium_value(self):
        erec = parameters.recoil_energy(LI_MASS, LAMBDA_L)
        assert erec == pytest.approx(1.81e-28, rel=0.01)
        # quoted working-point value is 1.85e-28 J; the 7 u mass leaves a ~3% gap
        assert erec == pytest.approx(1.85e-28, rel=0.03)

    def test_mass_scaling(self):
        assert parameters.recoil_energy(2 * LI_MASS, LAMBDA_L) == pytest.approx(
            parameters.recoil_energy(LI_MASS, LAMBDA_L) / 2, rel=1e-12
        )

    def test_wavelength_scaling(self):
        assert parameters.recoil_energy(LI_MASS, 2 * LAMBDA_L) == pytest.approx(
            parameters.recoil_energy(LI_MASS, LAMBDA_L) / 4, rel=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parameters.recoil_energy(0.0, LAMBDA_L)
        with pytest.raises(ValueError):
            parameters.recoil_energy(LI_MASS, -1.0)


class TestLatticeDepth:
    def test_lithium_value(self):
        erec = parameters.recoil_energy(LI_MASS, LAMBDA_L)
        depth = parameters.lattice_depth(1860.0, 1.26e-30, 6.0e7)
        assert depth == pytest.approx(7.0e-28, rel=0.01)
        assert depth / erec == pytest.approx(3.93, rel=0.05)

    def test_zero_intensity(self):
        assert parameters.lattice_depth(0.0, 1.26e-30, 6.0e7) == 0.0

    def test_linear_in_intensity(self):
        one = parameters.lattice_depth(1860.0, 1.26e-30, 6.0e7)
        two = parameters.lattice_depth(3720.0, 1.26e-30, 6.0e7)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            parameters.lattice_depth(1860.0, 1.26e-30, 0.0)


class TestToModel:
    def test_lithium_working_point(self, lithium_model):
        assert lithium_model.lattice_depth == pytest.approx(3.93, rel=0.05)
        assert lithium_model.hop == pytest.approx(-0.09, rel=0.10)
        assert lithium_model.vdd == pytest.approx(-0.5, rel=0.15)
        assert lithium_model.diatom_hop() == pytest.approx(
            2 * lithium_model.hop**2 / lithium_model.vdd, rel=1e-12
        )

    def test_deterministic(self, lithium_config):
        a = lithium_config.model()
        b = lithium_config.model()
        assert a == b  # bit-identical dataclass fields

    def test_zero_intensity_flags_invalidity(self, lithium_config):
        phys = dataclasses.replace(lithium_config.physical, intensity_lattice=1e-12)
        model = parameters.to_model(phys)
        assert not model.tight_binding_valid

    def test_shift_doubling_drops_vdd_eightfold(self, lithium_config):
        phys = lithium_config.physical
        double = dataclasses.replace(phys, lattice_shift=80e-9)
        v40 = parameters.to_model(phys).vdd
        # 80 nm exceeds lambda_C/10 = 67.1 nm
        with pytest.warns(UserWarning, match="nearest-site formula marginal"):
            v80 = parameters.to_model(double).vdd
        assert v40 / v80 == pytest.approx(8.0, rel=1e-12)

    def test_signs(self, lithium_model):
        assert lithium_model.recoil_energy > 0
        assert lithium_model.lattice_depth > 0
        assert lithium_model.vdd < 0
        assert lithium_model.hop < 0


class TestPhysicalParams:
    def test_rejects_large_shift(self, lithium_config):
        with pytest.raises(ValueError):
            dataclasses.replace(lithium_config.physical, lattice_shift=200e-9)

    def test_rejects_zero_detuning(self, lithium_config):
        with pytest.raises(ValueError):
            dataclasses.replace(lithium_config.physical, detuning_lattice=0.0)

    def test_laser_frequency_relation(self, lithium_config):
        phys = lithium_config.physical
        from latticeepr.constants import C

        omega = 2 * np.pi * C / phys.lambda_coupling
        assert phys.omega_coupling == pytest.approx(omega, rel=1e-12)


class TestConfigFile:
    def test_round_trip(self, tmp_path, lithium_config):
        path = tmp_path / "exp.ini"
        write_config(lithium_config, path)
        assert load_config(path) == lithium_config

    def test_write_values_without_exact_nm_form(self, tmp_path, lithium_config):
        # no float x has x * 1e-9 == 1.314e-08 (or 1.1242e-08): the writer
        # must still write them, as the nearest nm / nK value
        config = dataclasses.replace(
            lithium_config,
            physical=dataclasses.replace(lithium_config.physical, lattice_shift=1.314e-08),
            temperature_position_k=1.1242e-08,
        )
        path = tmp_path / "exp.ini"
        write_config(config, path)
        loaded = load_config(path)
        assert loaded.physical.lattice_shift == pytest.approx(1.314e-08, rel=1e-15)
        assert loaded.temperature_position_k == pytest.approx(1.1242e-08, rel=1e-15)

    def test_dict_round_trip(self, lithium_config):
        data = lithium_config.to_dict()
        assert ExperimentConfig.from_dict(data) == lithium_config

    def test_unknown_key_rejected_with_line(self, tmp_path, lithium_config):
        path = tmp_path / "exp.ini"
        write_config(lithium_config, path)
        text = path.read_text().replace("[atom]", "[atom]\nbogus_key = 1")
        path.write_text(text)
        with pytest.raises(ConfigError, match=r":\d+: unknown key 'bogus_key'"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path, lithium_config):
        path = tmp_path / "exp.ini"
        write_config(lithium_config, path)
        path.write_text(path.read_text() + "\n[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_missing_required_section(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[atom]\nmass_kg = 1.16e-26\n")
        with pytest.raises(ConfigError, match="missing"):
            load_config(path)

    def test_bad_value_reported(self, tmp_path, lithium_config):
        path = tmp_path / "exp.ini"
        write_config(lithium_config, path)
        path.write_text(path.read_text().replace("mass_kg = 1.1624e-26", "mass_kg = heavy"))
        with pytest.raises(ConfigError, match="bad value"):
            load_config(path)

    def test_every_field_has_an_ini_key(self):
        # a field no key targets keeps its default in every run
        owners = {
            None: ExperimentConfig,
            "physical": PhysicalParams,
            "protocol": parameters.ProtocolSettings,
            "sweep": parameters.SweepSettings,
        }
        fields = {(owner, f.name) for owner, cls in owners.items() for f in dataclasses.fields(cls)}
        nested = {(None, owner) for owner in owners if owner is not None}
        derived = {("physical", "transition_freq_coupling")}
        targets = {
            (owner, target)
            for owner, keys in parameters._CONFIG_SCHEMA.values()
            for target, _ in keys.values()
        }
        assert fields - nested - derived == targets

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")


class TestReport:
    def test_report_contents(self, lithium_config):
        report = parameters.parameter_report(lithium_config)
        assert report["lattice_depth_erec"] == pytest.approx(3.93, rel=0.05)
        assert report["hop_erec"] == pytest.approx(-0.09, rel=0.10)
        assert report["vdd_erec"] == pytest.approx(-0.5, rel=0.15)
        assert report["diatom_hop_erec"] == pytest.approx(-0.0324, rel=0.10)
        assert report["gaussian_sigma_a"] == pytest.approx(0.19, abs=0.005)
        assert report["tight_binding_valid"] is True
        assert report["natural_time_s"] == pytest.approx(
            HBAR / report["recoil_energy_joule"], rel=1e-12
        )

    def test_one_bloch_solve(self, bloch_solves):
        # the model's hopping and the reported bandwidth come from one
        # Bloch spectrum at the lattice depth
        parameters.parameter_report(lithium_default())
        assert len(bloch_solves) == 1
