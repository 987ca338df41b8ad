"""SI-level inputs and their reduction to dimensionless model parameters.

This is the only module (together with :mod:`latticeepr.liddi`) that touches
SI units.  Everything downstream consumes :class:`ModelParams`, whose
energies are in recoil units E_rec and whose lengths are in lattice
constants a = lambda_L / 2.

The experiment configuration file is a plain INI file with sections
``atom``, ``lattice``, ``coupling``, ``model``, ``protocol``, ``output`` and
``sweep``; every physical key carries an explicit SI unit suffix.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import band_structure, liddi
from .constants import C, EPSILON_0, HBAR, KB

BOUNDARIES = ("open", "periodic")
TILT_SPECIES = ("first", "second", "both")
SWEEP_PARAMETERS = ("vdd", "vhop", "U0", "T", "sigma_E", "l", "slope")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def recoil_energy(mass: float, lambda_lattice: float) -> float:
    """Recoil energy 2 pi^2 hbar^2 / (m lambda_L^2), in J."""
    if mass <= 0:
        raise ValueError(f"mass must be positive, got {mass}")
    if lambda_lattice <= 0:
        raise ValueError(f"lattice wavelength must be positive, got {lambda_lattice}")
    return 2.0 * np.pi**2 * HBAR**2 / (mass * lambda_lattice**2)


def lattice_depth(intensity: float, dipole: float, detuning: float) -> float:
    """Lattice depth U0 = 4 |mu_L|^2 I_L / (eps0 hbar c delta_L), in J."""
    if detuning == 0:
        raise ValueError("lattice detuning must be nonzero")
    if intensity < 0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    return 4.0 * abs(dipole) ** 2 * intensity / (EPSILON_0 * HBAR * C * detuning)


@dataclass(frozen=True)
class PhysicalParams:
    """SI inputs of the experiment.

    ``transition_freq_coupling`` is the coupling transition frequency
    omega_A; the coupling laser runs at omega = omega_A - detuning_coupling
    = 2 pi c / lambda_coupling.
    """

    atom_mass: float            # kg
    lambda_lattice: float       # m
    lambda_coupling: float      # m
    intensity_lattice: float    # W/m^2
    intensity_coupling: float   # W/m^2
    dipole_lattice: float       # C m
    dipole_coupling: float      # C m
    detuning_lattice: float     # rad/s
    detuning_coupling: float    # rad/s
    transition_freq_coupling: float  # rad/s
    lattice_shift: float        # m

    def __post_init__(self):
        positive = (
            "atom_mass",
            "lambda_lattice",
            "lambda_coupling",
            "intensity_lattice",
            "intensity_coupling",
            "dipole_lattice",
            "dipole_coupling",
            "transition_freq_coupling",
            "lattice_shift",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive, got {getattr(self, name)}")
        if self.detuning_lattice == 0 or self.detuning_coupling == 0:
            raise ValueError("detunings must be nonzero")
        if self.lattice_shift >= self.lambda_lattice / 2.0:
            raise ValueError(
                f"lattice shift {self.lattice_shift} must be below half a lattice "
                f"wavelength {self.lambda_lattice / 2.0}"
            )

    @property
    def lattice_constant(self) -> float:
        return self.lambda_lattice / 2.0

    @property
    def omega_coupling(self) -> float:
        return self.transition_freq_coupling - self.detuning_coupling

    @classmethod
    def from_lasers(cls, **kwargs) -> "PhysicalParams":
        """Construct with omega_A derived from the coupling wavelength:
        omega_A = 2 pi c / lambda_C + delta_C."""
        kwargs["transition_freq_coupling"] = (
            2.0 * np.pi * C / kwargs["lambda_coupling"] + kwargs["detuning_coupling"]
        )
        return cls(**kwargs)

    def coupling_field(self) -> liddi.LiddiField:
        """The coupling laser's field and its interaction scale V_C."""
        return liddi.LiddiField.from_atom(
            self.dipole_coupling,
            self.transition_freq_coupling,
            self.lambda_coupling,
            self.intensity_coupling,
        )


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless tight-binding parameters, energies in E_rec units."""

    recoil_energy: float        # J, the energy unit itself
    lattice_depth: float        # U0 / E_rec
    hop: float                  # V_hop / E_rec, negative
    vdd: float                  # V_dd / E_rec, negative for attraction
    site_count: int
    lattice_constant: float     # m
    boundary: str
    tight_binding_valid: bool = True

    def __post_init__(self):
        if self.site_count < 3:
            raise ValueError(f"site_count must be >= 3, got {self.site_count}")
        if self.lattice_constant <= 0:
            raise ValueError(f"lattice constant must be positive, got {self.lattice_constant}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if not (np.isfinite(self.hop) and np.isfinite(self.vdd)):
            raise ValueError("hop and vdd must be finite")

    @property
    def natural_time(self) -> float:
        """hbar / E_rec in seconds; one unit of dimensionless time."""
        return HBAR / self.recoil_energy

    def diatom_hop(self) -> float:
        from . import two_atom

        return two_atom.diatom_hopping(self.hop, self.vdd)


def to_model(
    phys: PhysicalParams, site_count: int = 25, boundary: str = "periodic"
) -> ModelParams:
    """Reduce SI inputs to the dimensionless tight-binding model.

    The hopping comes from the exact band calculation (Fourier transform of
    the computed lowest band), the pair interaction from the nearest-site
    dipole-dipole formula.
    """
    return _model_and_bands(phys, site_count, boundary)[0]


def _model_and_bands(
    phys: PhysicalParams, site_count: int, boundary: str
) -> tuple[ModelParams, band_structure.HoppingResult, band_structure.BlochSpectrum]:
    """:func:`to_model`, the band hopping it was built from and the Bloch
    spectrum (64 k points) of that hopping."""
    erec = recoil_energy(phys.atom_mass, phys.lambda_lattice)
    u0 = lattice_depth(phys.intensity_lattice, phys.dipole_lattice, phys.detuning_lattice) / erec
    spectrum = band_structure.bloch_spectrum(u0)
    hopping = band_structure.hopping_exact(spectrum)
    coupling = phys.coupling_field().coupling
    vdd = liddi.vdd_nearest(coupling, phys.lambda_coupling, phys.lattice_shift) / erec
    return ModelParams(
        recoil_energy=erec,
        lattice_depth=u0,
        hop=hopping.hop,
        vdd=vdd,
        site_count=site_count,
        lattice_constant=phys.lattice_constant,
        boundary=boundary,
        tight_binding_valid=hopping.tight_binding_valid,
    ), hopping, spectrum


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass(frozen=True)
class ProtocolSettings:
    """Preparation-protocol knobs (step times in seconds, lengths in a)."""

    sigma_e_sites: float = 5.0
    # Start downhill-of-center so ejected singles have room to leave
    # before the lattice edge turns them around.
    center_site: int = 8
    slope_erec_per_site: float = 0.04
    tilt_species: str = "first"
    snapshot_times_s: tuple[float, ...] = (0.0, 1.4e-4, 2.16e-4)
    ejection_line_site: float = 13.0
    boundary: str = "open"
    diatom_band_width: int = 1

    def __post_init__(self):
        if self.sigma_e_sites <= 0:
            raise ValueError(f"sigma_e must be positive, got {self.sigma_e_sites}")
        if self.tilt_species not in TILT_SPECIES:
            raise ValueError(f"tilt_species must be one of {TILT_SPECIES}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if not self.snapshot_times_s:
            raise ValueError("snapshot_times_s needs at least one time")
        times = list(self.snapshot_times_s)
        if times != sorted(times) or times[0] < 0:
            raise ValueError(f"snapshot times must be non-negative and non-decreasing, got {times}")
        if self.diatom_band_width < 0:
            raise ValueError(f"diatom_band_width must be >= 0, got {self.diatom_band_width}")


@dataclass(frozen=True)
class SweepSettings:
    parameter: str = "vdd"
    start: float = 0.0
    stop: float = 2.5
    steps: int = 26

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"sweep parameter must be one of {SWEEP_PARAMETERS}, got {self.parameter!r}"
            )
        if self.steps < 0:
            raise ValueError(f"steps must be non-negative, got {self.steps}")
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise ValueError(f"start and stop must be finite, got {self.start} and {self.stop}")

    def grid(self) -> np.ndarray:
        if self.steps == 0:
            return np.array([])
        if self.steps == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description: physics, model size, protocol, output."""

    physical: PhysicalParams
    site_count: int = 25
    boundary: str = "periodic"
    measurement_lattice_depth: float = 13.4   # E_rec, deep lattice for readout
    temperature_position_k: float = 10e-9
    temperature_momentum_k: float = 100e-9
    resolution: int = 32                      # grid points per lattice cell
    protocol: ProtocolSettings = field(default_factory=ProtocolSettings)
    sweep: SweepSettings = field(default_factory=SweepSettings)

    def __post_init__(self):
        if self.site_count < 3:
            raise ValueError(f"site_count must be >= 3, got {self.site_count}")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if self.measurement_lattice_depth <= 0:
            raise ValueError("measurement lattice depth must be positive")
        if self.resolution < 16:
            raise ValueError(f"resolution must be >= 16 points per cell, got {self.resolution}")
        if min(self.temperature_position_k, self.temperature_momentum_k) < 0:
            raise ValueError("temperatures must be non-negative")

    def model(self, boundary: str | None = None) -> ModelParams:
        return to_model(
            self.physical, self.site_count, boundary or self.boundary
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        data["physical"] = PhysicalParams(**data["physical"])
        prot = dict(data["protocol"])
        prot["snapshot_times_s"] = tuple(prot["snapshot_times_s"])
        data["protocol"] = ProtocolSettings(**prot)
        data["sweep"] = SweepSettings(**data["sweep"])
        return cls(**data)


def _scaled_repr(value: float, scale: float) -> str:
    """Decimal string s with float(s) * scale == value exactly.

    The config stores nm/nK-scaled numbers; plain division can miss the
    original float by an ulp, so nudge the candidate until the product
    round-trips.
    """
    candidate = value / scale
    for _ in range(4):
        if float(repr(candidate)) * scale == value:
            return repr(candidate)
        direction = np.inf if float(repr(candidate)) * scale < value else -np.inf
        candidate = float(np.nextafter(candidate, direction))
    return repr(value / scale)


def _finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


# Value types of the INI file: (parse the raw string, format the field).
# _NANO keys hold SI lengths and temperatures in nm / nK.
_FLOAT = (_finite, repr)
_INT = (int, str)
_STR = (str, str)
_NANO = (lambda s: _finite(s) * 1e-9, lambda v: _scaled_repr(v, 1e-9))
_TIMES = (
    lambda s: tuple(_finite(v) for v in s.replace(",", " ").split()),
    lambda v: " ".join(repr(t) for t in v),
)

# Section -> (owning attribute of ExperimentConfig, or None for the config
# itself; key -> (target field, value type)).
_CONFIG_SCHEMA: dict[str, tuple[str | None, dict[str, tuple]]] = {
    "atom": ("physical", {
        "mass_kg": ("atom_mass", _FLOAT),
    }),
    "lattice": ("physical", {
        "lambda_lattice_nm": ("lambda_lattice", _NANO),
        "intensity_lattice_w_per_m2": ("intensity_lattice", _FLOAT),
        "dipole_lattice_coulomb_m": ("dipole_lattice", _FLOAT),
        "detuning_lattice_rad_per_s": ("detuning_lattice", _FLOAT),
    }),
    "coupling": ("physical", {
        "lambda_coupling_nm": ("lambda_coupling", _NANO),
        "intensity_coupling_w_per_m2": ("intensity_coupling", _FLOAT),
        "dipole_coupling_coulomb_m": ("dipole_coupling", _FLOAT),
        "detuning_coupling_rad_per_s": ("detuning_coupling", _FLOAT),
        "lattice_shift_nm": ("lattice_shift", _NANO),
    }),
    "model": (None, {
        "site_count": ("site_count", _INT),
        "boundary": ("boundary", _STR),
        "measurement_lattice_depth_erec": ("measurement_lattice_depth", _FLOAT),
        "temperature_position_nk": ("temperature_position_k", _NANO),
        "temperature_momentum_nk": ("temperature_momentum_k", _NANO),
    }),
    "protocol": ("protocol", {
        "sigma_e_sites": ("sigma_e_sites", _FLOAT),
        "center_site": ("center_site", _INT),
        "slope_erec_per_site": ("slope_erec_per_site", _FLOAT),
        "tilt_species": ("tilt_species", _STR),
        "snapshot_times_s": ("snapshot_times_s", _TIMES),
        "ejection_line_site": ("ejection_line_site", _FLOAT),
        "boundary": ("boundary", _STR),
        "diatom_band_width": ("diatom_band_width", _INT),
    }),
    "output": (None, {
        "resolution_points_per_cell": ("resolution", _INT),
    }),
    "sweep": ("sweep", {
        "parameter": ("parameter", _STR),
        "start": ("start", _FLOAT),
        "stop": ("stop", _FLOAT),
        "steps": ("steps", _INT),
    }),
}


def _key_line(text: str, key: str) -> int:
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith(key) and set(stripped[len(key):].lstrip()[:1]) <= {"=", ":"}:
            return lineno
    return 0


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment INI file.

    Unknown sections or keys are rejected with the offending line number.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    values: dict[str, dict[str, object]] = {name: {} for name in _CONFIG_SCHEMA}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            keys = _CONFIG_SCHEMA[section][1]
            if key not in keys:
                line = _key_line(text, key)
                raise ConfigError(
                    f"{path}:{line}: unknown key '{key}' in section [{section}]"
                )
            target, (parse, _) = keys[key]
            try:
                values[section][target] = parse(raw)
            except ValueError as exc:
                line = _key_line(text, key)
                raise ConfigError(f"{path}:{line}: bad value for '{key}': {raw!r}") from exc

    required = {"atom", "lattice", "coupling"}
    for section in required:
        missing = {
            target for target, _ in _CONFIG_SCHEMA[section][1].values()
        } - set(values[section])
        if missing:
            raise ConfigError(f"{path}: section [{section}] missing keys for {sorted(missing)}")

    try:
        phys = PhysicalParams.from_lasers(
            **values["atom"], **values["lattice"], **values["coupling"]
        )
        protocol = ProtocolSettings(**values["protocol"])
        sweep = SweepSettings(**values["sweep"])
        config = ExperimentConfig(
            physical=phys,
            protocol=protocol,
            sweep=sweep,
            **values["model"],
            **values["output"],
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config


def lithium_default() -> ExperimentConfig:
    """The documented lithium working point (2s-3p lattice, 2s-2p coupling).

    The atomic mass is an explicit input; 7 u is used here, which puts the
    recoil energy about 3% below the quoted 1.85e-28 J.
    """
    phys = PhysicalParams.from_lasers(
        atom_mass=1.1624e-26,
        lambda_lattice=323e-9,
        lambda_coupling=670.8e-9,
        intensity_lattice=1860.0,     # 0.186 W/cm^2
        intensity_coupling=230.0,     # 0.023 W/cm^2
        dipole_lattice=1.26e-30,
        dipole_coupling=2.7e-29,
        detuning_lattice=50 * 1.2e6,
        detuning_coupling=100 * 3.7e7,
        lattice_shift=40e-9,
    )
    return ExperimentConfig(physical=phys)


def write_config(config: ExperimentConfig, path: str | Path) -> None:
    """Write a config back out as INI (inverse of :func:`load_config`)."""
    lines = ["# latticeepr experiment configuration (all keys carry SI unit suffixes)"]
    for section, (owner, keys) in _CONFIG_SCHEMA.items():
        source = config if owner is None else getattr(config, owner)
        lines += ["", f"[{section}]"]
        lines += [
            f"{key} = {fmt(getattr(source, target))}"
            for key, (target, (_, fmt)) in keys.items()
        ]
    Path(path).write_text("\n".join(lines) + "\n")


def parameter_report(config: ExperimentConfig) -> dict:
    """Derived-parameters report (the `params` subcommand payload)."""
    phys = config.physical
    model, hopping, _ = _model_and_bands(phys, config.site_count, config.boundary)
    sigma_g = band_structure.gaussian_sigma(model.lattice_depth)
    fieldC = phys.coupling_field()
    alpha = liddi.polarizability(
        phys.dipole_coupling, phys.transition_freq_coupling, phys.omega_coupling
    )
    diatom_hop = model.diatom_hop()
    a = model.lattice_constant
    report = {
        "recoil_energy_joule": model.recoil_energy,
        "recoil_energy_over_kb_kelvin": model.recoil_energy / KB,
        "natural_time_s": model.natural_time,
        "lattice_constant_m": a,
        "lattice_depth_erec": model.lattice_depth,
        "hop_erec": model.hop,
        "bandwidth_erec": hopping.bandwidth,
        "hop_approx_erec": -band_structure.hopping_approx(model.lattice_depth),
        "beyond_nn_deviation": hopping.nn_deviation,
        "tight_binding_valid": hopping.tight_binding_valid,
        "vdd_erec": model.vdd,
        "diatom_hop_erec": diatom_hop,
        "coupling_strength_joule": fieldC.coupling,
        "polarizability_cm2_per_v": alpha,
        "gaussian_sigma_a": sigma_g,
        "gaussian_sigma_m": sigma_g * a,
        "effective_mass_over_mass": band_structure.effective_mass(hopping.bandwidth)
        / (np.pi**2 / 2.0),
        "diatom_mass_over_effective_mass": abs(model.hop / diatom_hop),
        "nearest_site_truncation_error": liddi.nearest_site_truncation_error(
            fieldC, phys.lattice_shift, a
        ),
    }
    return report
