"""Command-line entry point: experiment subcommands over one config file.

Subcommands write deterministic CSV / gnuplot-matrix artifacts plus a run
manifest (config hash, effective config, versions, wall time).  Exit
codes: 0 ok, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
import warnings
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from . import __version__, band_structure, distributions, liddi, protocol, two_atom
from .constants import HBAR
from .parameters import (
    ConfigError,
    ExperimentConfig,
    ModelParams,
    SweepSettings,
    _model_and_bands,
    lithium_default,
    load_config,
    parameter_report,
    recoil_energy,
    write_config,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SWEEP_COLUMNS = [
    "parameter",
    "value",
    "vhop_erec",
    "vdd_erec",
    "diatom_min_erec",
    "diatom_max_erec",
    "split_gap_erec",
    "dx_minus_a",
    "dp_plus_hbar_per_a",
    "s",
    "displacement_ratio",
    "error",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"  # nan for either sign of nan


def _cell_format(value_type: type) -> str:
    """The %-format that writes a value of ``value_type`` as ``_fmt``
    does.  "%.0s" writes None as nothing; a bool goes in as _fmt's text."""
    if value_type is type(None):
        return "%.0s"
    if issubclass(value_type, (str, bool, np.bool_)):
        return "%s"
    if issubclass(value_type, (int, np.integer)):
        return "%d"
    return "%.12g"


class RowBlock(NamedTuple):
    """Rows that share their leading cells: ``(*lead, *tail)`` for each
    ``tail`` of ``tails``.  The tails are tuples of the value types of the
    first, none of them bool."""

    lead: tuple
    tails: Iterable


def write_csv(path: Path, header: list[str], rows) -> None:
    """CSV of ``rows``, each value as ``_fmt`` writes it.  Rows with the
    same value types share one %-template, filled in one % per row.  A
    ``RowBlock`` among the rows writes its lead cells into the template of
    its first tail, which then fills in every tail of the block."""
    templates: dict[tuple, tuple[str, list[int]]] = {}
    lines = [",".join(header)]
    for row in rows:
        if isinstance(row, RowBlock):
            tails = list(row.tails)
            if tails:
                lead = "".join(_fmt(v).replace("%", "%%") + "," for v in row.lead)
                template = lead + ",".join(_cell_format(type(v)) for v in tails[0])
                lines.extend(map(template.__mod__, tails))
            continue
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in templates:
            bools = [i for i, t in enumerate(types) if issubclass(t, (bool, np.bool_))]
            templates[types] = (",".join(map(_cell_format, types)), bools)
        template, bools = templates[types]
        if bools:
            row = tuple(_fmt(v) if i in bools else v for i, v in enumerate(row))
        lines.append(template % row)
    path.write_text("\n".join(lines) + "\n")


def plot_stride(points: int) -> int:
    """Smallest stride that leaves at most 320 of ``points`` grid points
    per axis in a written matrix."""
    return max(1, -(-points // 320))


def decimate_joint(joint: distributions.JointDistribution) -> distributions.JointDistribution:
    """Stride the grid down to at most 320 points per axis for plotting
    (metrics stay on the full grid).  A stored density is a strided view;
    a factored one keeps its factors and builds only the rows it shows."""
    stride = plot_stride(joint.axis1.size)
    if stride == 1:
        return joint
    return joint.decimated(stride)


# The "%19.11e" text of a float, built with numpy: "  d.ddddddddddde+XX",
# with "-" in place of the second space for a negative value.  The value is
# scaled to 12 significant digits, m = |v| 10^(11-e) with
# e = floor(log10 |v|), and rounded.  A value goes through Python's
# "%19.11e" % v instead when it is zero, not finite, outside [1e-99, 1e99)
# (where the exponent has three digits), when frac(m) lies within
# _TIE_MARGIN of 1/2, or when m or its rounding leaves [1e11, 1e12): log10
# one off next to a power of ten, or a carry to the next power of ten.
#
# Error bound: _POW10[k] is 10^k correctly rounded (exact for |k| <= 22)
# and m = fl(|v| _POW10[k]), so m = m_exact (1 + d1)(1 + d2) with
# |d1|, |d2| <= 2^-53.  As m < 1e12, |m - m_exact| < 1e12 * 2.3e-16 =
# 2.3e-4 < _TIE_MARGIN.  Outside the margin, m and m_exact lie on the same
# side of the half-integer, so rint(m) is the correctly rounded 12-digit
# mantissa that "%19.11e" prints.  An m >= 1e11 with m_exact < 1e11 lies
# within 2.3e-4 of 1e11; both round to the same power of ten.
# The mantissa d < 1e12 < 2^53 is an integer, held exactly in a float, and
# so are floor(d / 1e8) and floor(r / 1e4) for r = d mod 1e8: the exact
# quotient lies at least 1e-8 below the next integer, far more than its
# rounding error, so the correctly rounded quotient never reaches it.
_TIE_MARGIN = 1e-3
_E_MIN = -300  # smallest decimal exponent in the table
_POW10 = np.array([float(f"1e{k}") for k in range(_E_MIN, 309)])
_VALUE_WIDTH = 19  # "%19.11e" of any float64, three-digit exponents and nan included
_ROWS_PER_BLOCK = 16  # ~5k values: the block's lines and temporaries stay below 1 MB


def _byte_rows(texts: list[str]) -> np.ndarray:
    """ASCII ``texts`` of one length as the rows of a uint8 array."""
    return np.frombuffer("".join(texts).encode(), np.uint8).reshape(len(texts), -1)


def _words(rows: np.ndarray) -> np.ndarray:
    """Rows of 4 bytes as uint32 words.  A word is only moved whole, so the
    byte order does not matter."""
    return rows.copy().view(np.uint32)[:, 0]


_DIGITS = _words(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0"))  # "0000".."9999"
_EXPONENTS = _words(_byte_rows([f"e{e:+03d}" for e in range(-99, 99)]))


def _format_e11(values: np.ndarray, out: np.ndarray) -> int:
    """Write the "%19.11e" text of each of ``values`` into ``out``, a
    uint8 array of shape ``values.shape + (19,)``.  Returns how many
    values Python's % formatted."""
    a = np.abs(values)
    fast = (a >= 1e-99) & (a < 1e99)
    slow = ~fast
    a[slow] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    m = a
    m *= _POW10.take((11 - _E_MIN) - e)
    fast &= m >= 1e11
    d = np.rint(m)
    m -= d
    np.abs(m, out=m)  # distance to the nearest integer, 1/2 - |frac(m) - 1/2|
    fast &= (m < 0.5 - _TIE_MARGIN) & (d < 1e12)
    np.logical_not(fast, out=slow)
    d[slow] = 1e11
    e[slow] = 0

    # words 1-3 of a 20-byte scratch take the three 4-digit groups, word 4
    # the exponent: the 12 digits land in bytes 4-15, the text in bytes 1-19
    words = np.empty(values.shape + (5,), np.uint32)
    for word, scale in ((1, 1e8), (2, 1e4)):
        group = d / scale
        np.floor(group, out=group)
        words[..., word] = _DIGITS.take(group.astype(np.intp))
        group *= scale
        d -= group
    words[..., 3] = _DIGITS.take(d.astype(np.intp))
    e += 99
    words[..., 4] = _EXPONENTS.take(e)
    text = words.view(np.uint8)
    # the lead digit moves before the "."
    text[..., 1] = ord(" ")
    text[..., 2] = np.where(np.signbit(values), ord("-"), ord(" "))
    text[..., 3] = text[..., 4]
    text[..., 4] = ord(".")
    # one 19-byte item per value, not 19 one-byte items
    out.view("V19")[..., 0] = text[..., 1:].view("V19")[..., 0]

    if not slow.any():
        return 0
    slow = np.nonzero(slow)
    out[slow] = _byte_rows(["%19.11e" % v for v in values[slow].tolist()])
    return slow[0].size


def _text_column(values: np.ndarray) -> np.ndarray:
    """``_fmt(v)`` of each value, right-aligned to the longest, as rows of
    bytes."""
    texts = [_fmt(v) for v in values]
    width = max(map(len, texts))
    return _byte_rows([t.rjust(width) for t in texts])


def write_matrix(path: Path, joint: distributions.JointDistribution, comment: str) -> None:
    """Gnuplot `splot`-ready blocks: x1 x2 density, blank line per x1.

    Each line is ``"%*s %*s %19.11e" % (w1, _fmt(x1), w2, _fmt(x2), v)``,
    with ``w1`` and ``w2`` the longest ``_fmt`` text of each axis, so every
    line of a file has the same length.  A block of rows is built as one
    byte array and written at once, so only one block of the file is held
    in memory.  ``_format_e11`` writes the values; the few it cannot prove
    correct (zero, non-finite, outside [1e-99, 1e99), next to a rounding
    tie) go through Python's ``"%19.11e" % v``."""
    joint = decimate_joint(joint)
    unit = "a" if joint.kind == "position" else "hbar/a"
    x1_text = _text_column(joint.axis1)
    if np.array_equal(joint.axis2, joint.axis1):  # every joint the commands write
        x2_text = x1_text
    else:
        x2_text = _text_column(joint.axis2)
    w1, w2 = x1_text.shape[1], x2_text.shape[1]
    value = slice(w1 + w2 + 2, w1 + w2 + 2 + _VALUE_WIDTH)
    width = value.stop + 1
    rows, n2 = min(_ROWS_PER_BLOCK, joint.axis1.size), joint.axis2.size
    # a row of the file is its lines and the blank line that ends it
    block = np.empty((rows, n2 * width + 1), np.uint8)
    lines = block[:, :-1].reshape(rows, n2, width)
    # axis2, the separators and the line ends are the same in every block
    lines[:, :, w1] = lines[:, :, value.start - 1] = ord(" ")
    lines[:, :, w1 + 1 : value.start - 1] = x2_text
    lines[:, :, -1] = block[:, -1] = ord("\n")
    with path.open("wb") as f:
        f.write(
            f"# {comment}\n# columns: axis1 [{unit}], axis2 [{unit}], probability density\n".encode()
        )
        for start in range(0, joint.axis1.size, rows):
            density = joint.rows(start, start + rows)
            n = density.shape[0]
            lines[:n, :, :w1] = x1_text[start : start + n, None]
            _format_e11(density, lines[:n, :, value])
            f.write(block[:n])


def _config_hash(config: ExperimentConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def write_manifest(
    out_dir: Path,
    command: str,
    config: ExperimentConfig,
    entries: dict,
    t0: float,
    messages: list[str],
) -> None:
    """run_manifest.json; ``entries`` are what the command returned (its
    ``outputs`` and any figures of the run), ``messages`` the run's
    warnings, first seen first."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": command,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "blas_name": blas["name"],
        "blas_version": blas["version"],
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "config_sha256": _config_hash(config),
        "effective_config": config.to_dict(),
        "wall_time_s": time.time() - t0,
        "outputs": sorted(entries["outputs"]),
        **{key: value for key, value in entries.items() if key != "outputs"},
        "warnings": messages,
    }
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=2))


@functools.cache
def _openblas() -> tuple | None:
    """The thread-count getter and setter of the OpenBLAS bundled in
    numpy's wheel (``numpy.libs``), or None where there is none.  Opening
    the library by its path returns the copy the process has loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


def _blas_threads() -> int | None:
    """Threads numpy's OpenBLAS uses now; None without an OpenBLAS."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def _single_blas_thread() -> None:
    """Sweep pool initializer: one BLAS thread per worker process, so the
    workers do not each start a thread per core on the cores they share."""
    lib = _openblas()
    if lib is not None:
        lib[1](1)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the caller's count.

    Every solve of a command is a batch of small blocks (per-K N x N
    blocks, Bloch matrices, one-cell products); a second BLAS thread gains
    them little, and once woken it spins idle and doubles the CPU time.
    An ``OPENBLAS_NUM_THREADS`` in the environment, which OpenBLAS reads
    when it loads, is left in force.
    """
    lib = None if "OPENBLAS_NUM_THREADS" in os.environ else _openblas()
    if lib is None:
        yield
        return
    get, put = lib
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _wannier_basis(config: ExperimentConfig, depth: float) -> band_structure.WannierBasis:
    """Wannier functions of a lattice of depth ``depth`` (E_rec) on the
    config's N sites and output grid; ConfigError below the k grid's
    minimum of ``MIN_K_POINTS`` sites."""
    if config.site_count < band_structure.MIN_K_POINTS:
        raise ConfigError(
            f"site_count = {config.site_count} is below the "
            f"{band_structure.MIN_K_POINTS} sites the Wannier basis needs"
        )
    spectrum = band_structure.bloch_spectrum(depth, n_k=config.site_count)
    return band_structure.wannier(spectrum, points_per_cell=config.resolution)


def _thermal_joints(
    model: ModelParams,
    spectrum: two_atom.SpectrumResult,
    basis: band_structure.WannierBasis,
    t_pos: float,
    t_mom: float,
):
    """Position joint at ``t_pos``, momentum joint at ``t_mom`` (kelvin),
    over the split-off pair band, read out in ``basis``."""
    pos_w = two_atom.thermal_state(spectrum, t_pos, model.recoil_energy)
    mom_w = two_atom.thermal_state(spectrum, t_mom, model.recoil_energy)
    pos = distributions.thermal_position_joint(pos_w.states(spectrum), pos_w.weights, basis)
    mom = distributions.thermal_momentum_joint(mom_w.states(spectrum), mom_w.weights, basis)
    return pos, mom


# ---------------------------------------------------------------------------
# Subcommands


def cmd_params(config: ExperimentConfig, out: Path) -> dict:
    report = parameter_report(config)
    path = out / "params.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    for key in ("lattice_depth_erec", "hop_erec", "vdd_erec", "diatom_hop_erec"):
        print(f"{key} = {report[key]:.6g}")
    return {"outputs": [path.name]}


def cmd_bands(config: ExperimentConfig, out: Path) -> dict:
    # the dispersion is the Bloch spectrum the model's hopping came from
    model, _, spectrum = _model_and_bands(config.physical, config.site_count, config.boundary)
    basis = _wannier_basis(config, model.lattice_depth)
    write_csv(
        out / "dispersion.csv",
        ["k_per_a", "band0_erec", "band1_erec", "band2_erec"],
        band_structure.dispersion_csv_rows(spectrum),
    )
    write_csv(
        out / "wannier.csv",
        ["x_a", "chi"],
        zip(basis.centered_grid(), basis.wannier_0),
    )
    return {"outputs": ["dispersion.csv", "wannier.csv"]}


def cmd_liddi_scan(config: ExperimentConfig, out: Path) -> dict:
    phys = config.physical
    erec = recoil_energy(phys.atom_mass, phys.lambda_lattice)
    offsets, energies = liddi.vdd_map(
        phys.coupling_field(), phys.lattice_shift, phys.lattice_constant, config.site_count // 2
    )
    write_csv(
        out / "liddi_scan.csv",
        ["site_offset", "energy_joule", "energy_erec"],
        zip(offsets, energies, energies / erec),
    )
    return {"outputs": ["liddi_scan.csv"]}


def cmd_spectrum(
    config: ExperimentConfig, out: Path, sweep_spec: str | None = None
) -> dict:
    """Eigenvalue table; with --sweep, every branch versus the swept
    coupling (the split-off pair band emerges as the interaction grows)."""
    model = config.model()
    points = [("vdd", model)]
    if sweep_spec is not None:
        parameter, values = _parse_range(sweep_spec)
        if parameter not in ("vdd", "vhop"):
            raise ConfigError(
                f"spectrum sweeps support vdd or vhop, got {parameter!r}"
            )
        points = [(parameter, _vary_model(config, model, parameter, v)) for v in values]
    blocks, residual = [], 0.0
    for parameter, varied in points:
        value = varied.vdd if parameter == "vdd" else varied.hop
        spectrum = two_atom.diagonalize(two_atom.build(varied))
        blocks.append(RowBlock((parameter, value), enumerate(spectrum.eigenvalues.tolist())))
        residual = max(residual, spectrum.eigenpair_residual)
    write_csv(
        out / "spectrum.csv",
        ["parameter", "value", "index", "energy_erec"],
        blocks,
    )
    return {"outputs": ["spectrum.csv"], "eigenpair_residual_erec": residual}


def cmd_dist(config: ExperimentConfig, out: Path) -> dict:
    model = config.model(boundary="periodic")
    spectrum = two_atom.diagonalize(two_atom.build(model))
    basis = _wannier_basis(config, config.measurement_lattice_depth)
    pos, mom = _thermal_joints(
        model, spectrum, basis, config.temperature_position_k, config.temperature_momentum_k
    )
    outputs = []
    write_matrix(
        out / "position_joint.dat",
        pos,
        f"joint position density, T = {config.temperature_position_k} K",
    )
    outputs.append("position_joint.dat")
    write_matrix(
        out / "momentum_joint.dat",
        mom,
        f"joint momentum density, T = {config.temperature_momentum_k} K",
    )
    outputs.append("momentum_joint.dat")

    center = config.site_count // 2
    cond_x = distributions.conditional(pos, float(center), which_atom=1)
    write_csv(
        out / "conditional_position.csv",
        [f"x2_a_given_x1_{center}", "density"],
        zip(cond_x.grid.tolist(), cond_x.density.tolist()),
    )
    outputs.append("conditional_position.csv")

    p_measured = distributions.RECIPROCAL / 4.0
    cond_p = distributions.conditional(mom, p_measured, which_atom=1)
    marg_p = distributions.axis_marginal(mom, which_atom=2)
    write_csv(
        out / "conditional_momentum.csv",
        ["p2_hbar_per_a", "density_conditional", "density_marginal"],
        zip(cond_p.grid.tolist(), cond_p.density.tolist(), marg_p.density.tolist()),
    )
    outputs.append("conditional_momentum.csv")

    metrics = distributions.epr_metrics(pos, mom)
    (out / "epr_metrics.json").write_text(
        json.dumps(dataclasses.asdict(metrics), indent=2, sort_keys=True)
    )
    outputs.append("epr_metrics.json")
    print(
        f"dx_minus = {metrics.dx_minus:.4g} a, dp_plus = {metrics.dp_plus:.4g} hbar/a, "
        f"s = {metrics.s:.4g}"
    )
    # the share of the momentum density on the grid, from the joint's factors
    return {
        "outputs": outputs,
        "momentum_mass": mom.mass,
        "split_gap_erec": spectrum.split_gap,
        "tight_binding_valid": model.tight_binding_valid,
        "eigenpair_residual_erec": spectrum.eigenpair_residual,
    }


def _protocol_trace(
    config: ExperimentConfig, model: ModelParams, slope: float, times
) -> tuple[two_atom.TwoAtomState, protocol.ProtocolTrace]:
    """Initial state and trace of the config's separation protocol on
    ``model`` under a tilt of ``slope`` E_rec per site, at ``times`` (s)."""
    prot = config.protocol
    tilt = two_atom.ExternalPotential.linear(slope, species=prot.tilt_species)
    hamiltonian = two_atom.build(model, tilt)
    psi0 = protocol.initial_state(prot.sigma_e_sites, prot.center_site, config.site_count)
    trace = protocol.evolve(
        psi0,
        hamiltonian,
        times,
        erec_joule=model.recoil_energy,
        origin=prot.center_site,
        band=prot.diatom_band_width,
    )
    return psi0, trace


def _check_center_site(config: ExperimentConfig) -> None:
    """The protocol's envelope must be centred on a site of the lattice.
    Checked here, not in the config, because only the protocol reads the
    key: ``dist`` on a ring shorter than the default centre still runs."""
    center = config.protocol.center_site
    if not 0 <= center < config.site_count:
        raise ConfigError(
            f"[protocol] center_site = {center} lies outside the lattice "
            f"sites 0..{config.site_count - 1}"
        )


def cmd_protocol(config: ExperimentConfig, out: Path) -> dict:
    _check_center_site(config)
    prot = config.protocol
    model = config.model(boundary=prot.boundary)
    psi0, trace = _protocol_trace(config, model, prot.slope_erec_per_site, prot.snapshot_times_s)

    basis = _wannier_basis(config, model.lattice_depth)
    # the snapshots are computed only on the points that write_matrix keeps
    stride = plot_stride(basis.grid.size)

    outputs = []
    rows = []
    for i, (t, diag, state) in enumerate(
        zip(trace.times, trace.diagnostics, trace.states)
    ):
        rows.append(
            (
                t,
                diag.diagonal_weight,
                diag.band_weight,
                diag.diatom_centroid,
                diag.single_centroid,
                diag.displacement_ratio,
            )
        )
        joint = distributions.position_joint(state, basis, stride)
        name = f"snapshot_{i:03d}.dat"
        write_matrix(out / name, joint, f"joint position density at t = {t} s")
        outputs.append(name)
    write_csv(
        out / "protocol_diagnostics.csv",
        [
            "time_s",
            "diagonal_weight",
            "band_weight",
            "diatom_centroid_site",
            "single_centroid_site",
            "displacement_ratio",
        ],
        rows,
    )
    outputs.append("protocol_diagnostics.csv")

    kept, retained = protocol.postselect_diatoms(
        trace.final(), region=(0.0, prot.ejection_line_site), band=prot.diatom_band_width
    )
    summary = {
        "retained_mass": retained,
        "diagonal_weight_final": trace.diagnostics[-1].diagonal_weight,
        # the initial c_jj = alpha_j^2, the cooled envelope squared
        "comb_fidelity": protocol.diagonal_comb_fidelity(
            kept, np.diag(psi0.amplitudes).real, periodic=prot.boundary == "periodic"
        ),
        "single_centroid_final": trace.diagnostics[-1].single_centroid,
        "ejection_line_site": prot.ejection_line_site,
        "ejected": trace.diagnostics[-1].single_centroid > prot.ejection_line_site,
        "evolve_norm_drift": trace.norm_drift,
        "envelope_tail_mass": protocol.envelope_tail_mass(
            prot.sigma_e_sites, prot.center_site, config.site_count
        ),
    }
    (out / "postselect.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    outputs.append("postselect.json")
    print(
        f"final ratio = {trace.diagnostics[-1].displacement_ratio:.3g}, "
        f"retained = {retained:.3g}, ejected = {summary['ejected']}"
    )
    return {
        "outputs": outputs,
        "evolve_norm_drift": summary["evolve_norm_drift"],
        "envelope_tail_mass": summary["envelope_tail_mass"],
    }


def _vary_model(
    config: ExperimentConfig, model: ModelParams, parameter: str, value: float
) -> ModelParams:
    """``model`` with one swept parameter (vdd, vhop, U0 or l) set to
    ``value``; other parameters leave it unchanged.

    The couplings are swept by magnitude and stay attractive (vdd) and
    negative (vhop); ``0.0 - |value|`` keeps a zero coupling at +0.
    """
    if parameter == "vdd":
        return dataclasses.replace(model, vdd=0.0 - abs(value))
    if parameter == "vhop":
        return dataclasses.replace(model, hop=0.0 - abs(value))
    if parameter == "U0":
        hopping = band_structure.hopping_exact(band_structure.bloch_spectrum(value))
        return dataclasses.replace(
            model,
            lattice_depth=value,
            hop=hopping.hop,
            tight_binding_valid=hopping.tight_binding_valid,
        )
    if parameter == "l":
        phys = config.physical
        vdd = liddi.vdd_nearest(phys.coupling_field().coupling, phys.lambda_coupling, value)
        return dataclasses.replace(model, vdd=vdd / model.recoil_energy)
    return model


def _pair_row(config, model, basis, parameter, value, row) -> None:
    """Pair band and EPR widths of the periodic ``model`` at one sweep
    point, read out in the measurement lattice's ``basis``."""
    t_pos, t_mom = config.temperature_position_k, config.temperature_momentum_k
    if parameter == "T":
        t_pos = t_mom = value
    spectrum = two_atom.diagonalize(two_atom.build(model))
    if len(spectrum.diatom_band) > 0:
        lo, hi = spectrum.diatom_band_edges
        row["diatom_min_erec"] = lo
        row["diatom_max_erec"] = hi
        row["split_gap_erec"] = spectrum.split_gap
        pos, mom = _thermal_joints(model, spectrum, basis, t_pos, t_mom)
        metrics = distributions.epr_metrics(pos, mom)
        row["dx_minus_a"] = metrics.dx_minus
        row["dp_plus_hbar_per_a"] = metrics.dp_plus
        row["s"] = metrics.s


def _sigma_e_row(config, model, basis, parameter, value, row) -> None:
    """Thermal estimate of s for a cooled envelope of width ``value`` (a)."""
    sigma = band_structure.gaussian_sigma(config.measurement_lattice_depth)
    dp_si = distributions.thermal_dp_plus(
        value * model.lattice_constant,
        config.temperature_momentum_k,
        config.physical.atom_mass,
    )
    dp = dp_si * model.lattice_constant / HBAR
    row["dx_minus_a"] = sigma
    row["dp_plus_hbar_per_a"] = dp
    row["s"] = 1.0 / (2.0 * sigma * dp)


def _slope_row(config, model, basis, parameter, value, row) -> None:
    """Final displacement ratio of the protocol run on ``model`` under
    tilt ``value``."""
    _, trace = _protocol_trace(config, model, value, [config.protocol.snapshot_times_s[-1]])
    row["displacement_ratio"] = trace.diagnostics[-1].displacement_ratio


_SWEEP_ROWS = {
    **dict.fromkeys(("vdd", "vhop", "U0", "T", "l"), _pair_row),
    "sigma_E": _sigma_e_row,
    "slope": _slope_row,
}


def _sweep_worker(args) -> tuple[list, list]:
    """One sweep row and the warnings its point raised, in order.  ``args``
    are the config, what every point shares (the base model, and the
    measurement lattice's Wannier basis or None outside the pair sweeps),
    the parameter and its value.  The row writer gets the model varied to
    the point, whose couplings fill the row first.  A failure is reported
    in the row's trailing error column."""
    config, model, basis, parameter, value = args
    row: dict = {name: "" for name in SWEEP_COLUMNS}
    row["parameter"] = parameter
    row["value"] = value
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            model = _vary_model(config, model, parameter, value)
            row["vhop_erec"] = model.hop
            row["vdd_erec"] = model.vdd
            _SWEEP_ROWS[parameter](config, model, basis, parameter, value, row)
        except Exception as exc:  # per-point failure recorded, sweep continues
            row["error"] = f"{type(exc).__name__}: {exc}"
    return [row[name] for name in SWEEP_COLUMNS], [w.message for w in caught]


def _parse_range(spec: str) -> tuple[str, np.ndarray]:
    """'param start:stop:steps' -> (param, grid)."""
    parts = spec.split(None, 1)
    if len(parts) != 2:
        raise ConfigError(f"sweep spec must be 'param start:stop:steps', got {spec!r}")
    parameter, rng = parts
    try:
        start, stop, steps = rng.split(":")
        settings = SweepSettings(parameter, float(start), float(stop), int(steps))
    except ValueError as exc:
        raise ConfigError(f"bad sweep range {rng!r}: {exc}") from exc
    return settings.parameter, settings.grid()


def cmd_sweep(
    config: ExperimentConfig, out: Path, grid_spec: str | None, jobs: int
) -> dict:
    if grid_spec is None:
        parameter, values = config.sweep.parameter, config.sweep.grid()
    else:
        parameter, values = _parse_range(grid_spec)
    # what every point shares is built once, before any point runs; a
    # config or numerical error there fails the command, not every row
    if parameter == "slope":
        _check_center_site(config)
    basis = None
    if _SWEEP_ROWS[parameter] is _pair_row:
        basis = _wannier_basis(config, config.measurement_lattice_depth)
    model = config.model(boundary=config.protocol.boundary if parameter == "slope" else "periodic")
    tasks = [(config, model, basis, parameter, float(v)) for v in values]
    if jobs > 1 and len(tasks) > 1:
        # a pool under fork starts all its workers at once
        workers = min(jobs, len(tasks))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_single_blas_thread
        ) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(t) for t in tasks]
    # re-raised in point order, whichever process ran the point
    for _, messages in results:
        for message in messages:
            warnings.warn(message)
    write_csv(out / "sweep.csv", SWEEP_COLUMNS, [row for row, _ in results])
    return {"outputs": ["sweep.csv"]}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeepr",
        description="optical-lattice pair-correlation simulator",
    )
    parser.add_argument("--config", type=Path, default=None, help="experiment INI file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument(
        "--resolution", type=int, default=None, help="grid points per lattice cell"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="reserved; no stochastic paths yet"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("params", help="derived-parameter report")
    sub.add_parser("bands", help="band dispersion and Wannier function dumps")
    sub.add_parser("liddi-scan", help="interaction vs relative site offset")
    p_spectrum = sub.add_parser("spectrum", help="two-atom eigenvalues")
    p_spectrum.add_argument(
        "--sweep",
        default=None,
        help="'vdd start:stop:steps' or 'vhop ...': all branches per point",
    )
    sub.add_parser("dist", help="joint/conditional distributions and widths")
    sub.add_parser("protocol", help="separation-protocol simulation")
    p_sweep = sub.add_parser("sweep", help="parameter sweep table")
    p_sweep.add_argument(
        "grid", nargs="?", default=None, help="'param start:stop:steps' (else [sweep] section)"
    )
    p_init = sub.add_parser("init-config", help="write the bundled lithium config")
    p_init.add_argument("path", nargs="?", default="lithium.ini")
    return parser


# Each command writes its artifacts into ``out`` and returns its manifest
# entries: ``outputs``, the files it wrote, and any figure of the run
# (``dist``: ``momentum_mass``; ``protocol``: ``evolve_norm_drift`` and
# ``envelope_tail_mass``).
COMMANDS = {
    "params": cmd_params,
    "bands": cmd_bands,
    "liddi-scan": cmd_liddi_scan,
    "dist": cmd_dist,
    "protocol": cmd_protocol,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "init-config":
        try:
            write_config(lithium_default(), args.path)
        except OSError as exc:
            print(f"config error: cannot write config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"wrote {args.path}")
        return EXIT_OK

    with _one_blas_thread():
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    """Load the config, run the subcommand and write its manifest."""
    t0 = time.time()
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        config = load_config(args.config) if args.config else lithium_default()
        if args.resolution is not None:
            try:
                config = dataclasses.replace(config, resolution=args.resolution)
            except ValueError as exc:
                raise ConfigError(f"--resolution: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out: Path = args.out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if args.command == "sweep":
                entries = cmd_sweep(config, out, args.grid, args.jobs)
            elif args.command == "spectrum":
                entries = cmd_spectrum(config, out, args.sweep)
            else:
                entries = COMMANDS[args.command](config, out)
        messages = list(dict.fromkeys(str(w.message) for w in caught))
        for message in messages:
            print(f"warning: {message}", file=sys.stderr)
        write_manifest(out, args.command, config, entries, t0, messages)
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        ValueError,
        RuntimeError,
        np.linalg.LinAlgError,
        band_structure.ConvergenceError,
    ) as exc:
        print(f"numerical error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
