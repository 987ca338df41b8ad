"""End-to-end CLI runs: artifacts, determinism, exit codes, manifest."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, fmt_oracle, write_csv_oracle, write_matrix_oracle
from latticeepr import band_structure, cli, distributions, two_atom
from latticeepr.constants import HBAR
from latticeepr.parameters import ExperimentConfig, lithium_default, load_config, write_config

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "lithium.ini"


def run_cli(*args, check=True, env=None):
    result = subprocess.run(
        [sys.executable, "-m", "latticeepr", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    if check and result.returncode != 0:
        raise AssertionError(
            f"cli failed ({result.returncode}):\n{result.stdout}\n{result.stderr}"
        )
    return result


def sweep_rows(out):
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def dist_metrics(tmp_path_factory):
    out = tmp_path_factory.mktemp("dist")
    run_cli("--config", str(CONFIG), "--out", str(out), "dist")
    return json.loads((out / "epr_metrics.json").read_text())


@pytest.fixture(scope="module")
def params_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("params")
    run_cli("--config", str(CONFIG), "--out", str(out), "params")
    return out


class TestParams:
    def test_report_values(self, params_out):
        report = json.loads((params_out / "params.json").read_text())
        assert report["lattice_depth_erec"] == pytest.approx(3.93, rel=0.05)
        assert report["hop_erec"] == pytest.approx(-0.09, rel=0.10)
        assert report["vdd_erec"] == pytest.approx(-0.5, rel=0.15)
        assert report["diatom_hop_erec"] == pytest.approx(-0.0324, rel=0.10)

    def test_manifest_round_trip(self, params_out):
        manifest = json.loads((params_out / "run_manifest.json").read_text())
        config = ExperimentConfig.from_dict(manifest["effective_config"])
        assert config == lithium_default()
        assert manifest["command"] == "params"
        assert "params.json" in manifest["outputs"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["numpy_version"] == np.__version__
        assert "scipy_version" not in manifest
        assert manifest["blas_name"] == blas["name"]
        assert manifest["blas_version"] == blas["version"]
        assert "openblas_num_threads" in manifest
        assert manifest["warnings"] == []


def blas_env(threads):
    """This process's environment with ``OPENBLAS_NUM_THREADS`` set to
    ``threads``, or without it when ``threads`` is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


class TestBlasThreads:
    @pytest.fixture(autouse=True)
    def _needs_openblas(self):
        if cli._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS")

    @pytest.mark.parametrize("threads, recorded", [(None, 1), ("2", 2)])
    def test_manifest_records_the_run_count(self, tmp_path, threads, recorded):
        # a command runs on one thread unless the environment sets the count
        run_cli("--out", str(tmp_path), "params", env=blas_env(threads))
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["openblas_num_threads"] == threads
        assert manifest["blas_threads"] == recorded

    @pytest.mark.parametrize(
        "old, new, command, code",
        [
            ("", "", "params", 0),
            ("center_site = 8", "center_site = 30", "protocol", 2),
            # U0 ~ 1690 E_rec: the Bloch basis does not converge
            (
                "intensity_lattice_w_per_m2 = 1860.0",
                "intensity_lattice_w_per_m2 = 800000.0",
                "params",
                3,
            ),
        ],
        ids=["ok", "config-error", "numerical-error"],
    )
    def test_main_restores_the_callers_count(
        self, tmp_path, monkeypatch, old, new, command, code
    ):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        path = tmp_path / "run.ini"
        path.write_text(CONFIG.read_text().replace(old, new))
        get, put = cli._openblas()
        before = get()
        put(3)
        try:
            argv = ["--config", str(path), "--out", str(tmp_path / "out"), command]
            assert cli.main(argv) == code
            assert get() == 3
        finally:
            put(before)
        if code == 0:
            manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
            assert manifest["blas_threads"] == 1


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["dist"], id="dist"),
        pytest.param(["protocol"], id="protocol"),
        pytest.param(["bands"], id="bands"),
        pytest.param(["spectrum", "--sweep", "vdd 0:2.5:3"], id="ring-spectrum-sweep"),
    ],
)
def test_artifacts_independent_of_blas_threads(tmp_path, command):
    outs, stdouts = [], []
    for threads in ("2", None):
        out = tmp_path / str(threads)
        result = run_cli("--config", str(CONFIG), "--out", str(out), *command, env=blas_env(threads))
        outs.append(out)
        stdouts.append(result.stdout)
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "run_manifest.json")
    assert names == sorted(p.name for p in outs[1].iterdir() if p.name != "run_manifest.json")
    # every declared artifact, and only those (spectrum writes one file)
    assert names and names == json.loads((outs[0] / "run_manifest.json").read_text())["outputs"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    assert stdouts[0] == stdouts[1]


class TestArtifacts:
    def test_bands_outputs(self, tmp_path):
        run_cli("--config", str(CONFIG), "--out", str(tmp_path), "bands")
        header, first = (tmp_path / "dispersion.csv").read_text().splitlines()[:2]
        assert header == "k_per_a,band0_erec,band1_erec,band2_erec"
        assert len(first.split(",")) == 4
        wannier = np.loadtxt(tmp_path / "wannier.csv", delimiter=",", skiprows=1)
        assert wannier.shape[1] == 2

    def test_bands_solves_each_lattice_once(self, tmp_path, monkeypatch, bloch_solves):
        # the dispersion is the 64-point spectrum the model's hopping came
        # from; only the Wannier basis needs a solve of its own, on N points
        assert cli.main(["--out", str(tmp_path), "bands"]) == 0
        monkeypatch.undo()
        solve = band_structure.bloch_spectrum
        config = lithium_default()
        depth = config.model().lattice_depth
        assert bloch_solves == [(depth, 64), (depth, 25)]
        with cli._one_blas_thread():
            rows = band_structure.dispersion_csv_rows(solve(depth))
            basis = band_structure.wannier(solve(depth, n_k=25), points_per_cell=config.resolution)
        header = ["k_per_a", "band0_erec", "band1_erec", "band2_erec"]
        cli.write_csv(tmp_path / "dispersion.old", header, rows)
        cli.write_csv(
            tmp_path / "wannier.old", ["x_a", "chi"], zip(basis.centered_grid(), basis.wannier_0)
        )
        for name in ("dispersion", "wannier"):
            assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}.old").read_bytes()

    @pytest.mark.parametrize(
        "argv, solves",
        [
            (["params"], 1),
            (["liddi-scan"], 0),
            (["spectrum"], 1),
            (["bands"], 2),
            (["dist"], 2),
            (["protocol"], 2),
            # forked pool workers are not seen, so the sweeps run in-process
            (["--jobs", "1", "sweep"], 2),
            (["--jobs", "1", "sweep", "U0 3:5:3"], 5),
            (["--jobs", "1", "sweep", "T 1e-8:1e-7:2"], 2),
            (["--jobs", "1", "sweep", "sigma_E 1:2:3"], 1),
            (["--jobs", "1", "sweep", "slope 0:0.04:3"], 1),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_each_lattice_solved_once(self, tmp_path, bloch_solves, argv, solves):
        # a sweep builds its base model and measurement basis once, before
        # any point runs; a U0 sweep adds one lattice per point
        assert cli.main(["--out", str(tmp_path), *argv]) == 0
        assert len(set(bloch_solves)) == len(bloch_solves) == solves

    def test_liddi_scan(self, tmp_path):
        run_cli("--config", str(CONFIG), "--out", str(tmp_path), "liddi-scan")
        data = np.loadtxt(tmp_path / "liddi_scan.csv", delimiter=",", skiprows=1)
        offsets, _, erec = data.T
        center = erec[offsets == 0][0]
        assert center == pytest.approx(-0.5, rel=0.15)
        assert np.allclose(erec, erec[::-1], rtol=1e-9)

    def test_spectrum(self, tmp_path):
        run_cli("--config", str(CONFIG), "--out", str(tmp_path), "spectrum")
        data = np.loadtxt(
            tmp_path / "spectrum.csv", delimiter=",", skiprows=1, usecols=(2, 3)
        )
        assert data.shape[0] == 625
        assert np.all(np.diff(data[:, 1]) >= -1e-12)

    def test_spectrum_all_states_beyond_40_sites(self, tmp_path):
        path = tmp_path / "n41.ini"
        write_config(lithium_default(), path)
        path.write_text(path.read_text().replace("site_count = 25", "site_count = 41"))
        run_cli("--config", str(path), "--out", str(tmp_path), "spectrum")
        data = np.loadtxt(
            tmp_path / "spectrum.csv", delimiter=",", skiprows=1, usecols=(2, 3)
        )
        assert data.shape[0] == 41 * 41
        assert np.array_equal(data[:, 0], np.arange(41 * 41))
        assert np.all(np.diff(data[:, 1]) >= -1e-12)

    def test_spectrum_open_chain(self, tmp_path):
        # all N^2 eigenvalues of the two swap blocks, against the dense H
        path = tmp_path / "open.ini"
        text = CONFIG.read_text().replace("site_count = 25", "site_count = 8")
        path.write_text(text.replace("boundary = periodic", "boundary = open"))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "spectrum"]) == 0
        data = np.loadtxt(
            tmp_path / "out" / "spectrum.csv", delimiter=",", skiprows=1, usecols=(2, 3)
        )
        model = load_config(path).model()
        assert model.boundary == "open"
        reference = np.linalg.eigvalsh(dense(two_atom.build(model)))
        assert np.array_equal(data[:, 0], np.arange(64))
        # the CSV holds 12 significant digits
        assert np.allclose(data[:, 1], reference, rtol=1e-11, atol=1e-13)

    def test_spectrum_sweep_split_band_emerges(self, tmp_path):
        run_cli(
            "--config", str(CONFIG), "--out", str(tmp_path),
            "spectrum", "--sweep", "vdd 0:2:3",
        )
        data = np.loadtxt(
            tmp_path / "spectrum.csv", delimiter=",", skiprows=1, usecols=(1, 2, 3)
        )
        assert data.shape[0] == 3 * 625
        gaps = []
        for value in np.unique(data[:, 0]):
            energies = np.sort(data[data[:, 0] == value][:, 2])
            gaps.append(energies[25] - energies[24])
        # the pair band detaches as the interaction grows
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[0] > 10 * gaps[-1]

    def test_protocol_outputs(self, tmp_path):
        run_cli(
            "--config", str(CONFIG), "--out", str(tmp_path), "--resolution", "16",
            "protocol",
        )
        rows = (tmp_path / "protocol_diagnostics.csv").read_text().splitlines()
        assert rows[0].startswith("time_s,diagonal_weight")
        assert len(rows) == 4  # header + three snapshots
        assert (tmp_path / "snapshot_002.dat").exists()
        summary = json.loads((tmp_path / "postselect.json").read_text())
        assert summary["ejected"] is True
        assert 0.0 < summary["retained_mass"] < 1.0
        assert 0.0 <= summary["evolve_norm_drift"] < 1e-12
        assert summary["envelope_tail_mass"] == pytest.approx(0.0448, abs=5e-5)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        for key in ("evolve_norm_drift", "envelope_tail_mass"):
            assert manifest[key] == summary[key], key

    def test_protocol_leaves_scipy_sparse_unloaded(self, tmp_path):
        # numpy is the only runtime dependency; loading any of scipy would
        # raise the commands' start-up time and peak memory
        script = (
            "import sys\n"
            "from latticeepr import cli\n"
            "codes = [cli.main(['--config', sys.argv[1], '--out', sys.argv[2], c])\n"
            "         for c in ('dist', 'protocol')]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, str(CONFIG), str(tmp_path)],
            capture_output=True, text=True, check=True,
        )
        assert result.stdout.splitlines()[-1] == "[0, 0] []"

    def test_matrix_block_format(self, tmp_path):
        run_cli(
            "--config", str(CONFIG), "--out", str(tmp_path), "--resolution", "16",
            "protocol",
        )
        lines = (tmp_path / "snapshot_000.dat").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].startswith("# columns: axis1 [a], axis2 [a]")
        blocks = "\n".join(lines).split("\n\n")
        assert len(blocks) > 100  # one block per axis1 value

    @pytest.mark.parametrize("size", [5, 700])
    def test_matrix_values_formatted_as_fmt(self, tmp_path, size):
        # every line holds the CSV cell format of its axis values and the
        # "%.11e" text of its density, in lines of one length, also for
        # nan, -0, 1e-300 and 0.1 + 0.2, before and after decimation
        # (stride 3 at 700 points)
        axis = np.linspace(-3.0, 3.0, size)
        density = np.random.default_rng(7).random((size, size)) * 1e-3
        stride = max(1, int(np.ceil(size / 320)))
        special = [np.nan, -0.0, 1e-300, 0.1 + 0.2, np.inf, 1e22, 5e-324]
        for i, value in enumerate(special):
            density[i // 4 * stride, (i % 4 + 1) * stride] = value
        joint = distributions.JointDistribution(axis, axis.copy(), density, "momentum")
        cli.write_matrix(tmp_path / "m.dat", joint, "test")

        shown = cli.decimate_joint(joint)
        expected = []
        for x1, block in zip(shown.axis1, shown.density):
            expected += [
                [fmt_oracle(x1), fmt_oracle(x2), "%.11e" % v]
                for x2, v in zip(shown.axis2, block)
            ]
            expected.append([])
        text = (tmp_path / "m.dat").read_text()
        lines = text.splitlines()
        assert lines[:2] == ["# test", "# columns: axis1 [hbar/a], axis2 [hbar/a], probability density"]
        assert [line.split() for line in lines[2:]] == expected
        assert len({len(line) for line in lines[2:] if line}) == 1
        assert text.endswith("\n\n")
        for value in (
            "nan", "-0.00000000000e+00", "1.00000000000e-300", "3.00000000000e-01", "inf",
            "1.00000000000e+22", "4.94065645841e-324",
        ):
            assert any(line.endswith(f" {value}") for line in lines)

    def test_csv_matches_per_value_writer(self, tmp_path):
        # every cell type the writer meets, in rows of repeated and of
        # changing type patterns, from a generator as the commands pass them
        values = [
            None, "", "ValueError: bad, 100%", True, False, np.bool_(True), np.bool_(False),
            0, -7, 2**70, np.int64(-3), np.int32(5), 0.1 + 0.2, -0.0, 1e-300, 5e-324, 1e22,
            np.float64(2.5e-8), np.float32(0.1), np.nan, -np.nan, np.float64(-np.nan),
            np.inf, -np.inf, np.float64(-np.inf),
        ]
        rng = np.random.default_rng(11)
        rows = [values, values[::-1]]
        rows += [list(rng.choice(np.array(values, dtype=object), 6)) for _ in range(200)]
        rows += [(1.5, i, "x", None) for i in range(3)] + [(np.nan, True, "", False)]
        rows += [np.linspace(-1.0, 1.0, 4)]
        header = [f"c{i}" for i in range(len(values))]
        cli.write_csv(tmp_path / "new.csv", header, (row for row in rows))
        write_csv_oracle(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().splitlines()[1].startswith(",,ValueError")

    def test_csv_row_blocks_match_per_value_writer(self, tmp_path):
        # lead cells of every type, a "%" among them, written once per block;
        # an empty block writes nothing, plain rows mix in between
        energies = np.linspace(-2.0, 1.0, 7).tolist()
        blocks = [
            ("vdd", np.float64(-0.5)), ("vhop", -0.0), ("100%", None), (True, 7), (np.nan,)
        ]
        rows, expected = [], []
        for lead in blocks:
            rows.append(cli.RowBlock(lead, enumerate(energies)))
            expected += [(*lead, i, e) for i, e in enumerate(energies)]
            rows.append(("x", 1.5, 2, None))
            expected.append(("x", 1.5, 2, None))
        rows.append(cli.RowBlock(("vdd", 1.0), iter([])))
        cli.write_csv(tmp_path / "new.csv", ["a", "b", "c", "d"], rows)
        write_csv_oracle(tmp_path / "old.csv", ["a", "b", "c", "d"], expected)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert "100%,,0,-2\n" in (tmp_path / "new.csv").read_text()

    def test_dist_manifest_reports_the_pair_gap_and_tight_binding(self, tmp_path, lithium_config):
        assert cli.main(["--out", str(tmp_path), "dist"]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        model = lithium_config.model(boundary="periodic")
        spectrum = two_atom.diagonalize(two_atom.build(model))
        assert manifest["split_gap_erec"] == spectrum.split_gap > 0
        assert manifest["tight_binding_valid"] is model.tight_binding_valid is True
        assert manifest["eigenpair_residual_erec"] == spectrum.eigenpair_residual
        metrics = json.loads((tmp_path / "epr_metrics.json").read_text())
        assert metrics["dx_minus_converged"] == pytest.approx(0.2099477, abs=1e-7)

    def test_spectrum_manifest_reports_the_largest_residual(self, tmp_path, lithium_config):
        sweep = "vdd 0:2.5:3"
        assert cli.main(["--out", str(tmp_path), "spectrum", "--sweep", sweep]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        model = lithium_config.model()
        residuals = [
            two_atom.diagonalize(two_atom.build(cli._vary_model(lithium_config, model, "vdd", v)))
            .eigenpair_residual
            for v in cli._parse_range(sweep)[1]
        ]
        assert manifest["eigenpair_residual_erec"] == max(residuals)

    @pytest.mark.parametrize("site_count", [25, 30, 40, 60])
    def test_dist_peak_spacings_are_the_comb_teeth(self, tmp_path, site_count):
        # at N = 25 adjacent maxima of the total-momentum marginal lie 7 to
        # 166 grid steps apart; the teeth are 8 steps, 2 pi / N, apart
        path = tmp_path / "ring.ini"
        path.write_text(CONFIG.read_text().replace("site_count = 25", f"site_count = {site_count}"))
        assert cli.main(["--config", str(path), "--out", str(tmp_path), "dist"]) == 0
        metrics = json.loads((tmp_path / "epr_metrics.json").read_text())
        assert metrics["peak_spacing_p"] == pytest.approx(2 * np.pi / site_count, rel=1e-9)
        assert metrics["peak_spacing_x"] == 1.0

    def test_dist_ring_path_matches_full_grid(self, tmp_path, monkeypatch):
        # dist builds its position joint from one cell of the ring; with
        # the states' K dropped it takes the full-grid product
        assert cli.main(["--out", str(tmp_path / "ring"), "dist"]) == 0
        ring_state, amplitude = two_atom.SpectrumResult.state, distributions._position_amplitude
        calls = []

        def without_k(spectrum, index):
            return two_atom.TwoAtomState(ring_state(spectrum, index).amplitudes)

        def recording(state, site_matrix):
            calls.append(site_matrix.shape)
            return amplitude(state, site_matrix)

        monkeypatch.setattr(two_atom.SpectrumResult, "state", without_k)
        monkeypatch.setattr(distributions, "_position_amplitude", recording)
        assert cli.main(["--out", str(tmp_path / "full"), "dist"]) == 0
        assert len(calls) == 7  # one full-grid product per state of the 10 nK mixture
        ring, full = (
            json.loads((tmp_path / side / "epr_metrics.json").read_text())
            for side in ("ring", "full")
        )
        assert ring.keys() == full.keys()
        for key in full:
            assert ring[key] == pytest.approx(full[key], rel=1e-12, abs=0.0), key

    def test_dist_memory_at_60_sites(self, tmp_path):
        # the full-grid joints, a 3,363^2 momentum array and a 1,920^2
        # position array, took dist's traced peak to 154 MB at N = 60; the
        # joints now keep their factors and are read in row blocks
        path = tmp_path / "ring.ini"
        path.write_text(CONFIG.read_text().replace("site_count = 25", "site_count = 60"))
        tracemalloc.start()
        try:
            assert cli.main(["--config", str(path), "--out", str(tmp_path), "dist"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 154e6 / 4

    def test_commands_never_build_a_whole_joint(self, tmp_path, monkeypatch):
        def whole(joint):
            raise AssertionError(f"whole {joint.kind} density built")

        monkeypatch.setattr(distributions.JointDistribution, "density", property(whole))
        for command, *args in (["dist"], ["protocol"], ["sweep", "vdd 0.5:1:2"]):
            out = tmp_path / command
            assert cli.main(["--out", str(out), "--jobs", "1", command, *args]) == 0
        manifest = json.loads((tmp_path / "dist" / "run_manifest.json").read_text())
        # the share of the momentum density on the default grid
        assert 1.0 - manifest["momentum_mass"] == pytest.approx(4.395e-7, rel=1e-3)

    def test_snapshots_match_decimated_full_grid(self, tmp_path, monkeypatch):
        # each snapshot is the full-grid joint with write_matrix's stride
        # applied, and no joint of more than 320 points per axis is formed
        written, amplitudes = {}, []
        write_matrix, amplitude = cli.write_matrix, distributions._position_amplitude

        def recording_write(path, joint, comment):
            written[path.name] = joint
            write_matrix(path, joint, comment)

        def recording_amplitude(state, site_matrix):
            amplitudes.append(site_matrix.shape[1])
            return amplitude(state, site_matrix)

        monkeypatch.setattr(cli, "write_matrix", recording_write)
        monkeypatch.setattr(distributions, "_position_amplitude", recording_amplitude)
        config = lithium_default()
        assert cli.main(["--out", str(tmp_path), "protocol"]) == 0
        assert sorted(written) == ["snapshot_000.dat", "snapshot_001.dat", "snapshot_002.dat"]
        assert amplitudes and max(amplitudes) <= 320

        prot = config.protocol
        model = config.model(boundary=prot.boundary)
        _, trace = cli._protocol_trace(config, model, prot.slope_erec_per_site, prot.snapshot_times_s)
        basis = cli._wannier_basis(config, model.lattice_depth)
        assert basis.grid.size > 320
        for i, state in enumerate(trace.states):
            full = cli.decimate_joint(distributions.position_joint(state, basis))
            name = f"snapshot_{i:03d}.dat"
            shown = written[name]
            assert np.array_equal(shown.axis1, full.axis1)
            assert np.array_equal(shown.axis2, full.axis2)
            scale = np.max(full.density)
            assert np.max(np.abs(shown.density - full.density)) <= 1e-12 * scale
            write_matrix(tmp_path / "full.dat", full, f"joint position density at t = {trace.times[i]} s")
            got = np.loadtxt(tmp_path / name)
            want = np.loadtxt(tmp_path / "full.dat")
            assert np.allclose(got, want, rtol=1e-11, atol=1e-12 * scale)


@pytest.fixture(scope="module")
def real_joints():
    """The joints `dist` writes on the lithium config (N = 25) and the
    snapshot joints `protocol` writes at N = 40."""
    config = lithium_default()
    model = config.model(boundary="periodic")
    spectrum = two_atom.diagonalize(two_atom.build(model))
    joints = dict(
        zip(
            ("dist_position", "dist_momentum"),
            cli._thermal_joints(
                model, spectrum, cli._wannier_basis(config, config.measurement_lattice_depth),
                config.temperature_position_k, config.temperature_momentum_k,
            ),
        )
    )
    config = dataclasses.replace(config, site_count=40)
    prot = config.protocol
    model = config.model(boundary=prot.boundary)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, trace = cli._protocol_trace(config, model, prot.slope_erec_per_site, prot.snapshot_times_s)
    basis = cli._wannier_basis(config, model.lattice_depth)
    stride = cli.plot_stride(basis.grid.size)
    for i, state in enumerate(trace.states):
        joints[f"protocol40_{i}"] = distributions.position_joint(state, basis, stride)
    return joints


def any_joint(axis1, axis2, density, kind):
    """A stand-in joint that may hold negative densities, which
    JointDistribution rejects; the writers read only the axes, the kind
    and row blocks of the density (and no joint here is decimated)."""
    return types.SimpleNamespace(
        axis1=axis1, axis2=axis2, density=density, kind=kind,
        rows=lambda start, stop: density[start:stop],
    )


def assert_matrix_matches_oracle(path, joint):
    cli.write_matrix(path.with_suffix(".new"), joint, "test")
    write_matrix_oracle(path.with_suffix(".old"), joint, "test")
    assert path.with_suffix(".new").read_bytes() == path.with_suffix(".old").read_bytes()


# Values where "%19.11e" is hard: exact ties at the 13th digit (rounded
# half to even), values that round up to a power of ten, two- and
# three-digit exponents, signed zeros, non-finite values, the smallest
# subnormal and the ends of the fast path [1e-99, 1e99).
ADVERSARIAL = [
    1234567890125.0, 1234567890135.0, 999999999999.5, 999999999998.5, 0.5, 2.5,
    1e-5, 1e-4, 9.999999999995e-5, 9.999999999994e-5, 9.9999999999949e-5,
    99999999999.95, 99999999999.94, 999999999999.0, 1e12, 1e11, 123456789012.0,
    0.1 + 0.2, 1 / 3, 2 / 3, 1e-100, 1e100, 1.5e-123, 9.99999999999e99,
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308,
    1e300, -1e300, 1e-300, -1e-300, 1e290, 1e-290, 9.99999999999e289, 1.00000000001e-290,
    # next to a power of ten: a carry to it, and floor(log10) one off
    9.9999999999996, 99999999999.9996, np.nextafter(1e-5, 0.0), np.nextafter(1e23, np.inf),
    np.nextafter(1e-30, 1.0), np.nextafter(1000.0, 0.0),
    1e-99, np.nextafter(1e-99, 0.0), 9.9999999999996e98, 1e99, np.nextafter(1e99, 0.0),
]
ADVERSARIAL += [-v for v in ADVERSARIAL[:24]]
# 12-digit mantissas whose 4-digit groups sit at 0000 and 9999
GROUP_EDGES = [
    100000000000, 100000009999, 999999990000, 123400000000, 100010001000, 999900009999,
]
ADVERSARIAL += [float(m) for m in GROUP_EDGES]

NEAR_TIES = st.builds(
    lambda digits, exponent, sign: sign * float(f"{digits}5e{exponent}"),
    st.integers(10**11, 10**12 - 1),
    st.integers(-330, 300),
    st.sampled_from([1.0, -1.0]),
)


class TestMatrixWriter:
    @pytest.mark.parametrize(
        "name",
        ["dist_position", "dist_momentum", "protocol40_0", "protocol40_1", "protocol40_2"],
    )
    def test_real_joint_matches_per_value_writer(self, tmp_path, real_joints, name):
        joint = real_joints[name]
        # dist hands the writer full-grid joints that it decimates
        assert (joint.axis1.size > 320) == name.startswith("dist")
        assert_matrix_matches_oracle(tmp_path / "m", joint)

    @pytest.mark.parametrize("name", ["dist_position", "dist_momentum", "protocol40_1"])
    def test_real_joint_takes_the_fast_path(self, real_joints, name):
        # a silent fall-back to per-value formatting would pass the byte
        # comparisons; at most 1% of the values may need Python's %
        density = cli.decimate_joint(real_joints[name]).density
        out = np.empty(density.shape + (cli._VALUE_WIDTH,), np.uint8)
        slow = cli._format_e11(density, out)
        assert slow <= 0.01 * density.size

    def test_adversarial_values(self, tmp_path):
        values = np.array(ADVERSARIAL)
        # every value in the first and in the last column, and on the axes
        density = np.resize(values, (values.size, 7))
        density[:, -1] = values[::-1]
        joint = any_joint(values, values[:7].copy(), density, "position")
        assert_matrix_matches_oracle(tmp_path / "m", joint)
        text = (tmp_path / "m.new").read_text()
        for written in (
            "1.23456789012e+12", "1.23456789014e+12", "1.00000000000e+12", "1.00000000000e-05",
            "1.00000000000e-04", "9.99999999999e+10", "1.00000000000e+11", "9.99999999999e-05",
            "-0.00000000000e+00", "nan", "-inf", "4.94065645841e-324", "1.50000000000e-123",
            "1.00000000000e+300", "1.79769313486e+308", "1.00000000000e+01", "9.99999999999e+99",
            "1.00000000000e-100",
        ):
            assert f" {written}\n" in text

    def test_group_edges_at_every_exponent(self, tmp_path):
        # the group edges, the powers of ten and their float neighbours at
        # every exponent of the fast path [1e-99, 1e99), with both signs
        values = []
        for e in range(-99, 99):
            power = float(f"1e{e}")
            values += [float(f"{m}e{e - 11}") for m in GROUP_EDGES]
            values += [np.nextafter(power, 0.0), np.nextafter(power, np.inf), 1.5 * power]
        values = np.array(values + [-v for v in values]).reshape(-1, 2 * 9)
        joint = any_joint(np.arange(values.shape[0] + 0.0), np.arange(18.0), values, "momentum")
        assert_matrix_matches_oracle(tmp_path / "m", joint)
        # every group edge but the power of ten itself is proven on the fast path
        edges = values[:, [1, 2, 3, 4, 5, 10, 11, 12, 13, 14]]
        out = np.empty(edges.shape + (cli._VALUE_WIDTH,), np.uint8)
        assert cli._format_e11(edges, out) == 0

    def test_block_memory(self, tmp_path):
        # one block of lines and the formatter's temporaries: a copy of the
        # block per write, or a larger block, would pass 0.75 MB
        axis = -0.5 + 0.125 * np.arange(320)  # a protocol snapshot's axis at N = 40
        density = np.random.default_rng(5).random((320, 320)) * 1e-3
        joint = distributions.JointDistribution(axis, axis.copy(), density, "position")
        cli.write_matrix(tmp_path / "warm.dat", joint, "test")
        tracemalloc.start()
        try:
            cli.write_matrix(tmp_path / "m.dat", joint, "test")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75e6

    def test_near_ties_match_per_value_writer(self, tmp_path):
        # 13-digit decimals ending in 5: frac(m) lies within ~1e-4 of 1/2,
        # where a too-narrow tie margin rounds about 1% of them wrongly
        rng = np.random.default_rng(13)
        digits = rng.integers(10**11, 10**12, 20000)
        exponents = rng.integers(-330, 300, 20000)
        values = np.array([float(f"{d}5e{e}") for d, e in zip(digits, exponents)])
        joint = any_joint(np.arange(100.0), np.arange(200.0), values.reshape(100, 200), "position")
        assert_matrix_matches_oracle(tmp_path / "m", joint)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.floats(width=64), NEAR_TIES, st.sampled_from(ADVERSARIAL)),
            min_size=1,
            max_size=120,
        ),
        columns=st.integers(1, 9),
    )
    def test_any_float64_matches_per_value_writer(self, tmp_path_factory, values, columns):
        rows = -(-len(values) // columns)
        density = np.resize(np.array(values), (rows, columns))
        axis1 = np.resize(np.array(values[::-1]), rows)
        joint = any_joint(axis1, density[0].copy(), density, "momentum")
        assert_matrix_matches_oracle(tmp_path_factory.mktemp("matrix") / "m", joint)

    def test_files_parse_to_the_12_digit_values(self, tmp_path, monkeypatch):
        # every matrix of dist and protocol reads back as the "%.12g" texts
        # of its axes and densities parse: only the notation is new
        written = {}
        write_matrix = cli.write_matrix

        def recording_write(path, joint, comment):
            written[path] = cli.decimate_joint(joint)
            write_matrix(path, joint, comment)

        monkeypatch.setattr(cli, "write_matrix", recording_write)
        for command in ("dist", "protocol"):
            assert cli.main(["--out", str(tmp_path), command]) == 0
        assert len(written) == 5
        for path, joint in written.items():
            x1, x2 = np.meshgrid(joint.axis1, joint.axis2, indexing="ij")
            columns = np.stack([x1, x2, joint.density], axis=-1).reshape(-1, 3)
            want = np.array([float("%.12g" % v) for v in columns.ravel()]).reshape(-1, 3)
            assert np.array_equal(np.loadtxt(path), want), path.name

    def test_strided_joint_is_not_copied(self, tmp_path, monkeypatch):
        # decimation hands the writer a view of the full-grid density
        axis = np.linspace(-3.0, 3.0, 700)
        density = np.random.default_rng(3).random((700, 700))
        joint = distributions.JointDistribution(axis, axis.copy(), density, "position")
        shown = cli.decimate_joint(joint)
        assert shown.density.shape == (234, 234)
        assert np.shares_memory(shown.density, density)
        assert_matrix_matches_oracle(tmp_path / "m", joint)


class TestSweep:
    def test_empty_sweep(self, tmp_path):
        run_cli("--config", str(CONFIG), "--out", str(tmp_path), "sweep", "vdd 0:1:0")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("parameter,value")

    def test_vdd_sweep_split_band(self, tmp_path):
        run_cli(
            "--config", str(CONFIG), "--out", str(tmp_path), "sweep", "vdd 0.5:2.5:3"
        )
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        gaps = [float(r.split(",")[6]) for r in rows]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_shift_sweep_cubic_law(self, tmp_path):
        run_cli(
            "--config", str(CONFIG), "--out", str(tmp_path),
            "sweep", "l 4e-8:2e-7:6",
        )
        data = np.genfromtxt(
            tmp_path / "sweep.csv", delimiter=",", skip_header=1, usecols=(1, 3)
        )
        slope = np.polyfit(np.log(data[:, 0]), np.log(-data[:, 1]), 1)[0]
        assert slope == pytest.approx(-3.0, rel=0.05)

    def test_point_failure_recorded_not_fatal(self, tmp_path):
        # U0 = 0 has no split band and no Gaussian width: the row carries an
        # error, and the run still succeeds
        result = run_cli(
            "--config", str(CONFIG), "--out", str(tmp_path), "sweep", "U0 0:4:2"
        )
        assert result.returncode == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3
        # U0 = 0 lies outside tight binding, U0 = 4 inside
        shallow, deep = sweep_rows(tmp_path)
        assert "tight-binding" in shallow["error"] and shallow["s"] == ""
        assert deep["error"] == "" and float(deep["s"]) > 0

    @pytest.mark.parametrize(
        "depth, residual", [("1e300", "1.429e+298"), ("1e150", "1.429e+148"), ("1e6", "1.321e+04")]
    )
    def test_extreme_depth_row_reads_the_dense_residual(self, tmp_path, depth, residual):
        # up to and past the float range of (U0/4)^2 (1e300), the row reads
        # the doubled basis's residual, and the band check warns nothing
        argv = ["--config", str(CONFIG), "--out", str(tmp_path), "--jobs", "1"]
        assert cli.main([*argv, "sweep", f"U0 {depth}:{depth}:1"]) == 0
        (row,) = sweep_rows(tmp_path)
        assert row["error"] == (
            "ConvergenceError: lowest bands not converged at n_planewaves=33: "
            f"residual {residual} E_rec > 1.0e-10"
        )
        assert json.loads((tmp_path / "run_manifest.json").read_text())["warnings"] == []

    def test_point_warnings_reach_manifest(self, tmp_path, capsys):
        # both points clip the protocol envelope; the message is listed once
        argv = ["--config", str(CONFIG), "--out", str(tmp_path), "--jobs", "1"]
        assert cli.main([*argv, "sweep", "slope 0.02:0.04:2"]) == 0
        message = "envelope clipped by the lattice boundary: tail mass 4.48e-02"
        assert capsys.readouterr().err == f"warning: {message}\n"
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["warnings"] == [message]

    def test_single_point_matches_direct(self, tmp_path, lithium_model, dist_metrics):
        # a one-point sweep at the configured interaction reproduces the
        # direct `dist` metrics on the same grids
        metrics = dist_metrics
        run_cli(
            "--config", str(CONFIG), "--out", str(tmp_path / "s"),
            "sweep", f"vdd {-lithium_model.vdd}:{-lithium_model.vdd}:1",
        )
        row = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1].split(",")
        assert float(row[7]) == pytest.approx(metrics["dx_minus"], rel=1e-9)
        assert float(row[8]) == pytest.approx(metrics["dp_plus"], rel=1e-9)
        assert float(row[9]) == pytest.approx(metrics["s"], rel=1e-9)

    def test_hopping_point_matches_direct(self, tmp_path, lithium_model, dist_metrics):
        hop = -lithium_model.hop
        run_cli(
            "--config", str(CONFIG), "--out", str(tmp_path), "sweep", f"vhop {hop}:{hop}:1"
        )
        (row,) = sweep_rows(tmp_path)
        assert float(row["vhop_erec"]) == pytest.approx(lithium_model.hop, rel=1e-9)
        assert float(row["dx_minus_a"]) == pytest.approx(dist_metrics["dx_minus"], rel=1e-9)
        assert float(row["dp_plus_hbar_per_a"]) == pytest.approx(
            dist_metrics["dp_plus"], rel=1e-9
        )
        assert float(row["s"]) == pytest.approx(dist_metrics["s"], rel=1e-9)

    def test_temperature_sweep_matches_direct(self, tmp_path, dist_metrics):
        # `dist` reads positions at 10 nK and momenta at 100 nK; a T sweep
        # uses one temperature for both, so row 1 carries the position width
        # and row 2 the momentum width of the direct run
        run_cli("--config", str(CONFIG), "--out", str(tmp_path), "sweep", "T 1e-8:1e-7:2")
        cold, warm = sweep_rows(tmp_path)
        assert float(cold["dx_minus_a"]) == pytest.approx(dist_metrics["dx_minus"], rel=1e-9)
        assert float(warm["dp_plus_hbar_per_a"]) == pytest.approx(
            dist_metrics["dp_plus"], rel=1e-9
        )

    def test_slope_point_matches_protocol(self, tmp_path):
        run_cli(
            "--config", str(CONFIG), "--out", str(tmp_path / "p"), "--resolution", "16",
            "protocol",
        )
        final = (tmp_path / "p" / "protocol_diagnostics.csv").read_text().splitlines()[-1]
        run_cli(
            "--config", str(CONFIG), "--out", str(tmp_path / "s"),
            "sweep", "slope 0.04:0.04:1",
        )
        (row,) = sweep_rows(tmp_path / "s")
        assert float(row["displacement_ratio"]) == pytest.approx(
            float(final.split(",")[-1]), rel=1e-9
        )

    def test_envelope_sweep_thermal_estimate(self, tmp_path, lithium_model):
        config = lithium_default()
        run_cli(
            "--config", str(CONFIG), "--out", str(tmp_path), "sweep", "sigma_E 2:8:3"
        )
        rows = sweep_rows(tmp_path)
        assert [float(r["value"]) for r in rows] == [2.0, 5.0, 8.0]
        sigma = band_structure.gaussian_sigma(config.measurement_lattice_depth)
        a = lithium_model.lattice_constant
        for row in rows:
            sigma_e = float(row["value"])
            dp = distributions.thermal_dp_plus(
                sigma_e * a, config.temperature_momentum_k, config.physical.atom_mass
            ) * a / HBAR
            assert float(row["dx_minus_a"]) == pytest.approx(sigma, rel=1e-9)
            assert float(row["dp_plus_hbar_per_a"]) == pytest.approx(dp, rel=1e-9)
            assert float(row["s"]) == pytest.approx(1.0 / (2.0 * sigma * dp), rel=1e-9)
            assert float(row["s"]) == pytest.approx(
                distributions.s_thermal_estimate(
                    sigma_e, sigma, config.temperature_momentum_k, lithium_model.recoil_energy
                ),
                rel=1e-9,
            )

    @pytest.mark.parametrize(
        "args, artifact",
        [
            (("spectrum", "--sweep", "vdd 0:0:1"), "spectrum.csv"),
            (("spectrum", "--sweep", "vhop 0:0:1"), "spectrum.csv"),
            (("sweep", "vdd 0:0:1"), "sweep.csv"),
        ],
    )
    def test_zero_coupling_written_as_zero(self, tmp_path, args, artifact):
        run_cli("--config", str(CONFIG), "--out", str(tmp_path), *args)
        lines = (tmp_path / artifact).read_text().splitlines()[1:]
        cells = [cell for line in lines for cell in line.split(",")]
        assert "-0" not in cells
        assert all(line.split(",")[1] == "0" for line in lines)


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli("--config", str(CONFIG), "--out", str(out), "bands")
            run_cli("--config", str(CONFIG), "--out", str(out), "liddi-scan")
            run_cli(
                "--config", str(CONFIG), "--out", str(out), "sweep", "vdd 0.5:0.5:1"
            )
            outs.append(out)
        for name in ("dispersion.csv", "wannier.csv", "liddi_scan.csv", "sweep.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_warnings_in_first_seen_order(self, tmp_path):
        # a narrow envelope at the lattice edge warns twice per envelope;
        # stderr and the manifest list each message once, in the order
        # raised, whatever the string hash seed (the two seeds below gave
        # opposite orders when the messages were printed from a set)
        path = tmp_path / "edge.ini"
        write_config(lithium_default(), path)
        path.write_text(
            path.read_text()
            .replace("sigma_e_sites = 5.0", "sigma_e_sites = 0.8")
            .replace("center_site = 8", "center_site = 0")
        )
        expected = [
            "envelope width 0.8 below one lattice constant; the cooled state "
            "should span several sites",
            "envelope clipped by the lattice boundary: tail mass 2.51e-01",
        ]
        for seed in ("1", "2"):
            out = tmp_path / seed
            result = subprocess.run(
                [
                    sys.executable, "-m", "latticeepr", "--config", str(path),
                    "--out", str(out), "--resolution", "16", "protocol",
                ],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert result.returncode == 0, result.stderr
            assert result.stderr.splitlines() == [f"warning: {m}" for m in expected]
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["warnings"] == expected

    def test_pool_no_larger_than_the_sweep(self, tmp_path, monkeypatch):
        # under fork a pool starts all max_workers processes at once; this
        # recorder stands in for the pool and starts none
        pools, initializers = [], []

        class RecordingPool:
            def __init__(self, max_workers, initializer=None):
                pools.append(max_workers)
                initializers.append(initializer)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        argv = ["--out", str(tmp_path), "--jobs", "5000", "sweep", "sigma_E 1:2:2"]
        assert cli.main(argv) == 0
        assert pools == [2]
        assert initializers == [cli._single_blas_thread]
        assert len(sweep_rows(tmp_path)) == 2

    def test_pool_workers_run_one_blas_thread(self):
        if cli._blas_threads() is None:
            pytest.skip("numpy bundles no OpenBLAS")
        with cli.concurrent.futures.ProcessPoolExecutor(
            max_workers=1, initializer=cli._single_blas_thread
        ) as pool:
            assert pool.submit(cli._blas_threads).result(timeout=60) == 1

    def test_process_pool_matches_serial(self, tmp_path):
        # l > lambda_C / 10 warns at three of the four shifts, once each
        for spec, warned in (("vdd 0.5:2.5:4", 0), ("l 6e-8:9e-8:4", 3)):
            tables, listed, stderrs = [], [], []
            for jobs in ("1", "2"):
                out = tmp_path / spec.split()[0] / jobs
                result = run_cli(
                    "--config", str(CONFIG), "--out", str(out), "--jobs", jobs,
                    "sweep", spec,
                )
                tables.append((out / "sweep.csv").read_bytes())
                listed.append(json.loads((out / "run_manifest.json").read_text())["warnings"])
                stderrs.append(result.stderr)
            assert tables[0] == tables[1]
            assert listed[0] == listed[1] and len(listed[0]) == warned
            assert stderrs[0] == stderrs[1] == "".join(f"warning: {m}\n" for m in listed[0])
            rows = tables[0].decode().splitlines()[1:]
            assert len(rows) == 4
            assert all(row.endswith(",") for row in rows)  # no point failed


class TestExitCodes:
    def test_bad_config_path(self, tmp_path):
        result = run_cli(
            "--config", str(tmp_path / "missing.ini"), "--out", str(tmp_path),
            "params", check=False,
        )
        assert result.returncode == 2
        assert "config error" in result.stderr

    def test_invalid_config_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        write_config(lithium_default(), path)
        path.write_text(path.read_text().replace("[atom]", "[atom]\nwhat = 7"))
        result = run_cli(
            "--config", str(path), "--out", str(tmp_path), "params", check=False
        )
        assert result.returncode == 2
        assert "unknown key" in result.stderr

    def test_numerical_failure(self, tmp_path):
        # an absurd lattice intensity makes the plane-wave basis diverge
        path = tmp_path / "hot.ini"
        write_config(lithium_default(), path)
        path.write_text(
            path.read_text().replace(
                "intensity_lattice_w_per_m2 = 1860.0",
                "intensity_lattice_w_per_m2 = 1.86e13",
            )
        )
        result = run_cli(
            "--config", str(path), "--out", str(tmp_path), "bands", check=False
        )
        assert result.returncode == 3
        assert "numerical error" in result.stderr

    def test_unconverged_bands_exit_code(self, tmp_path, capsys):
        # U0 ~ 1690 E_rec: the 33-wave basis misses the doubled one by ~1e-6
        path = tmp_path / "deep.ini"
        path.write_text(
            CONFIG.read_text().replace(
                "intensity_lattice_w_per_m2 = 1860.0",
                "intensity_lattice_w_per_m2 = 800000.0",
            )
        )
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "params"]) == 3
        assert capsys.readouterr().err.startswith("numerical error (ConvergenceError)")

    def test_dist_outside_tight_binding(self, tmp_path):
        # a near-zero lattice intensity leaves the atoms almost free
        path = tmp_path / "shallow.ini"
        write_config(lithium_default(), path)
        path.write_text(
            path.read_text().replace(
                "intensity_lattice_w_per_m2 = 1860.0",
                "intensity_lattice_w_per_m2 = 1e-06",
            )
        )
        result = run_cli(
            "--config", str(path), "--out", str(tmp_path), "dist", check=False
        )
        assert result.returncode == 3
        assert "tight-binding" in result.stderr

    @pytest.mark.parametrize(
        "key, value, command, code",
        [
            ("sigma_e_sites", "nan", "protocol", 2),
            ("ejection_line_site", "inf", "protocol", 2),
            ("start", "nan", "sweep", 2),
            ("snapshot_times_s", "", "protocol", 2),
            # a snapshot before the protocol starts
            pytest.param(
                "snapshot_times_s", "-0.0001 0.0 0.000216", "protocol", 2,
                id="snapshot_times_s-negative-protocol-2",
            ),
            ("temperature_momentum_nk", "nan", "dist", 2),
            ("site_count", "2", "spectrum", 2),
            ("diatom_band_width", "-1", "protocol", 2),
            ("mass_kg", "nan", "params", 2),
            ("lattice_shift_nm", "nan", "params", 2),
            ("measurement_lattice_depth_erec", "nan", "dist", 2),
            ("slope_erec_per_site", "nan", "protocol", 2),
            # an envelope centred off the lattice
            ("center_site", "1000", "protocol", 2),
        ],
    )
    def test_bad_value_fails_with_exit_code(self, tmp_path, capsys, key, value, command, code):
        text = CONFIG.read_text()
        (line,) = [line for line in text.splitlines() if line.startswith(f"{key} = ")]
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(line, f"{key} = {value}"))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), command]) == code
        prefix = "config error:" if code == 2 else "numerical error"
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("center", ["25", "30", "1000", "-1"])
    @pytest.mark.parametrize(
        "command", [["protocol"], ["sweep", "slope 0:0.04:2"]], ids=["protocol", "sweep-slope"]
    )
    def test_center_site_off_the_lattice_is_config_error(self, tmp_path, capsys, center, command):
        path = tmp_path / "off.ini"
        path.write_text(CONFIG.read_text().replace("center_site = 8", f"center_site = {center}"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "--jobs", "1", *command]) == 2
        assert capsys.readouterr().err == (
            f"config error: [protocol] center_site = {center} lies outside the "
            "lattice sites 0..24\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["dist", "spectrum"])
    def test_center_site_unread_outside_the_protocol(self, tmp_path, command):
        # the default center_site = 8 lies off a ring of 8 sites
        path = tmp_path / "short.ini"
        path.write_text(CONFIG.read_text().replace("site_count = 25", "site_count = 8"))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), command]) == 0

    # a pair sweep fails up front, before any point runs, at any --jobs
    @pytest.mark.parametrize(
        "command",
        [["bands"], ["dist"], ["protocol"], ["--jobs", "2", "sweep", "vdd 0.5:1:2"]]
        + [
            ["--jobs", "1", "sweep", spec]
            for spec in ("vhop 0.05:0.1:2", "U0 3:4:2", "T 1e-8:1e-7:2", "l 3e-8:5e-8:2")
        ],
        ids=["bands", "dist", "protocol", "sweep-vdd", "sweep-vhop", "sweep-U0", "sweep-T", "sweep-l"],
    )
    @pytest.mark.parametrize("site_count", [3, 5, 7])
    def test_ring_below_wannier_minimum_is_config_error(
        self, tmp_path, capsys, command, site_count
    ):
        path = tmp_path / "tiny.ini"
        text = CONFIG.read_text().replace("site_count = 25", f"site_count = {site_count}")
        path.write_text(text.replace("center_site = 8", "center_site = 1"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), *command]) == 2
        assert capsys.readouterr().err == (
            f"config error: site_count = {site_count} is below the 8 sites the "
            "Wannier basis needs\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["params", "liddi-scan", "spectrum"])
    def test_small_ring_runs_without_wannier_basis(self, tmp_path, command):
        path = tmp_path / "tiny.ini"
        path.write_text(CONFIG.read_text().replace("site_count = 25", "site_count = 5"))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), command]) == 0

    def test_small_ring_envelope_sweep_runs(self, tmp_path):
        # the sigma_E row is a closed form that needs no Wannier basis
        path = tmp_path / "tiny.ini"
        path.write_text(CONFIG.read_text().replace("site_count = 25", "site_count = 5"))
        args = ["--config", str(path), "--out", str(tmp_path), "--jobs", "1", "sweep"]
        assert cli.main([*args, "sigma_E 1:2:2"]) == 0
        assert [(r["error"], bool(r["s"])) for r in sweep_rows(tmp_path)] == [("", True)] * 2

    @pytest.mark.parametrize("spec", ["vdd nan:1:2", "T inf:1e-7:2", "vdd 0:-inf:3"])
    def test_non_finite_sweep_range_is_config_error(self, tmp_path, capsys, spec):
        assert cli.main(["--out", str(tmp_path), "--jobs", "1", "sweep", spec]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "command", [["sweep", "vdd "], ["sweep", " vdd"], ["spectrum", "--sweep", "vdd "]]
    )
    def test_sweep_spec_without_range_is_config_error(self, tmp_path, capsys, command):
        assert cli.main(["--out", str(tmp_path), "--jobs", "1", *command]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: sweep spec must be 'param start:stop:steps', got "
        )
        assert list(tmp_path.iterdir()) == []

    def test_tab_separated_sweep_spec(self, tmp_path):
        for name, sep in (("tab", "\t"), ("space", " ")):
            argv = ["--out", str(tmp_path / name), "--jobs", "1", "sweep", f"vdd{sep}0.5:1:2"]
            assert cli.main(argv) == 0
        table = (tmp_path / "tab" / "sweep.csv").read_bytes()
        assert table == (tmp_path / "space" / "sweep.csv").read_bytes()
        assert [(r["value"], r["error"]) for r in sweep_rows(tmp_path / "tab")] == [
            ("0.5", ""),
            ("1", ""),
        ]

    # the base model's Bloch solve, which every point shares, fails before
    # any point runs (U0 ~ 1690 E_rec, as in test_unconverged_bands_exit_code)
    @pytest.mark.parametrize("spec", ["vdd 0.5:1:2", "U0 3:4:2", "sigma_E 1:2:2", "slope 0:0.04:2"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_shared_input_failure_fails_the_sweep(self, tmp_path, capsys, spec, jobs):
        path = tmp_path / "deep.ini"
        path.write_text(
            CONFIG.read_text().replace(
                "intensity_lattice_w_per_m2 = 1860.0",
                "intensity_lattice_w_per_m2 = 800000.0",
            )
        )
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "--jobs", jobs, "sweep", spec]) == 3
        assert capsys.readouterr().err.startswith("numerical error (ConvergenceError)")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("resolution", ["8", "0", "-3"])
    def test_resolution_below_minimum_is_config_error(self, tmp_path, resolution):
        result = run_cli("--out", str(tmp_path), "--resolution", resolution, "params", check=False)
        assert result.returncode == 2
        assert result.stderr == (
            f"config error: --resolution: resolution must be >= 16 points per cell, got {resolution}\n"
        )
        assert not (tmp_path / "run_manifest.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        assert cli.main(["--out", str(tmp_path), "--jobs", jobs, "sweep", "sigma_E 1:2:2"]) == 2
        assert capsys.readouterr().err == f"config error: --jobs must be >= 1, got {jobs}\n"
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("target", ["missing/x.ini", "."])
    def test_init_config_unwritable_path_is_config_error(self, tmp_path, capsys, target):
        # a file in a missing directory, and an existing directory
        assert cli.main(["init-config", str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write config: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("blocked", ["params.json", "run_manifest.json"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, blocked):
        # an artifact, and the manifest written after the artifacts, whose
        # path is taken by a directory
        (tmp_path / blocked).mkdir()
        assert cli.main(["--out", str(tmp_path), "params"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output: ")
        assert blocked in err and err.count("\n") == 1

    def test_init_config(self, tmp_path):
        target = tmp_path / "fresh.ini"
        run_cli("init-config", str(target))
        from latticeepr.parameters import load_config

        assert load_config(target) == lithium_default()
        assert target.read_bytes() == CONFIG.read_bytes()
