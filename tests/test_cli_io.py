"""Config parsing, mesh generation, serialization, CLI behaviour."""

import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from psmpm.cli_io import (OutputFrame, cli, dump_config, generate_mesh,
                          load_config, parse_config, read_particle_csv,
                          write_mesh_file, write_particle_csv, write_vtk)
from psmpm.errors import ParseError, ValidationError
from psmpm.mesh import Triangulation
from psmpm.mpm_core import Particles


class TestConfig:
    def test_minimal_benchmark_config(self):
        cfg = parse_config("[run]\nbenchmark = mms\n")
        assert cfg.benchmark == "mms"
        assert cfg.basis == "ps"
        assert cfg.mass_mode is None

    def test_negative_modulus_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("[run]\nbenchmark = custom\n[material]\nE = -5.0\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("[run]\nbanana = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("[fruits]\nbenchmark = mms\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_config("[run]\nbenchmark mms\n")
        assert err.value.line == 2

    def test_bad_float_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("[run]\ndt = fast\n")
        assert err.value.line == 2

    def test_round_trip(self):
        text = """
# comment
[run]
benchmark = soil
basis = ps
mass_mode = partial
dt = 0.0005
t_end = 2.5
seed = 42
output_every = 25

[material]
E = 100000.0
nu = 0.0

[converge]
h_list = 0.25 0.125
ppe_list = 16 64
basis = hat ps
"""
        cfg = parse_config(text)
        again = parse_config(dump_config(cfg))
        assert again == cfg

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# header\n[run]\nseed = 7   # trailing\n\n")
        assert cfg.seed == 7


class TestGenerateMesh:
    def test_structured_counts(self):
        tri = generate_mesh("structured", 0.5, (0.0, 0.0, 1.0, 1.0))
        assert tri.n_elements == 8
        assert tri.n_nodes == 9

    def test_structured_requires_divisible_h(self):
        with pytest.raises(ValidationError):
            generate_mesh("structured", 0.3, (0.0, 0.0, 1.0, 1.0))

    def test_jittered_deterministic(self):
        a = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=3)
        b = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=3)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.elements, b.elements)
        c = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=4)
        assert not np.array_equal(a.nodes, c.nodes)

    def test_jittered_boundary_nodes_unmoved(self):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=5)
        on_edge = ((np.abs(tri.nodes[:, 0]) < 1e-12)
                   | (np.abs(tri.nodes[:, 0] - 1) < 1e-12)
                   | (np.abs(tri.nodes[:, 1]) < 1e-12)
                   | (np.abs(tri.nodes[:, 1] - 1) < 1e-12))
        assert on_edge.sum() == 16

    def test_jittered_invariants_over_seeds(self):
        for seed in range(50):
            tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0),
                                seed=seed)
            assert tri.areas.min() > 1e-3 * 0.25 ** 2
            counts = np.sum(tri.edge_elements >= 0, axis=1)
            assert set(counts.tolist()) <= {1, 2}


def zero_frame(n):
    parts = Particles(np.zeros((n, 2)), np.ones(n), 1.0)
    return OutputFrame.from_particles(0, 0.0, parts)


class TestParticleFiles:
    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_particle_csv(zero_frame(0), path)
        assert path.read_text() == "id,x,y,ux,uy,vx,vy,sxx,syy,sxy,V,rho\n"

    def test_single_zero_particle_deterministic(self, tmp_path):
        path = tmp_path / "one.csv"
        write_particle_csv(zero_frame(1), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "0,0,0,0,0,0,0,0,0,0,1,1"

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(6)
        parts = Particles(rng.normal(size=(37, 2)) * np.pi,
                          rng.uniform(1e-7, 1e3, 37), 1234.56789)
        parts.u = rng.normal(size=(37, 2)) * 1e-9
        parts.v = rng.normal(size=(37, 2)) * 1e4
        parts.sigma = rng.normal(size=(37, 2, 2))
        frame = OutputFrame.from_particles(3, 0.001, parts)
        path = tmp_path / "p.csv"
        write_particle_csv(frame, path)
        ids, cols = read_particle_csv(path)
        assert np.array_equal(ids, np.arange(37))
        assert np.array_equal(cols, frame.columns())   # bitwise

    def test_vtk_structure(self, tmp_path):
        path = tmp_path / "p.vtk"
        write_vtk(zero_frame(3), path)
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "DATASET POLYDATA" in text
        assert "POINTS 3 double" in text
        assert "VERTICES 3 6" in text
        assert "POINT_DATA 3" in text
        for name in ("ux", "uy", "vx", "vy", "sxx", "syy", "sxy", "V", "rho"):
            assert f"SCALARS {name} double 1" in text


BAR_CONFIG = """
[run]
benchmark = bar
dt = 0.005
t_end = 0.05
output_every = 5
"""

CUSTOM_CONFIG = """
[run]
benchmark = custom
basis = hat
mass_mode = lumped
dt = 0.001
t_end = 0.01
seed = 3

[material]
model = linear-elastic
E = 1000.0
nu = 0.0
rho = 10.0

[mesh]
kind = structured
h = 0.5
domain = 0 0 1 1

[particles]
layout = ppe
ppe = 4

[forces]
gravity = 0 -9.81
"""


class TestCli:
    def test_basis_check_on_valid_mesh(self, tmp_path, capsys):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=1)
        mesh_path = tmp_path / "mesh.txt"
        write_mesh_file(tri, mesh_path)
        code = cli(["basis-check", str(mesh_path),
                    "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS partition_of_unity" in out
        assert (tmp_path / "control_triangles.csv").exists()
        assert (tmp_path / "triplets.csv").exists()

    def test_run_missing_config_is_io_error(self, tmp_path, capsys):
        code = cli(["run", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_invalid_config_is_validation_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nbenchmark = warp\n")
        assert cli(["run", str(cfg), "--quiet"]) == 1

    def test_run_writes_frames_and_summary(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CUSTOM_CONFIG)
        out = tmp_path / "out"
        code = cli(["run", str(cfg), "--output-dir", str(out), "--quiet"])
        assert code == 0
        files = sorted(os.listdir(out))
        assert "frame_000000.csv" in files
        assert "frame_000010.csv" in files
        assert "final.vtk" in files
        assert "summary.txt" in files
        summary = (out / "summary.txt").read_text()
        assert "mass_drift = 0\n" in summary

    def test_run_deterministic_outputs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CUSTOM_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli(["run", str(cfg), "--output-dir", str(out_a), "--quiet"]) == 0
        assert cli(["run", str(cfg), "--output-dir", str(out_b), "--quiet"]) == 0
        for name in sorted(os.listdir(out_a)):
            if name.endswith(".csv") or name.endswith(".vtk"):
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bar_preset_runs(self, tmp_path):
        cfg = tmp_path / "bar.cfg"
        cfg.write_text(BAR_CONFIG)
        out = tmp_path / "out"
        assert cli(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 0
        ids, cols = read_particle_csv(out / "frame_000010.csv")
        assert len(ids) > 0
        assert np.all(np.isfinite(cols))

    def test_converge_tiny_study(self, tmp_path, capsys):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("""
[run]
benchmark = mms
basis = hat
mass_mode = lumped
seed = 7

[converge]
h_list = 0.5 0.25
ppe_list = 4
basis = hat
courant = 0.3
""")
        out = tmp_path / "out"
        code = cli(["converge", str(cfg), "--output-dir", str(out), "--quiet"])
        assert code == 0
        text = (out / "convergence.csv").read_text()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "benchmark,basis,h,ppe,dt,rms_error,slope"
        assert len(lines) == 3
        printed = capsys.readouterr().out
        assert "slope_h=" in printed


class TestConvergeMassMode:
    def test_mass_mode_flag_reaches_the_study(self, tmp_path):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("""
[run]
benchmark = mms
basis = hat
seed = 7

[converge]
h_list = 0.5 0.25
ppe_list = 4
basis = hat
courant = 0.3
""")
        tables = {}
        for mode in ("lumped", "consistent"):
            out = tmp_path / mode
            assert cli(["converge", str(cfg), "--output-dir", str(out),
                        "--mass-mode", mode, "--quiet"]) == 0
            tables[mode] = (out / "convergence.csv").read_bytes()
        assert tables["lumped"] != tables["consistent"]


class TestParallelConverge:
    def test_worker_pool_matches_serial(self, tmp_path, monkeypatch):
        text = """
[run]
benchmark = mms
basis = hat
mass_mode = lumped
seed = 7

[converge]
h_list = 0.5 0.25
ppe_list = 4
basis = hat
courant = 0.3
"""
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(text)
        out_serial = tmp_path / "serial"
        out_pool = tmp_path / "pool"
        monkeypatch.delenv("PSMPM_THREADS", raising=False)
        assert cli(["converge", str(cfg), "--output-dir", str(out_serial),
                    "--quiet"]) == 0
        monkeypatch.setenv("PSMPM_THREADS", "2")
        assert cli(["converge", str(cfg), "--output-dir", str(out_pool),
                    "--quiet"]) == 0
        assert (out_serial / "convergence.csv").read_bytes() == \
            (out_pool / "convergence.csv").read_bytes()
