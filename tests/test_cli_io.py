"""Config parsing, mesh generation, serialization, CLI behaviour."""

import os
import re

import numpy as np
import pytest

from psmpm import cli_io
from psmpm.benchmarks import build_system
from psmpm.cli_io import (OutputFrame, cli, config_to_spec, dump_config,
                          generate_mesh, load_config, parse_config,
                          read_particle_csv, write_mesh_file,
                          write_particle_csv, write_vtk)
from psmpm.errors import ParseError, SolverDiverged, ValidationError
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

    @pytest.mark.parametrize("h,ny,domain", [(0.5, None, (0.0, 0.0, 1.0, 1.0)),
                                             (0.1, 17, (0.0, 0.0, 0.1, 1.0625)),
                                             (0.25, 3, (0.0, 0.0, 1.0, 2.0))])
    def test_structured_matches_cell_loop(self, h, ny, domain):
        # reference: the cell-by-cell loop that numbered the elements
        tri = generate_mesh("structured", h, domain, ny=ny)
        nx = round((domain[2] - domain[0]) / h)
        ny = ny or round((domain[3] - domain[1]) / h)
        want = []
        for i in range(nx):
            for j in range(ny):
                n00, n10 = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
                want += [[n00, n10, n10 + 1], [n00, n10 + 1, n00 + 1]]
        assert tri.elements.tobytes() == np.array(want, dtype=int).tobytes()

    def test_structured_requires_divisible_h(self):
        with pytest.raises(ValidationError):
            generate_mesh("structured", 0.3, (0.0, 0.0, 1.0, 1.0))

    @pytest.mark.parametrize("kind", ["structured", "jittered"])
    def test_swapped_domain_rejected(self, kind):
        # with ny given no extent check would catch a swapped y range
        for domain in ((1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0)):
            with pytest.raises(ValidationError, match="needs x0 < x1"):
                generate_mesh(kind, 0.25, domain, ny=4)

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

    def test_writers_match_per_value_reference(self, tmp_path):
        # the one-value-at-a-time writers the row templates replaced
        def ref_csv(frame, path):
            cols = frame.columns()
            with open(path, "w") as fh:
                fh.write("id,x,y,ux,uy,vx,vy,sxx,syy,sxy,V,rho\n")
                for i in range(len(cols)):
                    fh.write(str(i) + "," + ",".join(f"{v:.17g}"
                                                     for v in cols[i]) + "\n")

        def ref_vtk(frame, path):
            cols = frame.columns()
            n = len(cols)
            with open(path, "w") as fh:
                fh.write("# vtk DataFile Version 3.0\n")
                fh.write(f"psmpm particles step={frame.step} "
                         f"time={frame.time:.17g}\n")
                fh.write("ASCII\nDATASET POLYDATA\n")
                fh.write(f"POINTS {n} double\n")
                for i in range(n):
                    fh.write(f"{cols[i, 0]:.17g} {cols[i, 1]:.17g} 0\n")
                fh.write(f"VERTICES {n} {2 * n}\n")
                for i in range(n):
                    fh.write(f"1 {i}\n")
                fh.write(f"POINT_DATA {n}\n")
                for j, name in enumerate(("ux", "uy", "vx", "vy", "sxx",
                                          "syy", "sxy", "V", "rho"), start=2):
                    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    for i in range(n):
                        fh.write(f"{cols[i, j]:.17g}\n")

        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324,
                            -2.2250738585072014e-308 / 3, 1e300, -1e-300,
                            1e-300, np.pi, 1.0 / 3.0])
        rng = np.random.default_rng(8)
        n = 50
        values = rng.normal(size=(n, 12)) * 10.0 ** rng.integers(-300, 300,
                                                                  (n, 12))
        values.ravel()[rng.permutation(values.size)[:120]] = np.resize(
            special, 120)
        frame = OutputFrame(step=7, time=-0.0, x=values[:, 0:2],
                            u=values[:, 2:4], v=values[:, 4:6],
                            sigma=values[:, 6:10].reshape(n, 2, 2),
                            volume=values[:, 10], rho=values[:, 11])
        for write, ref in ((write_particle_csv, ref_csv), (write_vtk, ref_vtk)):
            write(frame, tmp_path / "new")
            ref(frame, tmp_path / "ref")
            assert (tmp_path / "new").read_bytes() == \
                (tmp_path / "ref").read_bytes()

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

    def test_basis_check_quiet_prints_only_failures(self, tmp_path, capsys,
                                                    monkeypatch):
        tri = generate_mesh("jittered", 0.25, (0.0, 0.0, 1.0, 1.0), seed=1)
        mesh_path = tmp_path / "mesh.txt"
        write_mesh_file(tri, mesh_path)
        args = ["basis-check", str(mesh_path), "--output-dir", str(tmp_path),
                "--quiet"]
        assert cli(args) == 0
        assert capsys.readouterr().out == ""
        # a limit no basis meets: the one failing invariant is still printed
        monkeypatch.setitem(cli_io._BASIS_CHECK_LIMITS,
                            "partition_of_unity", -1.0)
        assert cli(args) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("FAIL partition_of_unity: ")

    @pytest.mark.parametrize("text, message", [
        # a 1-based file: index 0 is missing
        ("nodes\n1 0 0\n2 1 0\n3 0 1\nelements\n1 1 2 3\n",
         "node index 0 missing"),
        # an element naming node 7 of three
        ("nodes\n0 0 0\n1 1 0\n2 0 1\nelements\n0 0 1 7\n",
         "element 0 references missing node 7"),
        ("nodes\n0 0 0\n1 1 0\n2 0 nan\nelements\n0 0 1 2\n",
         "node 2 has a non-finite coordinate"),
    ], ids=["one_based", "dangling_node", "nan_coordinate"])
    def test_basis_check_on_bad_mesh_file_is_an_error(self, tmp_path, capsys,
                                                      text, message):
        mesh_path = tmp_path / "mesh.txt"
        mesh_path.write_text(text)
        assert cli(["basis-check", str(mesh_path),
                    "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_run_missing_config_is_io_error(self, tmp_path, capsys):
        code = cli(["run", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_invalid_config_is_validation_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nbenchmark = warp\n")
        assert cli(["run", str(cfg), "--quiet"]) == 1

    @pytest.mark.parametrize("command, text, where", [
        ("run", "[run]\nbenchmark = mms\nh = -0.125\n", "[run] h"),
        ("run", "[run]\nbenchmark = mms\nh = 0.5\nppe = 0\n", "[run] ppe"),
        ("run", CUSTOM_CONFIG.replace("[mesh]\n", "[mesh]\nny = 0\n"),
         "[mesh] ny"),
        ("run", CUSTOM_CONFIG.replace("ppe = 4", "ppe = 4\nnx = 0"),
         "[particles] nx"),
        ("run", CUSTOM_CONFIG.replace("ppe = 4", "ppe = 4\nny = -2"),
         "[particles] ny"),
        ("run", CUSTOM_CONFIG.replace("ppe = 4", "ppe = 0"),
         "[particles] ppe"),
        ("converge", "[run]\nbasis = hat\n[converge]\nh_list = 0.5 -0.25\n"
         "ppe_list = 4\n", "[converge] h_list"),
        ("converge", "[run]\nbasis = hat\n[converge]\nh_list = 0.5\n"
         "ppe_list = 4 0\n", "[converge] ppe_list"),
        ("converge", "[run]\nbasis = hat\n[converge]\nh_list = 0.5\n"
         "ppe_list = 4\ncourant = -1\n", "[converge] courant"),
    ], ids=["run_h", "run_ppe", "mesh_ny", "particles_nx", "particles_ny",
            "particles_ppe", "h_list", "ppe_list", "courant"])
    def test_non_positive_size_is_an_error(self, tmp_path, capsys, command,
                                           text, where):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli([command, str(cfg), "--output-dir", str(tmp_path / "out"),
                    "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {where}: must lie in (0, inf), got ")

    @pytest.mark.parametrize("domain", ["1 1 0 0", "0 1 1 0", "0 0 0 1",
                                        "0 0 nan 1"])
    def test_swapped_or_empty_domain_is_an_error(self, tmp_path, capsys,
                                                 domain):
        # x1 <= x0 or y1 <= y0 used to reach np.linspace as a raw ValueError
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CUSTOM_CONFIG.replace("domain = 0 0 1 1",
                                             f"domain = {domain}"))
        assert cli(["run", str(cfg), "--output-dir", str(tmp_path / "out"),
                    "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: domain (") and err.count("\n") == 1
        assert err.endswith(") needs x0 < x1 and y0 < y1\n")

    @pytest.mark.parametrize("key", ["h_list", "ppe_list", "basis"])
    def test_empty_converge_list_is_an_error(self, tmp_path, capsys, key):
        # an empty list used to fall back to the default list silently
        with pytest.raises(ValidationError, match=re.escape(
                f"[converge] {key}: got 0 values, expected at least 1")):
            parse_config(f"[converge]\n{key} =\n")
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(f"[run]\nbasis = hat\n[converge]\n{key} =\n")
        assert cli(["converge", str(cfg), "--output-dir",
                    str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"error: [converge] {key}: ")

    @pytest.mark.parametrize("text, where", [
        ("[run]\nbenchmark = soil\n[material]\nE = 1e6\nrho = 5\n"
         "[particles]\nlayout = ppe\n[forces]\ngravity = 0 -20\n",
         "[material] E"),
        ("[run]\nbenchmark = mms\n[forces]\ngravity = 0 -20\n",
         "[forces] gravity"),
        ("[run]\nbenchmark = bar\n[mesh]\nny = 4\n", "[mesh] ny"),
        ("[run]\nbenchmark = bar\nh = 0.25\n", "[run] h"),
        (CUSTOM_CONFIG.replace("seed = 3", "seed = 3\nppe = 16"), "[run] ppe"),
    ], ids=["soil_material", "mms_forces", "bar_mesh", "bar_h", "custom_ppe"])
    def test_key_the_benchmark_does_not_read_is_an_error(self, text, where):
        with pytest.raises(ValidationError,
                           match=re.escape(f"does not read {where}")):
            config_to_spec(parse_config(text))

    @pytest.mark.parametrize("name", ["mms", "bar", "soil"])
    def test_run_wide_keys_reach_every_builtin(self, name):
        spec = config_to_spec(parse_config(
            f"[run]\nbenchmark = {name}\nbasis = hat\n"
            "mass_mode = lumped\ndt = 0.001\nt_end = 0.002\nseed = 2\n"
            "output_dir = elsewhere\noutput_every = 3\n"))
        assert (spec.basis_kind, spec.mass_mode.value) == ("hat", "lumped")
        assert (spec.dt, spec.n_steps) == (0.001, 2)

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
        assert summary.endswith("status = ok\n")

    def test_failed_run_still_writes_summary(self, tmp_path):
        cfg = tmp_path / "soil.cfg"
        cfg.write_text("[run]\nbenchmark = soil\nbasis = ps\n"
                       "mass_mode = consistent\nt_end = 0.05\n")
        # the step at which an in-process run of the same spec raises
        spec = config_to_spec(load_config(cfg))
        system, parts = build_system(spec)
        done = []
        with pytest.raises(SolverDiverged):
            system.run(parts, spec.n_steps,
                       on_step=lambda i, t, p: done.append(i))
        failed = len(done) + 1
        assert failed <= spec.n_steps

        out = tmp_path / "out"
        assert cli(["run", str(cfg), "--output-dir", str(out), "--quiet"]) == 1
        lines = (out / "summary.txt").read_text().splitlines()
        summary = dict(line.split(" = ", 1) for line in lines)
        assert [line.split(" = ")[0] for line in lines] == [
            "benchmark", "basis", "mass_mode", "n_steps", "dt", "t_end",
            "n_particles", "courant", "total_mass", "mass_drift", "min_J",
            "runtime_s", "status", "error", "step", "t", "message"]
        assert summary["status"] == "failed"
        assert summary["error"] == "SolverDiverged"
        assert int(summary["step"]) == failed
        assert float(summary["t"]) == (failed - 1) * spec.dt
        assert summary["mass_mode"] == "consistent"
        assert "check" in summary["message"]

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
