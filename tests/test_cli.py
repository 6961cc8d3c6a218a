"""Command-line surface: exit codes, delegation, config echo, image export."""

import argparse
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from microhom import dataset as dataset_mod
from microhom.arrayio import read_array, write_array
from microhom.cli import _workers, dispatch
from microhom.dataset import DatasetConfig, config_to_dict, write_sample
from microhom.errors import PackingError
from microhom.homogenization import strain_concentration
from microhom.microstructure import Microstructure, assign_properties
from microhom.solver import SolverConfig
from microhom.voigt import IsotropicProps


PROPS = "fiber_props.E=10.0 fiber_props.nu=0.3 matrix_props.E=2.0 matrix_props.nu=0.3"


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def write_uniform_cell(cell):
    """A valid 8x8 single-phase sample directory."""
    grid = np.zeros((8, 8), dtype=np.uint8)
    fiber, matrix = IsotropicProps(10.0, 0.3), IsotropicProps(2.0, 0.3)
    conc = strain_concentration(assign_properties(grid, fiber, matrix), SolverConfig())
    write_sample(cell, Microstructure(grid, (8.0, 8.0), 0.0, 0), fiber, matrix, conc, 0, 0, 0.0)


def run_one_cell_plate(tmp_path):
    return dispatch([
        "multiscale", "--set", "nx=1", "--set", "ny=1",
        "--set", f"a_field_dir={tmp_path / 'micro'}", "--out", str(tmp_path / "o"),
    ])


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"bogus": 1})
        assert dispatch(["gen-rve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "command,override",
        [
            ("multiscale", "nx.a=1"),
            ("multiscale", "micro=5"),
            ("multiscale", "micro.solver.bogus=1"),
            ("multiscale", "bogus=1"),
            ("multiscale", "micro.bogus=1"),
            ("gen-rve", "rve.fiber=0.5"),
            ("dataset", "solver=5"),
            ("dataset", "resolution=64"),
            ("multiscale", "nx=two"),
            ("multiscale", "integration=full"),
            ("multiscale", "hourglass_coef=0.01"),
            ("multiscale", "nx=2.5 ny=1"),
            ("dataset", "n_samples=two"),
            ("gen-rve", "rve.fiber.vof=abc"),
            pytest.param(
                "gen-rve", 'rve={"fiber":{},"resolution":["a",64]}',
                id="gen-rve-rve.resolution=[a,64]",
            ),
            pytest.param(
                "homogenize",
                "rve.uniform=0 fiber_props.E=abc fiber_props.nu=0.2 "
                "matrix_props.E=3.0 matrix_props.nu=0.3",
                id="homogenize-fiber_props.E=abc",
            ),
            pytest.param(
                "gen-rve", 'rve={"fiber":{},"spinodal":{},"resolution":[64,64]}',
                id="gen-rve-two-kinds",
            ),
            pytest.param(
                "homogenize", f"rve.uniform=1 rve.file=missing.bin {PROPS}",
                id="homogenize-uniform-and-file",
            ),
            ("gen-rve", "rve.file=5"),
            ("gen-rve", 'rve.file={"a":1}'),
            ("gen-rve", "rve.file=null"),
            ("multiscale", "a_field_dir=5"),
            ("multiscale", "a_field_dir=true"),
        ],
    )
    def test_malformed_config_exits_2_before_echo(self, tmp_path, capsys, command, override):
        out = tmp_path / "o"
        argv = [command, "--out", str(out)]
        for item in override.split():
            argv += ["--set", item]
        assert dispatch(argv) == 2
        assert not (out / "config_echo.json").exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("command,override,message", [
        ("gen-rve", "rve.file=5", "'rve.file' must be a string, got a number"),
        ("gen-rve", "rve.uniform=0.5", "'rve.uniform' must be a whole number, got 0.5"),
        ("multiscale", "a_field_dir=true",
         "'a_field_dir' must be null or a string, got a boolean"),
        ("homogenize", f"rve.uniform=0 {PROPS} fiber_props.E=abc",
         "'fiber_props.E' must be null or a number, got a string"),
        ("homogenize", "rve.uniform=0 fiber_props.E=10.0 matrix_props.E=2.0 matrix_props.nu=0.3",
         "'fiber_props' needs both E and nu"),
    ])
    def test_mistyped_value_names_its_key(self, tmp_path, capsys, command, override, message):
        out = tmp_path / "o"
        argv = [command, "--out", str(out)]
        for item in override.split():
            argv += ["--set", item]
        assert dispatch(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "micro.solver.tol=-1", "nx=0", "grf_fiber.std=-1", "load_steps=0", "load_steps=-3",
        "elem_size=[0.0,0.05]", "newton_tol=0", "newton_tol=-1", "elem_size=[0.05]",
        "elem_size=[0.05,0.05,0.05]", "s_total=NaN", "s_total=Infinity",
        "micro.resolution=[64]", "micro.resolution=[64,64,64]", "micro.domain=[50.0]",
        "micro.nu_fiber=0.5", "micro.nu_matrix=-1",
        "micro.vof_range=[0.7,0.8] nx=1 ny=1", "micro.vof_range=[0.0,0.5] nx=1 ny=1",
        "micro.vof_range=[0.4] nx=1 ny=1", "seed=-1", "grf_fiber.seed=-1",
        "grf_matrix.seed=-1", "grf_fiber.std=Infinity", "grf_fiber.mean=NaN",
        "micro.resolution=[16,16]", "micro.r_mean=0", "micro.domain=[NaN,50]",
        "newton_tol=Infinity", "grf_matrix.std=10", "grf_fiber.mean=1 grf_fiber.std=5",
        "nx=1 ny=1 micro.resolution=[32,32] micro.r_mean=30", "micro.vof_range=[0.6,0.4] nx=1 ny=1",
    ])
    def test_invalid_multiscale_value_exits_1_before_echo(self, tmp_path, capsys, override):
        out = tmp_path / "o"
        argv = ["multiscale", "--out", str(out)]
        for item in override.split():
            argv += ["--set", item]
        assert dispatch(argv) == 1
        assert not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("override", [
        "n_samples=0", "n_samples=-4 n_vof_groups=1", "n_vof_groups=0",
        "fiber_nu_bounds=[0.2,0.2]", "resolution=[64]", "resolution=[64,64,64]",
        "domain_size=[50.0]", "fiber_E_bounds=[5]", "matrix_nu_bounds=[0.3,0.4,0.5]",
        "vof_range=[0.4]", "vof_range=[0.4,0.5,0.6]", "master_seed=-1",
        "fiber_nu_bounds=[0.5,0.6]", "vof_range=[0.9,0.9]", "r_mean=0", "resolution=[16,16]",
        "domain_size=[NaN,50]", "fiber_E_bounds=[-5,85]",
        "r_mean=30 resolution=[32,32] n_samples=2 n_vof_groups=2", "r_mean=20 gap_frac=0.5",
    ])
    def test_invalid_dataset_value_exits_1_before_echo(self, tmp_path, capsys, override):
        out = tmp_path / "o"
        argv = ["dataset", "--out", str(out)]
        for item in override.split():
            argv += ["--set", item]
        assert dispatch(argv) == 1
        assert not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("command,override", [
        ("dataset", "store_stiffness=true"),
        ("dataset", "solver.record_history=true"),
        ("multiscale", "micro.solver.record_history=true"),
    ])
    def test_removed_key_exits_2_without_output(self, tmp_path, capsys, command, override):
        out = tmp_path / "o"
        assert dispatch([command, "--out", str(out), "--set", override]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and repr(override.split("=")[0]) in err[0]
        assert not out.exists()

    def test_echo_with_removed_keys_exits_2(self, tmp_path, capsys):
        # a dataset echo written while store_stiffness and
        # solver.record_history existed carries both, as false
        echo = config_to_dict(DatasetConfig(output_dir=str(tmp_path / "o")))
        echo["solver"]["record_history"] = False
        echo["store_stiffness"] = False
        cfg = write_config(tmp_path / "old_echo.json", echo)
        assert dispatch(["dataset", "--config", cfg]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "unknown config key" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("zero", [["--workers", "0"], ["--set", "workers=0"]],
                             ids=["flag", "workers"])
    @pytest.mark.parametrize("command,small", [
        pytest.param("dataset", "n_samples=1 n_vof_groups=1 resolution=[32,32]", id="dataset"),
        pytest.param("multiscale", "nx=1 ny=1 micro.resolution=[32,32]", id="multiscale"),
    ])
    def test_zero_workers_exits_1_before_echo(self, tmp_path, command, small, zero):
        out = tmp_path / "o"
        argv = [command, "--out", str(out), *zero]
        for item in small.split():
            argv += ["--set", item]
        assert dispatch(argv) == 1
        assert not (out / "config_echo.json").exists()

    def test_empty_spinodal_resolution_exits_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["gen-rve", "--out", str(out),
                "--set", 'rve={"spinodal":{"steps":1},"resolution":[0,64]}']
        assert dispatch(argv) == 1
        assert "resolution must be >= 1 per axis" in capsys.readouterr().err

    def test_non_positive_modulus_draw_names_its_element(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert dispatch(["multiscale", "--out", str(out), "--set", "grf_matrix.std=10"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "grf_matrix draws modulus -" in err[0] and "at element" in err[0]
        assert not out.exists()

    def test_default_workers_are_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        no_flag = argparse.Namespace(workers=None)
        assert _workers(no_flag, {}) == 2
        assert _workers(no_flag, {"workers": 5}) == 5
        assert _workers(argparse.Namespace(workers=7), {"workers": 5}) == 7
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _workers(no_flag, {}) == 64

    @pytest.mark.parametrize("command", ["gen-rve", "solve", "homogenize"])
    def test_workers_only_on_pooled_commands(self, command):
        with pytest.raises(SystemExit) as exc:
            dispatch([command, "--workers", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("stored", [True, False], ids=["values-0.5", "missing-file"])
    def test_grid_file_outside_0_1_exits_1(self, tmp_path, capsys, stored):
        grid = tmp_path / "grid.f64.bin"
        if stored:
            write_array(grid, np.full((8, 8), 0.5))
        assert dispatch([
            "gen-rve", "--set", f"rve.file={grid}", "--out", str(tmp_path / "o")
        ]) == 1
        assert str(grid) in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(8,), (8, 8, 2)], ids=["1-D", "3-D"])
    @pytest.mark.parametrize("command", ["gen-rve", "solve", "homogenize"])
    def test_grid_file_not_2d_exits_1_without_output(self, tmp_path, capsys, command, shape):
        grid = tmp_path / "grid.u8.bin"
        write_array(grid, np.zeros(shape, dtype=np.uint8))
        out = tmp_path / "o"
        argv = [command, "--out", str(out), "--set", f"rve.file={grid}"]
        if command != "gen-rve":
            for item in PROPS.split():
                argv += ["--set", item]
        assert dispatch(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(grid) in err[0] and "2-D" in err[0]

    @pytest.mark.parametrize("cell", [
        "rve.file=missing.bin", "rve.uniform=1 rve.resolution=[64]", "rve.uniform=1 domain=[50.0]",
        "rve.uniform=2 rve.resolution=[8,8]",
    ])
    @pytest.mark.parametrize("command", ["gen-rve", "solve", "homogenize"])
    def test_bad_cell_exits_1_without_output(self, tmp_path, capsys, command, cell):
        out = tmp_path / "o"
        argv = [command, "--out", str(out)]
        for item in (cell if command == "gen-rve" else f"{cell} {PROPS}").split():
            argv += ["--set", item]
        assert dispatch(argv) == 1
        assert not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("value", [
        "rve.fiber.r_mean=0", "rve.fiber.r_mean=-1", "rve.fiber.r_mean=NaN",
        "rve.fiber.r_std_frac=-1", "rve.fiber.seed=-1", "domain=[NaN,50]", "domain=[0,50]",
    ])
    def test_bad_fiber_value_exits_1_without_output(self, tmp_path, capsys, value):
        out = tmp_path / "o"
        argv = ["gen-rve", "--out", str(out), "--set", "rve.fiber.vof=0.5", "--set", value]
        assert dispatch(argv) == 1
        assert not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("macro", ["[1,0]", "[1,0,0,0]", "[NaN,0,0]", "[1,Infinity,0]"])
    def test_bad_macro_strain_exits_1_without_output(self, tmp_path, capsys, macro):
        out = tmp_path / "o"
        argv = ["solve", "--out", str(out)]
        for item in (
            f"rve.uniform=1 rve.resolution=[8,8] macro_strain={macro} fiber_props.E=10.0 "
            "fiber_props.nu=0.3 matrix_props.E=2.0 matrix_props.nu=0.3"
        ).split():
            argv += ["--set", item]
        assert dispatch(argv) == 1
        assert not out.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("command, key", [
        ("solve", "solver.tol"), ("dataset", "solver.tol"), ("multiscale", "micro.solver.tol"),
    ])
    @pytest.mark.parametrize("tol", ["Infinity", "NaN"])
    def test_non_finite_tol_exits_1_before_echo(self, tmp_path, capsys, command, key, tol):
        out = tmp_path / "o"
        argv = [command, "--out", str(out), "--set", f"{key}={tol}"]
        if command == "solve":
            for item in ("rve.uniform=1 rve.resolution=[8,8] fiber_props.E=10.0 "
                         "fiber_props.nu=0.3 matrix_props.E=2.0 matrix_props.nu=0.3").split():
                argv += ["--set", item]
        assert dispatch(argv) == 1
        assert not (out / "config_echo.json").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "tol must be finite and positive" in err[0]

    def test_domain_error_exits_1(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"rve": {"fiber": {"vof": 0.9}, "resolution": [64, 64]}},
        )
        assert dispatch(["gen-rve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestHomogenize:
    def test_homogeneous_config_recovers_phase(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "rve": {"uniform": 1, "resolution": [32, 32]},
                "fiber_props": {"E": 28.0, "nu": 0.33},
                "matrix_props": {"E": 3.63, "nu": 0.34},
                "solver": {"tol": 1e-8},
            },
        )
        out = tmp_path / "out"
        assert dispatch(["homogenize", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["E_eff"] - 28.0) <= 1e-10 * 28.0
        assert abs(summary["nu_eff"] - 0.33) <= 1e-10

    def test_set_override(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "rve": {"uniform": 0, "resolution": [32, 32]},
                "fiber_props": {"E": 28.0, "nu": 0.33},
                "matrix_props": {"E": 3.63, "nu": 0.34},
            },
        )
        out = tmp_path / "out"
        assert dispatch([
            "homogenize", "--config", cfg, "--out", str(out),
            "--set", "matrix_props.E=5.0",
        ]) == 0
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["matrix_props"]["E"] == 5.0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["E_eff"] - 5.0) <= 1e-9


class TestDatasetAndValidate:
    def test_dataset_then_validate(self, tmp_path):
        cfg = write_config(
            tmp_path / "d.json",
            {
                "n_samples": 2,
                "n_vof_groups": 2,
                "resolution": [64, 64],
                "master_seed": 5,
                "solver": {"tol": 1e-6},
            },
        )
        out = tmp_path / "ds"
        assert dispatch(["dataset", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["samples"]) == 2
        assert dispatch(["validate", "--dataset", str(out)]) == 0

        # corrupt one concentration file: validation must fail nonzero
        target = out / "samples" / "000000" / "a_field.f64.bin"
        a = read_array(target)
        a[..., 0, 0] += 1.0
        write_array(target, a)
        assert dispatch(["validate", "--dataset", str(out)]) == 1

    def test_failed_samples_exit_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        # a packing that fails in the pool fails each sample on its own
        def no_packing(*args, **kwargs):
            raise PackingError("could not pack")

        monkeypatch.setattr(dataset_mod, "generate_fiber_rve", no_packing)
        out = tmp_path / "ds"
        argv = ["dataset", "--out", str(out)]
        for item in "n_samples=2 n_vof_groups=2 resolution=[32,32]".split():
            argv += ["--set", item]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "2 of 2 samples failed" in err[0]
        assert str(out / "manifest.json") in err[0]
        assert len(json.loads((out / "manifest.json").read_text())["failures"]) == 2

    def test_dead_worker_process_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        # the helper process exits abruptly, as when it is killed for memory,
        # while the caller is still on its first sample: it solves no other
        real = dataset_mod._generate_one

        def dies_on_sample_1(cfg, index, *args):
            if index == 0:
                time.sleep(1.0)
            if index == 1:
                os._exit(3)
            return real(cfg, index, *args)

        monkeypatch.setattr(dataset_mod, "_generate_one", dies_on_sample_1)
        out = tmp_path / "ds"
        argv = ["dataset", "--out", str(out), "--workers", "2"]
        for item in "n_samples=8 n_vof_groups=2 resolution=[32,32]".split():
            argv += ["--set", item]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(out) in err[0]
        assert "worker process died holding samples 1, 3, 5, 7" in err[0]
        assert multiprocessing.active_children() == []
        assert not (out / "manifest.json").exists()
        assert [p.name for p in (out / "samples").iterdir()] == ["000000"]

    @pytest.mark.parametrize(
        "manifest", ["[]", '{"samples": [{"dir": "samples/000000"}]}'],
        ids=["array", "entry-without-files"],
    )
    def test_malformed_manifest_exits_1(self, tmp_path, capsys, manifest):
        (tmp_path / "manifest.json").write_text(manifest)
        assert dispatch(["validate", "--dataset", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "manifest.json" in err and "Traceback" not in err

    def test_echoed_config_reproduces_bitwise(self, tmp_path):
        base = {
            "n_samples": 2,
            "n_vof_groups": 2,
            "resolution": [48, 48],
            "master_seed": 17,
        }
        cfg = write_config(tmp_path / "d.json", base)
        out1 = tmp_path / "run1"
        assert dispatch(["dataset", "--config", cfg, "--out", str(out1)]) == 0
        echo = json.loads((out1 / "config_echo.json").read_text())
        echo["output_dir"] = str(tmp_path / "run2")
        cfg2 = write_config(tmp_path / "echo.json", echo)
        assert dispatch(["dataset", "--config", cfg2]) == 0
        for i in range(2):
            for name in ("rve.u8.bin", "a_field.f64.bin"):
                a = (out1 / "samples" / f"{i:06d}" / name).read_bytes()
                b = (tmp_path / "run2" / "samples" / f"{i:06d}" / name).read_bytes()
                assert a == b


class TestConfigEcho:
    def test_gen_rve_echo_has_defaults_and_reruns_bitwise(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"rve": {"fiber": {"vof": 0.45, "seed": 3}, "resolution": [64, 64]}},
        )
        out1 = tmp_path / "a"
        assert dispatch(["gen-rve", "--config", cfg, "--out", str(out1)]) == 0
        echo = json.loads((out1 / "config_echo.json").read_text())
        assert echo["rve"]["fiber"]["r_mean"] == 3.5  # default filled in
        assert echo["domain"] == [50.0, 50.0]

        cfg2 = write_config(tmp_path / "echo.json", echo)
        out2 = tmp_path / "b"
        assert dispatch(["gen-rve", "--config", cfg2, "--out", str(out2)]) == 0
        assert (out1 / "rve.u8.bin").read_bytes() == (out2 / "rve.u8.bin").read_bytes()


class TestExportImage:
    def test_microstructure_two_levels(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"rve": {"fiber": {"vof": 0.5, "seed": 1}, "resolution": [64, 64]}},
        )
        out = tmp_path / "o"
        assert dispatch(["gen-rve", "--config", cfg, "--out", str(out)]) == 0
        pgm = tmp_path / "rve.pgm"
        assert dispatch([
            "export-image", "--field", str(out / "rve.u8.bin"), "--out", str(pgm)
        ]) == 0
        raw = pgm.read_bytes()
        assert raw.startswith(b"P5\n64 64\n255\n")
        assert set(raw.split(b"\n255\n", 1)[1]) == {0, 255}

    def test_component_selection_shape(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((16, 16, 3, 3))
        src = tmp_path / "a.bin"
        write_array(src, arr)
        pgm = tmp_path / "a.pgm"
        assert dispatch([
            "export-image", "--field", str(src), "--component", "0,0", "--out", str(pgm)
        ]) == 0
        assert pgm.read_bytes().startswith(b"P5\n16 16\n255\n")

    @pytest.mark.parametrize("component,code", [(None, 1), ("5", 1), ("a", 2)])
    def test_missing_component_is_domain_error(self, tmp_path, capsys, component, code):
        arr = np.zeros((8, 8, 3))
        src = tmp_path / "a.bin"
        write_array(src, arr)
        argv = ["export-image", "--field", str(src), "--out", str(tmp_path / "x.pgm")]
        if component is not None:
            argv += ["--component", component]
        assert dispatch(argv) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        if component == "5":
            assert "component 5" in err and "(8, 8, 3)" in err

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_exits_1_without_output(self, tmp_path, capsys, bad):
        arr = np.arange(64.0).reshape(8, 8)
        arr[3, 5] = bad
        src = tmp_path / "a.bin"
        write_array(src, arr)
        pgm = tmp_path / "a.pgm"
        assert dispatch(["export-image", "--field", str(src), "--out", str(pgm)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "finite" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]

    def test_constant_field_warns_in_one_line(self, tmp_path, capsys):
        write_array(tmp_path / "ones.f64.bin", np.ones((4, 4)))
        argv = ["export-image", "--field", str(tmp_path / "ones.f64.bin"),
                "--out", str(tmp_path / "ones.pgm")]
        assert dispatch(argv) == 0
        assert capsys.readouterr().err == "warning: constant field: writing an all-zero image\n"

    def test_constant_field_to_an_unwritable_output_only_errs(self, tmp_path, capsys):
        # the warning is for an image that was written: none is, so none is given
        write_array(tmp_path / "ones.f64.bin", np.ones((4, 4)))
        out = tmp_path / "missing" / "ones.pgm"
        argv = ["export-image", "--field", str(tmp_path / "ones.f64.bin"), "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]


@pytest.mark.parametrize("command", ["export-image", "dataset"])
def test_unwritable_output_exits_1_with_one_line(tmp_path, capsys, command):
    (tmp_path / "file").write_text("")
    if command == "export-image":
        write_array(tmp_path / "f.f64.bin", np.arange(12.0).reshape(3, 4))
        out = tmp_path / "missing" / "f.pgm"
        argv = ["export-image", "--field", str(tmp_path / "f.f64.bin"), "--out", str(out)]
    else:
        out = tmp_path / "file" / "ds"
        argv = ["dataset", "--out", str(out), "--set", "n_samples=1", "--set", "n_vof_groups=1",
                "--set", "resolution=[32,32]"]
    before = sorted(tmp_path.iterdir())
    assert dispatch(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
    assert sorted(tmp_path.iterdir()) == before


class TestGenRveSpinodal:
    def test_writes_grid(self, tmp_path):
        cfg = write_config(
            tmp_path / "s.json",
            {"rve": {"spinodal": {"steps": 40, "seed": 2}, "resolution": [64, 64]}},
        )
        out = tmp_path / "sp"
        assert dispatch(["gen-rve", "--config", cfg, "--out", str(out)]) == 0
        grid = read_array(out / "rve.u8.bin")
        assert grid.shape == (64, 64)
        assert set(np.unique(grid)) <= {0, 1}
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 < summary["achieved_vof"] < 1.0
        # the phase field conserves its mean: 0.5 plus zero-mean noise
        assert abs(summary["metadata"]["mean_concentration"] - 0.5) <= 0.05


class TestSolveCommand:
    def test_solve_writes_fields(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "rve": {"uniform": 0, "resolution": [32, 32]},
                "fiber_props": {"E": 10.0, "nu": 0.3},
                "matrix_props": {"E": 2.0, "nu": 0.3},
                "macro_strain": [1.0, 0.0, 0.0],
            },
        )
        out = tmp_path / "out"
        assert dispatch(["solve", "--config", cfg, "--out", str(out)]) == 0
        strain = read_array(out / "strain.f64.bin")
        assert strain.shape == (32, 32, 3)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iterations"] == 1

    @pytest.mark.parametrize("resolution", [64, 128], ids=["stack", "lanes"])
    def test_each_unit_load_is_its_homogenize_column_bitwise(self, tmp_path, resolution):
        # solve and homogenize build the same Green operator for a cell, so
        # a unit load's strain is the column of A that the lockstep stack
        # (64^2) or the load's own lane (128^2) solved
        cell = {
            "rve": {"fiber": {"vof": 0.5, "seed": 3}, "resolution": [resolution] * 2},
            "fiber_props": {"E": 85.0, "nu": 0.2},
            "matrix_props": {"E": 2.5, "nu": 0.35},
        }
        cfg = write_config(tmp_path / "c.json", cell)
        assert dispatch(["homogenize", "--config", cfg, "--out", str(tmp_path / "h")]) == 0
        a = read_array(tmp_path / "h" / "a_field.f64.bin")
        lame0 = json.loads((tmp_path / "h" / "summary.json").read_text())["lame0"]
        assert lame0[0] > 0 and lame0[1] > 0
        for j in range(3):
            out = tmp_path / f"s{j}"
            macro = json.dumps(np.eye(3)[j].tolist())
            argv = ["solve", "--config", cfg, "--out", str(out), "--set", f"macro_strain={macro}"]
            assert dispatch(argv) == 0
            strain = read_array(out / "strain.f64.bin")
            assert strain.tobytes() == np.ascontiguousarray(a[..., :, j]).tobytes()
            assert json.loads((out / "summary.json").read_text())["lame0"] == lame0

    def test_missed_tol_is_one_error_line_without_a_load(self, tmp_path, capsys):
        # the one-row stack's failure reads as the solver's message alone
        argv = ["solve", "--out", str(tmp_path / "s")]
        for item in ('rve={"fiber":{},"resolution":[32,32]} solver.max_iter=2 fiber_props.E=85 '
                     "fiber_props.nu=0.2 matrix_props.E=2.5 matrix_props.nu=0.35").split():
            argv += ["--set", item]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no convergence after 2 iterations (")

    @pytest.mark.filterwarnings("always:homogenized stiffness asymmetry:UserWarning")
    def test_asymmetry_warning_is_one_line(self, tmp_path, capsys):
        argv = ["homogenize", "--out", str(tmp_path / "h")]
        for item in ('rve={"fiber":{},"resolution":[32,32]} solver.tol=0.05 fiber_props.E=85 '
                     "fiber_props.nu=0.2 matrix_props.E=2.5 matrix_props.nu=0.35").split():
            argv += ["--set", item]
        assert dispatch(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: homogenized stiffness asymmetry ")


SMALL_PLATE = {
    "nx": 2, "ny": 3, "s_total": 0.005, "load_steps": 2,
    "micro": {"resolution": [32, 32], "solver": {"tol": 1e-7}},
}


class TestMultiscaleCommand:
    def test_saved_micro_cells_reload_bitwise(self, tmp_path):
        cfg = write_config(tmp_path / "m.json", SMALL_PLATE)
        solved, loaded = tmp_path / "solved", tmp_path / "loaded"
        assert dispatch([
            "multiscale", "--config", cfg, "--set", "save_micro=true", "--out", str(solved)
        ]) == 0
        assert dispatch([
            "multiscale", "--config", cfg, "--set", f"a_field_dir={solved / 'micro'}",
            "--out", str(loaded),
        ]) == 0
        outputs = sorted(p.relative_to(solved) for p in solved.glob("step_*/*.bin"))
        assert len(outputs) == 2 * 3
        for rel in [*outputs, "summary.json"]:
            assert (solved / rel).read_bytes() == (loaded / rel).read_bytes()

    def test_valid_micro_cell_runs(self, tmp_path):
        write_uniform_cell(tmp_path / "micro" / "000000")
        assert run_one_cell_plate(tmp_path) == 0

    @pytest.mark.parametrize("missing", ["a_field.f64.bin", "sample.json"])
    def test_incomplete_micro_cell_exits_1(self, tmp_path, capsys, missing):
        cell = tmp_path / "micro" / "000000"
        write_uniform_cell(cell)
        (cell / missing).unlink()
        assert run_one_cell_plate(tmp_path) == 1
        assert str(cell) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "info",
        [
            {"seed": 1},
            {"properties": {"E_f": 10.0, "nu_f": 0.3, "E_m": 2.0}},
            {"properties": {"E_f": 10.0, "nu_f": 0.3, "E_m": 2.0, "nu_m": "0.3"}},
        ],
    )
    def test_micro_cell_without_properties_exits_1(self, tmp_path, capsys, info):
        cell = tmp_path / "micro" / "000000"
        write_uniform_cell(cell)
        (cell / "sample.json").write_text(json.dumps(info))
        assert run_one_cell_plate(tmp_path) == 1
        err = capsys.readouterr().err
        assert str(cell) in err and "nu_m" in err

    @pytest.mark.parametrize("defect", ["non-object sample.json", "grid value 2"])
    def test_malformed_micro_cell_exits_1(self, tmp_path, capsys, defect):
        cell = tmp_path / "micro" / "000000"
        write_uniform_cell(cell)
        if defect == "non-object sample.json":
            (cell / "sample.json").write_text("[]")
        else:
            grid = read_array(cell / "rve.u8.bin")
            grid[0, 0] = 2
            write_array(cell / "rve.u8.bin", grid)
        assert run_one_cell_plate(tmp_path) == 1
        assert str(cell) in capsys.readouterr().err

    def test_missing_a_field_dir_exits_1(self, tmp_path):
        (tmp_path / "empty").mkdir()  # no element dirs for the 120-element default plate
        for micro in ("nowhere", "empty"):
            out = tmp_path / f"o_{micro}"
            assert dispatch([
                "multiscale", "--set", f"a_field_dir={tmp_path / micro}", "--out", str(out),
            ]) == 1
            assert not (out / "config_echo.json").exists()

    def test_small_run(self, tmp_path):
        cfg = write_config(tmp_path / "m.json", SMALL_PLATE)
        out = tmp_path / "ms"
        assert dispatch(["multiscale", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["reaction_table"]) == 2
        disp = read_array(out / "step_02" / "displacement.f64.bin")
        assert disp.shape == (2 * 3 * 4,)


TINY_RUNS = {
    "gen-rve": "rve.uniform=1 rve.resolution=[8,8]",
    "solve": f"rve.uniform=1 rve.resolution=[8,8] {PROPS}",
    "homogenize": f"rve.uniform=1 rve.resolution=[8,8] {PROPS}",
    "dataset": "n_samples=1 n_vof_groups=1 resolution=[32,32] workers=1",
    "multiscale": "nx=1 ny=1 load_steps=1 workers=1 micro.resolution=[32,32]",
}


@pytest.mark.parametrize("verbose", [True, False], ids=["verbose", "quiet"])
@pytest.mark.parametrize("command", [*TINY_RUNS, "validate", "export-image"])
def test_verbose_prints_one_stderr_line(tmp_path, capsys, command, verbose):
    out = tmp_path / "o"
    if command == "validate":
        assert dispatch(["dataset", "--out", str(out), "--set", "n_samples=1",
                         "--set", "n_vof_groups=1", "--set", "resolution=[32,32]"]) == 0
        argv = ["validate", "--dataset", str(out)]
    elif command == "export-image":
        write_array(tmp_path / "f.f64.bin", np.arange(12.0).reshape(3, 4))
        argv = ["export-image", "--field", str(tmp_path / "f.f64.bin"), "--out", str(out)]
    else:
        argv = [command, "--out", str(out)]
        for item in TINY_RUNS[command].split():
            argv += ["--set", item]
    capsys.readouterr()
    assert dispatch(argv + ["--verbose"] * verbose) == 0
    assert len(capsys.readouterr().err.splitlines()) == verbose
