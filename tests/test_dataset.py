"""Dataset pipeline: sampling design, stratification, batch generation."""

import json
import multiprocessing
import shutil

import numpy as np
import pytest

from microhom import dataset
from microhom.arrayio import read_array, write_array
from microhom.dataset import (
    DatasetConfig,
    config_from_dict,
    config_hash,
    generate_dataset,
    lhs_sample,
    read_sample,
    sample_seed,
    stratify_vof,
    validate_dataset,
)
from microhom.errors import ConfigError, DomainError, PackingError
from microhom.homogenization import homogenized_stiffness
from microhom.microstructure import assign_properties, generate_fiber_rve
from microhom.solver import SolverConfig
from microhom.voigt import IsotropicProps

BOUNDS = [(5.0, 85.0), (0.05, 0.45), (2.5, 5.0), (0.3, 0.4)]


class TestLhs:
    def test_single_row_in_range(self):
        table = lhs_sample(1, BOUNDS, seed=0)
        assert table.shape == (1, 4)
        for j, (lo, hi) in enumerate(BOUNDS):
            assert lo <= table[0, j] <= hi

    def test_stratum_occupancy(self):
        n = 20
        table = lhs_sample(n, BOUNDS, seed=3)
        for j, (lo, hi) in enumerate(BOUNDS):
            strata = np.floor((table[:, j] - lo) / (hi - lo) * n).astype(int)
            assert sorted(strata) == list(range(n))

    def test_deterministic(self):
        a = lhs_sample(16, BOUNDS, seed=9)
        b = lhs_sample(16, BOUNDS, seed=9)
        assert np.array_equal(a, b)

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(DomainError):
            lhs_sample(4, [(1.0, 1.0)], seed=0)


class TestStratifyVof:
    def test_twenty_groups(self):
        labels = stratify_vof(20, (0.40, 0.60), 20)
        assert len(labels) == 20
        assert np.allclose(np.diff(np.unique(labels)), 0.20 / 19)
        assert labels[0] == 0.40 and labels[-1] == 0.60

    def test_single_group_degenerates(self):
        labels = stratify_vof(6, (0.40, 0.60), 1)
        assert np.all(labels == 0.40)

    def test_replication(self):
        labels = stratify_vof(40, (0.40, 0.60), 20)
        values, counts = np.unique(labels, return_counts=True)
        assert len(values) == 20
        assert np.all(counts == 2)

    def test_uneven_count_ordering(self):
        # blocks of ceil(n / groups) labels, the last block cut short
        assert stratify_vof(7, (0.4, 0.6), 3).tolist() == [0.4] * 3 + [0.5] * 3 + [0.6]
        first = stratify_vof(20, (0.4, 0.6), 20)[:3]
        assert np.array_equal(stratify_vof(3, (0.4, 0.6), 20), first)


class TestSampleSeed:
    def test_stable_and_independent(self):
        assert sample_seed(7, 0) == sample_seed(7, 0)
        seeds = {sample_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert sample_seed(7, 3) != sample_seed(8, 3)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    cfg = DatasetConfig(
        n_samples=2,
        resolution=(64, 64),
        n_vof_groups=2,
        master_seed=11,
        solver=SolverConfig(tol=1e-6),
        output_dir=str(out),
    )
    manifest = generate_dataset(cfg)
    return out, cfg, manifest


class TestGenerateDataset:
    def test_shapes_and_manifest(self, small_dataset):
        out, _, manifest = small_dataset
        assert len(manifest["samples"]) == 2
        assert manifest["failures"] == []
        for entry in manifest["samples"]:
            a = read_array(out / entry["dir"] / "a_field.f64.bin")
            assert a.shape == (64, 64, 3, 3)
            grid = read_array(out / entry["dir"] / "rve.u8.bin")
            assert grid.shape == (64, 64)

    def test_concentration_invariant_on_readback(self, small_dataset):
        out, _, manifest = small_dataset
        for entry in manifest["samples"]:
            a = read_array(out / entry["dir"] / "a_field.f64.bin")
            assert np.abs(a.mean(axis=(0, 1)) - np.eye(3)).max() <= 1e-8

    def test_validate_clean(self, small_dataset):
        out, _, _ = small_dataset
        assert validate_dataset(out) == []

    def test_validate_flags_stray_and_corrupt(self, small_dataset, tmp_path):
        out, cfg, _ = small_dataset
        # regenerate into a scratch copy we may corrupt
        scratch = tmp_path / "copy"
        cfg2 = config_from_dict({**json.loads((out / "config_echo.json").read_text()),
                                 "output_dir": str(scratch)})
        generate_dataset(cfg2)
        (scratch / "samples" / "000000" / "stray.bin").write_bytes(b"x")
        problems = validate_dataset(scratch)
        assert any("not referenced" in p for p in problems)

    @pytest.mark.parametrize("defect", ["non-object sample.json", "grid value 2",
                                        "a_field removed", "files map edited",
                                        "sample listed twice"])
    def test_validate_applies_the_sample_checks(self, small_dataset, tmp_path, defect):
        out, _, _ = small_dataset
        scratch = tmp_path / "copy"
        shutil.copytree(out, scratch)
        sdir = scratch / "samples" / "000001"
        if defect == "non-object sample.json":
            (sdir / "sample.json").write_text("[]")
        elif defect == "grid value 2":
            grid = read_array(sdir / "rve.u8.bin")
            grid[0, 0] = 2
            write_array(sdir / "rve.u8.bin", grid)
        elif defect == "a_field removed":
            (sdir / "a_field.f64.bin").unlink()
        else:
            manifest = json.loads((scratch / "manifest.json").read_text())
            if defect == "files map edited":
                manifest["samples"][1]["files"]["rve.u8.bin"] = [32, 32]
            else:
                manifest["samples"].append(manifest["samples"][1])
            (scratch / "manifest.json").write_text(json.dumps(manifest))
        problems = validate_dataset(scratch)
        assert len(problems) == 1 and str(sdir) in problems[0]

    def test_validate_checks_equilibrium(self, small_dataset, tmp_path):
        # a field off equilibrium by 1e-3 that still averages to I: the mean
        # check alone passes it
        out, _, _ = small_dataset
        scratch = tmp_path / "copy"
        shutil.copytree(out, scratch)
        sdir = scratch / "samples" / "000000"
        a = read_array(sdir / "a_field.f64.bin")
        noise = np.random.default_rng(0).standard_normal(a.shape)
        write_array(sdir / "a_field.f64.bin", a + 1e-3 * (noise - noise.mean(axis=(0, 1))))
        problems = validate_dataset(scratch)
        assert len(problems) == 3
        assert all(str(sdir) in p and "Tol" in p for p in problems)

    @pytest.mark.parametrize("noise", [False, True], ids=["tol edited", "noise and tol edited"])
    def test_validate_holds_each_sample_to_the_config_tol(self, small_dataset, tmp_path, noise):
        # a sample.json whose tol was loosened is reported, and its Tol is
        # still held to the manifest's solver.tol
        out, _, _ = small_dataset
        scratch = tmp_path / "copy"
        shutil.copytree(out, scratch)
        sdir = scratch / "samples" / "000000"
        info = json.loads((sdir / "sample.json").read_text())
        (sdir / "sample.json").write_text(json.dumps({**info, "tol": 1.0}))
        if noise:
            a = read_array(sdir / "a_field.f64.bin")
            shift = np.random.default_rng(0).standard_normal(a.shape)
            write_array(sdir / "a_field.f64.bin", a + 1e-3 * (shift - shift.mean(axis=(0, 1))))
        problems = validate_dataset(scratch)
        assert problems[0] == f"{sdir}: recorded tol 1.0 != solver.tol 1e-06"
        assert len(problems) == (4 if noise else 1)
        assert all(str(sdir) in p and "Tol" in p for p in problems[1:])

    def test_validate_needs_the_manifest_config(self, small_dataset, tmp_path):
        out, _, _ = small_dataset
        scratch = tmp_path / "copy"
        shutil.copytree(out, scratch)
        manifest = json.loads((scratch / "manifest.json").read_text())
        del manifest["config"]
        (scratch / "manifest.json").write_text(json.dumps(manifest))
        problems = validate_dataset(scratch)
        assert len(problems) == 1 and "config" in problems[0]

    @pytest.mark.parametrize("key", ["store_stiffness", "solver.record_history"])
    def test_validate_refuses_a_removed_config_key(self, small_dataset, tmp_path, key):
        # a manifest written while the key existed carries it, as false
        out, _, _ = small_dataset
        scratch = tmp_path / "copy"
        shutil.copytree(out, scratch)
        manifest = json.loads((scratch / "manifest.json").read_text())
        *parents, leaf = key.split(".")
        node = manifest["config"]
        for name in parents:
            node = node[name]
        node[leaf] = False
        (scratch / "manifest.json").write_text(json.dumps(manifest))
        problems = validate_dataset(scratch)
        assert problems == [f"{scratch / 'manifest.json'}: config: unknown config key {key!r}"]

    def test_validate_clean_eight_samples(self, tmp_path):
        cfg = DatasetConfig(
            n_samples=8,
            n_vof_groups=4,
            resolution=(48, 48),
            master_seed=21,
            solver=SolverConfig(tol=1e-6),
            output_dir=str(tmp_path / "eight"),
        )
        assert len(generate_dataset(cfg)["samples"]) == 8
        assert validate_dataset(tmp_path / "eight") == []

    def test_rerun_bitwise_identical(self, small_dataset, tmp_path):
        out, _, _ = small_dataset
        echo = json.loads((out / "config_echo.json").read_text())
        echo["output_dir"] = str(tmp_path / "rerun")
        generate_dataset(config_from_dict(echo))
        for i in range(2):
            for name in ("rve.u8.bin", "a_field.f64.bin"):
                a = (out / "samples" / f"{i:06d}" / name).read_bytes()
                b = (tmp_path / "rerun" / "samples" / f"{i:06d}" / name).read_bytes()
                assert a == b

    def test_whole_floats_are_held_as_ints(self, small_dataset, tmp_path):
        out, cfg, _ = small_dataset
        floats = DatasetConfig(n_samples=2.0, resolution=[64.0, 64], n_vof_groups=2,
                               master_seed=11.0, solver=SolverConfig(tol=1e-6),
                               output_dir=str(tmp_path / "floats"))
        assert type(floats.n_samples) is int and floats.n_samples == 2
        assert floats.resolution == (64, 64) and type(floats.resolution[0]) is int
        assert config_hash(floats) == config_hash(cfg)
        generate_dataset(floats)
        for sample in ("samples/000000", "samples/000001"):
            for name in ("rve.u8.bin", "a_field.f64.bin"):
                a = (out / sample / name).read_bytes()
                assert (tmp_path / "floats" / sample / name).read_bytes() == a

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"n_sample": 4})

    def test_config_hash_identifies_the_samples(self):
        # where and how fast the samples are written does not change them
        base = config_hash(DatasetConfig(master_seed=3))
        for workers in (1, 2):
            for out in ("run_a", "run_b"):
                assert config_hash(
                    DatasetConfig(master_seed=3, workers=workers, output_dir=out)
                ) == base
        assert config_hash(DatasetConfig(master_seed=4)) != base

    def test_divisibility_enforced(self):
        with pytest.raises(DomainError):
            DatasetConfig(n_samples=7, n_vof_groups=2)

    def test_failures_recorded_run_continues(self, tmp_path, monkeypatch):
        # a packing that fails in the pool for sample 0 is recorded, and
        # sample 1 is still written
        cfg = DatasetConfig(
            n_samples=2,
            n_vof_groups=2,
            resolution=(32, 32),
            output_dir=str(tmp_path / "bad"),
        )
        bad_seed = sample_seed(cfg.master_seed, 0)

        def packing(*args, seed, **kwargs):
            if seed == bad_seed:
                raise PackingError("could not pack")
            return generate_fiber_rve(*args, seed=seed, **kwargs)

        monkeypatch.setattr(dataset, "generate_fiber_rve", packing)
        manifest = generate_dataset(cfg)
        assert [s["index"] for s in manifest["samples"]] == [1]
        assert manifest["failures"] == [{"index": 0, "reason": "PackingError: could not pack"}]
        assert sorted(p.name for p in (tmp_path / "bad" / "samples").iterdir()) == ["000001"]

    def test_sample_dirs_feed_the_multiscale_seam(self, small_dataset):
        out, _, manifest = small_dataset
        entry = manifest["samples"][0]
        grid, fiber, matrix, conc = read_sample(out / entry["dir"])
        p = entry["properties"]
        assert (fiber, matrix) == (IsotropicProps(p["E_f"], p["nu_f"]),
                                   IsotropicProps(p["E_m"], p["nu_m"]))
        assert conc.a.shape == grid.shape + (3, 3)
        assert entry["tol"] == 1e-6 and conc.metadata == {"tol": 1e-6}
        # the asymmetry threshold follows the recorded tol: this field's
        # ~1e-6 ||Cbar|| is quiet at tol 1e-6 and warns at 1e-9
        c_field = assign_properties(grid, fiber, matrix)
        homogenized_stiffness(c_field, conc)
        conc.metadata["tol"] = 1e-9
        with pytest.warns(UserWarning, match="homogenized stiffness asymmetry"):
            homogenized_stiffness(c_field, conc)

    def test_workers_match_serial(self, tmp_path):
        # the caller's and the pool's shares merge back in index order
        runs = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            generate_dataset(DatasetConfig(
                n_samples=6, n_vof_groups=2, resolution=(32, 32), master_seed=5,
                workers=workers, output_dir=str(out)))
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["config"]["workers"], manifest["config"]["output_dir"]
            files = {p.relative_to(out): p.read_bytes()
                     for p in sorted((out / "samples").rglob("*")) if p.is_file()}
            runs[workers] = manifest, files
        assert len(runs[1][1]) == 6 * 3
        assert runs[1] == runs[2] == runs[3]

    def test_array_error_names_its_path_once(self, small_dataset, tmp_path):
        out, _, _ = small_dataset
        scratch = tmp_path / "copy"
        shutil.copytree(out, scratch)
        sdir = scratch / "samples" / "000000"
        (sdir / "rve.u8.bin").unlink()
        with pytest.raises(DomainError) as err:
            read_sample(sdir)
        assert str(err.value).startswith(f"{sdir / 'rve.u8.bin'}: cannot read")
        assert str(err.value).count(str(sdir)) == 1


class TestWorkerPool:
    """Failures on a helper process's sample, at workers=2 (odd indices)."""

    def run(self, tmp_path, monkeypatch, error):
        cfg = DatasetConfig(n_samples=4, n_vof_groups=2, resolution=(32, 32),
                            workers=2, output_dir=str(tmp_path / "pool"))
        bad_seed = sample_seed(cfg.master_seed, 1)

        def packing(*args, seed, **kwargs):
            if seed == bad_seed:
                raise error
            return generate_fiber_rve(*args, seed=seed, **kwargs)

        monkeypatch.setattr(dataset, "generate_fiber_rve", packing)
        return generate_dataset(cfg)

    def test_domain_error_is_recorded_and_the_run_continues(self, tmp_path, monkeypatch):
        manifest = self.run(tmp_path, monkeypatch, PackingError("could not pack"))
        assert [s["index"] for s in manifest["samples"]] == [0, 2, 3]
        assert manifest["failures"] == [{"index": 1, "reason": "PackingError: could not pack"}]
        assert multiprocessing.active_children() == []

    def test_other_error_is_raised_as_itself(self, tmp_path, monkeypatch):
        with pytest.raises(RuntimeError, match="^worker fault$") as err:
            self.run(tmp_path, monkeypatch, RuntimeError("worker fault"))
        assert type(err.value) is RuntimeError  # not BrokenProcessPool
        assert multiprocessing.active_children() == []
