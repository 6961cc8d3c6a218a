"""Batch production of labeled concentration-tensor datasets.

One directory per sample under <output_dir>/samples plus a top-level
manifest, so runs can be regenerated partially and written concurrently.
Per-sample seeds derive from (master_seed, index) alone: removing or
reordering samples never changes the others, nor does the number of worker
processes that write them (`fork`ed helpers plus the calling process).

A sample is its grid, its four phase moduli, its solver tol and its
concentration field A.  The stiffness field is not stored: it is a fixed
function of the grid and the four moduli.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .arrayio import read_array, write_array
from .config import Checked, kind, resolve
from .errors import ConfigError, DomainError
from .green import make_freq_grid
from .homogenization import ConcentrationField, strain_concentration
from .microstructure import (
    VOF_MAX,
    assign_properties,
    check_fiber_fits,
    check_vof_order,
    checked_grid,
    generate_fiber_rve,
)
from .solver import SolverConfig, convergence_metric
from .voigt import IsotropicProps

MANIFEST_NAME = "manifest.json"
CONFIG_ECHO_NAME = "config_echo.json"
# Slack on a Tol recomputed from stored fields; ulp-level stress changes move it ~1e-19.
EQUILIBRIUM_ROUNDOFF = 1e-15
# Slack on |mean(A) - I|: the solver keeps the mean strain to round-off.
MEAN_IDENTITY_ATOL = 1e-8
# The (lo, hi) property bounds, in (E_f, nu_f, E_m, nu_m) order.
_BOUNDS = ("fiber_E_bounds", "fiber_nu_bounds", "matrix_E_bounds", "matrix_nu_bounds")
NU_RANGE = "in (-1, 0.5)"  # a Poisson ratio, open at both ends


@dataclass(frozen=True)
class DatasetConfig(Checked):
    n_samples: int = 20
    resolution: tuple = (128, 128)
    domain_size: tuple = (50.0, 50.0)
    vof_range: tuple = (0.40, 0.60)
    n_vof_groups: int = 20
    r_mean: float = 3.5
    r_std_frac: float = 0.01
    fiber_E_bounds: tuple = (5.0, 85.0)
    fiber_nu_bounds: tuple = (0.05, 0.45)
    matrix_E_bounds: tuple = (2.5, 5.0)
    matrix_nu_bounds: tuple = (0.3, 0.4)
    master_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_dir: str = "dataset_out"
    gap_frac: float = 0.1
    workers: int = 1
    RANGES = {
        "n_samples": ">= 1", "resolution": ">= 32 per axis", "domain_size": "positive",
        "vof_range": f"in (0, {VOF_MAX}]", "n_vof_groups": ">= 1", "r_mean": "positive",
        "r_std_frac": ">= 0", "fiber_E_bounds": "positive", "fiber_nu_bounds": NU_RANGE,
        "matrix_E_bounds": "positive", "matrix_nu_bounds": NU_RANGE, "master_seed": ">= 0",
        "solver": SolverConfig.RANGES, "workers": ">= 1"}

    def __post_init__(self):
        super().__post_init__()
        check_vof_order(self.vof_range)
        for name in _BOUNDS:
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise DomainError(f"{name} must satisfy lo < hi, got ({lo}, {hi})")
        if self.n_samples % self.n_vof_groups != 0:
            raise DomainError(
                f"n_samples ({self.n_samples}) must be divisible by "
                f"n_vof_groups ({self.n_vof_groups})"
            )
        check_fiber_fits(self.r_mean, self.gap_frac, self.domain_size)

    def property_bounds(self):
        """The four (lo, hi) pairs in (E_f, nu_f, E_m, nu_m) order."""
        return [getattr(self, name) for name in _BOUNDS]


def config_from_dict(raw: dict) -> DatasetConfig:
    """Build a DatasetConfig from parsed JSON, rejecting unknown keys and bad values."""
    cfg = resolve(config_to_dict(DatasetConfig()), raw, DatasetConfig.RANGES)
    return DatasetConfig(**{**cfg, "solver": SolverConfig(**cfg["solver"])})


def config_to_dict(cfg: DatasetConfig) -> dict:
    out = asdict(cfg)
    for key, value in out.items():
        if isinstance(value, tuple):
            out[key] = list(value)
    return out


def config_hash(cfg: DatasetConfig) -> str:
    """SHA-256 of the fields that determine the samples' bytes: output_dir
    and workers change where and how fast they are written, not what."""
    canon = config_to_dict(cfg)
    del canon["output_dir"], canon["workers"]
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode("utf-8")).hexdigest()


def lhs_sample(n: int, bounds, seed: int) -> np.ndarray:
    """Latin hypercube sample: per dimension, one point per equal-width
    stratum of n strata, jittered uniformly within its stratum."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    for lo, hi in bounds:
        if not lo < hi:
            raise DomainError(f"each bound must satisfy lo < hi, got ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    cols = []
    for lo, hi in bounds:
        strata = rng.permutation(n)
        jitter = rng.uniform(0.0, 1.0, n)
        cols.append(lo + (hi - lo) * (strata + jitter) / n)
    return np.column_stack(cols)


def stratify_vof(n: int, vof_range, groups: int) -> np.ndarray:
    """Blocks of ceil(n / groups) copies of each of `groups` evenly spaced
    volume fractions spanning [lo, hi], cut to n; a single group degenerates
    to lo."""
    lo, hi = float(vof_range[0]), float(vof_range[1])
    if groups < 1:
        raise DomainError(f"groups must be >= 1, got {groups}")
    if groups == 1:
        values = np.array([lo])
    else:
        values = lo + np.arange(groups) * (hi - lo) / (groups - 1)
    return np.repeat(values, -(-n // groups))[:n]


def sample_seed(master_seed: int, index: int) -> int:
    """Stable per-sample seed derived from (master_seed, index) only."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


SAMPLE_PROPERTIES = ("E_f", "nu_f", "E_m", "nu_m")


def write_sample(sdir, rve, fiber, matrix, conc, index, seed, vof_target) -> dict:
    """Write one cell as a sample directory: the grid, the concentration
    field, then sample.json.  Returns the manifest entry without "dir": the
    file map, then the sample.json record."""
    sdir = Path(sdir)
    sdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, arr in (("rve.u8.bin", rve.grid), ("a_field.f64.bin", conc.a)):
        write_array(sdir / name, arr)
        files[name] = list(arr.shape)
    info = {
        "index": index,
        "seed": seed,
        "vof_target": vof_target,
        "achieved_vof": rve.achieved_vof,
        "domain_size": list(rve.domain_size),
        "properties": dict(zip(SAMPLE_PROPERTIES, (fiber.E, fiber.nu, matrix.E, matrix.nu))),
        "tol": conc.metadata["tol"],
        "loads": conc.metadata["loads"],
    }
    (sdir / "sample.json").write_text(json.dumps(info, indent=1), encoding="utf-8")
    files["sample.json"] = None
    return {"files": files, **info}


def read_sample(sdir):
    """Read a sample directory back as (grid, fiber, matrix, conc), with the
    recorded solver tol in conc.metadata, or the default tol for a cell that
    has none, such as a predicted field.  Raises DomainError when a file is
    missing or unreadable, sample.json is not an object or lacks a numeric
    property, the grid is not a 2-D array of 0s and 1s, or the concentration
    field does not match the grid.  An array file's error names that file,
    as read_array gives it; any other names the directory."""
    sdir = Path(sdir)
    grid = checked_grid(read_array(sdir / "rve.u8.bin"), sdir / "rve.u8.bin")
    a_field = read_array(sdir / "a_field.f64.bin")
    try:
        info = json.loads((sdir / "sample.json").read_text(encoding="utf-8"))
        if not isinstance(info, dict):
            raise ValueError("sample.json must hold a JSON object")
        props = info.get("properties")
        props = props if isinstance(props, dict) else {}
        missing = [k for k in SAMPLE_PROPERTIES if kind(props.get(k)) != "a number"]
        if missing:
            raise ValueError(f"sample.json lacks numeric properties {', '.join(missing)}")
        tol = info.get("tol", SolverConfig().tol)
        if kind(tol) != "a number" or not tol > 0:
            raise ValueError(f"sample.json tol must be a positive number, got {tol!r}")
        if a_field.shape != grid.shape + (3, 3):
            raise ValueError(f"a_field shape {a_field.shape} does not match grid {grid.shape}")
        fiber = IsotropicProps(props["E_f"], props["nu_f"])
        matrix = IsotropicProps(props["E_m"], props["nu_m"])
    except (OSError, ValueError) as err:
        raise DomainError(f"{sdir}: {err}") from err
    return grid, fiber, matrix, ConcentrationField(a_field, {"tol": tol})


def _generate_one(cfg: DatasetConfig, index: int, props_row, vof: float, root: Path) -> dict:
    """Produce one sample directory; returns its manifest entry."""
    seed = sample_seed(cfg.master_seed, index)
    fiber = IsotropicProps(float(props_row[0]), float(props_row[1]))
    matrix = IsotropicProps(float(props_row[2]), float(props_row[3]))
    rve = generate_fiber_rve(
        vof_target=float(vof),
        r_mean=cfg.r_mean,
        r_std_frac=cfg.r_std_frac,
        domain=cfg.domain_size,
        resolution=cfg.resolution,
        seed=seed,
        gap_frac=cfg.gap_frac,
    )
    c_field = assign_properties(rve, fiber, matrix)
    conc = strain_concentration(c_field, cfg.solver, domain=cfg.domain_size)
    sdir = f"samples/{index:06d}"
    entry = write_sample(root / sdir, rve, fiber, matrix, conc, index, seed, float(vof))
    return {"dir": sdir, **entry}


def _sample_or_failure(cfg: DatasetConfig, index: int, props_row, vof: float, root: Path):
    """(manifest entry, None) for one sample, or (None, reason) when it fails
    with a DomainError.  Module-level, so a worker process can unpickle it."""
    try:
        return _generate_one(cfg, index, props_row, vof, root), None
    except DomainError as err:
        return None, f"{type(err).__name__}: {err}"


def generate_dataset(cfg: DatasetConfig) -> dict:
    """Run the full pipeline and return the manifest (also written to disk).

    Material rows come from a Latin hypercube over the property bounds, the
    volume-fraction labels from even stratification.  Per-sample failures are
    recorded in the manifest with their reason and the run continues; any
    other exception stops the run and is raised as itself.  A worker process
    that dies (killed, or out of memory) stops the run before the caller's
    next sample, with a DomainError naming the samples it held.

    The run takes cfg.workers processes, the caller among them.  The caller
    solves indices 0, workers, 2*workers, ...; a pool of workers - 1
    processes solves the rest.  They start by `fork`, in about 0.02 s where
    `spawn` takes about 0.5 s to import numpy and scipy again.  A fork is
    safe only while no other thread runs, so the pool starts before the
    caller's share, which may start lane threads; it is shut down before
    this returns or raises.  Results merge in index order, so the bytes do
    not depend on the worker count.
    """
    root = Path(cfg.output_dir)
    root.mkdir(parents=True, exist_ok=True)
    echo = config_to_dict(cfg)
    (root / CONFIG_ECHO_NAME).write_text(json.dumps(echo, indent=1), encoding="utf-8")

    props = lhs_sample(cfg.n_samples, cfg.property_bounds(), seed=cfg.master_seed)
    vofs = stratify_vof(cfg.n_samples, cfg.vof_range, cfg.n_vof_groups)

    helped = [i for i in range(cfg.n_samples) if i % cfg.workers]
    pool = None
    if helped:
        pool = ProcessPoolExecutor(min(cfg.workers - 1, len(helped)),
                                   mp_context=multiprocessing.get_context("fork"))
    results = [None] * cfg.n_samples
    try:
        done = {i: pool.submit(_sample_or_failure, cfg, i, props[i], vofs[i], root)
                for i in helped}
        raised = []  # helper futures that ended in an exception, as they end
        for future in done.values():
            future.add_done_callback(
                lambda f: f.cancelled() or f.exception() is None or raised.append(f))
        for i in range(0, cfg.n_samples, cfg.workers):
            if raised:  # the collection below raises; solve no more
                break
            results[i] = _sample_or_failure(cfg, i, props[i], vofs[i], root)
        lost = []
        for i, future in done.items():
            try:
                results[i] = future.result()
            except BrokenProcessPool:
                lost.append(str(i))
        if lost:
            raise DomainError(f"dataset {root}: a worker process died holding samples "
                              f"{', '.join(lost)}; no manifest was written")
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # an error stops the queued samples

    samples = [entry for entry, _ in results if entry is not None]
    failures = [{"index": i, "reason": reason} for i, (_, reason) in enumerate(results) if reason]
    manifest = {
        "config": echo,
        "config_hash": config_hash(cfg),
        "n_requested": cfg.n_samples,
        "samples": samples,
        "failures": failures,
    }
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def validate_dataset(root) -> list:
    """Re-check a dataset directory against its manifest.

    The manifest config fixes each sample's file map and grid shape, each
    sample directory must be named by one entry only, and every file under
    samples/ must be referenced.  Each file is read once, by read_sample.
    The concentration field must average to the identity and be in
    equilibrium: each unit load's Tol, recomputed on the config's domain
    from A and the stiffness rebuilt from the grid and properties, within
    the recorded tol.  Returns a list of problems, empty if clean.
    """
    root = Path(root)
    try:
        manifest = json.loads((root / MANIFEST_NAME).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        return [f"cannot read manifest: {err}"]
    samples = manifest.get("samples") if isinstance(manifest, dict) else None
    if not isinstance(samples, list) or not isinstance(manifest.get("config"), dict):
        return [f"{root / MANIFEST_NAME}: must hold an object with a 'samples' list and a 'config'"]
    try:
        cfg = config_from_dict(manifest["config"])
    except (ConfigError, DomainError) as err:
        return [f"{root / MANIFEST_NAME}: config: {err}"]

    expected = {"rve.u8.bin": list(cfg.resolution),
                "a_field.f64.bin": [*cfg.resolution, 3, 3], "sample.json": None}
    freqs = make_freq_grid(cfg.resolution, cfg.domain_size)
    problems = []
    referenced = set()
    named = Counter()
    for i, entry in enumerate(samples):
        try:
            sdir, names = root / entry["dir"], entry["files"].keys()
        except (AttributeError, KeyError, TypeError):
            problems.append(f"{root / MANIFEST_NAME}: samples[{i}] needs a 'dir' and a 'files' map")
            continue
        key = sdir.resolve()
        named[key] += 1
        if named[key] == 2:
            problems.append(f"{sdir}: named by more than one manifest entry")
        if named[key] > 1:  # checked at its first entry
            continue
        referenced.update((sdir / name).resolve() for name in names)
        if entry["files"] != expected:
            problems.append(f"{sdir}: manifest files {entry['files']} != config's {expected}")
            continue
        try:
            grid, fiber, matrix, conc = read_sample(sdir)
        except DomainError as err:
            problems.append(str(err))
            continue
        if grid.shape != cfg.resolution:
            problems.append(f"{sdir}: grid shape {grid.shape} != resolution {cfg.resolution}")
            continue
        dev = np.abs(conc.a.mean(axis=(0, 1)) - np.eye(3)).max()
        if dev > MEAN_IDENTITY_ATOL:
            problems.append(f"{sdir}: mean concentration deviates from identity by {dev:.3e}")
            continue
        # Column j of A is the strain of unit load j: sigma_j = C : A e_j.
        c_field = assign_properties(grid, fiber, matrix)
        stress = np.einsum("xyij,xyjk->xyik", c_field, conc.a)
        stress_hat = np.fft.fft2(stress, axes=(0, 1))
        tol = conc.metadata["tol"]
        for j in range(3):
            residual = convergence_metric(stress_hat[..., j], freqs)
            if not residual <= tol + EQUILIBRIUM_ROUNDOFF:
                problems.append(f"{sdir}: unit load {j} has Tol {residual:.3e} > tol {tol:.1e}")

    samples_root = root / "samples"
    if samples_root.exists():
        for path in sorted(samples_root.rglob("*")):
            if path.is_file() and path.resolve() not in referenced:
                problems.append(f"{path}: on disk but not referenced by the manifest")
    return problems
