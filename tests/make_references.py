"""Reference outputs of small end-to-end runs, checked by test_references.py.

    PYTHONPATH=src python tests/make_references.py

rewrites tests/references/ from the current code:

- the concentration fields A of two contrast-34 fiber cells (32^2, and 48x40
  on a 50x50 domain, so non-square pixels) at tol 1e-9, with their per-load
  iterations and final Tol;
- a two-sample 32^2 dataset: its A files, its manifest (without the output
  directory) and its config_hash;
- a 2x2-element two-scale plate: summary.json and the final step's fields.

Arrays go to references.npz, everything else to references.json.  A change
that moves any of these outputs on purpose reruns this script and records in
CHANGES.md what moved, by how much and why.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from microhom import dataset, homogenization, microstructure, plate
from microhom.arrayio import read_array
from microhom.solver import SolverConfig
from microhom.voigt import IsotropicProps

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references"
DOMAIN = (50.0, 50.0)
CELLS = {"cell32": (32, 32), "cell48x40": (48, 40)}
CELL_TOL = 1e-9
FIBER, MATRIX = IsotropicProps(85.0, 0.2), IsotropicProps(2.5, 0.35)  # contrast 34
DATASET = dataset.DatasetConfig(
    n_samples=2, resolution=(32, 32), n_vof_groups=2, master_seed=5,
    solver=SolverConfig(tol=1e-6),
)
PLATE = {
    "nx": 2, "ny": 2, "load_steps": 3, "seed": 4,
    "micro": {"resolution": [32, 32], "solver": {"tol": 1e-9}},
}
PLATE_FIELDS = ("displacement", "strain_m", "stress_m")


def cell_outputs() -> tuple[dict, dict]:
    """(arrays, records) of the two concentration solves."""
    arrays, records = {}, {}
    for seed, (name, resolution) in enumerate(CELLS.items(), start=1):
        rve = microstructure.generate_fiber_rve(0.5, 3.5, 0.01, DOMAIN, resolution, seed)
        c_field = microstructure.assign_properties(rve, FIBER, MATRIX)
        conc = homogenization.strain_concentration(c_field, SolverConfig(tol=CELL_TOL), DOMAIN)
        arrays[name] = conc.a
        records[name] = {
            "iterations": [load["iterations"] for load in conc.metadata["loads"]],
            "residuals": [load["residual"] for load in conc.metadata["loads"]],
        }
    return arrays, records


def dataset_outputs(workdir: Path) -> tuple[dict, dict]:
    """(arrays, record) of the two-sample dataset written under workdir."""
    root = workdir / "dataset"
    manifest = dataset.generate_dataset(dataclasses.replace(DATASET, output_dir=str(root)))
    del manifest["config"]["output_dir"]
    arrays = {
        f"dataset/{s['dir']}": read_array(root / s["dir"] / "a_field.f64.bin")
        for s in manifest["samples"]
    }
    return arrays, manifest


def plate_outputs(workdir: Path) -> tuple[dict, dict]:
    """(arrays, summary) of the two-scale run written under workdir."""
    out = workdir / "plate"
    summary = plate.run_multiscale(PLATE, out)
    last = out / f"step_{PLATE['load_steps']:02d}"
    arrays = {f"plate/{name}": read_array(last / f"{name}.f64.bin") for name in PLATE_FIELDS}
    return arrays, summary


def all_outputs(workdir: Path) -> tuple[dict, dict]:
    """Every reference array by name, and the JSON record of the rest."""
    arrays, cells = cell_outputs()
    more, manifest = dataset_outputs(workdir)
    arrays.update(more)
    more, summary = plate_outputs(workdir)
    arrays.update(more)
    return arrays, {"cells": cells, "dataset": manifest, "plate": summary}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        arrays, record = all_outputs(Path(tmp))
    REFERENCES.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCES / "references.npz", **arrays)
    (REFERENCES / "references.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    size = sum(p.stat().st_size for p in REFERENCES.iterdir())
    print(f"wrote {len(arrays)} arrays to {REFERENCES} ({size / 1024:.0f} KB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
