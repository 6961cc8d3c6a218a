"""Today's outputs against the reference outputs in tests/references/.

Iteration counts, config_hash and every other integer or string must match
exactly; fields and floats within REL_TOL of their reference (max-abs
relative), and the residuals (Tol of a cell load, the plate's Newton residual
norm, both round-off sized next to their scales) within RESIDUAL_ATOL.
Whether the bytes are also equal is printed, not asserted: exact bytes may
differ across machines, the tolerances travel.  Regenerate the references
with tests/make_references.py.
"""

import json

import numpy as np
import pytest

from make_references import REFERENCES, all_outputs

REL_TOL = 1e-12
RESIDUAL_ATOL = 1e-13


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return all_outputs(tmp_path_factory.mktemp("references"))


@pytest.fixture(scope="module")
def references():
    with np.load(REFERENCES / "references.npz") as npz:
        arrays = {name: npz[name] for name in npz.files}
    return arrays, json.loads((REFERENCES / "references.json").read_text(encoding="utf-8"))


def _mismatches(got, want, path=""):
    """Paths at which a JSON record differs beyond the tolerances."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got} != {want}"]
        pairs = enumerate(zip(got, want))
        return [m for i, (g, w) in pairs for m in _mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, (bool, str)) and got is not None:
        if path.endswith((".residual", ".residuals")) or ".residuals[" in path:
            ok = abs(got - want) <= RESIDUAL_ATOL
        else:
            ok = abs(got - want) <= REL_TOL * abs(want)
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and got == want else [f"{path}: {got!r} != {want!r}"]


def test_records_match(outputs, references):
    record, want = outputs[1], references[1]
    assert record["dataset"]["config_hash"] == want["dataset"]["config_hash"]
    for name, cell in want["cells"].items():
        assert record["cells"][name]["iterations"] == cell["iterations"], name
    assert _mismatches(record, want) == []
    equal = json.dumps(record, sort_keys=True) == json.dumps(want, sort_keys=True)
    print(f"references.json: bytes {'equal' if equal else 'differ'}")


def test_fields_match(outputs, references):
    arrays, want = outputs[0], references[0]
    assert sorted(arrays) == sorted(want)
    for name, ref in want.items():
        got = arrays[name]
        assert got.shape == ref.shape and got.dtype == ref.dtype, name
        deviation = np.abs(got - ref).max() / np.abs(ref).max()
        assert deviation <= REL_TOL, f"{name}: max relative deviation {deviation:.2e}"
        print(f"{name}: bytes {'equal' if got.tobytes() == ref.tobytes() else 'differ'}"
              f" (max relative deviation {deviation:.1e})")
