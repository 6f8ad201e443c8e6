import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from szego_lab import checks
from szego_lab.cli import main
from szego_lab.spectral_core import SpectralGrid


def test_validate_writes_one_consistent_entry_per_row(tmp_path):
    assert main(["validate", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "validate.json").read_text())
    assert set(result) == {row[0] for row in checks.VALIDATE_ROWS}
    for name, _, compare, bound in checks.VALIDATE_ROWS:
        entry = result[name]
        assert entry["bound"] == bound, name
        assert entry["passed"] is compare(entry["measured"], bound), name


def test_validate_fails_on_the_bound_it_records(tmp_path, monkeypatch):
    # a mass drift above 1e-8 fails its own row, whatever H_b does
    rows = [r for r in checks.VALIDATE_ROWS
            if r[0] in ("mass_drift", "hamiltonian_drift")]
    monkeypatch.setattr(checks, "VALIDATE_ROWS", rows)
    monkeypatch.setattr(checks.Suite, "transit",
                        (SimpleNamespace(mass_drift=5e-8, hamiltonian_drift=1e-9),
                         None))
    assert main(["validate", "--out", str(tmp_path)]) == 1
    assert json.loads((tmp_path / "validate.json").read_text()) == {
        "mass_drift": {"passed": False, "measured": 5e-8, "bound": 1e-8},
        "hamiltonian_drift": {"passed": True, "measured": 1e-9, "bound": 1e-7},
    }


def test_coercivity_scan_prints_shared_quotients(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "coercivity_scan.py"
    spec = importlib.util.spec_from_file_location("coercivity_scan", path)
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    assert scan.main(["3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    q = checks.coercivity_quotients(SpectralGrid(8192, 256.0),
                                    np.random.default_rng(1), 3)
    assert lines == ["samples          3",
                     f"min ratio        {q.min():.6f}",
                     f"median ratio     {np.median(q):.6f}",
                     f"below 0.25       {int(np.sum(q < 0.25))}"]
