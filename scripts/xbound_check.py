"""Stability of the defect bound constant under eps halving.

Along a tracked run, ||X(t)|| should be controlled by
eps ||w||_L2 + ||w||_H12^2 + ||w||_H12^3 with a single constant; the
fitted constant must not move by more than a factor of two when eps
is halved, otherwise the bound shape is wrong.
"""

import json
import sys
from pathlib import Path

from szego_lab.cli import _run_tracked

TRANSIT = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "transit.json").read_text())


def c_fit(eps: float) -> float:
    dt = TRANSIT["dt"]
    t_final = round((eps ** -0.5) / (100 * dt)) * 100 * dt
    cfg = dict(TRANSIT, eps=eps, t_final={"policy": "fixed", "value": t_final})
    return _run_tracked(cfg)[1]["c_fit"]


def main() -> int:
    c1 = c_fit(1e-2)
    c2 = c_fit(5e-3)
    ratio = max(c1, c2) / min(c1, c2)
    print(f"c_fit(1e-2) = {c1:.4f}")
    print(f"c_fit(5e-3) = {c2:.4f}")
    print(f"ratio       = {ratio:.3f}  ({'stable' if ratio <= 2 else 'UNSTABLE'})")
    return 0 if ratio <= 2 else 1


if __name__ == "__main__":
    sys.exit(main())
