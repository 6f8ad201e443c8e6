"""Empirical coercivity constant of the linearized energy.

Samples random fields, removes their components along the four
generator directions of the soliton family, and reports the observed
minimum of <Lw, w> / ||w||_H12^2.  The theory puts the constant at
1/4; anything below ~0.24 at the default grid indicates a projection
or operator bug.

    python3 scripts/coercivity_scan.py [samples]     (default 200)
"""

import sys

import numpy as np

from szego_lab.checks import coercivity_quotients
from szego_lab.spectral_core import SpectralGrid


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    n_samples = int(argv[0]) if argv else 200
    r = coercivity_quotients(SpectralGrid(8192, 256.0), np.random.default_rng(1),
                             n_samples)
    print(f"samples          {n_samples}")
    print(f"min ratio        {r.min():.6f}")
    print(f"median ratio     {np.median(r):.6f}")
    print(f"below 0.25       {int(np.sum(r < 0.25))}")
    return 0 if r.min() >= 0.24 else 1


if __name__ == "__main__":
    sys.exit(main())
