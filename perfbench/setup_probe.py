"""One cold set-up of a run, timed by the caller as this process's wall time.

    python3 perfbench/setup_probe.py CONFIG.json

Starts Python, imports the package, validates the config, and builds
the grid, the potential and the initial profile: everything a CLI run
does before its first time step.
"""

import json
import sys


def main(config_path: str) -> int:
    from szego_lab import cli

    with open(config_path) as fh:
        cfg = json.load(fh)
    problems = cli.validate_config(cfg, need_sweep="eps_list" in cfg)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    grid = cli.build_grid(cfg)
    cli.build_potential(cfg).on_grid(grid)
    cli.soliton_profile(cli.build_g0(cfg), grid)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
