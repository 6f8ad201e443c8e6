"""Run the szego-lab CLI with span tracing installed.

    python3 perfbench/traced_cli.py SPANS.json <szego-lab arguments...>

Imports the package from the checkout's src/, wraps its layer
boundaries (see tracing.install), runs ``szego_lab.cli.main`` with the
remaining arguments and writes the recorded spans to SPANS.json when
the run ends.  The exit code is the CLI's.
"""

import json
import sys

from tracing import Tracer, install


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from szego_lab import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
