"""One traced ``bindet`` process for the cli-oneshot workload.

Usage: python3 perfbench/cli_child.py SPANS_FILE OP_ID -- BINDET_ARGS...

Times the import of ``bindet.cli``, installs the layer wrappers, runs
``bindet.cli.main`` on the arguments and exits with its status, so stdout,
stderr and the exit status are those of an untraced ``bindet`` run.  The
spans go to SPANS_FILE as one JSON list of ``[name, start, end, parent,
count]``.
"""

import json
import sys

from spans import Tracer, install


def main() -> int:
    spans_file, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_FILE OP_ID -- BINDET_ARGS...")
    tracer = Tracer()
    tracer.op_id = int(op_id)
    try:
        idx = tracer.open("cli.import")
        import bindet.cli
        tracer.close(idx)
        install(tracer)
        idx = tracer.open("cli.main")
        try:
            return bindet.cli.main(argv)
        finally:
            tracer.close(idx)
    finally:
        with open(spans_file, "w") as fh:
            json.dump([[s[0], s[1], s[2], s[3], s[5]] for s in tracer.spans], fh)


if __name__ == "__main__":
    sys.exit(main())
