"""Entry point of one benchmark child process: one ``diskhall`` CLI run.

usage: python3 child.py SRC STAMP [--trace OUT] -- CLI-ARGS...

Imports ``diskhall.cli`` from the source tree ``SRC`` (refusing any other
copy of the package), writes the monotonic time at which the import
finished to ``STAMP``, then runs the CLI with ``CLI-ARGS`` and exits with its
code.  With ``--trace`` the per-module hooks are installed first and their
summary is written to ``OUT`` (spans to ``OUT`` with suffix ``.spans``).
"""

import json
import os
import sys
import time


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    src, stamp = opts[0], opts[1]
    trace_out = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    sys.path.insert(0, src)
    import diskhall
    import diskhall.cli
    imported = time.monotonic()
    expected = os.path.realpath(os.path.join(src, "diskhall", "__init__.py"))
    if os.path.realpath(diskhall.__file__) != expected:
        print(f"perfbench: imported {diskhall.__file__}, expected {expected}",
              file=sys.stderr)
        return 3
    with open(stamp, "w") as fh:
        fh.write(repr(imported))

    if trace_out is None:
        return diskhall.cli.main(cli_args)

    from hooks import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return diskhall.cli.main(cli_args)
    finally:
        tracer.write_spans(trace_out + ".spans")
        with open(trace_out, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
