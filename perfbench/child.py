"""Run one ``mixdetect`` CLI command in this process and record its timeline.

Usage::

    python3 child.py RESULT_JSON MODE -- CLI_ARGS...

MODE is ``run`` (plain command), ``trace`` (every layer call wrapped in a
span, see tracer.py) or ``setup`` (stop as soon as the config is loaded,
validated and the threshold calibrated).  The package must be importable,
e.g. through PYTHONPATH.  RESULT_JSON receives the exit code and monotonic
timestamps, which the parent compares with the time it started this process.
"""

import json
import sys

from tracer import Tracer, clock, install


class _SetupDone(BaseException):
    """Raised out of ``cli.main`` in setup mode; not caught by its handlers."""


def main() -> int:
    result_path, mode = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: child.py RESULT_JSON run|trace|setup -- CLI_ARGS...")
    cli_args = sys.argv[4:]
    marks = {}

    marks["import_start"] = clock()
    import mixdetect.cli as cli

    marks["import_end"] = clock()

    load_experiment = cli.load_experiment

    def load_and_mark(*args, **kwargs):
        exp = load_experiment(*args, **kwargs)
        marks["setup_done"] = clock()
        if mode == "setup":
            raise _SetupDone
        return exp

    cli.load_experiment = load_and_mark
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.record("cli.import", marks["import_start"], marks["import_end"])
        install(tracer, cli)
    try:
        rc = cli.main(cli_args)
    except _SetupDone:
        rc = 0
    marks["main_end"] = clock()

    record = {"rc": rc, "marks": marks, "package": cli.__file__}
    if tracer is not None:
        self_s, calls, durations = tracer.self_times()
        spans = result_path[: -len(".json")] + "-spans.npz"
        tracer.dump(spans)
        record["trace"] = {
            "spans": spans,
            "self_s": self_s,
            "calls": calls,
            "counts": tracer.counts,
            "chunk_s": [float(d) for d in durations.get("engine.chunk", ())],
        }
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
