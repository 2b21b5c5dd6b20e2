"""Traced stand-in for ``dilatation-lab run``: one CLI invocation with spans.

Usage: python cli_child.py SPANS_OUT run CONFIG [cli options...]

Times the interpreter's first statement and the CLI import, installs the
tracer on the CLI's phases (model construction from JSON, the command
handler, CSV rendering) and on every library layer, runs ``cli.main`` on the
remaining arguments, writes the spans to SPANS_OUT and exits with the CLI's
exit code.
"""

import time

FIRST_STATEMENT = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    t0 = time.perf_counter()
    from dilatation_lab import cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer
    from dilatation_lab import models

    tracer = Tracer()
    tracer.op_id = 0
    tracer.install()

    def instrument_outermost(model, span):
        # from_json recurses for a pullback's base; instrument only the
        # model the command receives
        parent = tracer.parent[span]
        if parent < 0 or tracer.names[tracer.kind[parent]] != "cli.from_json":
            tracer.instrument_model(model)

    build = tracer.wrap(models.from_json, "cli.from_json", on_result=instrument_outermost)
    handlers = {id(fn): (fn, tracer.wrap(fn, "cli.run")) for fn in cli._COMMANDS.values()}
    tracer.replace_bindings({id(models.from_json): (models.from_json, build), **handlers})
    tracer.patch(cli.CsvReport, "render", tracer.wrap(cli.CsvReport.render, "cli.render"))
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.counts["cli.first_statement_ns"] = int(FIRST_STATEMENT * 1e9)
        tracer.counts["cli.import_ns"] = int(import_s * 1e9)
        tracer.save(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
