"""Run one `cpsm` command with its layers traced.

    python3 perfbench/trace_cli.py SPANS.json -- adapt source.csv target.csv ...

The `cpsm` package must be importable (run.py sets PYTHONPATH to the
checkout's `src`). The command's arguments and outputs are those of
`python3 -m cpsm.cli`; the spans are written to SPANS.json when it ends.
"""
from __future__ import annotations

import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_cli.py SPANS.json -- <cpsm arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]

    import cpsm.cli  # loads every module that holds a traced function, before patching

    tracer = Tracer()
    tracer.install()
    code = cpsm.cli.main(cli_args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
