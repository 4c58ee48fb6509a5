"""Run one `shocklayer` CLI command with the benchmark's tracer installed.

Usage: python perfbench/cli_child.py SPANS_JSON <cli arguments...>

The traced cli_cold run starts this script in place of
`python -m shocklayer.cli`. It exits with the CLI's exit code and writes
the span table and counters of the process to SPANS_JSON.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, installed  # noqa: E402

import shocklayer.cli as cli  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with installed(tracer, cli_module=cli):
        code = tracer.call("cli.main", cli.main, argv)
    tracer.count("trace.top_level_s", tracer.top_level_seconds())
    Path(spans_path).write_text(json.dumps({"table": tracer.table(), "counters": dict(tracer.counters)}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
