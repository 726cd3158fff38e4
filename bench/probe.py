"""Child-process entry points of the benchmark; run.py starts them one at a time.

    probe.py setup WORKLOAD SEED DIR    write the inputs, import, warm up
    probe.py cli TRACE_FILE ARGV...     run one CLI command traced, spans to TRACE_FILE

Each mode runs in a fresh interpreter: set-up is timed from process start,
and the traced CLI command pays its own import like `python -m ifhv.cli`
does.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def setup(name: str, seed: int, directory: Path) -> int:
    from workloads import WORKLOADS, invoke, register_plugin, write_inputs

    workload = WORKLOADS[name]
    write_inputs(workload, seed, directory)
    import ifhv.cli  # noqa: F401  (import time is part of set-up)

    register_plugin()
    failed = [inv.label for inv in workload.warmup(seed, directory) if invoke(inv.argv)[0] != 0]
    for label in failed:
        print(f"warm-up failed: {label}", file=sys.stderr)
    return 1 if failed else 0


def traced_cli(trace_file: Path, argv: list[str]) -> int:
    from tracing import Tracer

    start = time.perf_counter()
    import ifhv.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.counters["cli.import_s"] = import_s
    try:
        with tracer.span(f"cli.{argv[0]}"):
            ifhv.cli.main(argv, standalone_mode=False, prog_name="ifhv")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    trace_file.write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters}))
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        return setup(argv[1], int(argv[2]), Path(argv[3]))
    if mode == "cli":
        return traced_cli(Path(argv[1]), argv[2:])
    print(f"unknown probe mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
