"""Run one grpdim CLI command in this process with the benchmark's tracer on.

    python launch.py TRACE_DIR OP_ID SPAWN_TIME <grpdim arguments>

The parent passes the wall-clock time at which it spawned this process; the
time until ``grpdim.cli`` is imported is reported as ``cli.startup_s``. The
spans and counts are written to ``TRACE_DIR/<pid>.json`` when the command
ends, and the command's exit code is passed through unchanged.
"""

import json
import os
import sys
import time
from pathlib import Path


def main() -> None:
    trace_dir, op_id, spawned = Path(sys.argv[1]), sys.argv[2], float(sys.argv[3])
    args = sys.argv[4:]
    import grpdim.cli

    startup = time.time() - spawned
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    tr = Tracer()
    tr.op = op_id
    code = 0
    tr.install()
    try:
        grpdim.cli.main.main(args=args, prog_name="grpdim", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        tr.uninstall()
        record = tr.take()
        record["counts"]["cli.startup_s"] = startup
        record["pid"] = os.getpid()
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{os.getpid()}.json").write_text(json.dumps(record))
    sys.exit(code)


if __name__ == "__main__":
    main()
