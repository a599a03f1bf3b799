"""Fresh-interpreter probe: import tribell.cli, build its parser, serve one request.

    python3 bench/probe.py SRC_DIR ARGV_JSON

Prints one JSON line: `ready` is time.monotonic() once the parser is built
(the caller subtracts its own monotonic time at spawn), then the first
request's latency, exit code and captured output.  Exits 2 when tribell does
not come from SRC_DIR.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import tribell.cli  # noqa: E402

tribell.cli.build_parser()
ready = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

if Path(tribell.cli.__file__).resolve().parent != (Path(sys.argv[1]) / "tribell").resolve():
    sys.stderr.write(f"tribell imported from {tribell.cli.__file__}, not {sys.argv[1]}\n")
    sys.exit(2)

out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    start = time.perf_counter()
    rc = tribell.cli.main(json.loads(sys.argv[2]))
    first_s = time.perf_counter() - start
print(json.dumps({"ready": ready, "first_s": first_s, "rc": rc,
                  "stdout": out.getvalue(), "stderr": err.getvalue()}))
