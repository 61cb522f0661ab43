"""Run the ``repro serve`` daemon for the benchmark, optionally traced.

    python3 perfbench/serve.py --spans-out OUT.json [--trace]

Prints ``listening <port>`` once the daemon accepts connections and
serves until a client sends ``shutdown``.  With ``--trace`` the span
wrappers are installed before the first request; either way the span
summary (empty when untraced) is written to ``--spans-out``, and with
``--trace`` every span also goes to the ``.npz`` file beside it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import SpanRecorder, install  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.service.daemon import ServiceDaemon

    recorder = SpanRecorder()
    if args.trace:
        install(recorder)
        recorder.active = True
    daemon = ServiceDaemon(port=0)
    print(f"listening {daemon.port}", flush=True)
    daemon.serve_forever()
    recorder.active = False
    out = Path(args.spans_out)
    out.write_text(json.dumps(recorder.summary()))
    if args.trace:
        recorder.write(out.with_suffix(".npz"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
