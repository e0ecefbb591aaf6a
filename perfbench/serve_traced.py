"""Run ``repro.service.serve`` with the layer tracer installed.

The traced twin of ``repro serve --port 0 --store STORE``: the same
server, started the same way, with :class:`tracer.Tracer` wrapped around
the service, engine and makespan entry points before the service is
built.  Started by ``run.py`` with ``src/`` on ``PYTHONPATH``::

    python perfbench/serve_traced.py --store STORE --dump SPANS.json

``SIGUSR1`` opens the measured window: everything recorded so far
(start-up, warm-up) is dropped and ``TRACE WINDOW OPEN`` is printed.
``SIGINT`` stops the server; the spans are then written to ``--dump``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional

from repro.service import serve
from tracer import Tracer


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--store", type=Path, required=True)
    ap.add_argument("--dump", type=Path, required=True)
    args = ap.parse_args(argv)

    tracer = Tracer().install()
    tracer.start()

    def open_window(signum: int, frame: object) -> None:
        tracer.reset()
        print("TRACE WINDOW OPEN", flush=True)

    signal.signal(signal.SIGUSR1, open_window)
    try:
        serve(host="127.0.0.1", port=0, store=str(args.store))
    finally:
        tracer.stop()
        args.dump.write_text(json.dumps(tracer.dump()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
