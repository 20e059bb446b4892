"""The results-service daemon with the tracing shim installed.

The traced ``service-mixed`` repetition starts this instead of
``repro service start --workers 1``: it installs ``perfbench/shim.py``,
serves like that command does with one pool worker
(``repro.service.daemon.serve``, announcing ``service listening on URL`` on
standard output), and on ``POST /stop`` writes the shim's aggregates, its
pool worker's included, as JSON to ``--totals``.

Usage::

    PYTHONPATH=src python3 perfbench/daemon.py --store DIR \\
        --totals OUT.json --spool DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from shim import Tracer, installed, merge_spool  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--totals", required=True, help="where to write the span totals")
    parser.add_argument("--spool", required=True, help="directory for the pool worker's spans")
    args = parser.parse_args()

    from repro.service import ResultsService, serve
    from repro.sweeps import SweepStore

    tracer = Tracer()
    spool = Path(args.spool)
    with installed(tracer, spool):
        with ResultsService(SweepStore(args.store), workers=1) as service:
            serve(
                service,
                announce=lambda url: print(f"service listening on {url}", flush=True),
            )
    merge_spool(tracer, spool)
    Path(args.totals).write_text(json.dumps(tracer.snapshot()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
