"""`python -m stokeslab.cli` under per-layer tracing.

    python3 perfbench/tracecli.py SPANS.json <stokeslab arguments>

Runs one stokeslab command with every layer wrapped, restores the wrapped
attributes, and writes the span totals, the import time of stokeslab.cli and
any attribute that failed to restore to SPANS.json.
"""

import json
import sys
import time


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import stokeslab.cli
    import_s = time.perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        status = stokeslab.cli.main(argv)
    finally:
        unrestored = tracer.uninstall()
        data = tracer.summary()
        data.update(import_s=import_s, unrestored=unrestored)
        with open(spans_path, "w") as fh:
            json.dump(data, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
