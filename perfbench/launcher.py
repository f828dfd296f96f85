"""Start ``wmxml serve`` for the benchmark, optionally traced.

Usage (from the checkout root)::

    python3 perfbench/launcher.py [--spans PATH] [--read-delay-ms N] \\
        -- serve --scheme ... --port 0 ...

Everything after ``--`` goes to the program's own CLI entry point
(``repro.cli.main``).  With ``--spans`` the layer wrappers of
:mod:`spans` are installed first, and the recorded spans are written to
PATH once ``serve`` returns, which it does on SIGTERM after draining
in-flight requests.  ``--read-delay-ms`` plants a fixed delay in
``WatermarkRegistry.records``; the benchmark's self-test uses it.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def plant_read_delay(milliseconds):
    """Sleep ``milliseconds`` before every ``WatermarkRegistry.records``."""
    import functools
    import time

    from repro.registry.registry import WatermarkRegistry

    original = WatermarkRegistry.records

    @functools.wraps(original)
    def delayed(*args, **kwargs):
        time.sleep(milliseconds / 1000.0)
        return original(*args, **kwargs)

    WatermarkRegistry.records = delayed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write recorded spans here")
    parser.add_argument("--read-delay-ms", type=float, default=0.0)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    # The delay goes in before the wrappers, so a traced run books it
    # under the registry read span it was planted in.
    if args.read_delay_ms:
        plant_read_delay(args.read_delay_ms)
    recorder = None
    if args.spans:
        import spans

        recorder = spans.install(spans.Recorder())
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    if recorder is not None:
        recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
