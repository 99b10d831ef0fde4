"""Launch ``repro-sim gateway`` in this process, optionally traced.

Usage: ``python3 gateway_server.py [--trace-out PATH] -- <gateway args>``.

With ``--trace-out`` the layer wrappers of :mod:`benchtrace` are installed
in this server process before the gateway starts, the HTTP handlers' JSON
encoder is traced as ``api.encode``, and the recorded spans are written to
PATH when the gateway exits (on SIGINT, as ``repro-sim gateway`` handles
it).  Without it this is exactly ``repro-sim gateway``.
"""

import argparse
import contextlib
import json
import pathlib
import signal
import sys
import types

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from benchtrace import Tracer, byte_count, installed, write_spans  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("gateway_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    # SIGINT stops the gateway even when this process inherited it ignored
    # (as children of a background shell job do).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    gateway_args = [arg for arg in args.gateway_args if arg != "--"]

    import repro.gateway.server as server
    from repro.cli import main as cli_main

    if args.trace_out is None:
        return cli_main(["gateway", *gateway_args])
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        stack.enter_context(installed(tracer))
        # The handlers call json.dumps through the server module's global.
        shim = types.SimpleNamespace(
            dumps=tracer.wrap("api.encode", json.dumps, byte_count),
            loads=json.loads)
        stack.callback(setattr, server, "json", server.json)
        server.json = shim
        try:
            return cli_main(["gateway", *gateway_args])
        finally:
            write_spans(args.trace_out, tracer.spans)


if __name__ == "__main__":
    sys.exit(main())
