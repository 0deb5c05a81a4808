"""One timed benchmark run: call ``tweetsent.cli.main`` with the given argv.

    python3 bench/child.py [--spans FILE --run-id ID] -- <tweetsent argv>

With ``--spans`` the module wrappers of ``tracing.py`` are installed first
and the recorded spans are written to FILE when the command returns.  The
process exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", default=None, help="write traced spans here")
    parser.add_argument("--run-id", default="run", help="identifier stored with every span")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="tweetsent arguments after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from tweetsent import cli

    if args.spans is None:
        return cli.main(argv)

    from tracing import Tracer

    tracer = Tracer(args.run_id)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
