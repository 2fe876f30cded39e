"""Running a user script under a CLI subcommand.

``profile``, ``spans``, ``analyze`` and ``compile`` each execute an
arbitrary Python script (typically one of the examples) with a
process-wide hook installed, so the script is observed without changing
a line, and then report on what it did. They share the script's
command-line arguments and the way it is run.
"""

from __future__ import annotations

import argparse
import io
import runpy
import sys


def add_script_arguments(
    parser: argparse.ArgumentParser,
    script_help: str,
    quiet_help: str,
    optional: bool = False,
) -> None:
    """Add ``script``, ``script_args`` and ``--quiet-script`` to *parser*.

    Everything after the script path belongs to the script. With
    *optional*, the script may be omitted (``args.script`` is None).
    """
    if optional:
        parser.add_argument("script", nargs="?", default=None,
                            help=script_help)
    else:
        parser.add_argument("script", help=script_help)
    parser.add_argument(
        "script_args",
        nargs=argparse.REMAINDER,
        help="arguments passed through to the script",
    )
    parser.add_argument(
        "--quiet-script", action="store_true", help=quiet_help,
    )


def run_script(args: argparse.Namespace) -> None:
    """Run ``args.script`` as ``__main__`` with ``args.script_args``.

    ``sys.argv`` and ``sys.stdout`` are restored afterwards; with
    ``--quiet-script`` the script's stdout is discarded.
    """
    saved_argv = sys.argv
    sys.argv = [args.script, *args.script_args]
    saved_stdout = sys.stdout
    if args.quiet_script:
        sys.stdout = io.StringIO()
    try:
        runpy.run_path(args.script, run_name="__main__")
    finally:
        sys.stdout = saved_stdout
        sys.argv = saved_argv
