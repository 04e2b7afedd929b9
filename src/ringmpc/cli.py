"""Command-line benchmark front end (`ringmpc-bench`).

Emits one report row per invocation in table, CSV, or JSON form. Errors,
a command line argparse refuses and an unwritable ``--out`` included, come
back as one machine-readable JSON object on stderr with exit code 2.
``--help`` prints its usage text and exits 0.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .bench import ROW_FIELDS, run_bench
from .errors import RingmpcError


class UsageError(Exception):
    """A command line argparse refuses, with argparse's message."""


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that raises ``UsageError`` where argparse would
    print usage text and exit, so ``main`` reports it as JSON. ``--help``
    still prints its text and exits 0."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """Each run flag sets a ``run_bench`` keyword, and one left out sets
    nothing, so ``run_bench``'s default holds. ``main`` keeps ``--format``
    and ``--out``, whose defaults are here."""
    p = _Parser(
        prog="ringmpc-bench",
        description="Round/bit/latency benchmarks for the ringmpc protocol suite",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--target", required=True, choices=["gate", "protocol", "editdist"])
    p.add_argument("--name", help="gate (e.g. 2-AND, 3-MULT) or protocol name")
    p.add_argument("--ring", dest="ring_width", type=int, choices=[16, 32, 64])
    p.add_argument("--batch", type=int)
    p.add_argument("--fanin-cap", type=int,
                   help="widest gate of a maxN protocol's AND layers, and of a "
                        "gate name; at least 2 and at most the dealer's 16")
    p.add_argument("--bandwidth-bits-per-ms", type=float)
    p.add_argument("--rtt-ms", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--length", type=int, help="string length for the editdist target")
    p.add_argument("--measure", action="store_true",
                   help="fill the informational wall-clock columns "
                        "(breaks byte-identical output across runs)")
    p.add_argument("--format", default="table", choices=["table", "csv", "json"])
    p.add_argument("--out", default=None, help="write output to FILE instead of stdout")
    return p


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def render(row: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([row], indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=ROW_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerow({k: _cell(row[k]) for k in ROW_FIELDS})
        return buf.getvalue()
    widths = [max(len(f), len(_cell(row[f]))) for f in ROW_FIELDS]
    head = "  ".join(f.ljust(w) for f, w in zip(ROW_FIELDS, widths))
    body = "  ".join(_cell(row[f]).ljust(w) for f, w in zip(ROW_FIELDS, widths))
    return head + "\n" + body + "\n"


def _error(name: str, exc: BaseException) -> int:
    print(json.dumps({"error": name, "message": str(exc)}, sort_keys=True), file=sys.stderr)
    return 2


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        return _error("UsageError", exc)
    options = vars(args)
    fmt, out = options.pop("format"), options.pop("out")
    try:
        row = run_bench(**options)
    except (RingmpcError, MemoryError) as exc:
        # numpy reports a failed allocation as a private MemoryError subclass
        return _error("MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__, exc)
    text = render(row, fmt)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _error(type(exc).__name__, exc)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
