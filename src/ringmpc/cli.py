"""Command-line benchmark front end (`ringmpc-bench`).

Emits one report row per invocation in table, CSV, or JSON form. Errors
come back as a machine-readable JSON object on stderr with a nonzero exit
code.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .bench import ROW_FIELDS, run_bench
from .engine import CostModel
from .errors import RingmpcError
from .gates import DEFAULT_FANIN_CAP


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ringmpc-bench",
        description="Round/bit/latency benchmarks for the ringmpc protocol suite",
    )
    p.add_argument("--target", required=True, choices=["gate", "protocol", "editdist"])
    p.add_argument("--name", default="",
                   help="gate (e.g. 2-AND, 3-MULT) or protocol name")
    p.add_argument("--ring", type=int, default=32, choices=[16, 32, 64])
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--fanin-cap", type=int, default=DEFAULT_FANIN_CAP,
                   help="widest gate of a maxN protocol's AND layers, and of a "
                        "gate name; at least 2 and at most the dealer's 16")
    p.add_argument("--bandwidth-bits-per-ms", type=float,
                   default=CostModel.bandwidth_bits_per_ms)
    p.add_argument("--rtt-ms", type=float, default=CostModel.rtt_ms)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--length", type=int, default=4,
                   help="string length for the editdist target")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        row = run_bench(
            target=args.target,
            name=args.name,
            ring_width=args.ring,
            batch=args.batch,
            fanin_cap=args.fanin_cap,
            bandwidth_bits_per_ms=args.bandwidth_bits_per_ms,
            rtt_ms=args.rtt_ms,
            seed=args.seed,
            baseline=args.baseline,
            length=args.length,
            measure=args.measure,
        )
    except (RingmpcError, MemoryError) as exc:
        # numpy reports a failed allocation as a private MemoryError subclass
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2
    text = render(row, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
