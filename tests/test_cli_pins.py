"""One digest over the default ``ringmpc-bench`` CSV output of a fixed grid.

Each invocation in ``GRID`` runs ``cli.main`` with its default seed,
batch and WAN model and ``--format csv``; the digest is one SHA-256 over
the CSV data row of every invocation in order, or over the error's class
name for a refused one. A refactor that must not change outputs or costs
keeps the digest. A deliberate change to a row changes it: regenerate it
with ``python tests/test_cli_pins.py`` and say so in CHANGES.md. Run as a
script it prints the digest and whether it changed, and exits with status
1 when it did.
"""
import contextlib
import hashlib
import io
import json
import sys

from ringmpc import bench, cli

RINGS = ("16", "32", "64")


def _grid() -> list[list[str]]:
    """The argument lists of every pinned invocation, in digest order."""
    grid = []
    for ring in RINGS:
        for name, (_, _, base) in bench.PROTOCOLS.items():
            grid.append(["--target", "protocol", "--name", name, "--ring", ring])
            if base is not None:
                grid.append(grid[-1] + ["--baseline"])
        for n_vals in (4, 5, 8):
            for cap in (2, 3, 9):
                grid.append(["--target", "protocol", "--name", f"max{n_vals}", "--ring", ring,
                             "--fanin-cap", str(cap)])
        for n_keys in (1, 2, 4):
            grid.append(["--target", "protocol", "--name", f"tlu{n_keys}", "--ring", ring])
        for kind in ("AND", "OR", "MULT"):
            for fan in range(2, 10):
                grid.append(["--target", "gate", "--name", f"{fan}-{kind}", "--ring", ring])
    for length in range(1, 9):
        grid.append(["--target", "editdist", "--length", str(length)])
    return grid


GRID = _grid()


def _row(argv: list[str]) -> str:
    """The CSV data row of one invocation, or the class name of its error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv + ["--format", "csv"])
    if status:
        return json.loads(err.getvalue())["error"]
    _, row = out.getvalue().splitlines()  # the header, then the one data row
    return row


def _digest() -> str:
    h = hashlib.sha256()
    for argv in GRID:
        h.update(_row(argv).encode() + b"\n")
    return h.hexdigest()


DIGEST = "21400e6bfcbb092490fb6555216cbd75150a46d064774cd61d23829a9d41e610"


def test_grid_size_and_refusals():
    """Only the two width-16 protocols are refused, above Z_2^16."""
    assert len(GRID) == 164
    rows = [(argv, _row(argv)) for argv in GRID]
    refused = {(argv[3], argv[5]): row for argv, row in rows if "," not in row}
    assert refused == {(name, ring): "CapabilityError"
                       for name in ("msnzb", "overflow1r") for ring in ("32", "64")}


def test_default_cli_output_matches_pin():
    assert _digest() == DIGEST


if __name__ == "__main__":
    digest = _digest()
    print(f'DIGEST = "{digest}"')
    print("changed:", "none" if digest == DIGEST else "the CLI grid")
    sys.exit(0 if digest == DIGEST else 1)
