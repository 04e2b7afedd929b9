import json

import pytest

from conftest import manifest

from ringmpc import protocols as P
from ringmpc.bench import ROW_FIELDS, run_bench
from ringmpc.cli import main, render
from ringmpc.dealer import Dealer, RecordingStore
from ringmpc.engine import Session
from ringmpc.errors import DomainError
from ringmpc.ring import Z16


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gate_row_matches_reference(capsys):
    code, out, _ = run_cli(
        capsys, "--target", "gate", "--name", "2-AND", "--batch", "1000",
        "--format", "json",
    )
    assert code == 0
    (row,) = json.loads(out)
    assert row["comm_bits"] == 2000
    assert row["rounds"] == 1
    assert row["cl_ms"] == 40.0


def test_protocol_row_matches_reference(capsys):
    code, out, _ = run_cli(
        capsys, "--target", "protocol", "--name", "equality", "--ring", "32",
        "--format", "json",
    )
    (row,) = json.loads(out)
    assert code == 0
    assert (row["rounds"], row["comm_bits"], row["cl_ms"]) == (2, 38, 80.0)


def test_capped_maxn_row_matches_the_library_run(capsys):
    """``--fanin-cap`` caps maxN's AND layers alone: the dealer still makes
    the comparison's wider tables, so the row is the capped library run."""
    code, out, _ = run_cli(
        capsys, "--target", "protocol", "--name", "max5", "--ring", "16",
        "--fanin-cap", "3", "--format", "json",
    )
    assert code == 0
    (row,) = json.loads(out)
    sess = Session()
    sess.provision(manifest("max5", Z16, 1, fanin_cap=3))
    xs = [sess.share_input(v, Z16) for v in range(5)]
    sess.run(P.maxn(sess.store, xs, fanin_cap=3))
    assert sess.store.is_empty()
    report = sess.cost_report()
    assert (row["rounds"], row["comm_bits"]) == (report["rounds"], report["bits_per_party"])
    assert (row["rounds"], row["comm_bits"]) == (6, 3225)


def test_editdist_cl(capsys):
    code, out, _ = run_cli(
        capsys, "--target", "editdist", "--length", "4", "--format", "json",
    )
    (row,) = json.loads(out)
    assert code == 0
    assert row["rounds"] == 31
    assert row["cl_ms"] == pytest.approx(1240.0)


def test_baseline_flag(capsys):
    code, out, _ = run_cli(
        capsys, "--target", "protocol", "--name", "comparison", "--baseline",
        "--format", "json",
    )
    (row,) = json.loads(out)
    assert (row["rounds"], row["comm_bits"]) == (7, 970)


def test_bits_independent_of_wan_model(capsys):
    rows = []
    for rtt in ("40", "80"):
        _, out, _ = run_cli(
            capsys, "--target", "protocol", "--name", "comparison",
            "--rtt-ms", rtt, "--format", "json",
        )
        rows.append(json.loads(out)[0])
    assert rows[0]["comm_bits"] == rows[1]["comm_bits"]
    assert rows[0]["rounds"] == rows[1]["rounds"]
    assert rows[1]["cl_ms"] == 2 * rows[0]["cl_ms"]


def test_csv_determinism(capsys):
    args = ("--target", "protocol", "--name", "max3", "--seed", "7",
            "--format", "csv")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == ",".join(ROW_FIELDS)


def test_out_file(capsys, tmp_path):
    path = tmp_path / "row.csv"
    code, out, _ = run_cli(
        capsys, "--target", "protocol", "--name", "equality",
        "--format", "csv", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("target,")


def test_error_is_machine_readable(capsys):
    code, out, err = run_cli(capsys, "--target", "protocol", "--name", "nope")
    assert code != 0
    obj = json.loads(err)
    assert obj["error"] == "DomainError"


class _ArrayMemoryError(MemoryError):
    """Stands in for the MemoryError subclass numpy raises."""


@pytest.mark.parametrize("error", [MemoryError, _ArrayMemoryError])
def test_failed_allocation_is_a_json_error(capsys, monkeypatch, error):
    def run_bench(**_):
        raise error("Unable to allocate 1.14 PiB for an array")

    monkeypatch.setattr("ringmpc.cli.run_bench", run_bench)
    code, out, err = run_cli(capsys, "--target", "protocol", "--name", "comparison",
                             "--batch", "100000000000000")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "MemoryError",
                               "message": "Unable to allocate 1.14 PiB for an array"}


@pytest.mark.parametrize("argv, message", [
    (("--target", "protocol", "--name", "equality", "--batch", "abc"),
     "argument --batch: invalid int value: 'abc'"),
    (("--target", "foo"), "argument --target: invalid choice: 'foo'"),
    (("--name", "equality"), "the following arguments are required: --target"),
    (("--target", "gate", "--bogus"), "unrecognized arguments: --bogus"),
])
def test_usage_error_is_a_json_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "UsageError"
    assert obj["message"].startswith(message)


def test_help_still_prints_usage_text(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ringmpc-bench") and "--target" in out


@pytest.mark.parametrize("where, error", [
    ("missing/row.csv", "FileNotFoundError"), (".", "IsADirectoryError"),
])
def test_unwritable_out_is_a_json_error(capsys, tmp_path, where, error):
    path = tmp_path / where
    code, out, err = run_cli(capsys, "--target", "protocol", "--name", "equality",
                             "--format", "csv", "--out", str(path))
    assert code == 2 and out == ""
    obj = json.loads(err)
    assert obj["error"] == error and str(path) in obj["message"]


@pytest.mark.parametrize("argv", [
    ("--target", "protocol", "--name", "equality", "--batch", "-1"),
    ("--target", "protocol", "--name", "equality", "--batch", "0"),
    ("--target", "protocol", "--name", "tlu0"),
    ("--target", "gate", "--name", "2-AND", "--batch", "0"),
    ("--target", "editdist", "--batch", "0"),
    ("--target", "editdist", "--length", "-1"),
    ("--target", "gate", "--name", "2-AND", "--baseline"),
    ("--target", "protocol", "--name", "comparison", "--seed", "-1"),
    ("--target", "protocol", "--name", "comparison", "--bandwidth-bits-per-ms", "0"),
    ("--target", "protocol", "--name", "comparison", "--bandwidth-bits-per-ms", "-5"),
    ("--target", "protocol", "--name", "comparison", "--rtt-ms", "-5"),
    ("--target", "protocol", "--name", "comparison", "--rtt-ms", "nan"),
    ("--target", "protocol", "--name", "tlu65537", "--ring", "16"),
])
def test_invalid_input_is_a_json_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize("ring_width, name, bound", [(8, "tlu257", 256), (16, "tlu65537", 65536)])
def test_tlu_with_more_keys_than_it_can_draw_shares_nothing(monkeypatch, ring_width, name, bound):
    """The builder draws distinct keys from the first min(2^n, 2^20) ring
    values, so it refuses a larger key count before it shares an input."""
    shared = []
    monkeypatch.setattr(Dealer, "share_input", lambda *args: shared.append(args))
    with pytest.raises(DomainError, match=f"at most {bound}$"):
        run_bench("protocol", name, ring_width=ring_width)
    assert shared == []


def test_capability_error_path(capsys):
    code, _, err = run_cli(
        capsys, "--target", "protocol", "--name", "overflow1r", "--ring", "32",
    )
    assert code != 0
    assert json.loads(err)["error"] == "CapabilityError"


@pytest.mark.parametrize("name", ["1-AND", "10-or", "12-MULT"])
def test_gate_fanin_outside_cap_is_a_capability_error(capsys, name):
    code, out, err = run_cli(capsys, "--target", "gate", "--name", name)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "CapabilityError"


def test_fanin_cap_above_the_ceiling_builds_no_table(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(Dealer, "gen_bte", lambda *args: built.append("gen_bte"))
    monkeypatch.setattr(RecordingStore, "take_bte", lambda *args: built.append("take_bte"))
    code, out, err = run_cli(
        capsys, "--target", "gate", "--name", "40-AND", "--fanin-cap", "40")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "CapabilityError"
    assert built == []


@pytest.mark.parametrize("target, name", [
    ("gate", "3-AND"), ("gate", "2-MULT"), ("protocol", "comparison"), ("editdist", ""),
])
def test_inputs_are_shared_before_provisioning(monkeypatch, target, name):
    """Input sharing stays out of the timed online phase."""
    calls = []

    def record(attr):
        method = getattr(Dealer, attr)

        def wrapper(self, *args):
            calls.append(attr)
            return method(self, *args)
        monkeypatch.setattr(Dealer, attr, wrapper)

    record("share_input")
    record("provision")
    run_bench(target, name, batch=2)
    assert "share_input" in calls
    assert calls.count("provision") == 1 and calls[-1] == "provision"


def test_measure_fills_time_columns():
    row = run_bench("protocol", "equality", measure=True)
    assert row["precomp_ms"] is not None
    assert row["online_compute_ms"] is not None
    row = run_bench("protocol", "equality", measure=False)
    assert row["precomp_ms"] is None


def test_table_render():
    row = run_bench("gate", "3-MULT", ring_width=16, batch=2)
    text = render(row, "table")
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["target", "name"]
    assert "3-MULT" in lines[1]


@pytest.mark.parametrize(
    "name,rounds",
    [("msnzb", 2), ("overflow", 2), ("b2a", 1), ("bx2a", 1), ("bc2a", 1),
     ("bcx2a", 1), ("min3", 4), ("argmax3", 4), ("max4", 5), ("tlu4", 3)],
)
def test_protocol_name_coverage(name, rounds):
    ring = 16 if name == "msnzb" else 32
    row = run_bench("protocol", name, ring_width=ring, batch=2)
    assert row["rounds"] == rounds
