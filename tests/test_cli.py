import json
import re
from pathlib import Path

import pytest

from pvsmooth.cli import main
from pvsmooth.frames import FrameError
from pvsmooth.plant import INVARIANT, PROTOCOL, RunFault

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def test_synth_then_metrics(tmp_path, capsys):
    pv = tmp_path / "pv.csv"
    report = tmp_path / "report.json"
    rates = tmp_path / "rates.csv"
    assert main([
        "synth", "--profile", "cloud_square", "--duration", "3600",
        "--rated", "2000", "--out", str(pv),
    ]) == 0
    assert main([
        "metrics", "--input", str(pv), "--rated", "2000",
        "--out", str(report), "--rates-out", str(rates),
    ]) == 0
    doc = json.loads(report.read_text())
    assert doc["n_points"] == 59
    assert rates.read_text().startswith("t_s,rr_pct_per_min")
    out = capsys.readouterr().out
    assert "max |RR|" in out


def test_ingest_normalizes(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("when,pv\n0,100\n10,-5\n20,300\n")
    out = tmp_path / "norm.csv"
    code = main([
        "ingest", "--input", str(raw), "--out", str(out),
        "--time-column", "when", "--power-column", "pv",
        "--resample", "zero_order_hold", "--period", "5",
        "--clamp-negative",
    ])
    assert code == 0
    assert out.read_text().startswith("t_s,power_w")
    assert "negative->0     1" in capsys.readouterr().out


def test_run_with_shipped_scenario(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main([
        "run", "--scenario", str(SCENARIOS / "qualitative_smoothing.json"),
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "metrics.json").exists()
    stdout = capsys.readouterr().out
    assert "smoothed max |RR|" in stdout


def test_run_determinism_byte_identical(tmp_path):
    args = ["run", "--scenario", str(SCENARIOS / "default.json")]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("plant_trace.csv", "controller_log.csv", "metrics.json",
                 "raw_rates.csv", "smoothed_rates.csv", "histogram.csv", "frames.hex"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_input_override_and_seed(tmp_path):
    pv = tmp_path / "pv.csv"
    assert main(["synth", "--profile", "clear", "--duration", "1800",
                 "--rated", "1000", "--out", str(pv)]) == 0
    code = main([
        "run", "--scenario", str(SCENARIOS / "default.json"),
        "--input", str(pv), "--out", str(tmp_path / "out"), "--seed", "99",
    ])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert doc["seed"] == 99
    assert doc["n_samples"] == 360


def test_run_socket_transport_matches_inproc(tmp_path):
    scenario = str(SCENARIOS / "default.json")
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "b"),
                 "--transport", "socket"]) == 0
    a = json.loads((tmp_path / "a" / "metrics.json").read_text())
    b = json.loads((tmp_path / "b" / "metrics.json").read_text())
    assert a["ramp"] == b["ramp"]
    assert (tmp_path / "a" / "frames.hex").read_bytes() == (tmp_path / "b" / "frames.hex").read_bytes()
    assert (tmp_path / "a" / "plant_trace.csv").read_bytes() == (tmp_path / "b" / "plant_trace.csv").read_bytes()


def test_run_free_running_over_the_socket_matches_inproc(tmp_path):
    scenario = tmp_path / "free_running.json"
    scenario.write_text(json.dumps({
        "seed": 3,
        "transport": {"mode": "free_running", "latency_ms": 4000.0, "jitter_ms": 1500.0},
        "source": {"kind": "synth", "profile": "cloud_random", "duration_s": 3600.0},
    }))
    for transport in ("inproc", "socket"):
        args = ["run", "--scenario", str(scenario), "--out", str(tmp_path / transport), "--transport", transport]
        assert main(args) == 0, transport
    inproc, over_socket = (json.loads((tmp_path / t / "metrics.json").read_text()) for t in ("inproc", "socket"))
    assert (inproc.pop("transport"), over_socket.pop("transport")) == ("inproc", "socket")
    assert inproc == over_socket
    names = sorted(p.name for p in (tmp_path / "inproc").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "socket").iterdir())
    for name in names:
        if name != "metrics.json":
            assert (tmp_path / "inproc" / name).read_bytes() == (tmp_path / "socket" / name).read_bytes(), name


def test_protocol_check_passes(tmp_path, capsys):
    dump = tmp_path / "frames.hex"
    assert main(["protocol-check", "--frames", "2000", "--dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert dump.exists()


def test_exit_code_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sample_period_s": 5.0, "window_s": 7.0}))
    code = main(["run", "--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("section", "key", "value", "named"),
    [
        ("transport", "latency_ms", "5", 'transport.latency_ms: expected float, got "5"'),
        (None, "sample_period_s", "5", 'sample_period_s: expected float, got "5"'),
        ("battery", "capacity_wh", None, "battery.capacity_wh: expected float, got null"),
        ("quantization", "power_range_w", ["a", 5], 'transport.quantization.power_range_w[0]: expected float, got "a"'),
        (None, "source", "synth", 'source: expected an object, got "synth"'),
        ("source", "cloud_period", 600.0, "source.cloud_period: unknown field"),
        ("csv", "columns", ["t", "p"], "source.columns: unknown field"),
        ("source", "duration_s", "ten", 'source.duration_s: expected float, got "ten"'),
    ],
    ids=["latency_str", "period_str", "capacity_null", "range_str", "source_str", "synth_key", "csv_key",
         "duration_str"],
)
def test_exit_code_of_a_wrong_typed_value(tmp_path, capsys, section, key, value, named):
    doc = json.loads((SCENARIOS / "default.json").read_text())
    if section == "quantization":
        doc["transport"]["quantization"] = {"bits": 12}
        doc["transport"]["quantization"][key] = value
    elif section == "csv":
        pv = tmp_path / "pv.csv"
        pv.write_text("t_s,power_w\n0,1.0\n5,2.0\n")
        doc["source"] = {"kind": "csv", "path": str(pv), key: value}
    elif section is not None:
        doc[section][key] = value
    else:
        doc[key] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: invalid scenario: ") and err.count("\n") == 1, err
    assert named in err


@pytest.mark.parametrize("case", ["scenario_dir", "scenario_utf16", "source_dir", "source_utf16"])
def test_exit_code_of_an_unreadable_input_file(tmp_path, capsys, case):
    # a directory or a file that is not UTF-8 text is an input error, not a crash
    doc = json.loads((SCENARIOS / "default.json").read_text())
    scenario = tmp_path / "scenario.json"
    if case == "scenario_dir":
        scenario.mkdir()
    elif case == "scenario_utf16":
        scenario.write_bytes(json.dumps(doc).encode("utf-16"))  # starts with the bytes ff fe
    else:
        pv = tmp_path / "pv.csv"
        if case == "source_dir":
            pv.mkdir()
        else:
            pv.write_bytes("t_s,power_w\n0,1.0\n5,2.0\n".encode("utf-16"))
        doc["source"] = {"kind": "csv", "path": str(pv)}
        scenario.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_exit_code_missing_columns(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("a,b\n1,2\n")
    code = main(["ingest", "--input", str(raw), "--out", str(tmp_path / "o.csv")])
    assert code == 3


def test_exit_code_of_a_row_lacking_its_time_cell(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("pv_w,timestamp\n1.5\n")
    code = main(["ingest", "--input", str(raw), "--out", str(tmp_path / "o.csv"), "--time-column", "timestamp",
                 "--power-column", "pv_w", "--timestamp-format", "iso8601"])
    assert code == 3
    assert capsys.readouterr().err == "input error: line 2: unparseable time None\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(("command", "delimiter"), [("ingest", ";;"), ("ingest", ""), ("run", ";;"), ("run", "")])
def test_exit_code_of_a_delimiter_of_other_than_one_character(tmp_path, capsys, command, delimiter):
    pv = tmp_path / "pv.csv"
    pv.write_text("t_s,power_w\n0,1.0\n5,2.0\n")
    if command == "ingest":
        args = ["ingest", "--input", str(pv), "--out", str(tmp_path / "out.csv"), "--delimiter", delimiter]
    else:
        doc = json.loads((SCENARIOS / "default.json").read_text())
        doc["source"] = {"kind": "csv", "path": str(pv), "delimiter": delimiter}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        args = ["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]
    assert main(args) == 3
    assert capsys.readouterr().err == f"input error: delimiter {delimiter!r}: must be one character\n"
    assert not (tmp_path / "out").exists() and not (tmp_path / "out.csv").exists()


def test_exit_code_of_a_cell_past_the_field_limit(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("t_s,power_w\n0,1.0\n5," + "7" * 200_000 + "\n")
    code = main(["ingest", "--input", str(raw), "--out", str(tmp_path / "o.csv")])
    assert code == 3
    assert capsys.readouterr().err == "input error: line 3: field larger than field limit (131072)\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    ("command", "message"),
    [
        (["synth", "--profile", "cloud_random"], "cloud_random requires a seed"),
        (["metrics", "--bin-width", "0"], "bin_width must be > 0, got 0.0"),
        (["ingest", "--rated", "1"], "samples: maximum 3000.0 above rated 1.0"),
    ],
    ids=["synth_without_seed", "metrics_zero_bin_width", "ingest_rated_below_max"],
)
def test_exit_code_of_each_kind_of_input_error(tmp_path, capsys, command, message):
    # SynthError, RampMetricError and SeriesError: each an InputError, exit 3
    pv = tmp_path / "pv.csv"
    pv.write_text("t_s,power_w\n" + "".join(f"{5 * i},{3000.0 if i % 2 else 1500.0}\n" for i in range(30)))
    args = command if command[0] == "synth" else [*command, "--input", str(pv)]
    out = tmp_path / ("report.json" if command[0] == "metrics" else "out.csv")
    assert main([*args, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


def test_exit_code_usage_error(capsys):
    assert main(["run"]) == 3  # missing required options
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("fault", "code", "label"),
    [
        (RunFault(INVARIANT, "conservation breach at controller step 7", step=7), 2, "invariant breach"),
        (RunFault(PROTOCOL, "setpoint sequence gap: expected 3, got 9", step=3), 4, "protocol fault"),
        (FrameError("frame crc mismatch"), 4, "protocol fault"),
    ],
    ids=["invariant", "protocol", "frame_error"],
)
def test_exit_code_of_a_failed_run(tmp_path, monkeypatch, capsys, fault, code, label):
    import pvsmooth.cli as cli_mod

    def boom(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cli_mod, "run_scenario", boom)
    assert main(["run", "--scenario", str(SCENARIOS / "default.json"),
                 "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == f"{label}: {fault}\n"


def disk_full(*args):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    ("patch", "message"),
    [
        ("writer_process", "log writer process failed: OSError: [Errno 28] No space left on device"),
        ("metrics_json", "[Errno 28] No space left on device"),
    ],
    ids=["writer_process", "metrics_json"],
)
def test_exit_code_of_a_failed_artifact_write(tmp_path, monkeypatch, capsys, patch, message):
    import pvsmooth.run as pvrun
    from pvsmooth.util import AtomicWriter

    if patch == "writer_process":  # runs in the writer process, which inherits the patch
        monkeypatch.setattr(pvrun, "write_hexdump", disk_full)
    else:  # in the session's process, after the streamed files are complete
        real_write = AtomicWriter.write

        def write(self, text):
            (disk_full if self.path.name == "metrics.json" else real_write)(self, text)

        monkeypatch.setattr(AtomicWriter, "write", write)
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(SCENARIOS / "default.json"), "--out", str(out)])
    assert code == 5
    assert capsys.readouterr().err == f"output error: {message}\n"
    assert list(out.iterdir()) == []  # no artifact, no temporary file


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("run", "ingest", "synth", "metrics", "protocol-check"):
        assert re.search(rf"^  {re.escape(name)}\s", out, re.MULTILINE), name
