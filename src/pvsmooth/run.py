"""Scenario orchestration: wire everything up, run, check, and write artifacts.

A run takes a validated scenario and an input trace, executes the closed
loop over the configured transport, verifies the core invariants online,
and writes a deterministic artifact set:

    plant_trace.csv       per-step plant state (k, powers, currents, soc)
    controller_log.csv    per-step controller state (k, p_hat, p_batt, i_set)
    frames.hex            hex dump of every bus frame with timing
    metrics.json          ramp summaries, SOC summary, config hash, versions
    raw_rates.csv         evaluation-time/rate pairs for plotting
    smoothed_rates.csv
    histogram.csv         rate distributions, raw and smoothed

The first three are streamed: each block of the session's logs is checked
while the session runs and sent over a socket pair to a writer process
(LogWriter), which appends it to its file, so formatting overlaps the
session. Every file is written through a temporary file and renamed into
place only after the session has passed its checks and metrics.json,
written last, is complete, so a failed run leaves none of them. The files
contain no wall-clock timestamps, so a repeated run with identical inputs
is byte-identical.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import signal
import socket
import struct
import sys
from collections.abc import Sequence
from contextlib import ExitStack, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

import numpy as np

from . import __version__, bus, synth
from .bus import SESSION_SINKS, TRANSPORTS, SessionLog, SessionResult, Sinks, run_session
from .config import BatteryParams, ConfigError, ScenarioConfig, checked_kwargs, config_hash, validate_scenario
from .controller import CONTROLLER_LOG_COLUMNS
from .ingest import IngestSpec, ingest_csv
from .plant import INVARIANT, PLANT_TRACE_COLUMNS, RunFault
from .ramp import RampReport, ramp_report, report_to_dict, stride_for, write_rates_file
from .series import PowerSeries, scale_series
from .synth import synth_pv
from .util import AtomicWriter, Records, atomic_write_text

STREAMED_FILES = ("plant_trace.csv", "controller_log.csv", "frames.hex")
PLANT, CONTROLLER, FRAMES = range(3)  # the streamed tables, in file order
ARTIFACT_FILES = STREAMED_FILES + ("metrics.json", "raw_rates.csv", "smoothed_rates.csv", "histogram.csv")
# per-point data of a ramp report, left out of metrics.json: the rates and
# histogram files hold it
PER_POINT_KEYS = ("rr_pct_per_min", "histogram")


@dataclass(frozen=True)
class SocSummary:
    soc_min: float
    soc_max: float
    soc_final: float
    clamp_events: int


@dataclass(frozen=True)
class RunArtifacts:
    """Everything a finished run produced: the files named in `files`, in
    out_dir, and what the run computed for metrics.json."""

    out_dir: Path
    files: tuple[str, ...]
    raw_report: RampReport
    raw_report_postwarmup: RampReport
    smoothed_report: RampReport
    smoothed_report_postwarmup: RampReport
    soc: SocSummary
    config_digest: str


def write_controller_log(log: Records, out: AtomicWriter) -> None:
    out.write(log.csv_bytes())


def write_plant_trace(trace: Records, out: AtomicWriter) -> None:
    out.write(trace.csv_bytes())


def write_hexdump(log: SessionLog, out: AtomicWriter) -> None:
    out.write(log.hexdump())


def _write_histogram_csv(reports: dict[str, RampReport], out: AtomicWriter) -> None:
    lines = ["series,bin_lo,bin_hi,count\n"]
    for name, rep in reports.items():
        edges, counts = rep.histogram.bin_edges.tolist(), rep.histogram.counts.tolist()
        lines += (f"{name},{lo!r},{hi!r},{count}\n" for lo, hi, count in zip(edges, edges[1:], counts))
    out.write("".join(lines).encode())


def check_run_invariants(
    cfg: ScenarioConfig, *, log: Records | None = None, trace: Records | None = None, soc_before: float | None = None
) -> None:
    """Conservation over controller-log rows, then SOC bounds and the energy
    balance over plant-trace rows; raises on the first breach, naming its
    step.

    A streamed run checks each block of either table as it is handed off.
    Conservation is checked bitwise by recomputing the defining subtraction
    p_batt = p_pv - p_hat from the logged values. SOC bounds are also
    enforced step-by-step inside the plant; this re-checks the trace. The
    energy balance replays each row's coulomb count from the row before it
    (soc_before for the first; by default soc_init, as at the start of the
    run): its SOC step must be the one its applied current makes, within
    2**-52, so no limit may apply a current that SOC does not count.
    """
    if log is not None:
        _check_controller_rows(log)
    if trace is not None:
        _check_plant_rows(cfg.battery, cfg.sample_period_s, trace, soc_before)


def _check_controller_rows(log: Records) -> None:
    rows = log.view()
    k = rows["k"]
    live = np.flatnonzero(k != 0)  # k=0 marks a lost sample (corrupt frame); no arithmetic to check
    p_pv, p_hat, p_batt = rows["p_pv_w"][live], rows["p_hat_w"][live], rows["p_batt_w"][live]
    with np.errstate(divide="ignore", invalid="ignore"):  # faulted rows may have v <= 0, edited ones inf
        breach = p_batt != p_pv - p_hat
        i_set = p_batt / rows["v_batt_v"][live]
    skew = (rows["fault"][live] == 0) & (rows["i_set_a"][live] != i_set)
    bad = np.flatnonzero(breach | skew)
    if bad.size:
        i = bad[0]
        step = int(k[live[i]])
        if breach[i]:
            raise RunFault(
                INVARIANT,
                f"conservation breach at controller step {step}: p_batt {float(p_batt[i])!r} "
                f"!= p_pv - p_hat {(float(p_pv[i]) - float(p_hat[i]))!r}",
                step=step,
            )
        raise RunFault(INVARIANT, f"setpoint identity breach at controller step {step}", step=step)


def _check_plant_rows(b: BatteryParams, dt_s: float, trace: Records, soc_before: float | None) -> None:
    rows = trace.view()
    soc, i = rows["soc"], rows["i_applied_a"]
    if b.enforce_soc_limits:
        bad = np.flatnonzero(~((b.soc_min <= soc) & (soc <= b.soc_max)))
        if bad.size:
            step = int(rows["k"][bad[0]])
            raise RunFault(INVARIANT, f"soc {float(soc[bad[0]])} outside [{b.soc_min}, {b.soc_max}] at plant step {step}",
                           step=step)
    before = np.concatenate(([b.soc_init if soc_before is None else soc_before], soc[:-1]))
    eta = np.where(i >= 0, b.coulombic_efficiency, 1.0 / b.coulombic_efficiency)
    with np.errstate(invalid="ignore"):
        bad = np.flatnonzero(~(np.abs(soc - (before + eta * i * dt_s / (3600.0 * b.capacity_ah))) <= 2.0**-52))
    if bad.size:
        j = bad[0]
        step = int(rows["k"][j])
        raise RunFault(
            INVARIANT,
            f"energy breach at plant step {step}: soc {float(soc[j])!r} from {float(before[j])!r} "
            f"under {float(i[j])!r} A",
            step=step,
        )


def live_p_hat(log: Records) -> np.ndarray:
    """p_hat of the controller-log rows that carry a sample (k > 0)."""
    rows = log.view()
    return rows["p_hat_w"][rows["k"] > 0]


# The writer process's stream: each block is a header (the table, the rows,
# the index in the whole table of the first row, the bytes that follow),
# then its packed records and, for a frame block, its wire bytes.
_HEADER = struct.Struct("<Bqqq")
_END = 255  # header: no more blocks
# both ends' socket buffer: the blocks the session may send ahead of the
# writer. At the kernel's default (208 KiB) the session waits on the writer;
# runs on a 2-CPU host took 9 % or more longer per step in six of six pairs.
STREAM_BUFFER_BYTES = 1 << 20


def _format_blocks(stream: BinaryIO, files: Sequence[AtomicWriter]) -> None:
    """The writer process's loop: take each block read from stream into its
    table and append its text to the table's file. Returns once every file
    is closed at the run's end; a stream that ends early raises EOFError
    before any of the unfinished block is formatted."""
    plant_csv, ctrl_csv, frames_hex = files
    frame_log = SessionLog()
    tables = (Records(PLANT_TRACE_COLUMNS), Records(CONTROLLER_LOG_COLUMNS), frame_log.frames)
    while True:
        header = stream.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise EOFError("the run ended without closing the log writer")
        table_id, rows, start, size = _HEADER.unpack(header)
        if table_id == _END:
            for out in files:
                out.close()
            return
        data = stream.read(size)
        if len(data) < size:
            raise EOFError("the run ended in the middle of a block")
        view = memoryview(data)
        table = tables[table_id]
        end = rows * table.layout.size
        table.rows[:] = view[:end]
        table.start = start
        if table_id == PLANT:
            write_plant_trace(table, plant_csv)
        elif table_id == CONTROLLER:
            write_controller_log(table, ctrl_csv)
        else:
            frame_log.wire[:] = view[end:]
            write_hexdump(frame_log, frames_hex)


class OutputError(RuntimeError):
    """The log writer process failed, died or went silent, or another run
    holds the output directory."""


class LogWriter:
    """A forked writer process that formats the streamed tables into their
    files (STREAMED_FILES order), so formatting overlaps the session.

    send writes a block's header, its packed records and a frame block's
    wire bytes to one end of a socket pair; the child reads them from the
    other end into the table and runs the table's formatter into the file.
    The socket buffers hold STREAM_BUFFER_BYTES, so the parent waits
    only when the child falls that far behind, and never more than
    bus.SOCKET_TIMEOUT_S. A child that fails sends back its error message;
    one that exits 0 has closed every file. A child that fails, dies or
    stalls makes the parent raise an OutputError that says so. The child
    always ends with os._exit.

    Used as a context manager around the run: a block that ends cleanly
    closes the writer (close), one that raises kills and reaps the child.
    Either way no child is left behind, and the files' temporary copies are
    complete before anything renames them.
    """

    def __init__(self, files: Sequence[AtomicWriter]):
        self._sock, child = socket.socketpair()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, STREAM_BUFFER_BYTES)
        child.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, STREAM_BUFFER_BYTES)
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                self._sock.close()
                _format_blocks(child.makefile("rb"), files)
                code = 0
            except BaseException as exc:
                with suppress(OSError):
                    child.sendall(f"{type(exc).__name__}: {exc}".encode())
            finally:
                os._exit(code)
        child.close()
        self._sock.settimeout(bus.SOCKET_TIMEOUT_S)

    def send(self, table_id: int, table: Records, wire: bytes | None = None) -> None:
        """Hand the rows `table` holds to the writer in one block, its
        records as one buffer; a frame log comes with its wire bytes, which
        its wire_end counts from."""
        data = (table.rows,) if wire is None else (table.rows, wire)
        self._send(_HEADER.pack(table_id, len(table), table.start, sum(map(len, data))), *data)

    def close(self) -> None:
        """End the blocks; return once the child has flushed and closed
        every file and exited 0."""
        self._send(_HEADER.pack(_END, 0, 0, 0))
        self._reply()

    def _send(self, *data: bytes) -> None:
        try:
            for d in data:
                self._sock.sendall(d)
        except TimeoutError:
            raise OutputError(f"log writer process sent nothing for {bus.SOCKET_TIMEOUT_S} s") from None
        except OSError:  # the child is gone: raise with what it said
            self._reply()

    def _reply(self) -> None:
        """Read what the child sent, up to its end of the stream closing,
        and reap the child; raise unless it sent nothing and exited 0."""
        reply = b""
        try:
            with suppress(ConnectionResetError):  # a child gone with blocks unread, once its bytes are read
                while chunk := self._sock.recv(4096):
                    reply += chunk
        except TimeoutError:
            raise OutputError(f"log writer process sent nothing for {bus.SOCKET_TIMEOUT_S} s") from None
        if reply:
            raise OutputError(f"log writer process failed: {reply.decode(errors='replace')}")
        code = self._reap(kill=False)
        if code != 0:
            raise OutputError(f"log writer process died ({'signal ' + str(-code) if code < 0 else f'exit {code}'})")

    def _reap(self, kill: bool) -> int:
        """Wait for the child, killed first if `kill`; its exit code, or
        minus the signal that ended it."""
        pid, self.pid = self.pid, None
        if kill:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def __enter__(self) -> LogWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None and self.pid is not None:
                self.close()
        finally:
            if self.pid is not None:  # a failed run, or a close that failed
                self._reap(kill=True)
            self._sock.close()


class RunLogs:
    """A run's session logs on their way to disk, one block at a time.

    Each block of the controller log and of the plant trace is checked with
    check_run_invariants, and every block goes to the writer process. What
    the run needs after the session stays here: the SOC range and final
    value, and the p_hat of the live controller rows (the smoothed series)
    at its ramp evaluation points, every stride-th live row from the first,
    which is all a non-overlapping ramp report reads of it.
    """

    def __init__(self, cfg: ScenarioConfig, writer: LogWriter):
        self.cfg = cfg
        self.writer = writer
        self.stride = round(cfg.rr_interval_s / cfg.sample_period_s)
        self._points: list[np.ndarray] = []  # each block's evaluation points
        self._n_live = 0
        self.soc_min, self.soc_max, self.soc_final = math.inf, -math.inf, math.nan
        self.sinks = Sinks(plant=self.plant_block, controller=self.controller_block, frames=self.frame_block)

    def controller_block(self, log: Records) -> None:
        check_run_invariants(self.cfg, log=log)
        p_hat = live_p_hat(log)
        self._points.append(p_hat[-self._n_live % self.stride :: self.stride].copy())
        self._n_live += p_hat.size
        self.writer.send(CONTROLLER, log)

    def plant_block(self, trace: Records) -> None:
        check_run_invariants(self.cfg, trace=trace, soc_before=None if trace.start == 0 else self.soc_final)
        soc = trace.soc
        self.soc_min = min(self.soc_min, float(soc.min()))
        self.soc_max = max(self.soc_max, float(soc.max()))
        self.soc_final = float(soc[-1])
        self.writer.send(PLANT, trace)

    def frame_block(self, log: SessionLog) -> None:
        self.writer.send(FRAMES, log.frames, log.wire)

    def finish(self, session: SessionResult) -> None:
        """Take the rows the session's tables still hold: the last, partial
        block, or every row of a table that had no sink."""
        if len(session.controller.log):
            self.controller_block(session.controller.log)
        if len(session.plant.trace):
            self.plant_block(session.plant.trace)
        if len(session.log.frames):
            self.frame_block(session.log)

    def smoothed_reports(self, series: PowerSeries) -> tuple[RampReport, RampReport]:
        """The ramp reports of the live p_hat on the input's grid, whole and
        past the warm-up (and its error if it is too short), as ramp_report
        of its evaluation points, a trace sampled every rr_interval_s."""
        cfg = self.cfg
        stride_for(self._n_live, series.sample_period_s, cfg.rr_interval_s)
        points = PowerSeries(np.concatenate(self._points), cfg.rr_interval_s, series.rated_power_w, series.start_time_s,
                             _skip_validation=True)  # quantized inputs may nudge p_hat past rated
        # the warm-up as whole intervals: the points the whole series' report skips
        warmup_s = -(-cfg.n_window // self.stride) * cfg.rr_interval_s
        limit = cfg.ramp_limit_pct_per_min
        return ramp_report(points, cfg.rr_interval_s, limit), ramp_report(points, cfg.rr_interval_s, limit, warmup_s=warmup_s)


def _ramp_summary(report: RampReport) -> dict[str, Any]:
    return {key: v for key, v in report_to_dict(report).items() if key not in PER_POINT_KEYS}


def resolve_source(source: dict[str, Any] | None, cfg: ScenarioConfig) -> PowerSeries:
    """Materialize the scenario's input trace from its `source` section,
    whose keys and values are checked against synth_pv's or IngestSpec's."""
    if source is None:
        raise ConfigError(["source: scenario file has no source section and no input was given"])
    if not isinstance(source, dict):
        raise ConfigError([f"source: expected an object, got {json.dumps(source)}"])
    kind = source.get("kind")
    args = {k: v for k, v in source.items() if k != "kind"}
    if kind == "synth":
        defaults = {"profile": "clear", "duration_s": 7200.0, "sample_period_s": cfg.sample_period_s, "rated_w": 3000.0}
        # synth_pv's signature from its module: a tracer may wrap run.synth_pv
        args = checked_kwargs(synth.synth_pv, {**defaults, **args}, "source.")
        for key in ("duration_s", "sample_period_s", "rated_w"):
            args[key] = float(args[key])  # an int would reach metrics.json as an int
        if "seed" not in args and args["profile"] == "cloud_random":
            args["seed"] = cfg.seed
        return synth_pv(**args)
    if kind == "csv":
        args.setdefault("sample_period_s", cfg.sample_period_s)
        return ingest_csv(IngestSpec(**checked_kwargs(IngestSpec, args, "source."))).series
    raise ConfigError([f"source.kind: {kind!r} not one of ('synth', 'csv')"])


def run_scenario(
    cfg: ScenarioConfig,
    series: PowerSeries,
    out_dir: str | Path,
    *,
    transport: str = "inproc",
    source: dict[str, Any] | None = None,
) -> RunArtifacts:
    """Execute one experiment end to end and write its artifact set.

    The session's logs stream to disk as it runs (RunLogs, LogWriter); the
    files are renamed into place only when the run has passed and the writer
    process has closed them, so an invariant breach, a protocol fault, a
    crash or a failed writer leaves no artifact and no temporary file. The
    run holds an exclusive flock on out_dir throughout; an OutputError
    refuses it, before anything is written, while another run holds it.
    """
    cfg = validate_scenario(cfg)
    if transport not in TRANSPORTS:
        raise ConfigError([f"transport: {transport!r} not one of {TRANSPORTS}"])
    if abs(series.sample_period_s - cfg.sample_period_s) > 1e-9 * cfg.sample_period_s:
        raise ConfigError(
            [f"input series period {series.sample_period_s} s does not match "
             f"scenario sample_period_s {cfg.sample_period_s} s"]
        )
    if cfg.scale_to_rated_w is not None:
        series = scale_series(series, cfg.scale_to_rated_w)
    if len(series) < 1:
        raise ConfigError(["input series is empty"])

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        # one run at a time in out: the lock lasts until every file is renamed
        out_fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY)
        stack.callback(os.close, out_fd)
        try:
            fcntl.flock(out_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise OutputError(f"another run is writing to {out}") from None
        files = [stack.enter_context(AtomicWriter(out / name)) for name in STREAMED_FILES]
        writer = stack.enter_context(LogWriter(files))
        logs = RunLogs(cfg, writer)
        token = SESSION_SINKS.set(logs.sinks)
        try:
            session = run_session(series, cfg, transport)
        finally:
            SESSION_SINKS.reset(token)
        logs.finish(session)

        limit = cfg.ramp_limit_pct_per_min
        raw_rep = ramp_report(series, cfg.rr_interval_s, limit)
        raw_rep_post = ramp_report(series, cfg.rr_interval_s, limit, warmup_s=cfg.window_s)
        smooth_rep, smooth_rep_post = logs.smoothed_reports(series)
        soc = SocSummary(
            soc_min=logs.soc_min,
            soc_max=logs.soc_max,
            soc_final=logs.soc_final,
            clamp_events=session.plant.clamp_events,
        )
        digest = config_hash(cfg, source)

        # written while the writer process formats the last blocks, and
        # renamed into place with the streamed files when the block ends, so
        # a failure up to the end of metrics.json leaves no artifact
        raw_csv, smooth_csv, histogram_csv = (stack.enter_context(AtomicWriter(out / name)) for name in ARTIFACT_FILES[-3:])
        write_rates_file(raw_rep, raw_csv, sample_period_s=series.sample_period_s)
        write_rates_file(smooth_rep, smooth_csv, sample_period_s=series.sample_period_s)
        _write_histogram_csv({"raw": raw_rep, "smoothed": smooth_rep}, histogram_csv)
        writer.close()  # the streamed files are complete before any file is renamed into place

        metrics = {
            "config_hash": digest,
            "seed": cfg.seed,
            "versions": {
                "pvsmooth": __version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
                "numpy": np.__version__,
            },
            "transport": transport,
            "mode": cfg.transport.mode,
            "n_samples": len(series),
            "rated_power_w": series.rated_power_w,
            "sample_period_s": series.sample_period_s,
            "window_samples": cfg.n_window,
            "soc": {
                "min": soc.soc_min,
                "max": soc.soc_max,
                "final": soc.soc_final,
                "clamp_events": soc.clamp_events,
            },
            "controller": {"error_count": session.controller.error_count},
            "ramp": {
                "raw": _ramp_summary(raw_rep),
                "raw_excluding_warmup": _ramp_summary(raw_rep_post),
                "smoothed": _ramp_summary(smooth_rep),
                "smoothed_excluding_warmup": _ramp_summary(smooth_rep_post),
            },
        }
        atomic_write_text(out / "metrics.json", json.dumps(metrics, indent=2, sort_keys=True) + "\n")

    return RunArtifacts(
        out_dir=out,
        files=ARTIFACT_FILES,
        raw_report=raw_rep,
        raw_report_postwarmup=raw_rep_post,
        smoothed_report=smooth_rep,
        smoothed_report_postwarmup=smooth_rep_post,
        soc=soc,
        config_digest=digest,
    )
