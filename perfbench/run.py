"""khecke benchmark: one workload per invocation, every operation in a fresh process.

    python3 perfbench/run.py --workload scan|gkm-big|cli --seed N --seconds S --trace 0|1

Workers run ``perfbench/worker.py`` with ``PYTHONPATH`` set to this
checkout's ``src`` and one process at a time.  Every cache directory is a
new temporary directory under ``.perfbench_tmp/`` in the checkout, removed
when the run ends.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
table of the same numbers, every failed operation, and some ungated
figures (``query_p90_s``, the unscaled times) go to stderr.

Every end-to-end time is scaled to a host of fixed speed.  The host's speed
drifts by a third for minutes at a time, and ``process_time`` drifts with it,
so raw times of the same code spread more from run to run than a regression
worth catching.  Each timed worker is therefore bracketed by two references
that use no khecke code: a start-up reference (a fresh interpreter that
imports a fixed set of standard modules, ``START_CODE``) and a compute
reference (``worker.reference``).  A worker's time from spawn until khecke
is imported is multiplied by ``START_S / t_start``, and the rest of its time
by ``REF_S / t_ref``, where ``t_start`` and ``t_ref`` are the references'
times around it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
TMP = ROOT / ".perfbench_tmp"

sys.path.insert(0, str(HERE))
import queries  # noqa: E402
import spans  # noqa: E402

# Workload sizes.  scan and gkm-big are full sweeps, so the seed does not
# change them; the expected counts are the values each sweep must check.
SCAN = ("4", "7")
SCAN_CHECKED = 2601
GKM_BIG = ("A2~", "3")
GKM_BIG_CHECKED = 3249
CLI_PER_COMMAND = 4
CLI_VARIANTS = 12

PROBES = 5          # probes at the start of a run, after the untimed one
PROBE_EVERY = 8     # cli queries between two probes
# The host that times are scaled to: its start-up and compute reference times.
START_S = 0.075
REF_S = 0.25
START_CODE = ("import argparse, collections, dataclasses, fractions, functools, "
              "itertools, json, pathlib, typing")
HARD_LIMIT_S = 170  # a run must end within 180 s, workers included

STALE = "stdout differs from the same query against an empty cache"


@dataclass
class Proc:
    argv: tuple
    code: int
    seconds: float      # spawn to exit
    setup: float        # spawn to `import khecke.cli` returning
    rss_mb: float
    stdout: str
    stderr: str
    side: dict = field(default_factory=dict)
    ref: float = 0.0        # compute reference time around the worker, 0 if unknown
    ref_spent: float = 0.0  # seconds the worker itself spent in the compute reference
    start_ref: float = 0.0  # start-up reference time around the worker, 0 if unknown

    @property
    def latency(self) -> float:
        """Spawn to exit, without the worker's own reference runs."""
        return self.seconds - self.ref_spent

    def scaled(self, seconds: float) -> float:
        """Compute time as it would read on a host where the reference takes REF_S."""
        return seconds * REF_S / self.ref

    def scaled_setup(self) -> float:
        """Spawn to import, as on a host where the start-up reference takes START_S."""
        return self.setup * START_S / self.start_ref

    def scaled_latency(self) -> float:
        """Latency with its start-up and compute parts each scaled."""
        return self.scaled_setup() + self.scaled(self.latency - self.setup)


class Run:
    """Spawns workers and keeps the run's clock and temporary directories."""

    def __init__(self, seconds: float, tmp: Path):
        self.tmp = tmp
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.count = 0
        self.procs = []     # every worker since the bytecode was compiled
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        KHECKE_CACHE=str(tmp / "default-cache"))

    def start_measuring(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def fits(self, seconds: float) -> bool:
        return time.monotonic() + seconds <= self.deadline

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.tmp, prefix="cache-")

    def spawn(self, trace: str, op: str, *args: str) -> Proc:
        self.count += 1
        base = self.tmp / f"p{self.count}"
        side_path = base.with_suffix(".json")
        limit = self.started + HARD_LIMIT_S - time.monotonic()
        if limit <= 0:
            raise TimeoutError("run exceeded its time limit")
        with open(base.with_suffix(".out"), "w+b") as out, \
                open(base.with_suffix(".err"), "w+b") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), str(side_path), trace, op, *args],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            t1 = time.monotonic()
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        try:
            side = json.loads(side_path.read_text("utf-8"))
        except (OSError, ValueError):
            side = {}
        refs = side.get("ref_s", [])
        p = Proc((op, *args), proc.returncode, t1 - t0,
                 side.get("imported", t1) - t0, usage.ru_maxrss / 1024,
                 stdout, stderr, side, statistics.fmean(refs) if refs else 0.0,
                 sum(refs))
        self.procs.append(p)
        return p

    def start_ref(self) -> float:
        """Spawn to exit of one start-up reference process."""
        t0 = time.monotonic()
        limit = self.started + HARD_LIMIT_S - t0
        if limit <= 0:
            raise TimeoutError("run exceeded its time limit")
        try:
            proc = subprocess.run([sys.executable, "-c", START_CODE],
                                  stdin=subprocess.DEVNULL, capture_output=True,
                                  env=self.env, cwd=ROOT, timeout=limit)
        except subprocess.TimeoutExpired:
            raise TimeoutError("run exceeded its time limit") from None
        if proc.returncode != 0:
            raise RuntimeError(f"start-up reference failed:\n{proc.stderr.decode()}")
        return time.monotonic() - t0

    def probe(self) -> Proc:
        """A start-up reference, then an import-only worker that times the compute one."""
        start = self.start_ref()
        p = self.spawn("0", "probe")
        if p.code != 0 or not p.ref:
            raise RuntimeError(f"reference probe failed:\n{p.stderr}")
        p.start_ref = start
        return p

    def setup_s(self) -> float:
        """Median scaled spawn-to-import time over workers with reference times."""
        return statistics.median(p.scaled_setup() for p in self.procs
                                 if p.start_ref and "imported" in p.side)

    def host_ref_s(self) -> float:
        """Median unscaled compute reference time over the run's workers."""
        return statistics.median(p.ref for p in self.procs if p.ref)

    def host_refs(self) -> dict:
        """Median unscaled times of both references, for stderr."""
        return {"unscaled host.ref_s": self.host_ref_s(),
                "unscaled host.start_ref_s": statistics.median(
                    p.start_ref for p in self.procs if p.start_ref)}


def pct(xs, q: int) -> float:
    """The q-th percentile (0 < q < 100) of xs, interpolated."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def warm_up(run: Run):
    """Compile the bytecode in one untimed probe, then run PROBES timed ones."""
    run.probe()
    run.procs.clear()
    for _ in range(PROBES):
        run.probe()


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    notes: dict = field(default_factory=dict)  # ungated times, for stderr only


# -- scan and gkm-big: whole sweeps, one per worker ---------------------------


def op_scan(run: Run, trace: str):
    p = run.spawn(trace, "scan", *SCAN)
    ok = (p.code == 0 and p.side.get("passed") is True
          and p.side.get("checked") == SCAN_CHECKED)
    return p, ok, SCAN_CHECKED


def op_gkm_big(run: Run, trace: str):
    p = run.spawn(trace, "gkm-big", *GKM_BIG, run.fresh_dir())
    ok = (p.code == 0 and p.side.get("code") == 0
          and p.side.get("stdout") == f"gkm big: PASS [{GKM_BIG_CHECKED} checks]\n")
    return p, ok, GKM_BIG_CHECKED


def sweep(run: Run, op, trace: str) -> Outcome:
    """Repeat the sweep while another fits; with tracing, first one untraced."""
    done = []
    before = run.start_ref()
    while True:
        traced = trace == "1" and bool(done)
        p, ok, checked = op(run, "1" if traced else "0")
        after = run.start_ref()
        p.start_ref = (before + after) / 2
        before = after
        done.append((p, ok, checked, traced))
        if not ok:
            print(f"FAIL {' '.join(p.argv)}: exit {p.code}\n{p.stderr[-2000:]}",
                  file=sys.stderr)
        if (trace == "0" or len(done) > 1) and not run.fits(p.seconds):
            break
    failed = sum(not ok for _, ok, _, _ in done)
    good = [(p, checked, traced) for p, ok, checked, traced in done if ok]
    plain = [(p, checked) for p, checked, traced in good if not traced]
    if not plain:
        raise RuntimeError("no operation succeeded")
    if trace == "1":
        traced = [p for p, _, t in good if t]
        if not traced:
            raise RuntimeError("no traced operation succeeded")
        metrics = median_layers([spans.layer_metrics(p.side["trace"]) for p in traced])
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.scaled(p.side["wall_s"]) for p in traced)
            / statistics.median(p.scaled(p.side["wall_s"]) for p, _ in plain))
        metrics["host.calib_s"] = run.host_ref_s()
        report_missing(traced[0].side["trace"])
        return Outcome(metrics, len(done), failed, failed == 0)
    latency = [p.scaled_latency() for p, _ in plain]
    metrics = {
        "wall_s": statistics.median(p.scaled(p.side["wall_s"]) for p, _ in plain),
        "checked_per_s": statistics.median(c / p.scaled(p.side["wall_s"]) for p, c in plain),
        "query_p50_s": pct(latency, 50),
        "setup_s": run.setup_s(),
        "peak_rss_mb": statistics.median(p.rss_mb for p, _ in plain),
    }
    notes = {"query_p90_s": pct(latency, 90),
             "unscaled wall_s": statistics.median(p.side["wall_s"] for p, _ in plain),
             "unscaled query_p50_s": pct([p.latency for p, _ in plain], 50),
             **run.host_refs()}
    return Outcome(metrics, len(done), failed, failed == 0, notes)


# -- cli: a closed loop of one client over fresh CLI processes ----------------


def check_query(p: Proc, ref: Proc) -> list[str]:
    reasons = []
    if p.code not in (0, 1):
        reasons.append(f"exit {p.code}")
    if "Traceback (most recent call last)" in p.stderr:
        reasons.append("traceback")
    if p.stdout != ref.stdout:
        reasons.append(STALE)
    return reasons


def known_defect(argv: tuple, reasons: list, stderr: str) -> bool:
    """The two defects the seed commit is known to have (ROADMAP item 4).

    They count as failures; they do not make the run incorrect.
    """
    if argv[0] == "check-conjectures" and "--cross" in argv:
        return reasons == [STALE]
    if argv[0] == "k-sl2":
        return reasons == ["traceback"] and "SupportTruncationError" in stderr
    return False


def bracketed(run: Run, trace: str, argvs: list) -> list:
    """One worker per argv, with a probe before every PROBE_EVERY and after the last.

    Each worker's reference times are the means of the two probes around it.
    """
    procs = []
    before = run.probe()
    for i in range(0, len(argvs), PROBE_EVERY):
        block = [run.spawn(trace, "cli", *argv) for argv in argvs[i:i + PROBE_EVERY]]
        after = run.probe()
        for p in block:
            p.ref = (before.ref + after.ref) / 2
            p.start_ref = (before.start_ref + after.start_ref) / 2
        procs += block
        before = after
    return procs


def cli(run: Run, trace: str, seed: int) -> Outcome:
    stream = queries.stream(seed, CLI_PER_COMMAND, CLI_VARIANTS)
    refs = {q: run.spawn("0", "cli", *q, "--cache-dir", run.fresh_dir())
            for q in dict.fromkeys(stream)}
    reps = []
    attempted = failed = unknown = 0
    while True:
        traced = trace == "1" and bool(reps)
        cache = run.fresh_dir()
        started = time.monotonic()
        procs = bracketed(run, "1" if traced else "0",
                          [(*q, "--cache-dir", cache) for q in stream + stream])
        for i, (q, p) in enumerate(zip(stream + stream, procs)):
            phase = "cold" if i < len(stream) else "warm"
            attempted += 1
            reasons = check_query(p, refs[q])
            if reasons:
                failed += 1
                known = known_defect(q, reasons, p.stderr)
                unknown += not known
                print(f"FAIL {phase}: khecke {' '.join(q)}: {'; '.join(reasons)}"
                      f"{' (known defect)' if known else ''}", file=sys.stderr)
        reps.append((procs, traced))
        if (trace == "0" or len(reps) > 1) and not run.fits(time.monotonic() - started):
            break
    plain = [procs for procs, traced in reps if not traced]
    walls = [sum(p.scaled_latency() for p in procs) for procs in plain]
    if trace == "1":
        traced = [procs for procs, t in reps if t]
        summaries = [spans.merge(p.side["trace"] for p in procs if "trace" in p.side)
                     for procs in traced]
        metrics = median_layers([spans.layer_metrics(s) for s in summaries])
        metrics["trace.overhead_ratio"] = (
            statistics.median(sum(p.scaled_latency() for p in procs) for procs in traced)
            / statistics.median(walls))
        metrics["host.calib_s"] = run.host_ref_s()
        report_missing(summaries[0])
        return Outcome(metrics, attempted, failed, unknown == 0)
    lat = [p.scaled_latency() for procs in plain for p in procs]
    metrics = {
        "wall_s": statistics.median(walls),
        "checked_per_s": statistics.median(2 * len(stream) / w for w in walls),
        "query_p50_s": pct(lat, 50),
        "setup_s": run.setup_s(),
        "peak_rss_mb": statistics.median(p.rss_mb for procs in plain for p in procs),
    }
    notes = {"query_p90_s": pct(lat, 90),
             "unscaled wall_s": statistics.median(sum(p.seconds for p in procs)
                                                  for procs in plain),
             "unscaled query_p50_s": pct([p.seconds for procs in plain for p in procs], 50),
             **run.host_refs()}
    return Outcome(metrics, attempted, failed, unknown == 0, notes)


# -- reporting ----------------------------------------------------------------


def median_layers(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def report_missing(summary: dict):
    for name in summary["missing"]:
        print(f"missing: {name} is no longer defined; its metrics are omitted",
              file=sys.stderr)


UNITS = {"wall_s": "s", "checked_per_s": "1/s", "query_p50_s": "s",
         "setup_s": "s", "peak_rss_mb": "MB",
         "host.calib_s": "s"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return {"calls": "count", "self_s": "s"}.get(name.rsplit(".", 1)[1], "ratio")


def run_workload(workload: str, seed: int, seconds: float, trace: str,
                 tmp: Path) -> Outcome:
    run = Run(seconds, tmp)
    warm_up(run)
    run.start_measuring(seconds)
    if workload == "scan":
        return sweep(run, op_scan, trace)
    if workload == "gkm-big":
        return sweep(run, op_gkm_big, trace)
    return cli(run, trace, seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan", "gkm-big", "cli"))
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the cli query generator")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args(argv)
    if not (SRC / "khecke" / "cli.py").is_file():
        print(f"khecke sources not found under {SRC}", file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    try:
        out = run_workload(args.workload, args.seed, args.seconds, args.trace, tmp)
    except (RuntimeError, TimeoutError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it
    for name, value in out.metrics.items():
        print(f"{args.workload:8} {name:40} {value:14.6g} {unit_of(name)}",
              file=sys.stderr)
    for name, value in out.notes.items():
        print(f"{args.workload:8} {name:40} {value:14.6g} s (not gated)",
              file=sys.stderr)
    print(f"{args.workload:8} {'failed_ratio':40} {out.failed / out.attempted:14.6g}"
          f" ({out.failed}/{out.attempted})", file=sys.stderr)
    print(json.dumps({
        "correct": out.correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
