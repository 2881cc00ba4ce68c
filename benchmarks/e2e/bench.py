"""The repository benchmark: end-to-end study and serve workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/bench.py                       # every workload
    python3 benchmarks/e2e/bench.py --workload study-lattice-7k \\
        --seed 42 --seconds 30 --trace 0 --out result.json
    python3 benchmarks/e2e/bench.py --workload serve-4k --trace 1

The benchmark drives the program only through public entry points:
``repro.runtime.study.run_study`` (``inline`` transport, a
``ResultCache``) for the study workloads and the ``repro serve`` CLI for the
serve workload.  Every pass runs in a fresh process, one at a time, so a
cold pass is really cold.  Load comes from this process alone, with at most
two threads and two connections.

A run repeats *cycles* while the next one is expected to end within
``--seconds`` (at least one cycle; two in a traced run; ``--quick`` runs
only those).  A cycle is one cold pass on an empty store, one untimed
warm-up pass and three timed warm passes, each a new process on the store
the cold pass wrote.  An untraced run spends the time left after its last
cycle on more warm passes over that cycle's store.  A study pass
runs the study grid; a serve pass starts ``repro serve`` and sends each
distinct request of the workload mix once.  The last serve pass of the
first cycle of an untraced run, and of every traced cycle, then drives the
server with an open loop at each rate of the workload.  A time metric is
the mean of its passes without the fastest and the slowest tenth.

Every end-to-end metric is printed as ``name value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
with ``--trace 1``).  The exit code is 0 when the outputs were correct, 1
when a check failed and 2 when the program or an argument is missing.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import re
import select
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import fmean, median
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".e2e-bench"

#: End-to-end metrics, reported by every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cache_mb", "MB"),
)

#: Per-layer metrics that are not one of a layer's share/calls pair.
LAYER_EXTRAS = (
    ("unattributed.share", "%"),
    ("anonymize.workspace.reuse_frac", "ratio"),
    ("runtime.cache.hit_frac", "ratio"),
    ("runtime.cache.read_mb", "MB"),
    ("runtime.cache.written_mb", "MB"),
    ("tracing.overhead", "%"),
)

#: Open-loop latency limit on the tail percentile (ms) and the allowed
#: growth of mean lateness from the first to the last third of a phase (s).
SLO_MS = 500.0
BACKLOG_SLACK_S = 0.05

#: Connections (one sender thread each) the open loop uses.
CONNECTIONS = 2

#: The passes of a cycle: three timed warm passes after an untimed warm-up.
PASS_ROLES = ["cold", "warmup"] + ["warm"] * 3

CHILD_TIMEOUT_S = 170.0

#: Runs one pass of a workload: ``run(role, trace_stem, with_load)`` returns
#: the pass's report.  ``trace_stem`` (a path without suffix) traces the pass.
PassRunner = Callable[[str, Path | None, bool], dict[str, Any]]


class BenchError(RuntimeError):
    """The benchmark could not drive the program."""


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports: (name, unit)."""
    from layers import LAYERS

    names: list[tuple[str, str]] = []
    for layer in LAYERS:
        names += [(f"{layer}.share", "%"), (f"{layer}.calls", "count")]
    return names + list(LAYER_EXTRAS)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Passes import the program the way an installed copy does, from cached
    # bytecode, whatever the calling environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


# -- study passes --------------------------------------------------------------


def run_study_child(config: dict[str, Any]) -> dict[str, Any]:
    """One study pass in a fresh process; returns the child's report."""
    config = dict(config, spawned_at=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "study", json.dumps(config)],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {CHILD_TIMEOUT_S:.0f}s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"pass exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def study_passes(
    workload: dict[str, Any], rows: int, seed: int, store: Path
) -> PassRunner:
    """Runs one study pass on ``store``: ``run(role, trace_stem, with_load)``."""
    base = {
        "rows": rows,
        "seed": seed,
        "algorithms": workload["algorithms"],
        "ks": workload["ks"],
        "vector_properties": workload["vector_properties"],
        "compare": workload["compare"],
        "store": str(store),
    }

    def run(role: str, trace_stem: Path | None, with_load: bool) -> dict[str, Any]:
        trace_file = None if trace_stem is None else f"{trace_stem}.trace.json"
        report = run_study_child(dict(base, trace_file=trace_file))
        if "layers" in report:
            report["traced_s"] = report["layers"]["window_s"]
        return report

    return run


# -- serve passes --------------------------------------------------------------


def post(connection: http.client.HTTPConnection, path: str, body: Any) -> tuple[int, Any]:
    connection.request(
        "POST", path, body=json.dumps(body), headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read() or b"null")


def get(port: int, path: str) -> tuple[int, Any]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, rows: int, seed: int, store: Path, run_dir: Path, trace: dict | None):
        args = [
            "--port", "0", "--rows", str(rows), "--seed", str(seed),
            "--cache-dir", str(store), "--metrics", str(run_dir / "server-metrics.json"),
        ]
        if trace is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            command = [
                sys.executable, str(HERE / "child.py"), "serve",
                "--layers-out", str(trace["layers"]), "--trace-out", str(trace["trace"]),
                "--", *args,
            ]
        self.log = open(run_dir / "server.log", "a", encoding="utf-8")
        self.port: int | None = None
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=child_env(), cwd=run_dir,
        )
        try:
            self.port = self._read_port()
            while True:
                try:
                    if get(self.port, "/health")[0] == 200:
                        break
                except OSError:
                    pass
                if time.monotonic() - spawned > CHILD_TIMEOUT_S:
                    raise BenchError("server never reported healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned

    def _read_port(self) -> int:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.2)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    return int(match.group(1))
            elif self.proc.poll() is not None:
                break
        raise BenchError(f"repro serve did not start (see {self.log.name})")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise BenchError("no VmHWM for the server process")

    def releases_computed(self) -> int:
        """``serve.release.computed`` from ``GET /metrics`` (-1 if unreadable)."""
        status, snapshot = get(self.port, "/metrics")
        if status != 200:
            return -1
        return (snapshot or {}).get("metrics", {}).get("counters", {}).get(
            "serve.release.computed", 0
        )

    def stop(self) -> None:
        """Shut the server down through ``/shutdown`` and wait for it.

        A server that never bound, or does not drain in time, is killed.
        """
        if self.proc.poll() is None and self.port is not None:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                post(connection, "/shutdown", {})
                self.proc.wait(timeout=30)
            except (OSError, http.client.HTTPException, ValueError, subprocess.TimeoutExpired):
                pass
            finally:
                connection.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def distinct_requests(plans: list[list[tuple[str, str, Any]]]) -> list[tuple[str, Any]]:
    """Each distinct (path, body) of the plans once, in canonical order."""
    seen: dict[str, tuple[str, Any]] = {}
    for plan in plans:
        for _endpoint, path, body in plan:
            seen.setdefault(json.dumps([path, body], sort_keys=True), (path, body))
    return [seen[key] for key in sorted(seen)]


def prime(port: int, requests: list[tuple[str, Any]]) -> dict[str, Any]:
    """Send each request once over one connection; time the whole pass."""
    from child import canonical_digest

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT_S)
    responses = []
    failed = 0
    started = time.perf_counter()
    try:
        for path, body in requests:
            try:
                status, payload = post(connection, path, body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, payload = 0, {"error": type(exc).__name__}
                connection.close()
            if not 200 <= status < 300:
                failed += 1
            if isinstance(payload, dict):
                payload = {key: value for key, value in payload.items() if key != "source"}
            responses.append([path, body, status, payload])
        pass_s = time.perf_counter() - started
    finally:
        connection.close()
    return {
        "pass_s": pass_s,
        "operations": len(requests),
        "failed": failed,
        "digest": canonical_digest(responses),
    }


def open_loop(port: int, plan: list[tuple[str, Any]], rate: float) -> list[list[Any]]:
    """Send ``plan`` at ``rate`` req/s over the connections, on schedule.

    Returns one ``[due, sent, done, ok]`` sample per request.  A request is
    late when a stall delayed its sender; timing it from when it was due
    counts that wait too.
    """
    samples: list[Any] = [None] * len(plan)
    start = time.monotonic() + 0.05

    def sender(indices: range) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=CHILD_TIMEOUT_S)
        try:
            for index in indices:
                due = start + index / rate
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                path, body = plan[index]
                try:
                    ok = 200 <= post(connection, path, body)[0] < 300
                except (OSError, http.client.HTTPException, ValueError):
                    ok = False
                    connection.close()
                samples[index] = [due, sent, time.monotonic(), ok]
        finally:
            connection.close()

    threads = [
        threading.Thread(target=sender, args=(range(offset, len(plan), CONNECTIONS),))
        for offset in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(CHILD_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads) or None in samples:
        raise BenchError("an open-loop sender did not finish its plan")
    return samples


def serve_passes(
    workload: dict[str, Any], rows: int, seed: int, store: Path, load_seconds: list[float]
) -> PassRunner:
    """Runs one serve pass on ``store``: ``run(role, trace_stem, with_load)``."""
    from repro.serve.workload import build_plan

    phases = [
        (rate, build_plan(seed, phase, int(rate * seconds)))
        for phase, (rate, seconds) in enumerate(zip(workload["rates"], load_seconds))
    ]
    # One long plan makes the priming set the whole mix for any seed.
    priming = distinct_requests([build_plan(seed, 99, 1000), *(plan for _, plan in phases)])

    def run(role: str, trace_stem: Path | None, with_load: bool) -> dict[str, Any]:
        trace = None
        if trace_stem is not None:
            trace = {"layers": Path(f"{trace_stem}.layers.json"),
                     "trace": Path(f"{trace_stem}.trace.json")}
        server = Server(rows, seed, store, store.parent, trace)
        try:
            report = prime(server.port, priming)
            report.update(setup_s=server.setup_s, executed=server.releases_computed())
            if role == "cold":
                report["rss_mb"] = server.peak_rss_mb()
            if with_load:
                report["load"] = [
                    open_loop(server.port, [(path, body) for _e, path, body in plan], rate)
                    for rate, plan in phases
                ]
        finally:
            server.stop()
        if trace is not None:
            report["layers"] = json.loads(trace["layers"].read_text(encoding="utf-8"))
            # A server's end-to-end time: its set-up plus the round trips of
            # the requests it answered.
            report["traced_s"] = report["setup_s"] + report["pass_s"] + sum(
                done - sent for run in report.get("load", []) for _due, sent, done, _ok in run
            )
        return report

    return run


# -- cycles --------------------------------------------------------------------


def run_cycle(
    run_pass: PassRunner, store: Path, trace_dir: Path | None, index: int, with_load: bool
) -> dict[str, Any]:
    """Cold pass, untimed warm-up, then the timed warm passes on one store.

    The last pass runs the open loop when ``with_load`` is set.
    """
    passes = []
    cache_bytes = 0
    for position, role in enumerate(PASS_ROLES):
        trace_stem = None
        if trace_dir is not None and role != "warmup":
            trace_stem = trace_dir / f"cycle{index}-pass{position}-{role}"
        started = time.monotonic()
        report = run_pass(role, trace_stem, with_load and position == len(PASS_ROLES) - 1)
        report.update(role=role, wall_s=time.monotonic() - started)
        passes.append(report)
        if role == "cold":
            cache_bytes = dir_bytes(store)
    return {"passes": passes, "cache_bytes": cache_bytes, "traced": trace_dir is not None}


def extend_with_warm_passes(cycle: dict[str, Any], run_pass: PassRunner, deadline: float) -> None:
    """Add untraced warm passes on the cycle's store while one more fits.

    A run spends the time too short for another cycle on more samples of
    the warm pass, which is short, instead of leaving it idle.
    """
    passes = cycle["passes"]
    longest = max(p["wall_s"] for p in passes if p["role"] == "warm" and "load" not in p)
    while time.monotonic() + longest < deadline:
        started = time.monotonic()
        report = run_pass("warm", None, False)
        report.update(role="warm", wall_s=time.monotonic() - started)
        passes.append(report)
        longest = max(longest, report["wall_s"])


def summarize_load(cycles: list[dict[str, Any]], rates: list[float]) -> list[dict[str, Any]]:
    """Latency at each open-loop rate over every phase run at that rate."""
    from repro.serve.workload import percentile

    runs_by_rate = [
        [p["load"][position] for c in cycles for p in c["passes"] if "load" in p]
        for position in range(len(rates))
    ]
    phases = []
    for rate, runs in zip(rates, runs_by_rate):
        samples = [sample for run in runs for sample in run]
        latencies = [(done - due) * 1000.0 for due, _sent, done, ok in samples if ok]
        n = len(samples)
        # The highest whole percentile with at least ten samples beyond it.
        tail_pct = max(50, int(100 * (1 - 10 / n)))
        tail = percentile(latencies, tail_pct / 100) if latencies else float("inf")
        growing = any(backlog_growing(run) for run in runs)
        failed = n - len(latencies)
        phases.append({
            "rate": rate,
            "samples": n,
            "failed": failed,
            "p50_ms": percentile(latencies, 0.5) if latencies else float("inf"),
            "tail_pct": tail_pct,
            "tail_ms": tail,
            "lateness_max_ms": max(sent - due for due, sent, _d, _o in samples) * 1000.0,
            "backlog_growing": growing,
            "meets_slo": failed == 0 and tail <= SLO_MS and not growing,
        })
    return phases


def backlog_growing(samples: list[list[Any]]) -> bool:
    """Whether mean lateness grew from the first to the last third."""
    third = max(1, len(samples) // 3)
    lateness = [sent - due for due, sent, _done, _ok in samples]
    return fmean(lateness[-third:]) > fmean(lateness[:third]) + BACKLOG_SLACK_S


# -- checks and metrics --------------------------------------------------------


def check_cycle(cycle: dict[str, Any]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one cycle.

    A warm pass must recompute nothing and reproduce the cold pass's
    digest; otherwise every operation of it fails.
    """
    passes = cycle["passes"]
    cold = passes[0]
    attempted = failed = 0
    problems = []
    # A pass that failed outright fails as many operations as the others ran.
    planned = max((p.get("operations", 0) for p in passes), default=0) or 1
    for report in passes:
        operations = report.get("operations", planned)
        attempted += operations
        problem = report.get("error")
        if problem is None and report["role"] != "cold":
            if report["executed"]:
                problem = f"{report['role']} pass recomputed {report['executed']} result(s)"
            elif report["digest"] != cold.get("digest"):
                problem = f"{report['role']} pass digest differs from the cold pass"
        if problem is not None:
            failed += operations
            problems.append(problem)
        else:
            failed += report["failed"]
        for run in report.get("load", []):
            attempted += len(run)
            lost = sum(not ok for _due, _sent, _done, ok in run)
            failed += lost
            if lost:
                problems.append(f"{lost} open-loop request(s) failed")
    return attempted, failed, problems


def typical(times: list[float]) -> float:
    """Mean of ``times`` without the fastest and the slowest tenth.

    On a shared host a fresh process runs in one of a few speed modes for
    its whole life.  The median of a dozen such passes jumps between modes
    from run to run; the mean moves smoothly with their mix, and the trim
    keeps one stalled pass from pulling it.
    """
    trim = len(times) // 10
    return fmean(sorted(times)[trim:len(times) - trim])


def end_to_end_metrics(cycles: list[dict[str, Any]]) -> dict[str, float]:
    passes = [p for c in cycles for p in c["passes"] if "pass_s" in p and p["role"] != "warmup"]
    cold = [p for p in passes if p["role"] == "cold"]
    warm = [p for p in passes if p["role"] == "warm"]
    if not cold or not warm:
        raise BenchError("no cold or warm pass completed")
    return {
        "setup_s": typical([p["setup_s"] for p in passes]),
        "cold_s": typical([p["pass_s"] for p in cold]),
        "warm_s": typical([p["pass_s"] for p in warm]),
        "peak_rss_mb": median(p["rss_mb"] for p in cold),
        "cache_mb": median(c["cache_bytes"] for c in cycles) / 1e6,
    }


def layer_metrics(cycles: list[dict[str, Any]], overhead: float) -> dict[str, float]:
    """Per-layer shares of the traced end-to-end time, calls per cycle."""
    from layers import COUNTERS, LAYERS

    traced = [p for c in cycles if c["traced"] for p in c["passes"] if "layers" in p]
    cycle_count = sum(c["traced"] for c in cycles)
    total = sum(p["traced_s"] for p in traced)
    metrics: dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        self_s = sum(p["layers"]["layers"][layer]["self_s"] for p in traced)
        attributed += self_s
        metrics[f"{layer}.share"] = 100.0 * self_s / total
        metrics[f"{layer}.calls"] = sum(
            p["layers"]["layers"][layer]["calls"] for p in traced
        ) / cycle_count
    counts = {name: sum(p["layers"]["counters"][name] for p in traced) for name in COUNTERS}
    partitions = counts["partition.fresh"] + counts["partition.derived"] + counts["partition.hits"]
    metrics["unattributed.share"] = 100.0 * (total - attributed) / total
    metrics["anonymize.workspace.reuse_frac"] = (
        (counts["partition.derived"] + counts["partition.hits"]) / partitions if partitions else 0.0
    )
    metrics["runtime.cache.hit_frac"] = (
        counts["cache.hits"] / counts["cache.gets"] if counts["cache.gets"] else 0.0
    )
    metrics["runtime.cache.read_mb"] = counts["cache.bytes_read"] / 1e6 / cycle_count
    metrics["runtime.cache.written_mb"] = counts["cache.bytes_written"] / 1e6 / cycle_count
    metrics["tracing.overhead"] = overhead
    return metrics


def check_traces(trace_dir: Path) -> list[str]:
    """ART011 errors of every Chrome trace the traced passes wrote."""
    from repro.lint import check_obs_artifacts
    from repro.lint.diagnostics import Severity

    problems = []
    for path in sorted(trace_dir.glob("*.trace.json")):
        for finding in check_obs_artifacts(path):
            if finding.severity is Severity.ERROR:
                problems.append(f"{path.name}: {finding.message}")
    return problems


# -- running a workload --------------------------------------------------------


def run_workload(
    workload: dict[str, Any], args: argparse.Namespace, spec: dict[str, Any]
) -> dict[str, Any]:
    """Run one workload's cycles for ``args.seconds``; returns its result."""
    from repro.kernels import backend_name

    name = workload["name"]
    serve = workload["kind"] == "serve"
    rows = spec["quick"]["rows"] if args.quick else workload["rows"]
    load_seconds = workload.get("load_seconds", [])
    if args.quick:
        load_seconds = [spec["quick"]["load_seconds"]] * len(load_seconds)
    run_dir = WORK / f"{name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    trace_root = (args.trace_dir or WORK / "traces") / name
    if args.trace:
        shutil.rmtree(trace_root, ignore_errors=True)
        trace_root.mkdir(parents=True)

    def traced(index: int) -> bool:
        # A traced run alternates traced and untraced cycles; the untraced
        # ones measure the tracing overhead.
        return bool(args.trace) and index % 2 == 0

    def load_time(index: int) -> float:
        # The open loop runs once per untraced run and in every traced
        # cycle, so per-layer counts are the same in every traced cycle.
        with_load = serve and (traced(index) if args.trace else index == 0)
        return sum(load_seconds) if with_load else 0.0

    store = run_dir / "store"
    if serve:
        run_pass = serve_passes(workload, rows, args.seed, store, load_seconds)
    else:
        run_pass = study_passes(workload, rows, args.seed, store)

    cycles: list[dict[str, Any]] = []
    started = time.monotonic()
    deadline = started + args.seconds
    try:
        while True:
            index = len(cycles)
            cycle_start = time.monotonic()
            trace_dir = trace_root if traced(index) else None
            cycles.append(run_cycle(run_pass, store, trace_dir, index, load_time(index) > 0))
            expected = time.monotonic() - cycle_start - load_time(index) + load_time(index + 1)
            done = len(cycles) >= (2 if args.trace else 1)
            if done and (args.quick or time.monotonic() + expected > deadline):
                break
            shutil.rmtree(store, ignore_errors=True)
        # Traced cycles keep a fixed shape, so per-layer counts per cycle
        # stay comparable between runs.
        if not (args.quick or args.trace):
            extend_with_warm_passes(cycles[-1], run_pass, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = failed = 0
    problems: list[str] = []
    for cycle in cycles:
        cycle_attempted, cycle_failed, cycle_problems = check_cycle(cycle)
        attempted += cycle_attempted
        failed += cycle_failed
        problems += cycle_problems
    digests = sorted({c["passes"][0]["digest"] for c in cycles if "digest" in c["passes"][0]})
    # Every kernel backend computes the same outputs, so one digest is
    # pinned per workload and checked whatever backend ran.
    pinned = workload.get("digest")
    if not args.quick and args.seed == spec["default_seed"]:
        if pinned is None:
            problems.append("workloads.json pins no digest for this workload")
        elif digests != [pinned]:
            problems.append(f"digest {digests} differs from the pinned {pinned}")
            failed = attempted
    result: dict[str, Any] = {
        "workload": name,
        "rows": rows,
        "seed": args.seed,
        "backend": backend_name(),
        "cycles": len(cycles),
        "wall_s": time.monotonic() - started,
        "digest": digests[0] if len(digests) == 1 else digests,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": end_to_end_metrics(cycles),
        "samples": cycles,
    }
    if serve:
        result["load"] = summarize_load(cycles, workload["rates"])
        result["max_rps_slo"] = max((p["rate"] for p in result["load"] if p["meets_slo"]), default=0)
    if args.trace:
        traced_cold = end_to_end_metrics([c for c in cycles if c["traced"]])["cold_s"]
        plain_cold = end_to_end_metrics([c for c in cycles if not c["traced"]])["cold_s"]
        result["layers"] = layer_metrics(cycles, 100.0 * (traced_cold / plain_cold - 1.0))
        result["problems"] += check_traces(trace_root)
        (trace_root / "layers.json").write_text(
            json.dumps({"workload": name, "metrics": result["layers"]}, indent=1) + "\n",
            encoding="utf-8",
        )
    result["correct"] = not result["problems"] and failed == 0
    return result


def print_result(result: dict[str, Any], trace: bool) -> None:
    name = result["workload"]
    print(f"# {name}: {result['rows']} rows, seed {result['seed']}, {result['cycles']} cycle(s), "
          f"{result['wall_s']:.1f}s, backend {result['backend']}")
    units = dict(END_TO_END)
    for metric, value in result["metrics"].items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    for phase in result.get("load", []):
        rate = f"r{phase['rate']:g}"
        print(f"{name} load.{rate}.p50_ms {phase['p50_ms']:.6g} ms ({phase['samples']} samples)")
        if phase["tail_pct"] > 50:
            print(f"{name} load.{rate}.p{phase['tail_pct']}_ms {phase['tail_ms']:.6g} ms")
        print(f"{name} load.{rate}.lateness_max_ms {phase['lateness_max_ms']:.6g} ms")
    if "max_rps_slo" in result:
        print(f"{name} load.max_rps_slo {result['max_rps_slo']:g} 1/s")
    if trace:
        units = dict(per_layer_metrics())
        for metric, value in result["layers"].items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
    print(f"{name} error_rate {result['failed'] / max(result['attempted'], 1):.6g} "
          f"({result['failed']}/{result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"{name} FAILED: {problem}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the spec's)")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measuring time per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    parser.add_argument("--trace-dir", type=Path, default=None, help="where traced runs write traces")
    parser.add_argument("--out", type=Path, default=None, help="write the full result JSON here")
    parser.add_argument("--quick", action="store_true", help="smoke size: 300 rows, 2 s load phases, fewest cycles")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: the program is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    by_name = {w["name"]: w for w in spec["workloads"]}
    names = args.workload or list(by_name)
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; choose from {sorted(by_name)}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = spec["default_seed"]
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    results = [run_workload(by_name[name], args, spec) for name in names]
    for result in results:
        print_result(result, bool(args.trace))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": "repro.bench/e2e@1",
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "quick": args.quick,
            "python": platform.python_version(),
            "machine": f"{platform.machine()} x{os.cpu_count()}",
            "results": results,
        }
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    units = dict(per_layer_metrics() if args.trace else END_TO_END)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric, value in (result["layers"] if args.trace else result["metrics"]).items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
