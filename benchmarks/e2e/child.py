"""One benchmark pass, run in a fresh process by ``bench.py``.

``python child.py study CONFIG_JSON`` runs one study pass: it materializes
the dataset (set-up), runs ``repro.runtime.study.run_study`` with the
``inline`` transport over a ``ResultCache`` and prints one JSON line with
the timings, the task counts (``operations``; ``executed`` are those not
served from the store), peak RSS and the digest of the outputs.

``python child.py serve --layers-out FILE --trace-out FILE -- ARGS`` runs
``repro serve ARGS`` in this process with the layer wrappers installed, and
writes the layer summary and the Chrome trace when the server exits.

A fresh process per pass is what makes a cold pass cold: no dataset memo,
level-table memo or column cache survives from an earlier pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from typing import Any

from layers import LayerRecorder


def canonical_digest(payload: Any) -> str:
    """sha256 of the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def study_digest(result: Any) -> str:
    """Digest of a study's grid, comparisons and sorted property vectors."""
    comparisons = {
        prop: {
            "relations": sorted(
                [first, second, relation.value]
                for (first, second), relation in outcome["relations"].items()
            ),
            "wins": outcome["wins"],
        }
        for prop, outcome in result.comparisons.items()
    }
    vectors = {
        prop: {label: sorted(vector.as_tuple()) for label, vector in cells.items()}
        for prop, cells in result.vectors.items()
    }
    return canonical_digest(
        {"grid": result.grid_rows(), "comparisons": comparisons, "vectors": vectors}
    )


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_study_pass(config: dict[str, Any]) -> dict[str, Any]:
    from repro.kernels import backend_name
    from repro.obs.export import write_chrome_trace
    from repro.runtime.cache import ResultCache
    from repro.runtime.executor import ExecutionError
    from repro.runtime.study import AlgorithmSpec, DatasetSpec, StudySpec, run_study

    recorder = LayerRecorder() if config["trace_file"] else None
    window = recorder.window if recorder else contextlib.nullcontext
    if recorder:
        recorder.install()
    dataset = DatasetSpec.of("adult", rows=config["rows"], seed=config["seed"])
    spec = StudySpec(
        dataset=dataset,
        algorithms=tuple(
            AlgorithmSpec.of(name, k=k)
            for name in config["algorithms"]
            for k in config["ks"]
        ),
        vector_properties=tuple(config["vector_properties"]),
        compare=config["compare"],
        seed=config["seed"],
    )

    with window():
        dataset.materialize()
    setup_s = time.monotonic() - config["spawned_at"]
    report: dict[str, Any] = {"setup_s": setup_s, "backend": backend_name()}
    started = time.perf_counter()
    try:
        with window():
            result = run_study(spec, cache=ResultCache(config["store"]), transport="inline")
    except ExecutionError as exc:
        report["error"] = str(exc).splitlines()[0]
        return report
    report.update(
        pass_s=time.perf_counter() - started,
        operations=len(result.report.outcomes),
        executed=result.report.executed,
        failed=result.report.failed + result.report.blocked,
        digest=study_digest(result),
        rss_mb=peak_rss_mb(),
    )
    if recorder:
        write_chrome_trace(recorder.tracer.spans, config["trace_file"], "repro-bench")
        report["layers"] = recorder.summary()
    return report


def run_traced_server(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py serve")
    parser.add_argument("--layers-out", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro.cli import main
    from repro.obs.export import write_chrome_trace

    recorder = LayerRecorder()
    recorder.install()
    with recorder.window():
        code = main(["serve", *serve_args])
    write_chrome_trace(recorder.tracer.spans, args.trace_out, "repro-bench-serve")
    with open(args.layers_out, "w", encoding="utf-8") as handle:
        json.dump(recorder.summary(), handle)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["study"] and len(argv) == 2:
        print(json.dumps(run_study_pass(json.loads(argv[1]))), flush=True)
        return 0
    if argv[:1] == ["serve"]:
        return run_traced_server(argv[1:])
    print("usage: child.py study CONFIG_JSON | child.py serve ...", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
