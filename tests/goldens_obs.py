"""Golden fixture for the observability plane's export schemas.

Runs a tiny serial study under an injected :class:`~repro.obs.FakeClock`
(every clock read advances a fixed step, so spans and exec-time histograms
are bit-reproducible) and pins the exported Chrome-trace payload and
metrics snapshot in ``tests/golden/obs_plane.json``.  Any change to span
names, categories, parentage, metric keys, or either schema shows up as a
fixture diff instead of silently breaking downstream trace consumers.

The fixture starts from an empty dataset memo, so the study materializes
a fresh table whose shared verdict store is empty: the payload's
``workspace.sizes`` then counts every class-size pass, whichever tests ran
earlier in the process.

Timing-derived values that survive into the fixture (ts/dur microseconds,
histogram sums) are deterministic *because* of the fake clock; wall-clock
fields that are not clock-injected (``wall_seconds`` etc.) live in the run
manifest, which is deliberately not part of this fixture.

Regenerate after an intentional schema change::

    PYTHONPATH=src python -m tests.goldens_obs
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs import FakeClock, Observation
from repro.obs.export import chrome_trace_payload
from repro.runtime.study import (
    AlgorithmSpec,
    DatasetSpec,
    StudySpec,
    _materialize_dataset,
    run_study,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "obs_plane.json"

#: The fixture's workload: small, serial, cache-less, and fully covered by
#: the fake clock so every exported number is reproducible.
FIXTURE_SPEC = StudySpec(
    dataset=DatasetSpec.of("adult", rows=24, seed=7),
    algorithms=(
        AlgorithmSpec.of("datafly", k=2),
        AlgorithmSpec.of("mondrian", k=2),
    ),
    scalar_measures=("k_achieved", "lm"),
    vector_properties=("equivalence-class-size",),
    compare=True,
    seed=7,
)


def compute_fixture() -> dict[str, Any]:
    """The golden payload: trace + metrics of the fixture study."""
    _materialize_dataset.cache_clear()
    observation = Observation(clock=FakeClock())
    run_study(FIXTURE_SPEC, jobs=1, obs=observation)
    payload = {
        "trace": chrome_trace_payload(observation.trace.spans),
        "metrics": observation.metrics.snapshot(),
    }
    # Round-trip through JSON so the comparison sees exactly what a reader
    # of the pinned file sees (tuples become lists, keys become strings).
    return json.loads(json.dumps(payload, sort_keys=True))


def load_fixture() -> dict[str, Any]:
    """The pinned payload from ``tests/golden/obs_plane.json``."""
    with GOLDEN_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = compute_fixture()
    with GOLDEN_PATH.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    events = len(payload["trace"]["traceEvents"])
    counters = len(payload["metrics"]["counters"])
    print(f"wrote {GOLDEN_PATH} ({events} trace event(s), {counters} counter(s))")


if __name__ == "__main__":
    regenerate()
