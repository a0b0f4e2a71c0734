"""The benchmark's span tracer finds every function it reports on.

``perfbench/spans.py`` reads its per-function metrics from names it looks up
in the khecke modules; a name that leaves the package is reported as
``missing:`` and its metrics vanish from a traced result.  ``install()``
rewrites module namespaces, so it runs in a fresh interpreter here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, spans
tracer = spans.Tracer.install()
print(json.dumps({"missing": tracer.missing,
                  "names": sorted(spans.layer_metrics(tracer.summary()))}))
"""

# added by perfbench/run.py itself, not read from the trace
NOT_FROM_SPANS = {"host.calib_s", "trace.overhead_ratio"}


def test_tracer_reports_every_per_layer_metric(child_env):
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True,
        env=child_env(ROOT / "src", ROOT / "perfbench"))
    probe = json.loads(out.stdout)
    assert probe["missing"] == []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    per_layer = {m["name"] for m in bench["per_layer"]} - NOT_FROM_SPANS
    assert set(probe["names"]) == per_layer
