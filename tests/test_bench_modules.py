"""The benchmark reports one ``<module>.loc`` metric per module of the
package, so adding or deleting a module changes the metric set it must
print. This test only reads ``BENCHMARK.json``, so it catches that here as
well as in the benchmark's own tests."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_loc_metrics_name_every_module():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"].removesuffix(".loc") for m in spec["per_layer"] if m["name"].endswith(".loc")}
    stems = {"init" if p.stem == "__init__" else p.stem for p in (ROOT / "src" / "detksat").glob("*.py")}
    assert stems == metrics - {"total"}
