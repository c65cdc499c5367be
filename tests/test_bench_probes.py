"""The benchmark's per-layer probes still run against the library.

``bench/layers.py`` calls library functions by name, so a rename or a
deletion in ``src`` would otherwise surface only when ``--trace 1`` runs.
"""
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
LIBRARY_PREFIXES = ("cli.", "sweep.", "metrology.", "dynamics.", "gaussian.", "oracle.")


class SteadyGauge:
    """A host-speed gauge that leaves every time unscaled."""

    def sample(self) -> float:
        return 1.0


def test_in_process_probes_cover_the_declared_layers(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    metrics, failures = layers.in_process(1, str(tmp_path), SteadyGauge())
    assert failures == []
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared if m["name"].startswith(LIBRARY_PREFIXES)}
