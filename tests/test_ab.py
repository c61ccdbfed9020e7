"""`tools/ab.py` flags an end-to-end metric whose change median is worse than
the parent's by more than its BENCHMARK.json bound, and only such a metric."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _results(change):
    """Ten pairs with every parent metric 100 (spread by ±1), and the change
    side scaled by change[name], 1 for the metrics it does not name."""
    def side(scale):
        return [{"metrics": {m["name"]: {"value": scale.get(m["name"], 1) * (100 + s % 3 - 1)}
                             for m in METRICS}, "failed": 0} for s in range(10)]
    return {"parent": side({}), "change": side(change)}


def _flagged(lines):
    return [line.split()[0] for line in lines if line.endswith("BREACH")]


@pytest.mark.parametrize("change, flagged", [
    ({"ops_per_s": 0.7, "peak_rss_mb": 1.15}, ["ops_per_s", "peak_rss_mb"]),
    ({"ops_per_s": 0.95, "peak_rss_mb": 1.05, "op_tail_ms": 1.05}, []),
    ({"ops_per_s": 2.0, "setup_s": 0.5, "op_p50_ms": 0.1, "peak_rss_mb": 0.8}, []),
    ({"op_tail_ms": 1.3, "setup_s": 1.26}, ["setup_s", "op_tail_ms"]),
])
def test_report_flags_only_bound_breaches(change, flagged):
    lines = _ab().report(_results(change), METRICS)
    assert _flagged(lines) == flagged
    assert lines[-1] == f"bound breaches: {', '.join(flagged) or 'none'}"
    assert lines[-3:-1] == ["parent failed ops: 0", "change failed ops: 0"]
