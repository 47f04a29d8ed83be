"""Lint-style hygiene: every metric name emitted anywhere in
``src/repro`` must be declared in ``KNOWN_METRICS`` with the right
kind.  The walk is AST-based, not grep-based, so multi-line emission
calls (the common black-formatted shape) are seen too."""

import ast
import re
from pathlib import Path

import repro
from repro.obs.instrument import KNOWN_METRICS

SRC = Path(repro.__file__).resolve().parent

# Methods through which metrics are emitted: the OBS hub's
# count/gauge/observe and direct registry counter/histogram calls
# (the telemetry layer records worker utilisation that way).
_EMITTERS = {
    "count": "counter",
    "counter": "counter",
    "gauge": "gauge",
    "observe": "histogram",
    "histogram": "histogram",
}

# A plausible metric name; filters string-method false positives like
# ``tape.count("1")``.
_NAME = re.compile(r"^[a-z][a-z0-9_]*_[a-z0-9_]+$")


def _emitted_metrics():
    """Yield ``(name, kind, site)`` for every literal-name emission."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _EMITTERS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            name = node.args[0].value
            if not _NAME.match(name):
                continue
            site = f"{path.relative_to(SRC.parent)}:{node.lineno}"
            yield name, _EMITTERS[node.func.attr], site


def test_scan_sees_the_multiline_emissions():
    # The reason this test is AST-based: these four are emitted via
    # calls formatted across several lines, invisible to a line grep.
    names = {name for name, _, _ in _emitted_metrics()}
    for expected in (
        "runtime_cost_total",
        "runtime_unique_jobs_total",
        "journal_hits_total",
        "multicore_core_utilisation",
    ):
        assert expected in names


def test_every_emitted_metric_is_declared():
    undeclared = sorted(
        (name, site)
        for name, _, site in _emitted_metrics()
        if name not in KNOWN_METRICS
    )
    assert not undeclared, (
        f"metrics emitted but not in KNOWN_METRICS: {undeclared}; "
        "declare them in repro.obs.instrument"
    )


def test_emitted_kinds_match_declarations():
    mismatched = sorted(
        (name, kind, site)
        for name, kind, site in _emitted_metrics()
        if name in KNOWN_METRICS and KNOWN_METRICS[name][0] != kind
    )
    assert not mismatched


def test_known_metrics_shape():
    for name, entry in KNOWN_METRICS.items():
        kind, doc = entry  # 2-tuples, relied on by the exporters
        assert kind in {"counter", "gauge", "histogram"}, name
        assert isinstance(doc, str) and doc, name
