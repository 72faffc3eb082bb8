"""Golden obs output: every metric and span count, pinned byte for byte.

The fixture under ``golden/obs_dump.json`` holds a canonical dump of
the observability output of five instrumented runs:

``probe``
    :func:`repro.obs.probe.run_probe` at seed 0 (strong/global RPCs and
    a weak/global decoupled merge).
``strong/global``, ``weak/local``
    the conformance cells, run with ``--obs``.
``corrupt local/bitflip``
    the corrupted-recovery drill cell, run with ``--obs``.
``migrate strong/global``
    the migration drill cell (two ranks, one live handoff), with obs.

A dump lists every metric's name, daemon, tags and value (a histogram's
value is its full rendering: count, sum, min/max, percentiles and
occupied buckets) and the number of spans per span name.  Any change to
where, how often or under which identity the daemons report shows up
here.

To regenerate after an intentional change to what obs records::

    PYTHONPATH=src python tests/obs/regen_golden.py
"""

import collections
import json
import pathlib

import pytest

from repro.obs import Observability

GOLDEN = pathlib.Path(__file__).parent / "golden" / "obs_dump.json"


def dump(obs) -> dict:
    """Canonical dump of one :class:`Observability`'s output."""
    metrics = []
    for m in obs.hub.metrics():
        entry = m.to_dict()
        kind = entry.pop("kind")
        value = {k: entry.pop(k) for k in sorted(entry)
                 if k not in ("name", "daemon", "tags")}
        metrics.append({
            "name": m.name, "daemon": m.daemon, "tags": dict(m.tags),
            "kind": kind, "value": value["value"] if kind != "histogram" else value,
        })
    spans = collections.Counter(s.name for s in obs.tracer.spans)
    return {"metrics": metrics, "spans": dict(sorted(spans.items()))}


def _capture(run, monkeypatch) -> dict:
    """Run ``run()`` and dump the one Observability it attached."""
    attached = []
    real_attach = Observability.attach

    def attach(self):
        attached.append(self)
        return real_attach(self)

    monkeypatch.setattr(Observability, "attach", attach)
    run()
    monkeypatch.undo()
    assert len(attached) == 1
    return dump(attached[0])


def _probe():
    from repro.obs.probe import run_probe

    run_probe(seed=0)


def _cell(*task):
    from repro.conformance.driver import run_cell

    return lambda: run_cell(task)


def _corrupt(*task):
    from repro.conformance.driver import run_corruption_cell

    return lambda: run_corruption_cell(task)


#: dump name -> the run producing it.
RUNS = {
    "probe": _probe,
    "strong/global": _cell("strong", "global", 0, True),
    "weak/local": _cell("weak", "local", 0, True),
    "corrupt local/bitflip": _corrupt("local", "bitflip", 0, True),
    "migrate strong/global": _cell("strong", "global", 0, True, True),
}


def render(dumps: dict) -> str:
    return json.dumps(dumps, sort_keys=True, indent=1) + "\n"


def fresh_dumps(monkeypatch) -> dict:
    return {name: _capture(run, monkeypatch) for name, run in RUNS.items()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_obs_output_matches_golden(name, monkeypatch):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = json.loads(render(_capture(RUNS[name], monkeypatch)))
    assert got["spans"] == want["spans"]
    assert got["metrics"] == want["metrics"]
