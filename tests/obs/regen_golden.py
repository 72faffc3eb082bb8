"""Regenerate the golden obs dump under ``golden/``.

Run after an *intentional* change to what observability records::

    PYTHONPATH=src python tests/obs/regen_golden.py
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from test_golden_obs import GOLDEN, fresh_dumps, render  # noqa: E402


def main() -> int:
    with pytest.MonkeyPatch.context() as monkeypatch:
        dumps = fresh_dumps(monkeypatch)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(dumps), encoding="utf-8")
    for name, d in dumps.items():
        print(f"{name}: {len(d['metrics'])} metrics, "
              f"{sum(d['spans'].values())} spans")
    return 0


if __name__ == "__main__":
    sys.exit(main())
