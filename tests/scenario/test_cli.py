"""The ``python -m repro.scenario`` command line."""

import json

import pytest

from repro.bench.__main__ import main as bench_main
from repro.scenario.__main__ import main
from repro.scenario.report import load_artifact


def _tiny_spec_file(tmp_path, name="cli"):
    path = tmp_path / "tiny.json"
    path.write_text(
        json.dumps(
            {
                "name": name,
                "duration_s": 3.0,
                "sessions": 2,
                "seeds": 1,
                "population": {
                    "users": 1000,
                    "rate_per_user_hz": 0.005,
                    "dirs_per_subtree": 2,
                },
                "mix": {"create": 1, "stat": 3},
                "subtrees": [{"path": "/scn/sub0"}],
            }
        )
    )
    return path


def test_run_writes_artifact_and_report(tmp_path, capsys):
    spec_file = _tiny_spec_file(tmp_path)
    out = tmp_path / "artifact.json"
    assert main(["run", str(spec_file), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "scenario cli" in printed
    assert "p99" in printed
    artifact = load_artifact(out)
    assert artifact["scenario"]["name"] == "cli"
    assert len(artifact["per_seed"]) == 1


def test_run_seeds_override(tmp_path, capsys):
    spec_file = _tiny_spec_file(tmp_path)
    out = tmp_path / "artifact.json"
    assert main(
        ["run", str(spec_file), "--seeds", "2", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    assert len(load_artifact(out)["per_seed"]) == 2


def test_compare_exit_codes(tmp_path, capsys):
    spec_file = _tiny_spec_file(tmp_path)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", str(spec_file), "--out", str(a)]) == 0
    assert main(["run", str(spec_file), "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    assert "OK" in capsys.readouterr().out
    # Tamper with one aggregate mean: the gate must trip.
    artifact = json.loads(b.read_text())
    artifact["aggregate"]["achieved_rate_hz"]["mean"] *= 2.0
    b.write_text(json.dumps(artifact))
    assert main(["compare", str(a), str(b)]) == 1
    assert "DIVERGED" in capsys.readouterr().out


def test_validate_commands(tmp_path, capsys):
    good = _tiny_spec_file(tmp_path)
    assert main(["validate", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["run"]) == 2
    assert main(["compare", "one.json"]) == 2
    capsys.readouterr()


_CLIS = {"scenario": main, "bench": bench_main}


@pytest.mark.parametrize("cli,args,code", [
    ("scenario", "--help", 0),
    ("scenario", "run --help", 0),
    ("scenario", "run F --jobs abc", 2),
    ("scenario", "run F --seeds", 2),
    ("scenario", "run F --seeds 0", 2),
    ("scenario", "run F --shards 2", 2),
    ("scenario", "compare a.json b.json loose", 2),
    ("bench", "--help", 0),
    ("bench", "--jobs abc", 2),
    ("bench", "--json", 2),
    ("bench", "--shards 2", 2),
    ("bench", "no-such-experiment", 2),
    ("bench", "micro --help", 0),
    ("bench", "micro compare a.json b.json loose", 2),
])
def test_help_and_bad_arguments_print_usage(cli, args, code, capsys):
    # --help prints usage and exits 0; anything malformed or unknown
    # (including the removed --shards) prints usage and exits 2, without
    # touching the filesystem or running anything.
    assert _CLIS[cli](args.split()) == code
    out = capsys.readouterr()
    assert "usage:" in (out.out if code == 0 else out.err)
