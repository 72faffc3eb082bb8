"""CLI output formats (--json / --format github) and the model command."""

import json
from pathlib import Path

from repro.analysis.__main__ import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"


# -- lint formats -----------------------------------------------------------


def test_lint_json_document(capsys):
    rc = cli_main(["lint", "--json", str(FIXTURES / "bad_wall_clock.py")])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["ok"] is False
    assert doc["files_checked"] == 1
    assert all(
        set(f) == {"path", "line", "col", "rule", "message"}
        for f in doc["findings"]
    )
    assert {f["rule"] for f in doc["findings"]} == {"wall-clock"}


def test_lint_json_clean_file(capsys):
    rc = cli_main(["lint", "--json", str(FIXTURES / "clean.py")])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["ok"] is True and doc["findings"] == []


def test_lint_github_annotations(capsys):
    rc = cli_main(
        ["lint", "--format", "github", str(FIXTURES / "bad_wall_clock.py")]
    )
    out = capsys.readouterr().out
    assert rc == 1
    for line in out.strip().splitlines():
        assert line.startswith("::error file=")
        assert "title=simlint wall-clock" in line


def test_lint_github_clean_is_silent(capsys):
    rc = cli_main(["lint", "--format", "github", str(FIXTURES / "clean.py")])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_github_escaping_keeps_annotations_single_line():
    from repro.analysis.__main__ import _github_escape

    assert _github_escape("a\nb\r%c") == "a%0Ab%0D%25c"


def test_format_usage_errors(capsys):
    assert cli_main(["lint", "--format"]) == 2
    assert cli_main(["lint", "--format", "yaml", "x.py"]) == 2
    assert cli_main(["lint", "--help"]) == 0


# -- check formats ----------------------------------------------------------


def test_check_json_composition(capsys):
    rc = cli_main(
        ["check", "--json", "--composition",
         "append_client_journal+global_persist"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["ok"] is True
    (result,) = doc["results"]
    assert result["kind"] == "composition"
    assert result["ok"] is True


def test_check_json_reports_errors(capsys):
    rc = cli_main(["check", "--json", "--composition", "no_such_mechanism"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["ok"] is False
    assert doc["results"][0]["errors"]


def test_check_github_annotations(capsys):
    rc = cli_main(
        ["check", "--format", "github", "--composition", "no_such_mechanism"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("::error ")
    assert "repro.analysis check" in out


# -- the model subcommand ---------------------------------------------------


def test_model_trunk_cell_ok(capsys):
    rc = cli_main(
        ["model", "--cell", "invisible,none", "--depth", "2",
         "--budget", "100"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "invisible/none: ok" in out
    assert "model: OK" in out


def test_model_json_and_artifact(tmp_path, capsys):
    out_file = tmp_path / "verdict.json"
    rc = cli_main(
        ["model", "--cell", "invisible,none", "--depth", "2",
         "--budget", "100", "--json", "--out", str(out_file)]
    )
    printed = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(printed)
    assert doc == json.loads(out_file.read_text())
    assert doc["ok"] is True
    assert doc["cells"][0]["exhausted"] is True


def test_model_mutation_drill_exits_nonzero(capsys):
    rc = cli_main(
        ["model", "--cell", "weak,local", "--depth", "3",
         "--budget", "100", "--mutation", "merge-priority-flip"]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "VIOLATION" in out
    assert "minimal counterexample" in out
    assert "strict-merge-unapplied" in out


def test_model_usage_errors(capsys):
    assert cli_main(["model", "--cell", "bogus"]) == 2
    assert cli_main(["model", "--cell", "weak,bogus"]) == 2
    assert cli_main(["model", "--depth", "nope"]) == 2
    assert cli_main(["model", "--mutation", "no-such"]) == 2
    assert cli_main(["model", "--frobnicate"]) == 2
