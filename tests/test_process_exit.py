"""How a CLI process ends: `cli.run` calls `main`, flushes stdout and
stderr and ends with `os._exit`.  Each call runs as a fresh process and
in-process, and the two must agree on exit code, report and file bytes."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from interpsets import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Runs a CLI call whose command raises an unexpected exception.
BROKEN_COUNT = """
import sys
from interpsets import cli

def broken(args):
    raise RuntimeError("injected fault")

cli.cmd_count = broken
cli.run(sys.argv[1:])
"""

# One call per exit code, each writing its outputs under the working directory.
CALLS = {
    0: ["verify-f", "--n", "1000", "--depth", "2", "--out", "f.json",
        "--out-set", "f.set"],
    1: ["analyze", "--set", "kind=powers base=2", "--n", "100", "--syndetic",
        "10", "--out", "a.json"],
    2: ["word-stats", "--word", "missing.word"],
    3: ["count", "--delta", "1/3", "--k", "2", "--m", "3", "--csv", "c.csv"],
}


def _spawn(argv, cwd, env=None, stdout=subprocess.PIPE):
    return subprocess.run(argv, cwd=cwd, env=env or dict(os.environ, PYTHONPATH=SRC),
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120)


def broken(args):
    raise RuntimeError("injected fault")


def _report(stdout):
    """The stdout report without its timing, or None for no report."""
    if not stdout:
        return None
    rep = json.loads(stdout)
    del rep["timing_s"]
    return rep


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("code", sorted(CALLS))
def test_process_and_in_process_calls_agree(tmp_path, capsys, monkeypatch, code):
    argv = CALLS[code]
    child, here = tmp_path / "child", tmp_path / "here"
    child.mkdir()
    here.mkdir()
    entry = ["-c", BROKEN_COUNT] if code == 3 else ["-m", "interpsets.cli"]
    proc = _spawn([sys.executable, *entry, *argv], child)
    if code == 3:
        monkeypatch.setattr(cli, "cmd_count", broken)
    monkeypatch.chdir(here)
    assert cli.main(argv) == proc.returncode == code, proc.stderr
    out, err = capsys.readouterr()
    assert _report(out) == _report(proc.stdout)
    assert _files(here) == _files(child)
    assert (_report(out) is not None) == bool(_files(here)) == (code < 2)
    if code == 3:
        faults = [json.loads(e) for e in (err, proc.stderr)]
        assert len(proc.stderr.splitlines()) == 1
        for fault in faults:
            assert (fault["error"], fault["type"], fault["message"]) == (
                "internal", "RuntimeError", "injected fault")
    else:
        assert err == proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["count", "--delta", "1/3", "--k", "2", "--m", "3", "--csv", "c.csv"],
    ["analyze", "--set", "kind=ap a=3 b=0", "--n", "300", "--syndetic", "3"],
])
def test_report_that_cannot_be_written_exits_2(tmp_path, argv):
    # buffered stdout holds the whole report until run flushes it; the
    # interpreter's own flush at exit would end the process with 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    with open("/dev/full", "w") as full:
        proc = _spawn([sys.executable, "-m", "interpsets.cli", *argv], tmp_path,
                      env, stdout=full)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: cannot write the report: ")
    if "--csv" in argv:      # the output file is complete before the flush
        assert (tmp_path / "c.csv").read_text().count("\n") == 2


def test_run_skips_atexit_handlers(tmp_path):
    code = ("import atexit, sys\n"
            "from interpsets import cli\n"
            "atexit.register(print, 'atexit ran')\n"
            "cli.run(sys.argv[1:])\n")
    proc = _spawn([sys.executable, "-c", code, *CALLS[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "atexit ran" not in proc.stdout
    assert _report(proc.stdout)["command"] == "verify-f"


def test_console_script_enters_at_run():
    text = pathlib.Path(ROOT, "pyproject.toml").read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):
        import tomllib

        scripts = tomllib.loads(text)["project"]["scripts"]
    else:
        section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        scripts = dict(re.findall(r'^(\S+) = "(.*)"$', section, re.M))
    assert scripts == {"interpsets": "interpsets.cli:run"}
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    mains = [n.body for n in tree.body if isinstance(n, ast.If)
             and ast.unparse(n.test) == "__name__ == '__main__'"]
    assert [[ast.unparse(s) for s in body] for body in mains] == [["run()"]]
