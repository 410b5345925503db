"""What each CLI call loads: a package namespace that loads nothing, and
per-command imports.  Every check runs in a fresh interpreter, since the
test process has long since imported every module."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ALWAYS = {"interpsets.cli", "interpsets.certificate"}

# Runs the CLI in-process, then prints the library modules it loaded.
PROBE = """
import json, sys
from interpsets.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("interpsets."))
print(json.dumps({"code": code, "loaded": loaded, "numpy": "numpy" in sys.modules}))
"""

# Runs the CLI, and the same with every import of numpy refused.
PLAIN = """
import sys
from interpsets.cli import main
sys.exit(main(sys.argv[1:]))
"""
NO_NUMPY = """
import sys
sys.modules["numpy"] = None
from interpsets.cli import main
sys.exit(main(sys.argv[1:]))
"""


def python(code, *args, cwd=None):
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)


LOADS = {"interpsets.cli": ALWAYS, "interpsets": set()}


@pytest.mark.parametrize("module", sorted(LOADS))
def test_import_cli_loads_no_library_module(module):
    proc = python(f"import json, sys, {module}, interpsets\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy'"
                  " or m.startswith('interpsets.'))))\n"
                  "print(json.dumps([n for n in dir(interpsets)"
                  " if not n.startswith('_')]))")
    assert proc.returncode == 0, proc.stderr
    modules, names = map(json.loads, proc.stdout.splitlines())
    assert set(modules) == LOADS[module]
    if module == "interpsets":
        assert names == []


def test_readme_library_example_runs():
    readme = pathlib.Path(ROOT, "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    example = library.split("```python\n", 1)[1].split("```", 1)[0]
    proc = python(example)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "p.json").write_text(json.dumps(
        {"set_spec": "kind=powers base=2", "k": 2, "N": 64, "f": {"seed": 1}}))
    (tmp_path / "w.word").write_text("k=2\n0110100110010110\n")
    return tmp_path


COMMANDS = {
    "analyze": (["analyze", "--set", "kind=ap a=3 b=0", "--n", "30",
                 "--syndetic", "3"], {"intsets", "periodic"}),
    "construct": (["construct", "--kind", "zero", "--problem", "p.json",
                   "--out-dir", "out"], {"construct", "intsets", "words"}),
    "word-stats": (["word-stats", "--word", "w.word"], {"words"}),
    "verify-f": (["verify-f", "--n", "1000", "--depth", "2", "--shifts", "1",
                  "1", "--dual-oracle"], {"recurrence"}),
    "count": (["count", "--delta", "1/3", "--k", "2", "--m", "6"],
              {"counting"}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_what_it_runs(inputs, command):
    argv, modules = COMMANDS[command]
    proc = python(PROBE, *argv, cwd=inputs)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["code"] == 0
    assert set(probe["loaded"]) - ALWAYS == {f"interpsets.{m}" for m in modules}
    assert probe["numpy"] == (command not in ("count", "verify-f"))


def test_count_runs_without_numpy(tmp_path):
    argv = ["count", "--delta", "1/3", "--k", "3", "--m-list", "4,6",
            "--oracle", "--csv"]
    normal = python(PLAIN, *argv, "a.csv", cwd=tmp_path)
    blocked = python(NO_NUMPY, *argv, "b.csv", cwd=tmp_path)
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    verdicts = [json.loads(p.stdout)["verdicts"] for p in (normal, blocked)]
    assert verdicts[0] == verdicts[1] and all(v["ok"] for v in verdicts[0])


def test_verify_f_runs_without_numpy(tmp_path):
    argv = ["verify-f", "--n", "10000000", "--depth", "3", "--shifts", "1",
            "3", "--dual-oracle"]
    normal = python(PLAIN, *argv, "--out", "a.json", "--out-set", "a.set",
                    cwd=tmp_path)
    blocked = python(NO_NUMPY, *argv, "--out", "b.json", "--out-set", "b.set",
                     cwd=tmp_path)
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == 0, blocked.stderr
    for ext in ("json", "set"):
        assert ((tmp_path / f"a.{ext}").read_bytes()
                == (tmp_path / f"b.{ext}").read_bytes()), ext
    verdicts = [json.loads(p.stdout)["verdicts"] for p in (normal, blocked)]
    assert verdicts[0] == verdicts[1] and all(v["ok"] for v in verdicts[0])


def _names(node):
    """Every name a syntax tree refers to: variables, attributes and the
    names it imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def test_every_public_definition_is_run_by_the_package():
    # A module-level public function or class must be named by another
    # library module or by the benchmark scripts, or be reached in its own
    # module from module-level code or from a definition that is, as
    # build_parser reaches the cmd_* functions.  The package exports no
    # names, and __init__ counts for none, so code that only tests call
    # stays in tests/oracles.py.
    trees = {p.stem: ast.parse(p.read_text())
             for p in pathlib.Path(SRC, "interpsets").glob("*.py")}
    bench = set().union(*(_names(ast.parse(p.read_text()))
                          for p in pathlib.Path(ROOT, "perfbench").glob("*.py")))
    unused = []
    for module, tree in trees.items():
        defs = {n.name: n for n in tree.body
                if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        named = bench.union(*(_names(t) for m, t in trees.items()
                              if m not in (module, "__init__")),
                            *(_names(n) for n in tree.body
                              if n not in defs.values()))
        reached = set(defs) & named
        todo = list(reached)
        while todo:
            new = _names(defs[todo.pop()]) & set(defs) - reached
            reached |= new
            todo.extend(new)
        unused += [f"{module}.{d}" for d in defs
                   if not d.startswith("_") and d not in reached]
    assert unused == []
