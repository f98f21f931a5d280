"""The package namespace and the modules each command loads, in fresh
interpreters."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import dmaxsat

SRC = str(Path(dmaxsat.__file__).resolve().parents[1])


def _python(script, *args, cwd=None):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


_LAZY = """
    import sys

    import dmaxsat

    assert not [m for m in sys.modules if m.startswith("dmaxsat.")], sys.modules
    assert set(dmaxsat.__all__) <= set(dir(dmaxsat))
    try:
        dmaxsat.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("an unknown name resolved")
    assert not [m for m in sys.modules if m.startswith("dmaxsat.")], sys.modules

    # bench/run.py reads dm.counting and dm.formats, and bench/spans.py wraps
    # names it finds with getattr(package, module_name)
    for name in ("cli", "counting", "formats", "formula", "gadgets", "generate",
                 "reduction", "selftest", "solver"):
        assert getattr(dmaxsat, name) is sys.modules["dmaxsat." + name], name
    assert callable(dmaxsat.solver.count_fast)

    for name, module in dmaxsat._EXPORTS.items():
        assert getattr(dmaxsat, name) is getattr(sys.modules["dmaxsat." + module], name)
    namespace = {}
    exec("from dmaxsat import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(dmaxsat, name) for name in dmaxsat.__all__}
    assert sorted(dmaxsat._EXPORTS) == sorted(dmaxsat.__all__)
    print("ok")
"""


def test_import_loads_no_submodule_and_names_resolve_on_first_use():
    proc = _python(_LAZY)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


# what count, count --bound and size never need; no command needs threads
_UNUSED = (
    "threading",
    "concurrent.futures",
    "dataclasses",
    "inspect",
    "json",
    "hashlib",
    "dmaxsat.solver",
    "dmaxsat.reduction",
    "dmaxsat.gadgets",
    "dmaxsat.selftest",
    "dmaxsat.generate",
)

_LOADED = """
    import sys

    before = set(sys.modules)  # what site preloads does not count
    from dmaxsat.cli import main

    code = main(sys.argv[1:])
    print(code, sorted(m for m in %r if m in sys.modules and m not in before))
""" % (_UNUSED,)


@pytest.mark.parametrize(
    "argv",
    [["count", "f.cnf"], ["count", "f.ckt", "--bound", "1"], ["size", "f.ckt"]],
    ids=" ".join,
)
def test_count_and_size_load_only_what_they_run(tmp_path, argv):
    (tmp_path / "f.cnf").write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    (tmp_path / "f.ckt").write_text("(scope 2) (or x1 (not x2))\n")
    proc = _python(_LOADED, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize(
    "argv",
    [
        ["maxcount", "f.ckt", "x: 1"],
        ["dmax", "f.ckt", "x: 1", "--bound", "2"],
        ["dmax", "f.cnf", "x: 2", "--bound", "2", "--engine", "plain"],
        ["maxcount", "nest.ckt", "x: 1"],
    ],
    ids=" ".join,
)
def test_solver_commands_load_the_solver_and_no_dataclasses(tmp_path, argv):
    # SplitInstance and Witness are records (dmaxsat.formula._Record), so of
    # the modules count never needs, the solver's commands load only the
    # solver; the chooser x1 at the bottom of a 3000-deep negation nest is
    # set in process, with no thread
    (tmp_path / "f.cnf").write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    (tmp_path / "f.ckt").write_text("(scope 3) (or x1 (and x2 x3))\n")
    (tmp_path / "nest.ckt").write_text("(scope 2) " + "(not " * 3000 + "(or x1 x2)" + ")" * 3000 + "\n")
    proc = _python(_LOADED, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 ['dmaxsat.solver']"


@pytest.mark.parametrize(
    "argv",
    [
        ["combine", "f.ckt:5", "f.ckt:4"],
        ["eq2geq", "f.ckt", "5"],
        ["pack", "f.ckt", "f.ckt"],
        ["psi", "f.ckt", "--delta", "1"],
        ["mkless", "3", "5"],
        ["selftest", "--budget", "0"],
    ],
    ids=" ".join,
)
def test_record_building_commands_load_no_dataclasses(tmp_path, argv):
    # every value class is a record (dmaxsat.formula._Record), not a dataclass
    (tmp_path / "f.ckt").write_text("(scope 3) (or x1 (and x2 x3))\n")
    proc = _python(_LOADED, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0"
    for name in ("dataclasses", "inspect", "threading", "concurrent.futures"):
        assert repr(name) not in loaded, loaded


def test_importing_every_submodule_loads_no_dataclasses():
    proc = _python("""
        import sys

        before = set(sys.modules)
        import dmaxsat

        for name in sorted(dmaxsat._SUBMODULES):
            getattr(dmaxsat, name)
        print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules and m not in before))
    """)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
