"""Start-up: each entry point runs only the modules it uses.

`import charpgeom` binds every module it exports, and registers each in
sys.modules, but runs none until an attribute of it is read; the names
`charpgeom.algebra` exports load their home modules on first use, and a CLI
command runs only its scenario's module.  The import checks run in a fresh
interpreter, since this suite's other tests have run every module already.
"""

import importlib
import os
import subprocess
import sys

import pytest

import charpgeom
from charpgeom import algebra

SRC = os.path.dirname(os.path.dirname(os.path.abspath(charpgeom.__file__)))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _fresh(*args):
    """Run `python args` with only this checkout's src/ on the path."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))


def _loaded_after(code):
    """The charpgeom modules a fresh interpreter has run after running code:
    a registered module not yet run is a LazyLoader module, and reading its
    type does not run it."""
    proc = _fresh("-c", code + "\nimport sys, types\nprint(' '.join(sorted("
                  "n for n, m in sys.modules.items() if n.startswith("
                  "'charpgeom') and type(m) is types.ModuleType)))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_the_package_runs_no_module_but_the_name_tables():
    assert _loaded_after("import charpgeom") == {"charpgeom",
                                                 "charpgeom.algebra"}


def test_importing_the_package_binds_and_registers_every_module():
    # as when the package imported them all: `charpgeom.covers` needs no
    # import of its own, and sys.modules holds every exported module
    proc = _fresh("-c", "import sys, charpgeom\n"
                  "from charpgeom import algebra\n"
                  "for pkg, names in ((charpgeom, charpgeom.__all__[:-1]),"
                  " (algebra, algebra._EXPORTS)):\n"
                  "    for name in names:\n"
                  "        module = getattr(pkg, name)\n"
                  "        assert sys.modules[module.__name__] is module\n"
                  "print(charpgeom.covers.classify_section.__module__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "charpgeom.covers\n"


def test_normalform_loads_no_other_scenario_module():
    loaded = _loaded_after("from charpgeom.normalform import normal_form")
    assert "charpgeom.normalform" in loaded
    assert not loaded & {
        "charpgeom.covers", "charpgeom.heights", "charpgeom.picard",
        "charpgeom.desing", "charpgeom.cli", "charpgeom.algebra.groebner",
        "charpgeom.algebra.kronecker"}


def test_the_normalform_command_loads_neither_covers_nor_heights():
    loaded = _loaded_after(
        "import contextlib, io\nfrom charpgeom import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['normalform', '--p', '5', '--r', '6',"
        " '--seed', '0']) == 0")
    assert "charpgeom.normalform" in loaded
    assert not loaded & {"charpgeom.covers", "charpgeom.heights"}


def test_the_cli_module_runs_once_as_main():
    # no "found in sys.modules" RuntimeWarning: charpgeom.cli is a package,
    # so runpy runs its __main__ and cli's code runs once
    proc = _fresh("-W", "error", "-m", "charpgeom.cli", "height",
                  "--format", "json-like-structured")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    with open(os.path.join(GOLDEN, "height.json")) as fh:
        assert proc.stdout == fh.read()


@pytest.mark.parametrize("name", algebra.__all__)
def test_each_algebra_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"charpgeom.algebra.{algebra._HOME[name]}")
    assert getattr(algebra, name) is getattr(home, name)


def test_an_unknown_algebra_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        algebra.no_such_name
    assert not hasattr(algebra, "no_such_name")


def test_star_import_binds_every_module():
    names = {}
    exec("from charpgeom import *", names)
    for module in ("algebra", "heights", "covers", "normalform", "desing",
                   "picard", "cli"):
        assert names[module] is importlib.import_module(f"charpgeom.{module}")
    assert names["__version__"] == charpgeom.__version__
