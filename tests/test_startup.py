"""What each entry point imports: the scalar layer starts without numpy.

The map algebra, the one-seed orbit engine, the parser, the strip
geometry and the CLI front end import no numpy at module level, and the
package resolves the names of its other modules on first use.  Each
check runs in a fresh interpreter, since this one has numpy loaded
already.
"""

import hashlib
import json

import pytest

import expdyn
from helpers import run_fresh

# runs `python -m expdyn <argv>` and then reports on stderr whether numpy
# was loaded
CLI = ("import runpy, sys\n"
       "try:\n"
       "    runpy.run_module('expdyn', run_name='__main__', alter_sys=True)\n"
       "finally:\n"
       "    print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr)\n")


def probe(code: str):
    """The JSON value that code prints last in a fresh interpreter."""
    rc, out, err = run_fresh("-c", code)
    assert rc == 0, err
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("module", ["expdyn", "expdyn.maps", "expdyn.orbits",
                                    "expdyn.parser", "expdyn.cli",
                                    "expdyn.strips"])
def test_scalar_modules_load_no_numpy(module):
    assert probe(f"import json, sys, {module}\n"
                 "print(json.dumps('numpy' in sys.modules))") is False


def test_parse_loads_no_numpy():
    assert run_fresh("-c", CLI, "parse", "--map", "F(-1, 1)") == \
        (0, "F(-1.0, 1.0)\n", "numpy loaded: False\n")


def test_orbit_loads_no_numpy():
    assert run_fresh("-c", CLI, "orbit", "--map", "F(-1, 1)", "--z0", "-1",
                     "--max-iter", "5") == \
        (0, "n,kind,a,b\n0,F,-1,0\n1,F,2,0\n"
            "# classification=NonEscapingProven,step=1\n",
         "numpy loaded: False\n")


def test_strips_loads_no_numpy():
    assert run_fresh("-c", CLI, "strips", "--family", "F", "--param", "-1+0i",
                     "--z", "-2+3.14159i") == \
        (0, "k=1\n", "numpy loaded: False\n")


def test_render_loads_numpy_and_keeps_its_bytes(tmp_path):
    assert run_fresh("-c", CLI, "render", "--map", "F(-1, 1)",
                     "--window=-30,5,-20,20", "--res", "40,30",
                     "--max-iter", "50", "--out", "f.ppm", "--csv", "f.csv",
                     cwd=tmp_path) == \
        (0, "", "wrote f.ppm (40x30)\nnumpy loaded: True\n")
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("f.ppm", "f.csv")]
    assert digests == [
        "c70457eb3bb14ea983e91d9bf2927876138fe3ac214309a1ae68524c128ee1ef",
        "1d09a03150eb5e21b48e6b609097e85a39b9782c49a6a813fc9444eff30e5174"]


def test_verify_loads_numpy_and_keeps_its_bytes():
    assert run_fresh("-c", CLI, "verify", "--suite", "halfplane-bound",
                     "--samples", "50", "--seed", "3") == \
        (0, '{"suite_name": "halfplane-bound", "total": 50, "skipped": 0, '
            '"violations": [], "verdict": "pass"}\n',
         "numpy loaded: True\n")


def test_every_export_is_its_modules_object():
    # each name of __all__, read from the package first, is the very
    # object of every module that exports it, and some module does
    exports = probe(
        "import importlib, json, expdyn\n"
        "names = {name: getattr(expdyn, name) for name in expdyn.__all__}\n"
        "mods = [importlib.import_module('expdyn.' + m) for m in\n"
        "        ('maps', 'orbits', 'parser', 'blocks', 'fields', 'sampling',\n"
        "         'strips', 'verify')]\n"
        "print(json.dumps({name: [getattr(m, name) is obj for m in mods\n"
        "                         if name in m.__all__]\n"
        "                  for name, obj in names.items()}))")
    assert list(exports) == expdyn.__all__
    assert all(held and all(held) for held in exports.values())


def test_star_import_binds_exactly_all():
    assert probe("import json, expdyn\n"
                 "ns = {}\n"
                 "exec('from expdyn import *', ns)\n"
                 "del ns['__builtins__']\n"
                 "print(json.dumps(sorted(ns) == sorted(expdyn.__all__)))")


def test_submodules_and_unknown_names():
    # submodules import by name; a name outside the table, a dunder
    # included, is an AttributeError and loads nothing
    assert probe(
        "import json, sys\n"
        "import expdyn\n"
        "found = [name for name in ('__wrapped__', '__path_hooks__', 'nope')\n"
        "           if hasattr(expdyn, name)]\n"
        "before = 'numpy' in sys.modules\n"
        "from expdyn import fields, maps, orbits\n"
        "print(json.dumps([found, before, fields.Window is maps.Window,\n"
        "                  callable(orbits.classify)]))") == \
        [[], False, True, True]
