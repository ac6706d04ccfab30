"""What each entry point imports, and the value types that let it start
light.

The map algebra, the one-seed orbit engine, the parser, the strip
geometry and the CLI front end import no numpy at module level, and the
package resolves the names of its other modules, the orbit engine
included, on first use.  No module imports dataclasses: every value type
is a __slots__ class on maps._Value, whose semantics the last tests pin.
The process entry, cli.run, runs numpy with one BLAS thread unless the
user chose otherwise and freezes the collector before the exit, while an
in-process cli.main leaves both alone.  Each import and entry check runs
in a fresh interpreter, since this one has numpy loaded already.
"""

import copy
import hashlib
import json
import os
import pickle
import re

import numpy as np
import pytest

import expdyn
from expdyn.fields import EscapeField
from expdyn.maps import (Compose, Conjugate, Directed, Family, FamilyF,
                         FamilyG, IterationConfig, Iterate, ScaledExp, Shift,
                         Window)
from expdyn.orbits import (AbsorptionRule, BoundedAtBudget, Escaping,
                           NonEscapingProven, OrbitRecord, Undetermined)
from expdyn.sampling import SampleSet
from expdyn.strips import StripId
from expdyn.verify import VerificationReport
from helpers import run_fresh

SCALAR_MODULES = ["expdyn", "expdyn.maps", "expdyn.orbits", "expdyn.parser",
                  "expdyn.cli", "expdyn.strips"]
MODULES = SCALAR_MODULES + ["expdyn.blocks", "expdyn.fields",
                            "expdyn.sampling", "expdyn.verify"]

# runs `python -m expdyn <argv>` and then reports on stderr which of
# numpy, dataclasses and the orbit engine were loaded
CLI = ("import runpy, sys\n"
       "try:\n"
       "    runpy.run_module('expdyn', run_name='__main__', alter_sys=True)\n"
       "finally:\n"
       "    print('loaded:', *[m for m in ('numpy', 'dataclasses',\n"
       "                                   'expdyn.orbits')\n"
       "                       if m in sys.modules], file=sys.stderr)\n")


# runs `python -m expdyn <argv>` and then reports on its last stderr line,
# as JSON, what the process entry left: OPENBLAS_NUM_THREADS, the threads
# of the process (null without /proc/self/task), the count of objects
# gc.freeze moved out of the collector's reach and whether the strip
# geometry was loaded
ENTRY = ("import gc, json, os, runpy, sys\n"
         "try:\n"
         "    runpy.run_module('expdyn', run_name='__main__', alter_sys=True)\n"
         "finally:\n"
         "    tasks = '/proc/self/task'\n"
         "    print(json.dumps({\n"
         "        'blas': os.environ.get('OPENBLAS_NUM_THREADS'),\n"
         "        'threads': len(os.listdir(tasks)) if os.path.isdir(tasks)\n"
         "                   else None,\n"
         "        'frozen': gc.get_freeze_count(),\n"
         "        'strips': 'expdyn.strips' in sys.modules}), file=sys.stderr)\n")

RENDER = ("render", "--map", "F(-1, 1)", "--window=-30,5,-20,20",
          "--res", "8,6", "--max-iter", "20", "--out", "f.ppm")
# the child starts without a BLAS thread setting unless a test gives one
NO_BLAS = {"OPENBLAS_NUM_THREADS": None}


def entry(*argv: str, cwd=None, env=NO_BLAS):
    """(exit code, ENTRY's report) of `python -m expdyn *argv`."""
    rc, out, err = run_fresh("-c", ENTRY, *argv, cwd=cwd, env=env)
    return rc, json.loads(err.splitlines()[-1])


def probe(code: str):
    """The JSON value that code prints last in a fresh interpreter."""
    rc, out, err = run_fresh("-c", code)
    assert rc == 0, err
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("module", SCALAR_MODULES)
def test_scalar_modules_load_no_numpy(module):
    assert probe(f"import json, sys, {module}\n"
                 "print(json.dumps('numpy' in sys.modules))") is False


@pytest.mark.parametrize("module", MODULES)
def test_no_module_loads_dataclasses(module):
    assert probe(f"import json, sys, {module}\n"
                 "print(json.dumps('dataclasses' in sys.modules))") is False


def test_import_loads_no_orbit_engine():
    # until a name of orbits is first read
    assert probe("import json, sys, expdyn\n"
                 "before = 'expdyn.orbits' in sys.modules\n"
                 "expdyn.classify\n"
                 "print(json.dumps([before, 'expdyn.orbits' in sys.modules,\n"
                 "                  'numpy' in sys.modules]))") == \
        [False, True, False]


def test_parse_loads_no_numpy():
    assert run_fresh("-c", CLI, "parse", "--map", "F(-1, 1)") == \
        (0, "F(-1.0, 1.0)\n", "loaded:\n")


def test_orbit_loads_no_numpy():
    assert run_fresh("-c", CLI, "orbit", "--map", "F(-1, 1)", "--z0", "-1",
                     "--max-iter", "5") == \
        (0, "n,kind,a,b\n0,F,-1,0\n1,F,2,0\n"
            "# classification=NonEscapingProven,step=1\n",
         "loaded: expdyn.orbits\n")


def test_strips_loads_no_numpy():
    assert run_fresh("-c", CLI, "strips", "--family", "F", "--param", "-1+0i",
                     "--z", "-2+3.14159i") == \
        (0, "k=1\n", "loaded:\n")


def test_render_loads_numpy_and_keeps_its_bytes(tmp_path):
    assert run_fresh("-c", CLI, "render", "--map", "F(-1, 1)",
                     "--window=-30,5,-20,20", "--res", "40,30",
                     "--max-iter", "50", "--out", "f.ppm", "--csv", "f.csv",
                     cwd=tmp_path) == \
        (0, "", "wrote f.ppm (40x30)\nloaded: numpy\n")
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("f.ppm", "f.csv")]
    assert digests == [
        "c70457eb3bb14ea983e91d9bf2927876138fe3ac214309a1ae68524c128ee1ef",
        "1d09a03150eb5e21b48e6b609097e85a39b9782c49a6a813fc9444eff30e5174"]


@pytest.mark.parametrize("overlay", [False, True])
def test_render_loads_strips_for_the_overlay_only(overlay, tmp_path):
    rc, report = entry(*RENDER, *["--overlay-strips"] * overlay,
                       cwd=tmp_path)
    assert (rc, report["strips"]) == (0, overlay)


def test_entry_runs_numpy_with_one_blas_thread(tmp_path):
    rc, report = entry(*RENDER, cwd=tmp_path)
    assert (rc, report["blas"]) == (0, "1")
    assert report["threads"] in (None, 1)


def test_entry_keeps_a_users_blas_setting(tmp_path):
    rc, report = entry(*RENDER, cwd=tmp_path,
                       env={"OPENBLAS_NUM_THREADS": "2"})
    assert (rc, report["blas"]) == (0, "2")


def test_entry_freezes_what_the_run_leaves():
    rc, report = entry("parse", "--map", "F(-1, 1)")
    assert rc == 0 and report["frozen"] > 0


def test_main_in_process_keeps_environment_and_collector(tmp_path):
    rc, out, err = run_fresh("-c", (
        "import gc, json, os\n"
        "from expdyn import cli\n"
        "before = [dict(os.environ), gc.get_freeze_count()]\n"
        "codes = [cli.main(['parse', '--map', 'F(-1, 1)']),\n"
        f"         cli.main({list(RENDER)!r})]\n"
        "print(json.dumps([codes, [dict(os.environ), gc.get_freeze_count()]\n"
        "                         == before]))\n"), cwd=tmp_path, env=NO_BLAS)
    assert (rc, json.loads(out.splitlines()[-1])) == (0, [[0, 0], True]), err


def test_console_script_is_the_process_entry():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        scripts = fh.read().split("[project.scripts]", 1)[1]
    assert re.match(r'\s*expdyn = "expdyn\.cli:run"\n', scripts)


def test_verify_loads_numpy_and_keeps_its_bytes():
    assert run_fresh("-c", CLI, "verify", "--suite", "halfplane-bound",
                     "--samples", "50", "--seed", "3") == \
        (0, '{"suite_name": "halfplane-bound", "total": 50, "skipped": 0, '
            '"violations": [], "verdict": "pass"}\n',
         "loaded: numpy expdyn.orbits\n")


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


# ---------------------------------------------------------------------------
# the value types: what @dataclass(frozen=True) gave them
# ---------------------------------------------------------------------------

F11 = FamilyF(-1, 1)
G11 = FamilyG(-1, -1)
WINDOW = Window(0.0, 1.0, -1.0, 1.0)
W_REPR = "Window(x_min=0.0, x_max=1.0, y_min=-1.0, y_max=1.0)"
RIGHT = AbsorptionRule.RIGHT_HALF_PLANE_F

# (a value, its repr, a value of another type with the same fields); one
# row per value class
VALUES = [
    (F11, "FamilyF(lam=-1, xi=1)", FamilyG(-1, 1)),
    (G11, "FamilyG(mu=-1, zeta=-1)", FamilyF(-1, -1)),
    (ScaledExp(2), "ScaledExp(lam=2)", Escaping(2)),
    (Iterate(F11, 2), "Iterate(base=FamilyF(lam=-1, xi=1), s=2)",
     Shift(F11, 2)),
    (Shift(F11, 1j), "Shift(base=FamilyF(lam=-1, xi=1), c=1j)",
     Iterate(F11, 1j)),
    (Compose(F11, G11), "Compose(outer=FamilyF(lam=-1, xi=1), "
     "inner=FamilyG(mu=-1, zeta=-1))", StripId(F11, G11)),
    (Conjugate(2, 1, F11), "Conjugate(a=2, b=1, base=FamilyF(lam=-1, xi=1))",
     (2, 1, F11)),
    (Directed(800.0, 1.0), "Directed(log_modulus=800.0, angle=1.0)",
     complex(800.0, 1.0)),
    (IterationConfig(5), "IterationConfig(max_iter=5)", Escaping(5)),
    (WINDOW, W_REPR, (0.0, 1.0, -1.0, 1.0)),
    (Escaping(3), "Escaping(step=3)", Undetermined(3)),
    (NonEscapingProven(RIGHT, 2), "NonEscapingProven(rule=<AbsorptionRule."
     "RIGHT_HALF_PLANE_F: 'right-half-plane-F'>, step=2)", StripId(RIGHT, 2)),
    (BoundedAtBudget(), "BoundedAtBudget()", ()),
    (Undetermined("nan"), "Undetermined(reason='nan')", Escaping("nan")),
    (OrbitRecord(0j, (0j, Directed(701.0, 0.5)), BoundedAtBudget(), 1),
     "OrbitRecord(seed=0j, points=(0j, Directed(log_modulus=701.0, "
     "angle=0.5)), classification=BoundedAtBudget(), steps_taken=1)",
     (0j, (0j, Directed(701.0, 0.5)), BoundedAtBudget(), 1)),
    (EscapeField(WINDOW, 1, 1, np.array([69], dtype=np.uint8),
                 np.array([-1])),
     f"EscapeField(window={W_REPR}, nx=1, ny=1, "
     "kinds=array([69], dtype=uint8), steps=array([-1]))", None),
    # the points are left out of hash and repr
    (SampleSet(1, 1, WINDOW, np.array([0.5 + 0j])),
     f"SampleSet(seed=1, count=1, window={W_REPR})", (1, 1, WINDOW)),
    (StripId(1, Family.F), "StripId(k=1, family=<Family.F: 'F'>)",
     NonEscapingProven(1, Family.F)),
    (VerificationReport("disjointness", 3, [{"input": "1.0"}], 2),
     "VerificationReport(suite_name='disjointness', total=3, "
     "violations=[{'input': '1.0'}], skipped_undetermined=2)", None),
]
# whose fields hold an array or a list
UNHASHABLE = (EscapeField, VerificationReport)
# which check their fields in their own __init__
OWN_INIT = (Window, IterationConfig, EscapeField, SampleSet)


@pytest.mark.parametrize("value, text, twin", VALUES,
                         ids=[type(row[0]).__name__ for row in VALUES])
def test_value_semantics(value, text, twin):
    cls = type(value)
    names = cls.__match_args__
    fields = [getattr(value, name) for name in names]
    # the same constructor, positional and keyword
    for same in (cls(*fields), cls(**dict(zip(names, fields)))):
        assert same == value and not same != value
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(same)
        else:
            assert hash(same) == hash(value)
    # equal by exact type and field values only
    assert value != twin and twin != value
    assert value != tuple(fields) and value != object()
    assert repr(value) == text
    for name in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in names] == fields
    for twin_copy in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
        assert type(twin_copy) is cls and twin_copy == value
        assert repr(twin_copy) == text
    # arguments that do not bind to the fields: a TypeError naming the
    # class, from _Value's __init__ or a checking class's own
    assert ("__init__" in vars(cls)) == (cls in OWN_INIT)
    bad = [lambda: cls(*fields, 0), lambda: cls(*fields, other=0)]
    if names:
        bad.append(lambda: cls(*fields, **{names[0]: fields[0]}))
        if cls is not IterationConfig:  # max_iter defaults to 1000
            bad.append(lambda: cls(*fields[:-1]))
    for make in bad:
        with pytest.raises(TypeError, match=cls.__name__):
            make()


def test_every_value_class_is_pinned():
    # one row per class on the base, and no value carries a __dict__
    classes = [type(row[0]) for row in VALUES]
    assert set(classes) == set(expdyn.maps._Value.__subclasses__())
    assert len(set(classes)) == len(VALUES) == 19
    assert not any(hasattr(row[0], "__dict__") for row in VALUES)
