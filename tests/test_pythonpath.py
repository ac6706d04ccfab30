import os
import subprocess
import sys

import pytest

import expdyn
from conftest import SRC


def test_expdyn_is_from_pythonpath_else_src():
    # the first PYTHONPATH entry holding an expdyn, else this checkout's src
    dirs = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
            if p and os.path.isdir(os.path.join(p, "expdyn"))] + [SRC]
    assert os.path.samefile(os.path.dirname(expdyn.__file__),
                            os.path.join(dirs[0], "expdyn"))


@pytest.mark.parametrize("stub", [True, False])
def test_pythonpath_decides_which_expdyn(tmp_path, stub):
    # pytest in a subprocess with PYTHONPATH on a stub expdyn, or on a
    # directory without one
    if stub:
        (tmp_path / "expdyn").mkdir()
        (tmp_path / "expdyn" / "__init__.py").write_text(
            'print("stub expdyn imported")\n')
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         f"{__file__}::test_expdyn_is_from_pythonpath_else_src"],
        cwd=os.path.dirname(SRC), env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert ("stub expdyn imported" in run.stdout) == stub
