"""Import footprint: closed forms replace every numerical solver."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import freshopt


def test_no_solver_submodules_loaded():
    src = str(Path(freshopt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys, freshopt, freshopt.cli; "
             "print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
