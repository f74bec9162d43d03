"""The package namespace: lazy exports that resolve to their home modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bindet


@pytest.mark.parametrize("name", bindet.__all__)
def test_export_is_the_home_module_object(name):
    obj = getattr(bindet, name)
    assert obj.__module__.startswith("bindet.")
    assert vars(sys.modules[obj.__module__])[name] is obj


def test_star_import_binds_every_export():
    namespace = {}
    exec("from bindet import *", namespace)
    for name in bindet.__all__:
        assert namespace[name] is getattr(bindet, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bindet.no_such_name
    assert not hasattr(bindet, "numpy")


def test_bare_import_loads_no_submodule_and_no_numpy():
    script = ("import sys, bindet\n"
              "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('bindet')))")
    env = {**os.environ, "PYTHONPATH": str(Path(bindet.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['bindet']"
