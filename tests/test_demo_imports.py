"""Every name a demo or a script imports from meanfieldlab still exists.

The demos are narrative scripts, and `scripts/*.py` are tools run by hand;
no other test runs them, so a removed or renamed public name would
otherwise surface only when someone runs one.  Each `demos/*.py` and
`scripts/*.py` is parsed with `ast`, not executed: the check resolves the
`from meanfieldlab... import ...` names and the `import meanfieldlab...`
modules, and takes well under a second.  Each demo, which runs in under a
second, is also run, so a stale call in one fails here too.
"""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
SCRIPTS = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.py")))


def _imports(path):
    """(module, name) for each meanfieldlab import in the file; name None for a module."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "meanfieldlab":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "meanfieldlab":
                    yield alias.name, None


def test_there_are_demos():
    assert len(DEMOS) >= 4
    assert len(SCRIPTS) >= 2


@pytest.mark.parametrize("path", DEMOS + SCRIPTS, ids=os.path.basename)
def test_demo_imports_resolve(path):
    imports = list(_imports(path))
    assert imports, f"{path} imports nothing from meanfieldlab"
    missing = []
    for module, name in imports:
        owner = importlib.import_module(module)
        if name is not None and not hasattr(owner, name):
            try:  # a submodule imported by name
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{module}.{name}")
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_the_demo_runs(path, tmp_path):
    # in a scratch directory, since a demo may write its plot where it runs
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, path], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
