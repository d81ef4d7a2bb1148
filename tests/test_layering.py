"""The import graph has one direction: stdnorm <- probit <- heckman <- replicate/synth
<- cli, with panel and specs as the data layer and render as a leaf.  Each check
imports one module in a fresh interpreter and reads what it loaded; where another
module loads the same one anyway, the check reads the source instead."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# module: (the only vaxsel modules its import may load, or None for no limit,
#          the third-party packages it may not load)
LAYERS = {
    "vaxsel": ({"vaxsel"}, {"numpy", "scipy", "yaml"}),
    "vaxsel.render": ({"vaxsel", "vaxsel.render"}, {"numpy", "scipy", "yaml"}),
    "vaxsel.panel": (None, {"scipy", "yaml"}),
    "vaxsel.specs": (None, {"scipy"}),
    "vaxsel.stdnorm": (None, {"yaml"}),
    "vaxsel.probit": (None, {"yaml"}),
    "vaxsel.heckman": (None, {"yaml"}),
    "vaxsel.cli": (None, {"yaml"}),
}


def loaded_by(module):
    """The names in sys.modules after `import module` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, check=True,
    )
    return set(proc.stdout.split())


@pytest.mark.parametrize("module", LAYERS)
def test_import_loads_only_the_layers_below(module):
    own, banned = LAYERS[module]
    loaded = loaded_by(module)
    if own is not None:
        assert sorted(m for m in loaded if m.split(".")[0] == "vaxsel") == sorted(own)
    assert sorted(banned & loaded) == []


def test_replicate_leaves_all_text_to_render():
    # panel loads render for csv_quote, so a fresh interpreter shows render either way
    tree = ast.parse((SRC / "vaxsel" / "replicate.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {f"{node.module}.{alias.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(m for m in imported if m.startswith("vaxsel.render")) == []


def test_replicate_runs_where_yaml_cannot_be_imported(tmp_path):
    # a None entry in sys.modules makes `import yaml` raise ImportError
    script = ("import sys; sys.modules['yaml'] = None; from vaxsel.cli import main; "
              f"sys.exit(main(['replicate', '--out', {str(tmp_path)!r}]))")
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr.count("error:")) == (0, 0), proc.stderr
    assert (tmp_path / "report" / "replication_diff.md").exists()
