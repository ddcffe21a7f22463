"""Each script in demos/, and README's quick start, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((PKG_ROOT / "demos").glob("*.py"))


def checkout_files() -> set[Path]:
    return {
        p.relative_to(PKG_ROOT) for p in PKG_ROOT.rglob("*")
        if p.is_file() and ".git" not in p.parts and "__pycache__" not in p.parts
    }


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the subprocess imports this checkout's package, whatever the caller's path
    path = [str(PKG_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    before = checkout_files()
    # a package warning fails the demo, as filterwarnings does in-process
    proc = subprocess.run([sys.executable, "-W", "error::UserWarning", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert checkout_files() - before == set()


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    # the documented calls and names stay the library's
    readme = (PKG_ROOT / "README.md").read_text()
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme,
                     re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
