import os
import pathlib
import re
import subprocess
import sys

import subreglab

SRC = pathlib.Path(subreglab.__file__).parents[1]
README = SRC.parent / "README.md"


def test_readme_quick_start_runs():
    """README.md's python block runs as written and prints what it says."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "1.0 flat True\n"
