"""README's library example runs as written."""

import os
import re
import subprocess
import sys

from _reference import ROOT


def test_library_example_runs(tmp_path):
    # every ```python block of README, joined, under -W error, outside the
    # repository so that nothing but PYTHONPATH finds the package
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", "\n".join(blocks)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
