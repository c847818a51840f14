"""README's library overview runs as written.

The one ```python block of README.md is the documented way into the
library.  It needs only the package and numpy, so the numpy-only CI job
runs this file against the installed package without scipy.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_python_block():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return block


def test_readme_library_overview_runs():
    exec(compile(readme_python_block(), str(README), "exec"), {})
