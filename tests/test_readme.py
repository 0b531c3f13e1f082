"""The python examples of README.md run, in order, in one shared namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S))
    assert blocks, "README.md has no python examples"
    namespace = {"__name__": "readme"}
    for block in blocks:
        # pad with the lines before the block, so tracebacks give README line numbers
        lines_before = text.count("\n", 0, block.start(1))
        source = "\n" * lines_before + block.group(1)
        exec(compile(source, str(README), "exec"), namespace)
