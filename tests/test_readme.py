"""The README's library example runs as written, so a name it uses cannot
be deleted from the package while the docs still show it."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    text = README.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, flags=re.S))
    assert blocks
    for block in blocks:
        # pad with blank lines so tracebacks point at README line numbers
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("converged")
