"""The README's Library example runs, and gives the values its comments claim.

The python block under "## Library" is executed line by line in one
namespace.  A line ending in a comment such as ``# 216, with validity
flags`` is evaluated, and its value must equal the literal that opens the
comment; every other line is executed as it stands.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> list[str]:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README Library section has no python block"
    return block.group(1).splitlines()


def test_readme_library_example_values():
    namespace: dict = {}
    checked = []
    for line in _library_block():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if not comment:
            exec(code, namespace)
            continue
        want = ast.literal_eval(re.match(r"\s*([^\s,;(]+)", comment).group(1))
        got = eval(code, namespace)
        assert got == want and type(got) is type(want), (line, got)
        checked.append(want)
    assert checked == [216, 216, 6001128, 8, 9, True]
