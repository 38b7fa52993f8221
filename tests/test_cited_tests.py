"""Every test that the package, README.md or ROADMAP.md cites by name exists.

A citation is any ``test_<name>`` word in ``src/tevdeg/*.py``,
``README.md`` or ``ROADMAP.md``: evidence such as the lemma tests the
README names.  It must be a ``def test_<name>`` under ``tests/`` or in
``bench/selftest.py``, or a module ``tests/test_<name>.py``, so a renamed
test cannot leave a citation behind.  CHANGES.md is history and is not
read.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CITING = [*sorted((ROOT / "src" / "tevdeg").glob("*.py")), ROOT / "README.md", ROOT / "ROADMAP.md"]
TEST_SOURCES = [*sorted((ROOT / "tests").rglob("*.py")), ROOT / "bench" / "selftest.py"]


def _cited() -> dict[str, str]:
    """Each cited name, with the first file that cites it."""
    cited = {}
    for path in CITING:
        for name in re.findall(r"\btest_\w+", path.read_text(encoding="utf-8")):
            cited.setdefault(name, path.name)
    return cited


def _tests() -> set[str]:
    """The test functions under ``tests/`` and in ``bench/selftest.py``,
    and the test modules under ``tests/``."""
    names = {path.stem for path in (ROOT / "tests").glob("test_*.py")}
    for path in TEST_SOURCES:
        names.update(node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"))
    return names


def test_every_cited_test_exists():
    cited = _cited()
    assert cited
    tests = _tests()
    assert sorted(f"{name} (in {path})" for name, path in cited.items()
                  if name not in tests) == []
