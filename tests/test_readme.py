"""README's library example runs, and its API list is the package's __all__."""

import doctest
import re
from pathlib import Path

import eqspace

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_as_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_api_list_equals_all():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.MULTILINE)
    listed = {name for item in bullets for name in re.findall(r"`(\w+)`", item)}
    assert listed == set(eqspace.__all__)
    assert len(eqspace.__all__) == len(set(eqspace.__all__))
