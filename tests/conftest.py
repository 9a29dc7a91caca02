from __future__ import annotations

import pathlib

import pytest

from gluesem.fstruct import parse_fstructure
from gluesem.lexicon import parse_lexicon

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# The acceptance criteria's PASS/FAIL lines, printed after the run whatever
# the capture mode.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def lexicon():
    return parse_lexicon(
        (FIXTURES / "core.lex").read_text(encoding="utf-8"), source="core.lex"
    )


def load_fs(name: str):
    return parse_fstructure(
        (FIXTURES / name).read_text(encoding="utf-8"), source=name
    )


@pytest.fixture()
def bah():
    return load_fs("bah.fs")


@pytest.fixture()
def modified():
    return load_fs("modified.fs")


@pytest.fixture()
def everyone_fs():
    return load_fs("everyone.fs")


@pytest.fixture()
def scope_fs():
    return load_fs("scope.fs")


@pytest.fixture()
def ditransitive_fs():
    return load_fs("ditransitive_scope.fs")
