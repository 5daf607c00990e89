"""Shared pytest plumbing: cold memos per test, and acceptance criteria that
print one summary line each."""

import pytest

from ramseykit import storage, witnesses

_acceptance_lines: list[str] = []


# each process memo in ramseykit, as (module, name), and what empties it
MEMOS = {
    (storage, "_LINES"): storage._forget,
}


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with the process memos and the small-enumeration
    cache empty, so that none passes only because an earlier test warmed
    them.  Returns MEMOS."""
    for forget in MEMOS.values():
        forget()
    witnesses._small_stream.cache_clear()
    return MEMOS


@pytest.fixture
def criterion():
    """Record one acceptance-criterion claim; asserts it and saves the line
    for the end-of-run summary."""

    def report(label: str, ok: bool, detail: str) -> None:
        line = f"{label}: {'PASS' if ok else 'FAIL'} - {detail}"
        _acceptance_lines.append(line)
        print(line)
        assert ok, line

    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
