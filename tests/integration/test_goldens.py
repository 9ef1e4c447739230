"""Every cell of the golden matrix reproduces its recorded digest exactly.

The digests pin summary lines, ``repr`` of latency percentiles and
makespan, per-rank op counts, every balancing decision, and the fault and
lifecycle traces (see :mod:`tests.integration.goldens.matrix`).  They were
first recorded down both the optimized and the straight-line reference
code paths, which agreed on every cell; the reference paths have since been
deleted and these digests are the guard in their place.

A mismatch on a different Python or numpy than the recording may be an
RNG stream change rather than a regression: the failure message names both
versions so the two can be told apart (docs/PERFORMANCE.md, "Golden
digests").  The comparison is never skipped.
"""

import pytest

from tests.integration.goldens import matrix

GOLDENS = matrix.load()
CELLS = {cell.name: cell for cell in matrix.cells()}


def test_golden_file_covers_the_matrix():
    assert list(GOLDENS["cells"]) == list(CELLS)


@pytest.mark.parametrize("name", list(CELLS))
def test_golden_cell(name):
    expected = GOLDENS["cells"][name]
    actual = matrix.digest(CELLS[name].run())
    if actual == expected:
        return
    recorded = {key: GOLDENS[key] for key in matrix.versions()}
    first = next((i for i, (a, b) in enumerate(zip(actual, expected))
                  if a != b), min(len(actual), len(expected)))
    pytest.fail(
        f"cell {name!r} diverged from its golden digest at line {first}\n"
        f"  recorded: {expected[first] if first < len(expected) else '<end>'}\n"
        f"  running:  {actual[first] if first < len(actual) else '<end>'}\n"
        f"  recorded under {recorded}, running under {matrix.versions()}"
    )
