"""tools/ab_ops.py: the in-process A/B times each op on both sides and stops at
the first op whose exit code, stdout or stderr differ."""

import sys
from pathlib import Path

import pytest

import xxring.cli as cli

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
try:
    import ab_ops
    from workloads import make_op
finally:
    del sys.path[:2]


@pytest.mark.parametrize("workload", ["surface", "propositions"])
def test_equal_sides_give_one_ratio_per_op(workload):
    ratios = ab_ops.compare(cli.main, cli.main, make_op, workload, 1, 4)
    assert len(ratios) == 4 and all(ratio > 0 for ratio in ratios)


def test_a_moved_byte_stops_the_comparison():
    def moved(argv):
        code = cli.main(argv)
        print()
        return code

    with pytest.raises(AssertionError, match="op 0"):
        ab_ops.compare(cli.main, moved, make_op, "surface", 1, 4)
