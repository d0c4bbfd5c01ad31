"""tools/ab_ops.py: the in-process A/B times each op on both sides, then
reports every op whose exit code, stdout or stderr differ."""

import sys
from pathlib import Path

import pytest

import xxring.cli as cli
from test_cli_golden import CORPUS

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
try:
    import ab_ops
    from workloads import make_op
finally:
    del sys.path[:2]


@pytest.mark.parametrize("workload", ["surface", "propositions", "cold_cli"])
def test_equal_sides_give_one_ratio_per_op(workload):
    times = ab_ops.compare(cli.main, cli.main, *ab_ops.workload_argvs(make_op, workload, 1, 4))
    ratios = [work / base for base, work in times]
    assert len(ratios) == 4 and all(ratio > 0 for ratio in ratios)


def test_corpus_compares_every_golden_command_byte_for_byte():
    warmup, argvs = ab_ops.corpus_argvs()
    assert argvs == [command.split() for command in CORPUS] and warmup == argvs[0]
    # refusals included: argparse's exit is read as a code
    assert len(ab_ops.compare(cli.main, cli.main, warmup, argvs)) == len(CORPUS)


def test_summary_gives_each_sides_budget_and_the_ratio_quartiles():
    # (base, working tree) seconds: ratios 0.5, 0.5, 2 and 0.25
    times = [(1e-3, 0.5e-3), (2e-3, 1e-3), (1e-3, 2e-3), (4e-3, 1e-3)]
    assert ab_ops.summary(times) == (
        "4 ops, outputs equal; median per op: base 1500.0 us, working tree 1000.0 us; "
        "median ratio 0.500 (quartiles 0.312, 1.625), 3/4 faster")


def test_a_moved_byte_stops_the_comparison():
    warmup, argvs = ab_ops.workload_argvs(make_op, "surface", 1, 4)

    def moved(argv):
        code = cli.main(argv)
        if tuple(argv) in (argvs[1], argvs[3]):
            print()
        return code

    # every op runs before the one error, which names both moved ops
    message = r"^2 of 4 ops differ: op 1 \(sweep .*\); op 3 \(sweep .*\); first: "
    with pytest.raises(AssertionError, match=message):
        ab_ops.compare(cli.main, moved, warmup, argvs)


def _printing(text):
    """A main that prints text and exits 0."""
    def main(argv):
        print(text)
        return 0
    return main


@pytest.mark.parametrize("moved, byte_equal, at_rtol", [
    ("U = 0.500000000000001", False, True),
    ("U = 0.500000001", False, False),
    ("V = 0.5", False, False),
    ("U = 0.5", True, True),
], ids=["roundoff", "beyond_rtol", "text", "unmoved"])
def test_rtol_compares_numbers_at_the_tolerance_and_text_exactly(moved, byte_equal, at_rtol):
    argvs = [["thermal"], ["ground"]]
    for rtol, passes in ((None, byte_equal), (1e-12, at_rtol)):
        if passes:
            assert len(ab_ops.compare(_printing("U = 0.5"), _printing(moved), argvs[0], argvs, rtol)) == 2
        else:
            with pytest.raises(AssertionError, match="^2 of 2 ops differ"):
                ab_ops.compare(_printing("U = 0.5"), _printing(moved), argvs[0], argvs, rtol)
