"""The traced scenarios behind Figures 2 and 3 and ``repro trace``.

Every trace is a :class:`~repro.scenario.Scenario` run with
``trace=True`` (:mod:`repro.trace.scenarios`), so every traced run is
judged; the figures are the run's tracer send log minus Raft traffic.
"""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.scenario import run
from repro.systems import SYSTEMS
from repro.trace.invariants import check_transaction
from repro.trace.scenarios import (SHAPES, STOP, figure_sends,
                                   render_figure, traced_scenario,
                                   traced_transactions)


@pytest.fixture(scope="module")
def basic_run():
    return run(traced_scenario("carousel-basic", "fig2", seed=7))


@pytest.fixture(scope="module")
def basic_trace(basic_run):
    return figure_sends(basic_run)


class TestTraceCapture:
    def test_trace_nonempty_and_ordered(self, basic_trace):
        assert basic_trace
        times = [m.send_ms for m in basic_trace]
        assert times == sorted(times)

    def test_raft_messages_filtered_by_default(self, basic_trace):
        assert not any(m.msg_type.startswith("AppendEntries")
                       or m.msg_type.startswith("RequestVote")
                       for m in basic_trace)

    def test_raft_messages_included_on_request(self, basic_run):
        # The run's own send log keeps the Raft traffic the figure drops.
        assert any(m.msg_type == "AppendEntries"
                   for m in basic_run.tracer.sends())

    def test_cross_dc_flag(self, basic_trace):
        assert any(m.cross_dc for m in basic_trace)
        assert any(not m.cross_dc for m in basic_trace)

    def test_message_types_helper(self, basic_trace):
        types = [m.msg_type for m in basic_trace]
        assert len(types) == len(basic_trace)
        assert "TxnReply" in types

    def test_render_contains_title_and_rows(self, basic_run, basic_trace):
        out = render_figure(basic_run, "My Title")
        lines = out.splitlines()
        assert lines[0] == "My Title"
        assert lines[1] == "=" * len("My Title")
        assert len(lines) == 2 + len(basic_trace)

    def test_traced_message_str(self, basic_run, basic_trace):
        wan = next(i for i, m in enumerate(basic_trace) if m.cross_dc)
        text = render_figure(basic_run, "t").splitlines()[2 + wan]
        assert basic_trace[wan].msg_type in text and "[WAN]" in text

    def test_fast_mode_has_fast_votes(self):
        trace = figure_sends(run(traced_scenario("carousel-fast", "fig2",
                                                 seed=7)))
        assert "FastVote" in [m.msg_type for m in trace]

    def test_trace_hook_removed_after_capture(self):
        # A second trace of the same seed repeats the first exactly.
        first = figure_sends(run(traced_scenario("basic", "fig2", seed=9)))
        second = figure_sends(run(traced_scenario("basic", "fig2", seed=9)))
        assert [(m.send_ms, m.src, m.dst, m.msg_type) for m in first] == \
            [(m.send_ms, m.src, m.dst, m.msg_type) for m in second]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("system", SYSTEMS)
def test_every_traced_shape_passes_the_judge(system, shape):
    result = run(traced_scenario(system, shape, txns=2))
    assert result.ok, [str(v) for v in result.violations]
    assert len(traced_transactions(result)) == 2


def test_read_only_row_increments_nothing():
    scenario = traced_scenario("basic", "read-only")
    (row,) = scenario.plan
    assert row[2] and row[3] == ()
    result = run(scenario)
    assert result.committed == 1
    assert result.history[0][0] == ()


@pytest.mark.parametrize("system", SYSTEMS)
def test_later_transactions_repeat_the_first(system):
    # The gap after each response lets the writebacks apply, so the
    # third transaction commits exactly like the first.
    txns = traced_transactions(run(traced_scenario(system, txns=3)))
    reports = [check_transaction(txn) for txn in txns]
    assert all(txn.committed for txn in txns)
    assert reports[2].variant == reports[0].variant
    assert txns[2].sequential_wanrt() == txns[0].sequential_wanrt()


def test_aborted_transaction_is_no_claim():
    # Back to back, the second transaction reads ahead of the first's
    # writeback and aborts: measured, but held to no claim.
    back_to_back = replace(traced_scenario("basic", txns=2),
                           stop=replace(STOP, gap_ms=0.0))
    txn = traced_transactions(run(back_to_back))[1]
    assert txn.committed is False
    report = check_transaction(txn)  # must not raise
    assert report.ok and not report.claimed
    assert report.variant == "carousel-basic"
    assert report.measured_wanrt == txn.sequential_wanrt()
    assert str(report).startswith("[no claim] carousel-basic: measured ")


def test_cli_trace_of_a_later_transaction(capsys):
    assert main(["trace", "--system", "basic", "--txn-id", "3"]) == 0
    assert "[ok] carousel-basic: measured 2 WANRT" in capsys.readouterr().out


def test_cli_slow_path_needs_a_leaderless_system(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["trace", "--system", "carousel-basic", "--slow-path"])
    assert exit_info.value.code == 2
    assert "--slow-path" in capsys.readouterr().err
    assert main(["trace", "--system", "tapir", "--slow-path"]) == 0
    assert "[ok] tapir-slow: measured 3 WANRT" in capsys.readouterr().out
