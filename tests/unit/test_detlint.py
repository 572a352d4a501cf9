"""detlint rule tests: positive, negative, and suppression per rule.

Each fixture is a minimal snippet exhibiting (or deliberately avoiding)
one bug class.  The regression fixture at the bottom replays the PR 1
coordinator-writeback bug — iterating an unsorted set difference in a
send loop — and asserts detlint catches it.
"""

import textwrap
from pathlib import Path

from repro.analysis import RULES, lint_paths, lint_source
from repro.analysis.detlint import LintConfig, lint_file


def codes(source, path="src/repro/x.py", **kwargs):
    """Lint a snippet, return the sorted list of finding codes."""
    findings = lint_source(textwrap.dedent(source), path=path, **kwargs)
    return sorted(f.rule.code for f in findings)


# ----------------------------------------------------------------------
# DL001 set-iter-send / DL002 set-iter
# ----------------------------------------------------------------------
def test_set_iteration_in_send_loop_is_error():
    src = """
    def fanout(self, pending):
        targets = set(pending)
        for node in targets:
            self.send(node, "msg")
    """
    assert codes(src) == ["DL001"]


def test_set_literal_iteration_without_send_is_warning():
    src = """
    def tally(self):
        seen = {1, 2, 3}
        for item in seen:
            self.counts.append(item)
    """
    assert codes(src) == ["DL002"]


def test_sorted_set_iteration_is_clean():
    src = """
    def fanout(self, pending):
        targets = set(pending)
        for node in sorted(targets):
            self.send(node, "msg")
    """
    assert codes(src) == []


def test_set_difference_in_send_loop_is_error():
    src = """
    def retry(self, members, acked):
        for node in set(members) - acked:
            self.send(node, "retry")
    """
    assert codes(src) == ["DL001"]


def test_reduction_over_set_is_clean():
    src = """
    def count(self, pending):
        outstanding = set(pending)
        return sum(1 for p in outstanding if p.live)
    """
    assert codes(src) == []


def test_list_iteration_is_clean():
    src = """
    def fanout(self, pending):
        for node in list(pending):
            self.send(node, "msg")
    """
    assert codes(src) == []


def test_set_typed_parameter_is_tracked():
    src = """
    from typing import Set

    def fanout(self, targets: Set[str]):
        for node in targets:
            self.send(node, "msg")
    """
    assert codes(src) == ["DL001"]


# ----------------------------------------------------------------------
# DL003 wallclock
# ----------------------------------------------------------------------
def test_wallclock_call_is_error():
    src = """
    import time

    def stamp(self):
        return time.time()
    """
    assert codes(src) == ["DL003"]


def test_wallclock_allowed_under_bench():
    src = """
    import time

    def stamp(self):
        return time.perf_counter()
    """
    assert codes(src, path="src/repro/bench/report.py") == []


def test_wallclock_allowed_under_perf():
    src = """
    import time

    def measure(self):
        return time.perf_counter()
    """
    assert codes(src, path="src/repro/perf/suites.py") == []


def test_wallclock_still_fires_outside_perf_and_bench():
    src = """
    import time

    def measure(self):
        return time.perf_counter()
    """
    for path in ("src/repro/sim/kernel.py", "src/repro/core/server.py",
                 "src/repro/workloads/driver.py"):
        assert codes(src, path=path) == ["DL003"]


def test_datetime_now_is_error():
    src = """
    import datetime

    def stamp(self):
        return datetime.datetime.now()
    """
    assert codes(src) == ["DL003"]


# ----------------------------------------------------------------------
# DL004 unseeded-random
# ----------------------------------------------------------------------
def test_module_level_random_is_error():
    src = """
    import random

    def jitter(self):
        return random.uniform(0, 1)
    """
    assert codes(src) == ["DL004"]


def test_kernel_random_is_clean():
    src = """
    def jitter(self):
        return self.kernel.random.uniform(0, 1)
    """
    assert codes(src) == []


def test_from_random_import_is_error():
    src = """
    from random import uniform
    """
    assert codes(src) == ["DL004"]


def test_random_allowed_in_kernel_and_workloads():
    src = """
    import random

    def make_rng(seed):
        return random.Random(seed)
    """
    assert codes(src, path="src/repro/sim/kernel.py") == []
    assert codes(src, path="src/repro/workloads/ycsb.py") == []


# ----------------------------------------------------------------------
# DL005 values-fanout
# ----------------------------------------------------------------------
def test_dict_values_fanout_is_warning():
    src = """
    def fanout(self, states):
        for state in states.values():
            self.send(state.node, "msg")
    """
    assert codes(src) == ["DL005"]


def test_dict_items_fanout_through_list_copy_is_warning():
    src = """
    def fanout(self, states):
        for key, state in list(states.items()):
            self.send(state.node, "msg")
    """
    assert codes(src) == ["DL005"]


def test_sorted_items_fanout_is_clean():
    src = """
    def fanout(self, states):
        for key, state in sorted(states.items()):
            self.send(state.node, "msg")
    """
    assert codes(src) == []


def test_dict_values_without_send_is_clean():
    src = """
    def total(self, states):
        acc = 0
        for state in states.values():
            acc += state.count
        return acc
    """
    assert codes(src) == []


# ----------------------------------------------------------------------
# DL006 set-payload
# ----------------------------------------------------------------------
def test_set_into_message_constructor_is_error():
    src = """
    def build(self, keys):
        pending = set(keys)
        return PrepareRequest(keys=pending)
    """
    assert codes(src) == ["DL006"]


def test_frozenset_sorted_payload_is_clean():
    src = """
    def build(self, keys):
        pending = set(keys)
        return PrepareRequest(keys=tuple(sorted(pending)))
    """
    assert codes(src) == []


# ----------------------------------------------------------------------
# DL007 nondet-source
# ----------------------------------------------------------------------
def test_uuid4_is_error():
    src = """
    import uuid

    def tid(self):
        return str(uuid.uuid4())
    """
    assert codes(src) == ["DL007"]


def test_os_urandom_and_getpid_are_errors():
    src = """
    import os

    def entropy(self):
        return os.urandom(8), os.getpid()
    """
    assert codes(src) == ["DL007", "DL007"]


def test_secrets_import_is_error():
    src = """
    from secrets import token_hex
    """
    assert codes(src) == ["DL007"]


# ----------------------------------------------------------------------
# sweep/ allowlist: the executor measures from outside the kernel
# ----------------------------------------------------------------------
def test_wallclock_and_getpid_allowed_in_sweep():
    src = """
    import os
    import time

    def measure():
        start = time.perf_counter()
        tmp = f".tmp{os.getpid()}"
        return time.perf_counter() - start, tmp
    """
    assert codes(src, path="src/repro/sweep/executor.py") == []


def test_wallclock_flagged_in_wal():
    # The WAL runs on virtual time only: its stamps decide what a crash
    # keeps, so a wall-clock read there would make crashes host-dependent.
    src = """
    import time

    def fsync(self):
        return time.time()
    """
    assert codes(src, path="src/repro/wal/log.py") == ["DL003"]


def test_wallclock_and_random_allowed_in_runtime():
    # runtime/ is the asyncio/TCP backend: the wall clock is its
    # kernel.now and its per-process RNGs are string-seeded from the
    # run seed (`Random(f"{proc}:{seed}")`), so both sources are the
    # design there — the DES-differential conformance harness is what
    # polices the behaviour instead.
    src = """
    import random
    import time

    def clock_and_rng(self, proc, seed):
        return time.monotonic(), random.Random(f"{proc}:{seed}")
    """
    for path in ("src/repro/runtime/aio.py",
                 "src/repro/runtime/conformance.py"):
        assert codes(src, path=path) == []


def test_wallclock_and_random_still_flagged_outside_runtime():
    # The runtime/ allowlist must not leak into protocol code: the same
    # snippet one directory over is still a double determinism error.
    src = """
    import random
    import time

    def clock_and_rng(self, proc, seed):
        return time.monotonic(), random.Random(f"{proc}:{seed}")
    """
    for path in ("src/repro/core/client.py", "src/repro/sim/network.py",
                 "src/repro/tapir/replica.py"):
        assert codes(src, path=path) == ["DL003", "DL004"]


def test_wallclock_still_flagged_next_to_wal():
    # The allowlist covers wal/ itself, not its consumers.
    src = """
    import time

    def stamp(self):
        return time.perf_counter()
    """
    for path in ("src/repro/raft/node.py", "src/repro/sim/node.py",
                 "src/repro/chaos/runner.py"):
        assert codes(src, path=path) == ["DL003"]


def test_wallclock_still_flagged_in_protocol_code():
    src = """
    import time

    def now(self):
        return time.time()
    """
    assert codes(src, path="src/repro/core/coordinator.py") == ["DL003"]


def test_getpid_still_flagged_in_protocol_code():
    src = """
    import os

    def worker_id(self):
        return os.getpid()
    """
    assert codes(src, path="src/repro/core/coordinator.py") == ["DL007"]


# ----------------------------------------------------------------------
# DL008 id-hash-order
# ----------------------------------------------------------------------
def test_sort_key_id_is_error():
    src = """
    def order(self, nodes):
        return sorted(nodes, key=id)
    """
    assert codes(src) == ["DL008"]


def test_sort_key_hash_lambda_is_error():
    src = """
    def order(self, nodes):
        nodes.sort(key=lambda n: hash(n.name))
    """
    assert codes(src) == ["DL008"]


def test_sort_key_attribute_is_clean():
    src = """
    def order(self, nodes):
        return sorted(nodes, key=lambda n: n.node_id)
    """
    assert codes(src) == []


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------
def test_inline_suppression_by_slug():
    src = """
    def fanout(self, states):
        for state in states.values():  # detlint: ignore[values-fanout]
            self.send(state.node, "msg")
    """
    assert codes(src) == []


def test_comment_line_above_suppresses_next_line():
    src = """
    def fanout(self, states):
        # detlint: ignore[DL005]
        for state in states.values():
            self.send(state.node, "msg")
    """
    assert codes(src) == []


def test_bare_suppression_covers_all_rules():
    src = """
    def fanout(self, pending):
        targets = set(pending)
        for node in targets:  # detlint: ignore
            self.send(node, "msg")
    """
    assert codes(src) == []


def test_suppression_names_wrong_rule_does_not_apply():
    src = """
    def fanout(self, pending):
        targets = set(pending)
        for node in targets:  # detlint: ignore[wallclock]
            self.send(node, "msg")
    """
    assert codes(src) == ["DL001"]


def test_keep_suppressed_reports_anyway():
    src = """
    def fanout(self, states):
        for state in states.values():  # detlint: ignore[values-fanout]
            self.send(state.node, "msg")
    """
    assert codes(src, keep_suppressed=True) == ["DL005"]


# ----------------------------------------------------------------------
# Regression: the PR 1 coordinator-writeback bug class
# ----------------------------------------------------------------------
def test_pr1_writeback_set_iteration_bug_is_caught():
    # Replays the original coordinator._send_writebacks bug: iterating
    # an unsorted set difference while sending Writeback messages.
    src = """
    def _send_writebacks(self, state):
        outstanding = set(state.participants) - state.writeback_acks
        for pid in outstanding:
            leader = self.directory.lookup(pid).leader
            self.send(leader, Writeback(tid=state.tid, partition_id=pid))
    """
    assert codes(src) == ["DL001"]


def test_pr1_fixed_form_is_clean():
    src = """
    def _send_writebacks(self, state):
        outstanding = set(state.participants) - state.writeback_acks
        for pid in sorted(outstanding):
            leader = self.directory.lookup(pid).leader
            self.send(leader, Writeback(tid=state.tid, partition_id=pid))
    """
    assert codes(src) == []


# ----------------------------------------------------------------------
# Whole-tree gates and plumbing
# ----------------------------------------------------------------------
def test_rules_table_is_consistent():
    assert len(RULES) == 8
    for code, rule in RULES.items():
        assert code == rule.code
        assert rule.severity in ("error", "warning")
        assert rule.summary


def test_src_tree_is_clean():
    import repro
    src_dir = Path(repro.__file__).resolve().parents[1]
    findings = lint_paths([str(src_dir)])
    formatted = "\n".join(f.format() for f in findings)
    assert findings == [], f"detlint findings in src/:\n{formatted}"


def test_lint_file_reads_from_disk(tmp_path):
    target = tmp_path / "snippet.py"
    target.write_text(
        "def f(self, s):\n"
        "    for x in set(s):\n"
        "        self.send(x, 'm')\n")
    findings = lint_file(str(target))
    assert [f.rule.code for f in findings] == ["DL001"]
    assert findings[0].line == 2


def test_lint_config_custom_allowlist():
    src = textwrap.dedent("""
    import time

    def stamp(self):
        return time.time()
    """)
    config = LintConfig(wallclock_allowed=("special/",))
    findings = lint_source(src, path="src/special/x.py", config=config)
    assert findings == []
