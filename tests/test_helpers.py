import os

import numpy as np
import pytest

import epifield.helpers
from epifield.helpers import Helpers, helper_count


@pytest.fixture
def cgroup(monkeypatch, tmp_path):
    """cgroup(cpu_max) puts this process in cgroup v2 group /box, whose cpu.max reads cpu_max
    (None: no such file), and makes 8 CPUs usable by affinity."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(epifield.helpers, "MAX_PROCESSES", 64)
    proc_cgroup = tmp_path / "cgroup"
    proc_cgroup.write_text("1:cpu,cpuacct:/elsewhere\n0::/box\n")
    monkeypatch.setattr(epifield.helpers, "PROC_CGROUP", str(proc_cgroup))
    monkeypatch.setattr(epifield.helpers, "CGROUP_ROOT", str(tmp_path))
    (tmp_path / "box").mkdir()

    def write(cpu_max):
        if cpu_max is not None:
            (tmp_path / "box" / "cpu.max").write_text(cpu_max + "\n")

    return write


class TestHelperCount:
    @pytest.mark.parametrize("cpu_max, helpers", [
        ("300000 100000", 2), ("250000 100000", 1), ("50000 100000", 0), ("max 100000", 7), (None, 7),
    ], ids=["three_cpus", "two_and_a_half", "half_a_cpu", "max", "no_file"])
    def test_a_cgroup_v2_quota_caps_the_usable_cpus(self, cgroup, cpu_max, helpers):
        cgroup(cpu_max)
        assert helper_count(200) == helpers

    def test_without_a_cgroup_v2_entry_the_affinity_decides(self, cgroup, tmp_path):
        cgroup("100000 100000")
        (tmp_path / "cgroup").write_text("1:cpu,cpuacct:/box\n")  # cgroup v1 only
        assert helper_count(200) == 7


class TestMap:
    def test_runs_block_zero_here_and_the_rest_in_helpers(self):
        with Helpers(lambda block: (block, os.getpid()), 2) as helpers:
            results = helpers.map(list("abcdefg"))
        assert [block for block, _ in results] == [list("abc"), list("de"), list("fg")]
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid() and len(set(pids)) == 3

    def test_splits_like_array_split(self):
        with Helpers(list, 3) as helpers:
            for n in range(10):  # down to fewer items than processes, and none
                expected = [block.tolist() for block in np.array_split(np.arange(n), 4)]
                assert helpers.map(range(n)) == expected, n
