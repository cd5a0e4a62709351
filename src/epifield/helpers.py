"""Forked helper processes that run one callable on blocks of work beside this process.

Both parallel sections of epifield use it: each Adam step's ELBO draws
(`vi.fit_mfvi`) and the members of a posterior-predictive ensemble
(`forecast.sample_ppt`).  Helpers run the copy of the callable that existed
when they were forked, and only the blocks and the callable's results cross
the pipes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import traceback

# Processes one parallel section uses at most, itself and its helpers.  One helper is
# the only count whose speed and memory were measured (on 2 vCPUs); more stay
# unused until they are.
MAX_PROCESSES = 2

# Where the cgroup v2 CPU quota is read: the process's cgroup, and the unified hierarchy's mount.
PROC_CGROUP = "/proc/self/cgroup"
CGROUP_ROOT = "/sys/fs/cgroup"


def _quota_cpus():
    """The CPUs that the cgroup v2 `cpu.max` of this process's cgroup allows: floor(quota / period),
    at least 1; None when the quota is "max" or there is no such file (cgroup v1, say)."""
    try:
        with open(PROC_CGROUP) as fh:
            path = next(line[3:].strip() for line in fh if line.startswith("0::"))
        with open(os.path.join(CGROUP_ROOT, path.lstrip("/"), "cpu.max")) as fh:
            quota, period = fh.read().split()
        if quota == "max":
            return None
        return max(int(quota) // int(period), 1)
    except (OSError, StopIteration, ValueError):
        return None


def helper_count(n_items):
    """How many helpers a section of n_items draws or members gets:
    min(usable CPUs, n_items, MAX_PROCESSES) - 1, where usable CPUs is the CPU affinity count,
    lowered to a cgroup v2 CPU quota if one is set.  It is 0 where the `fork` start method or
    the CPU affinity call is missing, or in a daemonic process (a `multiprocessing.Pool` worker,
    say), which may not start any."""
    if (not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 0
    cpus = len(os.sched_getaffinity(0))
    quota = _quota_cpus()
    if quota is not None:
        cpus = min(cpus, quota)
    return min(cpus, n_items, MAX_PROCESSES) - 1


class _HelperTraceback(Exception):
    """The traceback of an error raised in a helper: the cause of its re-raise in the parent."""


def _portable(exc):
    """(exc, its traceback text), with exc replaced by a RuntimeError if it would not unpickle as itself."""
    text = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc, text


def _serve(conn, work, parent_ends):
    """A helper's loop: answer each block from the pipe with work(block) until the parent closes it.

    An answer is (result, None), or (None, (error, traceback text)) when work raised.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    # Closing the inherited parent ends lets the parent's close reach this helper as EOF.
    for end in parent_ends:
        end.close()
    while True:
        try:
            block = conn.recv()
        except EOFError:
            return
        try:
            reply = (work(block), None)
        except Exception as exc:
            reply = (None, _portable(exc))
        try:
            conn.send(reply)
        except BrokenPipeError:
            return


def _exited(proc):
    """The error for a helper that went away without answering, naming its exit code."""
    proc.join(5.0)
    return RuntimeError(f"helper process {proc.pid} exited with code {proc.exitcode} without answering")


class Helpers:
    """n_helpers forked processes that run `work` on the blocks they are sent, each through its own pipe.

    Each helper runs the copy of `work` (and of everything it reaches) that
    existed when it was forked, so work must not depend on state the parent
    changes later.  Used as a context manager: leaving it closes the pipes
    and joins the helpers.  With no helpers, `map` runs work here.
    """

    def __init__(self, work, n_helpers):
        self.work = work
        self._conns, self._procs = [], []
        try:
            for _ in range(n_helpers):
                fork = multiprocessing.get_context("fork")
                conn, child_end = fork.Pipe()
                self._conns.append(conn)
                proc = fork.Process(target=_serve, args=(child_end, work, list(self._conns)), daemon=True)
                proc.start()
                child_end.close()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __len__(self):
        """The number of helpers."""
        return len(self._procs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def map(self, items):
        """[work(block) for block in blocks]: items split into len(self) + 1 contiguous blocks,
        in order, of np.array_split's sizes (the first len(items) % (len(self) + 1) hold one more).

        Helper i runs block i + 1; this process runs block 0 meanwhile.  Every
        answer is read before an error is raised: this process's own, else the
        earliest helper's, with its own type.
        """
        n, k = len(items), len(self) + 1
        edges = [b * (n // k) + min(b, n % k) for b in range(k + 1)]
        blocks = [items[lo:hi] for lo, hi in zip(edges, edges[1:])]
        for conn, proc, block in zip(self._conns, self._procs, blocks[1:]):
            try:
                conn.send(block)
            except OSError:
                raise _exited(proc) from None
        try:
            results = [self.work(blocks[0])]
        finally:
            replies = [self._receive(conn, proc) for conn, proc in zip(self._conns, self._procs)]
        for result, error in replies:
            if error is not None:
                exc, text = error
                raise exc from (_HelperTraceback(text) if text else None)
            results.append(result)
        return results

    @staticmethod
    def _receive(conn, proc):
        """A helper's answer; one that exited without answering gives (None, (its error, None))."""
        try:
            return conn.recv()
        except EOFError:
            return None, (_exited(proc), None)

    def close(self):
        """Close the pipes, so the helpers exit, and join them; one still running after 5 s is killed."""
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join(5.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
