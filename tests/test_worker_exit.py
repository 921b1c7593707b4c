"""Worker processes never outlive the ``repro serve`` process that forked them.

Cluster workers and portfolio race workers wait on a pipe to their
parent; a forked worker must not hold the parent's end of that pipe (or
a sibling's), or its ``recv`` never sees EOF once the parent is gone.
Each test boots a server in its own process group, kills or terminates
the front, and requires every other process of the group to exit within
a bounded wait: after SIGKILL (no shutdown path at all) and after
SIGTERM (which runs the same shutdown as SIGINT).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

#: how long the workers of a dead front may take to exit.
EXIT_WAIT_S = 10.0

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc to list a process group"
)


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            raw = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = raw[raw.rindex(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def _start_server(*extra: str) -> subprocess.Popen:
    """Boot ``repro serve`` as a process-group leader; return once it serves.

    An answered ``/healthz`` means the front is inside its serving loop,
    where both signal paths apply.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-json-logs", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PYTHONUNBUFFERED": "1", "PATH": "/usr/bin:/bin"},
        start_new_session=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if match:
            url = f"http://127.0.0.1:{match.group(1)}/healthz"
            with urllib.request.urlopen(url, timeout=30) as response:
                assert response.status == 200
            return proc
        if not line and proc.poll() is not None:
            break
    proc.kill()
    raise RuntimeError("serve process never reported its port")


@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
@pytest.mark.parametrize(
    "topology",
    [("--workers", "2"), ("--parallel-portfolio", "--race-workers", "2")],
    ids=["cluster-workers", "race-workers"],
)
def test_workers_exit_with_their_front(topology, sig):
    proc = _start_server(*topology)
    try:
        workers = [pid for pid in _group_members(proc.pid) if pid != proc.pid]
        assert len(workers) >= 2
        proc.send_signal(sig)
        proc.wait(timeout=30)
        deadline = time.monotonic() + EXIT_WAIT_S
        alive = set(workers)
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive &= set(_group_members(proc.pid))
        assert not alive, f"workers {sorted(alive)} outlived their front"
        if sig == signal.SIGTERM:  # the SIGINT shutdown path ran, and cleanly
            assert proc.returncode == 0
            assert "shutting down" in proc.stdout.read()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30)
        proc.stdout.close()
