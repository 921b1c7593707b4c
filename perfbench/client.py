"""Server process control and a minimal keep-alive HTTP/1.1 client.

The benchmark drives ``repro serve`` the way a service caller would:
over persistent connections, one request in flight per connection.
Request bytes are encoded before timing starts, so the client's own
cost per request is one ``sendall`` and one buffered read.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import socket
import subprocess
import time
from pathlib import Path

_LISTENING = re.compile(rb"serving explanations on http://[^:]+:(\d+)")

#: how long a server may take to print its listening line.
BOOT_TIMEOUT_S = 60.0

#: how long a SIGINT'd server tree may take to exit.
STOP_TIMEOUT_S = 20.0


def encode_request(verb: str, path: str, body, request_id: str) -> bytes:
    """One complete HTTP/1.1 request (head and JSON body) as bytes."""
    blob = json.dumps(body, separators=(",", ":")).encode()
    head = (
        f"{verb} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(blob)}\r\n"
        f"X-Request-ID: {request_id}\r\n\r\n"
    )
    return head.encode() + blob


class Connection:
    """One persistent HTTP/1.1 connection; one request in flight at a time.

    ``TCP_NODELAY`` is set on the client side, as common HTTP client
    libraries do, so the client's own writes never wait on the peer's
    delayed acknowledgement; the server's socket options are its own.
    """

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, raw: bytes) -> tuple[int, bytes]:
        """Send one pre-encoded request; returns ``(status, body bytes)``."""
        self.sock.sendall(raw)
        status_line = self.rfile.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.rfile.read(length)

    def close(self) -> None:
        """Close the connection."""
        self.rfile.close()
        self.sock.close()


def _proc_stat(pid: int) -> tuple[str, int] | None:
    """``(state, process group)`` of *pid* from ``/proc``, or None if gone."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2 :].split()
    return fields[0], int(fields[2])


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pgid and stat[0] != "Z":
                members.append(int(entry))
    return sorted(members)


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of *pid* in KiB, 0 if unreadable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One spawned ``repro serve`` process tree, in its own session.

    The server runs in a new session, so its process group holds the
    front and every worker it forks; :meth:`stop` uses that group to
    prove that no process of the tree outlives the run.
    """

    def __init__(self, argv: list[str], *, cwd: Path, env: dict):
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.port = self._await_port()
        self.listening_at = time.perf_counter()

    def _await_port(self) -> int:
        """Read startup output until the listening line names the port."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        seen = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            seen += chunk
            match = _LISTENING.search(seen)
            if match:
                return int(match.group(1))
        self.kill()
        raise RuntimeError(f"server did not start listening: {seen[-500:]!r}")

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of every live process in the server's tree."""
        return sum(_vm_hwm_kb(pid) for pid in group_members(self.proc.pid)) / 1024.0

    def stop(self) -> list[int]:
        """SIGINT the front, wait for the whole tree; returns leaked pids.

        A clean shutdown closes every service (cluster workers included).
        Any process of the group still alive afterwards is a leak: it is
        killed and reported.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 5.0
        leaked = group_members(self.proc.pid)
        while leaked and time.monotonic() < deadline:
            time.sleep(0.05)
            leaked = group_members(self.proc.pid)
        if leaked or self.proc.poll() is None:
            self.kill()
        self.proc.stdout.close()
        return leaked

    def kill(self) -> None:
        """SIGKILL the whole process group and reap the front."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
