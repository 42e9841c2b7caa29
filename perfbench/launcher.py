"""Starts CLI child processes for the benchmark and reports their rusage.

A child's peak RSS as ``wait4`` reports it is at least the peak RSS of
the process it was forked from: on exec the kernel keeps the high-water
mark of the old address space, and Python's ``subprocess`` spawns with
``vfork``, whose old address space is the parent's.  The benchmark's
own process grows while it parses large outputs, so children are
started from this small process instead, which does nothing else.

Protocol, over the SEQPACKET socket passed as the only argument (a file
descriptor number): each request is one JSON message ``{"argv": [...],
"timeout": seconds}`` carrying three file descriptors for the child's
stdin, stdout and stderr.  The reply is one JSON message with the
child's wait status, wall time and rusage.  An empty message ends the
process.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
from time import perf_counter


def serve(sock: socket.socket) -> None:
    while True:
        message, fds, _, _ = socket.recv_fds(sock, 65536, 3)
        if not message:
            return
        request = json.loads(message)
        start = perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                for target, fd in enumerate(fds):
                    os.dup2(fd, target)
                for fd in {*fds, sock.fileno()} - {0, 1, 2}:
                    os.close(fd)
                os.execv(request["argv"][0], request["argv"])
            finally:
                os._exit(127)
        for fd in fds:
            os.close(fd)

        def kill(_signum, _frame, pid=pid):
            os.kill(pid, signal.SIGKILL)

        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, request["timeout"])
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        wall = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        _, status, usage = os.wait4(pid, 0)
        reply = {
            "wall_s": wall,
            "code": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sock.send(json.dumps(reply).encode())


if __name__ == "__main__":
    serve(socket.socket(fileno=int(sys.argv[1])))
