"""Child-process measurement: one mesoparity invocation at a time, each in a
fresh interpreter, timed and accounted from its own ``os.wait4`` rusage.

``RUSAGE_CHILDREN`` would report a running maximum over every child reaped so
far, so one large run would mask the peak RSS of every run after it; wait4
returns the figures of the one child it reaps.

Every child runs on one CPU with single-threaded BLAS.  On a few shared
vCPUs a multi-threaded child waits for whichever of its CPUs the host has
taken away, and the sweep's pool threads hand the GIL across CPUs; both made
wall time swing far more than the work did.  The CPU changes from one
invocation to the next (``Launcher.next_cpu``), so the medians of a run
sample every CPU rather than whichever the host slowed down that minute.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

CHILD_TIMEOUT_S = 150.0
TRACEBACK_MARK = b"Traceback (most recent call last)"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class ChildResult:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: bytes


@dataclass
class Sample:
    """One CLI invocation and the verdict on its output."""

    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    report_bytes: int
    sha256: str
    traceback: bool
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != 0 or self.traceback or bool(self.problems)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(dict.fromkeys(BLAS_ENV, "1"))
    return env


# The launcher starts and reaps every measured child.  A child's ru_maxrss
# starts from the resident size of the process that spawned it, so children
# are spawned from this small interpreter, not from the benchmark process,
# which holds numpy, scipy and parsed reports.  The launcher pins itself to the
# CPU named in each request, and the child inherits that.
_LAUNCHER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    req = json.loads(line)
    os.sched_setaffinity(0, {req["cpu"]})
    with open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"rc": proc.returncode, "wall_s": wall,
                      "cpu_s": usage.ru_utime + usage.ru_stime,
                      "maxrss_kb": usage.ru_maxrss}), flush=True)
"""


class Launcher:
    """A small helper process that runs one child at a time in ``root`` with
    ``src/`` on the import path, pinned to the CPU ``cpu``, and reports its
    wall time and rusage."""

    def __init__(self, root: Path):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = self.cpus[0]
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER], cwd=root, env=child_env(root),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close(kill=exc[0] is not None)

    def close(self, kill: bool = False) -> None:
        """Stop the launcher; ``kill`` also ends a child still running."""
        if self._proc.poll() is None:
            if kill:
                os.killpg(self._proc.pid, signal.SIGKILL)
            self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def next_cpu(self) -> None:
        """Run the following children on the next usable CPU, in turn."""
        self.cpu = self.cpus[(self.cpus.index(self.cpu) + 1) % len(self.cpus)]

    def run(self, cmd, stderr_path: Path) -> ChildResult:
        """Run ``cmd`` to completion with stdout discarded and stderr kept; a
        timer in the launcher kills it after ``CHILD_TIMEOUT_S`` seconds."""
        request = {"cmd": [str(c) for c in cmd], "stderr": str(stderr_path),
                   "timeout": CHILD_TIMEOUT_S, "cpu": self.cpu}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        res = json.loads(reply)
        return ChildResult(
            rc=res["rc"],
            wall_s=res["wall_s"],
            cpu_s=res["cpu_s"],
            peak_rss_mb=res["maxrss_kb"] / 1024.0,
            stderr=stderr_path.read_bytes(),
        )


def cli_command(argv, out_path: Path) -> list:
    return [sys.executable, "-m", "mesoparity", *argv, "--out", str(out_path)]


def invoke(launcher: Launcher, cmd, work: Path, out_path: Path, check) -> Sample:
    """Run one CLI command that writes ``out_path``, then check the report."""
    out_path.unlink(missing_ok=True)
    res = launcher.run(cmd, work / "stderr.txt")
    data = out_path.read_bytes() if out_path.exists() else b""
    problems = []
    if res.rc == 0:
        problems = check(data.decode("utf-8", errors="replace"))
    out_path.unlink(missing_ok=True)
    return Sample(
        rc=res.rc,
        wall_s=res.wall_s,
        cpu_s=res.cpu_s,
        peak_rss_mb=res.peak_rss_mb,
        report_bytes=len(data),
        sha256=hashlib.sha256(data).hexdigest(),
        traceback=TRACEBACK_MARK in res.stderr,
        problems=problems,
    )


def setup_probe(launcher: Launcher, work: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    res = launcher.run([sys.executable, "-c", "import mesoparity.cli"], work / "setup.err")
    if res.rc != 0:
        raise RuntimeError("importing mesoparity.cli failed:\n"
                           + res.stderr.decode(errors="replace"))
    return res.wall_s


def parse_importtime(text: str) -> dict:
    """Split ``-X importtime`` output into numpy, scipy and the rest.

    Lines list children before their parent, indented two spaces per level.
    Only imports under the top-level ``mesoparity`` ones count, not the
    interpreter's own start-up.  Each third-party figure is the cumulative time
    of its outermost imports; ``mesoparity`` is the rest, so it holds the
    package's own modules and the standard library they pull in.
    """
    pending = []  # (depth, name, cumulative_us, children)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _self_us, cum_us, name_col = line.split(":", 1)[1].split("|", 2)
        if not cum_us.strip().isdigit():
            continue  # the header line
        name = name_col.rstrip()[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name.strip(), int(cum_us), children))

    totals = {"numpy": 0, "scipy": 0}

    def walk(node):
        _, name, cum, children = node
        root_pkg = name.split(".", 1)[0]
        if root_pkg in totals:
            totals[root_pkg] += cum
            return
        for child in children:
            walk(child)

    package_roots = [node for node in pending if node[1].split(".", 1)[0] == "mesoparity"]
    for node in package_roots:
        walk(node)
    whole = sum(node[2] for node in package_roots)
    return {
        "setup.numpy_import_s": totals["numpy"] / 1e6,
        "setup.scipy_import_s": totals["scipy"] / 1e6,
        "setup.mesoparity_import_s": (whole - totals["numpy"] - totals["scipy"]) / 1e6,
    }


def importtime_probe(launcher: Launcher, work: Path) -> dict:
    res = launcher.run([sys.executable, "-X", "importtime", "-c", "import mesoparity.cli"],
                       work / "importtime.err")
    if res.rc != 0:
        raise RuntimeError("importing mesoparity.cli failed")
    return parse_importtime(res.stderr.decode(errors="replace"))


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "child_blas_thread_env": {k: child_env(root)[k] for k in BLAS_ENV},
        "git_commit": _git_commit(root),
        "measured": "only the mesoparity child process, one at a time, each on one CPU "
                    "taken in turn: wall time from spawn to reap, CPU time and peak RSS "
                    "from its own os.wait4 rusage",
    }
