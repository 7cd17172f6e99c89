"""The system under test as child processes: ``repro serve`` and the flow job.

Everything the benchmark starts runs in its own session (process group)
and is stopped, and waited for, before the run ends — including the
fleet's worker processes, which leave with their gateway.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: How long a boot or a flow job may take before the run is abandoned.
START_TIMEOUT_S = 120.0

#: Flow-job outputs that every run of a checkout shares.
CACHE = ROOT / ".bench_work" / "cache"


def child_env() -> Dict[str, str]:
    """Environment for every child: the inherited one, with the checkout's
    sources on the path and tracing off."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_TRACE", None)
    return env


def _stop(proc: subprocess.Popen, grace_s: float = 30.0) -> None:
    """SIGTERM (the fleet drains on it), then SIGKILL the process group."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def descendants(pid: int) -> List[int]:
    """*pid* and every live process below it, from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def vmhwm_mb(pids: Sequence[int]) -> float:
    """Summed peak resident set (``VmHWM``) of *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


class Server:
    """One ``repro serve`` process on a free port."""

    def __init__(self, args: Sequence[str], designs: Sequence[str],
                 log: Path) -> None:
        self.designs = set(designs)
        self.log = log
        self._log_fh = open(log, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdout=self._log_fh, stderr=subprocess.STDOUT,
            env=child_env(), cwd=ROOT, start_new_session=True)
        self.address: Optional[Tuple[str, int]] = None
        #: Summed peak RSS of the process tree when it became ready.
        self.setup_rss_mb: Optional[float] = None

    def wait_ready(self) -> float:
        """Block until ``/health`` answers 200 and ``/designs`` lists every
        design; returns seconds since spawn."""
        deadline = self.started + START_TIMEOUT_S
        while self.address is None:
            self._check_alive(deadline)
            for line in self.log.read_text().splitlines():
                if line.startswith("serving ") and " on http://" in line:
                    hostport = line.split(" on http://", 1)[1].split()[0]
                    host, port = hostport.rsplit(":", 1)
                    self.address = (host, int(port))
            time.sleep(0.005)
        while True:
            self._check_alive(deadline)
            if self._ready():
                setup_s = time.perf_counter() - self.started
                self.setup_rss_mb = self.peak_rss_mb()
                return setup_s
            time.sleep(0.005)

    def _ready(self) -> bool:
        base = "http://%s:%d" % self.address
        try:
            with urllib.request.urlopen(base + "/health", timeout=5) as r:
                if r.status != 200:
                    return False
            with urllib.request.urlopen(base + "/designs", timeout=5) as r:
                listed = set(json.load(r).get("designs", {}))
        except (OSError, urllib.error.URLError, ValueError):
            return False
        return self.designs <= listed

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"repro serve exited with {self.proc.returncode}:\n"
                + self.log.read_text()[-4000:])
        if time.perf_counter() > deadline:
            raise TimeoutError(f"repro serve not ready in "
                               f"{START_TIMEOUT_S:.0f}s")

    def peak_rss_mb(self) -> float:
        return vmhwm_mb(descendants(self.proc.pid))

    def stop(self) -> None:
        try:
            _stop(self.proc)
        finally:
            self._log_fh.close()


def run_flow_job(spec: Dict, work: Path) -> Dict:
    """Run ``flowjob.py`` in a fresh interpreter, writing its outputs to
    *work*; returns its result."""
    spec_path = work / "flowjob-spec.json"
    spec_path.write_text(json.dumps(dict(spec, work=str(work))))
    log = work / "flowjob.log"
    with open(log, "w") as fh:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "flowjob.py"), str(spec_path)],
            stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
            start_new_session=True)
        try:
            code = proc.wait(timeout=START_TIMEOUT_S)
        finally:
            _stop(proc, grace_s=1.0)
    if code != 0:
        raise RuntimeError(f"flow job failed ({code}):\n"
                           + log.read_text()[-4000:])
    return json.loads((work / "flowjob-result.json").read_text())


def cached_flow_job(spec: Dict) -> Tuple[Dict, Path]:
    """:func:`run_flow_job` for a *spec* that does not depend on the run.

    The job runs on the first use of a checkout and its outputs are
    reused until the spec or a source file changes.  Returns the result
    and the directory holding the outputs.
    """
    h = hashlib.sha256(json.dumps(spec, sort_keys=True).encode())
    for path in sorted(SRC.rglob("*")) + [HERE / "flowjob.py"]:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    out = CACHE / h.hexdigest()[:16]
    if not (out / "flowjob-result.json").is_file():
        tmp = CACHE / f"{out.name}.{os.getpid()}"
        tmp.mkdir(parents=True)
        try:
            run_flow_job(spec, tmp)
            tmp.rename(out)
        except OSError:
            if not out.is_dir():
                raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return json.loads((out / "flowjob-result.json").read_text()), out
