"""A ``--workers 0`` server shares the CPUs' BLAS threads, as a fleet does.

numpy's bundled OpenBLAS starts with one thread per CPU, and the
per-request GEMMs of a what-if are too small for more than one: the
extra threads only spin, beside the server's own request threads.  An
in-process server therefore divides the CPUs among the threads that run
the model (the micro-batcher's one thread when it is on, else the
``--threads`` request threads; at least one BLAS thread each) before
its first session opens, the rule a fleet applies per worker, and
reports the cap in ``/health``'s ``fleet`` block.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.utils.blas import blas_threads, cpu_share

SRC = Path(__file__).resolve().parents[2] / "src"

#: Boots the server, prints the health's fleet block and this process's
#: BLAS thread count once it is ready, then drains.
BOOT = textwrap.dedent("""
    import json, sys
    from repro.cli import main
    from repro.serve.gateway import TimingGateway
    from repro.utils.blas import blas_threads

    serve_forever = TimingGateway.serve_forever

    def ready(self, *args, **kwargs):
        print(json.dumps({"fleet": self._health()["fleet"],
                          "blas_threads": blas_threads()}), flush=True)
        self.request_drain()
        return serve_forever(self, *args, **kwargs)

    TimingGateway.serve_forever = ready
    sys.exit(main(["serve", "--designs", "xgate", "--scale", "0.2",
                   "--model", sys.argv[1], "--port", "0",
                   "--workers", "0", "--threads", sys.argv[2],
                   "--microbatch", sys.argv[3]]))
""")


@pytest.mark.skipif(blas_threads() is None,
                    reason="numpy bundles no OpenBLAS here")
@pytest.mark.parametrize("threads,microbatch,share", [
    (1, 1, 1),   # one request thread runs the GEMMs
    (2, 1, 2),   # two request threads run them
    (4, 8, 1),   # the default: only the batcher's thread runs them
])
def test_in_process_boot_caps_blas_at_its_cpu_share(tmp_path, threads,
                                                    microbatch, share,
                                                    served_predictor):
    model = tmp_path / "model.pkl"
    served_predictor.save(model)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", BOOT, str(model), str(threads),
         str(microbatch)],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["fleet"]["blas_threads"] == cpu_share(share)
    assert report["blas_threads"] == cpu_share(share)
