"""A model boot imports only what it runs.

``repro serve --model M --workers 0`` runs the pre-route stages, the
featurizer, the incremental STA and the predictor.  It never optimizes,
routes, prints a timing report, aggregates a trace, reads or writes
Verilog or DEF, or starts a process pool, so a fresh interpreter that
has booted such a server to ready must not have imported those modules:
each costs compile and execution time on every start, and memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

NEVER_RUN = (
    "repro.opt.optimizer",
    "repro.opt.moves",
    "repro.route.router",
    "repro.timing.report",
    "repro.obs.profile",
    "repro.netlist.verilog",
    "repro.netlist.stats",
    "repro.placement.defio",
    "repro.nn.gradcheck",
    "repro.ml.parallel",
    "multiprocessing",
)

#: Boots the server, prints ``sys.modules`` once it is ready, drains.
BOOT = textwrap.dedent("""
    import json, sys
    from repro.cli import main
    from repro.serve.gateway import TimingGateway

    serve_forever = TimingGateway.serve_forever

    def ready(self, *args, **kwargs):
        print(json.dumps(sorted(sys.modules)), flush=True)
        self.request_drain()
        return serve_forever(self, *args, **kwargs)

    TimingGateway.serve_forever = ready
    sys.exit(main(["serve", "--designs", "xgate", "steelcore",
                   "--scale", "0.2", "--model", sys.argv[1],
                   "--port", "0", "--workers", "0"]))
""")


def test_ready_model_server_imports_only_what_it_runs(tmp_path,
                                                     served_predictor):
    model = tmp_path / "model.pkl"
    served_predictor.save(model)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", BOOT, str(model)],
                         capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    modules = set(json.loads(out.stdout.splitlines()[-1]))
    assert "repro.serve.session" in modules, "the boot did not run"
    assert sorted(modules.intersection(NEVER_RUN)) == []
