"""The service package loads its modules on first use.

``repro.service`` exposes its public names lazily, so the CLI's
evaluation commands, which need only sessions and requests, do not pay
for importing the HTTP server and client (and ``http.server`` /
``urllib.request`` with them).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro.service

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

HTTP_MODULES = ("repro.service.http", "repro.service.client", "http.server", "urllib.request")

#: An exact answer condenses its chain with the package's own SCC pass
#: and never reaches the sparse solver's graph routines.
GRAPH_MODULES = ("networkx", "scipy.sparse.csgraph")

SCRIPT = r"""
import json, sys
from repro.cli import main

status = main([
    "forever", "examples/programs/random_walk.ra",
    "--db", "examples/programs/random_walk.db.json", "--event", "C(b)", "--json",
])
print(json.dumps({"status": status, "loaded": [m for m in MODULES if m in sys.modules]}))
"""


def _loaded_after_forever_run(modules):
    """Which of ``modules`` an exact ``repro forever`` run loads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (env.get("PYTHONPATH"), "src") if p)
    script = SCRIPT.replace("MODULES", repr(modules))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["status"] == 0
    return report["loaded"]


def test_forever_run_leaves_http_modules_unloaded():
    assert _loaded_after_forever_run(HTTP_MODULES) == []


def test_exact_forever_run_loads_no_graph_library():
    assert _loaded_after_forever_run(GRAPH_MODULES) == []


def test_every_public_name_resolves():
    for name in repro.service.__all__:
        assert getattr(repro.service, name) is not None
    assert set(repro.service.__all__) <= set(dir(repro.service))
