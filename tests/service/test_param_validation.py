"""Request params are validated once, in ``QueryRequest``, so the
service and the CLI reject the same inputs: ``InvalidRequestError`` from
``from_json``, HTTP 400 from ``POST /v1/jobs``, and one ``error:`` line
with exit code 2 from ``repro forever`` (which builds the same request).
"""

from __future__ import annotations

import json
import math
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.errors import InvalidRequestError
from repro.service import QueryRequest, QueryService, ServiceConfig, make_server

from tests.service.conftest import WALK_DATABASE, WALK_PROGRAM, walk_body

#: A JSON integer beyond float range.
HUGE = 10**400

#: (param, bad value, the CLI flags that send it — None when no flag can
#: carry the value: argparse's own type check refuses it before a request
#: exists, or a float flag turns an over-large integer into ``inf``).
BAD_PARAMS = [
    ("samples", 0, ["--samples", "0"]),
    ("samples", -5, ["--samples", "-5"]),
    ("samples", "ten", None),
    ("samples", True, None),
    ("burn_in", -3, ["--mcmc", "--samples", "10", "--burn-in", "-3"]),
    ("max_states", 0, ["--max-states", "0"]),
    ("workers", 0, ["--mcmc", "--samples", "10", "--workers", "0"]),
    ("cache_size", -1, ["--mcmc", "--samples", "10", "--cache-size", "-1"]),
    ("seed", 1.5, None),
    ("epsilon", 0, ["--epsilon", "0"]),
    ("epsilon", -0.1, ["--backend", "sparse", "--epsilon", "-0.1"]),
    ("epsilon", math.inf, ["--mcmc", "--epsilon", "inf"]),
    # invalid, not an OverflowError answered as a 500
    ("epsilon", HUGE, None),
    ("delta", HUGE, None),
    ("delta", 0, ["--mcmc", "--epsilon", "0.1", "--delta", "0"]),
    ("delta", 1, ["--mcmc", "--epsilon", "0.1", "--delta", "1"]),
    ("mcmc", "yes", None),
    ("lumped", 1, None),
]

IDS = [
    f"{param}={'10**400' if value is HUGE else repr(value)}"
    for param, value, _ in BAD_PARAMS
]


@pytest.fixture(scope="module")
def jobs_url():
    service = QueryService(ServiceConfig(workers=1, queue_size=4))
    service.start()
    server = make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}/v1/jobs"
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown(wait=False, cancel_running=True)


@pytest.fixture
def walk_files(tmp_path):
    program = tmp_path / "walk.ra"
    program.write_text(WALK_PROGRAM + "\n", encoding="utf-8")
    db = tmp_path / "db.json"
    db.write_text(json.dumps(WALK_DATABASE), encoding="utf-8")
    return str(program), str(db)


@pytest.mark.parametrize(("param", "value", "flags"), BAD_PARAMS, ids=IDS)
def test_bad_param_rejected_everywhere(
    param, value, flags, jobs_url, walk_files, capsys
):
    body = walk_body(params={param: value})
    with pytest.raises(InvalidRequestError, match=f"param '{param}'"):
        QueryRequest.from_json(body)

    post = urllib.request.Request(
        jobs_url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as refused:
        urllib.request.urlopen(post, timeout=10.0)
    assert refused.value.code == 400
    assert f"param '{param}'" in json.loads(refused.value.read())["error"]["message"]

    if flags is not None:
        program, db = walk_files
        code = main(["forever", program, "--db", db, "--event", "C(b)", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: param '{param}'")
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "params",
    [
        # every param shape the benchmark workloads send stays valid
        {"mcmc": True, "samples": 12, "burn_in": 8, "seed": 1},
        {"mcmc": True, "samples": 400, "burn_in": 16, "seed": 2,
         "cache_size": 0, "workers": 2},
        {"backend": "sparse", "epsilon": 1e-9},
        {"fallback": "auto", "max_states": 1, "delta": 0.05, "lumped": False},
        {"samples": None, "epsilon": None},
    ],
)
def test_good_params_accepted(params):
    assert QueryRequest.from_json(walk_body(params=params)).params == params
