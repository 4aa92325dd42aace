"""SweepServer end-to-end over real HTTP: byte-identity, queries, errors.

The service invariant: rows served over the API are **byte-identical**
to the rows a direct in-process ``run_sweep`` of the same spec produces
— the service adds caching and a queue, never different numbers. The
server runs inline (no process pool) on an ephemeral port; one module
fixture serves every test.
"""

import json
import os

import pytest

from repro.dse.scheduler import run_sweep
from repro.dse.spec import SweepSpec
from repro.dse.store import row_text
from repro.serve import ServeClient, ServeConfig, ServiceError, SweepServer
from repro.serve.server import _Handler

SPEC = {
    "name": "serve-e2e",
    "workloads": ["fdt"],
    "configs": ["dist_da_f"],
    "scale": "tiny",
    "machine_axes": {"accel_freq_ghz": [1.0, 2.0]},
}

CELL = {"workload": "fdt", "config": "dist_da_f", "scale": "tiny",
        "machine_overrides": {"accel_freq_ghz": 1.0}}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    cfg = ServeConfig(
        port=0,  # ephemeral
        store_path=str(tmp_path_factory.mktemp("serve") / "e2e.sqlite"),
        workers=2, inline=True,
    )
    server = SweepServer(cfg)
    server.start()
    client = ServeClient(port=server.port)
    client.wait_until_up(timeout_s=30.0)
    yield client
    server.stop()


class TestEndToEnd:
    def test_sweep_rows_byte_identical_to_run_sweep(self, served):
        job = served.submit_sweep(SPEC)
        job = served.wait_job(job["id"], timeout_s=300.0)
        assert job["state"] == "done"
        assert job["points"]["total"] == 2
        over_http = sorted(row_text(r)
                           for r in served.job_rows(job["id"]))

        direct = run_sweep(SweepSpec.from_dict(SPEC), jobs=1)
        expected = sorted(row_text(r) for r in direct.rows.values())
        assert over_http == expected

        # resubmission answers entirely from the store
        again = served.submit_sweep(SPEC)
        assert again["state"] == "done"
        assert again["points"]["cached"] == again["points"]["total"] == 2

        # a stored cell answers a single-cell query without the queue
        resp = served.query(CELL)
        assert resp["cached"] and resp["row"]["status"] == "ok"
        assert resp["job"]["state"] == "done"

        # GET /v1/results/{hash} round-trips the same row
        hash_ = resp["row"]["hash"]
        assert row_text(served.result(hash_)) == row_text(resp["row"])

    def test_uncached_query_waits_for_the_row(self, served):
        cold = dict(CELL, machine_overrides={"accel_freq_ghz": 2.5})
        resp = served.query(cold, wait=True, timeout_s=300.0)
        assert not resp["cached"]
        assert resp["row"] is not None
        assert resp["row"]["status"] == "ok"
        assert resp["job"]["state"] == "done"

    def test_health_and_stats(self, served):
        health = served.health()
        assert health["ok"] and health["api_version"] == 1
        stats = served.stats()["stats"]
        assert set(("hit_ratio", "queue_depth", "store_rows",
                    "points_per_s")) <= set(stats)
        counters = served.stats()["counters"]
        assert counters.get("serve.http_requests", 0) > 0

    def test_jobs_listing_contains_submitted_jobs(self, served):
        jobs = served.jobs()
        assert jobs and all("state" in j for j in jobs)


class TestErrorPaths:
    def test_unknown_route_is_404(self, served):
        status, body = served.request("GET", "/v1/nope")
        assert status == 404 and "error" in body

    def test_unknown_shipped_spec_is_400(self, served):
        with pytest.raises(ServiceError) as err:
            served.submit_sweep("no-such-spec")
        assert err.value.status == 400

    def test_invalid_point_is_400(self, served):
        with pytest.raises(ServiceError) as err:
            served.query({"workload": "not-a-workload",
                          "config": "dist_da_f"})
        assert err.value.status == 400

    def test_malformed_body_is_400(self, served):
        status, body = served.request("POST", "/v1/sweeps", {})
        assert status == 400 and "spec" in body["error"]

    def test_unknown_job_is_404(self, served):
        with pytest.raises(ServiceError) as err:
            served.job("job-999999")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            served.job_rows("job-999999")
        assert err.value.status == 404

    def test_unknown_result_hash_is_404(self, served):
        with pytest.raises(ServiceError) as err:
            served.result("deadbeef")
        assert err.value.status == 404


class TestUnixSocket:
    def test_serves_over_unix_socket(self, tmp_path):
        sock = str(tmp_path / "serve.sock")
        cfg = ServeConfig(socket_path=sock,
                          store_path=str(tmp_path / "unix.sqlite"),
                          workers=1, inline=True)
        server = SweepServer(cfg)
        server.start()
        try:
            client = ServeClient(socket_path=sock)
            client.wait_until_up(timeout_s=30.0)
            assert client.health()["ok"]
            resp = client.query(CELL, wait=True, timeout_s=300.0)
            assert resp["row"]["status"] == "ok"
        finally:
            server.stop()
        assert not os.path.exists(sock)  # clean teardown unlinks it


class _CountingWriter:
    """Delegating wrapper around a handler's ``wfile`` that logs writes."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def write_log(monkeypatch):
    """Every write the server's handlers make, in order."""
    log = []
    setup = _Handler.setup

    def counting_setup(self):
        setup(self)
        self.wfile = _CountingWriter(self.wfile, log)

    monkeypatch.setattr(_Handler, "setup", counting_setup)
    return log


def _keep_alive_sequence(client, write_log, n=6):
    """``n`` requests on one persistent connection, one write each."""
    conn = client._connection()
    try:
        sock = None
        for i in range(n):
            before = len(write_log)
            path = "/v1/healthz" if i % 2 == 0 else "/v1/nope"
            conn.request("GET", path)
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == (200 if i % 2 == 0 else 404)
            assert ("ok" in body) if i % 2 == 0 else ("error" in body)
            assert not resp.will_close
            # status line, headers and body leave in a single write
            assert len(write_log) - before == 1
            if sock is None:
                sock = conn.sock
            assert conn.sock is sock  # the connection was reused
    finally:
        conn.close()


class TestKeepAlive:
    def test_one_write_per_response_over_tcp(self, served, write_log):
        _keep_alive_sequence(served, write_log)

    def test_one_write_per_response_over_unix_socket(self, tmp_path,
                                                     write_log):
        sock = str(tmp_path / "ka.sock")
        cfg = ServeConfig(socket_path=sock,
                          store_path=str(tmp_path / "ka.sqlite"),
                          workers=1, inline=True)
        server = SweepServer(cfg)
        server.start()
        try:
            client = ServeClient(socket_path=sock)
            client.wait_until_up(timeout_s=30.0)
            _keep_alive_sequence(client, write_log)
        finally:
            server.stop()
