"""HTTP surface: health, stats, routing, and client-error handling."""

from __future__ import annotations

import json

import pytest

from repro.serve.client import ServeClient, ServeError
from tests.serve.conftest import toy_query

GOOD_KEY = "ab" * 32


def test_healthz(server):
    payload = ServeClient(server.base_url).healthz()
    assert payload["status"] == "ok"
    assert payload["uptime_s"] >= 0


def test_stats_shape(server):
    stats = ServeClient(server.base_url).stats()
    assert stats["requests"]["submitted"] == 0
    assert stats["scheduler"]["lanes"]["interactive"]["depth"] == 0
    assert stats["scheduler"]["lanes"]["batch"]["limit"] > 0
    assert stats["cache"]["entries"] == 0
    assert stats["inflight"] == 0


def test_unknown_route_404(server):
    status, _headers, payload = ServeClient(
        server.base_url)._request("GET", "/v2/nope")
    assert status == 404
    assert "no route" in payload["error"]


def test_unknown_key_404(server):
    client = ServeClient(server.base_url)
    with pytest.raises(ServeError) as err:
        client.status(GOOD_KEY)
    assert err.value.status == 404


def test_malformed_key_400(server):
    client = ServeClient(server.base_url)
    with pytest.raises(ServeError) as err:
        client.status("not-a-key")
    assert err.value.status == 400


def test_cells_requires_post(server):
    status, _headers, payload = ServeClient(
        server.base_url)._request("GET", "/v1/cells")
    assert status == 405


def test_bad_json_body_400(server):
    client = ServeClient(server.base_url)
    conn = client._connection()
    try:
        conn.request("POST", "/v1/cells", body=b"{nope",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "JSON" in payload["error"]
    finally:
        conn.close()


@pytest.mark.parametrize("mutation, fragment", [
    ({"experiment": "no-such-exp"}, "unknown experiment"),
    ({"protocol": "no-such-proto"}, "not in"),
    ({"x": "wat"}, "'x'"),
    ({"config": {"bogus_field": 1}}, "bad config override"),
    ({"lane": "express"}, "lane"),
    ({"extra_field": 1}, "unknown fields"),
])
def test_bad_queries_400(server, mutation, fragment):
    query = toy_query()
    query.update(mutation)
    with pytest.raises(ServeError) as err:
        ServeClient(server.base_url).submit(query)
    assert err.value.status == 400
    assert fragment in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("loss_db", float("nan")),
    ("start_s", float("nan")),
    ("loss_db", float("inf")),
])
def test_non_finite_fault_plan_400(server, field, value):
    spec = {"kind": "link_degradation", "pairs": [[0, 1]], "loss_db": 10.0,
            "start_s": 1.0, "stop_s": 5.0, field: value}
    query = toy_query(faults={"name": "bad", "faults": [spec]})
    with pytest.raises(ServeError) as err:
        ServeClient(server.base_url).submit(query)
    assert err.value.status == 400
    assert "finite" in str(err.value)


def test_malformed_request_line(server):
    import socket
    host, port = server.server.config.host, server.server.port
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"GARBAGE\r\n\r\n")
        reply = sock.recv(4096)
    assert b"400" in reply.split(b"\r\n", 1)[0]
