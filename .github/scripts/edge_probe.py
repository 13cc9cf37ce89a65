"""Probe a live atcd HTTP server's shared edge (``repro.net.edge``).

Usage::

    PYTHONPATH=src python .github/scripts/edge_probe.py URL ROUTE [HEADER]

``ROUTE`` is a POST route that parses a JSON body; ``HEADER`` (for
example ``"X-Api-Key: key"``) authenticates it.  A deeply nested body
must be a 400 ``bad-request`` envelope (not a dropped connection), a
``Content-Length`` above ``MAX_BODY_BYTES`` a 413 ``payload-too-large``
with ``Connection: close``, and the server must still answer ``/ping``.
Finally, 20 sequential ``GET /ping`` on one kept-alive connection must
have a median round trip under 20 ms: a server that leaves Nagle's
algorithm on stalls each reply ~40 ms on the client's delayed ACK.
"""

import http.client
import json
import statistics
import sys
import time
from urllib.parse import urlsplit

from repro.net.edge import MAX_BODY_BYTES


def probe(target, auth, method, path, body=b"", length=None):
    connection = http.client.HTTPConnection(target.hostname, target.port,
                                            timeout=60)
    try:
        connection.putrequest(method, path)
        for name, value in auth.items():
            connection.putheader(name, value)
        connection.putheader(
            "Content-Length", str(len(body) if length is None else length)
        )
        connection.endheaders(body if length is None else None)
        response = connection.getresponse()
        return response.status, response.headers, json.loads(response.read())
    finally:
        connection.close()


def keepalive_median_ms(target, auth, requests=20):
    """Median round trip of ``requests`` sequential pings on one socket."""
    connection = http.client.HTTPConnection(target.hostname, target.port,
                                            timeout=60)
    samples = []
    try:
        for _ in range(requests):
            started = time.perf_counter()
            connection.request("GET", "/ping", headers=auth)
            response = connection.getresponse()
            response.read()
            samples.append((time.perf_counter() - started) * 1000.0)
            assert response.status == 200, response.status
    finally:
        connection.close()
    return statistics.median(samples)


def main(argv):
    target, route = urlsplit(argv[0]), argv[1]
    auth = {}
    if len(argv) > 2:
        name, value = argv[2].split(":", 1)
        auth[name.strip()] = value.strip()

    status, headers, doc = probe(target, auth, "POST", route,
                                 b"[" * 100000 + b"]" * 100000)
    assert (status, doc["ok"], doc["kind"]) == (400, False, "bad-request"), \
        (status, doc)
    assert headers["X-Request-Id"], dict(headers)

    status, headers, doc = probe(target, auth, "POST", route,
                                 length=MAX_BODY_BYTES + 1)
    assert (status, doc["ok"], doc["kind"]) == (
        413, False, "payload-too-large"), (status, doc)
    assert headers["X-Request-Id"], dict(headers)
    assert headers["Connection"] == "close", dict(headers)

    status, _, doc = probe(target, auth, "GET", "/ping")
    assert status == 200 and doc["ok"], (status, doc)

    median_ms = keepalive_median_ms(target, auth)
    assert median_ms < 20.0, f"keep-alive /ping median {median_ms:.1f} ms"
    print(f"edge probe {argv[0]}{route}: nested body 400, "
          "oversized body 413, /ping still 200, keep-alive /ping median "
          f"{median_ms:.1f} ms")


if __name__ == "__main__":
    main(sys.argv[1:])
