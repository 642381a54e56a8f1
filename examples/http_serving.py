#!/usr/bin/env python
"""Serving view objects over HTTP: every route of ``python -m repro serve``.

1. load a hospital over two shards and put the HTTP front end on it;
2. list the objects, query them, read one chart;
3. insert, replace and delete a chart through the object;
4. read the server's health (shards, breakers, SLO burn rates) and its
   metrics;
5. send requests a correct server refuses, and read the 4xx answers.

Everything goes over one keep-alive connection with the client the
end-to-end benchmark uses (``repro.serve.load.http_request``).

Run:  python examples/http_serving.py
"""

import asyncio
import json

import repro.obs as obs
from repro.serve.http import PenguinServer, ServerHandle
from repro.serve.load import http_request
from repro.workloads.hospital import hospital_session, new_chart

OBJECT = "patient_chart"
NEW = 90_001


async def conversation(port, requests):
    """(status, JSON body or text) for each ``(method, path, body)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    answers = []
    try:
        for method, path, body in requests:
            payload = None if body is None else json.dumps(body).encode()
            status, raw = await http_request(reader, writer, method, path, payload)
            text = raw.decode("utf-8")
            try:
                answers.append((status, json.loads(text)))
            except ValueError:
                answers.append((status, text))
    finally:
        writer.close()
    return answers


def talk(port, *requests):
    return asyncio.run(conversation(port, requests))


def main() -> None:
    obs.configure()  # live metrics, as `python -m repro serve` does
    session = hospital_session(patients=6, shards=2)
    handle = ServerHandle(PenguinServer(session)).start()
    try:
        port = handle.port
        print("topology:", session.describe())

        # 2. Reads: the catalog, an object query (URL-encoded), one chart.
        (index, query, one) = talk(
            port,
            ("GET", "/objects", None),
            ("GET", f"/objects/{OBJECT}?q=birth_year+%3E%3D+1950+order+by+name", None),
            ("GET", f"/objects/{OBJECT}/103", None),
        )
        print("GET /objects ->", index[0], index[1]["objects"])
        names = [instance["name"] for instance in query[1]["instances"]]
        print("GET ?q=birth_year >= 1950 order by name ->", query[0], names)
        chart = one[1]["instance"]
        print(f"GET /{OBJECT}/103 ->", one[0], chart["name"],
              f"({len(chart['VISIT'])} visits, shard {one[1]['meta']['shard']})")

        # 3. Writes: each is one translated, journaled, audited update.
        inserted = new_chart(NEW, "Http Patient", 1961, "walk-in")
        renamed = dict(inserted, name="Http Patient (renamed)")
        for status, body in talk(
            port,
            ("POST", f"/objects/{OBJECT}", {"instance": inserted}),
            ("PUT", f"/objects/{OBJECT}/{NEW}", {"instance": renamed}),
            ("GET", f"/objects/{OBJECT}/{NEW}", None),
            ("DELETE", f"/objects/{OBJECT}/{NEW}", None),
            ("GET", f"/objects/{OBJECT}/{NEW}", None),
        ):
            if "instance" in body:
                print("  read  ->", status, body["instance"]["name"])
            elif "error" in body:
                print("  read  ->", status, body["error"])
            else:
                print("  write ->", status, f"{body['operations']} base operations")

        # 4. Health and metrics: topology, breakers, the SLO report.
        (health, metrics) = talk(
            port,
            ("GET", "/health", None),
            ("GET", "/metrics?format=json", None),
        )
        report = health[1]
        print("GET /health ->", health[0], "shards:", report["num_shards"],
              "degraded:", report["degraded"], "SLOs:", sorted(report["slo"]))
        answered = {
            series: count
            for series, count in metrics[1]["counters"].items()
            if series.startswith("serve_http_requests_total")
        }
        print("GET /metrics?format=json ->", metrics[0])
        for series in sorted(answered):
            print("  ", series, int(answered[series]))

        # 5. Refusals are answers: a 4xx, never a 500.
        for status, body in talk(
            port,
            ("GET", f"/objects/{OBJECT}?q=%zz", None),
            ("GET", "/objects/no_such_object", None),
            ("PATCH", f"/objects/{OBJECT}/103", None),
            ("POST", f"/objects/{OBJECT}", {"instance": {"patient_id": "x"}}),
            ("GET", "/nowhere", None),
        ):
            print("refused ->", status, body["error"])
    finally:
        handle.stop()
        session.close()
        obs.disable()


if __name__ == "__main__":
    main()
