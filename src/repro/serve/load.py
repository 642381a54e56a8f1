"""A zipfian HTTP load generator for the serving front end.

Drives a running :class:`~repro.serve.http.PenguinServer` with the
multi-tenant :class:`~repro.workloads.synthetic.ZipfianWorkload`
stream — hot keys dominated by the head of the zipf law, a small
write fraction, everything derived from one seed — over ``workers``
concurrent keep-alive connections, and reports the latency
distribution, throughput, error counts, and how many answers were
served stale.

The client is raw asyncio (``open_connection`` + hand-rolled HTTP/1.1
parsing) for the same reason the server is: the container ships no
HTTP client library worth blocking the event loop for, and the
protocol subset needed here is ten lines. Operations map onto the
view-object routes:

* ``read``   → ``GET /objects/<object>/<key(rank)>``
* ``update`` → ``GET`` the instance, tweak one attribute, ``PUT`` it
  back (a read-modify-write, the paper's replacement semantics)
* ``insert`` → ``POST`` a fresh chart keyed far above the population
* ``delete`` → ``DELETE`` a previously inserted chart (falls back to
  a read when this worker has not inserted anything yet)

Run it via ``python -m repro serve --load-ops N`` or the serve-smoke
CI job; :func:`run_load` is also importable for tests.
"""

from __future__ import annotations

import asyncio
import json
import math
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.workloads.hospital import new_chart
from repro.workloads.synthetic import ZipfianWorkload

__all__ = ["LoadReport", "run_load", "http_request"]


async def http_request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    host: str = "localhost",
) -> Tuple[int, bytes]:
    """One keep-alive HTTP/1.1 request on an open connection."""
    payload = body or b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Content-Type: application/json\r\n"
        f"Connection: keep-alive\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()

    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    body_bytes = await reader.readexactly(length) if length else b""
    return status, body_bytes


class LoadReport:
    """Everything a load run measured, JSON-ready."""

    def __init__(self) -> None:
        self.samples: List[Tuple[str, int, float, bool]] = []
        self.elapsed = 0.0
        self.workload = ""

    def record(
        self, kind: str, status: int, seconds: float, stale: bool
    ) -> None:
        self.samples.append((kind, status, seconds, stale))

    # -- aggregates ----------------------------------------------------------

    @property
    def ops(self) -> int:
        return len(self.samples)

    @property
    def errors(self) -> int:
        return sum(1 for _, status, _, _ in self.samples if status >= 500)

    @property
    def rejected(self) -> int:
        return sum(
            1 for _, status, _, _ in self.samples if 400 <= status < 500
        )

    @property
    def stale_reads(self) -> int:
        return sum(1 for _, _, _, stale in self.samples if stale)

    @property
    def throughput(self) -> float:
        return self.ops / self.elapsed if self.elapsed else 0.0

    def latency_ms(self, kind: Optional[str] = None) -> List[float]:
        return [
            seconds * 1000.0
            for sample_kind, _, seconds, _ in self.samples
            if kind is None or sample_kind == kind
        ]

    @staticmethod
    def percentile(samples: List[float], q: float) -> float:
        """Nearest-rank percentile (q in [0, 1])."""
        if not samples:
            return 0.0
        ordered = sorted(samples)
        rank = max(0, math.ceil(q * len(ordered)) - 1)
        return ordered[rank]

    def summary(self, kind: Optional[str] = None) -> Dict[str, float]:
        samples = self.latency_ms(kind)
        if not samples:
            return {"iterations": 0}
        return {
            "iterations": len(samples),
            "median": statistics.median(samples),
            "p95": self.percentile(samples, 0.95),
            "p99": self.percentile(samples, 0.99),
            "min": min(samples),
            "max": max(samples),
        }

    def kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for kind, _, _, _ in self.samples:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "ops": self.ops,
            "elapsed_s": round(self.elapsed, 4),
            "throughput_ops_s": round(self.throughput, 1),
            "errors_5xx": self.errors,
            "rejected_4xx": self.rejected,
            "stale_reads": self.stale_reads,
            "kinds": self.kinds(),
            "latency_ms": self.summary(),
            "latency_ms_read": self.summary("read"),
            "latency_ms_write": {
                "p95": self.percentile(
                    self.latency_ms("update")
                    + self.latency_ms("insert")
                    + self.latency_ms("delete"),
                    0.95,
                ),
            },
        }

    def describe(self) -> str:
        lat = self.summary()
        return (
            f"{self.ops} ops in {self.elapsed:.2f}s "
            f"({self.throughput:.0f} ops/s), "
            f"p50 {lat.get('median', 0):.2f}ms "
            f"p95 {lat.get('p95', 0):.2f}ms p99 {lat.get('p99', 0):.2f}ms, "
            f"{self.errors} errors, {self.rejected} rejected, "
            f"{self.stale_reads} stale"
        )


async def run_load(
    host: str,
    port: int,
    ops: int = 400,
    workers: int = 8,
    object_name: str = "patient_chart",
    population: int = 25,
    base_key: int = 100,
    insert_base: int = 70_000,
    skew: float = 1.1,
    seed: int = 7,
    tenants: int = 4,
    read_fraction: float = 0.7,
    insert_fraction: float = 0.1,
    delete_fraction: float = 0.05,
) -> LoadReport:
    """Drive the server with a seeded zipfian stream; return the report.

    ``population`` keys (``base_key + rank``) receive the zipf-weighted
    read/update traffic; inserts land far above at ``insert_base +
    sequence`` so they never collide with the resident population.
    """
    workload = ZipfianWorkload(
        population=population,
        skew=skew,
        seed=seed,
        tenants=tenants,
        read_fraction=read_fraction,
        insert_fraction=insert_fraction,
        delete_fraction=delete_fraction,
    )
    stream = list(workload.ops(ops))
    queue: asyncio.Queue = asyncio.Queue()
    for op in stream:
        queue.put_nowait(op)

    report = LoadReport()
    report.workload = workload.describe()
    inserted: List[int] = []

    async def do_op(reader, writer, op) -> Tuple[str, int, bool]:
        key = base_key + op.rank
        if op.kind == "read":
            status, body = await http_request(
                reader, writer, "GET", f"/objects/{object_name}/{key}",
                host=host,
            )
            return "read", status, _is_stale(body)
        if op.kind == "insert":
            pid = insert_base + op.sequence
            body = json.dumps(
                {"instance": new_chart(
                    pid, f"Load Patient {pid}", 1960 + (pid % 50), "load"
                )}
            ).encode("utf-8")
            status, _ = await http_request(
                reader, writer, "POST", f"/objects/{object_name}",
                body=body, host=host,
            )
            if status == 201:
                inserted.append(pid)
            return "insert", status, False
        if op.kind == "delete":
            if not inserted:
                status, body = await http_request(
                    reader, writer, "GET",
                    f"/objects/{object_name}/{key}", host=host,
                )
                return "read", status, _is_stale(body)
            pid = inserted.pop()
            status, _ = await http_request(
                reader, writer, "DELETE",
                f"/objects/{object_name}/{pid}", host=host,
            )
            return "delete", status, False
        # update: read-modify-write through the replacement route.
        status, body = await http_request(
            reader, writer, "GET", f"/objects/{object_name}/{key}",
            host=host,
        )
        if status != 200:
            return "update", status, False
        instance = json.loads(body.decode("utf-8"))["instance"]
        instance["name"] = f"Patient #{key} t{op.tenant} s{op.sequence}"
        put_body = json.dumps({"instance": instance}).encode("utf-8")
        status, _ = await http_request(
            reader, writer, "PUT", f"/objects/{object_name}/{key}",
            body=put_body, host=host,
        )
        return "update", status, False

    async def worker() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                try:
                    op = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                started = time.perf_counter()
                try:
                    kind, status, stale = await do_op(reader, writer, op)
                except (ConnectionError, asyncio.IncompleteReadError):
                    report.record(op.kind, 599, 0.0, False)
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    continue
                report.record(
                    kind, status, time.perf_counter() - started, stale
                )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    started = time.perf_counter()
    await asyncio.gather(*[worker() for _ in range(workers)])
    report.elapsed = time.perf_counter() - started
    return report


def _is_stale(body: bytes) -> bool:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return False
    meta = payload.get("meta") if isinstance(payload, dict) else None
    return bool(meta and meta.get("stale"))
