"""Measure what the durable logs keep in memory when reopened (stdlib only).

Writes N patient charts — the hospital workload's ``patient_chart``
view object, one insert each, and a replace of every tenth — through a
:class:`~repro.penguin.Penguin` whose journal and audit log are a real
:class:`~repro.relational.journal.FileJournal` and
:class:`~repro.obs.audit.FileAuditLog`, closes both, then reopens each
file on its own under ``tracemalloc`` and prints the bytes it retains,
in all and per entry, with its size on disk.

Usage::

    PYTHONPATH=src python tools/measure_retained.py                # 2000 charts
    PYTHONPATH=src python tools/measure_retained.py --charts 10000
    PYTHONPATH=src python tools/measure_retained.py --dir logs/    # keep the files

Every write fsyncs both logs; expect a few seconds per thousand charts.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import tracemalloc

from repro.obs.audit import FileAuditLog
from repro.penguin import Penguin
from repro.relational.journal import FileJournal
from repro.workloads.hospital import (
    HospitalConfig,
    hospital_schema,
    new_chart,
    patient_chart_object,
    populate_hospital,
)

FIRST_PID = 100_000


def write_charts(directory: str, charts: int) -> None:
    """Write ``charts`` charts through both file-backed logs, then close them."""
    journal = FileJournal(os.path.join(directory, "journal.log"))
    audit = FileAuditLog(os.path.join(directory, "audit.log"))
    graph = hospital_schema()
    penguin = Penguin(graph, journal=journal, audit=audit)
    populate_hospital(penguin.engine, HospitalConfig(patients=0))
    penguin.register_object(patient_chart_object(graph))
    for pid in range(FIRST_PID, FIRST_PID + charts):
        chart = new_chart(pid, f"Patient {pid}", 1940 + pid % 60, "checkup")
        penguin.insert("patient_chart", chart)
        if pid % 10 == 0:
            chart["name"] = f"Renamed {pid}"
            penguin.replace("patient_chart", (pid,), chart)
    journal.close()
    audit.close()


def retained(opener, path: str):
    """(bytes retained, peak bytes, entries) of reopening ``path``."""
    tracemalloc.start()
    try:
        log = opener(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = len(log)
    log.close()
    return kept, peak, entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--charts", type=int, default=2000)
    parser.add_argument("--dir", default=None,
                        help="write the logs here and keep them (default: a temporary directory)")
    args = parser.parse_args(argv)
    if args.charts < 1:
        parser.error("--charts must be at least 1")

    with tempfile.TemporaryDirectory() as temporary:
        directory = args.dir or temporary
        os.makedirs(directory, exist_ok=True)
        for name in ("journal.log", "audit.log"):
            if os.path.exists(os.path.join(directory, name)):
                parser.error(f"{os.path.join(directory, name)} exists; pick an empty --dir")
        write_charts(directory, args.charts)
        print(f"charts written: {args.charts}")
        for name, opener in (("journal.log", FileJournal), ("audit.log", FileAuditLog)):
            path = os.path.join(directory, name)
            kept, peak, entries = retained(opener, path)
            print(
                f"{name:<12} {os.path.getsize(path) / 2**20:7.2f} MiB on disk, "
                f"{entries} entries: {kept / 2**10:9.1f} KiB retained "
                f"({kept / entries:7.1f} B per entry), "
                f"peak {peak / 2**10:9.1f} KiB while reopening"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
