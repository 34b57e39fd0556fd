"""Deterministic export formats: JSONL events, Chrome trace, CSV timeseries.

Every writer here is a pure function of simulation state: no wall-clock
timestamps, no environment reads, stable key order -- so identical seeds
produce byte-identical files (pinned by ``tests/obs/test_exporters.py``).
Timestamps in the Chrome trace are simulated *cycles* expressed in
microseconds: one cycle = 1 us, which makes Perfetto's time ruler read
directly in cycles.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.obs.events import (
    DATA_EJECT,
    PACKET_CREATED,
    PACKET_DELIVERED,
    NetworkEvent,
)

if TYPE_CHECKING:
    from repro.obs.attribution import PacketAttribution


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically: temp file in the same directory,
    then ``os.replace``.  Readers never observe a partially written file, which
    is what lets the run ledger treat every on-disk record as either absent or
    complete (lint rule D014 funnels result-bearing writes through here).
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


def atomic_write_json(path: str | Path, payload: Mapping[str, Any], indent: int = 2) -> None:
    """Atomically write ``payload`` as sorted-key JSON with a trailing newline."""
    atomic_write_text(path, json.dumps(payload, indent=indent, sort_keys=True) + "\n")


def write_events_jsonl(events: Iterable[NetworkEvent], path: str | Path) -> int:
    """Write one compact JSON object per event; returns the event count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.as_dict(), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def write_chrome_trace(
    events: Iterable[NetworkEvent],
    path: str | Path,
    run_name: str = "frfc",
    attribution: Iterable["PacketAttribution"] | None = None,
) -> int:
    """Write a Perfetto-loadable Chrome trace-event JSON file.

    Layout: one process (pid 0) named after the run; one thread per mesh
    node.  Every network event becomes a thread-scoped instant event, and
    every packet becomes an async span (``ph`` "b"/"e", id = packet id)
    from its creation to its delivery -- so Perfetto shows packet lifetimes
    as bars with the per-node event stream underneath.  When attribution
    records are supplied, each packet's latency components are emitted as
    nested async sub-spans (same category and id as the packet span), so
    Perfetto stacks a per-packet latency waterfall under every packet bar.
    Returns the number of trace records written.
    """
    records: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": run_name},
        }
    ]
    nodes_seen: list[int] = []
    span_open: dict[int, int] = {}  # packet_id -> node the span started on
    for event in events:
        if event.node not in nodes_seen:
            nodes_seen.append(event.node)
        ts = max(event.cycle, 0)  # the NI hop at cycle -1 clamps to run start
        if event.kind == PACKET_CREATED:
            span_open[event.packet_id] = event.node
            records.append(
                {
                    "ph": "b",
                    "cat": "packet",
                    "id": event.packet_id,
                    "name": f"packet {event.packet_id}",
                    "ts": ts,
                    "pid": 0,
                    "tid": event.node,
                    "args": {"source": event.node, "detail": event.detail},
                }
            )
            continue
        if event.kind == PACKET_DELIVERED:
            start_node = span_open.pop(event.packet_id, event.node)
            records.append(
                {
                    "ph": "e",
                    "cat": "packet",
                    "id": event.packet_id,
                    "name": f"packet {event.packet_id}",
                    "ts": ts,
                    "pid": 0,
                    "tid": start_node,
                    "args": {"destination": event.node, "latency": event.value},
                }
            )
            continue
        args: dict[str, Any] = {}
        for key in ("packet_id", "port", "vc", "flit_index", "value"):
            value = getattr(event, key)
            if value != -1:
                args[key] = value
        if event.detail:
            args["detail"] = event.detail
        records.append(
            {
                "ph": "i",
                "s": "t",
                "cat": event.kind,
                "name": event.kind if event.kind != DATA_EJECT else "data_eject",
                "ts": ts,
                "pid": 0,
                "tid": event.node,
                "args": args,
            }
        )
    if attribution is not None:
        from repro.obs.report import iter_waterfall_records

        records.extend(iter_waterfall_records(attribution))
    for node in sorted(nodes_seen):
        records.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": node,
                "args": {"name": f"node {node}"},
            }
        )
    payload = {"traceEvents": records, "displayTimeUnit": "ns"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    return len(records)


def write_metrics_csv(rows: Iterable[Mapping[str, float]], path: str | Path) -> int:
    """Write the metrics timeseries as CSV; returns the row count.

    Columns come from the first row (every registry row has the same
    shape); integral values are written without a trailing ``.0`` so the
    file reads naturally.
    """
    import csv

    rows = list(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if not rows:
            handle.write("cycle\n")
            return 0
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _format_cell(value) for key, value in row.items()})
    return len(rows)


def _format_cell(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6f}"
