"""Aggregate attribution reports: tables, side-by-side comparison, JSON.

A :class:`LatencyAttributor` keeps one row per delivered packet (and builds
a :class:`~repro.obs.attribution.PacketAttribution` from a row only when
asked); this module rolls those up into an :class:`AttributionSummary` per
(config, load) point -- mean, median, p95, and share per component -- and
renders one or several summaries (FR next to VC is the interesting case)
as a fixed-width table or as a ``frfc-attribution/1`` JSON artifact.

The per-packet conservation invariant survives aggregation: the component
means of a summary sum to its mean latency exactly (in floating point, to
the precision of the division), which `validate_attribution` checks when
an artifact is loaded back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.attribution import (
    COMPONENTS,
    MODELS,
    LatencyAttributor,
    PacketAttribution,
    PacketSpans,
)
from repro.obs.exporters import atomic_write_json
from repro.stats.collectors import percentile

#: Schema tag carried by every attribution JSON artifact.
ATTRIBUTION_SCHEMA = "frfc-attribution/1"


@dataclass(frozen=True)
class ComponentStats:
    """One latency component's distribution over a set of packets."""

    mean: float
    p50: float
    p95: float
    maximum: int
    share: float  # fraction of total mean latency, in [0, 1]

    def as_dict(self) -> dict[str, float]:
        return {
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "max": self.maximum,
            "share": self.share,
        }


@dataclass(frozen=True)
class AttributionSummary:
    """One (config, load) point's attribution rollup."""

    label: str
    model: str  # "fr" | "vc" | "mixed"
    packets: int
    unattributed: int
    mean_latency: float
    mean_hops: float
    denies: int
    components: dict[str, ComponentStats]

    @classmethod
    def from_records(
        cls,
        records: Sequence[PacketAttribution],
        label: str = "",
        unattributed: int = 0,
    ) -> "AttributionSummary":
        return cls._rollup(
            label,
            unattributed,
            models={record.model for record in records},
            latencies=[record.latency for record in records],
            hops=[record.hops for record in records],
            denies=[record.denies for record in records],
            components={
                name: [record.components[name] for record in records] for name in COMPONENTS
            },
        )

    @classmethod
    def from_attributor(
        cls,
        attributor: LatencyAttributor,
        label: str = "",
        measured_only: bool = True,
    ) -> "AttributionSummary":
        """Roll up the attributor's rows without building a record."""
        columns = attributor.columns(measured_only)
        if not columns["packet_id"]:  # attach happened after the window (or no traffic)
            columns = attributor.columns()
        return cls._rollup(
            label,
            attributor.unattributed,
            models={MODELS[model] for model in columns["model"]},
            latencies=[
                delivered - created
                for created, delivered in zip(
                    columns["created_cycle"], columns["delivered_cycle"]
                )
            ],
            hops=columns["hops"],
            denies=columns["denies"],
            components={name: columns[name] for name in COMPONENTS},
        )

    @classmethod
    def _rollup(
        cls,
        label: str,
        unattributed: int,
        models: set[str],
        latencies: Sequence[int],
        hops: Sequence[int],
        denies: Sequence[int],
        components: Mapping[str, Sequence[int]],
    ) -> "AttributionSummary":
        """The arithmetic both constructors share: per-packet values in, in
        delivery order, one value per packet in every sequence."""
        if not latencies:
            raise ValueError(f"no attribution records to summarize for {label!r}")
        count = len(latencies)
        mean_latency = sum(latencies) / count
        stats: dict[str, ComponentStats] = {}
        for name in COMPONENTS:
            ordered = sorted(components[name])
            mean = sum(ordered) / count
            stats[name] = ComponentStats(
                mean=mean,
                p50=percentile(ordered, 50.0),
                p95=percentile(ordered, 95.0),
                maximum=ordered[-1],
                share=mean / mean_latency if mean_latency else 0.0,
            )
        return cls(
            label=label,
            model=models.pop() if len(models) == 1 else "mixed",
            packets=count,
            unattributed=unattributed,
            mean_latency=mean_latency,
            mean_hops=sum(hops) / count,
            denies=sum(denies),
            components=stats,
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AttributionSummary":
        """Rebuild a summary from its ``as_dict`` form (ledger replay, diff)."""
        components = {
            name: ComponentStats(
                mean=stats["mean"],
                p50=stats["p50"],
                p95=stats["p95"],
                maximum=stats["max"],
                share=stats["share"],
            )
            for name, stats in payload["components"].items()
        }
        return cls(
            label=payload["label"],
            model=payload["model"],
            packets=payload["packets"],
            unattributed=payload["unattributed"],
            mean_latency=payload["mean_latency"],
            mean_hops=payload["mean_hops"],
            denies=payload["denies"],
            components=components,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "model": self.model,
            "packets": self.packets,
            "unattributed": self.unattributed,
            "mean_latency": self.mean_latency,
            "mean_hops": self.mean_hops,
            "denies": self.denies,
            "components": {
                name: stats.as_dict() for name, stats in self.components.items()
            },
        }


def format_attribution_table(summaries: Sequence[AttributionSummary]) -> str:
    """Render one or several summaries as a fixed-width component table.

    One column block per summary (FR and VC side by side is the intended
    comparison); one row per component plus a total row that restates the
    conservation invariant.
    """
    if not summaries:
        raise ValueError("no attribution summaries to format")
    name_width = max(len(name) for name in COMPONENTS + ("component", "total"))
    headers = [summary.label or summary.model or "run" for summary in summaries]
    columns: list[list[str]] = []
    for summary in summaries:
        cells = [
            f"{summary.components[name].mean:8.2f} "
            f"({summary.components[name].share:5.1%}) "
            f"p95={summary.components[name].p95:6.1f}"
            for name in COMPONENTS
        ]
        cells.append(f"{summary.mean_latency:8.2f} (n={summary.packets})")
        columns.append(cells)
    widths = [
        max(len(header), *(len(cell) for cell in cells))
        for header, cells in zip(headers, columns)
    ]
    row_names = list(COMPONENTS) + ["total"]
    lines = [
        "  ".join(
            ["component".ljust(name_width)]
            + [header.rjust(width) for header, width in zip(headers, widths)]
        ),
        "  ".join(["-" * name_width] + ["-" * width for width in widths]),
    ]
    for row, name in enumerate(row_names):
        lines.append(
            "  ".join(
                [name.ljust(name_width)]
                + [
                    columns[col][row].rjust(widths[col])
                    for col in range(len(summaries))
                ]
            )
        )
    return "\n".join(lines)


def build_attribution_report(
    summaries: Sequence[AttributionSummary],
    context: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the ``frfc-attribution/1`` payload."""
    report: dict[str, Any] = {
        "schema": ATTRIBUTION_SCHEMA,
        "component_order": list(COMPONENTS),
        "summaries": [summary.as_dict() for summary in summaries],
    }
    if context:
        report["context"] = dict(context)
    return report


def write_attribution_json(
    summaries: Sequence[AttributionSummary],
    path: str | Path,
    context: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Write the JSON artifact; returns the payload that was written."""
    report = build_attribution_report(summaries, context)
    atomic_write_json(path, report)
    return report


def validate_attribution(payload: Mapping[str, Any]) -> None:
    """Check an attribution artifact's schema and conservation invariant.

    Raises ``ValueError`` with a specific message on the first violation;
    used by tests and the CI artifact gate.
    """
    if payload.get("schema") != ATTRIBUTION_SCHEMA:
        raise ValueError(f"unexpected schema {payload.get('schema')!r}")
    if payload.get("component_order") != list(COMPONENTS):
        raise ValueError("component_order does not match the taxonomy")
    summaries = payload.get("summaries")
    if not isinstance(summaries, list) or not summaries:
        raise ValueError("artifact has no summaries")
    for summary in summaries:
        label = summary.get("label", "?")
        missing = [name for name in COMPONENTS if name not in summary["components"]]
        if missing:
            raise ValueError(f"summary {label!r} is missing components {missing}")
        total = sum(
            summary["components"][name]["mean"] for name in COMPONENTS
        )
        if not math.isclose(total, summary["mean_latency"], abs_tol=1e-6):
            raise ValueError(
                f"summary {label!r}: component means sum to {total}, "
                f"mean latency is {summary['mean_latency']}"
            )
        if summary["packets"] < 1:
            raise ValueError(f"summary {label!r} covers no packets")


def iter_waterfall_records(
    records: Iterable[PacketSpans | PacketAttribution],
) -> Iterable[dict[str, Any]]:
    """Chrome-trace async sub-spans nesting components inside packet spans.

    Each segment becomes a ``b``/``e`` pair with the *same* category and id
    as the packet's existing span, so Perfetto stacks the component bars
    directly under the packet bar -- a per-packet latency waterfall.
    ``records`` may be records or an attributor's ``spans()``: both carry
    the packet id, source and segments, which is all this reads.
    """
    for record in records:
        for segment in record.segments:
            common = {
                "cat": "packet",
                "id": record.packet_id,
                "name": segment.component,
                "pid": 0,
                "tid": record.source,
            }
            yield {
                **common,
                "ph": "b",
                "ts": max(segment.start, 0),
                "args": {"node": segment.node, "cycles": segment.cycles},
            }
            yield {**common, "ph": "e", "ts": max(segment.end, 0), "args": {}}
