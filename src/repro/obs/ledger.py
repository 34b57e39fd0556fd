"""The run ledger: a content-addressed store of simulation results.

Every harness run can be identified *before it executes*: its configuration,
offered load, seed, measurement preset, topology, traffic parameters, the
checkout's git SHA, and a **code digest** over the model's import closure
(:func:`repro.analysis.imports.import_closure`, so editing a module that the
model can actually reach invalidates exactly the affected models and nothing
else).  The ledger keys each run record by the SHA-256 of that canonicalised
identity and stores it as one JSON file under ``.frfc/runs/``.

The digest reads and hashes every closure module each time; what it does not
redo is the parse that finds their imports, which ``imports.memo`` in the
store remembers per content hash (:class:`_ImportMemo`).

Records (schema ``frfc-runrecord/1``) carry the measured result plus its own
digest, the attribution summary and profiler phase timings when the run was
observed, ``events_dropped``, and artifact paths.  Writes are atomic (temp +
rename, via :func:`repro.obs.exporters.atomic_write_text`); reads re-verify
the stored content hash, result digest, and identity hash against the file
name -- a mismatch raises :class:`LedgerCorruptionError` and is **never** a
silent stale hit (``lookup`` degrades a corrupt record to a loudly-reported
miss so the sweep re-simulates and overwrites it).

Nothing in a record depends on the wall clock except the explicitly labelled
``profile`` block (the profiler's own telemetry), so a cache hit replays the
recorded result byte-identically to a fresh simulation -- the property the
resumable-sweep and warm-ledger CI gates pin down.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from repro.analysis.imports import (
    MODEL_MODULES,
    RawImport,
    import_closure,
    module_origin,
    raw_imports,
)
from repro.obs.exporters import atomic_write_text
from repro.obs.manifest import MANIFEST_SCHEMA, _config_dict, git_sha

if TYPE_CHECKING:
    from repro.harness.experiment import AnyConfig, ExperimentResult
    from repro.harness.presets import MeasurementPreset
    from repro.obs.report import AttributionSummary
    from repro.obs.session import ObsSession
    from repro.topology.mesh import Mesh2D

#: Schema tag carried by every run record.
RECORD_SCHEMA = "frfc-runrecord/1"

#: Default store location, relative to the invoking directory.
DEFAULT_STORE = ".frfc/runs"

#: The import memo's file in the store root.  Not ``*.json``: it is no record,
#: so ``scan``, ``resolve`` and every "is the store filled" glob pass it by.
_MEMO_NAME = "imports.memo"

#: Config dataclass name -> its model kind (a key of ``MODEL_MODULES``).
_CONFIG_MODELS = {
    "FRConfig": "FR",
    "VCConfig": "VC",
    "WormholeConfig": "WH",
}


class LedgerError(Exception):
    """A ledger operation could not be carried out."""


class LedgerCorruptionError(LedgerError):
    """A stored record failed hash verification; it will never be replayed."""


def canonical_json(payload: Any) -> str:
    """The canonical serialisation every ledger digest is computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(payload: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _module_source(module: str) -> Optional[bytes]:
    """The source bytes of ``module`` (None when it has no source file).

    The one place the ledger reads code: what is hashed into the digest is
    what was searched for imports.  Module-level so tests can monkeypatch it
    to simulate code edits without touching the working tree.
    """
    origin = module_origin(module)
    return None if origin is None else Path(origin).read_bytes()


class _ImportMemo:
    """What each module imports, remembered in the store by content hash.

    Finding a module's import statements means parsing it, and that is a
    pure function of its bytes; so the store keeps ``module -> (sha256 of
    the bytes, the statements as written)`` and an entry answers only for
    bytes that hash to it -- every module is still read and hashed each
    time.  What the statements *resolve* to is not remembered: that depends
    on which files exist, and ``import_closure`` asks again every time.

    The file is no artifact: it carries its own digest, a file that fails it
    is dropped whole, and deleting it costs one parse of the tree.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        #: module -> SHA-256 (hex) of the bytes read for it this time.
        self.hashes: dict[str, str] = {}
        self._entries = self._read()
        self._answered: dict[str, Optional[Sequence[RawImport]]] = {}
        self._stale = False

    def _read(self) -> dict[str, Any]:
        try:
            payload = json.loads(self.path.read_bytes())
            entries = payload["modules"]
            if payload["digest"] == content_digest(entries):
                return dict(entries)
        except (OSError, ValueError, KeyError, TypeError):
            pass
        return {}

    def module_imports(self, module: str) -> Optional[Sequence[RawImport]]:
        if module in self._answered:
            return self._answered[module]
        source = _module_source(module)
        if source is None:
            self._answered[module] = None
            return None
        sha = hashlib.sha256(source).hexdigest()
        self.hashes[module] = sha
        entry = self._entries.get(module)
        if entry is None or entry["sha256"] != sha:
            entry = {"sha256": sha, "imports": raw_imports(ast.parse(source))}
            self._entries[module] = entry
            self._stale = True
        imports: Sequence[RawImport] = entry["imports"]
        self._answered[module] = imports
        return imports

    def save(self) -> None:
        """Rewrite the file if anything had to be parsed since it was read.

        A store that cannot be written (a read-only archive being replayed)
        still gets its digest; it just parses again next time.
        """
        if not self._stale:
            return
        payload = {"digest": content_digest(self._entries), "modules": self._entries}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self.path, canonical_json(payload) + "\n")
        except OSError:
            return
        self._stale = False


def _model_kind(config: "AnyConfig") -> str:
    kind = _CONFIG_MODELS.get(type(config).__name__)
    if kind is None:
        raise LedgerError(
            f"cannot ledger a run of unknown config type {type(config).__name__}"
        )
    return kind


class RunLedger:
    """Content-addressed run records under one store directory.

    The instance keeps per-process caches of the git SHA and per-model code
    digests (instance state, never module state: a module cache would be
    shared by every run in the process) plus hit/miss/corrupt counters that the
    sweep harness and CLI surface as telemetry.

    Parallel sweeps (:mod:`repro.harness.parallel`) ride on three more
    pieces of instance state: ``on_miss`` (a one-shot hook that fans the
    sweep's cold points out the first time a record is absent), ``written``
    (the hashes this object stored, which pool workers report back) and
    ``prewarmed`` (hashes workers stored on this ledger's behalf: their first
    lookup counts as the miss + record a serial run would have made).
    """

    def __init__(self, root: "str | Path" = DEFAULT_STORE) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.recorded = 0
        self.corrupt = 0
        self.last_hit = False
        self.last_record: Optional[dict[str, Any]] = None
        self.written: list[str] = []
        self.prewarmed: set[str] = set()
        self.on_miss: Optional[Callable[[], None]] = None
        self._git_sha: Optional[str] = None
        self._code_digests: dict[str, str] = {}
        self._imports: Optional[_ImportMemo] = None

    def __getstate__(self) -> dict[str, Any]:
        # Pool workers get the digests, not the import memo behind them.
        return {**self.__dict__, "_imports": None}

    # -- identity -----------------------------------------------------------

    def current_git_sha(self) -> str:
        if self._git_sha is None:
            self._git_sha = git_sha()
        return self._git_sha

    def code_digest(self, model: str) -> str:
        """Digest of every source file the model's harness entry can reach.

        Walks the import closure rooted at ``repro.harness.experiment`` plus
        the model's own modules, stopping at the other models' modules -- so
        an edit to e.g. the VC router changes the VC digest (forcing VC
        re-simulation) while FR and wormhole records keep hitting.
        """
        cached = self._code_digests.get(model)
        if cached is not None:
            return cached
        if model not in MODEL_MODULES:
            known = ", ".join(sorted(MODEL_MODULES))
            raise LedgerError(f"unknown model kind {model!r}; known: {known}")
        stop = frozenset(
            module
            for kind, modules in MODEL_MODULES.items()
            if kind != model
            for module in modules
        )
        # One memo per ledger: the models' closures mostly overlap, so a
        # sweep over FR and VC reads the shared modules once.
        if self._imports is None:
            self._imports = _ImportMemo(self.root / _MEMO_NAME)
        members: set[str] = set()
        for root in ("repro.harness.experiment", *MODEL_MODULES[model]):
            members.update(import_closure(root, self._imports, stop=stop))
        self._imports.save()
        digest = hashlib.sha256()
        for module in sorted(members):
            digest.update(module.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(bytes.fromhex(self._imports.hashes[module]))
            digest.update(b"\x00")
        value = digest.hexdigest()
        self._code_digests[model] = value
        return value

    def prime(self, configs: "list[AnyConfig]") -> None:
        """Compute the git SHA and the code digest of each config's model
        now, so pool workers inherit them instead of recomputing each."""
        self.current_git_sha()
        for config in configs:
            model = _model_kind(config)
            if model not in self._code_digests:
                self.code_digest(model)

    def experiment_identity(
        self,
        config: "AnyConfig",
        offered_load: float,
        packet_length: int,
        seed: int,
        preset: "MeasurementPreset",
        mesh: "Mesh2D",
        traffic: Any,
        injection_process: str,
        streaming: bool,
        check_invariants: bool,
        network_kwargs: Mapping[str, Any],
    ) -> dict[str, Any]:
        """The identity of one ``run_experiment`` call, pre-execution."""
        model = _model_kind(config)
        params: dict[str, Any] = {
            # A non-string pattern identifies by repr: a default object repr
            # embeds the instance address, which can only cause misses (safe),
            # never a wrong hit; dataclass patterns round-trip stably.
            "traffic": traffic if isinstance(traffic, str) else repr(traffic),
            "injection_process": injection_process,
            "streaming": bool(streaming),
        }
        for key in sorted(network_kwargs):
            params[key] = repr(network_kwargs[key])
        # `name` is a property on the config dataclasses, so asdict drops it;
        # the listing/label machinery wants it in the identity.
        config_record = _config_dict(config)
        config_record.setdefault("name", getattr(config, "name", type(config).__name__))
        return {
            "schema": MANIFEST_SCHEMA,
            "kind": "experiment",
            "model": model,
            "config": config_record,
            "offered_load": offered_load,
            "packet_length": packet_length,
            "seed": seed,
            "preset": dataclasses.asdict(preset),
            "mesh": f"{mesh.width}x{mesh.height}",
            "check_invariants": bool(check_invariants),
            "params": params,
            "git_sha": self.current_git_sha(),
            "code_digest": self.code_digest(model),
        }

    @staticmethod
    def identity_hash(identity: Mapping[str, Any]) -> str:
        return content_digest(dict(identity))

    # -- store paths --------------------------------------------------------

    def record_path(self, identity_hash: str) -> Path:
        return self.root / f"{identity_hash}.json"

    def resolve(self, prefix: str) -> str:
        """Expand a unique identity-hash prefix to the full hash."""
        if not self.root.is_dir():
            raise LedgerError(f"no run ledger at {self.root}")
        matches = [
            path.stem
            for path in sorted(self.root.glob("*.json"))
            if path.stem.startswith(prefix)
        ]
        if not matches:
            raise LedgerError(f"no run record matching {prefix!r} in {self.root}")
        if len(matches) > 1:
            shown = ", ".join(match[:12] for match in matches)
            raise LedgerError(f"ambiguous record prefix {prefix!r}: {shown}")
        return matches[0]

    # -- read path: always verified -----------------------------------------

    def load(self, identity_hash: str) -> dict[str, Any]:
        """Load and fully verify one record; raises on any mismatch."""
        path = self.record_path(identity_hash)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise LedgerError(f"no run record {identity_hash} in {self.root}") from None
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            raise LedgerCorruptionError(f"{path}: not valid JSON ({error})") from None
        self.verify(record, expected_hash=identity_hash, origin=str(path))
        return dict(record)

    @staticmethod
    def verify(
        record: Mapping[str, Any],
        expected_hash: str = "",
        origin: str = "record",
    ) -> None:
        """Re-derive every digest a record claims; raise on the first lie."""
        if record.get("schema") != RECORD_SCHEMA:
            raise LedgerCorruptionError(
                f"{origin}: schema is {record.get('schema')!r}, "
                f"expected {RECORD_SCHEMA!r}"
            )
        body = {key: record[key] for key in record if key != "content_hash"}
        actual_content = content_digest(body)
        if actual_content != record.get("content_hash"):
            raise LedgerCorruptionError(
                f"{origin}: content hash mismatch (stored "
                f"{str(record.get('content_hash'))[:12]}..., recomputed "
                f"{actual_content[:12]}...); refusing to replay"
            )
        actual_result = content_digest(record.get("result"))
        if actual_result != record.get("result_digest"):
            raise LedgerCorruptionError(
                f"{origin}: result digest mismatch; refusing to replay"
            )
        actual_identity = content_digest(record.get("identity"))
        if actual_identity != record.get("identity_hash"):
            raise LedgerCorruptionError(
                f"{origin}: identity hash mismatch; refusing to replay"
            )
        if expected_hash and actual_identity != expected_hash:
            raise LedgerCorruptionError(
                f"{origin}: stored under {expected_hash[:12]}... but its "
                f"identity hashes to {actual_identity[:12]}...; refusing to replay"
            )

    def lookup(self, identity: Mapping[str, Any]) -> Optional[dict[str, Any]]:
        """The verified record for ``identity``, or None (a miss).

        Corruption is *never* a stale hit: a record that fails verification
        is reported on stderr, counted, and treated as a miss so the caller
        re-simulates and atomically overwrites it.
        """
        key = self.identity_hash(identity)
        path = self.record_path(key)
        if not path.exists():
            if self.on_miss is None:
                return self._miss()
            # One-shot: a parallel sweep simulates its cold points in a
            # process pool now, so this lookup and the ones after it replay.
            hook, self.on_miss = self.on_miss, None
            hook()
            if not path.exists():
                return self._miss()
        try:
            record = self.load(key)
        except LedgerCorruptionError as error:
            self.corrupt += 1
            sys.stderr.write(f"frfc-ledger: {error}; re-simulating\n")
            return self._miss()
        if canonical_json(record["identity"]) != canonical_json(dict(identity)):
            self.corrupt += 1
            sys.stderr.write(
                f"frfc-ledger: {path}: stored identity does not match the "
                "requested one despite equal hashes; re-simulating\n"
            )
            return self._miss()
        if key in self.prewarmed:
            # Simulated moments ago by a pool worker of this very run: the
            # counters read as if this process had missed and recorded it.
            self.prewarmed.discard(key)
            self.misses += 1
            self.recorded += 1
            self.last_hit = False
        else:
            self.hits += 1
            self.last_hit = True
        self.last_record = record
        return record

    def _miss(self) -> Optional[dict[str, Any]]:
        self.misses += 1
        self.last_hit = False
        self.last_record = None
        return None

    def scan(self) -> tuple[list[dict[str, Any]], list[Path]]:
        """All verified records (sorted by hash) plus any corrupt files."""
        records: list[dict[str, Any]] = []
        corrupt: list[Path] = []
        if not self.root.is_dir():
            return records, corrupt
        for path in sorted(self.root.glob("*.json")):
            try:
                records.append(self.load(path.stem))
            except LedgerCorruptionError:
                corrupt.append(path)
        return records, corrupt

    # -- write path: always atomic ------------------------------------------

    def _write(self, record: dict[str, Any]) -> dict[str, Any]:
        body = {key: record[key] for key in sorted(record) if key != "content_hash"}
        body["content_hash"] = content_digest(body)
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.record_path(record["identity_hash"]),
            json.dumps(body, indent=2, sort_keys=True) + "\n",
        )
        self.recorded += 1
        self.written.append(record["identity_hash"])
        self.last_hit = False
        self.last_record = body
        return body

    def record_experiment(
        self,
        identity: Mapping[str, Any],
        result: "ExperimentResult",
        obs: "ObsSession | None" = None,
        artifacts: Mapping[str, str] | None = None,
    ) -> dict[str, Any]:
        """Store one measured experiment point (plus obs evidence if any)."""
        stored = dataclasses.asdict(result)
        record: dict[str, Any] = {
            "schema": RECORD_SCHEMA,
            "kind": identity["kind"],
            "identity": dict(identity),
            "identity_hash": self.identity_hash(identity),
            "result": stored,
            "result_digest": content_digest(stored),
            "events_dropped": 0,
            "artifacts": dict(artifacts or {}),
        }
        if obs is not None:
            record["events_dropped"] = obs.events_dropped
            label = f"{result.config_name} load={result.offered_load:.2f}"
            summary = obs.attribution_summary(label=label)
            if summary is not None:
                record["attribution"] = summary.as_dict()
            if obs.profiler is not None:
                record["profile"] = obs.profiler.report()
        return self._write(record)

    # -- replay -------------------------------------------------------------

    @staticmethod
    def replay_experiment(record: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild the ExperimentResult a record stored, byte-identically."""
        from repro.harness.experiment import ExperimentResult

        data = dict(record["result"])
        data["extras"] = dict(data.get("extras") or {})
        return ExperimentResult(**data)

    def last_attribution(self) -> "AttributionSummary | None":
        """The attribution summary of the most recent hit/record, if any."""
        if self.last_record is None or "attribution" not in self.last_record:
            return None
        from repro.obs.report import AttributionSummary

        return AttributionSummary.from_dict(self.last_record["attribution"])

    def last_profile(self) -> Optional[dict[str, Any]]:
        if self.last_record is None:
            return None
        profile = self.last_record.get("profile")
        return dict(profile) if profile is not None else None

    def last_events_dropped(self) -> int:
        if self.last_record is None:
            return 0
        return int(self.last_record.get("events_dropped", 0))

    # -- maintenance --------------------------------------------------------

    def gc(self, wipe_all: bool = False) -> tuple[int, int]:
        """Evict stale or corrupt records; returns ``(kept, evicted)``.

        A record is *stale* when its identity no longer matches the current
        checkout: different git SHA, or a different code digest for its
        model (both clock-free, so gc is deterministic).  ``wipe_all``
        empties the store, import memo included.  Stray temp files from
        interrupted writes are always swept.
        """
        kept = 0
        evicted = 0
        if not self.root.is_dir():
            return kept, evicted
        current_sha = self.current_git_sha()
        for path in sorted(self.root.glob("*.json")):
            if wipe_all:
                path.unlink()
                evicted += 1
                continue
            try:
                record = self.load(path.stem)
            except LedgerCorruptionError:
                path.unlink()
                evicted += 1
                continue
            identity = record["identity"]
            stale = identity.get("git_sha") != current_sha
            model = identity.get("model")
            if not stale and isinstance(model, str):
                try:
                    stale = identity.get("code_digest") != self.code_digest(model)
                except LedgerError:
                    stale = True
            if stale:
                path.unlink()
                evicted += 1
            else:
                kept += 1
        if wipe_all:
            (self.root / _MEMO_NAME).unlink(missing_ok=True)
        for tmp in sorted(self.root.glob("*.tmp")):
            tmp.unlink()
        return kept, evicted

    # -- telemetry ----------------------------------------------------------

    @property
    def consulted(self) -> int:
        return self.hits + self.misses

    def summary(self) -> str:
        """One stderr-friendly line: ``ledger: 3/5 cache hits, 2 recorded``."""
        parts = [f"ledger: {self.hits}/{self.consulted} cache hits"]
        if self.recorded:
            parts.append(f"{self.recorded} recorded")
        if self.corrupt:
            parts.append(f"{self.corrupt} corrupt (re-simulated)")
        return ", ".join(parts)


# ---------------------------------------------------------------------------
# Listing and diffing (the `frfc runs` machinery)
# ---------------------------------------------------------------------------


def describe_record(record: Mapping[str, Any]) -> str:
    """One ``frfc runs list`` line for a record."""
    identity = record["identity"]
    short = str(record["identity_hash"])[:12]
    kind = str(record.get("kind", "?"))
    config = identity.get("config", {})
    label = (
        f"{config.get('name', identity.get('model', '?'))} "
        f"load={identity.get('offered_load', 0.0):.2f} "
        f"preset={identity.get('preset', {}).get('name', '?')} "
        f"seed={identity.get('seed', '?')}"
    )
    result = record.get("result", {})
    tail = f"accepted={result.get('accepted_load', 0.0):.3f}"
    if "mean_latency" in result:  # absent from what the retired kinds stored
        tail = f"latency={result['mean_latency']:.1f} {tail}"
    return f"{short}  {kind:<10}  {identity.get('model', '?'):<2}  {label}  {tail}"


_DIFF_FIELDS: tuple[tuple[str, str], ...] = (
    ("offered_load", "{:.3f}"),
    ("accepted_load", "{:.4f}"),
    ("mean_latency", "{:.2f}"),
    ("p95_latency", "{:.2f}"),
    ("latency_ci_halfwidth", "{:.2f}"),
    ("packets_measured", "{:d}"),
    ("cycles_simulated", "{:d}"),
    ("warmup_cycles", "{:d}"),
)


def format_run_diff(a: Mapping[str, Any], b: Mapping[str, Any]) -> str:
    """Side-by-side result + attribution-component deltas of two records."""
    lines = [
        f"A: {describe_record(a)}",
        f"B: {describe_record(b)}",
        "",
        f"{'field':<22} {'A':>12} {'B':>12} {'delta':>12}",
        f"{'-' * 22} {'-' * 12} {'-' * 12} {'-' * 12}",
    ]
    result_a = a.get("result", {})
    result_b = b.get("result", {})
    for field, spec in _DIFF_FIELDS:
        if field not in result_a and field not in result_b:
            continue
        va = result_a.get(field)
        vb = result_b.get(field)
        cell_a = spec.format(va) if va is not None else "-"
        cell_b = spec.format(vb) if vb is not None else "-"
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            delta = f"{float(vb) - float(va):+.2f}"
        else:
            delta = "-"
        lines.append(f"{field:<22} {cell_a:>12} {cell_b:>12} {delta:>12}")
    attribution_a = a.get("attribution")
    attribution_b = b.get("attribution")
    if attribution_a and attribution_b:
        from repro.obs.report import AttributionSummary, format_attribution_table

        summary_a = AttributionSummary.from_dict(attribution_a)
        summary_b = AttributionSummary.from_dict(attribution_b)
        lines.append("")
        lines.append(format_attribution_table([summary_a, summary_b]))
        lines.append("")
        lines.append(f"{'component delta (B-A)':<22} {'mean':>10} {'share':>9}")
        for name in summary_a.components:
            if name not in summary_b.components:
                continue
            ca = summary_a.components[name]
            cb = summary_b.components[name]
            lines.append(
                f"{name:<22} {cb.mean - ca.mean:>+10.2f} {cb.share - ca.share:>+9.1%}"
            )
    elif attribution_a or attribution_b:
        lines.append("")
        which = "A" if attribution_a else "B"
        lines.append(f"(only {which} carries an attribution summary; no component diff)")
    return "\n".join(lines)
