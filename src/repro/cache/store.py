"""Persistent cross-plan counter and answer cache.

The paper's prefix-sampling structure makes caching unusually clean:
for a fixed dataset *and a fixed row order* (the store's sampling
layout and a run's offset into it), the marginal counter of an
attribute at prefix length ``M`` is a pure function of ``(dataset,
row order, attribute, M)`` — valid forever, reusable by any later
session. Likewise a retired answer, together with the per-iteration
interval history that produced it, is a pure function of the query
shape. This module stores both:

* **Counter blocks** — the largest counted prefix seen per attribute
  (and per joint pair), absorbed from a sampler's state snapshot at
  flush time and served back to a later sampler that reaches the same
  prefix, skipping the counting work for every cached row.
* **Retired answers** — the full result payload plus its interval
  history, served back *exactly* (same parameters) or *semantically*
  (a dominated ``η′ >= η`` / ``k′ <= k`` request, replayed by
  :mod:`repro.cache.semantic`).

Cache state is partitioned by ``(dataset fingerprint, shuffle
fingerprint)`` — the dataset's sha256, and the layout's sha256 with the
run offset — because counters from a
different dataset *or* a different row order are garbage for this one.
There is deliberately no way to read or write cache state without
naming the fingerprint: both keys are keyword-only, with no default.

On disk each partition is one JSON file in the checkpoint envelope
(format marker, schema version, payload sha256, atomic replace; see
:func:`repro.durability.checkpoint.write_envelope`), its counters in
the checkpoint's counter codec. Unlike checkpoints, though, a bad
cache file is *not* an error: a cache miss is always safe, so
corruption, version skew, or checksum mismatch silently degrade to an
empty partition and the run proceeds cold.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

import numpy as np

from repro.cache.semantic import Bounds, History, replay_filter, replay_top_k
from repro.core.results import FilterResult, TopKResult
from repro.data.joint import JointCounter
from repro.durability.checkpoint import (
    decode_counters,
    encode_counters,
    read_envelope,
    result_from_payload,
    result_to_payload,
    write_envelope,
)
from repro.exceptions import CheckpointError

__all__ = [
    "CACHE_FORMAT",
    "CACHE_SCHEMA_VERSION",
    "CachePartition",
    "CachedAnswer",
    "PlanCache",
    "ServedAnswer",
    "partition_filename",
]

#: Envelope discriminator; a file without it is not a cache partition.
CACHE_FORMAT = "repro-plan-cache"

#: Bumped on any payload-layout change; mismatching files are treated as
#: empty (cache semantics: stale state degrades to a miss, never an error).
#: v2: counters in the checkpoint's v5 codec (narrow raw integers, dense
#: joint tables possibly as their nonzero cells) instead of zlib streams.
CACHE_SCHEMA_VERSION = 2

QueryResult = Union[TopKResult, FilterResult]

#: Exceptions that turn a cache-file read into an empty partition.
_LOAD_ERRORS = (
    ValueError,
    KeyError,
    TypeError,
    AttributeError,
    CheckpointError,  # a missing or defective file, or a corrupt array
)


def partition_filename(fingerprint: str, shuffle: str) -> str:
    """File name of one ``(dataset fingerprint, shuffle)`` partition."""
    digest = hashlib.sha256(f"{fingerprint}\n{shuffle}".encode("utf-8"))
    return f"part-{digest.hexdigest()[:32]}.json"


@dataclass(frozen=True)
class CachedAnswer:
    """One retired answer with the history needed for semantic replay.

    The *family* fields identify runs that are interchangeable up to the
    query parameter: same kind, score, ``ε``, failure probability,
    schedule start (the floor-ratcheted first sample size — two runs
    starting at different sizes walk different schedules and are not
    comparable), target, candidate tuple, and pruning mode. ``param`` is
    the threshold ``η`` for filters and ``k`` for top-k.
    """

    kind: str
    score: str
    epsilon: float
    failure_probability: float
    schedule_start: int
    target: str | None
    candidates: tuple[str, ...]
    prune: bool
    param: float
    history: tuple[tuple[int, dict[str, Bounds]], ...]
    result: dict[str, Any]

    @property
    def family(
        self,
    ) -> tuple[str, str, float, float, int, str | None, tuple[str, ...], bool]:
        return (
            self.kind,
            self.score,
            self.epsilon,
            self.failure_probability,
            self.schedule_start,
            self.target,
            self.candidates,
            self.prune,
        )


@dataclass(frozen=True)
class ServedAnswer:
    """A cache hit: the rebuilt result plus how it was derived.

    ``mode`` is ``"exact"`` (stored result, work stats zeroed and moved
    into ``cells_saved``) or ``"semantic"`` (replayed from a dominating
    entry's history; ``source_param`` names the entry that served it).
    """

    result: QueryResult
    mode: str
    source_param: float


class CachePartition:
    """Counter blocks and retired answers of one (dataset, shuffle) pair.

    Construct via :meth:`PlanCache.partition` — the keyword-only
    fingerprints are the cache key and must always be spelled at the
    call site (a call which omits either of them raises TypeError).
    """

    def __init__(self, *, fingerprint: str, shuffle: str) -> None:
        self.fingerprint = fingerprint
        self.shuffle = shuffle
        # Owned counters in the sampler's state-snapshot entry form
        # ({"counted", "counts"} per attribute; {"first", "second",
        # "counted", "counter"} per joint pair in key order); only the
        # largest prefix is kept.
        self._marginals: dict[str, dict[str, Any]] = {}
        self._joints: dict[tuple[str, str], dict[str, Any]] = {}
        self._answers: list[CachedAnswer] = []
        self._dirty = False

    # ------------------------------------------------------------------
    # Counter blocks (repro.data.sampling.CounterCache protocol)
    # ------------------------------------------------------------------
    def best_marginal(
        self, name: str, counted: int, num_rows: int
    ) -> tuple[int, np.ndarray] | None:
        """A cached counter for ``name`` covering ``(counted, num_rows]``.

        Counters only grow, so a cached prefix is usable exactly when it
        lies strictly beyond what the sampler already counted and at or
        before the prefix it is about to extend to. Returns a *writable
        copy* — the sampler will keep extending it in place.
        """
        entry = self._marginals.get(name)
        if entry is not None and counted < entry["counted"] <= num_rows:
            return entry["counted"], entry["counts"].copy()
        return None

    def best_joint(
        self, first: str, second: str, counted: int, num_rows: int
    ) -> tuple[int, JointCounter] | None:
        """Like :meth:`best_marginal` for the joint pair ``(first, second)``.

        ``first``/``second`` are taken in the sampler's canonical key
        order (lexicographic); the returned counter is a deep copy.
        """
        key = (first, second) if first <= second else (second, first)
        entry = self._joints.get(key)
        if entry is not None and counted < entry["counted"] <= num_rows:
            return entry["counted"], JointCounter.from_snapshot(entry["counter"])
        return None

    def absorb_sampler_state(self, state: dict[str, Any]) -> None:
        """Keep the deepest counted prefix per counter from a snapshot.

        ``state`` is :meth:`~repro.data.sampling.PrefixSampler.state_snapshot`
        output with live arrays; everything kept is copied.
        """
        for name, entry in state["marginals"].items():
            current = self._marginals.get(name)
            if entry["counted"] > (0 if current is None else current["counted"]):
                self._marginals[str(name)] = copy.deepcopy(entry)
                self._dirty = True
        for joint in state["joints"]:
            key = (str(joint["first"]), str(joint["second"]))
            current = self._joints.get(key)
            if joint["counted"] > (0 if current is None else current["counted"]):
                self._joints[key] = copy.deepcopy(joint)
                self._dirty = True

    # ------------------------------------------------------------------
    # Retired answers
    # ------------------------------------------------------------------
    def put_answer(
        self,
        *,
        kind: str,
        score: str,
        epsilon: float,
        failure_probability: float,
        schedule_start: int,
        candidates: tuple[str, ...],
        target: str | None,
        prune: bool,
        param: float,
        history: History,
        result: QueryResult,
    ) -> None:
        """Store a retired answer; non-converged results are refused.

        A result whose guarantee was not met (budget exhaustion,
        cancellation) says nothing reusable about the data — only
        ``converged`` answers enter the cache.
        """
        guarantee = result.guarantee
        if guarantee is None or not guarantee.guarantee_met:
            return
        if not history:
            return
        entry = CachedAnswer(
            kind=kind,
            score=score,
            epsilon=epsilon,
            failure_probability=failure_probability,
            schedule_start=schedule_start,
            target=target,
            candidates=tuple(candidates),
            prune=prune,
            param=param,
            history=tuple(
                (int(size), dict(bounds)) for size, bounds in history
            ),
            result=result_to_payload(result),
        )
        family = entry.family
        self._answers = [
            e
            for e in self._answers
            if not (e.family == family and e.param == param)
        ]
        self._answers.append(entry)
        self._dirty = True

    def lookup_answer(
        self,
        *,
        kind: str,
        score: str,
        epsilon: float,
        failure_probability: float,
        schedule_start: int,
        candidates: tuple[str, ...],
        target: str | None,
        prune: bool,
        param: float,
        population_size: int,
        first_evaluated: tuple[int, int],
    ) -> ServedAnswer | None:
        """Serve a stored or dominated answer for this query shape.

        Exact match first. Otherwise semantic reuse walks dominating
        entries nearest-first — for a filter, stored thresholds
        ``η <= η′`` descending; for top-k, stored ``k >= k′`` ascending —
        and replays each history until one covers the request. Replay
        refusal (history insufficient) falls through to the next entry,
        then to a miss. ``first_evaluated`` is the requested run's
        ``(schedule index, sample size)`` of its first evaluation (its
        decision floor), where each replay starts.
        """
        family = (
            kind,
            score,
            epsilon,
            failure_probability,
            schedule_start,
            target,
            tuple(candidates),
            prune,
        )
        entries = [e for e in self._answers if e.family == family]
        for entry in entries:
            if entry.param == param:
                return ServedAnswer(
                    self._rebuild_exact(entry), "exact", entry.param
                )
        if kind == "filter":
            dominating = sorted(
                (e for e in entries if e.param <= param),
                key=lambda e: -e.param,
            )
        else:
            dominating = sorted(
                (e for e in entries if e.param >= param),
                key=lambda e: e.param,
            )
        for entry in dominating:
            derived: QueryResult | None
            if kind == "filter":
                derived = replay_filter(
                    entry.history,
                    entry.candidates,
                    param,
                    epsilon,
                    population_size,
                    target=target,
                    first_evaluated=first_evaluated,
                )
            else:
                derived = replay_top_k(
                    entry.history,
                    entry.candidates,
                    int(param),
                    epsilon,
                    population_size,
                    prune=prune,
                    target=target,
                    first_evaluated=first_evaluated,
                )
            if derived is not None:
                return ServedAnswer(derived, "semantic", entry.param)
        return None

    @staticmethod
    def _rebuild_exact(entry: CachedAnswer) -> QueryResult:
        """Fresh result object for an exact hit, with honest work stats.

        The stored stats describe the run that *produced* the answer;
        serving it does no counting, so the work fields are zeroed and
        the avoided work lands in ``cells_saved``. Loop-shape fields
        (iterations, final sample size, pruning) are kept — they
        describe the answer, not this serve.
        """
        result = result_from_payload(entry.result)
        stats = result.stats
        stats.cells_saved = stats.cells_saved + stats.cells_scanned
        stats.cells_scanned = 0
        stats.wall_seconds = 0.0
        stats.counting_seconds = 0.0
        stats.bounds_seconds = 0.0
        stats.trace_event_count = 0
        return result

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """Whether this partition holds state not yet written to disk."""
        return self._dirty

    def mark_clean(self) -> None:
        self._dirty = False

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready partition payload (arrays via the checkpoint codecs)."""
        counters = {
            "marginals": self._marginals,
            "joints": [self._joints[key] for key in sorted(self._joints)],
        }
        return {
            "fingerprint": self.fingerprint,
            "shuffle": self.shuffle,
            **encode_counters(counters),
            "answers": [
                {
                    "kind": e.kind,
                    "score": e.score,
                    "epsilon": e.epsilon,
                    "failure_probability": e.failure_probability,
                    "schedule_start": e.schedule_start,
                    "target": e.target,
                    "candidates": list(e.candidates),
                    "prune": e.prune,
                    "param": e.param,
                    "history": [
                        [size, {a: list(b) for a, b in bounds.items()}]
                        for size, bounds in e.history
                    ],
                    "result": e.result,
                }
                for e in self._answers
            ],
        }

    def load_payload(self, payload: dict[str, Any]) -> None:
        """Populate from a decoded payload (raises on malformed input)."""
        counters = decode_counters(payload)
        answers: list[CachedAnswer] = []
        for raw in payload["answers"]:
            target = raw["target"]
            history = tuple(
                (
                    int(size),
                    {
                        str(a): (
                            float(b[0]),
                            float(b[1]),
                            float(b[2]),
                            float(b[3]),
                        )
                        for a, b in bounds.items()
                    },
                )
                for size, bounds in raw["history"]
            )
            answers.append(
                CachedAnswer(
                    kind=str(raw["kind"]),
                    score=str(raw["score"]),
                    epsilon=float(raw["epsilon"]),
                    failure_probability=float(raw["failure_probability"]),
                    schedule_start=int(raw["schedule_start"]),
                    target=None if target is None else str(target),
                    candidates=tuple(str(a) for a in raw["candidates"]),
                    prune=bool(raw["prune"]),
                    param=float(raw["param"]),
                    history=history,
                    result=dict(raw["result"]),
                )
            )
        # All-or-nothing: only replace state once the whole payload parsed.
        self._marginals = counters["marginals"]
        self._joints = {
            (joint["first"], joint["second"]): joint
            for joint in counters["joints"]
        }
        self._answers = answers


@dataclass
class PlanCache:
    """Partitioned plan cache, in-memory or backed by a directory.

    With ``directory=None`` the cache lives only for the process —
    useful for sharing work between executors in one session and for
    tests. With a directory, each partition loads lazily on first
    access and :meth:`flush` writes dirty partitions atomically.
    """

    directory: Path | None = None
    _partitions: dict[tuple[str, str], CachePartition] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if self.directory is not None:
            self.directory = Path(self.directory)

    def partition(self, *, fingerprint: str, shuffle: str) -> CachePartition:
        """The partition for one (dataset fingerprint, shuffle) pair.

        Both keys are mandatory and keyword-only: there is no such thing
        as cache state without any dataset identity at all.
        """
        key = (fingerprint, shuffle)
        part = self._partitions.get(key)
        if part is None:
            part = CachePartition(fingerprint=fingerprint, shuffle=shuffle)
            if self.directory is not None:
                self._load_partition(part)
            self._partitions[key] = part
        return part

    def _load_partition(self, part: CachePartition) -> None:
        """Read a partition file; any defect degrades to an empty partition."""
        assert self.directory is not None
        path = self.directory / partition_filename(
            part.fingerprint, part.shuffle
        )
        try:
            payload = read_envelope(
                path, marker=CACHE_FORMAT, schema_version=CACHE_SCHEMA_VERSION
            )
            if (
                payload.get("fingerprint") != part.fingerprint
                or payload.get("shuffle") != part.shuffle
            ):
                return  # foreign partition under our name: start cold
            part.load_payload(payload)
        except _LOAD_ERRORS:
            return  # missing, corrupt or stale (never migrated): start cold

    def flush(self) -> None:
        """Atomically write every dirty partition (no-op when in-memory).

        Each write encodes the partition's counters afresh: a plan
        flushes a partition once, and a warm rerun starts from a fresh
        load, so an encoding memo would never be hit.
        """
        if self.directory is None:
            return
        dirty = [p for p in self._partitions.values() if p.dirty]
        if not dirty:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        for part in dirty:
            write_envelope(
                self.directory
                / partition_filename(part.fingerprint, part.shuffle),
                part.to_payload(),
                marker=CACHE_FORMAT,
                schema_version=CACHE_SCHEMA_VERSION,
            )
            part.mark_clean()
