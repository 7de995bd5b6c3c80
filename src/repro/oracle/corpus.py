"""Versioned on-disk corpus of minimal reproducing failure instances.

Every audit violation is serialized as one self-contained JSON record under
the corpus directory (default ``corpus/``), named by a content hash so the
same failure discovered twice lands in the same file.  A record carries the
format version, the failure kind, the engine configuration that produced
it, and the exact instance (graph or flow network, scalars serialized
exactly via :mod:`repro.io.serialization`) -- everything the replayer needs
to re-run the failing call and the same invariant predicates against a
fresh engine.

The corpus doubles as a regression suite: ``repro-oracle replay`` re-audits
every checked-in record and exits non-zero if any failure still
*reproduces*.  A record whose replay comes back clean documents a fixed
bug; one that reproduces is a live defect.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import CorpusError
from ..graphs import WeightedGraph
from ..numeric import Backend, DEFAULT_TOL, EXACT, FLOAT, make_float_backend

__all__ = [
    "CORPUS_FORMAT",
    "DEFAULT_CORPUS_DIR",
    "FailureRecord",
    "FailureCorpus",
    "backend_to_dict",
    "backend_from_dict",
    "shrink_graph",
]

#: Record format version; bump on incompatible schema changes.  The
#: replayer refuses newer formats instead of misinterpreting them.
CORPUS_FORMAT = 1

#: Conventional corpus location at the repository root.
DEFAULT_CORPUS_DIR = "corpus"

#: Kinds a record may carry; the replayer dispatches on this.  ``fuzz``
#: records carry a *raw* (possibly malformed) graph payload dict found by
#: the ``repro-fuzz`` harness; replaying one re-runs the guarded pipeline
#: and reproduces iff an untyped exception or a NaN/Inf result escapes.
KINDS = ("flow", "decomposition", "allocation", "best_response", "fuzz")


def backend_to_dict(backend: Backend) -> dict:
    return {"name": backend.name, "tol": backend.tol}


def backend_from_dict(d: dict) -> Backend:
    tol = d.get("tol", 0.0)
    if tol == 0.0:
        return EXACT
    if tol == DEFAULT_TOL:
        return FLOAT
    return make_float_backend(tol)


@dataclass(frozen=True)
class FailureRecord:
    """One serialized audit failure.

    ``context`` holds the engine configuration (solver name, backend,
    zero-tolerance, audit level), ``payload`` the kind-specific instance
    data (a graph dict, or a network dict plus terminals).  ``problems``
    is the list of violated invariants at record time -- informational;
    the replay verdict always comes from re-running the predicates.
    """

    kind: str
    problems: tuple[str, ...]
    context: dict
    payload: dict
    format: int = CORPUS_FORMAT
    created: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise CorpusError(f"unknown failure kind {self.kind!r}; known: {KINDS}")

    def digest(self) -> str:
        """Content hash over everything replay-relevant (not ``created`` or
        the observed ``problems``, so rediscoveries deduplicate)."""
        canon = json.dumps(
            {"format": self.format, "kind": self.kind,
             "context": self.context, "payload": self.payload},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode()).hexdigest()

    def to_dict(self) -> dict:
        return {
            "format": self.format,
            "kind": self.kind,
            "problems": list(self.problems),
            "context": self.context,
            "payload": self.payload,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FailureRecord":
        if not isinstance(d, dict):
            raise CorpusError(
                f"corpus record is not an object: {type(d).__name__}")
        try:
            fmt = d["format"]
            if not isinstance(fmt, int) or isinstance(fmt, bool):
                raise CorpusError(f"record format is not an integer: {fmt!r}")
            if fmt > CORPUS_FORMAT:
                raise CorpusError(
                    f"record format {fmt} is newer than supported {CORPUS_FORMAT}"
                )
            return cls(
                kind=d["kind"],
                problems=tuple(d.get("problems", ())),
                context=dict(d["context"]),
                payload=dict(d["payload"]),
                format=fmt,
                created=d.get("created", ""),
            )
        except KeyError as exc:
            raise CorpusError(f"missing record field {exc}") from exc
        except (TypeError, ValueError) as exc:
            # dict()/comparison blowing up on wrong-shaped fields: typed
            # refusal, never a raw traceback out of corpus ingestion.
            raise CorpusError(f"malformed record field: {exc}") from exc


class FailureCorpus:
    """Directory of :class:`FailureRecord` JSON files.

    Lazy: the directory is created on the first ``add``, so configuring a
    corpus on an audit run that finds nothing leaves the tree untouched.
    """

    def __init__(self, root: str | Path = DEFAULT_CORPUS_DIR) -> None:
        self.root = Path(root)

    def record_path(self, rec: FailureRecord) -> Path:
        return self.root / f"{rec.kind}-{rec.digest()[:12]}.json"

    def add(self, rec: FailureRecord) -> Path:
        """Persist ``rec`` (no-op when the same failure is already filed)."""
        path = self.record_path(rec)
        if not path.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            with open(tmp, "w") as f:
                json.dump(rec.to_dict(), f, indent=2, sort_keys=True)
                f.write("\n")
            tmp.replace(path)  # atomic publish: replayers never see half a record
        return path

    def paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.glob("*.json"))

    def load(self, path: str | Path) -> FailureRecord:
        try:
            with open(path) as f:
                return FailureRecord.from_dict(json.load(f))
        except (OSError, json.JSONDecodeError) as exc:
            raise CorpusError(f"unreadable corpus record {path}: {exc}") from exc

    def __len__(self) -> int:
        return len(self.paths())

    def __iter__(self):
        for path in self.paths():
            yield path, self.load(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FailureCorpus({str(self.root)!r}, records={len(self)})"


def now_stamp() -> str:
    """UTC second-resolution timestamp for record provenance."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def shrink_graph(g: WeightedGraph, fails, max_evals: int = 200) -> WeightedGraph:
    """Greedy instance minimization: drop vertices while ``fails`` holds.

    ``fails(graph) -> bool`` re-runs the violated check; the predicate must
    treat *any* exception as "still failing" itself if it wants crashes
    minimized.  Evaluation is bounded by ``max_evals`` so a slow predicate
    cannot stall the audit path; the best instance found so far is returned
    (always at least ``g`` itself).

    This is a one-pass greedy delta-debugger, not hypothesis-grade
    shrinking: good enough to strip padding vertices off a sweep instance
    before it is filed in the corpus.
    """
    current = g
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for v in sorted(range(current.n), key=lambda u: -u):
            if current.n <= 2:
                return current
            keep = [u for u in current.vertices() if u != v]
            candidate, _ = current.induced_subgraph(keep)
            evals += 1
            try:
                still_failing = fails(candidate)
            except Exception:
                still_failing = False  # malformed candidate: not a witness
            if still_failing:
                current = candidate
                improved = True
                break
            if evals >= max_evals:
                break
    return current
