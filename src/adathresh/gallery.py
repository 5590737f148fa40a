"""Identity-labeled embedding storage with matching and persistence."""

from __future__ import annotations

import csv
import json
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyGalleryError,
    GalleryFormatError,
    InputContractError,
    ZeroVectorError,
)
from .similarity import unit_vector

# 17 significant digits round-trips any float64 exactly through decimal text.
FLOAT_FORMAT = ".17g"


@dataclass(frozen=True)
class Embedding:
    """One feature vector, tagged with its identity and a unique instance id."""

    instance_id: str
    identity: str
    vector: np.ndarray


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    identity: str | None
    best_similarity: float


class Gallery:
    """Mutable store of identity-labeled embeddings of one fixed dimension.

    Single-writer, multiple-reader: mutations serialize on an internal lock
    and bump ``change_counter``; readers should work from ``snapshot()`` so
    they always see one consistent version.

    Beside the raw embeddings (which ``save`` and ``snapshot`` hand out) the
    gallery keeps one contiguous matrix of their unit rows in registration
    order, grown by doubling: row ``k`` is ``unit_vector`` of
    ``_rows[k].vector``. Writers never touch what a reader took under the
    lock: a registration writes past the ``len(_rows)`` rows it saw, and
    growth and removal build a new matrix and a new list. So a reader that
    took ``_unit``, ``_rows`` and their length under the lock uses them
    unlocked and copies nothing.
    """

    def __init__(self, dimension: int):
        if int(dimension) < 2:
            raise InputContractError("gallery dimension must be >= 2")
        self.dimension = int(dimension)
        self.change_counter = 0
        self.registrations_since_adapt = 0
        self._identities: dict[str, list[Embedding]] = {}
        self._ids: set[str] = set()
        self._id_counter = 0
        self._lock = threading.Lock()
        self._unit = np.empty((0, self.dimension))
        self._rows: list[Embedding] = []

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def identities(self) -> list[str]:
        """Identity labels in registration order."""
        return list(self._identities)

    def embeddings_of(self, identity: str) -> list[Embedding]:
        return list(self._identities.get(identity, ()))

    def snapshot(self) -> tuple[int, dict[str, tuple[Embedding, ...]]]:
        """Consistent view: (change_counter, identity -> embeddings)."""
        with self._lock:
            return self.change_counter, {k: tuple(v) for k, v in self._identities.items()}

    def unit_rows(self) -> tuple[int, np.ndarray, list[str]]:
        """Consistent view: (change_counter, read-only unit rows in
        registration order, the label of each row)."""
        with self._lock:
            version, unit, rows = self.change_counter, self._unit, self._rows
            n = len(rows)
        view = unit[:n]
        view.flags.writeable = False
        return version, view, [e.identity for e in rows[:n]]

    def _validate_vector(self, vector) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"expected a vector of dimension {self.dimension}, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise InputContractError("vector contains non-finite values")
        if not v.any():
            raise ZeroVectorError("zero vectors cannot be stored")
        return v.copy()

    def _fresh_id(self) -> str:
        while True:
            self._id_counter += 1
            candidate = f"emb-{self._id_counter:06d}"
            if candidate not in self._ids:
                return candidate

    def register(self, identity: str, vector, instance_id: str | None = None) -> str:
        """Store one embedding under ``identity``; returns its instance id.

        The identity is created on first use. Explicit instance ids (used by
        the file loader) must be unique across the gallery.
        """
        if not isinstance(identity, str) or not identity:
            raise InputContractError("identity label must be a non-empty string")
        v = self._validate_vector(vector)
        row = unit_vector(v)
        with self._lock:
            if instance_id is None:
                instance_id = self._fresh_id()
            elif instance_id in self._ids:
                raise InputContractError(f"instance id {instance_id!r} already present")
            emb = Embedding(instance_id=instance_id, identity=identity, vector=v)
            n = len(self._rows)
            if n == self._unit.shape[0]:
                grown = np.empty((max(16, 2 * n), self.dimension))
                grown[:n] = self._unit[:n]
                self._unit = grown
            self._unit[n] = row
            self._rows.append(emb)
            self._identities.setdefault(identity, []).append(emb)
            self._ids.add(instance_id)
            self.change_counter += 1
            self.registrations_since_adapt += 1
            return instance_id

    def remove(self, instance_id: str) -> bool:
        """Delete by instance id; drops the identity when its last embedding goes.

        Returns False (and changes nothing) for an unknown id.
        """
        with self._lock:
            if instance_id not in self._ids:
                return False
            rows = self._rows
            k = next(k for k, e in enumerate(rows) if e.instance_id == instance_id)
            owner = rows[k].identity
            # a new matrix and a new list, in registration order: readers may
            # hold the old ones
            unit = np.empty_like(self._unit)
            unit[:k] = self._unit[:k]
            unit[k : len(rows) - 1] = self._unit[k + 1 : len(rows)]
            self._unit, self._rows = unit, rows[:k] + rows[k + 1 :]
            remaining = [e for e in self._identities[owner] if e.instance_id != instance_id]
            if remaining:
                self._identities[owner] = remaining
            else:
                del self._identities[owner]
            self._ids.discard(instance_id)
            self.change_counter += 1
            return True

    def mark_adapted(self) -> None:
        """Reset the registration counter after a completed adaptation."""
        with self._lock:
            self.registrations_since_adapt = 0

    def match_query(self, query_vector, threshold: float) -> MatchResult:
        """Best cosine match across the whole gallery.

        Matches when the best similarity reaches ``threshold``; ties between
        identities go to the lexicographically smallest label. ``einsum``
        rather than BLAS gemv computes the similarities: it gives a row the
        same bits wherever the row sits, so a vector stored under two labels
        ties exactly.
        """
        with self._lock:
            unit, rows = self._unit, self._rows
            n = len(rows)
        if n == 0:
            raise EmptyGalleryError("cannot match against an empty gallery")
        qn = unit_vector(self._validate_vector(query_vector))
        sims = np.clip(np.einsum("ij,j->i", unit[:n], qn), -1.0, 1.0)
        best_sim = float(sims.max())
        best_label = min(rows[k].identity for k in np.flatnonzero(sims == best_sim))
        matched = best_sim >= threshold
        return MatchResult(
            matched=matched,
            identity=best_label if matched else None,
            best_similarity=best_sim,
        )

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the gallery to ``path``; .json gets JSON, anything else CSV."""
        path = Path(path)
        if path.suffix.lower() == ".json":
            self._save_json(path)
        else:
            self._save_csv(path)

    def _save_csv(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["identity", "instance_id"] + [f"v{i}" for i in range(self.dimension)]
            )
            _, identities = self.snapshot()
            for label, embs in identities.items():
                for e in embs:
                    writer.writerow(
                        [label, e.instance_id]
                        + [format(x, FLOAT_FORMAT) for x in e.vector]
                    )
            fh.write(f"# change_counter={self.change_counter}\n")
            fh.write(f"# registrations_since_adapt={self.registrations_since_adapt}\n")

    def _save_json(self, path: Path) -> None:
        _, identities = self.snapshot()
        payload = {
            "dimension": self.dimension,
            "change_counter": self.change_counter,
            "registrations_since_adapt": self.registrations_since_adapt,
            "embeddings": [
                {
                    "identity": label,
                    "instance_id": e.instance_id,
                    "vector": e.vector.tolist(),
                }
                for label, embs in identities.items()
                for e in embs
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Gallery":
        """Read a gallery saved by :meth:`save` (or any file in those formats)."""
        path = Path(path)
        if not path.exists():
            raise InputContractError(f"no such file: {path}")
        if path.suffix.lower() == ".json":
            return cls._load_json(path)
        return cls._load_csv(path)

    @classmethod
    def _load_csv(cls, path: Path) -> "Gallery":
        meta: dict[str, int] = {}
        gallery = None
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            # rows are registered as they are read, so the parsed text of the
            # whole file is never held at once
            for row in reader:
                if len(row) <= 1:
                    # one field: a blank line, a comment (the saved counters
                    # are "# key=value" comments) or a malformed data row
                    body = "".join(row).strip()
                    if body.startswith("#"):
                        key, eq, value = body.lstrip("#").partition("=")
                        if eq:
                            try:
                                meta[key.strip()] = int(value)
                            except ValueError:
                                pass
                        continue
                    if not body:
                        continue
                if gallery is None:
                    if (
                        len(row) < 4
                        or row[0] != "identity"
                        or row[1] != "instance_id"
                        or row[2:] != [f"v{i}" for i in range(len(row) - 2)]
                    ):
                        raise GalleryFormatError(f"{path}: unrecognized header {row!r}")
                    gallery = cls(len(row) - 2)
                    continue
                lineno = reader.line_num
                if len(row) != gallery.dimension + 2:
                    raise GalleryFormatError(
                        f"{path}:{lineno}: row has {len(row) - 2} values, "
                        f"expected {gallery.dimension}"
                    )
                try:
                    vector = [float(x) for x in row[2:]]
                except ValueError as exc:
                    raise GalleryFormatError(f"{path}:{lineno}: {exc}") from exc
                try:
                    gallery.register(row[0], vector, instance_id=row[1])
                except InputContractError as exc:
                    raise GalleryFormatError(f"{path}:{lineno}: {exc}") from exc
        if gallery is None:
            raise GalleryFormatError(f"{path}: empty file, no header row")
        gallery._apply_meta(meta)
        return gallery

    @classmethod
    def _load_json(cls, path: Path) -> "Gallery":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GalleryFormatError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "dimension" not in payload:
            raise GalleryFormatError(f"{path}: missing 'dimension' key")
        # InputContractError is a ValueError, so each clause also turns the
        # gallery's own validation failures into a format error
        try:
            gallery = cls(int(payload["dimension"]))
        except (TypeError, ValueError) as exc:
            raise GalleryFormatError(f"{path}: 'dimension': {exc}") from exc
        entries = payload.get("embeddings", [])
        if not isinstance(entries, list):
            raise GalleryFormatError(
                f"{path}: 'embeddings': expected a list, got {type(entries).__name__}"
            )
        for i, entry in enumerate(entries):
            try:
                gallery.register(
                    entry["identity"], entry["vector"], instance_id=entry["instance_id"]
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise GalleryFormatError(f"{path}: embedding #{i}: {exc}") from exc
        meta = {}
        for key in ("change_counter", "registrations_since_adapt"):
            if key in payload:
                try:
                    meta[key] = int(payload[key])
                except (TypeError, ValueError) as exc:
                    raise GalleryFormatError(f"{path}: {key!r}: {exc}") from exc
        gallery._apply_meta(meta)
        return gallery

    def _apply_meta(self, meta: dict[str, int]) -> None:
        if "change_counter" in meta:
            self.change_counter = meta["change_counter"]
        if "registrations_since_adapt" in meta:
            self.registrations_since_adapt = meta["registrations_since_adapt"]
