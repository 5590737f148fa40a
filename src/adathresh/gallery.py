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

    def _validate_vector(self, vector) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"expected a vector of dimension {self.dimension}, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise InputContractError("vector contains non-finite values")
        if float(np.linalg.norm(v)) == 0.0:
            raise ZeroVectorError("zero-norm vectors cannot be stored")
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
        with self._lock:
            if instance_id is None:
                instance_id = self._fresh_id()
            elif instance_id in self._ids:
                raise InputContractError(f"instance id {instance_id!r} already present")
            emb = Embedding(instance_id=instance_id, identity=identity, vector=v)
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
            owner = None
            for label, embs in self._identities.items():
                if any(e.instance_id == instance_id for e in embs):
                    owner = label
                    break
            assert owner is not None, "id index out of sync with storage"
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
        identities go to the lexicographically smallest label.
        """
        _, identities = self.snapshot()
        if not identities:
            raise EmptyGalleryError("cannot match against an empty gallery")
        q = self._validate_vector(query_vector)
        qn = q / np.linalg.norm(q)
        best_label: str | None = None
        best_sim = -np.inf
        for label in sorted(identities):
            mat = np.stack([e.vector for e in identities[label]])
            mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
            sim = float(np.clip(mat @ qn, -1.0, 1.0).max())
            if sim > best_sim:
                best_label, best_sim = label, sim
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
        rows = []  # (file line the row ends on, its fields)
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if len(row) > 1:
                    rows.append((reader.line_num, row))
                    continue
                # one field: a blank line, a comment (the saved counters are
                # "# key=value" comments) or a malformed data row
                body = "".join(row).strip()
                if body.startswith("#"):
                    key, eq, value = body.lstrip("#").partition("=")
                    if eq:
                        try:
                            meta[key.strip()] = int(value)
                        except ValueError:
                            pass
                elif body:
                    rows.append((reader.line_num, row))
        if not rows:
            raise GalleryFormatError(f"{path}: empty file, no header row")
        _, header = rows[0]
        if (
            len(header) < 4
            or header[0] != "identity"
            or header[1] != "instance_id"
            or header[2:] != [f"v{i}" for i in range(len(header) - 2)]
        ):
            raise GalleryFormatError(f"{path}: unrecognized header {header!r}")
        dimension = len(header) - 2
        gallery = cls(dimension)
        for lineno, row in rows[1:]:
            if len(row) != dimension + 2:
                raise GalleryFormatError(
                    f"{path}:{lineno}: row has {len(row) - 2} values, expected {dimension}"
                )
            try:
                vector = [float(x) for x in row[2:]]
            except ValueError as exc:
                raise GalleryFormatError(f"{path}:{lineno}: {exc}") from exc
            try:
                gallery.register(row[0], vector, instance_id=row[1])
            except InputContractError as exc:
                raise GalleryFormatError(f"{path}:{lineno}: {exc}") from exc
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
        gallery = cls(int(payload["dimension"]))
        for i, entry in enumerate(payload.get("embeddings", [])):
            try:
                gallery.register(
                    entry["identity"], entry["vector"], instance_id=entry["instance_id"]
                )
            except (KeyError, TypeError) as exc:
                raise GalleryFormatError(f"{path}: embedding #{i}: {exc}") from exc
            except InputContractError as exc:
                raise GalleryFormatError(f"{path}: embedding #{i}: {exc}") from exc
        meta = {
            key: int(payload[key])
            for key in ("change_counter", "registrations_since_adapt")
            if key in payload
        }
        gallery._apply_meta(meta)
        return gallery

    def _apply_meta(self, meta: dict[str, int]) -> None:
        if "change_counter" in meta:
            self.change_counter = meta["change_counter"]
        if "registrations_since_adapt" in meta:
            self.registrations_since_adapt = meta["registrations_since_adapt"]
