"""Identity-labeled embedding storage with matching and persistence."""

from __future__ import annotations

import csv
import json
import math
import operator
import threading
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyGalleryError,
    GalleryFormatError,
    InputContractError,
)
from .similarity import unit_rows, unit_vector

# 17 significant digits round-trips any float64 exactly through decimal text.
FLOAT_FORMAT = ".17g"

# the counters a saved gallery carries, in the order they are written
_COUNTERS = ("change_counter", "registrations_since_adapt")

# rows the CSV loader parses into one float64 buffer before registering them;
# the parsed floats of a whole file are never held at once
_LOAD_CHUNK = 256


def _is_label(identity) -> bool:
    return isinstance(identity, str) and identity != ""


def _shape_error(dimension: int, shape: tuple) -> DimensionMismatchError:
    return DimensionMismatchError(f"expected a vector of dimension {dimension}, got shape {shape}")


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
    order, grown at least twofold when full: row ``k`` is ``unit_vector`` of
    ``_rows[k].vector``. Writers never touch what a reader took under the
    lock: a registration writes past the ``len(_rows)`` rows it saw, and
    growth and removal build a new matrix and a new list. So a reader that
    took ``_unit``, ``_rows`` and their length under the lock uses them
    unlocked and copies nothing. A registration is all or nothing: every row
    and id of it is checked before any is stored.
    """

    def __init__(self, dimension: int):
        dimension = operator.index(dimension)
        if dimension < 2:
            raise InputContractError("gallery dimension must be >= 2")
        self.dimension = dimension
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

    def __contains__(self, identity) -> bool:
        """True when ``identity`` labels at least one stored embedding."""
        return identity in self._identities

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

    def _fresh_id(self) -> str:
        while True:
            self._id_counter += 1
            candidate = f"emb-{self._id_counter:06d}"
            if candidate not in self._ids:
                return candidate

    def register(self, identity: str, vector, instance_id: str | None = None) -> str:
        """Store one embedding under ``identity``; returns its instance id.

        The identity is created on first use. Explicit instance ids (used by
        the file loader) must be strings, unique across the gallery.
        """
        # before np.asarray, so a bad label wins over an unparsable vector
        if not _is_label(identity):
            raise InputContractError("identity label must be a non-empty string")
        v = np.asarray(vector, dtype=np.float64)
        ids = None if instance_id is None else [instance_id]
        return self._register_rows([identity], ids, v[None])[0]

    def _register_rows(self, labels: list, ids: list | None, block: np.ndarray) -> list[str]:
        """Store row ``k`` of the float64 ``block`` under ``labels[k]`` and
        ``ids[k]`` (fresh ids when ``ids`` is None); returns the instance ids.

        All or nothing: the labels, the shape, the rows (:func:`unit_rows`)
        and then the ids, each a string found neither in the gallery nor
        earlier in ``ids``, are checked before anything is stored, and the
        whole block is stored under one hold of the lock. Each embedding
        holds a copy of its row, never a view of ``block``.
        """
        if not all(map(_is_label, labels)):
            raise InputContractError("identity label must be a non-empty string")
        if block.shape[1:] != (self.dimension,):
            raise _shape_error(self.dimension, block.shape[1:])
        unit = unit_rows(block)
        with self._lock:
            if ids is None:
                ids = [self._fresh_id() for _ in labels]
            else:
                seen = set()
                for instance_id in ids:
                    if not isinstance(instance_id, str):
                        raise InputContractError(
                            f"instance id must be a string, got {type(instance_id).__name__}"
                        )
                    if instance_id in self._ids or instance_id in seen:
                        raise InputContractError(f"instance id {instance_id!r} already present")
                    seen.add(instance_id)
            n, m = len(self._rows), len(ids)
            if n + m > self._unit.shape[0]:
                grown = np.empty((max(16, 2 * self._unit.shape[0], n + m), self.dimension))
                grown[:n] = self._unit[:n]
                self._unit = grown
            # past the rows any reader took, so no reader sees these rows early
            self._unit[n : n + m] = unit
            for label, instance_id, row in zip(labels, ids, block):
                emb = Embedding(instance_id, label, row.copy())
                self._rows.append(emb)
                self._identities.setdefault(label, []).append(emb)
            self._ids.update(ids)
            self.change_counter += m
            self.registrations_since_adapt += m
        return ids

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

        Matches when the best similarity reaches ``threshold`` (a NaN threshold
        is rejected: it would never match); ties between identities go to the
        lexicographically smallest label.

        A query of another shape raises :class:`DimensionMismatchError`;
        :func:`unit_vector` normalises the query (a normal squared norm is
        divided out at once) and raises the error for a non-finite or an
        all-zero one. ``np.vecdot`` computes the similarities with one BLAS
        dot call per row. That gives a row the same bits wherever it sits, so
        a vector stored under two labels ties exactly; BLAS gemv
        (``unit @ q``) would not, since its bits depend on the row's
        position, and ``einsum`` is about twice as slow. The top row comes
        from ``argmax`` and only its score is clipped to [-1, 1]; the tie set
        is every row whose clipped score equals it, as if each score had been
        clipped, and the smallest label is looked for only when that set
        holds more than one row.
        """
        if math.isnan(threshold):
            raise InputContractError("threshold must not be NaN")
        with self._lock:
            unit, rows = self._unit, self._rows
            n = len(rows)
        if n == 0:
            raise EmptyGalleryError("cannot match against an empty gallery")
        v = np.asarray(query_vector, dtype=np.float64)
        if v.shape != (self.dimension,):
            raise _shape_error(self.dimension, v.shape)
        qn = unit_vector(v)
        sims = np.vecdot(unit[:n], qn)
        top = sims.argmax()
        best_sim = min(1.0, max(-1.0, sims.item(top)))
        # at -1 every score clips to -1, even one just below it, so all rows tie
        if best_sim == -1.0:
            best_label = min(rows[k].identity for k in range(n))
        elif np.count_nonzero(sims >= best_sim) > 1:
            best_label = min(rows[k].identity for k in np.flatnonzero(sims >= best_sim))
        else:
            best_label = rows[top].identity
        matched = best_sim >= threshold
        return MatchResult(
            matched=matched,
            identity=best_label if matched else None,
            best_similarity=best_sim,
        )

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the gallery to ``path``; .json gets JSON, anything else CSV.

        The counters and the embeddings are read under one hold of the lock,
        so the file's counters always belong to the rows it holds.
        """
        path = Path(path)
        with self._lock:
            counters = {key: getattr(self, key) for key in _COUNTERS}
            embeddings = [e for embs in self._identities.values() for e in embs]
        if path.suffix.lower() == ".json":
            self._save_json(path, counters, embeddings)
        else:
            self._save_csv(path, counters, embeddings)

    def _save_csv(self, path: Path, counters: dict, embeddings: list[Embedding]) -> None:
        # one %-format per row, and csv's quoting for the two label fields only
        # (a writer on a file whose write is str returns the line it formats);
        # passing the formatted values through csv as well costs nearly as much
        # again as formatting them
        values = ",".join(["%" + FLOAT_FORMAT] * self.dimension)
        label_writer = csv.writer(SimpleNamespace(write=str))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["identity", "instance_id"] + [f"v{i}" for i in range(self.dimension)]
            )
            newline = writer.dialect.lineterminator
            for e in embeddings:
                quoted = label_writer.writerow((e.identity, e.instance_id))
                row = values % tuple(e.vector.tolist())
                fh.write(f"{quoted[: -len(newline)]},{row}{newline}")
            for key, value in counters.items():
                fh.write(f"# {key}={value}\n")

    def _save_json(self, path: Path, counters: dict, embeddings: list[Embedding]) -> None:
        payload = {
            "dimension": self.dimension,
            **counters,
            "embeddings": [
                {
                    "identity": e.identity,
                    "instance_id": e.instance_id,
                    "vector": e.vector.tolist(),
                }
                for e in embeddings
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
        meta: dict[str, str] = {}
        gallery = None
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            # rows are registered a chunk at a time as they are read, so the
            # parsed text of the whole file is never held at once
            for row in reader:
                if len(row) <= 1:
                    # one field: a blank line, a comment (the saved counters
                    # are "# key=value" comments) or a malformed data row
                    body = "".join(row).strip()
                    if body.startswith("#"):
                        key, eq, value = body.lstrip("#").partition("=")
                        if eq:
                            meta[key.strip()] = value
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
                    chunk = _Chunk(gallery, path)
                    continue
                lineno = reader.line_num
                if len(row) != gallery.dimension + 2:
                    chunk.flush()  # an earlier row's error comes first
                    raise GalleryFormatError(
                        f"{path}:{lineno}: row has {len(row) - 2} values, "
                        f"expected {gallery.dimension}"
                    )
                try:
                    vector = [float(x) for x in row[2:]]
                except ValueError as exc:
                    chunk.flush()
                    raise GalleryFormatError(f"{path}:{lineno}: {exc}") from exc
                chunk.add(row[0], row[1], vector, lineno)
        if gallery is None:
            raise GalleryFormatError(f"{path}: empty file, no header row")
        chunk.flush()
        gallery._apply_meta(path, meta, from_text=True)
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
        dimension = payload["dimension"]
        if type(dimension) is not int:
            raise GalleryFormatError(
                f"{path}: 'dimension': expected an integer, got {dimension!r}"
            )
        try:
            gallery = cls(dimension)
        except InputContractError as exc:
            raise GalleryFormatError(f"{path}: 'dimension': {exc}") from exc
        entries = payload.get("embeddings", [])
        if not isinstance(entries, list):
            raise GalleryFormatError(
                f"{path}: 'embeddings': expected a list, got {type(entries).__name__}"
            )
        # InputContractError is a ValueError, so this clause also turns the
        # gallery's own validation failures into a format error
        for i, entry in enumerate(entries):
            try:
                gallery.register(
                    entry["identity"], entry["vector"], instance_id=entry["instance_id"]
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise GalleryFormatError(f"{path}: embedding #{i}: {exc}") from exc
        gallery._apply_meta(path, payload, from_text=False)
        return gallery

    def _apply_meta(self, path: Path, meta: dict, from_text: bool) -> None:
        """Set the counters a file carries; other keys are ignored.

        Each counter must be an integer >= 0: text that ``int()`` parses in a
        CSV comment (``from_text``), a JSON integer that is not a bool in JSON.
        """
        for key in _COUNTERS:
            if key not in meta:
                continue
            value = meta[key]
            if from_text:
                try:
                    value = int(value)
                except ValueError:
                    pass
            if type(value) is not int or value < 0:
                raise GalleryFormatError(
                    f"{path}: {key!r}: expected an integer >= 0, got {meta[key]!r}"
                )
            setattr(self, key, value)


class _Chunk:
    """The CSV loader's parsed rows, registered ``_LOAD_CHUNK`` at a time
    through one float64 buffer. A row's error is prefixed with ``path`` and
    the row's line number."""

    def __init__(self, gallery: Gallery, path: Path):
        self.gallery = gallery
        self.path = path
        self.block = np.empty((_LOAD_CHUNK, gallery.dimension))
        self.labels: list = []
        self.ids: list = []
        self.linenos: list[int] = []

    def add(self, identity, instance_id, vector, lineno: int) -> None:
        self.block[len(self.labels)] = vector
        self.labels.append(identity)
        self.ids.append(instance_id)
        self.linenos.append(lineno)
        if len(self.labels) == _LOAD_CHUNK:
            self.flush()

    def flush(self) -> None:
        """Register the rows added since the last flush."""
        labels, ids, linenos = self.labels, self.ids, self.linenos
        self.labels, self.ids, self.linenos = [], [], []
        block = self.block[: len(labels)]
        try:
            self.gallery._register_rows(labels, ids, block)
        except (TypeError, ValueError):
            # nothing was stored: the rows one at a time name the first bad line
            for label, instance_id, row, lineno in zip(labels, ids, block, linenos):
                try:
                    self.gallery.register(label, row, instance_id=instance_id)
                except (TypeError, ValueError) as exc:
                    raise GalleryFormatError(f"{self.path}:{lineno}: {exc}") from exc
            raise
