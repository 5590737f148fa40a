"""Identity-labeled embedding storage with matching and persistence."""

from __future__ import annotations

import csv
import itertools
import math
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
    real_number,
    utf8_error,
    whole_number,
)
from .similarity import unit_rows, unit_vector

# 17 significant digits round-trips any float64 exactly through decimal text.
FLOAT_FORMAT = ".17g"

# the counters a saved gallery carries, in the order they are written
_COUNTERS = ("change_counter", "registrations_since_adapt")

# rows the CSV loader parses and registers at a time: no np.loadtxt or
# register_rows call of a load takes more, so neither the text nor the parsed
# floats of a whole file are held at once
_LOAD_CHUNK = 256

# float32's unit roundoff: rounding to nearest moves a value by at most this
# share of its magnitude
_EPS32 = 2.0**-24


def _is_label(identity) -> bool:
    return isinstance(identity, str) and identity != ""


def _float_array(values) -> np.ndarray:
    """``values`` as a float64 array; an int too large for a float is a
    non-finite value, as ``1e400`` parsed from text is."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError as exc:
        raise InputContractError("vector contains non-finite values") from exc


def _shape_error(dimension: int, shape: tuple) -> DimensionMismatchError:
    return DimensionMismatchError(f"expected a vector of dimension {dimension}, got shape {shape}")


@dataclass(frozen=True, slots=True)
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
    and bump ``change_counter``; readers should work from ``unit_rows()`` so
    they always see one consistent version.

    Beside the raw embeddings (read-only, as ``save`` and ``snapshot`` hand
    them out) the gallery keeps one contiguous matrix of their unit rows in
    registration order, grown at least twofold when full: row ``k`` is ``unit_vector`` of
    ``_rows[k].vector``. Writers never touch what a reader took under the
    lock: a registration writes past the ``len(_rows)`` rows it saw, and
    growth and removal build a new matrix and a new list. So a reader that
    took ``_unit``, ``_rows`` and their length under the lock uses them
    unlocked and copies nothing. A registration is all or nothing: every row
    and id of it is checked before any is stored.

    ``_screen`` is a float32 copy of ``_unit``'s rows, of the same capacity,
    that :meth:`match_query` screens with. The first match makes it (only a
    gallery that is queried holds one); after that it follows the same
    discipline: a registration writes its rows into it too, and growth and
    removal drop it, so the next match makes a new one.
    """

    def __init__(self, dimension: int):
        dimension = whole_number(dimension, "gallery dimension")
        if dimension < 2:
            raise InputContractError("gallery dimension must be >= 2")
        self.dimension = dimension
        self.change_counter = 0
        self.registrations_since_adapt = 0
        self._identities: dict[str, list[Embedding]] = {}
        self._ids: set[str] = set()
        self._id_counter = 0
        self._lock = threading.Lock()
        try:
            self._unit = np.empty((0, self.dimension))
        except ValueError as exc:  # numpy cannot shape an array that wide
            raise InputContractError("gallery dimension is too large") from exc
        self._rows: list[Embedding] = []
        self._screen: np.ndarray | None = None
        # at least twice the largest gap between a row's float32 screen score
        # and its float64 score (see match_query); past 2**22 dimensions the
        # bound behind it no longer holds, so every row is re-scored
        self._margin = 4 * (dimension + 2) * _EPS32 if dimension <= 2**22 else math.inf

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

        The one-row case of :meth:`register_rows`.
        """
        ids = None if instance_id is None else [instance_id]
        return self.register_rows([identity], [vector], ids)[0]

    def register_rows(self, labels, block, instance_ids=None) -> list[str]:
        """Store row ``k`` of ``block`` under ``labels[k]``; returns the
        instance ids. Identities are created on first use.

        ``instance_ids`` gives row ``k`` the id ``instance_ids[k]``; by
        default each row gets a fresh one. All or nothing: the labels, the
        shape, the rows (:func:`unit_rows`) and then the ids, each a string
        found neither in the gallery nor earlier in ``instance_ids``, are
        checked before anything is stored, and the whole block is stored
        under one hold of the lock. Each embedding holds a read-only copy of
        its row, so no reader can change the vector behind a unit row.
        """
        if isinstance(labels, str):
            raise InputContractError("labels must be a sequence of labels, one per row")
        if isinstance(instance_ids, str):
            raise InputContractError("instance_ids must be a sequence of ids, one per row")
        labels = list(labels)
        # before np.asarray, so a bad label wins over an unparsable row
        if not all(map(_is_label, labels)):
            raise InputContractError("identity label must be a non-empty string")
        block = _float_array(block)
        if block.shape[1:] != (self.dimension,):
            raise _shape_error(self.dimension, block.shape[1:])
        ids = None if instance_ids is None else list(instance_ids)
        if len(block) != len(labels) or (ids is not None and len(ids) != len(labels)):
            raise InputContractError("need one label and one instance id per row")
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
                self._unit, self._screen = grown, None
            # past the rows any reader took, so no reader sees these rows early
            self._unit[n : n + m] = unit
            if self._screen is not None:
                self._screen[n : n + m] = unit
            for label, instance_id, row in zip(labels, ids, block):
                emb = Embedding(instance_id, label, row.copy())
                emb.vector.flags.writeable = False
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
            rows, n = self._rows, len(self._rows)
            k = next(k for k, e in enumerate(rows) if e.instance_id == instance_id)
            owner = rows[k].identity
            # a new matrix and list, in registration order: readers may hold the old ones
            unit = np.empty_like(self._unit)
            np.concatenate((self._unit[:k], self._unit[k + 1 : n]), out=unit[: n - 1])
            self._unit, self._rows, self._screen = unit, rows[:k] + rows[k + 1 :], None
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

    def match_query(self, query_vector, threshold) -> MatchResult:
        """Best cosine match across the whole gallery.

        Matches when the best similarity reaches ``threshold``, a real number
        that is not a bool nor NaN (:func:`real_number`; it is taken as a
        Python float, so ``matched`` is always a Python bool); ties between
        identities go to the lexicographically smallest label.

        A query of another shape raises :class:`DimensionMismatchError`;
        :func:`unit_vector` normalises the query (a normal squared norm is
        divided out at once) and raises the error for a non-finite or an
        all-zero one.

        The answer is that of scoring every row with ``np.vecdot`` (one BLAS
        dot call per row, so a row gets the same bits wherever it sits and a
        vector stored under two labels ties exactly), clipping each score to
        [-1, 1] and taking the smallest label among the rows at the maximum.
        It is found in two steps. A float32 gemv over ``_screen`` scores
        every row in half the bytes; the rows within ``_margin``, that is
        ``m = 4 * (d + 2) * 2**-24``, of its maximum are kept, and only they
        are scored with ``np.vecdot``. For unit rows of dimension ``d <=
        2**22`` a float32 score is within ``(4/3) * (d + 2) * 2**-24`` of the
        float64 one: rounding both vectors to float32 moves each product by
        at most ``2 * 2**-24`` of its magnitude, a float32 dot product of
        ``d`` terms in any order, FMA or not, is off by at most ``gamma_d =
        d * 2**-24 / (1 - d * 2**-24)`` times the sum of their magnitudes
        (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002), and
        that sum is at most 1 (Cauchy-Schwarz). The float64 error, float32
        underflow, the float32 rounding of the cut itself and the span of
        scores that clip to +1 add far less than the slack ``m`` leaves over
        twice that gap. So the best float64 row, every row that ties it and
        every row that clips to its score lie within ``m`` of the screen's
        maximum, and the answer keeps its bits. One kept row is the answer.
        Of several, the top one comes from ``argmax`` and only its score is
        clipped; the tie set is every kept row whose score reaches it, and
        the smallest label is looked for only when that set holds more than
        one row. At -1 every score clips to -1, so every row of the gallery
        ties.
        """
        threshold = real_number(threshold, "threshold")
        with self._lock:
            unit, rows, screen = self._unit, self._rows, self._screen
            n = len(rows)
            if screen is None and n:
                # the rows past n are not initialised: casting them could overflow
                screen = self._screen = np.empty(unit.shape, dtype=np.float32)
                screen[:n] = unit[:n]
        if n == 0:
            raise EmptyGalleryError("cannot match against an empty gallery")
        v = _float_array(query_vector)
        if v.shape != (self.dimension,):
            raise _shape_error(self.dimension, v.shape)
        qn = unit_vector(v)
        coarse = screen[:n] @ qn.astype(np.float32)
        lead = coarse.argmax()
        near = coarse >= coarse[lead] - self._margin
        if np.count_nonzero(near) == 1:
            # the usual case: the best row, alone, with no tie to break (at -1
            # every row would be kept); a 1-D vecdot is the same dot call
            best_sim = min(1.0, max(-1.0, np.vecdot(unit[lead], qn).item()))
            best_label = rows[lead].identity
        else:
            keep = np.flatnonzero(near)
            sims = np.vecdot(unit[keep], qn)
            top = sims.argmax()
            best_sim = min(1.0, max(-1.0, sims.item(top)))
            # at -1 every score clips to -1, even one just below it, so all rows tie
            if best_sim == -1.0:
                best_label = min(rows[k].identity for k in range(n))
            elif np.count_nonzero(sims >= best_sim) > 1:
                best_label = min(rows[k].identity for k in keep[sims >= best_sim])
            else:
                best_label = rows[keep[top]].identity
        matched = best_sim >= threshold
        return MatchResult(
            matched=matched,
            identity=best_label if matched else None,
            best_similarity=best_sim,
        )

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the gallery to ``path`` as CSV, whatever its suffix.

        The counters and the embeddings are read under one hold of the lock,
        so the file's counters always belong to the rows it holds.
        """
        path = Path(path)
        with self._lock:
            counters = {key: getattr(self, key) for key in _COUNTERS}
            embeddings = [e for embs in self._identities.values() for e in embs]
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

    @classmethod
    def load(cls, path) -> "Gallery":
        """Read a CSV gallery saved by :meth:`save`, whatever the path's suffix.

        A malformed file, one that is not valid UTF-8 or does not start
        with the CSV header included, raises :class:`GalleryFormatError`.
        Loading raises the process-wide
        ``csv.field_size_limit`` to 2**31 - 1 characters (it never lowers
        it): csv's default of 131,072 refuses a longer quoted label, which
        :meth:`save` writes.
        """
        path = Path(path)
        if not path.exists():
            raise InputContractError(f"no such file: {path}")
        try:
            return cls._load_csv(path)
        except UnicodeDecodeError as exc:
            raise utf8_error(path) from exc

    @classmethod
    def _load_csv(cls, path: Path) -> "Gallery":
        # csv's default limit, 131,072 characters, refuses a longer quoted
        # label; 2**31 - 1 is the largest that every platform's C long holds
        csv.field_size_limit(max(csv.field_size_limit(), 2**31 - 1))
        meta: dict[str, str] = {}
        gallery = None
        pending: list = []  # (line number, whole line or csv's fields), one per row
        lineno = 0
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                for line in fh:
                    if len(pending) == _LOAD_CHUNK:
                        _register_chunk(gallery, path, pending)
                        pending = []
                    lineno += 1
                    if gallery is not None and _whole_record(line):
                        pending.append((lineno, line))
                        continue
                    reader = csv.reader(itertools.chain((line,), fh))
                    row = next(reader)
                    lineno += reader.line_num - 1
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
                        continue
                    pending.append((lineno, row))
            except UnicodeDecodeError:
                # the rows read before the bad byte, and their errors, come first
                _register_chunk(gallery, path, pending)
                raise
        if gallery is None:
            raise GalleryFormatError(f"{path}: empty file, no header row")
        _register_chunk(gallery, path, pending)
        gallery._apply_meta(path, meta)
        return gallery

    def _apply_meta(self, path: Path, meta: dict) -> None:
        """Set the counters a file carries, each from comment text that
        ``int()`` parses to an integer >= 0; other keys are ignored."""
        for key in _COUNTERS:
            if key not in meta:
                continue
            text = meta[key]
            try:
                value = int(text)
            except ValueError:
                value = None
            if value is None or value < 0:
                raise GalleryFormatError(
                    f"{path}: {key!r}: expected an integer >= 0, got {text!r}"
                )
            setattr(self, key, value)


def _whole_record(line: str) -> bool:
    """Whether ``line`` is a data row that ends on the line and that numpy's
    reader and ``csv`` read alike. Not so: a blank line or a comment (numpy
    skips a blank line with a warning), a line holding one of U+001C-U+001F
    (numpy strips them from a value, where ``float()`` refuses them), and a
    line with a quote that csv's strict reader refuses, as it may run on in a
    quoted field, or reads as one field, as a quoted comment or blank is."""
    if line.lstrip()[:1] in ("", "#") or any(sep in line for sep in "\x1c\x1d\x1e\x1f"):
        return False
    if '"' not in line:
        return True
    try:
        return len(next(csv.reader((line,), strict=True))) > 1
    except csv.Error:
        return False


def _register_chunk(gallery: Gallery, path: Path, pending: list) -> None:
    """Register ``pending``'s ``(line number, whole line or csv's fields)``
    rows with one ``register_rows`` call. numpy's reader parses the values
    when every row is a whole line; otherwise ``np.array`` converts csv's
    fields, reading each text as ``float()`` does. A refused chunk stores
    nothing, and the rows one at a time name ``path`` and the first bad line."""
    if not pending:
        return
    if all(isinstance(record, str) for _, record in pending):
        try:
            parsed = np.loadtxt(
                [line for _, line in pending],
                dtype=[
                    ("identity", object),
                    ("instance_id", object),
                    ("v", np.float64, gallery.dimension),
                ],
                delimiter=",",
                quotechar='"',
                comments=None,
                ndmin=1,
            )
            gallery.register_rows(parsed["identity"], parsed["v"], parsed["instance_id"])
            return
        except (TypeError, ValueError):
            pass
    rows = [
        next(csv.reader((record,))) if isinstance(record, str) else record
        for _, record in pending
    ]
    try:
        block = np.array([row[2:] for row in rows], dtype=np.float64)
        gallery.register_rows([row[0] for row in rows], block, [row[1] for row in rows])
        return
    except (TypeError, ValueError, IndexError):
        pass
    for (lineno, _), row in zip(pending, rows):
        if len(row) != gallery.dimension + 2:
            raise GalleryFormatError(
                f"{path}:{lineno}: row has {len(row)} fields, expected {gallery.dimension + 2}"
                f" (identity, instance_id, {gallery.dimension} values)"
            )
        try:
            gallery.register(row[0], [float(x) for x in row[2:]], instance_id=row[1])
        except ValueError as exc:
            raise GalleryFormatError(f"{path}:{lineno}: {exc}") from exc
