import json
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adathresh import (
    DimensionMismatchError,
    EmptyGalleryError,
    Gallery,
    GalleryFormatError,
    InputContractError,
    ZeroVectorError,
)
from conftest import naive_cosine


def two_identity_gallery() -> Gallery:
    g = Gallery(3)
    g.register("a", [1.0, 0.0, 0.0])
    g.register("a", [0.9, 0.1, 0.0])
    g.register("b", [0.0, 1.0, 0.0])
    return g


class TestRegister:
    def test_first_insertion(self):
        g = Gallery(3)
        g.register("a", [1, 0, 0])
        assert g.identities == ["a"]
        assert len(g) == 1
        assert g.change_counter == 1

    def test_ids_independent_of_content(self):
        g = Gallery(3)
        i1 = g.register("a", [1, 0, 0])
        i2 = g.register("a", [1, 0, 0])
        assert i1 != i2
        assert len(g.embeddings_of("a")) == 2

    def test_dimension_mismatch(self):
        g = Gallery(3)
        with pytest.raises(DimensionMismatchError):
            g.register("a", [1, 0])

    def test_zero_vector_rejected(self):
        g = Gallery(3)
        with pytest.raises(ZeroVectorError):
            g.register("a", [0, 0, 0])

    def test_non_finite_rejected(self):
        g = Gallery(3)
        with pytest.raises(InputContractError):
            g.register("a", [1.0, float("nan"), 0.0])

    def test_empty_label_rejected(self):
        g = Gallery(3)
        with pytest.raises(InputContractError):
            g.register("", [1, 0, 0])

    def test_registrations_counter(self):
        g = two_identity_gallery()
        assert g.registrations_since_adapt == 3
        g.mark_adapted()
        assert g.registrations_since_adapt == 0
        g.register("c", [0, 0, 1])
        assert g.registrations_since_adapt == 1

    def test_vectors_stored_as_ingested(self):
        g = Gallery(2)
        g.register("a", [3.0, 4.0])
        stored = g.embeddings_of("a")[0].vector
        assert stored.tolist() == [3.0, 4.0]

    def test_tiny_dimension_rejected(self):
        with pytest.raises(InputContractError):
            Gallery(1)


# finite floats whose exponents span the whole range, subnormals included
wide_floats = st.builds(
    lambda m, e: m * 2.0**e, st.floats(-1.0, 1.0), st.integers(-1074, 1023)
) | st.just(0.0)


class TestVectorNumerics:
    def test_tiny_vector_matches_itself(self):
        g = Gallery(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g.register("a", [1e-300, 0.0])
            r = g.match_query([1e-300, 0.0], 0.5)
        assert r.matched and r.identity == "a" and r.best_similarity == 1.0

    def test_huge_vector_matches_its_direction(self):
        g = Gallery(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g.register("a", [1e308, 1e308])
            r = g.match_query([1.0, 1.0], 0.5)
        assert r.matched and r.identity == "a"
        assert r.best_similarity == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(wide_floats, min_size=3, max_size=3).filter(any),
            min_size=1,
            max_size=5,
        )
    )
    def test_every_stored_row_has_unit_norm(self, vectors):
        g = Gallery(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in vectors:
                g.register("a", v)
            _, rows, labels = g.unit_rows()
        assert labels == ["a"] * len(vectors)
        norms = np.sqrt((rows * rows).sum(axis=1))
        assert np.all(np.abs(norms - 1.0) <= 1e-12)


class TestRemove:
    def test_last_embedding_drops_identity(self):
        g = Gallery(3)
        iid = g.register("a", [1, 0, 0])
        g.register("b", [0, 1, 0])
        assert g.remove(iid) is True
        assert "a" not in g.identities

    def test_unknown_id(self):
        g = two_identity_gallery()
        before = g.change_counter
        assert g.remove("nope") is False
        assert g.change_counter == before

    def test_partial_removal_keeps_identity(self):
        g = Gallery(3)
        iid = g.register("a", [1, 0, 0])
        g.register("a", [0, 1, 0])
        assert g.remove(iid) is True
        assert g.identities == ["a"]
        assert len(g.embeddings_of("a")) == 1

    def test_counter_strictly_increases_per_mutation(self):
        g = Gallery(3)
        start = g.change_counter
        ids = [g.register("a", [1, 0, 0]) for _ in range(4)]
        g.remove(ids[0])
        g.remove(ids[1])
        assert g.change_counter == start + 6


class TestMatchQuery:
    def test_identical_vector_matches(self):
        g = Gallery(3)
        g.register("a", [1, 0, 0])
        r = g.match_query([1, 0, 0], 0.5)
        assert r.matched and r.identity == "a" and r.best_similarity == 1.0

    def test_orthogonal_unmatched(self):
        g = Gallery(3)
        g.register("a", [1, 0, 0])
        r = g.match_query([0, 1, 0], 0.5)
        assert not r.matched
        assert r.identity is None
        assert r.best_similarity == 0.0

    def test_best_of_two_identities(self):
        # cos(query, a) = 0.8, cos(query, b) = 1.0
        g = Gallery(3)
        g.register("a", [1, 0, 0])
        g.register("b", [0.8, 0.6, 0.0])
        r = g.match_query([0.8, 0.6, 0.0], 0.9)
        assert r.matched and r.identity == "b"
        assert r.best_similarity == pytest.approx(1.0, abs=1e-12)

    def test_tie_breaks_to_lowest_label(self):
        g = Gallery(3)
        g.register("zed", [1, 0, 0])
        g.register("ann", [1, 0, 0])
        r = g.match_query([1, 0, 0], 0.5)
        assert r.identity == "ann"

    def test_tie_inside_a_block_breaks_to_lowest_label(self):
        # the same vector stored inside b's block and alone under a must score
        # the same bits in both places, so the tie goes to a
        for seed in range(60):
            rng = np.random.default_rng(seed)
            block = rng.standard_normal((int(rng.integers(2, 9)), 16))
            shared = block[int(rng.integers(block.shape[0]))]
            g = Gallery(16)
            for v in block:
                g.register("b", v)
            g.register("a", shared)
            r = g.match_query(shared + 0.01 * rng.standard_normal(16), -1.0)
            assert r.identity == "a", f"seed {seed}"

    def test_threshold_minus_one_always_matches(self):
        rng = np.random.default_rng(60)
        g = Gallery(4)
        for i in range(3):
            g.register(f"id{i}", rng.standard_normal(4))
        for _ in range(20):
            assert g.match_query(rng.standard_normal(4), -1.0).matched

    def test_matched_monotone_in_threshold(self):
        rng = np.random.default_rng(61)
        g = Gallery(4)
        for i in range(3):
            g.register(f"id{i}", rng.standard_normal(4))
        q = rng.standard_normal(4)
        results = [g.match_query(q, t).matched for t in np.linspace(-1, 1, 41)]
        # once unmatched, stays unmatched as the threshold grows
        assert all(a or not b for a, b in zip(results, results[1:]))

    def test_empty_gallery(self):
        g = Gallery(3)
        with pytest.raises(EmptyGalleryError):
            g.match_query([1, 0, 0], 0.5)

    def test_dimension_mismatch(self):
        g = two_identity_gallery()
        with pytest.raises(DimensionMismatchError):
            g.match_query([1, 0], 0.5)


small_vectors = st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any)
matcher_ops = st.lists(
    st.one_of(
        st.tuples(st.just("register"), st.sampled_from("abcd"), small_vectors),
        st.tuples(st.just("reuse"), st.sampled_from("abcd"), st.integers(0, 50)),
        st.tuples(st.just("remove"), st.integers(0, 50)),
        st.tuples(st.just("query"), small_vectors),
    ),
    max_size=40,
)


class TestMatcherProperty:
    @settings(max_examples=150, deadline=None)
    @given(matcher_ops)
    def test_match_agrees_with_brute_force(self, ops):
        g = Gallery(3)
        stored: dict[str, tuple[str, list[float]]] = {}  # instance id -> (label, vector)
        history: list[list[float]] = []
        for op in ops:
            if op[0] in ("register", "reuse"):
                if op[0] == "reuse" and not history:
                    continue
                v = [float(x) for x in op[2]] if op[0] == "register" else history[op[2] % len(history)]
                stored[g.register(op[1], v)] = (op[1], v)
                history.append(v)
            elif op[0] == "remove":
                if stored:
                    iid = sorted(stored)[op[1] % len(stored)]
                    assert g.remove(iid)
                    del stored[iid]
            elif not stored:
                with pytest.raises(EmptyGalleryError):
                    g.match_query(op[1], -1.0)
            else:
                r = g.match_query(op[1], -1.0)
                scored = [
                    (min(1.0, max(-1.0, naive_cosine(v, op[1]))), label, tuple(v))
                    for label, v in stored.values()
                ]
                best = max(s for s, _, _ in scored)
                near = [(label, v) for s, label, v in scored if s >= best - 1e-12]
                assert r.matched
                assert r.best_similarity == pytest.approx(best, abs=1e-12)
                assert r.identity in {label for label, _ in near}
                if len({v for _, v in near}) == 1:
                    # one vector, maybe under several labels: an exact tie
                    assert r.identity == min(label for label, _ in near)


class TestPersistence:
    def round_trip(self, g, path):
        g.save(path)
        loaded = Gallery.load(path)
        assert loaded.dimension == g.dimension
        assert loaded.identities == g.identities
        assert loaded.change_counter == g.change_counter
        assert loaded.registrations_since_adapt == g.registrations_since_adapt
        for label in g.identities:
            orig = g.embeddings_of(label)
            back = loaded.embeddings_of(label)
            assert [e.instance_id for e in orig] == [e.instance_id for e in back]
            for a, b in zip(orig, back):
                assert a.vector.dtype == b.vector.dtype
                assert a.vector.tobytes() == b.vector.tobytes()  # bit-exact
        return loaded

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(62)
        g = Gallery(5)
        for i in range(3):
            for _ in range(2):
                g.register(f"person {i}", rng.standard_normal(5))
        g.remove(g.embeddings_of("person 0")[0].instance_id)
        self.round_trip(g, tmp_path / "gallery.csv")

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(63)
        g = Gallery(4)
        for i in range(2):
            g.register(f"id{i}", rng.standard_normal(4))
        self.round_trip(g, tmp_path / "gallery.json")

    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("identity,instance_id,v0,v1,v2\n")
        g = Gallery.load(path)
        assert g.dimension == 3
        assert len(g) == 0

    def test_mixed_row_widths(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "identity,instance_id,v0,v1\n"
            "a,e1,1.0,0.0\n"
            "b,e2,1.0,0.0,0.5\n"
        )
        with pytest.raises(GalleryFormatError):
            Gallery.load(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,vec0,vec1\n")
        with pytest.raises(GalleryFormatError):
            Gallery.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "nothing.csv"
        path.write_text("")
        with pytest.raises(GalleryFormatError):
            Gallery.load(path)

    def test_duplicate_instance_ids(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "identity,instance_id,v0,v1\n"
            "a,e1,1.0,0.0\n"
            "b,e1,0.0,1.0\n"
        )
        with pytest.raises(GalleryFormatError):
            Gallery.load(path)

    def test_unparseable_value(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text(
            "identity,instance_id,v0,v1\n"
            "a,e1,1.0,zebra\n"
        )
        with pytest.raises(GalleryFormatError):
            Gallery.load(path)

    def test_error_names_the_file_line(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text(
            "identity,instance_id,v0,v1\n"
            '"a\nb",e1,1.0,0.0\n'
            "# note\n"
            "b,e2,1.0,zebra\n"
        )
        with pytest.raises(GalleryFormatError, match=r"junk\.csv:5: "):
            Gallery.load(path)

    def test_zero_row_rejected(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text(
            "identity,instance_id,v0,v1\n"
            "a,e1,0.0,0.0\n"
        )
        with pytest.raises(GalleryFormatError):
            Gallery.load(path)

    def test_plain_json_without_counters(self, tmp_path):
        path = tmp_path / "foreign.json"
        payload = {
            "dimension": 2,
            "embeddings": [
                {"identity": "a", "instance_id": "x1", "vector": [1.0, 0.0]}
            ],
        }
        path.write_text(json.dumps(payload))
        g = Gallery.load(path)
        assert g.change_counter == 1  # behaves as freshly registered

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputContractError):
            Gallery.load(tmp_path / "absent.csv")

    def test_comment_like_label_survives_csv(self, tmp_path):
        g = Gallery(2)
        g.register("#tag", [1.0, 0.0])
        g.register("bob", [0.0, 1.0])
        assert self.round_trip(g, tmp_path / "g.csv").identities == ["#tag", "bob"]

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.text(min_size=1), st.text(min_size=1)),
            min_size=1,
            max_size=6,
            unique_by=lambda entry: entry[1],
        )
    )
    def test_any_label_and_id_round_trip(self, entries):
        g = Gallery(2)
        for k, (label, instance_id) in enumerate(entries):
            g.register(label, [1.0, float(k)], instance_id=instance_id)
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("g.csv", "g.json"):
                self.round_trip(g, Path(tmp) / name)

    @settings(max_examples=100, deadline=None)
    @given(
        vectors=st.lists(
            # unbounded finite floats: every exponent, subnormals and -0.0 included
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3
            ).filter(any),
            min_size=1,
            max_size=5,
        )
    )
    def test_any_finite_vector_round_trips(self, vectors):
        g = Gallery(3)
        for k, vector in enumerate(vectors):
            g.register(f"id{k % 2}", vector)
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("g.csv", "g.json"):
                self.round_trip(g, Path(tmp) / name)


class TestConcurrency:
    def test_readers_survive_a_writer(self):
        # single-writer, multiple-reader: queries must not trip over
        # concurrent registrations, growth of the row matrix or removals
        rng = np.random.default_rng(64)
        g = Gallery(8)
        for i in range(4):
            g.register(f"id{i}", rng.standard_normal(8))
        registered = {f"id{i}" for i in range(4)} | {f"new{i}" for i in range(200)}
        errors = []
        seen = set()
        done = threading.Event()
        # the writer starts only after every reader has matched once, so the
        # readers overlap the writes however the threads are scheduled
        started = threading.Barrier(4, timeout=60)

        def writer():
            try:
                started.wait()
                previous = None
                for i in range(200):
                    iid = g.register(f"new{i}", np.arange(1.0, 9.0) + i)
                    if previous is not None and i % 2:
                        g.remove(previous)
                    previous = iid
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        def reader(seed):
            try:
                q_rng = np.random.default_rng(seed)
                seen.add(g.match_query(q_rng.standard_normal(8), -1.0).identity)
                started.wait()
                while not done.is_set():
                    r = g.match_query(q_rng.standard_normal(8), -1.0)
                    seen.add(r.identity)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                started.abort()

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(k,)) for k in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert seen and seen <= registered
        assert g.change_counter == 4 + 200 + 100
        assert len(g) == 4 + 100
