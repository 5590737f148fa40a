import csv
import dataclasses
import json
import sys
import tempfile
import threading
import tracemalloc
import warnings
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adathresh import (
    AdaptConfig,
    DimensionMismatchError,
    EmptyGalleryError,
    Gallery,
    GalleryFormatError,
    InputContractError,
    SynthSpec,
    ZeroVectorError,
    adapt,
    generate_synthetic,
    run_incremental,
)
import adathresh.gallery
from adathresh.errors import utf8_error
from adathresh.gallery import FLOAT_FORMAT
from adathresh.similarity import unit_rows, unit_vector
from conftest import gallery_contents, naive_cosine


def two_identity_gallery() -> Gallery:
    g = Gallery(3)
    g.register("a", [1.0, 0.0, 0.0])
    g.register("a", [0.9, 0.1, 0.0])
    g.register("b", [0.0, 1.0, 0.0])
    return g


def clipped_reference(g: Gallery, query) -> tuple[float, str]:
    """What scoring every row with ``np.vecdot`` and clipping each score gives:
    the best clipped score and the smallest label among the rows at it."""
    _, unit, labels = g.unit_rows()
    raw = np.vecdot(unit, unit_vector(np.asarray(query, dtype=np.float64)))
    scores = np.clip(raw, -1.0, 1.0)
    best = float(scores.max())
    return best, min(label for label, s in zip(labels, scores) if s == best)


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

    def test_stores_a_copy_of_the_callers_array(self):
        g = Gallery(3)
        v = np.array([1.0, 0.0, 0.0])
        g.register("a", v)
        v[:] = [0.0, 1.0, 0.0]
        assert g.embeddings_of("a")[0].vector.tolist() == [1.0, 0.0, 0.0]
        assert g.match_query([1.0, 0.0, 0.0], 0.5).best_similarity == 1.0

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

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["10**400", "-10**400"])
    def test_an_int_too_large_for_a_float_is_non_finite(self, big):
        # the error a float of that size (an infinity) gets, not an OverflowError
        g = two_identity_gallery()
        calls = [
            lambda: g.register("a", [big, 0.0, 0.0]),
            lambda: g.register_rows(["a", "b"], [[1.0, 0.0, 0.0], [0.0, big, 1.0]]),
            lambda: g.match_query([1.0, big, 0.0], 0.5),
        ]
        for call in calls:
            with pytest.raises(InputContractError, match="non-finite values"):
                call()
        assert len(g) == 3  # nothing was stored

    def test_empty_label_rejected(self):
        g = Gallery(3)
        with pytest.raises(InputContractError):
            g.register("", [1, 0, 0])

    @pytest.mark.parametrize("instance_id", [5, ("t",), b"x"])
    def test_instance_id_must_be_a_string(self, tmp_path, instance_id):
        g = two_identity_gallery()
        with pytest.raises(InputContractError, match="instance id must be a string"):
            g.register("c", [0, 0, 1], instance_id=instance_id)
        assert (len(g), g.change_counter) == (3, 3)
        # the saved files hold only the stored rows, and load as they were
        g.save(tmp_path / "g.csv")
        loaded = Gallery.load(tmp_path / "g.csv")
        assert [(e.instance_id, e.vector.tolist()) for e in loaded.embeddings_of("a")] == [
            (e.instance_id, e.vector.tolist()) for e in g.embeddings_of("a")
        ]
        assert loaded.identities == ["a", "b"]

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

    def test_dimension_must_be_an_integer(self):
        with pytest.raises(InputContractError, match="gallery dimension must be an integer"):
            Gallery(2.9)
        assert Gallery(np.int64(3)).dimension == 3

    @pytest.mark.parametrize(
        "dimension", [2**62, 2**63, 10**400], ids=["2**62", "2**63", "10**400"]
    )
    def test_a_dimension_numpy_cannot_shape_is_a_contract_error(self, dimension):
        with pytest.raises(InputContractError, match="dimension is too large"):
            Gallery(dimension)


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


# what makes the one bad row of a block bad
block_faults = ["label", "nan", "inf", "zero", "present", "repeated", "id type"]


class TestBlockRegistration:
    @settings(max_examples=300, deadline=None)
    @given(
        stored=st.integers(1, 4),
        vectors=st.lists(
            st.lists(wide_floats, min_size=3, max_size=3).filter(any), min_size=2, max_size=6
        ),
        explicit=st.booleans(),
        fault=st.sampled_from(block_faults),
        data=st.data(),
    )
    def test_a_bad_row_stores_nothing_and_raises_its_own_error(
        self, stored, vectors, explicit, fault, data
    ):
        def gallery():
            g = Gallery(3)
            for k in range(stored):
                g.register(f"p{k % 2}", [1.0, float(k), 0.0], instance_id=f"p{k}")
            return g

        def state(g):
            version, unit, labels = g.unit_rows()
            ids = [e.instance_id for embs in g.snapshot()[1].values() for e in embs]
            counters = (g.change_counter, g.registrations_since_adapt)
            return len(g), counters, g.identities, version, unit.tobytes(), labels, ids

        labels = [f"id{k % 3}" for k in range(len(vectors))]
        block = np.array(vectors, dtype=np.float64)
        ids = None
        if explicit or fault in ("present", "repeated", "id type"):
            ids = [f"b{k}" for k in range(len(vectors))]
        j = data.draw(st.integers(fault == "repeated", len(vectors) - 1), label="bad row")
        if fault == "label":
            labels[j] = data.draw(st.sampled_from(["", None, 7]))
        elif fault in ("nan", "inf"):
            bad = float(fault) * data.draw(st.sampled_from([1, -1]))
            block[j, data.draw(st.integers(0, 2))] = bad
        elif fault == "zero":
            block[j] = data.draw(st.sampled_from([0.0, -0.0]))
        elif fault == "present":
            ids[j] = f"p{data.draw(st.integers(0, stored - 1))}"
        elif fault == "repeated":
            ids[j] = ids[data.draw(st.integers(0, j - 1))]
        else:
            ids[j] = data.draw(st.sampled_from([5, 1.5, ("t",), b"x"]))

        # the error of registering the rows one at a time
        one_by_one = gallery()
        with pytest.raises(InputContractError) as expected:
            for k in range(len(vectors)):
                one_by_one.register(labels[k], block[k], None if ids is None else ids[k])
        g = gallery()
        before = state(g)
        with pytest.raises(InputContractError) as info:
            g.register_rows(labels, block, ids)
        assert type(info.value) is type(expected.value)
        assert str(info.value) == str(expected.value)
        assert state(g) == before
        # no fresh id was drawn either
        assert g.register("z", [0, 0, 1]) == gallery().register("z", [0, 0, 1])


    @settings(max_examples=200, deadline=None)
    @given(
        stored=st.integers(0, 3),
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.lists(wide_floats, min_size=3, max_size=3).filter(any),
            ),
            max_size=6,
        ),
        explicit=st.booleans(),
    )
    def test_a_block_is_its_rows_one_at_a_time(self, stored, rows, explicit):
        def gallery():
            g = Gallery(3)
            for k in range(stored):
                g.register(f"p{k % 2}", [1.0, float(k), 0.0])
            return g

        labels = [label for label, _ in rows]
        block = np.array([v for _, v in rows], dtype=np.float64).reshape(-1, 3)
        ids = [f"b{k}" for k in range(len(rows))] if explicit else None
        one_by_one = gallery()
        expected = [
            one_by_one.register(label, row, None if ids is None else ids[k])
            for k, (label, row) in enumerate(zip(labels, block))
        ]
        g = gallery()
        assert g.register_rows(labels, block, ids) == expected
        assert (g.change_counter, g.registrations_since_adapt) == (
            one_by_one.change_counter,
            one_by_one.registrations_since_adapt,
        )
        version, unit, row_labels = g.unit_rows()
        expected_version, expected_unit, expected_labels = one_by_one.unit_rows()
        assert (version, row_labels) == (expected_version, expected_labels)
        assert unit.tobytes() == expected_unit.tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            g.save(Path(tmp) / "block.csv")
            one_by_one.save(Path(tmp) / "rows.csv")
            assert (Path(tmp) / "block.csv").read_bytes() == (Path(tmp) / "rows.csv").read_bytes()

    @pytest.mark.parametrize(
        "labels, rows, ids",
        [
            (["a"], 2, None),
            (["a", "b"], 1, None),
            (["a", "b"], 2, ["x"]),
            ("ab", 2, None),
            (["a", "b"], 2, "xy"),
        ],
        ids=["fewer labels", "more labels", "fewer ids", "one string", "one id string"],
    )
    def test_counts_must_agree(self, labels, rows, ids):
        g = two_identity_gallery()
        with pytest.raises(InputContractError):
            g.register_rows(labels, np.ones((rows, 3)), ids)
        assert (len(g), g.change_counter) == (3, 3)


class TestStoredVectors:
    def test_a_reader_cannot_write_a_stored_vector(self, tmp_path):
        g = Gallery(2)
        g.register("a", [1.0, 0.0])
        g.register_rows(["b", "c"], np.array([[0.6, 0.8], [-1.0, 0.5]]))
        _, view = g.snapshot()
        for emb in g.embeddings_of("a") + list(view["b"]):
            with pytest.raises(ValueError):
                emb.vector[:] = [0.0, 1.0]
            assert emb.vector.flags.owndata
        assert g.embeddings_of("a")[0].vector.tolist() == [1.0, 0.0]
        # the saved file still holds the vectors the unit rows were made from
        path = tmp_path / "g.csv"
        g.save(path)
        loaded = Gallery.load(path)
        for query in ([0.0, 1.0], [1.0, 0.1], [-1.0, 0.4]):
            assert loaded.match_query(query, 0.5) == g.match_query(query, 0.5)

    def test_the_callers_block_stays_writable(self):
        block = np.array([[1.0, 0.0], [0.0, 1.0]])
        Gallery(2).register_rows(["a", "b"], block)
        block[0, 0] = 2.0
        assert block.flags.writeable


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

    def test_match_after_remove_is_exact(self):
        # after the first match, each removal drops the float32 rows, and the
        # next match casts the rows that are left
        rng = np.random.default_rng(68)
        block = rng.standard_normal((40, 8))
        g = Gallery(8)
        ids = g.register_rows([f"id{k % 7}" for k in range(40)], block)
        g.match_query(block[0], 0.5)
        for instance_id in rng.permutation(ids)[:25]:
            assert g.remove(instance_id)
            assert g._screen is None
            query = rng.standard_normal(8)
            r = g.match_query(query, -1.0)
            assert (r.best_similarity, r.identity) == clipped_reference(g, query)
            n = len(g)
            assert np.array_equal(g._screen[:n], g._unit[:n].astype(np.float32))


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

    @pytest.mark.parametrize(
        "query, error",
        [
            ([[1.0, 0.0, 0.0]], DimensionMismatchError),
            (1.0, DimensionMismatchError),
            ([1.0, float("nan"), 0.0], InputContractError),
            ([float("inf"), 0.0, 0.0], InputContractError),
            ([1.0, float("-inf"), 0.0], InputContractError),
            ([float("inf"), float("-inf"), 1.0], InputContractError),
            ([float("nan"), float("inf"), 0.0], InputContractError),
            ([0.0, 0.0, 0.0], ZeroVectorError),
            ([-0.0, 0.0, -0.0], ZeroVectorError),
        ],
    )
    def test_bad_query_raises_its_own_error(self, query, error):
        g = two_identity_gallery()
        with pytest.raises(InputContractError) as exc:
            g.match_query(query, 0.5)
        assert type(exc.value) is error

    def test_nan_threshold_rejected(self):
        g = two_identity_gallery()
        with pytest.raises(InputContractError):
            g.match_query([1, 0, 0], float("nan"))

    @pytest.mark.parametrize(
        "threshold",
        [np.float64(0.5), np.float32(0.5), np.array([0.5, 1.0])[0], np.int64(1), 0.5],
        ids=["float64", "float32", "array item", "int64", "float"],
    )
    def test_a_numeric_threshold_gives_a_python_bool(self, threshold):
        g = two_identity_gallery()
        results = [g.match_query(q, threshold) for q in ([1, 0, 0], [0, 0, 1])]
        assert [r.matched for r in results] == [True, False]
        assert all(type(r.matched) is bool for r in results)
        json.dumps([dataclasses.asdict(r) for r in results])

    @pytest.mark.parametrize(
        "threshold",
        [None, "0.5", True, np.True_, [0.5], 0.5j],
        ids=["None", "str", "bool", "numpy bool", "list", "complex"],
    )
    def test_threshold_must_be_a_real_number(self, threshold):
        with pytest.raises(InputContractError, match="threshold must be a real number"):
            two_identity_gallery().match_query([1, 0, 0], threshold)

    def test_an_int_too_large_for_a_float_is_an_infinity(self):
        g = two_identity_gallery()
        assert not g.match_query([1, 0, 0], 10**400).matched
        assert g.match_query([0, 0, 1], -(10**400)).matched

    def test_query_array_is_not_modified(self):
        g = two_identity_gallery()
        q = np.array([3.0, 4.0, 0.0])
        g.match_query(q, 0.5)
        assert q.tolist() == [3.0, 4.0, 0.0]


def int_vectors(dim: int):
    return st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).filter(any)


small_vectors = int_vectors(3)


def matcher_ops(dim: int):
    return st.lists(
        st.one_of(
            st.tuples(st.just("register"), st.sampled_from("abcd"), int_vectors(dim)),
            st.tuples(st.just("reuse"), st.sampled_from("abcd"), st.integers(0, 50)),
            st.tuples(st.just("remove"), st.integers(0, 50)),
            st.tuples(st.just("query"), int_vectors(dim)),
        ),
        max_size=40,
    )


class TestMatcherProperty:
    @settings(max_examples=150, deadline=None)
    @given(matcher_ops(3))
    # a query, then a removal from the front: the next query must not score
    # the rows where they sat before it
    @example(
        [
            ("register", "a", [1, 0, 0]),
            ("register", "b", [0, 1, 0]),
            ("register", "c", [0, 0, 1]),
            ("query", [0, 0, 1]),
            ("remove", 0),
            ("query", [0, 1, 0]),
        ]
    )
    def test_match_agrees_with_brute_force(self, ops):
        self.replay(3, ops)

    @settings(max_examples=60, deadline=None)
    @given(matcher_ops(64))
    def test_match_agrees_with_brute_force_at_dim_64(self, ops):
        # growth past 16 rows and every removal drop the float32 screen, so
        # queries between them run on a screen made anew
        self.replay(64, ops)

    @staticmethod
    def replay(dim: int, ops) -> None:
        g = Gallery(dim)
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
                assert (r.best_similarity, r.identity) == clipped_reference(g, op[1])
                assert r.best_similarity == pytest.approx(best, abs=1e-12)
                assert r.identity in {label for label, _ in near}
                if len({v for _, v in near}) == 1:
                    # one vector, maybe under several labels: an exact tie
                    assert r.identity == min(label for label, _ in near)


# rows share a few directions, each scaled by 1-5: the same vector under
# several labels, and the same direction with other unit bits, so that raw
# dots land on, just above and (for a negated query) just below +-1
shared_rows = st.tuples(
    st.lists(small_vectors, min_size=1, max_size=3),
    st.lists(
        st.tuples(st.sampled_from("abcd"), st.integers(0, 2), st.integers(1, 5)),
        min_size=1,
        max_size=12,
    ),
)
queries = st.one_of(
    st.tuples(st.integers(0, 11), st.sampled_from([1, -1]), st.integers(1, 5)),
    small_vectors,
)
# the query's largest magnitude: 1 keeps it as drawn; at 1e-300 its squared
# norm underflows and at 1e308 it overflows
query_scales = st.sampled_from([1.0, 1e-300, 1e308])


class TestScoreKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 512), st.integers(1, 900), st.integers(1, 900), st.data())
    def test_a_row_scores_the_same_bits_at_any_index(self, dim, size_a, size_b, data):
        # one stored row, at a drawn index in two galleries of different
        # sizes, among rows that all point away from the query: its score is
        # the best, and must be the same bits in both and in a misaligned copy
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        query = rng.standard_normal(dim)
        row = query + 0.5 * rng.standard_normal(dim)
        if row @ query < 0:
            row = -row
        qn = unit_vector(query)
        best = []
        for size in (size_a, size_b):
            at = data.draw(st.integers(0, size - 1))
            others = rng.standard_normal((size - 1, dim))
            others[others @ query > 0] *= -1
            g = Gallery(dim)
            for v in others[:at]:
                g.register("other", v)
            g.register("row", row)
            for v in others[at:]:
                g.register("other", v)
            r = g.match_query(query, -1.0)
            assert r.identity == "row"
            best.append(r.best_similarity)
            _, unit, _ = g.unit_rows()
            buffer = np.empty(unit.size + 1)
            misaligned = buffer[1:].reshape(unit.shape)
            misaligned[:] = unit
            assert np.vecdot(misaligned, qn)[at] == r.best_similarity
        assert best[0] == best[1]

    @settings(max_examples=300, deadline=None)
    @given(shared_rows, queries, query_scales)
    # b's raw dot is 1 + 2**-52 and a's is 1.0: both clip to 1, so a wins
    @example(([[3, 3, 0]], [("b", 0, 1), ("a", 0, 5)]), (0, 1, 1), 1.0)
    # antipodal: b's raw dot is -1.0 and a's is just below it: all rows tie at
    # -1, so a wins
    @example(([[0, 1, 1]], [("b", 0, 1), ("a", 0, 3)]), (1, -1, 1), 1.0)
    # one vector under two labels, and a nearby row of a third: a wins the tie
    @example(([[1, 2, 3], [1, 2, 2]], [("c", 1, 1), ("b", 0, 2), ("a", 0, 2)]), (1, 1, 1), 1.0)
    # antipodal to every row, stored out of label order: all tie at -1
    @example(([[1, -2, 3]], [("d", 0, 1), ("c", 0, 2), ("b", 0, 5), ("d", 0, 3)]), (0, -1, 1), 1.0)
    # a query whose squared norm underflows, then one whose square overflows
    @example(([[1, 2, 3], [3, 0, -1]], [("b", 0, 1), ("a", 1, 2)]), [1, 2, 3], 1e-300)
    @example(([[1, 2, 3], [3, 0, -1]], [("b", 0, 1), ("a", 1, 2)]), [-1, 2, 3], 1e308)
    def test_match_equals_clipping_every_score(self, rows, query, query_scale):
        bases, entries = rows
        g = Gallery(3)
        stored = []
        for label, base, scale in entries:
            v = scale * np.array(bases[base % len(bases)], dtype=np.float64)
            g.register(label, v)
            stored.append(v)
        if isinstance(query, tuple):
            pick, sign, scale = query
            query = sign * scale * stored[pick % len(stored)]
        if query_scale != 1.0:
            query = np.asarray(query, dtype=np.float64)
            query = query / np.abs(query).max() * query_scale
        r = g.match_query(query, -1.0)
        assert (r.best_similarity, r.identity) == clipped_reference(g, query)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 512), st.integers(1, 1000), st.data())
    def test_screen_never_changes_the_answer(self, dim, size, data):
        # the float32 screen keeps only the rows near its best; the answer
        # must still be that of scoring every row in float64. Rows a few
        # float64 ulps from one shared vector round to the same float32 row,
        # so the screen cannot order them; the shared vector itself under
        # several labels ties exactly, scaled copies tie with it after
        # normalising, and a query along a stored row scores at or just past
        # +-1, where clipping makes ties of its own
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        shared = rng.standard_normal(dim)
        block = rng.standard_normal((size, dim))
        kind = rng.integers(0, 4, size)
        ulps = rng.integers(-4, 5, (np.count_nonzero(kind == 1), dim))
        block[kind == 1] = shared * (1.0 + ulps * 2.0**-52)
        block[kind == 2] = shared
        scales = rng.choice([1e-3, 0.5, 3.0, 1e3], np.count_nonzero(kind == 3))
        block[kind == 3] = scales[:, None] * shared
        labels = rng.choice(list("abcd"), size).tolist()
        g = Gallery(dim)
        g.register_rows(labels, block)
        pick = data.draw(st.sampled_from(["random", "shared", "row"]), label="query")
        if pick == "random":
            query = rng.standard_normal(dim)
        else:
            query = shared if pick == "shared" else block[rng.integers(size)]
            query = data.draw(st.sampled_from([1.0, -1.0, 7.0, -0.25]), label="scale") * query
        best, expected = clipped_reference(g, query)
        at = data.draw(st.sampled_from(["-1", "best", "above best", "0.5"]), label="threshold")
        threshold = {
            "-1": -1.0, "best": best, "above best": np.nextafter(best, 2.0), "0.5": 0.5
        }[at]
        r = g.match_query(query, threshold)
        matched = best >= threshold
        assert (r.matched, r.identity, r.best_similarity.hex()) == (
            matched, expected if matched else None, best.hex()
        )

    def test_only_a_queried_gallery_holds_a_float32_copy(self, tmp_path):
        source = generate_synthetic(SynthSpec(30, 4, 32, 0.18, 1.0, rng_seed=67))
        path = tmp_path / "g.csv"
        source.save(path)

        def numpy_bytes() -> int:
            """Bytes of the live numpy buffers made since tracemalloc started."""
            buffers = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
            return sum(trace.size for trace in buffers.traces)

        tracemalloc.start()
        try:
            # loading, adapting and the growth protocol (which builds a
            # gallery of its own) never match, so they never make the copy
            with mock.patch.object(Gallery, "match_query", side_effect=AssertionError("matched")):
                loaded = Gallery.load(path)
                held = [numpy_bytes()]
                adapt(loaded, None, AdaptConfig())
                held.append(numpy_bytes())
                run_incremental(loaded)
                held.append(numpy_bytes())
            query = source.embeddings_of(source.identities[0])[0].vector
            loaded.match_query(query, 0.5)
            held.append(numpy_bytes())
            loaded.match_query(-query, 0.5)
            held.append(numpy_bytes())
        finally:
            tracemalloc.stop()
        capacity, dim = loaded._unit.shape
        # the unit rows and each embedding's own float64 vector, no more
        assert held[:3] == [8 * (capacity + len(loaded)) * dim] * 3
        # the first match makes the copy, at most float32 rows of the
        # capacity; a later one reuses it
        assert 0 < held[3] - held[2] <= 4 * capacity * dim
        assert held[4] == held[3]


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

    @pytest.mark.parametrize("name", ["g.csv", "g.json", "g.txt", "g"])
    def test_any_suffix_round_trips_as_csv(self, tmp_path, name):
        rng = np.random.default_rng(63)
        g = Gallery(4)
        for i in range(2):
            g.register(f"id{i}", rng.standard_normal(4))
        (tmp_path / "csv").mkdir()
        reference = tmp_path / "csv" / "g.csv"
        g.save(reference)
        loaded = self.round_trip(g, tmp_path / name)
        assert (tmp_path / name).read_bytes() == reference.read_bytes()
        assert gallery_contents(loaded) == gallery_contents(Gallery.load(reference))

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

    def test_csv_cut_at_a_row_boundary_loads_the_rows_it_holds(self, tmp_path):
        # the rule: a CSV cut after any whole row reads as a shorter file
        # without the counter trailer, as a hand-written one is. Its rows
        # load, and the counters are those of registering them afresh.
        rng = np.random.default_rng(64)
        g = Gallery(3)
        for i in range(6):
            g.register(f"id{i % 2}", rng.standard_normal(3))
        g.remove(g.embeddings_of("id0")[0].instance_id)
        g.mark_adapted()
        path = tmp_path / "g.csv"
        g.save(path)
        lines = path.read_bytes().splitlines(keepends=True)
        assert lines[-2:] == [b"# change_counter=7\n", b"# registrations_since_adapt=0\n"]
        saved = [
            (e.identity, e.instance_id, e.vector.tobytes())
            for label in g.identities
            for e in g.embeddings_of(label)
        ]
        for keep in range(len(saved) + 1):
            cut = tmp_path / f"cut{keep}.csv"
            cut.write_bytes(b"".join(lines[: 1 + keep]))
            loaded = Gallery.load(cut)
            assert [
                (e.identity, e.instance_id, e.vector.tobytes())
                for label in loaded.identities
                for e in loaded.embeddings_of(label)
            ] == saved[:keep]
            assert loaded.change_counter == keep
            assert loaded.registrations_since_adapt == keep

    def test_csv_row_cut_to_its_label_names_its_field_count(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("identity,instance_id,v0,v1\na,e1,1,2\nb\n")
        with pytest.raises(GalleryFormatError) as info:
            Gallery.load(path)
        assert str(info.value) == (
            f"{path}:3: row has 1 fields, expected 4 (identity, instance_id, 2 values)"
        )

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
            self.round_trip(g, Path(tmp) / "g.csv")

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
            self.round_trip(g, Path(tmp) / "g.csv")

    def test_a_byte_that_is_not_utf8_is_a_format_error(self, tmp_path):
        g = Gallery(2)
        g.register("é", [1.0, 0.0])
        g.register("b", [0.0, 1.0])
        path = tmp_path / "g.csv"
        g.save(path)
        data = path.read_bytes()
        # the label b, after a label that is valid UTF-8 of two bytes
        at = data.index(b"\nb,") + 1
        line = data.count(b"\n", 0, at) + 1
        path.write_bytes(data[:at] + b"\xe9" + data[at + 1 :])
        with pytest.raises(GalleryFormatError, match=rf"g\.csv:{line}: not valid UTF-8"):
            Gallery.load(path)

    @settings(max_examples=300, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["truncate", "flip", "delete", "insert"]),
                st.integers(0, 2**16),
                st.integers(0, 255),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_a_damaged_file_loads_or_raises_a_format_error(self, edits):
        g = Gallery(3)
        g.register('a,"é', [1.0, 2.0, 3.5e-300])
        g.register("#b", [0.1, -2.0, 3.0], instance_id="x\ny")
        g.register("c", [1e300, 2.0, 3.0])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.csv"
            g.save(path)
            data = bytearray(path.read_bytes())
            for op, position, byte in edits:
                i = position % (len(data) + 1)
                if op == "truncate":
                    del data[i:]
                elif op == "insert":
                    data.insert(i, byte)
                elif i < len(data) and op == "delete":
                    del data[i]
                elif i < len(data):
                    data[i] ^= 1 << byte % 8
            path.write_bytes(data)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                state = loaded_state(Gallery.load, path)
            assert state == loaded_state(per_row_csv_load, path)


def per_float_csv(gallery, path):
    """The CSV writer formatting one value at a time: ``csv.writer`` on every
    field and ``format(x, FLOAT_FORMAT)`` on each float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["identity", "instance_id"] + [f"v{i}" for i in range(gallery.dimension)]
        )
        for label in gallery.identities:
            for e in gallery.embeddings_of(label):
                writer.writerow(
                    [e.identity, e.instance_id] + [format(x, FLOAT_FORMAT) for x in e.vector]
                )
        for key in ("change_counter", "registrations_since_adapt"):
            fh.write(f"# {key}={getattr(gallery, key)}\n")


def per_row_csv_load(path):
    """The CSV loader as ``csv.reader`` and ``float()`` on every row,
    registering one row at a time: what ``Gallery.load`` must give, a
    gallery or a ``GalleryFormatError`` with the same text."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            g, meta, reader = None, {}, csv.reader(fh)
            for row in reader:
                body = "".join(row).strip()
                if len(row) <= 1 and (not body or body.startswith("#")):
                    key, eq, value = body.lstrip("#").partition("=")
                    if body and eq:
                        meta[key.strip()] = value
                    continue
                if g is None:
                    if len(row) < 4 or row != ["identity", "instance_id"] + [
                        f"v{i}" for i in range(len(row) - 2)
                    ]:
                        raise GalleryFormatError(f"{path}: unrecognized header {row!r}")
                    g = Gallery(len(row) - 2)
                    continue
                where = f"{path}:{reader.line_num}: "
                if len(row) != g.dimension + 2:
                    raise GalleryFormatError(
                        f"{where}row has {len(row)} fields, expected {g.dimension + 2} "
                        f"(identity, instance_id, {g.dimension} values)"
                    )
                try:
                    g.register(row[0], [float(x) for x in row[2:]], instance_id=row[1])
                except ValueError as exc:
                    raise GalleryFormatError(where + str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise utf8_error(path) from exc
    if g is None:
        raise GalleryFormatError(f"{path}: empty file, no header row")
    for key in ("change_counter", "registrations_since_adapt"):
        if key in meta:
            try:
                value = int(meta[key])
            except ValueError:
                value = -1
            if value < 0:
                raise GalleryFormatError(
                    f"{path}: {key!r}: expected an integer >= 0, got {meta[key]!r}"
                )
            setattr(g, key, value)
    return g


def loaded_state(load, path):
    """What ``load(path)`` gives: the error text, or the gallery's dimension
    and :func:`gallery_contents`."""
    try:
        g = load(path)
    except GalleryFormatError as exc:
        return str(exc)
    return g.dimension, gallery_contents(g)


def load_chunks(path):
    """:func:`loaded_state` of ``Gallery.load(path)``, and the rows each of
    its ``np.loadtxt`` calls and each of its ``register_rows`` calls took."""
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, mock.patch.object(
        Gallery, "register_rows", autospec=True, side_effect=Gallery.register_rows
    ) as register_rows:
        state = loaded_state(Gallery.load, path)
    return (
        state,
        [len(call.args[0]) for call in loadtxt.call_args_list],
        [len(call.args[1]) for call in register_rows.call_args_list],
    )


def csv_lines(rows, dim=2):
    """A gallery CSV with one data row per ``(label, id, values)``."""
    header = ",".join(["identity", "instance_id"] + [f"v{i}" for i in range(dim)])
    return "\n".join([header] + [",".join([a, b, *v]) for a, b, v in rows]) + "\n"


class TestBatchedPersistence:
    # labels and ids that need quoting or look like comments
    awkward = st.sampled_from(["\n", "\r", "a\r\n", '"', '""x', ",", "#", "# c=1", " ", "é"])

    @settings(max_examples=100, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.text(min_size=1) | awkward,
                st.text() | awkward,
                # unbounded finite floats: every exponent, subnormals and -0.0
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from([5e-324, -0.0, 1.7976931348623157e308, -1.7e308]),
                    min_size=3,
                    max_size=3,
                ).filter(any),
            ),
            min_size=1,
            max_size=6,
            unique_by=lambda entry: entry[1],
        )
    )
    def test_save_writes_the_bytes_of_the_per_float_writer(self, entries):
        g = Gallery(3)
        for label, instance_id, vector in entries:
            g.register(label, vector, instance_id=instance_id)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            g.save(got)
            per_float_csv(g, want)
            assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(
        vectors=st.lists(
            st.lists(wide_floats, min_size=3, max_size=3).filter(any)
            | st.sampled_from([[1e-300, 0.0, 1e-310], [1e300, -1e308, 1.0], [5e-324] * 3]),
            min_size=1,
            max_size=9,
        ),
        chunk=st.integers(1, 4),
    )
    def test_loaded_unit_rows_are_unit_vector_of_each_row(self, vectors, chunk):
        g = Gallery(3)
        for k, vector in enumerate(vectors):
            g.register(f"id{k % 3}", vector)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            adathresh.gallery, "_LOAD_CHUNK", chunk
        ):
            g.save(Path(tmp) / "g.csv")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                loaded = Gallery.load(Path(tmp) / "g.csv")
            _, unit, _ = loaded.unit_rows()
            raw = [e for label in loaded.identities for e in loaded.embeddings_of(label)]
            # generated in identity order, so registration order is too
            assert len(raw) == unit.shape[0] == len(vectors)
            for row, e in zip(unit, raw):
                assert row.tobytes() == unit_vector(e.vector).tobytes()
        # and the block as one input: each row has the bits of its own call
        block = np.array(vectors, dtype=np.float64)
        for row, vector in zip(unit_rows(block), block):
            assert row.tobytes() == unit_vector(vector).tobytes()

    # value texts float() and numpy's reader may read differently: float()
    # takes underscores, non-ASCII digits and Unicode spaces; numpy strips
    # U+001C-U+001F; a quoted value may hold a newline or a blank line
    odd_values = st.sampled_from(
        ["1_0", " 1", "1 ", "\u0661", "\xa01", "\x1f1", "1\x1c", "inf", "nan", "", "1e999",
         "0x1p3", "5e-324", "-0", '"2.5"', '"1\n"', '"1\n\n"', '"1\n\n2"', "zebra"]
    )  # fmt: skip
    # lines between rows: comments, counters, blank and all-space lines,
    # quoted or not
    between = st.sampled_from(
        ["# note", "# change_counter=9", "# registrations_since_adapt=1", "#",
         "# change_counter=x", "", " ", "\t", '"# change_counter=4"', '""', '" "']
    )  # fmt: skip

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(
                st.text(max_size=4) | awkward,
                st.text(max_size=4) | awkward,
                st.booleans(),  # the two label fields quoted, or written raw
                st.lists(
                    wide_floats.map(lambda x: format(x, FLOAT_FORMAT)),
                    min_size=2,
                    max_size=2,
                )
                | st.lists(odd_values | wide_floats.map(repr), min_size=1, max_size=3),
            )
            | between,
            max_size=9,
        ),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        chunk=st.integers(1, 4),
    )
    # numpy strips U+001F from a value; a quoted value holds a blank line
    @example([("a", "x", False, ["1", "\x1f1"])], "\n", 4)
    @example([("a", "x", True, ["1", '"2\n\n3"'])], "\r\n", 4)
    def test_load_equals_the_per_row_reader(self, lines, newline, chunk):
        def quote(field):
            return '"' + field.replace('"', '""') + '"'

        def fields(row):
            label, instance_id, quoted, values = row
            if quoted:
                label, instance_id = quote(label), quote(instance_id)
            return ",".join([label, instance_id, *values])

        text = newline.join(
            ["identity,instance_id,v0,v1"] + [x if isinstance(x, str) else fields(x) for x in lines]
        )
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            adathresh.gallery, "_LOAD_CHUNK", chunk
        ), warnings.catch_warnings():
            warnings.simplefilter("error")
            path = Path(tmp) / "g.csv"
            path.write_text(text + newline, encoding="utf-8", newline="")
            state, parsed, registered = load_chunks(path)
            assert state == loaded_state(per_row_csv_load, path)
            # the memory promise: no call of a load takes more than a chunk
            assert max(parsed + registered, default=0) <= chunk

    def test_a_refused_chunk_is_read_once_by_each_reader(self, tmp_path):
        # row 100 holds a value float() reads and numpy's reader refuses
        rows = [(f"id{j % 7}", f"e{j}", [repr(1.0 + j), "0.5"]) for j in range(300)]
        rows[100] = ("b", "x", ["1_0", "2"])
        path = tmp_path / "g.csv"
        path.write_text(csv_lines(rows))
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            state = loaded_state(Gallery.load, path)
        assert state == loaded_state(per_row_csv_load, path)
        # rows 0-255 refused, then rows 256-299 in one chunk
        assert adathresh.gallery._LOAD_CHUNK == 256
        assert loadtxt.call_count == 2

    # row 290 of 300, in the second chunk (rows 256-299), which the counter
    # trailer ends; each case gives the rows each np.loadtxt call and each
    # register_rows call took
    @pytest.mark.parametrize(
        "label, values, parsed, registered",
        [
            ('"a,b"', ["1", "0.5"], [256, 44], [256, 44]),
            ('"a""b"', ["1", "0.5"], [256, 44], [256, 44]),
            ('a"b', ["1", "0.5"], [256, 44], [256, 44]),
            # a quoted field over two lines: csv splits the row, and np.array
            # converts the chunk's values
            ('"a\nb"', ["1", "0.5"], [256], [256, 44]),
            # two quotes, yet the line ends inside a quoted field that holds
            # a comment line: csv reads one value, which float() refuses, so
            # the rows before it are registered one at a time
            ('a"b', ["1", '"2\n# c\n3"'], [256], [256] + [1] * 34),
        ],
        ids=["comma", "doubled quote", "stray quote", "newline", "open at the comment"],
    )
    def test_a_quoted_label_keeps_its_chunk_in_numpy(
        self, tmp_path, label, values, parsed, registered
    ):
        rows = [(f"id{j % 7}", f"e{j}", [repr(1.0 + j), "0.5"]) for j in range(300)]
        rows[290] = (label, "e290", values)
        path = tmp_path / "g.csv"
        path.write_text(csv_lines(rows) + "# change_counter=300\n")
        state, *chunks = load_chunks(path)
        assert state == loaded_state(per_row_csv_load, path)
        assert adathresh.gallery._LOAD_CHUNK == 256
        assert chunks == [parsed, registered]

    def test_rows_csv_splits_are_registered_a_chunk_at_a_time(self, tmp_path):
        # every label holds a newline, so csv splits every row
        rows = [(f'"id{j % 7}\nx"', f"e{j}", [repr(1.0 + j), "0.5"]) for j in range(600)]
        path = tmp_path / "g.csv"
        path.write_text(csv_lines(rows))
        state, parsed, registered = load_chunks(path)
        assert state == loaded_state(per_row_csv_load, path)
        assert adathresh.gallery._LOAD_CHUNK == 256
        assert parsed == [] and registered == [256, 256, 88]

    def test_a_bad_row_fails_before_a_later_byte_that_is_not_utf8(self, tmp_path):
        # the bad byte is in a later read of the file than the bad row, but
        # in the same chunk: the row's error comes first, as it does when
        # the rows are registered one at a time
        rows = [(f"id{j % 7}", f"e{j}", [repr(j + k / 7) for k in range(128)]) for j in range(300)]
        rows[3] = ("b", "e1", ["1"] * 128)
        data = csv_lines(rows, dim=128).encode()
        at = data.index(b",e100,") + 1
        path = tmp_path / "g.csv"
        path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        with pytest.raises(GalleryFormatError) as info:
            Gallery.load(path)
        assert str(info.value) == f"{path}:5: instance id 'e1' already present"
        assert loaded_state(per_row_csv_load, path) == str(info.value)

    def test_each_embedding_owns_its_vector(self, tmp_path):
        rng = np.random.default_rng(65)
        g = Gallery(4)
        for k in range(5):
            g.register(f"id{k % 2}", rng.standard_normal(4))
        g.save(tmp_path / "g.csv")
        loaded = Gallery.load(tmp_path / "g.csv")
        for label in loaded.identities:
            for e in loaded.embeddings_of(label):
                assert e.vector.base is None and e.vector.flags.owndata

    # a valid 300-row file (two chunks) with line 1 the header, so row k
    # (from 0) is on line k + 2; each case breaks one row of the second chunk
    @pytest.mark.parametrize(
        "k, row, message",
        [
            (260, ("b", "e3", ["1", "0"]), "instance id 'e3' already present"),
            (261, ("b", "e260", ["1", "0"]), "instance id 'e260' already present"),
            (270, ("b", "x", ["0", "-0"]), "zero vectors cannot be stored"),
            (271, ("", "x", ["1", "0"]), "identity label must be a non-empty string"),
            (272, ("b", "x", ["1", "nan"]), "vector contains non-finite values"),
            (273, ("b", "x", ["1", "zebra"]), "could not convert string to float: 'zebra'"),
            (
                274,
                ("b", "x", ["1"]),
                "row has 3 fields, expected 4 (identity, instance_id, 2 values)",
            ),
            # two bad rows in one chunk, the later one's fault checked first
            # for a whole block: the earlier line is named
            (
                270,
                {270: ("b", "x", ["0", "0"]), 271: ("", "y", ["1", "0"])},
                "zero vectors cannot be stored",
            ),
            (
                260,
                {260: ("b", "e3", ["1", "0"]), 262: ("b", "x", ["nan", "0"])},
                "instance id 'e3' already present",
            ),
        ],
    )
    def test_load_errors_name_their_line_in_any_chunk(self, tmp_path, k, row, message):
        """``row`` is the row put at ``k``, or a dict of rows by index."""
        assert adathresh.gallery._LOAD_CHUNK <= 260 < 300  # the second chunk
        rows = [(f"id{j % 7}", f"e{j}", [repr(1.0 + j), "0.5"]) for j in range(300)]
        if k == 261:
            rows[260] = ("b", "e260", ["1", "0"])
        for j, bad in (row if isinstance(row, dict) else {k: row}).items():
            rows[j] = bad
        path = tmp_path / "g.csv"
        path.write_text(csv_lines(rows))
        with pytest.raises(GalleryFormatError) as info:
            Gallery.load(path)
        assert str(info.value) == f"{path}:{k + 2}: {message}"

    @pytest.mark.parametrize("later", [("b", "y", ["1", "zebra"]), ("b", "y", ["1"])])
    def test_an_earlier_bad_row_fails_before_a_later_unparsable_one(self, tmp_path, later):
        path = tmp_path / "g.csv"
        path.write_text(csv_lines([("a", "x", ["1", "0"]), ("a", "x", ["0", "1"]), later]))
        with pytest.raises(GalleryFormatError, match=r"g\.csv:3: instance id 'x' already present"):
            Gallery.load(path)

    def test_load_memory_is_a_few_galleries_of_floats(self, tmp_path):
        rows, dim = 2_000, 128
        rng = np.random.default_rng(66)
        g = Gallery(dim)
        for k in range(rows):
            g.register(f"id{k // 4:04d}", rng.standard_normal(dim))
        path = tmp_path / "g.csv"
        g.save(path)
        del g
        Gallery.load(path)  # warm-up: imports and caches outside the measure
        tracemalloc.start()
        try:
            loaded = Gallery.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == rows
        # the unit rows and the raw rows are 2 x rows x dim x 8 bytes; holding
        # the parsed floats of the whole file would need more than 6 x
        assert peak < 3 * rows * dim * 8


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

    def test_saved_counters_belong_to_saved_rows(self, tmp_path):
        # a registration that lands while save runs must not reach the file's
        # counters without its row
        g = two_identity_gallery()
        lock = g._lock

        class RegistersOnFirstRelease:
            released = False

            def __enter__(self):
                return lock.__enter__()

            def __exit__(self, *exc):
                lock.__exit__(*exc)
                if not RegistersOnFirstRelease.released:
                    RegistersOnFirstRelease.released = True
                    g.register("late", [0.0, 0.0, 1.0])

        g._lock = RegistersOnFirstRelease()
        g.save(tmp_path / "g.csv")
        assert len(g) == 4  # the late registration did land
        loaded = Gallery.load(tmp_path / "g.csv")
        assert loaded.change_counter == len(loaded)
        assert loaded.registrations_since_adapt == len(loaded)
