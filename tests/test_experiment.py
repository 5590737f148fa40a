import csv
import dataclasses
import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adathresh.experiment
import adathresh.optimizer
from adathresh import (
    AdaptConfig,
    ExperimentRow,
    Gallery,
    InputContractError,
    SimilarityDistributions,
    SynthSpec,
    build_distributions,
    export,
    export_stream_events,
    generate_synthetic,
    metrics_at,
    roc_auc,
    roc_export,
    run_incremental,
    simulate_stream,
    summarize,
)
from conftest import gallery_contents, read_exported_rows, reference_synthetic


def small_spec(**overrides):
    base = dict(
        num_identities=5,
        embeddings_per_identity=3,
        dimension=16,
        within_spread=0.2,
        between_spread=1.0,
        rng_seed=11,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestRunIncremental:
    def test_row_count_arithmetic(self):
        g = generate_synthetic(small_spec())
        rows = run_incremental(g, AdaptConfig(), [0.3, 0.5, 0.7])
        assert len(rows) == 4 * 4  # (n - 1) steps x (1 + |fixed|) kinds
        assert sorted({r.step for r in rows}) == [2, 3, 4, 5]
        kinds = {r.threshold_kind for r in rows}
        assert kinds == {"adaptive", "fixed@0.3", "fixed@0.5", "fixed@0.7"}

    def test_thresholds_equal_to_six_digits_keep_their_own_kinds(self):
        g = generate_synthetic(small_spec())
        rows = run_incremental(g, AdaptConfig(), [0.3, 0.30000001, 1.0])
        kinds = ["adaptive", "fixed@0.3", "fixed@0.30000001", "fixed@1.0"]
        assert [r.threshold_kind for r in rows[:4]] == kinds
        assert [k.threshold_kind for k in summarize(rows).kinds] == kinds

    def test_separable_set_perfect_adaptive_f1(self):
        g = generate_synthetic(small_spec(within_spread=0.02))
        rows = run_incremental(g, AdaptConfig(), [0.5])
        for r in rows:
            if r.threshold_kind == "adaptive":
                assert r.f1 == 1.0

    def test_adaptive_dominates_fixed(self):
        g = generate_synthetic(small_spec(num_identities=12, within_spread=0.35))
        rows = run_incremental(g, AdaptConfig(tau=1.0), [0.3, 0.5, 0.7])
        adaptive = {r.step: r.f1 for r in rows if r.threshold_kind == "adaptive"}
        for r in rows:
            if r.threshold_kind != "adaptive":
                assert adaptive[r.step] >= r.f1

    def test_final_step_carries_auc(self):
        g = generate_synthetic(small_spec())
        rows = run_incremental(g, AdaptConfig(), [0.5])
        last = max(r.step for r in rows)
        for r in rows:
            if r.step == last:
                assert r.auc is not None
            else:
                assert r.auc is None

    def test_per_step_roc_flag(self):
        g = generate_synthetic(small_spec())
        rows = run_incremental(g, AdaptConfig(), [0.5], per_step_roc=True)
        assert all(r.auc is not None for r in rows)

    def test_shuffle_is_seeded(self):
        g1 = generate_synthetic(small_spec())
        g2 = generate_synthetic(small_spec())
        r1 = run_incremental(g1, AdaptConfig(), [0.5], identity_order="shuffle", seed=3)
        r2 = run_incremental(g2, AdaptConfig(), [0.5], identity_order="shuffle", seed=3)
        assert r1 == r2

    def test_accepts_path_source(self, tmp_path):
        path = tmp_path / "emb.csv"
        generate_synthetic(small_spec(), path)
        rows = run_incremental(path, AdaptConfig(), [0.5])
        assert len(rows) == 4 * 2

    def test_insufficient_identities(self):
        g = Gallery(4)
        g.register("only", [1, 0, 0, 0])
        with pytest.raises(InputContractError):
            run_incremental(g, AdaptConfig(), [0.5])

    def test_first_two_need_an_auto_pair(self):
        g = Gallery(4)
        g.register("a", [1, 0, 0, 0])
        g.register("b", [0, 1, 0, 0])
        g.register("c", [0, 0, 1, 0])
        g.register("c", [0, 0, 1, 0])
        with pytest.raises(InputContractError):
            run_incremental(g, AdaptConfig(), [0.5])

    def test_unknown_order(self):
        g = generate_synthetic(small_spec())
        with pytest.raises(InputContractError):
            run_incremental(g, AdaptConfig(), [0.5], identity_order="random")

    def test_rows_equal_metrics_at_of_each_step(self):
        g = generate_synthetic(small_spec(num_identities=9, within_spread=0.45, rng_seed=3))
        config = AdaptConfig(tpr_denominator="paper")
        rows = run_incremental(
            g, config, [], identity_order="shuffle", seed=5, per_step_roc=True
        )
        labels = g.identities
        random.Random(5).shuffle(labels)
        grown = Gallery(g.dimension)
        dists = {}
        for step, label in enumerate(labels, 1):
            for e in g.embeddings_of(label):
                grown.register(label, e.vector)
            if step >= 2:
                dists[step] = build_distributions(grown)
        assert [(r.step, r.threshold_kind) for r in rows] == [
            (step, "adaptive") for step in dists
        ]
        for r in rows:
            dist = dists[r.step]
            m = metrics_at(dist, r.lambda_, config.epsilon, config.tpr_denominator)
            assert (r.precision, r.recall, r.f1, r.accuracy, r.tpr, r.fpr) == (
                m.precision, m.recall, m.f1, m.accuracy, m.tpr, m.fpr
            )
            assert r.auc == roc_auc(dist)

    def test_one_build_per_step_and_rows_as_with_public_adapt(self, monkeypatch):
        g = generate_synthetic(small_spec(num_identities=10, within_spread=0.5))
        config = AdaptConfig(tau=0.99)
        builds = []

        def counted_build(gallery):
            builds.append(gallery.change_counter)
            return build_distributions(gallery)

        monkeypatch.setattr(adathresh.experiment, "build_distributions", counted_build)
        monkeypatch.setattr(adathresh.optimizer, "build_distributions", counted_build)
        rows = run_incremental(g, config, [0.5])
        assert len(builds) == 9  # steps 2..10, one build each
        assert len(set(builds)) == 9

        def public_adapt(gallery, dist, state, config):
            return adathresh.optimizer.adapt(gallery, state, config)

        builds.clear()
        monkeypatch.setattr(adathresh.experiment, "_adapt_built", public_adapt)
        assert run_incremental(g, config, [0.5]) == rows
        assert len(builds) > 9  # the public adapt built its own distributions

    def test_warns_only_when_an_adaptation_fails(self, caplog):
        # the first step's samples (2 auto, 1 cross) are too few for
        # Gaussians by design, and that fallback logs nothing
        g = generate_synthetic(small_spec(num_identities=12, within_spread=0.35))
        with caplog.at_level("WARNING"):
            run_incremental(g, AdaptConfig(), [0.5])
        assert not [r for r in caplog.records if "skipped" in r.message]
        # exactly-unit basis vectors make every auto sample exactly 1.0: the
        # samples of steps 3 and 4 are estimable, and adaptation fails on them
        g = Gallery(4)
        for i, basis in enumerate(np.eye(4)):
            g.register(f"id{i}", basis)
            g.register(f"id{i}", basis)
        caplog.clear()
        with caplog.at_level("WARNING"):
            rows = run_incremental(g, AdaptConfig(), [0.5])
        skipped = [r.message for r in caplog.records if "skipped" in r.message]
        assert len(skipped) == 2 and all("zero variance" in m for m in skipped)
        assert len(rows) == 3 * 2


class TestGenerateSynthetic:
    def test_same_seed_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_synthetic(small_spec(), p1)
        generate_synthetic(small_spec(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_vanishing_within_spread_gives_unit_auto(self):
        g = generate_synthetic(small_spec(within_spread=1e-9))
        dist = build_distributions(g)
        assert np.all(dist.auto_samples >= 1.0 - 1e-6)

    def test_large_set_means_ordered(self):
        spec = SynthSpec(
            num_identities=100,
            embeddings_per_identity=20,
            dimension=128,
            within_spread=0.3,
            between_spread=1.0,
            rng_seed=42,
        )
        dist = build_distributions(generate_synthetic(spec))
        assert float(np.mean(dist.auto_samples)) > float(np.mean(dist.cross_samples))

    def test_spec_validation(self):
        with pytest.raises(InputContractError):
            small_spec(num_identities=0)
        with pytest.raises(InputContractError):
            small_spec(within_spread=0.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("num_identities", 2.5, "num_identities must be an integer"),
            ("num_identities", "3", "num_identities must be an integer"),
            ("num_identities", True, "num_identities must be an integer, not a bool"),
            ("embeddings_per_identity", 0, "counts must be positive"),
            ("embeddings_per_identity", np.bool_(True), "not a bool"),
            ("dimension", 1, "dimension must be >= 2"),
            ("dimension", 16.0, "dimension must be an integer"),
            ("rng_seed", -1, "rng_seed must be >= 0"),
            ("rng_seed", True, "rng_seed must be an integer, not a bool"),
            ("rng_seed", 1.5, "rng_seed must be an integer"),
            ("rng_seed", None, "rng_seed must be an integer"),
            ("within_spread", float("nan"), "within_spread must not be NaN"),
            ("within_spread", float("inf"), "within_spread must be finite and > 0"),
            ("within_spread", -0.1, "within_spread must be finite and > 0"),
            ("within_spread", True, "within_spread must be a real number, got bool"),
            ("within_spread", "0.2", "within_spread must be a real number, got str"),
            ("between_spread", float("inf"), "between_spread must be finite and > 0"),
            ("between_spread", float("nan"), "between_spread must not be NaN"),
        ],
    )
    def test_spec_rejects(self, field, value, message):
        with pytest.raises(InputContractError, match=message):
            small_spec(**{field: value})

    def test_spec_takes_integer_like_counts(self):
        spec = small_spec(num_identities=np.int64(3), dimension=np.int32(8), rng_seed=np.uint8(4))
        assert (spec.num_identities, spec.dimension, spec.rng_seed) == (3, 8, 4)
        assert all(
            type(value) is int for value in (spec.num_identities, spec.dimension, spec.rng_seed)
        )
        assert small_spec(within_spread=np.float32(0.25), between_spread=2).between_spread == 2

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.builds(
            SynthSpec,
            num_identities=st.integers(1, 6),
            embeddings_per_identity=st.integers(1, 5),
            dimension=st.integers(2, 40),
            within_spread=st.floats(1e-6, 3.0),
            between_spread=st.floats(1e-3, 3.0),
            rng_seed=st.integers(0, 2**64 - 1),
        )
    )
    def test_equals_one_embedding_at_a_time(self, spec):
        # raw vectors, labels, instance ids, row order, unit rows and both
        # counters are those of one draw and one register per embedding
        assert gallery_contents(generate_synthetic(spec)) == gallery_contents(
            reference_synthetic(spec)
        )


class TestSummarize:
    @staticmethod
    def row(step, kind, f1=0.9, accuracy=0.8, auc=None):
        return ExperimentRow(
            step=step,
            threshold_kind=kind,
            lambda_=0.5,
            precision=f1,
            recall=f1,
            f1=f1,
            accuracy=accuracy,
            tpr=f1,
            fpr=0.1,
            auc=auc,
        )

    def test_f1_target_fraction(self):
        rows = [
            self.row(2, "adaptive", f1=0.9),
            self.row(3, "adaptive", f1=0.7),
            self.row(4, "adaptive", f1=0.85),
        ]
        rep = summarize(rows)
        assert rep.kinds[0].f1_at_least_target_pct == pytest.approx(200.0 / 3.0)

    def test_all_perfect(self):
        rows = [self.row(s, "adaptive", f1=1.0, accuracy=1.0) for s in (2, 3, 4)]
        rep = summarize(rows)
        assert rep.kinds[0].mean_accuracy_pct == 100.0
        assert rep.kinds[0].f1_at_least_target_pct == 100.0

    def test_relative_gains(self):
        rows = [
            self.row(2, "adaptive", accuracy=0.9),
            self.row(2, "fixed@0.5", accuracy=0.8),
        ]
        rep = summarize(rows)
        by_kind = {k.threshold_kind: k for k in rep.kinds}
        assert by_kind["adaptive"].relative_accuracy_gain_pct is None
        assert by_kind["fixed@0.5"].relative_accuracy_gain_pct == pytest.approx(
            (0.9 - 0.8) / 0.8 * 100.0
        )

    def test_auc_from_final_step(self):
        rows = [
            self.row(2, "adaptive", auc=None),
            self.row(3, "adaptive", auc=0.77),
        ]
        rep = summarize(rows)
        assert rep.kinds[0].auc == 0.77

    def test_empty_rejected(self):
        with pytest.raises(InputContractError):
            summarize([])


class TestExport:
    def make_rows(self):
        g = generate_synthetic(small_spec())
        return run_incremental(g, AdaptConfig(), [0.3, 0.7])

    def test_csv_round_trip(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "rows.csv"
        export(rows, path)
        assert read_exported_rows(path) == rows

    def test_json_round_trip(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "rows.json"
        export(rows, path)
        assert read_exported_rows(path) == rows

    def test_csv_header_order(self, tmp_path):
        path = tmp_path / "rows.csv"
        export(self.make_rows(), path)
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == "step,threshold_kind,lambda,precision,recall,f1,accuracy,tpr,fpr,auc"

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "rows.csv"
        export([], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_summary_json_keys(self, tmp_path):
        rep = summarize(self.make_rows())
        path = tmp_path / "summary.json"
        export(rep, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"kinds", "f1_target"}
        assert set(payload["kinds"][0]) == {
            "threshold_kind",
            "mean_accuracy_pct",
            "auc",
            "f1_at_least_target_pct",
            "relative_accuracy_gain_pct",
        }

    def test_summary_recomputed_from_csv_identical(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "rows.csv"
        export(rows, path)
        assert summarize(read_exported_rows(path)) == summarize(rows)

    def test_simulate_twice_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        export(self.make_rows(), p1)
        export(self.make_rows(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_summary_csv(self, tmp_path):
        rep = summarize(self.make_rows())
        path = tmp_path / "summary.csv"
        export(rep, path)
        with open(path) as fh:
            records = list(csv.DictReader(fh))
        assert {r["threshold_kind"] for r in records} == {
            "adaptive",
            "fixed@0.3",
            "fixed@0.7",
        }


    def test_summary_csv_header_and_cells(self, tmp_path):
        rep = summarize(self.make_rows())
        path = tmp_path / "summary.csv"
        export(rep, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            "threshold_kind,mean_accuracy_pct,auc,f1_at_least_target_pct,"
            "relative_accuracy_gain_pct"
        )
        adaptive = rep.kinds[0]
        assert adaptive.threshold_kind == "adaptive"
        assert adaptive.relative_accuracy_gain_pct is None
        values = (adaptive.mean_accuracy_pct, adaptive.auc, adaptive.f1_at_least_target_pct)
        # a None gain is an empty cell
        assert lines[1] == ",".join(["adaptive", *(format(v, ".17g") for v in values), ""])


class TestRocExport:
    def test_perfect_separation_file(self, tmp_path):
        dist = SimilarityDistributions([0.8, 0.9], [0.1, 0.2])
        path = tmp_path / "roc.csv"
        roc_export(dist, path, num_points=101)
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        data = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert len(data) == 101 + 2
        best_tpr_at_zero = max(
            float(ln.split(",")[2]) for ln in data if float(ln.split(",")[1]) == 0.0
        )
        assert best_tpr_at_zero == pytest.approx(1.0, abs=1e-8)

    def test_auc_comment_near_half_for_identical(self, tmp_path):
        vals = [0.1, 0.3, 0.5, 0.7]
        dist = SimilarityDistributions(vals, vals)
        path = tmp_path / "roc.csv"
        roc_export(dist, path, num_points=1001)
        comment = [ln for ln in path.read_text().splitlines() if ln.startswith("#")]
        auc = float(comment[-1].split("=")[1])
        assert auc == 0.5


class TestSimulateStream:
    def make_gallery(self):
        g = Gallery(3)
        g.register("a", [1, 0, 0])
        g.register("b", [0, 1, 0])
        return g

    def test_matching_leaves_gallery_unchanged(self):
        g = self.make_gallery()
        queries = [g.embeddings_of("a")[0]]
        before = g.change_counter
        events = simulate_stream(g, queries, threshold=0.5)
        assert events[0].action == "matched"
        assert events[0].identity == "a"
        assert g.change_counter == before

    def test_rejected_without_auto_register(self):
        g = self.make_gallery()
        q = Gallery(3)
        q.register("query", [0, 0, 1])
        events = simulate_stream(g, q.embeddings_of("query"), threshold=0.5)
        assert events[0].action == "rejected"
        assert not events[0].matched
        assert len(g.identities) == 2

    def test_auto_register_creates_novel_identity(self):
        g = self.make_gallery()
        q = Gallery(3)
        q.register("query", [0, 0, 1])
        events = simulate_stream(
            g, q.embeddings_of("query"), threshold=0.5, auto_register=True
        )
        assert events[0].action == "registered"
        assert "novel-0001" in g.identities

    def test_novel_labels_skip_taken_ones(self):
        g = self.make_gallery()
        g.register("novel-0002", [1, 1, 0])
        q = Gallery(3)
        q.register("x", [0, 0, 1])
        q.register("y", [0, 0, -1])
        queries = q.embeddings_of("x") + q.embeddings_of("y")
        simulate_stream(g, queries, threshold=0.99, auto_register=True)
        simulate_stream(g, queries[:1], threshold=1.1, auto_register=True)
        assert g.identities[-3:] == ["novel-0001", "novel-0003", "novel-0004"]

        # one query per call, past a label taken before the stream began
        g = self.make_gallery()
        g.register("novel-0005", [1, 1, 0])
        for _ in range(30):
            simulate_stream(g, queries[:1], threshold=1.1, auto_register=True)
        want = [f"novel-{k:04d}" for k in range(1, 32) if k != 5]
        assert g.identities == ["a", "b", "novel-0005", *want]
        assert all(len(g.embeddings_of(label)) == 1 for label in want + ["novel-0005"])

    def test_novel_labels_skip_taken_ones_one_query_per_call(self):
        # the way an online caller replays a stream: one query per call
        g = self.make_gallery()
        g.register("novel-0002", [1, 1, 0])
        q = Gallery(3)
        q.register("x", [0, 0, 1])
        q.register("y", [0, 0, -1])
        for query in q.embeddings_of("x") + q.embeddings_of("y") + q.embeddings_of("x"):
            simulate_stream(g, [query], threshold=1.1, auto_register=True)
        assert g.identities[-3:] == ["novel-0001", "novel-0003", "novel-0004"]

    def test_nan_threshold_stores_nothing(self):
        g = self.make_gallery()
        before = g.change_counter
        with pytest.raises(InputContractError):
            simulate_stream(g, g.embeddings_of("a"), float("nan"), auto_register=True)
        assert g.change_counter == before

    def test_events_under_a_numpy_threshold_dump_to_json(self):
        g = self.make_gallery()
        q = Gallery(3)
        q.register("query", [0, 0, 1])
        queries = g.embeddings_of("a") + q.embeddings_of("query")
        events = simulate_stream(g, queries, np.float64(0.5))
        assert [e.matched for e in events] == [True, False]
        assert all(type(e.matched) is bool for e in events)
        json.dumps([dataclasses.asdict(e) for e in events])

    def test_append_matched_policy(self):
        g = self.make_gallery()
        queries = [g.embeddings_of("a")[0]]
        events = simulate_stream(g, queries, threshold=0.5, append_matched=True)
        assert events[0].action == "appended"
        assert len(g.embeddings_of("a")) == 2

    def test_event_export(self, tmp_path):
        g = self.make_gallery()
        events = simulate_stream(g, [g.embeddings_of("a")[0]], threshold=0.5)
        path = tmp_path / "events.csv"
        export_stream_events(events, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["action"] == "matched"
        assert rows[0]["identity"] == "a"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# a finite float, or one of its 1-ulp neighbours
NEAR_FINITE = st.one_of(
    FINITE,
    st.builds(math.nextafter, FINITE, st.sampled_from([-math.inf, math.inf])).filter(math.isfinite),
)
ROWS = st.lists(
    st.builds(
        ExperimentRow,
        step=st.integers(0, 2**63),
        threshold_kind=st.sampled_from(["adaptive", "fixed@0.5", "fixed@1e-05"]),
        lambda_=NEAR_FINITE,
        precision=NEAR_FINITE,
        recall=NEAR_FINITE,
        f1=NEAR_FINITE,
        accuracy=NEAR_FINITE,
        tpr=NEAR_FINITE,
        fpr=NEAR_FINITE,
        auc=st.none() | NEAR_FINITE,
    ),
    max_size=5,
)


def _bits(row: ExperimentRow) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row))


@settings(max_examples=200, deadline=None)
@given(rows=ROWS, suffix=st.sampled_from([".csv", ".json"]))
@example(
    rows=[ExperimentRow(2, "adaptive", -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                        math.nextafter(0.1, 1.0), math.nextafter(1.0, 0.0), 1.7976931348623157e308,
                        auc=math.nextafter(0.5, 0.0))],
    suffix=".csv",
)  # fmt: skip
def test_exported_rows_read_back_bit_for_bit(rows, suffix):
    # export's 17 significant digits are what makes a stdlib read-back lossless
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"rows{suffix}"
        export(rows, path)
        back = read_exported_rows(path)
    assert [_bits(r) for r in back] == [_bits(r) for r in rows]
