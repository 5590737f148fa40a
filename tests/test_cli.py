import csv
import json

import numpy as np
import pytest

from adathresh import Gallery
from adathresh.cli import EXIT_CONTRACT, EXIT_DEGENERATE, EXIT_OK, main


@pytest.fixture
def synth_file(tmp_path):
    path = tmp_path / "emb.csv"
    code = main(
        [
            "synth",
            "--identities", "6",
            "--per-identity", "3",
            "--dim", "16",
            "--within", "0.2",
            "--between", "1.0",
            "--seed", "5",
            "--out", str(path),
        ]
    )
    assert code == EXIT_OK
    return path


class TestSynth:
    def test_writes_loadable_gallery(self, synth_file):
        g = Gallery.load(synth_file)
        assert len(g.identities) == 6
        assert g.dimension == 16

    def test_deterministic(self, tmp_path, synth_file):
        other = tmp_path / "again.csv"
        main(
            [
                "synth",
                "--identities", "6",
                "--per-identity", "3",
                "--dim", "16",
                "--within", "0.2",
                "--between", "1.0",
                "--seed", "5",
                "--out", str(other),
            ]
        )
        assert other.read_bytes() == synth_file.read_bytes()


class TestAdapt:
    def test_prints_state_json(self, synth_file, capsys):
        code = main(["adapt", "--gallery", str(synth_file)])
        assert code == EXIT_OK
        state = json.loads(capsys.readouterr().out)
        assert set(state) == {
            "lambda_current",
            "lambda_old",
            "f1_current",
            "f1_old",
            "provenance",
            "gallery_version",
            "tau",
        }
        assert 0.0 <= state["lambda_current"] <= 1.0

    def test_degenerate_gallery_exit_3(self, tmp_path, capsys):
        g = Gallery(4)
        rng = np.random.default_rng(1)
        for i in range(3):
            g.register(f"id{i}", rng.standard_normal(4))  # one embedding each
        path = tmp_path / "thin.csv"
        g.save(path)
        code = main(["adapt", "--gallery", str(path)])
        assert code == EXIT_DEGENERATE

    def test_single_identity_exit_2(self, tmp_path):
        g = Gallery(4)
        g.register("only", [1, 0, 0, 0])
        path = tmp_path / "one.csv"
        g.save(path)
        assert main(["adapt", "--gallery", str(path)]) == EXIT_CONTRACT

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["adapt", "--gallery", str(tmp_path / "nope.csv")]) == EXIT_CONTRACT

    def test_tau_flag_recorded(self, synth_file, capsys):
        code = main(["adapt", "--gallery", str(synth_file), "--tau", "0.91"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tau"] == 0.91

    def test_config_file_with_cli_override(self, synth_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 0.85, "recompute_every_n": 4}))
        code = main(
            ["adapt", "--gallery", str(synth_file), "--config", str(cfg), "--tau", "0.95"]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tau"] == 0.95  # flag beats file

    def test_unknown_config_key_exit_2(self, synth_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": 0.8}))
        code = main(["adapt", "--gallery", str(synth_file), "--config", str(cfg)])
        assert code == EXIT_CONTRACT

    def test_removed_config_key_exit_2(self, synth_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 0.85, "refine_iters": 64}))
        code = main(["adapt", "--gallery", str(synth_file), "--config", str(cfg)])
        assert code == EXIT_CONTRACT

    @pytest.mark.parametrize(
        "payload, entry",
        [
            ({"dimension": "x", "embeddings": []}, "'dimension'"),
            (
                {
                    "dimension": 2,
                    "embeddings": [
                        {"identity": "a", "instance_id": "e1", "vector": [1.0, "q"]}
                    ],
                },
                "embedding #0",
            ),
            ({"dimension": 2, "embeddings": [], "change_counter": "zz"}, "'change_counter'"),
            ({"dimension": 2, "embeddings": 5}, "'embeddings'"),
        ],
        ids=["dimension", "vector", "counter", "embeddings"],
    )
    def test_bad_json_gallery_value_exit_2(self, tmp_path, capsys, payload, entry):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        assert main(["adapt", "--gallery", str(path)]) == EXIT_CONTRACT
        assert f"g.json: {entry}: " in capsys.readouterr().err

    def test_bad_tau_exit_2(self, synth_file):
        assert (
            main(["adapt", "--gallery", str(synth_file), "--tau", "1.5"])
            == EXIT_CONTRACT
        )


class TestSimulate:
    def test_rows_and_summary(self, synth_file, tmp_path):
        rows_path = tmp_path / "rows.csv"
        summary_path = tmp_path / "summary.json"
        code = main(
            [
                "simulate",
                "--embeddings", str(synth_file),
                "--fixed", "0.3,0.5,0.7",
                "--out", str(rows_path),
                "--summary", str(summary_path),
            ]
        )
        assert code == EXIT_OK
        with open(rows_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 * 4  # (6 - 1) steps x 4 kinds
        summary = json.loads(summary_path.read_text())
        assert {k["threshold_kind"] for k in summary["kinds"]} == {
            "adaptive",
            "fixed@0.3",
            "fixed@0.5",
            "fixed@0.7",
        }

    def test_shuffle_order(self, synth_file, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "simulate",
                "--embeddings", str(synth_file),
                "--order", "shuffle",
                "--seed", "9",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK


class TestRoc:
    def test_writes_sweep(self, synth_file, tmp_path):
        out = tmp_path / "roc.csv"
        code = main(
            ["roc", "--embeddings", str(synth_file), "--points", "51", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = [ln for ln in out.read_text().splitlines() if ln.strip()]
        assert lines[0] == "lambda,fpr,tpr"
        assert lines[-1].startswith("# auc=")
        assert len([ln for ln in lines[1:] if not ln.startswith("#")]) == 51 + 2


    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_exit_2(self, synth_file, tmp_path, epsilon):
        out = tmp_path / "roc.csv"
        code = main(
            ["roc", "--embeddings", str(synth_file), "--epsilon", epsilon, "--out", str(out)]
        )
        assert code == EXIT_CONTRACT
        assert not out.exists()


class TestSimulateStream:
    def test_stream_with_auto_register(self, synth_file, tmp_path):
        queries = tmp_path / "queries.csv"
        q = Gallery(16)
        rng = np.random.default_rng(123)
        q.register("unknown", rng.standard_normal(16))
        q.save(queries)
        events_path = tmp_path / "events.csv"
        saved = tmp_path / "after.csv"
        code = main(
            [
                "simulate-stream",
                "--gallery", str(synth_file),
                "--queries", str(queries),
                "--threshold", "0.99",
                "--auto-register",
                "--out", str(events_path),
                "--save-gallery", str(saved),
            ]
        )
        assert code == EXIT_OK
        with open(events_path) as fh:
            events = list(csv.DictReader(fh))
        assert events[0]["action"] == "registered"
        after = Gallery.load(saved)
        assert "novel-0001" in after.identities
