import argparse
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adathresh import Gallery
from adathresh.cli import EXIT_CONTRACT, EXIT_DEGENERATE, EXIT_OK, _build_parser, main
from conftest import MUTATIONS, mutated


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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "-1", "rng_seed must be >= 0"),
            ("--within", "nan", "within_spread must not be NaN"),
            ("--between", "inf", "between_spread must be finite and > 0"),
            ("--within", "0", "within_spread must be finite and > 0"),
        ],
    )
    def test_bad_spec_exit_2(self, tmp_path, capsys, flag, value, message):
        argv = {
            "--identities": "6", "--per-identity": "3", "--dim": "16",
            "--within": "0.2", "--between": "1.0", "--seed": "5",
        }
        argv[flag] = value
        out = tmp_path / "emb.csv"
        code = main(["synth", *(x for kv in argv.items() for x in kv), "--out", str(out)])
        assert code == EXIT_CONTRACT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # spreads under which a draw's squared norm overflows, or underflows to 0
    @pytest.mark.parametrize("within, between", [("1e200", "1"), ("1e-200", "1e-200")])
    def test_a_draw_with_no_finite_nonzero_norm_exit_2(self, tmp_path, capsys, within, between):
        out = tmp_path / "emb.csv"
        argv = ["synth", "--identities", "2", "--per-identity", "2", "--dim", "2",
                "--within", within, "--between", between, "--seed", "0", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_CONTRACT
        err = capsys.readouterr().err
        assert err.startswith(f"error: within_spread {float(within)!r} and between_spread")
        assert err.endswith(" give an embedding whose squared norm overflows or is 0\n")
        assert not out.exists()


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

    def test_labels_past_csvs_default_field_limit_load(self, tmp_path, capsys):
        # csv refuses a field of more than 131,072 characters by default; each
        # of these labels is 200,000 characters, and save quotes both
        labels = ['x"' * 100_000, "x," * 100_000, "a", "b"]
        g = Gallery(4)
        rng = np.random.default_rng(0)
        for label in labels:
            g.register_rows([label] * 2, rng.standard_normal((2, 4)))
        path = tmp_path / "long.csv"
        g.save(path)
        back = Gallery.load(path)
        assert back.identities == g.identities
        for label in labels:
            assert [(e.instance_id, e.vector.tobytes()) for e in back.embeddings_of(label)] == [
                (e.instance_id, e.vector.tobytes()) for e in g.embeddings_of(label)
            ]
        assert main(["adapt", "--gallery", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["gallery_version"] == g.change_counter

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

    def test_bool_config_values_exit_2(self, synth_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": True, "tau": True}))
        code = main(["adapt", "--gallery", str(synth_file), "--config", str(cfg)])
        assert code == EXIT_CONTRACT
        assert "bool" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"tau": "0.5"}, "tau must be a real number"),
            ({"tau": None}, "tau must be a real number"),
            ({"epsilon": [1e-9]}, "epsilon must be a real number"),
            ({"recompute_every_n": None}, "recompute_every_n must be an integer"),
            ({"tpr_denominator": None}, "unknown tpr_denominator"),
            # json.load reads a 400-digit integer as an int too large for a float
            ({"tau": 10**400}, "tau must be in (0, 1]"),
            ({"epsilon": 10**400}, "epsilon must be finite and > 0"),
        ],
    )
    def test_wrongly_typed_config_values_exit_2(
        self, synth_file, tmp_path, capsys, values, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code = main(["adapt", "--gallery", str(synth_file), "--config", str(cfg)])
        assert code == EXIT_CONTRACT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [[1, 2], []])
    def test_non_object_config_exit_2(self, synth_file, tmp_path, capsys, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        code = main(["adapt", "--gallery", str(synth_file), "--config", str(cfg)])
        assert code == EXIT_CONTRACT
        assert "JSON object" in capsys.readouterr().err

    def test_removed_config_key_exit_2(self, synth_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for key, value in [
            ("refine_iters", 64),
            ("grid_points", 512),
            ("objective", "f1"),
            ("bound_mode", "unbounded_01"),
        ]:
            cfg.write_text(json.dumps({"tau": 0.85, key: value}))
            code = main(["adapt", "--gallery", str(synth_file), "--config", str(cfg)])
            assert code == EXIT_CONTRACT
            assert f"unknown config keys: {key}" in capsys.readouterr().err

    def test_a_json_layout_gallery_exits_2_at_its_header(self, synth_file, tmp_path, capsys):
        # the JSON layout save used to write for a .json path: a gallery is
        # CSV whatever its suffix, so this file fails at its first line
        g = Gallery.load(synth_file)
        payload = {
            "dimension": g.dimension,
            "change_counter": g.change_counter,
            "registrations_since_adapt": g.registrations_since_adapt,
            "embeddings": [
                {"identity": e.identity, "instance_id": e.instance_id, "vector": e.vector.tolist()}
                for label in g.identities
                for e in g.embeddings_of(label)
            ],
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["adapt", "--gallery", str(path)]) == EXIT_CONTRACT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: unrecognized header ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, text",
        [("change_counter", "zz"), ("registrations_since_adapt", "-5")],
        ids=["non-integer", "negative"],
    )
    def test_bad_counter_exit_2(self, synth_file, tmp_path, capsys, key, text):
        path = tmp_path / "g.csv"
        Gallery.load(synth_file).save(path)
        # comments with other keys or without "=" stay plain comments
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines = ["# note\n", "# camera=3\n"] + [
            f"# {key}={text}\n" if ln.startswith(f"# {key}=") else ln for ln in lines
        ]
        path.write_text("".join(lines), encoding="utf-8")
        assert main(["adapt", "--gallery", str(path)]) == EXIT_CONTRACT
        assert f"g.csv: {key!r}: " in capsys.readouterr().err

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

    def test_nan_fixed_threshold_exit_2(self, synth_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            ["simulate", "--embeddings", str(synth_file), "--fixed", "nan,0.5", "--out", str(out)]
        )
        assert code == EXIT_CONTRACT
        assert "NaN" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_fixed_threshold_exit_2(self, synth_file, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            ["simulate", "--embeddings", str(synth_file), "--fixed", "abc", "--out", str(out)]
        )
        assert code == EXIT_CONTRACT
        assert capsys.readouterr().err.startswith("error: --fixed")
        assert not out.exists()

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


@pytest.mark.parametrize(
    "argv",
    [
        ["adapt", "--gallery", "g.csv", "--recompute-every", "5"],
        ["simulate", "--embeddings", "g.csv", "--out", "r.csv", "--recompute-every", "5"],
        ["roc", "--embeddings", "g.csv", "--out", "roc.csv", "--recompute-every", "5"],
        ["roc", "--embeddings", "g.csv", "--out", "roc.csv", "--tau", "0.9"],
        ["roc", "--embeddings", "g.csv", "--out", "roc.csv", "--objective", "f1"],
        ["roc", "--embeddings", "g.csv", "--out", "roc.csv", "--bound", "means"],
        ["roc", "--embeddings", "g.csv", "--out", "roc.csv", "--tpr-denominator", "paper"],
        ["adapt", "--gallery", "g.csv", "--objective", "f1"],
        ["simulate", "--embeddings", "g.csv", "--out", "r.csv", "--bound", "means"],
    ],
    ids=["adapt-recompute", "simulate-recompute", "roc-recompute", "roc-tau",
         "roc-objective", "roc-bound", "roc-tpr-denominator", "adapt-objective",
         "simulate-bound"],
)
def test_flag_a_subcommand_does_not_read_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


CONFIG_FLAGS = {"--config", "--epsilon", "--tau", "--tpr-denominator"}
OPTIONS = {
    "adapt": {"--gallery"} | CONFIG_FLAGS,
    "simulate": {
        "--embeddings", "--fixed", "--order", "--seed", "--out", "--summary",
        "--per-step-roc",
    } | CONFIG_FLAGS,
    "synth": {
        "--identities", "--per-identity", "--dim", "--within", "--between", "--seed",
        "--out",
    },
    "roc": {"--embeddings", "--points", "--out", "--config", "--epsilon"},
    "simulate-stream": {
        "--gallery", "--queries", "--threshold", "--auto-register", "--append-matched",
        "--out", "--save-gallery",
    },
}


def test_each_subcommand_accepts_exactly_its_options():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert accepted == OPTIONS
    # the README's table lists each subcommand's AdaptConfig flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {}
    for line in readme.splitlines():
        if line.startswith("| `") and "|" in line[1:]:
            names, flags = line.strip("|").split("|")[:2]
            for name in re.findall(r"`([a-z-]+)`", names):
                table[name] = set(re.findall(r"`(--[a-z-]+)`", flags))
    assert table == {name: OPTIONS[name] & CONFIG_FLAGS for name in OPTIONS}


_UTF8_SCRIPT = textwrap.dedent(
    """
    import json
    from pathlib import Path

    from adathresh import (
        Gallery, SimilarityDistributions, SynthSpec, export, export_stream_events,
        generate_synthetic, roc_export, run_incremental, simulate_stream, summarize,
    )
    from adathresh.cli import main
    from conftest import read_exported_rows

    g = generate_synthetic(SynthSpec(4, 3, 8, 0.2, 1.0, rng_seed=1), "g.csv")
    rows = run_incremental(g, fixed_list=[0.5])
    for ext in ("csv", "json"):
        export(rows, f"rows.{ext}")
        assert read_exported_rows(f"rows.{ext}") == rows
        export(summarize(rows), f"summary.{ext}")
    roc_export(SimilarityDistributions([0.9, 0.8], [0.1, 0.2]), "roc.csv")
    named = Gallery(3)
    named.register("Zoë Ørsted 李", [1.0, 0.0, 0.0])
    events = simulate_stream(named, named.embeddings_of("Zoë Ørsted 李"), 0.5)
    export_stream_events(events, "events.csv")
    assert "Zoë Ørsted 李" in Path("events.csv").read_text(encoding="utf-8")
    Path("config.json").write_text(json.dumps({"tau": 0.85}), encoding="utf-8")
    assert main(["adapt", "--gallery", "g.csv", "--config", "config.json"]) == 0
    """
)


def test_every_text_file_is_utf8(tmp_path):
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", _UTF8_SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8",
    )
    assert done.returncode == 0, done.stderr



@pytest.mark.parametrize(
    "command, flag",
    [
        ("adapt", "--gallery"),
        ("adapt", "--config"),
        ("simulate", "--embeddings"),
        ("simulate-stream", "--gallery"),
        ("simulate-stream", "--queries"),
        ("roc", "--embeddings"),
    ],
)
def test_a_byte_that_is_not_utf8_exits_2(synth_file, tmp_path, capsys, command, flag):
    config = tmp_path / "config.json"
    config.write_text('{\n"tau": 0.85}\n', encoding="utf-8")
    files = {"--gallery": synth_file, "--embeddings": synth_file, "--queries": synth_file}
    files["--config"] = config
    bad = tmp_path / f"bad{files[flag].suffix}"
    # a Latin-1 byte at the start of line 2
    bad.write_bytes(files[flag].read_bytes().replace(b"\n", b"\n\xe9", 1))
    files[flag] = bad
    args = {
        "adapt": ["--gallery", files["--gallery"], "--config", files["--config"]],
        "simulate": ["--embeddings", files["--embeddings"], "--out", tmp_path / "rows.csv"],
        "simulate-stream": [
            "--gallery", files["--gallery"], "--queries", files["--queries"],
            "--threshold", "0.5",
        ],
        "roc": ["--embeddings", files["--embeddings"], "--out", tmp_path / "roc.csv"],
    }[command]
    assert main([command, *map(str, args)]) == EXIT_CONTRACT
    err = capsys.readouterr().err
    if flag == "--config":
        assert err.startswith("error: cannot read config file: 'utf-8' codec can't decode")
    else:
        assert err.startswith(f"error: {bad}:2: not valid UTF-8")


# labels the gallery is saved with before it is mutated: short text, labels
# that need quoting, and labels longer than csv's default field limit
_SAVED_LABELS = st.one_of(
    st.text(min_size=1, max_size=6),
    st.builds(
        lambda unit, count: unit * count,
        st.sampled_from(['x"', "x,", '"', "a\nb", "a\r\n", "# "]),
        st.sampled_from([1, 3, 70_000]),
    ),
)


# each command that reads a gallery file, with the mutated file in place of
# one of them; the other files are the gallery as saved, or outputs
_READS_A_GALLERY = {
    "adapt": ["adapt", "--gallery", "{mutated}"],
    "simulate": ["simulate", "--embeddings", "{mutated}", "--out", "{tmp}/rows.csv",
                 "--summary", "{tmp}/summary.json"],
    "roc": ["roc", "--embeddings", "{mutated}", "--out", "{tmp}/roc.csv"],
    "simulate-stream --gallery": ["simulate-stream", "--gallery", "{mutated}", "--queries",
                                  "{kept}", "--threshold", "0.5", "--auto-register"],
    "simulate-stream --queries": ["simulate-stream", "--gallery", "{kept}", "--queries",
                                  "{mutated}", "--threshold", "0.5", "--auto-register"],
}  # fmt: skip


@settings(max_examples=150, deadline=None)
@given(
    labels=st.lists(_SAVED_LABELS, max_size=2),
    mutations=st.lists(MUTATIONS, max_size=4),
    command=st.sampled_from(list(_READS_A_GALLERY)),
)
def test_a_mutated_gallery_file_exits_cleanly(labels, mutations, command):
    # any bytes a command reads as a gallery end in an exit code: 0 done, 2
    # refused the file or its contents, 3 too degenerate to adapt; never a
    # traceback or a warning
    # each identity's rows around its own direction on a circle, so that
    # every command, adapt included, exits 0 on the file as saved
    g = Gallery(3)
    rng = np.random.default_rng(1)
    names = ["a", "b", "c", *labels]
    for k, label in enumerate(names):
        angle = 2 * np.pi * k / len(names)
        g.register_rows([label] * 2, 0.3 * rng.standard_normal((2, 3)) + [np.cos(angle), np.sin(angle), 0])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, kept = Path(tmp) / "g.csv", Path(tmp) / "kept.csv"
        g.save(path)
        g.save(kept)
        path.write_bytes(mutated(path.read_bytes(), mutations))
        argv = [a.format(mutated=path, kept=kept, tmp=tmp) for a in _READS_A_GALLERY[command]]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            with contextlib.redirect_stderr(err):
                code = main(argv)
    assert code in (EXIT_OK, EXIT_CONTRACT, EXIT_DEGENERATE)
    assert "Traceback" not in err.getvalue()


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

    def test_nan_threshold_exit_2(self, synth_file, tmp_path, capsys):
        queries = tmp_path / "queries.csv"
        Gallery.load(synth_file).save(queries)
        saved = tmp_path / "after.csv"
        code = main(
            [
                "simulate-stream",
                "--gallery", str(synth_file),
                "--queries", str(queries),
                "--threshold", "nan",
                "--auto-register",
                "--save-gallery", str(saved),
            ]
        )
        assert code == EXIT_CONTRACT
        assert "NaN" in capsys.readouterr().err
        assert not saved.exists()

    def test_nan_threshold_exit_2_without_queries(self, synth_file, tmp_path, capsys):
        queries = tmp_path / "queries.csv"
        Gallery(16).save(queries)
        code = main(
            [
                "simulate-stream",
                "--gallery", str(synth_file),
                "--queries", str(queries),
                "--threshold", "nan",
            ]
        )
        assert code == EXIT_CONTRACT
        assert "threshold must not be NaN" in capsys.readouterr().err
