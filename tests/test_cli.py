import csv
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from corpusgen import FILLER, distance2_corpus, learnability_corpus
from gujiseg.cli import main
from gujiseg.corpus import M, write_labeled_corpus
from gujiseg.lexicons import build_pmi_table, load_pmi_table


def write_labeled(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        write_labeled_corpus(docs, fh)
    return str(path)


def read_report(captured):
    return dict(line.split("\t") for line in captured.strip().splitlines())


def read_results(path):
    comments, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line)
    parsed = list(csv.reader(io.StringIO("".join(rows))))
    return comments, parsed[0], parsed[1:]


def manifest_inputs(out_path):
    """The manifest's input digests, checked to be SHA-256 hex strings."""
    with open(f"{out_path}.manifest.json", encoding="utf-8") as fh:
        inputs = json.load(fh)["inputs"]
    for digest in inputs.values():
        assert re.fullmatch("[0-9a-f]{64}", digest)
    return inputs


@pytest.fixture(scope="module")
def rule_docs():
    return learnability_corpus(n_docs=230, seed=7)


@pytest.fixture(scope="module")
def trained_model(rule_docs, tmp_path_factory):
    root = tmp_path_factory.mktemp("model")
    corpus = write_labeled(root / "train.tsv", rule_docs[:200])
    model = str(root / "model.txt")
    rc = main(["train", corpus, "-o", model, "--features", "c", "--k", "1",
               "--max-iterations", "60"])
    assert rc == 0
    return model


class TestPrepare:
    def test_report_and_output(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text(
            "孝敬天啟，動必以禮。\n"
            "天下。\n"
            "。。\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.tsv"
        rc = main(["prepare", str(raw), "-o", str(out), "--min-length", "3"])
        assert rc == 0
        report = read_report(capsys.readouterr().out)
        assert report["docs_parsed"] == "3"
        assert report["docs_kept"] == "1"
        assert report["docs_dropped"] == "2"
        assert report["docs_empty"] == "1"
        assert report["char_tokens"] == "8"
        assert report["boundary_marks"] == "2"
        assert float(report["mean_chars_per_doc"]) == pytest.approx(8.0)
        assert out.read_text(encoding="utf-8").startswith("孝\tO\n敬\tO\n天\tO\n啟\tM\n")

    def test_unreadable_character_exits_2(self, tmp_path, capsys):
        # a custom --discard set keeps the tab, which the labeled corpus
        # cannot hold
        raw = tmp_path / "raw.txt"
        raw.write_text("天地\t玄黃，宇宙洪荒。\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        rc = main(["prepare", str(raw), "-o", str(out), "--min-length", "0", "--discard", "x"])
        assert rc == 2
        assert "character '\\t'" in capsys.readouterr().err
        assert not (tmp_path / "out.tsv.manifest.json").exists()

    def test_refusal_keeps_existing_corpus(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("天地\t玄黃，宇宙洪荒。\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        out.write_bytes("天\tO\n地\tM\n".encode("utf-8"))
        rc = main(["prepare", str(raw), "-o", str(out), "--min-length", "0", "--discard", "x"])
        assert rc == 2
        assert out.read_bytes() == "天\tO\n地\tM\n".encode("utf-8")

    def test_manifest_written(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("天地玄黃，宇宙洪荒。\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert main(["prepare", str(raw), "-o", str(out), "--min-length", "0"]) == 0
        capsys.readouterr()
        manifest = json.loads((tmp_path / "out.tsv.manifest.json").read_text())
        assert manifest["command"] == "prepare"
        assert str(raw) in manifest["inputs"]
        assert len(manifest["inputs"][str(raw)]) == 64
        assert manifest["config"]["min_length"] == 0

    def test_custom_boundary(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("天下、太平。\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        rc = main(["prepare", str(raw), "-o", str(out), "--min-length", "0",
                   "--boundary", "、。"])
        assert rc == 0
        assert read_report(capsys.readouterr().out)["boundary_marks"] == "2"
        assert "下\tM" in out.read_text(encoding="utf-8")

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["prepare", str(tmp_path / "absent.txt"), "-o", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestTrainPunctuateEvaluate:
    def test_punctuate_reproduces_rule(self, rule_docs, trained_model, tmp_path):
        test_docs = rule_docs[200:]
        raw = tmp_path / "plain.txt"
        raw.write_text("".join(d.chars + "\n" for d in test_docs), encoding="utf-8")
        out = tmp_path / "punct.txt"
        rc = main(["punctuate", trained_model, str(raw), "-o", str(out)])
        assert rc == 0
        expected = "".join(
            "".join(c + "，" if l == M else c for c, l in zip(d.chars, d.labels)) + "\n"
            for d in test_docs
        )
        assert out.read_text(encoding="utf-8") == expected

    def test_punctuate_to_stdout(self, rule_docs, trained_model, tmp_path, capsys):
        raw = tmp_path / "one.txt"
        raw.write_text(rule_docs[210].chars + "\n", encoding="utf-8")
        assert main(["punctuate", trained_model, str(raw)]) == 0
        assert "，" in capsys.readouterr().out

    def test_punctuate_custom_mark(self, rule_docs, trained_model, tmp_path):
        raw = tmp_path / "one.txt"
        raw.write_text(rule_docs[205].chars + "\n", encoding="utf-8")
        out = tmp_path / "p.txt"
        assert main(["punctuate", trained_model, str(raw), "-o", str(out),
                     "--mark", "/"]) == 0
        text = out.read_text(encoding="utf-8")
        assert "/" in text and "，" not in text

    @pytest.mark.parametrize("mark", ["\n", "\u2028"])
    def test_punctuate_line_breaking_mark_refused(self, rule_docs, trained_model, tmp_path,
                                                  capsys, mark):
        raw = tmp_path / "one.txt"
        raw.write_text(rule_docs[205].chars + "\n", encoding="utf-8")
        out = tmp_path / "p.txt"
        assert main(["punctuate", trained_model, str(raw), "-o", str(out),
                     "--mark", mark]) == 2
        assert "line break" in capsys.readouterr().err
        assert not out.exists()

    def test_punctuate_empty_input(self, trained_model, tmp_path, capsys):
        raw = tmp_path / "empty.txt"
        raw.write_text("", encoding="utf-8")
        assert main(["punctuate", trained_model, str(raw)]) == 0
        assert capsys.readouterr().out == ""

    def test_punctuate_preserves_blank_lines(self, rule_docs, trained_model, tmp_path):
        raw = tmp_path / "gap.txt"
        raw.write_text(
            rule_docs[201].chars + "\n\n" + rule_docs[202].chars + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "p.txt"
        assert main(["punctuate", trained_model, str(raw), "-o", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").split("\n")
        assert lines[1] == ""

    def test_punctuate_strips_existing_marks(self, rule_docs, trained_model,
                                             tmp_path, caplog):
        doc = rule_docs[203]
        punctuated = "".join(
            c + "。" if l == M else c for c, l in zip(doc.chars, doc.labels)
        )
        raw = tmp_path / "marked.txt"
        raw.write_text(punctuated + "\n", encoding="utf-8")
        out = tmp_path / "p.txt"
        with caplog.at_level(logging.WARNING, logger="gujiseg.cli"):
            assert main(["punctuate", trained_model, str(raw), "-o", str(out)]) == 0
        assert any("boundary marks" in r.message for r in caplog.records)
        assert "。" not in out.read_text(encoding="utf-8")

    def test_evaluate_held_out(self, rule_docs, trained_model, tmp_path, capsys):
        corpus = write_labeled(tmp_path / "test.tsv", rule_docs[200:])
        assert main(["evaluate", trained_model, corpus]) == 0
        report = read_report(capsys.readouterr().out)
        assert set(report) == {"precision", "recall", "f1", "item_accuracy"}
        assert float(report["f1"]) >= 0.99

    def test_train_writes_manifest(self, trained_model):
        manifest = json.loads(
            open(trained_model + ".manifest.json", encoding="utf-8").read()
        )
        assert manifest["command"] == "train"
        assert manifest["config"]["features"] == "c"
        assert manifest["version"]
        assert manifest["seed"] is None

    def test_train_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "empty.tsv"
        corpus.write_text("", encoding="utf-8")
        rc = main(["train", str(corpus), "-o", str(tmp_path / "m.txt")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sigma", "--tolerance"])
    def test_train_non_finite_setting_refused_first(self, rule_docs, tmp_path, capsys,
                                                    monkeypatch, flag):
        corpus = write_labeled(tmp_path / "train.tsv", rule_docs[:40])
        model = tmp_path / "m.txt"

        def unread(text):
            raise AssertionError("corpus read before the settings were checked")

        monkeypatch.setattr("gujiseg.cli.read_labeled_corpus", unread)
        assert main(["train", corpus, "-o", str(model), flag, "nan"]) == 2
        assert "must be a finite number > 0" in capsys.readouterr().err
        assert not model.exists()

    def test_train_builds_pmi_sidecar(self, rule_docs, tmp_path):
        corpus = write_labeled(tmp_path / "train.tsv", rule_docs[:40])
        model = tmp_path / "model.txt"
        rc = main(["train", corpus, "-o", str(model), "--features", "c,pmi",
                   "--k", "1", "--max-iterations", "2", "--min-count", "2"])
        assert rc == 0
        side = load_pmi_table(
            open(str(model) + ".pmi.tsv", encoding="utf-8").read()
        )
        assert side.total_bigrams > 0


class TestSweep:
    def run_sweep(self, tmp_path, docs, name="res.csv", extra=()):
        corpus = write_labeled(tmp_path / "corpus.tsv", docs)
        out = tmp_path / name
        rc = main(["sweep", corpus, "-o", str(out), "--k-min", "1", "--k-max", "2",
                   "--trials", "2", "--max-iterations", "6", "--seed", "5",
                   *extra])
        assert rc == 0
        return out

    def test_row_shape(self, tmp_path):
        docs = learnability_corpus(n_docs=40, seed=11)
        out = self.run_sweep(tmp_path, docs)
        comments, header, rows = read_results(out)
        assert comments[0] == "# schema: gujiseg-results-v1"
        assert comments[1] == "# manifest: res.csv.manifest.json"
        assert header == ["trial", "k", "features", "precision", "recall", "f1",
                          "item_accuracy"]
        # 2 feature sets x k in {1,2} x (2 trials + 1 mean row)
        assert len(rows) == 2 * 2 * 3
        assert [r[0] for r in rows[:3]] == ["0", "1", "mean"]
        assert {r[2] for r in rows} == {"c", "c,b"}
        for r in rows:
            for cell in r[3:]:
                assert math.isfinite(float(cell))

    def test_byte_identical_reruns(self, tmp_path):
        docs = learnability_corpus(n_docs=40, seed=12)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = self.run_sweep(tmp_path / "a", docs)
        b = self.run_sweep(tmp_path / "b", docs)
        assert a.read_bytes() == b.read_bytes()

    def test_wider_window_wins_on_distance_rule(self, tmp_path):
        docs = distance2_corpus(n_docs=300, seed=31)
        corpus = write_labeled(tmp_path / "corpus.tsv", docs)
        out = tmp_path / "res.csv"
        rc = main(["sweep", corpus, "-o", str(out), "--features", "c",
                   "--k-min", "1", "--k-max", "2", "--trials", "1",
                   "--max-iterations", "50"])
        assert rc == 0
        _, _, rows = read_results(out)
        f1 = {r[1]: float(r[5]) for r in rows if r[0] == "mean"}
        assert f1["2"] > f1["1"] + 0.05

    def test_manifest_records_lexicon(self, tmp_path):
        docs = learnability_corpus(n_docs=40, seed=19)
        lexicon = tmp_path / "words.tsv"
        lexicon.write_text(f"{FILLER[0]}{FILLER[1]}\tPLACE\n", encoding="utf-8")
        out = self.run_sweep(tmp_path, docs,
                             extra=("--lexicon", str(lexicon), "--features", "c,b,w"))
        assert set(manifest_inputs(out)) == {str(tmp_path / "corpus.tsv"), str(lexicon)}

    def test_bad_k_range(self, tmp_path, capsys):
        docs = learnability_corpus(n_docs=10, seed=13)
        corpus = write_labeled(tmp_path / "corpus.tsv", docs)
        rc = main(["sweep", corpus, "-o", str(tmp_path / "r.csv"),
                   "--k-min", "3", "--k-max", "2"])
        assert rc == 2
        assert "k range" in capsys.readouterr().err


class TestAblate:
    def rhyme_file(self, tmp_path, name):
        path = tmp_path / f"{name}.tsv"
        chars = "".join(FILLER[:12]) + "之"
        lines = [f"{c}\tR{i % 4}" for i, c in enumerate(chars)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_table1_needs_rhyme_dicts(self, tmp_path, capsys):
        docs = learnability_corpus(n_docs=20, seed=14)
        corpus = write_labeled(tmp_path / "c.tsv", docs)
        rc = main(["ablate", corpus, "-o", str(tmp_path / "r.csv"),
                   "--preset", "table1"])
        assert rc == 2
        assert "--rhyme-dict" in capsys.readouterr().err

    def test_table2_needs_entity_lexicon(self, tmp_path, capsys):
        docs = learnability_corpus(n_docs=20, seed=15)
        corpus = write_labeled(tmp_path / "c.tsv", docs)
        rc = main(["ablate", corpus, "-o", str(tmp_path / "r.csv"),
                   "--preset", "table2"])
        assert rc == 2
        assert "--lexicon" in capsys.readouterr().err

    def test_table1_grid(self, tmp_path):
        docs = learnability_corpus(n_docs=30, seed=16)
        corpus = write_labeled(tmp_path / "c.tsv", docs)
        out = tmp_path / "r.csv"
        gy, psy = self.rhyme_file(tmp_path, "gy"), self.rhyme_file(tmp_path, "psy")
        rc = main([
            "ablate", corpus, "-o", str(out), "--preset", "table1",
            "--rhyme-dict", f"guangyun={gy}", "--rhyme-dict", f"pingshuiyun={psy}",
            "--trials", "1", "--max-iterations", "2",
        ])
        assert rc == 0
        _, _, rows = read_results(out)
        # 4 feature sets x k in {1,2} x (1 trial + 1 mean row)
        assert len(rows) == 4 * 2 * 2
        assert {r[2] for r in rows} == {"c", "c,b", "c,b,ry:guangyun",
                                        "c,b,ry:pingshuiyun"}
        assert set(manifest_inputs(out)) == {corpus, gy, psy}

    def test_table2_grid(self, tmp_path):
        docs = learnability_corpus(n_docs=30, seed=17)
        corpus = write_labeled(tmp_path / "c.tsv", docs)
        lexicon = tmp_path / "words.tsv"
        lexicon.write_text(
            f"{FILLER[0]}{FILLER[1]}\tPLACE\n{FILLER[2]}{FILLER[3]}{FILLER[4]}\tOFFICE\n",
            encoding="utf-8",
        )
        out = tmp_path / "r.csv"
        rc = main([
            "ablate", corpus, "-o", str(out), "--preset", "table2",
            "--lexicon", str(lexicon),
            "--trials", "1", "--max-iterations", "2",
        ])
        assert rc == 0
        _, _, rows = read_results(out)
        # 3 feature sets x k in {1..4} x (1 trial + 1 mean row)
        assert len(rows) == 3 * 4 * 2
        assert {r[1] for r in rows} == {"1", "2", "3", "4"}


class TestPmiBuild:
    def test_round_trip(self, tmp_path):
        docs = learnability_corpus(n_docs=30, seed=18)
        corpus = write_labeled(tmp_path / "c.tsv", docs)
        out = tmp_path / "pmi.tsv"
        rc = main(["pmi-build", corpus, "-o", str(out), "--min-count", "2"])
        assert rc == 0
        got = load_pmi_table(out.read_text(encoding="utf-8"))
        want = build_pmi_table(docs, min_count=2)
        assert got.total_bigrams == want.total_bigrams
        assert got.pmi.keys() == want.pmi.keys()
        for pair, value in want.pmi.items():
            assert got.pmi[pair] == pytest.approx(value, abs=1e-12)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "gujiseg" in capsys.readouterr().out

    def test_train_has_no_seed(self, tmp_path):
        # training is deterministic; only sweep and ablate take a split seed
        with pytest.raises(SystemExit) as exc:
            main(["train", str(tmp_path / "c.tsv"), "-o", str(tmp_path / "m.txt"),
                  "--seed", "1"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])


def run_cli_fresh(argvs, setup=""):
    """Run each argv through gujiseg.cli.main in one new interpreter, after
    `setup`; return the exit codes, the stderr text and whether numpy was
    loaded. stdout is dropped."""
    return run_fresh(
        "import contextlib, io, json, sys\n"
        "from gujiseg import cli\n"
        f"{setup}\n"
        "codes, err = [], io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        f"    for argv in {argvs!r}:\n"
        "        try:\n"
        "            codes.append(cli.main(argv))\n"
        "        except SystemExit as exc:\n"
        "            codes.append(exc.code)\n"
        "print(json.dumps([codes, err.getvalue(), 'numpy' in sys.modules]))"
    )


def run_fresh(code, **env):
    """Run `code` in a new interpreter on this checkout's src and return its
    stdout as JSON. The environment leaves out OPENBLAS_NUM_THREADS, which
    this process gains once any test imports gujiseg.cli."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**base, "PYTHONPATH": str(src), **env},
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


class TestImportCost:
    def test_library_import_loads_no_numpy(self):
        out = run_fresh(
            "import gujiseg, gujiseg.corpus, json, os, sys; "
            "print(json.dumps(['numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')]))"
        )
        assert out == [False, None]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
    def test_cli_runs_one_thread(self):
        # resolving a numeric name loads numpy the way train and punctuate do
        out = run_fresh(
            "import gujiseg.cli, json, os, sys; gujiseg.cli.train; "
            "print(json.dumps(['numpy' in sys.modules, len(os.listdir('/proc/self/task')), "
            "os.environ['OPENBLAS_NUM_THREADS']]))"
        )
        assert out == [True, 1, "1"]

    def test_caller_thread_setting_wins(self):
        out = run_fresh(
            "import gujiseg.cli, json, os; print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))",
            OPENBLAS_NUM_THREADS="2",
        )
        assert out == "2"

    def test_public_names_resolve_on_access(self):
        out = run_fresh(
            "import json\n"
            "names = {}\n"
            "exec('from gujiseg import *', names)\n"
            "import gujiseg\n"
            "try:\n"
            "    gujiseg.no_such_name\n"
            "    unknown = 'resolved'\n"
            "except AttributeError as exc:\n"
            "    unknown = str(exc)\n"
            "print(json.dumps([gujiseg.__all__, sorted(names), dir(gujiseg), unknown]))"
        )
        public, bound, listed, unknown = out
        assert set(public) <= set(bound)
        assert set(public) <= set(listed)
        assert unknown == "module 'gujiseg' has no attribute 'no_such_name'"

    def test_numpy_free_commands(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text("天地玄黃，宇宙洪荒。日月盈昃，辰宿列張。\n" * 3, encoding="utf-8")
        corpus, table = str(tmp_path / "c.tsv"), str(tmp_path / "pmi.tsv")
        codes, _, numpy_loaded = run_cli_fresh([
            ["--version"],
            ["--help"],
            ["prepare", str(raw), "-o", corpus, "--min-length", "5"],
            ["pmi-build", corpus, "-o", table, "--min-count", "1"],
        ])
        assert codes == [0, 0, 0, 0]
        assert not numpy_loaded
        assert load_pmi_table(Path(table).read_text(encoding="utf-8")).pmi

    def test_prepare_errors_exit_2_without_numpy(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes("天地".encode() + b"\xff\n")
        out = str(tmp_path / "o.tsv")
        codes, err, numpy_loaded = run_cli_fresh([
            ["prepare", str(tmp_path / "absent.txt"), "-o", out],
            ["prepare", str(bad), "-o", out],
        ])
        assert codes == [2, 2]
        assert "error: [Errno 2] No such file or directory" in err
        assert "invalid UTF-8 at byte offset 6" in err
        assert not numpy_loaded

    def test_split_error_exits_1(self, rule_docs, tmp_path):
        corpus = write_labeled(tmp_path / "one.tsv", rule_docs[:1])
        codes, err, _ = run_cli_fresh([
            ["sweep", corpus, "-o", str(tmp_path / "r.csv"), "--k-min", "1", "--k-max", "1"],
        ])
        assert codes == [1]
        assert "error: need at least 2 documents to split, got 1" in err

    def test_training_error_exits_1(self, rule_docs, tmp_path):
        # set before main binds the numeric names, which must keep it
        setup = (
            "def diverge(*args):\n"
            "    raise cli.TrainingError('objective diverged at step size 1')\n"
            "cli.train = diverge"
        )
        corpus = write_labeled(tmp_path / "c.tsv", rule_docs[:5])
        codes, err, _ = run_cli_fresh(
            [["train", corpus, "-o", str(tmp_path / "m.txt")]], setup
        )
        assert codes == [1]
        assert "error: objective diverged at step size 1" in err
