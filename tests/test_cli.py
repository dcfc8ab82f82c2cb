"""End-to-end command-line flows through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import risp
from conftest import FIXTURES, TINY_DOCS
from risp.cli import _SETTINGS, _build_parser, _given_settings, main

BUILD_FLAGS = ["--min-count", "3", "--max-doc-freq", "1.0", "--dim", "64"]

# One update argument list per setting, each at odds with an index built
# with BUILD_FLAGS; "stoplist.txt" and "conf.txt" name files in the test's
# directory.
CONFLICTS = {
    "dim": ["--dim", "128"],
    "window": ["--window", "7"],
    "global_seed": ["--global-seed", "1"],
    "distribution": ["--distribution", "ternary"],
    "ternary_k": ["--ternary-k", "4"],
    "min_count": ["--min-count", "4"],
    "max_doc_freq": ["--max-doc-freq", "0.5"],
    "stoplist": ["--stoplist", "stoplist.txt"],
    "lowercase": ["--no-lowercase"],
    "drop_digits": ["--drop-digits"],
    "split_sentences": ["--split-sentences"],
    "config": ["--config", "conf.txt"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    corpus.write_text("\n".join(TINY_DOCS) + "\n", encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def index(workdir):
    path = workdir / "space.risp"
    code = main(["build", "-i", str(workdir / "corpus.txt"), "-o", str(path), *BUILD_FLAGS])
    assert code == 0
    return path


class TestBuild:
    def test_reports_a_summary_line(self, workdir, capsys):
        out = workdir / "fresh.risp"
        code = main(["build", "-i", str(workdir / "corpus.txt"), "-o", str(out), *BUILD_FLAGS])
        captured = capsys.readouterr()
        assert code == 0
        assert out.exists()
        assert "vocabulary terms" in captured.out
        assert f"built {out}" in captured.out

    def test_rebuilds_are_byte_identical(self, workdir, index):
        again = workdir / "again.risp"
        code = main(["build", "-i", str(workdir / "corpus.txt"), "-o", str(again), *BUILD_FLAGS])
        assert code == 0
        assert again.read_bytes() == index.read_bytes()

    def test_empty_corpus_fails_cleanly(self, workdir, capsys):
        empty = workdir / "empty.txt"
        empty.write_text("", encoding="utf-8")
        code = main(["build", "-i", str(empty), "-o", str(workdir / "nope.risp")])
        assert code == 1
        assert "no readable documents" in capsys.readouterr().err

    def test_missing_output_path_is_a_usage_error(self, workdir, monkeypatch):
        monkeypatch.delenv("RISP_INDEX", raising=False)
        with pytest.raises(SystemExit) as err:
            main(["build", "-i", str(workdir / "corpus.txt")])
        assert err.value.code == 1

    def test_directory_corpus(self, workdir, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        for i, text in enumerate(TINY_DOCS):
            (docs / f"{i:02d}.txt").write_text(text, encoding="utf-8")
        out = tmp_path / "dir.risp"
        code = main(["build", "-i", str(docs), "-o", str(out), *BUILD_FLAGS])
        assert code == 0
        assert out.exists()

    def test_config_file_with_flag_override(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("# comment\ndim=32\nmin-count=3\nmax-doc-freq=1.0\n", encoding="utf-8")
        out = tmp_path / "cfg.risp"
        code = main(["build", "-i", str(workdir / "corpus.txt"), "-o", str(out),
                     "--config", str(cfg), "--dim", "16"])
        assert code == 0
        capsys.readouterr()
        assert main(["stats", "--index", str(out)]) == 0
        assert "dimension: 16" in capsys.readouterr().out

    def test_unknown_config_key_fails(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dimension=300\n", encoding="utf-8")
        code = main(["build", "-i", str(workdir / "corpus.txt"),
                     "-o", str(tmp_path / "x.risp"), "--config", str(cfg)])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err


class TestStats:
    def test_prints_header_fields(self, index, capsys):
        assert main(["stats", "--index", str(index)]) == 0
        out = capsys.readouterr().out
        assert "dimension: 64" in out
        assert "window: 11" in out
        assert "documents: 12" in out

    def test_env_var_supplies_the_index(self, index, capsys, monkeypatch):
        monkeypatch.setenv("RISP_INDEX", str(index))
        assert main(["stats"]) == 0
        assert "vocabulary terms" in capsys.readouterr().out


class TestNeighbors:
    def test_tab_separated_descending(self, index, capsys):
        assert main(["neighbors", "mantle", "-k", "4", "--index", str(index)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        first_term, first_sim = lines[0].split("\t")
        assert first_term == "mantle"
        assert float(first_sim) == 1.0
        sims = [float(line.split("\t")[1]) for line in lines]
        assert sims == sorted(sims, reverse=True)

    def test_unknown_term_exits_two(self, index, capsys):
        assert main(["neighbors", "zzz", "--index", str(index)]) == 2
        assert "error" in capsys.readouterr().err


class TestSim:
    def test_pair_prints_one_number(self, index, capsys):
        assert main(["sim", "apples", "oranges", "--index", str(index)]) == 0
        value = float(capsys.readouterr().out.strip())
        assert -1.0 <= value <= 1.0

    def test_three_terms_print_an_indexed_matrix(self, index, capsys):
        assert main(["sim", "apples", "oranges", "mantle", "--index", str(index)]) == 0
        lines = capsys.readouterr().out.rstrip().splitlines()
        assert len(lines) == 4  # three rows plus the column footer
        assert lines[0].startswith("  0 apples")
        row = lines[0].split()
        assert float(row[2]) == pytest.approx(1.0)

    def test_unknown_term_exits_two(self, index):
        assert main(["sim", "apples", "zzz", "--index", str(index)]) == 2


class TestDisambig:
    def test_emits_one_json_record_per_term(self, index, capsys):
        code = main(["disambig", "mantle", "apples", "--index", str(index), "--force"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["term"] for r in records] == ["mantle", "apples"]
        for record in records:
            assert {"term", "frequency", "levels", "default_level"} <= set(record)
            for level in record["levels"]:
                sim = level["max_intercluster_sim"]
                if sim is not None:
                    assert sim == round(sim, 6)

    def test_out_of_band_term_exits_two_without_force(self, index, capsys):
        code = main(["disambig", "mantle", "--index", str(index), "--min-freq", "5000"])
        assert code == 2
        assert "outside" in capsys.readouterr().err

    def test_output_flag_writes_a_file(self, index, tmp_path):
        out = tmp_path / "senses.jsonl"
        code = main(["disambig", "mantle", "--index", str(index), "--force",
                     "-o", str(out)])
        assert code == 0
        record = json.loads(out.read_text(encoding="utf-8").strip())
        assert record["term"] == "mantle"

    def test_no_terms_is_a_usage_error(self, index):
        with pytest.raises(SystemExit) as err:
            main(["disambig", "--index", str(index)])
        assert err.value.code == 1

    def test_batch_with_summary(self, index, capsys):
        code = main(["disambig", "--batch", "--summary", "--index", str(index),
                     "--min-freq", "5"])
        captured = capsys.readouterr()
        assert code == 0
        records = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert records
        terms = [r["term"] for r in records]
        assert terms == sorted(terms)
        assert "processed" in captured.err

    def test_gram_file_mode(self, capsys):
        fixture = FIXTURES / "mantle_gram.txt"
        assert main(["disambig", "--gram", str(fixture)]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["term"] == "mantle"
        assert record["default_level"] == 2
        two = next(level for level in record["levels"] if level["k"] == 2)
        members = {frozenset(s["members"]) for s in two["senses"]}
        assert frozenset({"mcl", "immunocytoma", "angioimmunoblastic",
                          "waldenstrom", "burkitt", "waldenstroms"}) in members

    def test_gram_parent_override(self, capsys):
        fixture = FIXTURES / "mantle_gram.txt"
        assert main(["disambig", "--gram", str(fixture), "--parent", "mcl"]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["term"] == "mcl"

    def test_gram_with_unknown_parent_exits_two(self, capsys):
        fixture = FIXTURES / "mantle_gram.txt"
        assert main(["disambig", "--gram", str(fixture), "--parent", "bogus"]) == 2
        assert "not a row label" in capsys.readouterr().err


class TestUpdate:
    def test_grows_an_existing_index(self, workdir, tmp_path, capsys):
        idx = tmp_path / "upd.risp"
        main(["build", "-i", str(workdir / "corpus.txt"), "-o", str(idx), *BUILD_FLAGS])
        more = tmp_path / "more.txt"
        more.write_text("pears pears pears join the market apples\n" * 3, encoding="utf-8")
        capsys.readouterr()
        code = main(["update", "-i", str(more), "--index", str(idx)])
        captured = capsys.readouterr()
        assert code == 0
        assert "updated" in captured.out
        assert not (tmp_path / "upd.risp.lock").exists()
        assert main(["neighbors", "pears", "--index", str(idx), "-k", "1"]) == 0

    def test_reports_new_changed_and_total_terms(self, tmp_path, capsys):
        corpus = tmp_path / "base.txt"
        corpus.write_text("alpha beta gamma\nbeta gamma delta\n", encoding="utf-8")
        more = tmp_path / "more.txt"
        more.write_text("alpha beta epsilon\n", encoding="utf-8")
        idx = tmp_path / "small.risp"
        assert main(["build", "-i", str(corpus), "-o", str(idx),
                     "--dim", "16", "--min-count", "1", "--max-doc-freq", "1.0"]) == 0
        capsys.readouterr()
        assert main(["update", "-i", str(more), "--index", str(idx)]) == 0
        assert "+1 new terms, 2 changed, 5 total" in capsys.readouterr().out

    def test_every_setting_is_a_flag_and_a_config_key(self, tmp_path):
        assert set(CONFLICTS) == {s.key for s in _SETTINGS} | {"config"}
        parser = _build_parser()
        conf = tmp_path / "conf.txt"
        for s in _SETTINGS:
            assert CONFLICTS[s.key][0] == s.flag
            from_flag = _given_settings(parser.parse_args(["update", "-i", "c", *CONFLICTS[s.key]]))
            assert list(from_flag) == [s.key]
            conf.write_text(f"{s.key}={from_flag[s.key]}\n", encoding="utf-8")
            from_file = _given_settings(parser.parse_args(["update", "-i", "c", "--config", str(conf)]))
            assert from_file == from_flag

    @pytest.mark.parametrize("key", [*(s.key for s in _SETTINGS), "config"])
    def test_conflicting_settings_are_refused(self, workdir, tmp_path, capsys, key):
        idx = tmp_path / "conf.risp"
        main(["build", "-i", str(workdir / "corpus.txt"), "-o", str(idx), *BUILD_FLAGS])
        (tmp_path / "stoplist.txt").write_text("the\n", encoding="utf-8")
        (tmp_path / "conf.txt").write_text("dim=32\n", encoding="utf-8")
        before = idx.read_bytes()
        capsys.readouterr()
        args = [str(tmp_path / a) if a.endswith(".txt") else a for a in CONFLICTS[key]]
        code = main(["update", "-i", str(workdir / "corpus.txt"), "--index", str(idx), *args])
        assert code == 1
        assert "conflicts" in capsys.readouterr().err
        assert idx.read_bytes() == before

    def test_stoplist_conflicts_print_the_same_under_any_hash_seed(self, workdir, tmp_path):
        idx = tmp_path / "stop.risp"
        main(["build", "-i", str(workdir / "corpus.txt"), "-o", str(idx), *BUILD_FLAGS])
        stoplist = tmp_path / "stoplist.txt"
        stoplist.write_text("the of and to in w1 w2 a\n", encoding="utf-8")
        package_root = str(Path(risp.__file__).resolve().parent.parent)

        def stderr_under(hash_seed):
            env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
                   "PYTHONPATH": os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run(
                [sys.executable, "-m", "risp.cli", "update", "-i", str(workdir / "corpus.txt"),
                 "--index", str(idx), "--stoplist", str(stoplist)],
                env=env, capture_output=True, text=True, check=False,
            )
            assert done.returncode == 1
            return done.stderr

        first = stderr_under(1)
        assert "['a', 'and', 'in', 'of', 'the', 'to', 'w1', 'w2']" in first
        assert stderr_under(2) == first

    def test_a_ternary_k_of_0_is_accepted_by_the_update(self, workdir, tmp_path):
        idx = tmp_path / "k0.risp"
        corpus = str(workdir / "corpus.txt")
        assert main(["build", "-i", corpus, "-o", str(idx), *BUILD_FLAGS, "--ternary-k", "0"]) == 0
        assert main(["update", "-i", corpus, "--index", str(idx), "--ternary-k", "0"]) == 0

    def test_settings_equal_to_the_index_are_accepted(self, workdir, tmp_path):
        idx = tmp_path / "same.risp"
        main(["build", "-i", str(workdir / "corpus.txt"), "-o", str(idx), *BUILD_FLAGS])
        conf = tmp_path / "conf.txt"
        conf.write_text("dim=64\nlowercase=true\nwindow=11\n", encoding="utf-8")
        code = main(["update", "-i", str(workdir / "corpus.txt"), "--index", str(idx),
                     "--config", str(conf), *BUILD_FLAGS])
        assert code == 0

    def test_held_lock_blocks_the_update(self, workdir, tmp_path, capsys):
        idx = tmp_path / "lock.risp"
        main(["build", "-i", str(workdir / "corpus.txt"), "-o", str(idx), *BUILD_FLAGS])
        lock = tmp_path / "lock.risp.lock"
        lock.write_text("12345\n", encoding="utf-8")
        capsys.readouterr()
        code = main(["update", "-i", str(workdir / "corpus.txt"), "--index", str(idx)])
        assert code == 1
        assert "another writer" in capsys.readouterr().err
        assert lock.exists()  # a held lock is never stolen


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "risp" in capsys.readouterr().out

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_missing_index_file_reports_io_error(self, tmp_path, capsys):
        code = main(["stats", "--index", str(tmp_path / "absent.risp")])
        assert code == 1
        assert "error" in capsys.readouterr().err
