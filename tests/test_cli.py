import argparse
import errno
import hashlib
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import khecke
from khecke import weyl
from khecke.cache import ResultCache
from khecke.cartan import RootDatum
from khecke.cli import _cached, main
from khecke.localization import PsiEngine
from khecke.symfunc import SymFunc


KEY = {"command": "g", "n": 3, "partition": [2, 1], "basis": "h"}


def no_home():
    raise RuntimeError("Could not determine home directory.")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_psi_worked_example(self, capsys):
        code, out, _ = run(capsys, "psi", "--type", "A2", "--v", "1", "--w", "121")
        assert code == 0
        assert out.strip() == "1 - e^(a1+a2)"

    def test_psi_algorithms_agree(self, capsys):
        outs = set()
        for algo in ("right", "left", "gw"):
            code, out, _ = run(capsys, "psi", "--type", "A2", "--v", "1",
                               "--w", "121", "--algorithm", algo)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_g_kschur_rendering(self, capsys, tmp_path):
        code, out, _ = run(capsys, "g", "--n", "3", "--partition", "2,1",
                           "--basis", "kschur", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.strip() == "s2 + s21"

    def test_g_s_rendering(self, capsys, tmp_path):
        code, out, _ = run(capsys, "g", "--n", "3", "--partition", "21",
                           "--basis", "s", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.strip() == "s2 + s21 + s3"

    def test_G_f_basis(self, capsys, tmp_path):
        code, out, _ = run(capsys, "G", "--n", "2", "--partition", "1",
                           "--max-degree", "5", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.strip() == "F1 - F11 + F111 - F1111 + F11111"

    def test_kappa(self, capsys):
        code, out, _ = run(capsys, "kappa", "--n", "3", "--i", "1")
        assert code == 0
        assert out.strip() == "T[0] + T[1] + T[2]"

    def test_json_format(self, capsys, tmp_path):
        code, out, _ = run(capsys, "g", "--n", "2", "--partition", "11",
                           "--basis", "h", "--format", "json",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        assert data["basis"] == "h"
        assert {tuple(t["partition"]): t["coeff"] for t in data["terms"]} == \
            {(1,): 1, (1, 1): 1}

    def test_k_sl2(self, capsys):
        code, out, _ = run(capsys, "k-sl2", "--r", "2")
        assert code == 0
        assert "T[10]" in out and "T[01]" in out

    @pytest.mark.parametrize("argv", [("--partition", ""), ("--partition", "-"),
                                      ("--r", "0")])
    def test_k_sl2_empty_partition(self, capsys, argv):
        code, out, err = run(capsys, "k-sl2", *argv)
        assert (code, out, err) == (0, "T[]\n", "")

    def test_psi_level_zero_on_affine_data(self, capsys):
        code, out, err = run(capsys, "psi", "--n", "3", "--v", "1", "--w", "1")
        assert (code, out.strip(), err) == (0, "1 - e^(a1)", "")
        code, out, _ = run(capsys, "psi", "--n", "3", "--v", "1", "--w", "1",
                           "--format", "json")
        datum = RootDatum.affine_sl(3)
        r1 = weyl.from_word(datum, (1,))
        assert code == 0
        assert json.loads(out) == PsiEngine(datum, "level-zero").psi_right(r1, r1).to_json()

    @pytest.mark.parametrize("algo", ["right", "left", "gw"])
    def test_psi_level_zero_algorithms(self, capsys, algo):
        code, out, _ = run(capsys, "psi", "--n", "2", "--v", "0", "--w", "010",
                           "--algorithm", algo)
        assert (code, out.strip()) == (0, "1 - e^(-2a1)")

    def test_pieri(self, capsys):
        code, out, _ = run(capsys, "pieri", "--n", "2", "--i", "1",
                           "--partition", "11")
        assert code == 0
        assert "1,1,1: 1" in out and "1,1: -1" in out

    def test_structure(self, capsys):
        code, out, _ = run(capsys, "structure", "--n", "3", "--u", "1", "--v", "1")
        assert code == 0
        assert out.strip() == "{1: -1, 1,1: 1, 2: 1}"

    def test_latex_format(self, capsys, tmp_path):
        code, out, _ = run(capsys, "g", "--n", "3", "--partition", "21",
                           "--basis", "kschur", "--format", "latex-table",
                           "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.strip() == "s_{2} + s_{21}"


class TestErrors:
    def test_malformed_partition(self, capsys):
        code, _, err = run(capsys, "g", "--n", "3", "--partition", "1,x")
        assert code == 1
        assert "malformed" in err

    def test_nonpartition(self, capsys):
        code, _, err = run(capsys, "g", "--n", "3", "--partition", "1,2")
        assert code == 1

    def test_part_bound(self, capsys):
        code, _, err = run(capsys, "g", "--n", "3", "--partition", "3")
        assert code == 1
        assert "bounded" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "g", "--n", "3", "--partition", "1", "--bogus")
        assert code == 1

    def test_missing_ksl2_argument(self, capsys):
        code, _, err = run(capsys, "k-sl2")
        assert code == 1

    @pytest.mark.parametrize("argv", [(), ("--r", "5", "--partition", "11")],
                             ids=["neither", "both"])
    def test_ksl2_needs_exactly_one_of_r_and_partition(self, capsys, argv):
        code, out, err = run(capsys, "k-sl2", *argv)
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert err == "error: k-sl2 needs exactly one of --r and --partition\n"

    @pytest.mark.parametrize("argv", [
        ("psi", "--type", "A2", "--n", "3", "--v", "1", "--w", "1"),
        ("expand-group", "--type", "A2", "--n", "3", "--word", "1"),
    ], ids=lambda argv: argv[0])
    def test_type_and_n_refused(self, capsys, argv):
        # both once ran on --type and ignored --n
        assert run(capsys, *argv) == (1, "", "error: give --type or --n, not both\n")

    def test_recursion_error_exits_1(self, capsys, monkeypatch):
        from khecke.grothendieck import GrothendieckEngine

        def too_deep(self, lam):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(GrothendieckEngine, "g_coproduct", too_deep)
        assert run(capsys, "coproduct", "--n", "3", "--partition", "1") == \
            (1, "", "error: input too deep for this computation\n")

    def test_long_partition_refused_in_one_line(self, capsys, monkeypatch):
        # the k-Schur function of 1^400 is computed (on a fresh engine); its
        # s-expansion would list the partitions of 400, which once hit the
        # recursion limit
        from khecke.grothendieck import GrothendieckEngine
        monkeypatch.setattr(GrothendieckEngine, "_instances", {})
        code, out, err = run(capsys, "kschur", "--n", "2", "--partition", "1" * 400)
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.startswith("error: 400 has ") and "partitions" in err

    def test_cross_check_failure_exits_2(self, capsys, monkeypatch):
        from khecke.grothendieck import GrothendieckEngine
        monkeypatch.setattr(GrothendieckEngine, "g_multiply", lambda self, lam, mu: {})
        code, out, err = run(capsys, "structure", "--n", "3", "--u", "1", "--v", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("verification failed: structure constant routes disagree")

    def test_ksl2_has_no_n(self, capsys):
        # k-sl2 is affine SL_2 alone; --n was once accepted and ignored
        code, out, err = run(capsys, "k-sl2", "--r", "2", "--n", "5")
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        assert "unrecognized arguments: --n 5" in err

    @pytest.mark.parametrize("argv", [("kappa", "--n", "30", "--i", "15"),
                                      ("g", "--n", "30", "--partition", "15,1")],
                             ids=lambda argv: argv[0])
    def test_kappa_too_large_refused_at_once(self, capsys, tmp_path, argv):
        # kappa_15 of affine SL_30 has C(30, 15) = 155,117,520 terms, which
        # once ran until the process was killed
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert time.perf_counter() - start < 5
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert err.startswith("error: kappa_15 of affine SL_30 has 155117520 terms")

    def test_ksl2_cutoff_too_small(self, capsys):
        code, out, err = run(capsys, "k-sl2", "--r", "3", "--cutoff", "5")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "raise the cutoff" in err


    @pytest.mark.parametrize("argv", [
        ("psi", "--type", "A2", "--v", "1", "--w", "1x2"),
        ("expand-group", "--type", "A2", "--word", "9"),
        ("kappa", "--n", "3", "--i", "3"),
        ("g", "--n", "3", "--partition", "2,3"),
        ("G", "--n", "3", "--partition", "2", "--max-degree", "1"),
        ("kschur", "--n", "3", "--partition", "3"),
        ("pieri", "--n", "3", "--i", "0", "--partition", "1"),
        ("coproduct", "--n", "3", "--partition", "3"),
        ("structure", "--n", "3", "--u", "3", "--v", "1"),
        ("k-sl2", "--r", "-1"),
        ("tables", "--which", "k", "--n", "7"),
        ("check-conjectures", "--n", "1"),
        ("gkm-check", "--mode", "big", "--type", "Q5"),
    ], ids=lambda argv: argv[0])
    def test_bad_input_one_line_no_traceback(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: ")


def tamper_golden(monkeypatch, kind, n, tamper):
    """Make ``goldens.load_golden`` hand out ``kind`` with ``tamper`` applied
    to its rank-n rows."""
    import khecke.goldens as goldens
    real = goldens.load_golden

    def tampered(which):
        data = real(which)
        if which == kind:
            tamper(data[str(n)])
        return data
    monkeypatch.setattr(goldens, "load_golden", tampered)


class TestTables:
    def test_diff_all(self, capsys):
        code, out, _ = run(capsys, "tables", "--diff")
        assert code == 0
        assert "MISMATCH" not in out

    def test_diff_single(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "k", "--n", "3", "--diff")
        assert code == 0
        assert "tables k n=3: OK" in out

    def test_regenerate_prints(self, capsys):
        code, out, _ = run(capsys, "tables", "--which", "bijection", "--n", "2")
        assert code == 0
        assert "11111" in out

    @pytest.mark.parametrize("fn", ["generate", "diff_table"])
    def test_unknown_kind_names_the_known_ones(self, fn):
        import khecke.goldens as goldens
        with pytest.raises(ValueError, match="unknown table kind 'bogus'; "
                           "known kinds: bijection, k, g, coproduct, G"):
            getattr(goldens, fn)("bogus", 2)

    @pytest.mark.parametrize("kind, label, tamper", [
        ("bijection", "21", lambda rows: rows.update({"21": rows["111"]})),
        ("k", "0", lambda rows: rows["0"].update({"1": 7})),
        ("g", "21", lambda rows: rows["21"]["kschur"].update({"21": 2})),
        ("coproduct", "2", lambda rows: rows["2"].pop()),
        ("G", "11", lambda rows: rows["11"]["F"].update({"1111": 4})),
    ], ids=["bijection", "k", "g", "coproduct", "G"])
    def test_corrupted_golden_detected(self, capsys, monkeypatch, kind, label, tamper):
        # one entry of one n = 3 row changes; the diff names that row
        tamper_golden(monkeypatch, kind, 3, tamper)
        code, out, _ = run(capsys, "tables", "--which", kind, "--n", "3", "--diff")
        assert code == 2
        assert f"tables {kind} n=3: MISMATCH" in out
        assert f"{kind} n=3 row {label}: " in out

    def test_commuted_k_term_matches(self, capsys, monkeypatch):
        # 0 and 2 commute in A3~, so 02 and 20 are one element
        def tamper(rows):
            rows["10"]["20"] = rows["10"].pop("02")
        tamper_golden(monkeypatch, "k", 4, tamper)
        assert run(capsys, "tables", "--which", "k", "--n", "4", "--diff") == \
            (0, "tables k n=4: OK\n", "")

    def test_commuted_bijection_word_matches(self, capsys, monkeypatch):
        # 1 and 3 commute in A3~, so 130 and 310 are one element
        def tamper(rows):
            assert rows["21"] == "130"
            rows["21"] = "310"
        tamper_golden(monkeypatch, "bijection", 4, tamper)
        assert run(capsys, "tables", "--which", "bijection", "--n", "4", "--diff") == \
            (0, "tables bijection n=4: OK\n", "")

    def test_duplicate_element_in_k_row(self, capsys, monkeypatch):
        # 02 and 20 name one element: a row holding both is malformed
        def tamper(rows):
            rows["10"]["20"] = rows["10"]["02"]
        tamper_golden(monkeypatch, "k", 4, tamper)
        assert run(capsys, "tables", "--which", "k", "--n", "4", "--diff") == \
            (1, "", "error: duplicate element 20 in table row\n")


class TestConjecturesAndCache:
    def test_cold_warm_identical(self, capsys, tmp_path):
        args = ("check-conjectures", "--n", "2", "--max-len", "4",
                "--format", "json", "--cache-dir", str(tmp_path))
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["passed"] is True

    def test_cross_degree_keys_the_cache(self, capsys, tmp_path):
        def scan(degree, cache_dir):
            code, out, _ = run(capsys, "check-conjectures", "--n", "2",
                               "--max-len", "4", "--cross", "--max-degree",
                               str(degree), "--format", "json",
                               "--cache-dir", str(cache_dir))
            assert code == 0
            return out
        shared = tmp_path / "shared"
        scan(2, shared)
        assert scan(4, shared) == scan(4, tmp_path / "fresh")

    @pytest.mark.parametrize("first, second", [
        (("--max-degree", "2"), ("--max-degree", "4")),
        (("--cross", "--max-degree", "9"), ("--cross",)),
    ], ids=["no-cross", "cross-degree-above-max-len"])
    def test_one_record_per_scan(self, capsys, tmp_path, first, second):
        # a degree bound the scan does not read keys no second record
        def scan(extra, cache_dir):
            return run(capsys, "check-conjectures", "--n", "2", "--max-len", "4",
                       *extra, "--format", "json", "--cache-dir", str(cache_dir))
        want = [scan(extra, tmp_path / f"fresh{i}")
                for i, extra in enumerate((first, second))]
        assert want[0] == want[1] and want[0][0] == 0
        shared = tmp_path / "shared"
        assert [scan(extra, shared) for extra in (first, second)] == want
        assert len(list(shared.rglob("*.json"))) == 1

    def test_text_report_cold_and_warm(self, capsys, tmp_path):
        want = ("conjecture scan n=2 max_length=4: PASS [72 values checked]\n"
                "conjecture scan n=2 max_length=2 cross_n=3: PASS [4 values checked]\n")
        for _ in ("cold", "warm"):
            code, out, _ = run(capsys, "check-conjectures", "--n", "2", "--max-len",
                               "4", "--cross", "--max-degree", "2",
                               "--cache-dir", str(tmp_path))
            assert code == 0
            assert out == want

    def test_cross_degree_zero_honoured(self, capsys, tmp_path):
        code, out, _ = run(capsys, "check-conjectures", "--n", "2", "--max-len",
                           "4", "--cross", "--max-degree", "0", "--format",
                           "json", "--cache-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["cross"]["max_degree"] == 0

    def test_cache_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"basis": "h", "n": 3,
                   "terms": [{"partition": [2, 1], "coeff": 1}]}
        cache.store(KEY, payload)
        assert cache.load(KEY) == payload

    def test_cache_roundtrip_symfunc(self, tmp_path, e3):
        from khecke.symfunc import SymFunc
        cache = ResultCache(tmp_path)
        g = e3.g_of((2, 1))
        cache.store(KEY, g.to_json())
        assert SymFunc.from_json(cache.load(KEY)) == g

    def test_cache_corruption_recovers(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.store(KEY, {"x": 1})
        path = cache.path(KEY)
        path.write_text(path.read_text().replace('"x": 1', '"x": 2'), "utf-8")
        assert cache.load(KEY) is None
        err = capsys.readouterr().err
        assert "corrupt" in err
        # recomputed value overwrites
        cache.store(KEY, {"x": 3})
        assert cache.load(KEY) == {"x": 3}

    def test_record_under_another_key_is_a_miss(self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        other = dict(KEY, basis="m")
        path = cache.store(KEY, {"x": 1})
        cache.path(other).write_text(path.read_text("utf-8"), "utf-8")
        with caplog.at_level(logging.WARNING, logger="khecke"):
            assert cache.load(other) is None
        assert cache.load(KEY) == {"x": 1}
        assert not caplog.records

    def test_concurrent_writers_of_one_key(self, tmp_path, child_env):
        # writers of one key must not share a temporary file: one writer's
        # rename could move another's half-written record into place
        src = Path(khecke.__file__).resolve().parents[1]
        script = ("import sys\n"
                  "from khecke.cache import ResultCache\n"
                  "cache = ResultCache(sys.argv[1])\n"
                  f"key, payload = {KEY!r}, list(range(3000))\n"
                  "print(sum(cache.store(key, payload) is None\n"
                  "          or cache.load(key) != payload for _ in range(400)))\n")
        procs = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path)],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, env=child_env(src))
                 for _ in range(3)]
        results = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0, 0]
        assert results == [("0\n", "")] * 3
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == \
            [ResultCache(tmp_path).path(KEY).name]

    @pytest.mark.parametrize("corrupt", [
        lambda text: text.replace('"x": 1', '"x": 2'),  # checksum mismatch
        lambda text: text[:-5],                         # malformed JSON
    ], ids=["checksum", "json"])
    def test_corrupt_entry_logs_one_warning(self, tmp_path, caplog, corrupt):
        cache = ResultCache(tmp_path)
        path = cache.store(KEY, {"x": 1})
        path.write_text(corrupt(path.read_text("utf-8")), "utf-8")
        with caplog.at_level(logging.WARNING, logger="khecke"):
            assert cache.load(KEY) is None
        records = [r for r in caplog.records if r.name == "khecke"]
        assert [r.levelno for r in records] == [logging.WARNING]
        assert "corrupt cache entry" in records[0].getMessage()

    def test_cli_recomputes_corrupt_entry(self, capsys, tmp_path, caplog):
        args = ("g", "--n", "3", "--partition", "221", "--basis", "s",
                "--cache-dir", str(tmp_path))
        code, cold, _ = run(capsys, *args)
        assert code == 0
        entries = {p: p.read_text("utf-8") for p in tmp_path.rglob("*.json")}
        assert entries
        for p, text in entries.items():
            p.write_text(text.replace('"checksum": "', '"checksum": "0'), "utf-8")
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert out == cold
        assert {p: p.read_text("utf-8") for p in entries} == entries
        assert sum(r.levelno == logging.WARNING for r in caplog.records) == len(entries)

    def test_other_version_is_a_miss(self, tmp_path, monkeypatch):
        import khecke.cache
        monkeypatch.setattr(khecke.cache, "__version__", "0.0.0")
        old = ResultCache(tmp_path)
        old.store(KEY, {"x": 1})
        monkeypatch.undo()
        cache = ResultCache(tmp_path)
        assert cache.load(KEY) is None
        assert f"v{khecke.__version__}-schema" in str(cache.path(KEY))

    @pytest.mark.parametrize("argv", [
        ("g", "--n", "3", "--partition", "21"),
        ("check-conjectures", "--n", "2", "--max-len", "2"),
    ], ids=["g", "check-conjectures"])
    def test_unwritable_cache_warns_once(self, tmp_path, argv, child_env):
        # the cache directory lies below a regular file, so no entry can be written
        (tmp_path / "file").write_text("", "utf-8")
        src = Path(khecke.__file__).resolve().parents[1]

        def cli(cache_dir):
            return subprocess.run([sys.executable, "-m", "khecke.cli", *argv,
                                   "--cache-dir", str(cache_dir)], capture_output=True,
                                  text=True, env=child_env(src))
        good = cli(tmp_path / "writable")
        bad = cli(tmp_path / "file" / "cache")
        assert bad.returncode == good.returncode == 0
        assert bad.stdout == good.stdout
        assert good.stderr == ""
        assert len(bad.stderr.splitlines()) == 1
        assert "cannot write cache entry" in bad.stderr
        assert "Traceback" not in bad.stderr

    def test_xdg_cache_home_skips_home_lookup(self, tmp_path, monkeypatch):
        monkeypatch.delenv("KHECKE_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(Path, "home", no_home)
        assert ResultCache().root == tmp_path / "khecke"

    @pytest.mark.parametrize("argv", [
        ("g", "--n", "3", "--partition", "21"),
        ("G", "--n", "2", "--partition", "11", "--max-degree", "3"),
        ("check-conjectures", "--n", "2", "--max-len", "2"),
    ], ids=["g", "G", "check-conjectures"])
    def test_no_cache_location_warns_once(self, capsys, caplog, tmp_path,
                                          monkeypatch, argv):
        code, want, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0
        monkeypatch.delenv("KHECKE_CACHE", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setattr(Path, "home", no_home)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="khecke"):
            code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == want
        records = [r for r in caplog.records if r.name == "khecke"]
        assert [r.levelno for r in records] == [logging.WARNING]
        assert "no cache directory" in records[0].getMessage()

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, caplog, monkeypatch):
        def full(self, target):
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(Path, "replace", full)
        with caplog.at_level(logging.WARNING, logger="khecke"):
            assert ResultCache(tmp_path).store(KEY, {"x": 1}) is None
        assert list(tmp_path.rglob("*.tmp")) == []
        records = [r for r in caplog.records if r.name == "khecke"]
        assert [r.levelno for r in records] == [logging.WARNING]
        assert "No space left on device" in records[0].getMessage()

    def test_import_leaves_hashlib_unloaded(self, child_env):
        src = Path(khecke.__file__).resolve().parents[1]
        probe = "import sys, khecke.cli; print('hashlib' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env=child_env(src))
        assert out.stdout.strip() == "False"

    def test_import_leaves_dataclasses_and_inspect_unloaded(self, child_env):
        # dataclasses pulls in inspect, ast, dis and tokenize, which would
        # add to the start-up of every CLI process
        src = Path(khecke.__file__).resolve().parents[1]
        probe = ("import sys, khecke.cli; "
                 "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, env=child_env(src))
        assert out.stdout.strip() == "False False"

    def test_import_leaves_importlib_resources_unloaded(self, child_env):
        # only reading a golden file needs it; -S keeps a site-packages .pth
        # file from importing it before khecke does
        src = Path(khecke.__file__).resolve().parents[1]
        probe = "import sys, khecke.cli; print('importlib.resources' in sys.modules)"
        out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                             text=True, check=True, env=child_env(src))
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("lines_read, flags", [(0, ()), (1, ("-u",))],
                             ids=["buffered-unread", "unbuffered-one-line"])
    def test_closed_stdout_is_quiet(self, lines_read, flags, child_env):
        # the reader closes the pipe early, as ``| head -1`` does
        src = Path(khecke.__file__).resolve().parents[1]
        argv = [sys.executable, *flags, "-m", "khecke.cli",
                "tables", "--which", "all", "--n", "3", "--diff"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=child_env(src))
        head = [proc.stdout.readline() for _ in range(lines_read)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait()
        # after one line the rest may already sit in the pipe: then no error
        assert code == 1 or (lines_read and code == 0)
        assert "Traceback" not in err and "Exception" not in err, err
        assert head == ["tables bijection n=3: OK\n"] * lines_read

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text("utf-8"))["project"]
        assert khecke.__version__ == project["version"]

    def test_g_command_cached_identical(self, capsys, tmp_path):
        args = ("g", "--n", "3", "--partition", "221", "--basis", "s",
                "--cache-dir", str(tmp_path))
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert any(tmp_path.rglob("*.json"))

    def test_symfunc_labels_do_not_collide(self, tmp_path):
        # (11, 1) and (1, 1, 1) both read "111" as digit strings
        args = argparse.Namespace(command="G", cache_dir=str(tmp_path), n=12,
                                  max_degree=12, basis="m")
        stored = {lam: SymFunc("m", {lam: i + 1}, 12).to_json()
                  for i, lam in enumerate([(1, 1, 1), (11, 1)])}
        for lam, f in stored.items():
            assert _cached(args, lambda f=f: f, partition=lam) == f
        for lam, f in stored.items():
            assert _cached(args, lambda: None, partition=lam) == f

    def test_partition_spellings_share_one_record(self, capsys, tmp_path):
        outs = {run(capsys, "g", "--n", "3", "--partition", text,
                    "--cache-dir", str(tmp_path)) for text in ("21", "2,1")}
        assert outs == {(0, "s2 + s21 + s3\n", "")}
        assert len(list(tmp_path.rglob("*.json"))) == 1

    def test_one_record_per_query(self, capsys, tmp_path):
        # queries that differ in one argument that changes the result; each
        # is answered from its own record, cold and warm, as from an empty cache
        grid = [("g", "--n", "3", "--partition", "21", "--basis", basis)
                for basis in ("m", "h", "s", "kschur")]
        grid += [("G", "--n", "2", "--partition", "1", *extra)
                 for extra in ((), ("--max-degree", "4"), ("--basis", "m"))]
        grid += [("check-conjectures", "--n", "2", "--max-len", "3", *extra)
                 for extra in ((), ("--cross",), ("--cross", "--max-degree", "1"))]
        shared = ("--format", "json", "--cache-dir", str(tmp_path / "shared"))
        fresh = [run(capsys, *argv, "--format", "json",
                     "--cache-dir", str(tmp_path / f"fresh{i}"))
                 for i, argv in enumerate(grid)]
        assert len({out for _, out, _ in fresh}) == len(grid)
        for _ in ("cold", "warm"):
            assert [run(capsys, *argv, *shared) for argv in grid] == fresh
        records = [json.loads(p.read_text("utf-8"))["key"]
                   for p in (tmp_path / "shared").rglob("*.json")]
        assert sorted(key["command"] for key in records) == sorted(q[0] for q in grid)

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KHECKE_CACHE", str(tmp_path / "envcache"))
        from khecke.cache import default_cache_dir
        assert str(default_cache_dir()) == str(tmp_path / "envcache")


class TestChildEnv:
    # the env of the tests' child interpreters: a run that writes no
    # bytecode must leave no __pycache__ in the checkout through them either
    def test_bare_without_the_flag(self, child_env, monkeypatch):
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        assert child_env("a", Path("b")) == {"PYTHONPATH": f"a{os.pathsep}b"}

    def test_passes_the_flag_through(self, child_env, monkeypatch):
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        monkeypatch.setenv("KHECKE_UNRELATED", "x")
        assert child_env("a") == {"PYTHONPATH": "a", "PYTHONDONTWRITEBYTECODE": "1"}

    @pytest.mark.parametrize("flag", [None, "1"], ids=["unset", "set"])
    def test_child_bytecode_follows_the_flag(self, child_env, monkeypatch,
                                             tmp_path, flag):
        if flag is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", flag)
        (tmp_path / "probe_module.py").write_text("X = 1\n", "utf-8")
        subprocess.run([sys.executable, "-S", "-c", "import probe_module"],
                       check=True, env=child_env(tmp_path))
        assert (tmp_path / "__pycache__").exists() == (flag is None)


class TestGkmCheck:
    def test_small_mode(self, capsys):
        code, out, _ = run(capsys, "gkm-check", "--n", "2", "--mode", "small",
                           "--max-len", "3", "--max-d", "2")
        assert code == 0
        assert "PASS" in out

    def test_big_mode(self, capsys):
        code, out, _ = run(capsys, "gkm-check", "--mode", "big", "--type", "A2",
                           "--max-len", "3")
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("typ,checks", [("C2~", 10192), ("G2~", 8125)])
    def test_big_mode_named_affine_gcm(self, capsys, typ, checks):
        # 28 and 25 elements of length <= 4, 13 positive roots among their
        # inversions: checks = elements^2 * roots
        code, out, err = run(capsys, "gkm-check", "--mode", "big", "--type", typ,
                             "--max-len", "4")
        assert code == 0 and err == ""
        assert out == f"gkm big: PASS [{checks} checks]\n"

    def test_big_mode_golden_a2_affine(self, capsys):
        # 36 elements of length <= 4, 9 positive roots among their inversions
        code, out, err = run(capsys, "gkm-check", "--mode", "big", "--type", "A2~",
                             "--max-len", "4")
        assert code == 0 and err == ""
        assert out == "gkm big: PASS [11532 checks]\n"

    @pytest.mark.parametrize("argv", [
        ("--type", "A2", "--max-len", "2", "--max-d", "7"),
        ("--type", "A2", "--max-len", "2", "--n", "9"),
        ("--type", "A2", "--max-len", "2", "--max-d", "7", "--n", "9"),
        ("--n", "2", "--max-len", "2", "--max-d", "1"),
    ])
    def test_big_mode_rejects_ignored_options(self, capsys, argv):
        # big mode once printed PASS and ignored --max-d, and --n next to --type
        code, out, err = run(capsys, "gkm-check", "--mode", "big", *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv,message", [
        (("--mode", "big", "--type", "A0", "--max-len", "3"),
         "error: unknown Cartan type 'A0'\n"),
        (("--mode", "big", "--type", "A01", "--max-len", "3"),
         "error: unknown Cartan type 'A01'\n"),
        (("--mode", "small", "--max-d", "0"), "error: --max-d must be >= 1\n"),
        (("--mode", "big", "--type", "A2", "--max-len", "0"),
         "error: --max-len must be >= 1 for --mode big: the identity alone "
         "has no root to check\n"),
        (("--mode", "big", "--type", "A2~", "--max-len", "0"),
         "error: --max-len must be >= 1 for --mode big: the identity alone "
         "has no root to check\n"),
    ], ids=["A0", "A01", "max-d-0", "big-A2-max-len-0", "big-A2~-max-len-0"])
    def test_vacuous_checks_rejected(self, capsys, argv, message):
        # each once printed PASS [0 checks]: a rank-0 datum, a second A1
        # under another name, no power of (1 - e^alpha) to test, and the
        # identity alone, which has no inversion and so no root
        code, out, err = run(capsys, "gkm-check", *argv)
        assert (code, out, err) == (1, "", message)

    def test_defaults_without_n(self, capsys):
        # no --n: affine SL_2 in both modes, and --max-d 3 in small mode
        for mode, explicit in (("big", ("--n", "2")),
                               ("small", ("--n", "2", "--max-d", "3"))):
            code, out, _ = run(capsys, "gkm-check", "--mode", mode, "--max-len", "2")
            assert code == 0
            assert run(capsys, "gkm-check", "--mode", mode, "--max-len", "2",
                       *explicit) == (0, out, "")

    def test_psi_flavor_default_and_explicit(self, capsys):
        # the default flavor is big on finite data; an explicit level-zero
        # request there is refused instead of being turned into big
        base = ("psi", "--type", "A2", "--v", "1", "--w", "121")
        assert run(capsys, *base) == run(capsys, *base, "--flavor", "big")
        code, out, err = run(capsys, *base, "--flavor", "level-zero")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        affine = ("psi", "--n", "2", "--v", "0", "--w", "010")
        assert run(capsys, *affine) == run(capsys, *affine, "--flavor", "level-zero")

    def test_small_mode_rejects_type(self, capsys):
        # small mode runs on affine SL_n from --n; --type once was ignored
        code, out, err = run(capsys, "gkm-check", "--mode", "small", "--type", "A2")
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "--type" in err

    def test_psi_level_zero_needs_finite_companion(self, capsys):
        code, out, err = run(capsys, "psi", "--type", "C2~", "--v", "0", "--w", "01")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: ")
        code, out, _ = run(capsys, "psi", "--type", "C2~", "--v", "0", "--w", "01",
                           "--flavor", "big")
        assert code == 0 and out.strip()

    def test_expand_group_needs_finite_companion(self, capsys):
        # expand-group defaults to level zero on affine data, as psi does,
        # and refuses C2~ with psi's message
        code, out, err = run(capsys, "expand-group", "--type", "C2~", "--word", "01")
        assert code == 1
        assert out == ""
        assert err == ("error: level-zero flavor needs an affine datum with a "
                       "finite companion; C2~ has none\n")
        assert run(capsys, "psi", "--type", "C2~", "--v", "0", "--w", "01")[2] == err


# The machine contract: stdout and exit code of each command, pinned by sha256
# and unchanged by refactors.  Every command gets a fresh cache directory.
STDOUT_CONTRACT = [
    ("gkm-check --mode small --n 2 --max-len 5 --max-d 3", 0,
     "c7df0a3b1b1aa4a4f03539ee4c700c243950360c7f1cbd6dc554067536571927"),
    ("gkm-check --mode small --n 3 --max-len 2 --max-d 2 --format json", 0,
     "83ba77fb46da68a3268f033e47e44dc843d4a2eb5df945485a6eb6340c3bfd0e"),
    ("gkm-check --mode big --type A2~ --max-len 3", 0,
     "362faadede08862cec8c99e0580b5202a0ddb3b666068fb9af37c6ca87e0c4ca"),
    ("gkm-check --mode big --type C2~ --max-len 3", 0,
     "09087e933e98ed40f51e3d2a138932b31a5398335b135317efe8149a3a65da6c"),
    ("gkm-check --mode big --type G2 --max-len 4", 0,
     "a650f4609f739091801e77cbcdfcadd152be2bf374e2d84797ed35cc3f29502c"),
    ("psi --type G2 --v 12 --w 2121 --algorithm left", 0,
     "57caf5d0789aea428025a58e60b223a15f162a3c2700453551dcf785544e7797"),
    ("psi --type B2 --v 1 --w 1212 --format json", 0,
     "66c692ad1c2c452e9974a95476929457f8788323548046fc02d0f3a2964862e8"),
    ("psi --n 3 --v 01 --w 0120 --flavor big --format json", 0,
     "4bf1af38860b5e0e14c7274da08dcec8944edd24d3deb53101a77b316ddcfbc5"),
    ("expand-group --n 3 --word 0120", 0,
     "1cbfe4394f85fbd9a7f9d24b4d08610f1caed626d65148f9c91c711f9893bd08"),
    ("expand-group --type G2 --word 1212 --format json", 0,
     "b8e5fc7e8b73b727f22f03621cfc35b872e78fdc33d09f79c96d1909026bd040"),
    ("k-sl2 --r 3", 0,
     "975bdf2256c37b1d3faef16ebe2f43a6d2bb11854bc239f545f582257ea97306"),
    ("k-sl2 --r 5 --format json", 0,
     "b1efe9fc0cafe0be7d6342e86f5878089c8218f5e2859e03ae44e9aad8600978"),
    ("G --n 3 --partition 21 --max-degree 6", 0,
     "e42efa852cf8a28a5b956b801327b1b4a303940926443df8a651339d3ebfbb53"),
    ("G --n 4 --partition 1 --max-degree 5 --basis F --format json", 0,
     "3c769745a8dd597def0172ea243545575475f3a623273d6a5d02385a4ba60f55"),
    ("kschur --n 4 --partition 321 --basis m", 0,
     "d30d3e7fa8bc26b369f6e1d2d984c6f9f6bfe3b7f8254d7281de0c45db22880e"),
    ("check-conjectures --n 4 --max-len 6 --cross --format json", 0,
     "ab0a8eddac1d00aeddc8fa32594eedb70e6be0031b69da41b865ba3cc96f50c7"),
    ("tables --diff", 0,
     "83f1dff2507e1437490e4fdcd84818d04eaa0a5339f2240cd202c059a23fcdc7"),
    ("tables --format json", 0,
     "8a45e12a5810834cb9930a8a7a7ed1214cf64fa6554a70a09f4ed3ab0cf5cb91"),
    ("structure --n 4 --u 21 --v 2", 0,
     "bbcf6222c63d15457ffdf28b921141afa3b20ab6d7538fad39dc9d034df49266"),
    ("coproduct --n 4 --partition 321", 0,
     "92b16a754a8d93a5da0fc963a2ce5317823e718ec5045fb946b3e5f87e1e586a"),
    ("pieri --n 3 --i 2 --partition 21", 0,
     "cd75960b7862fd2b4f2ddace154442b74f2dcd7797cd1c319b24c2039443914c"),
    ("kappa --n 4 --i 2", 0,
     "021059663d3527b1717ddd30e67b964ad2aae76aae928ae9f1db865154a10fac"),
    ("check-conjectures --n 5 --max-len 7 --format json", 0,
     "cf47ec388820483e8a32d2b0eae894916809461ef68f2289b2557853ae9d4927"),
    ("G --n 4 --partition 321 --max-degree 8 --basis F", 0,
     "26b9970672cb92afb0bf1db21a22ea1b478f09dfb01f8ae590900dce4632db6c"),
    ("coproduct --n 5 --partition 4321 --format json", 0,
     "89747b42dcc2a21931604dedf975de27ccb1bad80acbd14edfb653167c1b528b"),
    ("coproduct --n 2 --partition 1,1,1,1,1,1,1,1 --format latex-table", 0,
     "e015ca69777a57e0ff91416ca43f127fd09ca59958a523c8e6d3c4f171975b02"),
    ("psi --type A2 --v 1 --w 121 --format json", 0,
     "43ef40df71ef55f7ded208d3001981fd6526515170bd7708482b662be3beff6e"),
    ("psi --n 3 --v 0 --w 010 --format json", 0,
     "c3d877833cf7306efb4e62ce37ace54fd111849337a19724e6bb5cbc985d6595"),
    ("gkm-check --mode big --type G2~ --max-len 3", 0,
     "cf9313edc7ded20028a29bb3e15d7fdbb6f001c8abcea7b3ccbeb5cec0ff27d0"),
    ("gkm-check --mode big --n 4 --max-len 3", 0,
     "c648072514bdb5e079e6398dbf08e5db224d079f527cf1bdf901d7e3fccaac11"),
    ("psi --n 3 --v 01 --w 012010 --algorithm gw --format json", 0,
     "3688be993e9304bfb359cc0de66ea1a5d02f81ff49e5fb3f5a2b760a0d22aa9f"),
    ("psi --type G2 --v 12 --w 212121 --algorithm gw", 0,
     "e026af8487bc4005f95d4ff0b116d7b3c550f05eb9c51cb60bbb70b5532c4560"),
    ("structure --n 5 --u 32 --v 211", 0,
     "06c3ec04ed3cc92e99928df0214a60aab7d8251cfbfad003934dfc261a3132b1"),
    ("pieri --n 5 --i 3 --partition 431", 0,
     "1647fe355f08af5ece02d31a65765e7ab733d6f1408b8d7df13b778be3bbc17c"),
    ("kappa --n 5 --i 3 --format json", 0,
     "a980277e13fa59f0fedfb508db8a4f154c6a9793e6ebb9fbc398f0c0127f208d"),
    ("expand-group --type B2 --word 2121 --format latex-table", 0,
     "365e7a4fe1f4ed05ac44c8a467635b30eb245b5dfef2b04b001af2ceb14fd244"),
    ("psi --n 3 --v 01 --w 0120 --algorithm left", 0,
     "874d9c70cb91c0c83dddb0af5fcbd6be1461d86518858c3b232542852f039703"),
    ("psi --n 3 --v 01 --w 0120 --flavor big --algorithm left --format json", 0,
     "4bf1af38860b5e0e14c7274da08dcec8944edd24d3deb53101a77b316ddcfbc5"),
    ("gkm-check --mode big --type C2~ --max-len 4", 0,
     "3f17dd6136789bf12736c4fb480f2705e2fb7f05f0d12788a8b8aa3275535f94"),
]


@pytest.mark.parametrize("command, code, digest", STDOUT_CONTRACT,
                         ids=[c for c, _, _ in STDOUT_CONTRACT])
def test_stdout_contract(capsys, tmp_path, command, code, digest):
    got, out, _ = run(capsys, *command.split(), "--cache-dir", str(tmp_path))
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
