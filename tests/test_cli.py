"""End-to-end tests of the command line interface: pinned outputs, exit
codes, formats, cache behavior, and byte determinism."""

import contextlib
import fcntl
import gc
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from planting import garble, tamper
from tiltc.cli import main
from tiltc.coxeter import CoxeterSystem
from tiltc.hecke import SLOT, HeckeContext, PolyStore, _pack
from tiltc.laurent import LaurentPoly

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def no_ambient_cache(monkeypatch):
    monkeypatch.delenv("TILTC_CACHE", raising=False)


def run(capsys, *args):
    rc = main(list(args))
    out, err = capsys.readouterr()
    return rc, out, err


class TestKl:
    def test_pinned_single_polynomial(self, capsys):
        rc, out, err = run(capsys, "kl", "--type", "A3", "--x", "2", "--y", "2 1 3 2")
        assert rc == 0 and err == ""
        assert out == "v + v^3\n"

    def test_full_column_text(self, capsys):
        rc, out, _ = run(capsys, "kl", "--type", "A2", "--y", "1 2 1")
        assert rc == 0
        assert out.splitlines() == [
            "e\t1 2 1\tv^3",
            "1\t1 2 1\tv^2",
            "2\t1 2 1\tv^2",
            "1 2\t1 2 1\tv",
            "2 1\t1 2 1\tv",
            "1 2 1\t1 2 1\t1",
        ]

    def test_inverse_column(self, capsys):
        rc, out, _ = run(
            capsys, "kl", "--type", "A2", "--x", "1 2 1", "--inverse", "--format", "tsv"
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "1 2 1\te\tv^3"
        assert lines[-1] == "1 2 1\t1 2 1\t1"
        assert len(lines) == 6

    def test_parabolic_antispherical(self, capsys):
        rc, out, _ = run(
            capsys, "kl", "--type", "affA1",
            "--parabolic", "1", "--flavor", "antispherical", "--y", "0 1 0",
        )
        assert rc == 0
        assert out.splitlines() == ["0 1\t0 1 0\tv", "0 1 0\t0 1 0\t1"]

    def test_json_format(self, capsys):
        rc, out, _ = run(
            capsys, "kl", "--type", "A1", "--x", "e", "--y", "1", "--format", "json"
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["system"] == "A1"
        assert obj["family"] == "h"
        assert obj["records"] == [{"x": "", "y": "1", "poly": {"1": 1}}]

    def test_zero_polynomial_when_not_below(self, capsys):
        rc, out, _ = run(capsys, "kl", "--type", "A2", "--x", "1 2", "--y", "1")
        assert rc == 0
        assert out == "0\n"

    def test_repeated_y_concatenates_single_runs(self, capsys):
        rc, both, _ = run(capsys, "kl", "--type", "A2", "--y", "1 2", "--y", "2 1")
        rc1, first, _ = run(capsys, "kl", "--type", "A2", "--y", "1 2")
        rc2, second, _ = run(capsys, "kl", "--type", "A2", "--y", "2 1")
        assert rc == rc1 == rc2 == 0
        assert both == first + second

    def test_usage_errors(self, capsys):
        rc, _, err = run(capsys, "kl", "--type", "A2")
        assert rc == 1 and err.startswith("error: usage:")
        rc, _, err = run(capsys, "kl", "--type", "A2", "--parabolic", "1", "--y", "1")
        assert rc == 1 and "--flavor" in err
        rc, _, err = run(capsys, "kl", "--type", "A2", "--y", "1", "--max-length", "3")
        assert rc == 1 and "no such option" in err.lower()

    def test_invalid_input(self, capsys):
        rc, _, err = run(capsys, "kl", "--type", "Q9", "--y", "1")
        assert rc == 2 and err.startswith("error: invalid-input:")
        rc, _, err = run(capsys, "kl", "--type", "A2", "--y", "7")
        assert rc == 2


# taken before the positive-level simple table enumerated its index set once
# per table
KM_POS_AFFA2_SIMPLE = """\
1\t1
0 1\tv^-1 + v
2 1\tv^-1 + v
0 1 0\t1
0 2 1\tv^-2 + 2 + v^2
1 2 1\t1
2 0 1\tv^-2 + 2 + v^2
0 1 2 1\tv^-1 + v
0 2 0 1\tv^-3 + 2*v^-1 + 2*v + v^3
1 0 2 1\t2*v^-1 + 2*v
1 2 0 1\t2*v^-1 + 2*v
2 0 1 0\tv^-1 + v
0 1 0 2 1\tv^-2 + 2 + v^2
0 1 2 0 1\t2*v^-2 + 4 + 2*v^2
0 2 0 1 0\tv^-2 + 2 + v^2
0 2 0 1 2\tv^-2 + 2 + v^2
1 0 2 0 1\t2*v^-2 + 4 + 2*v^2
1 2 0 1 0\tv^-2 + 2 + v^2
2 1 0 2 1\t2*v^-2 + 4 + 2*v^2
0 1 0 2 0 1\tv^-3 + 4*v^-1 + 4*v + v^3
0 1 2 0 1 0\tv^-3 + 3*v^-1 + 3*v + v^3
0 2 1 0 2 1\tv^-3 + 4*v^-1 + 4*v + v^3
1 0 2 0 1 0\t3*v^-1 + 3*v
1 0 2 0 1 2\t3*v^-1 + 3*v
1 2 1 0 2 1\tv^-3 + 4*v^-1 + 4*v + v^3
2 0 1 0 2 1\tv^-3 + 3*v^-1 + 3*v + v^3
2 0 1 2 0 1\tv^-3 + 4*v^-1 + 4*v + v^3
# dims\tnabla=3\tdelta=3
"""
KM_POS_AFFA2_LITERAL = """\
1\t4*v^-4 + 7*v^-3 + 9*v^-2 + 4*v^-1 + 1
0 1\t4*v^-3 + 7*v^-2 + 9*v^-1 + 4 + v
2 1\t4*v^-3 + 7*v^-2 + 9*v^-1 + 4 + v
0 2 1\t4*v^-2 + 7*v^-1 + 9 + 4*v + v^2
2 0 1\t4*v^-2 + 7*v^-1 + 9 + 4*v + v^2
0 2 0 1\t4*v^-1 + 7 + 9*v + 4*v^2 + v^3
0 1 2 0 1\t4*v^-2 + 7*v^-1 + 9 + 4*v + v^2
0 2 0 1 0\t4*v^-2 + 7*v^-1 + 9 + 4*v + v^2
0 2 0 1 2\t4*v^-2 + 7*v^-1 + 9 + 4*v + v^2
2 1 0 2 1\t4*v^-2 + 7*v^-1 + 9 + 4*v + v^2
0 1 2 0 1 0\t4*v^-1 + 7 + 9*v + 4*v^2 + v^3
0 2 1 0 2 1\t4*v^-1 + 7 + 9*v + 4*v^2 + v^3
2 0 1 0 2 1\t4*v^-1 + 7 + 9*v + 4*v^2 + v^3
2 0 1 2 0 1\t4*v^-1 + 7 + 9*v + 4*v^2 + v^3
# dims\tnabla=3\tdelta=4
# flag\tliteral-positive-text
"""


class TestTilt:
    def test_o_simple_json_pinned(self, capsys):
        rc, out, _ = run(
            capsys, "tilt", "O", "--type", "A1", "--x", "1", "--simple",
            "--format", "json",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["setting"] == "O"
        assert obj["dims"] == {"nabla": 1, "delta": 1}
        assert obj["entries"] == [
            {"y": "", "poly": {"-1": 1, "1": 1}},
            {"y": "1", "poly": {"0": 1}},
        ]

    def test_o_standard_text(self, capsys):
        rc, out, _ = run(capsys, "tilt", "O", "--type", "A1", "--x", "1")
        assert rc == 0
        assert out.splitlines() == ["e\tv", "1\t1", "# dims\tnabla=1\tdelta=0"]

    def test_o_identity_index(self, capsys):
        rc, out, _ = run(capsys, "tilt", "O", "--type", "A2", "--x", "e")
        assert rc == 0
        assert out.splitlines()[0] == "e\t1"

    def test_km_negative_pinned(self, capsys):
        rc, out, _ = run(
            capsys, "tilt", "km", "--type", "affA1", "--x", "0 1", "--simple"
        )
        assert rc == 0
        assert out.splitlines() == [
            "e\tv^-2 + 2 + v^2",
            "0\tv^-1 + v",
            "1\tv^-1 + v",
            "0 1\t1",
            "# dims\tnabla=2\tdelta=2",
        ]

    def test_km_positive_pinned(self, capsys):
        rc, out, _ = run(
            capsys, "tilt", "km", "--type", "affA1", "--I", "1",
            "--level", "pos", "--x", "1", "--max-length", "3",
        )
        assert rc == 0
        lines = out.splitlines()
        assert "1\t1" in lines and "0 1\tv" in lines

    KM_POS_AFFA2 = (
        "tilt", "km", "--type", "affA2", "--I", "1", "--level", "pos", "--x", "1",
    )

    def test_km_positive_simple_pinned(self, capsys):
        rc, out, err = run(capsys, *self.KM_POS_AFFA2, "--simple", "--max-length", "6")
        assert (rc, out, err) == (0, KM_POS_AFFA2_SIMPLE, "")

    def test_km_positive_literal_text_pinned(self, capsys):
        rc, out, err = run(
            capsys, *self.KM_POS_AFFA2, "--simple", "--max-length", "6",
            "--literal-positive-text",
        )
        assert (rc, out, err) == (0, KM_POS_AFFA2_LITERAL, "")

    def test_literal_text_needs_simple(self, capsys):
        rc, out, err = run(
            capsys, *self.KM_POS_AFFA2, "--max-length", "6", "--literal-positive-text"
        )
        assert rc == 1 and out == ""
        assert "--literal-positive-text applies to --simple tables" in err

    def test_km_rejects_finite_type(self, capsys):
        rc, _, err = run(capsys, "tilt", "km", "--type", "A2", "--x", "1")
        assert rc == 2 and "affine" in err

    def test_quantum_from_weight(self, capsys):
        rc, out, _ = run(
            capsys, "tilt", "quantum", "--type", "A1", "--ell", "5",
            "--weight", "7", "--simple",
        )
        assert rc == 0
        assert out.splitlines() == [
            "e\tv^-1 + v\t1",
            "0\t1\t7",
            "# dims\tnabla=1\tdelta=1",
        ]

    def test_quantum_wall_weight(self, capsys):
        rc, out, _ = run(
            capsys, "tilt", "quantum", "--type", "A1", "--ell", "5", "--weight", "4"
        )
        assert rc == 0
        assert out.splitlines()[0] == "e\t1\t4"

    def test_quantum_usage(self, capsys):
        rc, _, err = run(capsys, "tilt", "quantum", "--type", "A1", "--ell", "5")
        assert rc == 1
        rc, _, err = run(
            capsys, "tilt", "quantum", "--type", "A1", "--ell", "5",
            "--weight", "7", "--x", "0",
        )
        assert rc == 1

    def test_usage_errors(self, capsys):
        # rows of O and quantum tables are finite: no length bound to set
        rc, _, err = run(
            capsys, "tilt", "O", "--type", "A2", "--x", "1 2 1", "--max-length", "1"
        )
        assert rc == 1 and "no such option" in err.lower()
        rc, _, err = run(
            capsys, "tilt", "quantum", "--type", "A1", "--ell", "5",
            "--weight", "7", "--max-length", "1",
        )
        assert rc == 1 and "no such option" in err.lower()

    def test_invalid_input(self, capsys):
        rc, _, err = run(
            capsys, "tilt", "km", "--type", "affA1", "--level", "neg",
            "--x", "0 1", "--max-length", "1",
        )
        assert rc == 2
        assert err.startswith("error: invalid-input:")
        assert "max_len applies to positive level only" in err

    def test_quantum_non_dominant_weight(self, capsys):
        rc, _, err = run(
            capsys, "tilt", "quantum", "--type", "A1", "--ell", "5", "--weight", "-3"
        )
        assert rc == 2 and "dominant" in err


# taken before verify_block shared equal modules and memoized its complexes
ORACLE_VERIFY_SL2 = """\
ok presentation: algebra dim 5, 2 labels, 5 hom basis maps
ok highest-weight axioms: axioms hold for 2 labels; 1 nonsplit simple/costandard extension pairs
ok minimal complexes: simple_e: [0: e]; simple_s: [-1: e] [0: s] [1: e]; std_e: [0: e]; std_s: [0: s] [1: e]
ok elimination uniqueness: forward and backward scans agree
ok summand bounds: diagonal summand appears once, in degree 0
ok triangle bounds: cone bounds hold around 1 radical triangles
ok no gaps: no gaps across 5 complexes
ok homological dimensions: support endpoints equal homological dimensions
ok formula agreement: label counts match the closed formulas on 4 objects
all 9 invariant suites pass
"""


class TestOracle:
    def test_verify_all_suites(self, capsys):
        rc, out, err = run(capsys, "oracle", "verify", "--block", "sl2")
        assert rc == 0 and err == ""
        assert out == ORACLE_VERIFY_SL2

    def test_unknown_block(self, capsys):
        rc, _, err = run(capsys, "oracle", "verify", "--block", "nope")
        assert rc == 2 and "no bundled block" in err

    def test_internal_failure_maps_to_exit_3(self, capsys, monkeypatch):
        import tiltc.mincpx as mincpx
        from tiltc.errors import InternalInvariantError

        def boom(block):
            raise InternalInvariantError("synthetic violation")

        monkeypatch.setattr(mincpx, "verify_block", boom)
        rc, _, err = run(capsys, "oracle", "verify", "--block", "sl2")
        assert rc == 3
        assert err.startswith("error: internal-check:")


class TestCache:
    def test_roundtrip_and_byte_determinism(self, capsys, tmp_path):
        cache = str(tmp_path / "store")
        args = ("kl", "--type", "A3", "--y", "2 1 3 2")
        rc, cold, _ = run(capsys, *args, "--cache-path", cache)
        assert rc == 0
        rc, warm, _ = run(capsys, *args, "--cache-path", cache)
        assert rc == 0
        rc, bare, _ = run(capsys, *args, "--no-cache")
        assert rc == 0
        assert cold == warm == bare
        assert (tmp_path / "store" / "A3.jsonl").exists()

    def test_env_variable_location(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TILTC_CACHE", str(tmp_path))
        rc, _, _ = run(capsys, "kl", "--type", "A1", "--y", "1")
        assert rc == 0
        assert (tmp_path / "A1.jsonl").exists()
        rc, out, _ = run(capsys, "cache", "info")
        assert rc == 0 and "A1.jsonl" in out

    def test_info_and_clear(self, capsys, tmp_path):
        cache = str(tmp_path)
        run(capsys, "kl", "--type", "A1", "--y", "1", "--cache-path", cache)
        rc, out, _ = run(capsys, "cache", "info", "--path", cache)
        assert rc == 0 and "A1.jsonl" in out
        rc, out, _ = run(capsys, "cache", "clear", "--path", cache)
        assert rc == 0 and out == "removed 1 cache file(s)\n"
        # the lock sidecar stays, and the help says why
        assert sorted(f.name for f in tmp_path.iterdir()) == ["A1.jsonl.lock"]
        rc, out, _ = run(capsys, "cache", "clear", "--help")
        assert rc == 0 and ".lock files stay" in out
        rc, out, _ = run(capsys, "cache", "info", "--path", cache)
        assert "(no column files)" in out

    def test_clear_removes_stale_temp_files(self, capsys, tmp_path):
        cache = str(tmp_path)
        run(capsys, "kl", "--type", "A1", "--y", "1", "--cache-path", cache)
        # saves killed between mkstemp and the rename, one of them the first
        # save of its system, so no B2.jsonl exists
        (tmp_path / ".A1.jsonl.x.tmp").write_text("half a save")
        (tmp_path / ".B2.jsonl.y.tmp").write_text("half a save")
        (tmp_path / "notes.tmp").write_text("not the cache's")
        rc, out, _ = run(capsys, "cache", "clear", "--path", cache)
        assert rc == 0 and out == "removed 1 cache file(s)\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "A1.jsonl.lock", "B2.jsonl.lock", "notes.tmp",
        ]

    def test_clear_waits_for_a_save_in_flight(self, tmp_path):
        # a save holds the lock from its reload of the file to its rename; a
        # clear in between would see the cleared columns renamed back
        path = tmp_path / "A1.jsonl"
        path.write_text("columns")
        done = threading.Event()

        def clear():
            main(["cache", "clear", "--path", str(tmp_path)])
            done.set()

        with open(tmp_path / "A1.jsonl.lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            worker = threading.Thread(target=clear, daemon=True)
            worker.start()
            assert not done.wait(0.3)
            assert path.read_text() == "columns"
            path.write_text("columns renamed into place")
        worker.join(timeout=30)
        assert not worker.is_alive() and done.is_set()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["A1.jsonl.lock"]

    def test_info_disabled_without_location(self, capsys):
        rc, out, _ = run(capsys, "cache", "info")
        assert rc == 0 and "disabled" in out
        rc, _, err = run(capsys, "cache", "clear")
        assert rc == 1

    def test_corrupted_checksum_rejected(self, capsys, tmp_path):
        cache = str(tmp_path)
        run(capsys, "kl", "--type", "A1", "--y", "1", "--cache-path", cache)
        _zero_checksum(tmp_path / "A1.jsonl")
        rc, _, err = run(capsys, "kl", "--type", "A1", "--y", "1", "--cache-path", cache)
        assert rc == 2 and err.startswith("error: cache:")

    @pytest.mark.parametrize("head", ["[]", '"x"'])
    def test_header_that_is_not_an_object_rejected(self, capsys, tmp_path, head):
        (tmp_path / "A1.jsonl").write_text(head + "\n")
        rc, out, err = run(capsys, "kl", "--type", "A1", "--y", "1", "--cache-path", str(tmp_path))
        assert rc == 2 and out == ""
        assert err.startswith("error: cache: cache header unreadable")

    def test_other_normalization_version_rejected(self, capsys, tmp_path):
        cache = str(tmp_path)
        run(capsys, "kl", "--type", "A1", "--y", "1", "--cache-path", cache)
        f = tmp_path / "A1.jsonl"
        head, _, body = f.read_text().partition("\n")
        obj = json.loads(head)
        obj["normalization"] += 1
        f.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" + body)
        rc, _, err = run(capsys, "kl", "--type", "A1", "--y", "1", "--cache-path", cache)
        assert rc == 2 and err.startswith("error: cache:")
        assert "normalization version mismatch" in err

    def test_tampered_column_rejected(self, capsys, tmp_path):
        # an edited polynomial behind a recomputed checksum is still caught;
        # the h column of 2 1 is read off the m[2] record at 1 (2 1 = s_2 * 1)
        cache = str(tmp_path)
        args = ("kl", "--type", "A2", "--y", "2 1", "--cache-path", cache)
        rc, _, _ = run(capsys, *args)
        assert rc == 0
        tamper(tmp_path / "A2.jsonl", "m[2]", "1", "", {"1": -7})
        rc, out, err = run(capsys, *args)
        assert rc == 2 and err.startswith("error: cache:") and out == ""

    def test_tampered_n_record_rejected(self, capsys, tmp_path):
        # a stored n entry edited off its parity, still unitriangular, is
        # caught on load: n[1] of 2 1 is v at 2, and v^2 there is read back
        cache = str(tmp_path)
        args = ("kl", "--type", "A3", "--parabolic", "1", "--flavor", "antispherical",
                "--y", "2 1", "--x", "2", "--cache-path", cache)
        rc, out, _ = run(capsys, *args)
        assert rc == 0 and out == "v\n"
        tamper(tmp_path / "A3.jsonl", "n[1]", "2 1", "2", {"2": 1})
        rc, out, err = run(capsys, *args)
        assert rc == 2 and err.startswith("error: cache:") and out == ""

    def test_unparsable_entry_rejected_when_read(self, capsys, tmp_path):
        # records are parsed lazily; a bad exponent key in a column the query
        # reads still fails the run
        cache = str(tmp_path)
        args = ("kl", "--type", "A2", "--y", "2 1", "--cache-path", cache)
        rc, _, _ = run(capsys, *args)
        assert rc == 0
        tamper(tmp_path / "A2.jsonl", "m[2]", "1", "", {"one": 1})
        rc, out, err = run(capsys, *args)
        assert rc == 2 and out == ""
        assert err.startswith("error: cache: cache key parse failure")

    @staticmethod
    def records(f):
        return f.read_text().rstrip("\n").split("\n")[1:]

    @pytest.mark.parametrize(
        "lower,poly",
        [
            # the entry keeps its shape; the true value is v^2
            pytest.param((2, 1), {2: 2}, id="value"),
            # an entry outside the index set of n[1]
            pytest.param((1,), {1: 1}, id="index"),
        ],
    )
    def test_forged_inverse_record_is_not_read(self, capsys, tmp_path, lower, poly):
        # stores written by older versions also hold inverse columns; inverse
        # columns now always come from the push, so a forged one behind a
        # valid checksum changes nothing and is dropped on load
        args = (
            "kl", "--type", "A3", "--parabolic", "1", "--flavor", "antispherical",
            "--inverse", "--x", "2 1 3 2",
        )
        rc, clean, _ = run(capsys, *args, "--no-cache")
        assert rc == 0 and "2 1 3 2\t2 1\tv^2\n" in clean
        A3 = CoxeterSystem.from_type("A3")
        x = A3.element([2, 1, 3, 2])
        col = {z.word: p for z, p in HeckeContext(A3).inverse_column("n", (1,), x).items()}
        col[lower] = LaurentPoly(poly)
        col = {z: _pack(p.terms, SLOT) for z, p in col.items()}  # as a store holds it
        old = PolyStore("A3", 3)
        old.put_column("n_inv[1]", x.word, col)
        old.save(tmp_path / "A3.jsonl")
        [forged] = self.records(tmp_path / "A3.jsonl")
        rc, out, err = run(capsys, *args, "--cache-path", str(tmp_path))
        assert (rc, out, err) == (0, clean, "")
        # the query computed and saved its n[1] columns, but not the record
        saved = self.records(tmp_path / "A3.jsonl")
        assert forged not in saved and saved
        assert {json.loads(line)["family"] for line in saved} == {"n[1]"}

    @staticmethod
    def unread_kind(line):
        """Whether a record is of a kind no query reads: h, m[], n[] or inverse."""
        fid = json.loads(line)["family"]
        return fid == "h" or fid.endswith("[]") or "_inv" in fid

    def test_store_holds_only_spherical_records_for_a_regular_block(self, capsys, tmp_path):
        # the I = () modules of a regular block are the Hecke algebra, whose
        # h columns are read off m[L(y)] columns, and inverse columns are not
        # stored: no h, m[], n[] or inverse record is written
        cache = str(tmp_path)
        for args in (
            ("tilt", "O", "--type", "A3", "--x", "2 1 3 2", "--simple"),
            ("kl", "--type", "A3", "--x", "2 1 3 2", "--inverse"),
        ):
            rc, _, _ = run(capsys, *args, "--cache-path", cache)
            assert rc == 0
        saved = self.records(tmp_path / "A3.jsonl")
        assert saved and all(
            json.loads(line)["family"].startswith("m[") and not self.unread_kind(line)
            for line in saved
        )

    def test_store_with_m_n_and_inverse_records_loads(self, capsys, tmp_path):
        # a store written by a version that also stored h, m[], n[] and
        # inverse columns: the outputs are those of a run without a store,
        # the records a query reads are saved back verbatim, and the h, m[],
        # n[] and inverse records are dropped
        old = (DATA / "A3-all-families.jsonl").read_text()
        (tmp_path / "A3.jsonl").write_text(old)
        for args in (
            ("tilt", "O", "--type", "A3", "--x", "2 1 3 2", "--simple"),
            ("kl", "--type", "A3", "--x", "2 1 3 2", "--inverse"),
            (
                "kl", "--type", "A3", "--parabolic", "1", "--flavor",
                "antispherical", "--inverse", "--x", "2 1 3 2",
            ),
            ("kl", "--type", "A3", "--x", "1 2 3", "--inverse"),  # new columns
        ):
            rc, clean, _ = run(capsys, *args, "--no-cache")
            assert rc == 0
            assert run(capsys, *args, "--cache-path", str(tmp_path)) == (0, clean, "")
        old_records = set(old.rstrip("\n").split("\n")[1:])
        kept = {line for line in old_records if not self.unread_kind(line)}
        saved = set(self.records(tmp_path / "A3.jsonl"))
        assert kept and kept <= saved
        assert saved - old_records and not any(self.unread_kind(line) for line in saved)

    def test_wrong_system_rejected(self, capsys, tmp_path):
        cache = str(tmp_path)
        run(capsys, "kl", "--type", "A1", "--y", "1", "--cache-path", cache)
        (tmp_path / "A2.jsonl").write_text((tmp_path / "A1.jsonl").read_text())
        rc, _, err = run(capsys, "kl", "--type", "A2", "--y", "1", "--cache-path", cache)
        assert rc == 2 and err.startswith("error: cache:")


def _run_quiet(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _zero_checksum(f):
    head, _, body = f.read_text().partition("\n")
    obj = json.loads(head)
    obj["checksum"] = "0" * 64
    f.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" + body)


def _cache_dir_as_file(f):
    """Replace the cache directory of the store file f by a regular file."""
    for g in f.parent.iterdir():
        g.unlink()
    f.parent.rmdir()
    f.parent.write_text("")


def _store_as_dir(f):
    f.unlink()
    f.mkdir()


# The stores a corpus line starting with @<name> runs on: the command that
# fills the store, and the edit then made to its one file.
STORES = {
    "@A1": (["kl", "--type", "A1", "--y", "1"], None),
    "@corrupt": (["kl", "--type", "A1", "--y", "1"], _zero_checksum),
    "@tampered": (
        ["kl", "--type", "A2", "--y", "2 1"],
        lambda f: tamper(f, "m[2]", "1", "", {"1": -7}),
    ),
    # every column of the w0 simple table; a kl query then reads one record
    "@A4w0": (["tilt", "O", "--type", "A4", "--x", "1 2 1 3 2 1 4 3 2 1", "--simple"], None),
    # the m[2] record at 1 3 2 is not JSON inside: only a query that reads it fails
    "@broken": (
        ["kl", "--type", "A3", "--y", "2 1 3 2"],
        lambda f: garble(f, "m[2]", "1 3 2"),
    ),
    # one m^K entry wrong with its parity and sign kept, behind a recomputed
    # checksum: it loads, and only the standard table's antispherical twin
    # sees it
    "@planted": (
        ["tilt", "O", "--type", "A4", "--x", "1 2 1 3 2 1 4 3 2 1"],
        lambda f: tamper(f, "m[1,2,3]", "4 3", "4", {"1": 3}),
    ),
    # store I/O failures: the cache directory is a regular file, the store
    # file is a directory, the store file is not UTF-8
    "@cache-is-file": (["kl", "--type", "A1", "--y", "1"], _cache_dir_as_file),
    "@store-is-dir": (["kl", "--type", "A1", "--y", "1"], _store_as_dir),
    "@not-utf8": (["kl", "--type", "A1", "--y", "1"], lambda f: f.write_bytes(b"\xff" + f.read_bytes())),
}
CORPUS = DATA / "cli_corpus.tsv"


def run_corpus_line(argv_text: str, tmp: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one corpus line, with its cache
    directory written back as {cache}."""
    cache = str(tmp / "cache")
    argv = [a.replace("{cache}", cache) for a in shlex.split(argv_text)]
    if argv and argv[0] in STORES:
        fill, edit = STORES[argv.pop(0)]
        assert _run_quiet(fill + ["--cache-path", cache])[0] == 0
        if edit is not None:
            [f] = Path(cache).glob("*.jsonl")
            edit(f)
    rc, out, err = _run_quiet(argv)
    return rc, out.replace(cache, "{cache}"), err.replace(cache, "{cache}")


def corpus_row(argv_text: str, rc: int, out: str, err: str) -> str:
    """The pinned row of a line: exit code, sha256 of stdout, sha256 of
    stderr (- on a usage error, whose wording is not pinned), argv."""
    out_sha, err_sha = (hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
    return "\t".join([str(rc), out_sha, err_sha if rc != 1 else "-", argv_text])


def corpus_lines():
    for line in CORPUS.read_text().splitlines():
        if line and not line.startswith("#"):
            argv_text = line.split("\t")[3]
            yield pytest.param(line, id=argv_text or "(no arguments)")


class TestCorpus:
    """The CLI contract: every line of data/cli_corpus.tsv, run in process,
    gives its pinned exit code and output digests; a usage error (exit 1)
    also prints nothing on stdout, and its stderr starts "error: usage: ".
    Print the rows for the current program with
    ``PYTHONPATH=src python tests/test_cli.py``; a differing row is a change
    of the contract."""

    @pytest.mark.parametrize("line", corpus_lines())
    def test_line(self, tmp_path, line):
        argv_text = line.split("\t")[3]
        rc, out, err = run_corpus_line(argv_text, tmp_path)
        assert corpus_row(argv_text, rc, out, err) == line
        if rc == 1:
            assert out == "" and err.startswith("error: usage: ")

    def test_store_rows_print_what_their_no_cache_rows_print(self):
        # a query served from a store prints what it prints without one
        rows = {}
        for p in corpus_lines():
            rc, out, _, argv = p.values[0].split("\t")
            rows[argv] = rc, out
        twins = [
            (rows[argv], rows[bare])
            for argv in rows
            if argv.startswith("@") and "--cache-path {cache}" in argv
            and (bare := argv.split(" ", 1)[1].replace("--cache-path {cache}", "--no-cache")) in rows
        ]
        assert len(twins) == 2
        for row, bare_row in twins:
            assert row == bare_row and row[0] == "0"


class TestNoCyclicGarbage:
    """Every exit-0 line of the corpus, rerun in process with the cyclic
    collector off, leaves no ``tiltc.coxeter`` object for it to find: the
    element tables a command builds are freed by reference counts when the
    command returns.  With the collector off, every object a line makes
    stays in the youngest generation, so collecting that generation alone
    finds all of the line's cyclic garbage.  The guard does not cover the
    other garbage such lines leave: the first line of a command in a
    process leaves about 60-95 objects from the help formatters argparse
    makes as it declares options.  A repeated command leaves none
    (``test_repeated_command``)."""

    @pytest.mark.parametrize(
        "line", [p for p in corpus_lines() if p.values[0].startswith("0\t")]
    )
    def test_line(self, tmp_path, line):
        argv_text = line.split("\t")[3]
        while gc.collect(0):  # a collection can finalize old garbage into new garbage
            pass
        gc.disable()
        try:
            assert run_corpus_line(argv_text, tmp_path)[0] == 0
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect(0)
            left = [repr(o) for o in gc.garbage if type(o).__module__ == "tiltc.coxeter"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert left == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["tilt", "O", "--type", "A3", "--x", "1 2 1", "--format", "json"],
            ["kl", "--type", "A3", "--y", "1 2 1", "--format", "json"],
            ["tilt", "quantum", "--type", "A2", "--ell", "5", "--weight", "3,1", "--format", "json"],
            ["oracle", "verify", "--block", "sl2"],
            # the first run fills the store, the second reads it
            ["tilt", "O", "--type", "A3", "--x", "2 1 3 2", "--simple", "--cache-path", "{cache}"],
        ],
        ids=["tilt-json", "kl-json", "quantum-json", "oracle", "tilt-store"],
    )
    def test_repeated_command(self, tmp_path, argv):
        argv = [a.replace("{cache}", str(tmp_path)) for a in argv]
        # the first run declares the command's options
        assert _run_quiet(argv)[0] == 0
        while gc.collect():
            pass
        gc.disable()
        try:
            assert _run_quiet(argv)[0] == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter loads running code."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "TILTC_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


class TestStartup:
    """Start-up loads what every kl and tilt query runs; commands load the rest."""

    def test_import_loads_the_query_layers_only(self):
        new = loaded_after("import tiltc.cli")
        assert {m for m in new if m.partition(".")[0] == "tiltc"} == {
            "tiltc", "tiltc.cli", "tiltc.coxeter", "tiltc.errors", "tiltc.hecke", "tiltc.laurent",
        }
        assert not new & {"fractions", "decimal", "dataclasses", "hashlib", "json"}
        assert all(
            m.partition(".")[0] in sys.stdlib_module_names or m.partition(".")[0] == "tiltc"
            for m in new
        ), sorted(new)

    def test_kl_query_loads_no_tables(self):
        new = loaded_after(
            "from tiltc.cli import main\n"
            'assert main(["kl", "--type", "A3", "--y", "1 2 1", "--no-cache"]) == 0'
        )
        assert "tiltc.tilting" not in new and "tiltc.rootdata" not in new

    def test_tilt_O_query_loads_no_root_data(self):
        new = loaded_after(
            "from tiltc.cli import main\n"
            'assert main(["tilt", "O", "--type", "A2", "--x", "1 2", "--no-cache"]) == 0'
        )
        assert "tiltc.tilting" in new and "tiltc.rootdata" not in new


class TestHelp:
    def test_help_exits_zero(self, capsys):
        rc, out, _ = run(capsys, "--help")
        assert rc == 0
        for name in ("kl", "tilt", "oracle", "cache"):
            assert name in out

    def test_subcommand_help(self, capsys):
        rc, out, _ = run(capsys, "tilt", "--help")
        assert rc == 0
        for name in ("O", "km", "quantum"):
            assert name in out

    FIRST_LINES = {
        "kl": "Polynomials of one family: single values or whole columns.",
        "tilt": "Graded multiplicity tables of minimal tilting complexes.",
        "O": "Regular block of category O for a finite Weyl group.",
        "km": "Affine Kac-Moody category O at negative or positive level.",
        "quantum": "Quantum group at a root of unity: one linkage class of tilting modules.",
        "oracle": "Brute-force homological verification over exact rationals.",
        "cache": "Inspect or clear the persistent polynomial column store.",
        "clear": "Remove the column files (*.jsonl) of the cache directory.",
    }

    @pytest.mark.parametrize(
        "argv,shown",
        [
            pytest.param([], ["kl", "tilt", "oracle", "cache"], id="root"),
            pytest.param(["kl"], ["kl"], id="kl"),
            pytest.param(["tilt"], ["tilt", "O", "km", "quantum"], id="tilt"),
            pytest.param(["tilt", "km"], ["km"], id="tilt km"),
            pytest.param(["cache", "clear"], ["clear"], id="cache clear"),
        ],
    )
    def test_help_shows_first_docstring_lines(self, capsys, monkeypatch, argv, shown):
        # a command's own docstring, and the first line of each command it lists
        monkeypatch.setenv("COLUMNS", "80")
        rc, out, err = run(capsys, *argv, "--help")
        assert rc == 0 and err == ""
        text = " ".join(out.split())  # as wrapped to the terminal
        for name in shown:
            assert self.FIRST_LINES[name] in text

    def test_module_entry_point(self):
        env = {k: v for k, v in os.environ.items() if k != "TILTC_CACHE"}
        env["PYTHONPATH"] = str(SRC)
        ran = [
            subprocess.run(
                [sys.executable, "-m", "tiltc.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            for argv in (["--help"], [])
        ]
        assert ran[0].returncode == 0 and "usage: tiltc" in ran[0].stdout and ran[0].stderr == ""
        assert ran[1].returncode == 1 and ran[1].stdout == ""
        assert ran[1].stderr.startswith("error: usage: ")


if __name__ == "__main__":
    import tempfile

    os.environ.pop("TILTC_CACHE", None)
    for line in CORPUS.read_text().splitlines():
        if line and not line.startswith("#"):
            argv_text = line.split("\t")[3]
            with tempfile.TemporaryDirectory() as tmp:
                line = corpus_row(argv_text, *run_corpus_line(argv_text, Path(tmp)))
        print(line)
