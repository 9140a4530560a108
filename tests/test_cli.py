"""Command-line surface: JSON contracts, exit codes, file roundtrips."""

import hashlib
import json
import random

import pytest

from lzdp.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse-style usage failures
        code = exc.code
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip().startswith("{") else None
    return code, doc


class TestCompressCommands:
    def test_reference_example(self, tmp_path, capsys):
        src = tmp_path / "w.txt"
        src.write_text("aababcdbabca")
        code, doc = run(
            capsys, "compress", str(src), str(tmp_path / "w.lz"), "--alphabet", "abcd"
        )
        assert code == 0
        assert doc == {"n": 12, "t": 5, "payload_bits": 50, "ratio": 50 / 24}

    def test_empty_input(self, tmp_path, capsys):
        src = tmp_path / "e.bin"
        src.write_bytes(b"")
        code, doc = run(capsys, "compress", str(src), str(tmp_path / "e.lz"))
        assert code == 0
        assert doc["t"] == 0 and doc["ratio"] == "empty"

    def test_roundtrip_small_window(self, tmp_path, capsys):
        src = tmp_path / "a.bin"
        src.write_bytes(b"aaaa")
        code, _ = run(
            capsys, "compress", str(src), str(tmp_path / "a.lz"), "--window", "3"
        )
        assert code == 0
        code, _ = run(capsys, "decompress", str(tmp_path / "a.lz"), str(tmp_path / "a.out"))
        assert code == 0
        assert (tmp_path / "a.out").read_bytes() == b"aaaa"

    def test_roundtrip_random_bytes(self, tmp_path, capsys):
        data = random.Random(5).randbytes(3000)
        src = tmp_path / "r.bin"
        src.write_bytes(data)
        for flags in ([], ["--self-ref"], ["--window", "64"]):
            code, _ = run(capsys, "compress", str(src), str(tmp_path / "r.lz"), *flags)
            assert code == 0
            code, _ = run(
                capsys, "decompress", str(tmp_path / "r.lz"), str(tmp_path / "r.out")
            )
            assert code == 0
            assert (tmp_path / "r.out").read_bytes() == data

    def test_symbol_outside_alphabet(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("abcz")
        try:
            code = main(
                ["compress", str(src), str(tmp_path / "x.lz"), "--alphabet", "abcd"]
            )
        except SystemExit as exc:
            code = exc.code
        assert code == 1
        assert "not in the alphabet" in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        code, _ = run(capsys, "compress", str(tmp_path / "absent"), str(tmp_path / "x"))
        assert code == 1

    def test_roundtrip_megabyte_compressible(self, tmp_path, capsys):
        data = (b"round and round the ragged rock the ragged rascal ran " * 20000)[: 1 << 20]
        src = tmp_path / "big.bin"
        src.write_bytes(data)
        code, doc = run(capsys, "compress", str(src), str(tmp_path / "big.lz"))
        assert code == 0 and doc["n"] == 1 << 20
        assert doc["ratio"] < 0.01
        code, _ = run(capsys, "decompress", str(tmp_path / "big.lz"), str(tmp_path / "big.out"))
        assert code == 0
        assert (tmp_path / "big.out").read_bytes() == data

    def test_roundtrip_megabyte_random_windowed(self, tmp_path, capsys):
        data = random.Random(9).randbytes(1 << 20)
        src = tmp_path / "rand.bin"
        src.write_bytes(data)
        code, _ = run(
            capsys, "compress", str(src), str(tmp_path / "rand.lz"), "--window", "4096"
        )
        assert code == 0
        code, _ = run(
            capsys, "decompress", str(tmp_path / "rand.lz"), str(tmp_path / "rand.out")
        )
        assert code == 0
        assert (tmp_path / "rand.out").read_bytes() == data


class TestDpCommands:
    def test_roundtrip(self, tmp_path, capsys):
        data = random.Random(6).randbytes(4096)
        src = tmp_path / "m.bin"
        src.write_bytes(data)
        code, doc = run(
            capsys,
            "dp-compress", str(src), str(tmp_path / "m.dp"),
            "--epsilon", "1", "--delta", "0.01", "--seed", "42",
        )
        assert code == 0
        assert set(doc) == {"payload_bits", "total_bits", "k", "gs_bits"}
        assert doc["total_bits"] > doc["payload_bits"]
        code, _ = run(capsys, "dp-decompress", str(tmp_path / "m.dp"), str(tmp_path / "m.out"))
        assert code == 0
        assert (tmp_path / "m.out").read_bytes() == data

    def test_roundtrip_megabyte_random(self, tmp_path, capsys):
        data = random.Random(7).randbytes(1 << 20)
        src = tmp_path / "mb.bin"
        src.write_bytes(data)
        code, _ = run(
            capsys,
            "dp-compress", str(src), str(tmp_path / "mb.dp"),
            "--epsilon", "1", "--delta", "0.001", "--seed", "11", "--window", "4096",
        )
        assert code == 0
        code, _ = run(
            capsys, "dp-decompress", str(tmp_path / "mb.dp"), str(tmp_path / "mb.out")
        )
        assert code == 0
        assert (tmp_path / "mb.out").read_bytes() == data

    def test_fixed_seed_reproducible(self, tmp_path, capsys):
        src = tmp_path / "s.bin"
        src.write_bytes(b"seeded determinism check" * 10)
        totals = []
        for _ in range(2):
            code, doc = run(
                capsys,
                "dp-compress", str(src), str(tmp_path / "s.dp"),
                "--epsilon", "0.5", "--delta", "0.001", "--seed", "777",
            )
            assert code == 0
            totals.append(doc["total_bits"])
        assert totals[0] == totals[1]

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "s.bin"
        src.write_bytes(b"env seed")
        monkeypatch.setenv("LZDP_SEED", "31337")
        _, doc1 = run(
            capsys, "dp-compress", str(src), str(tmp_path / "s.dp"),
            "--epsilon", "1", "--delta", "0.01",
        )
        _, doc2 = run(
            capsys, "dp-compress", str(src), str(tmp_path / "s.dp"),
            "--epsilon", "1", "--delta", "0.01",
        )
        assert doc1["total_bits"] == doc2["total_bits"]

    def test_pad_hidden_unless_requested(self, tmp_path, capsys):
        src = tmp_path / "p.bin"
        src.write_bytes(b"pad flag")
        _, doc = run(
            capsys, "dp-compress", str(src), str(tmp_path / "p.dp"),
            "--epsilon", "1", "--delta", "0.01", "--seed", "1",
        )
        assert "pad" not in doc
        _, doc = run(
            capsys, "dp-compress", str(src), str(tmp_path / "p.dp"),
            "--epsilon", "1", "--delta", "0.01", "--seed", "1", "--reveal-pad",
        )
        assert doc["pad"] >= 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--delta", "1.5"),
            ("--delta", "1e-320"),
            ("--epsilon", "0"),
            ("--epsilon", "inf"),
            ("--epsilon", "nan"),
            ("--epsilon", "1e-300"),
            ("--gs", "0"),
            ("--window", "0"),
        ],
    )
    def test_out_of_domain_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        src = tmp_path / "d.bin"
        src.write_bytes(b"x")
        flags = {"--epsilon": "1", "--delta": "0.01", flag: value}
        argv = [arg for pair in flags.items() for arg in pair]
        code, _ = run(capsys, "dp-compress", str(src), str(tmp_path / "d.dp"), *argv)
        assert code == 2

    def test_gs_override(self, tmp_path, capsys):
        src = tmp_path / "g.bin"
        src.write_bytes(b"override")
        code, doc = run(
            capsys, "dp-compress", str(src), str(tmp_path / "g.dp"),
            "--epsilon", "1", "--delta", "0.01", "--gs", "12", "--seed", "3",
        )
        assert code == 0 and doc["gs_bits"] == 12

    @pytest.mark.parametrize(
        "flags, sha256",
        [
            ([], "1740c3e0d3b46b20b2851e9d4f363023c0a2ca5ff0bdd56ec42e1e8e42dbefa5"),
            (["--window", "16"], "7c5f12291f8ed1ee6f94e7cd7b157864807a2510fd9e9ce4f5e8590ddd65471d"),
            (["--self-ref"], "c934e929f3f19c7b1edca867753d8dc7dbfca91315ead13315520dbcf049fa64"),
            (
                ["--self-ref", "--window", "16"],
                "80ba3728d47d252fe813379d4679b6c107b330630f87e0e8250d925a7634c1be",
            ),
        ],
        ids=["unbounded", "w16", "self-ref", "self-ref-w16"],
    )
    def test_seeded_container_pinned(self, tmp_path, capsys, flags, sha256):
        # digests recorded from earlier releases: parse, bound and pad draw are unchanged
        src = tmp_path / "pin.bin"
        src.write_bytes(b"<p>pinned padding output</p>\n" * 6 + random.Random(15).randbytes(300))
        code, _ = run(
            capsys, "dp-compress", str(src), str(tmp_path / "pin.dp"),
            "--epsilon", "1", "--delta", "0.001", "--seed", "11", *flags,
        )
        assert code == 0
        assert hashlib.sha256((tmp_path / "pin.dp").read_bytes()).hexdigest() == sha256

    def test_plain_decompress_rejects_padded(self, tmp_path, capsys):
        src = tmp_path / "x.bin"
        src.write_bytes(b"mixed readers")
        run(
            capsys, "dp-compress", str(src), str(tmp_path / "x.dp"),
            "--epsilon", "1", "--delta", "0.01", "--seed", "4",
        )
        code, _ = run(capsys, "decompress", str(tmp_path / "x.dp"), str(tmp_path / "x.out"))
        assert code == 1


class TestAnalyzeCommand:
    def test_neighbor_pair_report(self, tmp_path, capsys):
        (tmp_path / "w.txt").write_text("abab")
        (tmp_path / "wp.txt").write_text("abbb")
        code, doc = run(
            capsys,
            "analyze", str(tmp_path / "w.txt"), str(tmp_path / "wp.txt"),
            "--alphabet", "ab",
        )
        assert code == 0
        assert doc["t"] == doc["t_prime"] == 3
        assert doc["counts"] == {"t0": 0, "t1": 3, "t2": 0, "t3": 0}
        assert all(r["pass"] for r in doc["identities"])

    def test_non_neighbors_rejected(self, tmp_path, capsys):
        (tmp_path / "w.txt").write_text("abab")
        (tmp_path / "wp.txt").write_text("baba")
        code, _ = run(
            capsys,
            "analyze", str(tmp_path / "w.txt"), str(tmp_path / "wp.txt"),
            "--alphabet", "ab",
        )
        assert code == 1


class TestSensitivityCommand:
    def test_global_two_by_two(self, capsys):
        code, doc = run(capsys, "sensitivity", "--mode", "global", "--n", "2", "--k", "2")
        assert code == 0
        assert doc["bits"] == 0

    def test_local_mode(self, tmp_path, capsys):
        (tmp_path / "w.txt").write_text("aaaa")
        code, doc = run(
            capsys,
            "sensitivity", "--mode", "local", "--input", str(tmp_path / "w.txt"),
            "--alphabet", "ab", "--window", "4",
        )
        assert code == 0
        assert doc["bits"] == 0

    def test_budget_refusal(self, capsys):
        code, doc = run(
            capsys,
            "sensitivity", "--mode", "global", "--n", "24", "--k", "2",
            "--budget", "1000",
        )
        assert code == 1
        assert doc["error"] == "budget_exceeded"
        assert doc["required_calls"] == 2**24 * 25


class TestQuinstrCommand:
    def test_verify_m4(self, capsys):
        code, doc = run(capsys, "quinstr", "--m", "4", "--verify")
        assert code == 0
        assert doc["measured"]["t2"] == 5 and doc["pass"] is True

    def test_generate_narrow(self, capsys):
        code, doc = run(capsys, "quinstr", "--m", "4", "--width", "paper")
        assert code == 0
        assert doc["n"] == doc["predicted_len"] == 126

    def test_verify_requires_injective(self, capsys):
        code, _ = run(capsys, "quinstr", "--m", "4", "--width", "paper", "--verify")
        assert code == 2


class TestBoundsCommand:
    def test_table(self, capsys):
        code, doc = run(capsys, "bounds", "--n", "1000", "--window", "1000", "--k", "256")
        assert code == 0
        row = next(
            r
            for r in doc["rows"]
            if r["variant"] == "non_overlapping" and r["selected"]
        )
        assert row["bound_bits"] == 3143
