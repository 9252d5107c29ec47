"""Ingestion end to end: ``prepare`` bytes on an awkward corpus, and the
order and text of ingestion errors, the two reads of a subsample, and
the column split.

The digests were taken from ``prepare`` at commit 359293e, before
ingestion became columnar, so any byte drift in parsing, encoding or the
artifact writers fails here.
"""

import hashlib
import io
import os
import threading
import warnings

import numpy as np
import pytest

from swarmids import cli
from swarmids.cli import main
from swarmids.dataset import (
    CHUNK_ROWS,
    CLASS_NAMES,
    N_FEATURES,
    Dataset,
    apply_normalize,
    encode,
    encoded_lines,
    fit_encoding,
    fit_normalize,
    map_label,
    parse_kdd,
    parse_labels,
    read_encoded,
)
from swarmids.errors import DataError, DataWarning, ParseError

LABELS = ("normal", "NORMAL", "Neptune", "smurf", "SMURF", "satan", "IpSweep",
          "guess_passwd", "Normal", "neptune")
PADS = ("", " ", "\t", "\xa0", " \xa0", "\t ")
NUMERIC = ("0", "1", "0.5", "1e3", "021", "+4", "0.10")


def _pad(value: str, i: int, j: int) -> str:
    return PADS[(i * j) % len(PADS)] + value + PADS[(i + 2 * j) % len(PADS)]


def awkward_corpus(n: int = 48) -> bytes:
    """NSL-KDD lines with every quirk the parser accepts: 42 and 43 fields,
    difficulties such as ``021`` and ``+5``, upper-case labels, fields padded
    with spaces, tabs and no-break spaces, comment and blank lines, and
    mixed CRLF/LF endings. ``duration`` holds both ``0`` and ``-0``."""
    lines = ["# awkward corpus", ""]
    for i in range(n):
        features = [
            "-0" if i % 5 == 0 else str((i * 37) % 11 * 5),
            ("tcp", "udp", "icmp", "TCP")[i % 4],
            ("http", "smtp", "private", "ecr_i", "Other")[(i * 3) % 5],
            ("SF", "S0", "REJ")[i % 3],
            str((i * i) % 97 * 13),
            f"{(i % 7) * 0.25:.2f}",
        ]
        features += [NUMERIC[(i + j) % len(NUMERIC)] for j in range(6, N_FEATURES)]
        features[9] = "x" if i == 17 else features[9]  # one word makes "hot" categorical
        features[19] = "0"  # num_outbound_cmds is constant, as in NSL-KDD
        fields = [_pad(v, i, j) for j, v in enumerate(features)]
        fields.append(_pad(LABELS[i % len(LABELS)], i, 41))
        if i % 3 == 1:
            fields.append(("021", "+5", " 7")[i % 9 // 3])
        elif i % 3 == 2:
            fields.append(str(i % 22))
        lines.append(",".join(fields))
        if i % 10 == 9:
            lines.append("   # indented comment")
        if i % 7 == 6:
            lines.append(" \t " if i % 2 else "")
    return "".join(line + ("\r\n" if k % 2 == 0 else "\n") for k, line in enumerate(lines)).encode("utf-8")


# sha256 of each prepare_* file, by --subsample value.
PINNED = {
    "0": {
        "prepare_class_histogram.csv": "385ec756869f9a9a55339f6969bb630c84a0760e26370c3ed8e6a1d255ff44d8",
        "prepare_config.txt": "d4cb99f2bfbb87db2b0376a6cad78496ebfc9c8fd4e2a61ae876223da16474c9",
        "prepare_data.csv": "c3e5306b8940b99a2ff43b04d4e3cc2725066164305cca1567912d47a667b134",
        "prepare_encoded.csv": "7597286ef3fc5ec63fb8333c9d765b310945f8e0336934b707b10b58d49d925a",
        "prepare_encoding.txt": "525ff798630be9c2d99b3fc6cffd081e9e975393656b963e063576e79278d2ab",
        "prepare_norm_stats.txt": "d014959dd6882ceeeb313b2be0eabcc50eae46da8e4e2db3cb0f08f5a1acab0f",
    },
    "20": {
        "prepare_class_histogram.csv": "214eed76137dd4f2dc7857a3b7f9d616f5ffb493914aed9f92c3f45dd6f174e3",
        "prepare_config.txt": "39ffecc4a01a248331dd48e3bfc5607a0ade5781bcf1a78fc4b37df5d9c9693b",
        "prepare_data.csv": "09623b956646a8bc8791769a241daa219ca94b3fc330fe8686f2faca77a7eaaa",
        "prepare_encoded.csv": "ce5cc45ecb569ea637ceeee6c8c0bb7bd9b32efd8b15143e10d318f3ffc61c9e",
        "prepare_encoding.txt": "b0efeb46d41e289b4a37e0471240ce2c6d8a7b6c7f9cc203e6b340d9a8124c99",
        "prepare_norm_stats.txt": "df0fe8440b4513d01ed92d80c6ce34f22995a5c05bcaa340bf6798934c910805",
    },
}


def _reference_line(text: str) -> str:
    """The canonical line as the row-wise parser built it: split every
    field, strip it, lower-case the attack name, rewrite the difficulty."""
    fields = [f.strip() for f in text.strip().split(",")]
    fields[N_FEATURES] = fields[N_FEATURES].lower()
    if len(fields) == N_FEATURES + 2:
        fields[-1] = str(int(fields[-1]))
    return ",".join(fields)


def test_canonical_lines_match_the_row_wise_parse():
    text = awkward_corpus().decode("utf-8")
    data = [line for line in text.splitlines() if line.strip() and not line.strip().startswith("#")]
    records = parse_kdd(text)
    assert [r.line for r in records] == [_reference_line(line) for line in data]
    assert [r.label for r in records] == [r.line.split(",")[N_FEATURES] for r in records]
    assert any(line != line.strip() or "\xa0" in line for line in data)


def _prepare(tmp_path, monkeypatch, corpus: bytes, *extra) -> int:
    (tmp_path / "corpus.csv").write_bytes(corpus)
    monkeypatch.chdir(tmp_path)  # relative paths, so the config bytes are fixed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        return main(["prepare", "--data", "corpus.csv", "--out", "out", "--seed", "3", *extra])


@pytest.mark.parametrize("subsample", sorted(PINNED))
def test_prepare_bytes_pinned(tmp_path, monkeypatch, subsample):
    assert _prepare(tmp_path, monkeypatch, awkward_corpus(), "--subsample", subsample) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").glob("prepare_*"))
    }
    assert digests == PINNED[subsample]


BOM = "\ufeff"


@pytest.mark.parametrize("first", ["comment", "record"])
def test_parse_skips_one_leading_byte_order_mark(first):
    text = awkward_corpus().decode("utf-8")
    if first == "record":
        text = text.split("\n", 2)[2]  # drop the comment and blank lines
    assert parse_kdd(BOM + text) == parse_kdd(text)
    assert parse_kdd(iter((BOM + text).splitlines())) == parse_kdd(text)


@pytest.mark.parametrize("subsample", sorted(PINNED))
def test_byte_order_mark_leaves_prepare_bytes_unchanged(tmp_path, monkeypatch, subsample):
    # A record on the first line: the mark once became part of its duration.
    corpus = awkward_corpus().split(b"\n", 2)[2]
    digests = []
    for name, data in (("plain", corpus), ("bom", BOM.encode("utf-8") + corpus)):
        (tmp_path / name).mkdir()
        assert _prepare(tmp_path / name, monkeypatch, data, "--subsample", subsample) == 0
        digests.append({
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tmp_path / name / "out").glob("prepare_*"))
        })
    assert digests[0] == digests[1]
    assert BOM not in (tmp_path / "bom" / "out" / "prepare_encoding.txt").read_text("utf-8")


def _line(label="normal", features=None, difficulty="21"):
    fields = list(features or ["0"] * N_FEATURES) + [label]
    return ",".join(fields + ([difficulty] if difficulty is not None else []))


class TestErrorOrder:
    def test_field_count_error_wins_over_earlier_unknown_label(self, tmp_path, monkeypatch, capsys):
        # Every line is checked before any attack name is mapped.
        lines = [_line(), _line(), _line("sneaky_new_attack"), _line(), "", _line(),
                 ",".join(["0"] * 40)]
        with pytest.raises(ParseError) as err:
            parse_kdd("\n".join(lines))
        assert err.value.line_no == 7
        corpus = "\n".join(lines).encode("utf-8")
        assert _prepare(tmp_path, monkeypatch, corpus, "--subsample", "0") == 2
        assert "data error: line 7: expected 42 or 43 fields, got 40" in capsys.readouterr().err

    def test_unknown_label_is_a_data_error(self, tmp_path, monkeypatch, capsys):
        corpus = "\n".join([_line(), _line("sneaky_new_attack"), _line()]).encode("utf-8")
        assert _prepare(tmp_path, monkeypatch, corpus, "--subsample", "0") == 2
        assert "unknown attack label: 'sneaky_new_attack'" in capsys.readouterr().err

    @pytest.mark.parametrize("difficulty", ["x1", " x1", "2.5"])
    def test_bad_difficulty_names_its_line(self, difficulty):
        text = "\n".join(["# header", _line(), _line(difficulty=difficulty), _line()])
        with pytest.raises(ParseError) as err:
            parse_kdd(text)
        assert err.value.line_no == 3
        assert str(err.value) == f"line 3: difficulty field is not an integer: {difficulty!r}"

    @pytest.mark.parametrize("at", [2, CHUNK_ROWS + 3])
    @pytest.mark.parametrize(
        "value, message",
        [
            ("abc", "non-numeric value 'abc' in numeric column 4 (src_bytes), record {at}"),
            ("\tinf ", "non-finite value 'inf' in numeric column 4 (src_bytes), record {at}"),
            ("nan", "non-finite value 'nan' in numeric column 4 (src_bytes), record {at}"),
        ],
    )
    def test_numeric_error_names_column_and_encoded_record(self, value, message, at):
        records = parse_kdd("\n".join(_line() for _ in range(6 + at)))
        table = fit_encoding(records)
        bad = ["0"] * N_FEATURES
        bad[4] = value
        records += parse_kdd(_line(features=bad))
        # Record 6 + at of the parse is record ``at`` of the rows being encoded,
        # past the first chunk for the second ``at``.
        with pytest.raises(DataError) as err:
            encode(records[6:], table)
        assert str(err.value) == message.format(at=at)

    def test_first_failing_chunk_is_reported(self):
        # The records are checked a chunk at a time, so a non-finite value in a
        # high column of the first chunk wins over a non-numeric value in a
        # lower column of the second.
        records = parse_kdd("\n".join(_line() for _ in range(CHUNK_ROWS + 8)))
        table = fit_encoding(records)
        non_finite = ["0"] * N_FEATURES
        non_finite[40] = "inf"
        non_numeric = ["0"] * N_FEATURES
        non_numeric[4] = "abc"
        records[1] = parse_kdd(_line(features=non_finite))[0]
        records[CHUNK_ROWS + 2] = parse_kdd(_line(features=non_numeric))[0]
        with pytest.raises(DataError) as err:
            encode(records, table)
        assert str(err.value) == (
            "non-finite value 'inf' in numeric column 40 (dst_host_srv_rerror_rate), record 1"
        )

    def test_rows_dropped_by_subsample_are_not_checked(self, tmp_path, monkeypatch, capsys):
        # 10 of 90 Normal, 9 DoS and 1 R2L rows: the largest-remainder split
        # gives the R2L row no place, so its non-finite value is never encoded.
        bad = ["0"] * N_FEATURES
        bad[4] = "nan"
        lines = [_line()] * 90 + [_line("neptune")] * 9 + [_line("guess_passwd", bad)]
        corpus = "\n".join(lines).encode("utf-8")
        assert _prepare(tmp_path, monkeypatch, corpus, "--subsample", "10") == 0
        assert "nan" not in (tmp_path / "out" / "prepare_data.csv").read_text()
        assert _prepare(tmp_path, monkeypatch, corpus, "--subsample", "0") == 2
        assert "non-finite value 'nan' in numeric column 4 (src_bytes), record 99" in capsys.readouterr().err


class TestSubsampleReads:
    """``prepare --subsample`` reads the data twice: the attack names of
    every record, then only the drawn records."""

    def test_kept_records_are_the_full_parse_at_the_drawn_indices(self):
        # One mark, comment and blank lines, padded fields, upper-case
        # names, 42- and 43-field rows.
        text = BOM + awkward_corpus().decode("utf-8")
        full = parse_kdd(text)
        labels = parse_labels(io.StringIO(text))
        assert labels == [r.label for r in full]
        keep = [0, 1, 5, 17, 30, len(full) - 2, len(full) - 1]
        kept = parse_kdd(io.StringIO(text), keep=keep, labels=labels)
        assert kept == [full[i] for i in keep]
        assert {len(r.line.split(",")) for r in kept} == {N_FEATURES + 1, N_FEATURES + 2}

    def test_subsample_above_the_row_count_keeps_every_record(self, tmp_path, monkeypatch, capsys):
        assert _prepare(tmp_path, monkeypatch, awkward_corpus(), "--subsample", "1000") == 0
        assert "note: subsample 1000 exceeds 48 rows; keeping all" in capsys.readouterr().err
        text = (tmp_path / "out" / "prepare_data.csv").read_text(encoding="utf-8")
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        assert rows == [r.line for r in parse_kdd(awkward_corpus().decode("utf-8"))]

    @pytest.mark.parametrize("bad, message", [
        (",".join(["0"] * 40), "line 101: expected 42 or 43 fields, got 40"),
        (_line("guess_passwd", difficulty="x"), "line 101: difficulty field is not an integer: 'x'"),
    ])
    def test_dropped_malformed_line_fails_before_any_artifact(self, tmp_path, monkeypatch, capsys,
                                                              bad, message):
        # The last line stands where the one R2L record would, which gets no
        # place in a subsample of 10 (as in TestErrorOrder); it is still checked.
        lines = [_line()] * 90 + [_line("neptune")] * 9 + ["# r2l", bad]
        assert _prepare(tmp_path, monkeypatch, "\n".join(lines).encode(), "--subsample", "10") == 2
        assert f"data error: {message}" in capsys.readouterr().err
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("change, message", [
        (lambda lines: lines[:-1], "the file changed while it was being read (100 records, now 99)"),
        (lambda lines: [line.replace(",normal,", ",back,") for line in lines],
         "the file changed while it was being read (the record was 'normal', now 'back')"),
    ])
    def test_data_changed_between_the_reads_exits_2(self, tmp_path, monkeypatch, capsys,
                                                     change, message):
        lines = [_line()] * 90 + [_line("neptune")] * 10
        data = tmp_path / "corpus.csv"

        def first_read(source):
            labels = parse_labels(source)
            data.write_text("\n".join(change(lines)), encoding="utf-8")
            return labels

        monkeypatch.setattr(cli, "parse_labels", first_read)
        assert _prepare(tmp_path, monkeypatch, "\n".join(lines).encode(), "--subsample", "10") == 2
        assert message in capsys.readouterr().err
        assert not list((tmp_path / "out").iterdir())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_refused(self, tmp_path, monkeypatch, capsys):
        # A pipe reads empty or blocks the second time; refuse it instead.
        os.mkfifo(tmp_path / "pipe")
        corpus = "\n".join([_line()] * 90 + [_line("neptune")] * 10)
        writer = threading.Thread(target=(tmp_path / "pipe").write_text, args=(corpus,), daemon=True)
        writer.start()
        monkeypatch.chdir(tmp_path)
        assert main(["prepare", "--data", "pipe", "--out", "out", "--subsample", "10"]) == 2
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert "data error: pipe: --subsample reads it twice, so it must be a regular file" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_string_splits_into_lines_as_a_file_read_does(tmp_path, separator):
    # Only \n, \r\n and \r end a line of a text file; str.splitlines also
    # breaks at these.
    features = ["0"] * N_FEATURES
    features[2] = f"ht{separator}tp"
    text = "\r\n".join([_line(), _line(features=features), _line("smurf")]) + "\r"
    path = tmp_path / "corpus.csv"
    path.write_bytes(text.encode("utf-8"))
    with path.open(encoding="utf-8") as stream:
        from_file = parse_kdd(stream)
    assert len(from_file) == 3
    assert parse_kdd(text) == from_file == parse_kdd(io.StringIO(text, newline=None))
    assert from_file[1].line.split(",")[2] == f"ht{separator}tp"


def test_column_split_is_the_per_line_split():
    # Fitting and encoding split the lines a chunk at a time; the matrix and
    # the codes must be those of a split of each line on its own.
    rng = np.random.default_rng(4)
    lines = []
    for i in range(CHUNK_ROWS + 1):
        features = [str(v) for v in rng.integers(0, 4, N_FEATURES)]
        features[1] = ("tcp", "udp", "icmp")[i % 3]
        lines.append(_line(("normal", "smurf", "satan")[i % 3], features,
                           difficulty=str(i % 22) if i % 2 else None))
    records = parse_kdd("\n".join(lines))
    table = fit_encoding(records)
    encoded = encode(records, table)
    rows = [line.split(",") for line in lines]
    assert table.columns == {1: {"tcp": 0, "udp": 1, "icmp": 2}}
    expected = [[table.columns[1][v] if col == 1 else float(v)
                 for col, v in enumerate(row[:N_FEATURES])] for row in rows]
    assert encoded.rows.tolist() == expected
    assert encoded.labels.tolist() == [map_label(row[N_FEATURES]) for row in rows]


def test_encoded_text_is_the_row_wise_repr():
    # More rows than a chunk, and a column with more distinct values than a
    # one-byte index holds.
    n = CHUNK_ROWS + 60
    rng = np.random.default_rng(0)
    rows = rng.choice([0.0, -0.0, 0.1, 1 / 3, 1.0, 5e-324, 0.30000000000000004], size=(n, 5))
    rows[:, 3] = rng.random(n)
    dataset = Dataset(rows, rng.integers(0, len(CLASS_NAMES), size=n))
    expected = "".join(
        ",".join(repr(float(v)) for v in row) + f",{label}\n"
        for row, label in zip(dataset.rows, dataset.labels)
    )
    text = "".join(encoded_lines(dataset))
    assert text == expected
    assert "-0.0," in text and ",0.0," in text


@pytest.mark.parametrize("corpus", ["synth", "awkward"])
@pytest.mark.parametrize("subsample", ["0", "20"])
def test_read_encoded_is_the_rederived_matrix(tmp_path, monkeypatch, synth_csv, corpus, subsample):
    # The matrix select loads must be, bit for bit, the one the prepared records give.
    data = synth_csv.encode("utf-8") if corpus == "synth" else awkward_corpus()
    assert _prepare(tmp_path, monkeypatch, data, "--subsample", subsample) == 0
    with open("out/prepare_data.csv", encoding="utf-8") as stream:
        records = parse_kdd(stream)
    raw = encode(records, fit_encoding(records))
    expected = apply_normalize(raw, fit_normalize(raw))
    with open("out/prepare_encoded.csv", encoding="utf-8") as stream:
        loaded = read_encoded(stream, "prepare_encoded.csv")
    assert loaded.rows.tobytes() == expected.rows.tobytes()
    assert loaded.labels.tobytes() == expected.labels.tobytes()
    assert loaded.n_rows == (len(records) if subsample == "0" else 20)
