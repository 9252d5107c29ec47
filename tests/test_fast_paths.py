"""The fast ingestion paths against per-line and per-value references.

``parse_labels`` labels a plain block whole; ``fit_encoding``, ``encode``
and ``read_encoded`` read numbers with ``np.loadtxt``. Each must return what a
loop over single lines or values returns, or raise the same error text.
The block size and the chunk size are cut down, so that every text spans
several blocks and columns turn categorical after the first chunk.
"""

import io
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmids import dataset
from swarmids.dataset import (
    CLASS_NAMES,
    FEATURE_NAMES,
    N_FEATURES,
    encode,
    fit_encoding,
    parse_kdd,
    parse_labels,
    read_encoded,
)
from swarmids.errors import DataError, ParseError

PADS = ("", " ", "\t", "\xa0", "\x1c")
VALUES = ("0", "1", "0.5", "tcp", "a b", "a#b", "-0")
# "x" * 37 + ",21" is a 40-byte tail; "\udcff" is a byte that a decode with
# errors="surrogateescape" could not read.
NAMES = ("normal", "NEPTUNE", "Smurf", "ñormal", "n\udcffrmal", "guess_passwd", "x" * 37)
DIFFICULTIES = (None, "21", "07", "x", "+5")
ENDINGS = ("\n", "\r\n", "\r")


@st.composite
def record_lines(draw):
    n_features = draw(st.sampled_from((N_FEATURES,) * 6 + (N_FEATURES - 1, N_FEATURES + 2)))
    pad = st.sampled_from(PADS if draw(st.booleans()) else ("",))
    fields = [draw(pad) + draw(st.sampled_from(VALUES)) + draw(pad) for _ in range(n_features)]
    fields.append(draw(pad) + draw(st.sampled_from(NAMES)) + draw(pad))
    difficulty = draw(st.sampled_from(DIFFICULTIES))
    return ",".join(fields + ([difficulty] if difficulty is not None else []))


@st.composite
def other_lines(draw):
    kind = draw(st.sampled_from(("blank", "space", "comment", "indented", "record comment")))
    if kind == "record comment":
        return "#" + draw(record_lines())
    return {"blank": "", "space": " \t", "comment": "# a comment", "indented": "  # indented"}[kind]


@st.composite
def corpora(draw):
    """A text that a parse may accept or refuse, with a byte-order mark or
    not, mixed line ends, and a last line with or without its end."""
    lines = draw(st.lists(st.one_of(record_lines(), record_lines(), other_lines()),
                          min_size=0, max_size=14))
    text = "".join(line + draw(st.sampled_from(ENDINGS)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _file(text):
    """``text`` as the CLI reads a file, decoded one byte at a time so that
    every ``\\r\\n`` straddles two decoder reads."""
    stream = io.TextIOWrapper(io.BytesIO(text.encode("utf-8", "surrogateescape")),
                              encoding="utf-8", errors="surrogateescape", newline=None)
    stream._CHUNK_SIZE = 1
    return stream


SOURCES = {
    "string": lambda text: text,
    "file": _file,
    "stream": lambda text: io.StringIO(text, newline=None),
    "untranslated stream": lambda text: io.StringIO(text, newline=""),
    "untranslated lines": lambda text: list(io.StringIO(text, newline="")),
    "lines without ends": lambda text: [
        line.rstrip("\n") for line in io.StringIO(text, newline=None)],
}


def _record_lines(text):
    """(line number, stripped text) of each record line, line by line."""
    lines = list(io.StringIO(text, newline=None))
    if lines:
        lines[0] = lines[0].removeprefix("\ufeff")
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield line_no, stripped


def _outcome(call):
    """What ``call`` returns, or the type and text of the error it raises."""
    try:
        return call()
    except (ParseError, DataError) as exc:
        return type(exc), str(exc)


@pytest.fixture(autouse=True, scope="module")
def small_blocks():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "BLOCK_LINES", 3)
        patch.setattr(dataset, "CHUNK_ROWS", 4)
        yield


def _check_parses(text, picks):
    numbered = list(_record_lines(text))
    tails = {}
    expected = _outcome(lambda: [dataset._record(line, n, tails) for n, line in numbered])
    labels = [_outcome(lambda: dataset._record(line, n, {}).label) for n, line in numbered]
    keep = sorted({i for i in picks if i < len(numbered)})
    expected_kept = _outcome(lambda: [dataset._record(text, n, {}) for n, text in
                                      (numbered[i] for i in keep)])
    for name, make in SOURCES.items():
        assert _outcome(lambda: parse_kdd(make(text))) == expected, name
        got = _outcome(lambda: parse_labels(make(text)))
        assert got == (labels if isinstance(expected, list) else expected), name
        kept = _outcome(lambda: parse_kdd(make(text), keep=keep, labels=labels))
        assert kept == expected_kept, name


@settings(max_examples=150, deadline=None)
@given(text=corpora(), picks=st.lists(st.integers(0, 13), max_size=6))
def test_parses_are_the_line_by_line_parse(text, picks):
    _check_parses(text, picks)


PLAIN = ",".join(["0"] * N_FEATURES + ["normal", "21"])

ODD = {
    "whitespace in the tail": PLAIN.replace(",normal,", ", Normal ,"),
    "whitespace line": " \t",
    "indented comment": "  # " + PLAIN,
    "comment with a record's fields": "#" + PLAIN,
    "41 fields": PLAIN.replace("0,", "", 2),
    "44 fields": PLAIN + ",3",
    "difficulty not an integer": PLAIN.replace("21", "x"),
    "lone surrogate": PLAIN.replace("normal", "n\udcffrmal"),
}


@pytest.mark.parametrize("odd", ODD.values(), ids=ODD.keys())
def test_a_block_scan_refuses_each_odd_line(odd):
    # Each odd line among plain ones, kept and dropped.
    text = "\n".join([PLAIN, PLAIN, odd, PLAIN, PLAIN, odd])
    for picks in ([], [2], [0, 3, 4]):
        _check_parses(text, picks)


def test_a_split_line_end_counts_once():
    # The "\r" ending a comment and the "\r\n" ending a blank line are two
    # line ends, wherever a read splits them; the bad record is on line 4.
    text = "#x\r\r\n" + PLAIN + "\n" + PLAIN + ",x\n"
    _check_parses(text, [0, 1])


def test_a_stream_splits_only_where_it_yields_lines():
    # A file opened with newline="\r" yields this text as one line, which
    # holds two records' fields; the scan must not split it at "\n".
    data = (PLAIN + "\n" + PLAIN + "\n").encode()
    for read in (parse_kdd, parse_labels):
        with pytest.raises(ParseError, match="got 85"):
            read(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\r"))


def test_plain_blocks_call_no_per_line_check(monkeypatch):
    # Without this, every test above would pass with the scan never used.
    records = parse_kdd("\n".join([PLAIN] * 20))
    monkeypatch.setattr(dataset, "_record", None)
    assert parse_labels("\n".join([PLAIN] * 20)) == ["normal"] * 20
    monkeypatch.setattr(dataset, "_float_columns", None)
    assert encode(records, fit_encoding(records)).rows.tolist() == [[0.0] * N_FEATURES] * 20


NUMBERS = ("0", "1", "0.5", "-0", "1e3", "1_0", "١", "nan", "-inf", "1e400", "4.9e-324")
WORDS = ("tcp", "a#b", "x", "t\udcffcp")


@st.composite
def encoded_records(draw):
    """Records of plain numbers, where some columns hold one odd number or
    word at some record, so that a column may turn categorical after the
    first chunk."""
    n = draw(st.integers(1, 13))
    columns = []
    for _ in range(N_FEATURES):
        values = draw(st.lists(st.sampled_from(NUMBERS[:5]), min_size=n, max_size=n))
        if draw(st.integers(0, 5)) == 0:
            at = draw(st.integers(0, n - 1))
            values[at] = draw(st.sampled_from(NUMBERS[5:] + WORDS))
        columns.append(values)
    lines = [",".join([*row, "normal"]) for row in zip(*columns)]
    return parse_kdd("\n".join(lines))


def _reference_fit(records):
    maps = {}
    for col in range(N_FEATURES):
        values = [r.line.split(",")[col] for r in records]
        if not all(map(dataset._is_float, values)):
            maps[col] = {v: code for code, v in enumerate(dict.fromkeys(values))}
    return maps


def _reference_encode(records, maps):
    rows = []
    for start in range(0, len(records), dataset.CHUNK_ROWS):
        chunk = [r.line.split(",")[:N_FEATURES] for r in records[start:start + dataset.CHUNK_ROWS]]
        numeric = [col for col in range(N_FEATURES) if col not in maps]
        for col in numeric:
            for i, fields in enumerate(chunk):
                if not dataset._is_float(fields[col]):
                    raise DataError(f"non-numeric value {fields[col]!r} in numeric column "
                                    f"{col} ({FEATURE_NAMES[col]}), record {start + i}")
        for i, fields in enumerate(chunk):
            for col in numeric:
                if not math.isfinite(float(fields[col])):
                    raise DataError(f"non-finite value {fields[col]!r} in numeric column "
                                    f"{col} ({FEATURE_NAMES[col]}), record {start + i}")
        rows += [[maps[col].get(v, len(maps[col])) if col in maps else float(v)
                  for col, v in enumerate(fields)] for fields in chunk]
    return np.array(rows, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(records=encoded_records(), fitted=st.integers(1, 13))
def test_encoding_is_the_per_value_encoding(records, fitted):
    # Fitting on a prefix leaves words in columns it saw as numeric.
    prefix = records[:fitted]
    table = fit_encoding(prefix)
    maps = _reference_fit(prefix)
    assert table.columns == maps
    expected = _outcome(lambda: _reference_encode(records, maps))
    assert _outcome(lambda: encode(records, table).rows.tobytes()) == expected


def _reference_read(lines, name):
    values = array("d")
    line_no = 0
    for line_no, line in enumerate(lines, start=1):
        if not values and line.startswith("#"):
            continue
        fields = line.split(",")
        try:
            if len(fields) != N_FEATURES + 1:
                raise ValueError(f"{len(fields)} fields, not {N_FEATURES} values and a label")
            values.extend(map(float, fields))
        except ValueError as exc:
            raise DataError(f"{name}: line {line_no}: {exc}") from None
    if not values:
        raise DataError(f"{name}: no rows")
    table = np.frombuffer(values).reshape(-1, N_FEATURES + 1)
    rows, labels = table[:, :N_FEATURES], table[:, N_FEATURES]
    good = ((rows >= 0.0) & (rows <= 1.0)).all(axis=1) & np.isin(labels, range(len(CLASS_NAMES)))
    if not good.all():
        raise DataError(f"{name}: line {line_no - len(good) + int(np.argmin(good)) + 1}: a value "
                        f"outside [0, 1] or a label not in 0..{len(CLASS_NAMES) - 1}")
    return rows.tobytes(), labels.astype(np.int64).tobytes()


CELLS = ("0.0", "1.0", "0.25", "-0.0", " 0.5", "5e-324") * 4 + (
    "1_0", "١", "nan", "-inf", "1e400", "\x1c0.5", "0.5\x1f", "", "x", "0\udcff")


@st.composite
def encoded_files(draw):
    lines = ["# header\n"] * draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 11))):
        kind = draw(st.integers(0, 15))
        if kind == 0:
            lines.append("\n")
        elif kind == 1:
            lines.append("# late\n")
        else:
            width = {2: N_FEATURES - 1, 3: N_FEATURES + 1}.get(kind, N_FEATURES)
            cells = [draw(st.sampled_from(CELLS)) for _ in range(width)]
            label = draw(st.sampled_from(("0", "4", "3.0", "5", "١", "-0")))
            lines.append(",".join([*cells, label]) + "\n")
    if len(lines) > 1 and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")
    return lines


@settings(max_examples=150, deadline=None)
@given(lines=encoded_files())
def test_read_encoded_is_the_per_value_read(lines):
    expected = _outcome(lambda: _reference_read(lines, "f.csv"))

    def read():
        dataset_ = read_encoded(iter(lines), "f.csv")
        return dataset_.rows.tobytes(), dataset_.labels.tobytes()

    assert _outcome(read) == expected
