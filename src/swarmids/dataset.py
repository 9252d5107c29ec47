"""NSL-KDD ingestion: parsing, categorical encoding, label mapping,
min-max normalization, and stratified sampling/folding.

A parsed record stays one canonical text line until a stage encodes it.
Fitting and encoding each read the lines ``CHUNK_ROWS`` records at a
time, the numbers with ``np.loadtxt``, and ``encode`` fills one matrix
that ``apply_normalize`` then scales in place. To subsample, ``prepare``
reads the data twice: ``parse_labels`` checks every line and keeps only
the attack names the sample is drawn from, and ``parse_kdd`` then keeps
only the drawn records. Both take the source's own lines ``BLOCK_LINES``
at a time. ``parse_labels`` labels a block that a numpy pass proves plain
(``_scan``) with no Python per line; ``_record`` checks every line of any
other block and every record ``parse_kdd`` keeps.
String-valued columns are detected from the data and encoded with
deterministic first-occurrence ordinal codes. The attack-name to category
mapping ships as a versioned table under ``data/``.
"""

from __future__ import annotations

import io
import warnings
from array import array
from dataclasses import dataclass
from importlib import resources
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DataWarning, ParseError, UnknownLabelError

CLASS_NAMES = ("Normal", "DoS", "Probe", "U2R", "R2L")

FEATURE_NAMES = (
    "duration", "protocol_type", "service", "flag", "src_bytes",
    "dst_bytes", "land", "wrong_fragment", "urgent", "hot",
    "num_failed_logins", "logged_in", "num_compromised", "root_shell",
    "su_attempted", "num_root", "num_file_creations", "num_shells",
    "num_access_files", "num_outbound_cmds", "is_host_login",
    "is_guest_login", "count", "srv_count", "serror_rate",
    "srv_serror_rate", "rerror_rate", "srv_rerror_rate", "same_srv_rate",
    "diff_srv_rate", "srv_diff_host_rate", "dst_host_count",
    "dst_host_srv_count", "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate", "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate", "dst_host_serror_rate",
    "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
)

N_FEATURES = len(FEATURE_NAMES)


def _load_attack_table() -> dict[str, int]:
    table = {}
    text = resources.files("swarmids.data").joinpath("attack_categories.tsv").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, category = line.split("\t")
        table[name] = CLASS_NAMES.index(category)
    return table


ATTACK_CATEGORIES: dict[str, int] = _load_attack_table()


class Record(NamedTuple):
    """One connection record as its canonical line: fields stripped, attack
    name lower-cased, a trailing difficulty score written as a plain integer
    (metadata, never a feature). ``label`` is the attack name. A stage splits
    the line into fields only when it encodes the record."""

    line: str
    label: str


CHUNK_ROWS = 1024  # records that fitting, encoding and encoded_lines take at a time


def _chunks(records: Sequence[Record]) -> Iterator[tuple[int, list[str]]]:
    """(index of the first record, their lines) for each ``CHUNK_ROWS`` records."""
    for start in range(0, len(records), CHUNK_ROWS):
        yield start, [r.line for r in records[start:start + CHUNK_ROWS]]


def _columns(lines: Sequence[str], top: int) -> list[list[str]]:
    """The first ``top`` fields of each of ``lines`` (each has more), as columns."""
    fields = list(chain.from_iterable(line.split(",", top) for line in lines))
    return [fields[col::top + 1] for col in range(top)]


_PADDING = "\x1c\x1d\x1e\x1f"  # np.loadtxt strips these around a number; float does not


def _numbers(lines: Sequence[str], cols: Sequence[int] | None) -> np.ndarray | None:
    """Columns ``cols`` (None: all) of the comma-separated ``lines``, one
    row per line, read by one ``np.loadtxt`` call; or None where it refuses
    them, a line is blank (it skips those) or a value is not finite, so that
    the caller's per-value path judges them with ``float``.

    ``np.loadtxt`` refuses some strings that ``float`` reads, such as
    ``1_0`` and ``١``, and reads those it accepts to ``float``'s bits. Of
    the edge strings tried (signs, ``nan``, ``1e400``, subnormals, padding
    and separators), the one it accepts and ``float`` refuses is a number
    padded with ``_PADDING``, so lines holding that go to the caller too.
    ``np.loadtxt`` warns on lines that are all blank, hence the first test.
    """
    text = "".join(lines)
    if not text.strip("\r\n") or any(c in text for c in _PADDING):
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", usecols=cols, comments=None, ndmin=2)
    except ValueError:
        return None
    if len(values) != len(lines) or not np.isfinite(values).all():
        return None
    return values


@dataclass(frozen=True)
class EncodingTable:
    """Per-column value-to-code maps for string-valued columns.

    Codes are contiguous from 0 in first-occurrence order. Values unseen
    at fit time encode to ``len(column map)``.
    """

    columns: Mapping[int, Mapping[str, int]]
    fitted_on: str = "unspecified"


def _freeze_rows(rows: np.ndarray) -> np.ndarray:
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    rows.setflags(write=False)
    return rows


def check_labels(labels: np.ndarray, what: str) -> None:
    """Raise ``DataError`` unless every label indexes ``CLASS_NAMES``."""
    bad = labels[(labels < 0) | (labels >= len(CLASS_NAMES))]
    if bad.size:
        raise DataError(f"{what} {bad[0]} is outside the classes {CLASS_NAMES}")


@dataclass(frozen=True)
class Dataset:
    """Encoded feature matrix with integer labels indexing ``CLASS_NAMES``.

    Immutable after construction; safe to share across worker threads.
    """

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        rows = _freeze_rows(self.rows)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        labels.setflags(write=False)
        if rows.ndim != 2:
            raise DataError("rows must be a 2-d matrix")
        if labels.shape != (rows.shape[0],):
            raise DataError("labels length must match row count")
        if not np.isfinite(rows).all():
            raise DataError("rows must be finite")
        check_labels(labels, "label")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        """Materialize an index view as a new Dataset."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.rows[idx], self.labels[idx])


class Encoded(NamedTuple):
    """What ``encode`` returns: the unnormalized matrix, which the caller
    owns and ``apply_normalize`` scales in place, and the class labels."""

    rows: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class NormStats:
    """Per-feature min/max fitted on training rows only."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = _freeze_rows(np.atleast_2d(self.mins))[0]
        maxs = _freeze_rows(np.atleast_2d(self.maxs))[0]
        if np.any(maxs < mins):
            raise DataError("per-feature max must be >= min")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)


def _canonical_tail(tail: str) -> tuple[str, str]:
    """A record's trailing fields (attack name, optional difficulty) in
    canonical form, and the attack name. Raises ``ValueError`` if the
    difficulty is not an integer."""
    name, comma, difficulty = tail.partition(",")
    label = name.lower()
    if comma:
        difficulty = str(int(difficulty))
    return label + comma + difficulty, label


BLOCK_LINES = 2048  # lines the block reader takes from a source at a time
TAIL_BYTES = 32  # longest attack name and difficulty a plain line may end in
_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5],
                dtype=np.uint64)  # odd multipliers that hash a tail's words


def _blocks(source: Iterable[str] | str) -> Iterator[tuple[int, list[str], bool]]:
    """The lines of ``source``, ``BLOCK_LINES`` at a time, as the number of
    the first, the lines, and whether the source is a text stream. The
    lines are the ones the source yields; a string is read as a text stream
    opened with ``newline=None``, which splits at ``\\n``, ``\\r\\n`` and
    ``\\r``. One byte-order mark (U+FEFF) at the very start is dropped. A
    text stream's last line is ended with a newline."""
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    is_text = isinstance(source, io.TextIOBase)
    lines = iter(source)
    first = 1
    while batch := list(islice(lines, BLOCK_LINES)):
        if first == 1:
            batch[0] = batch[0].removeprefix("\ufeff")
        if is_text and not batch[-1].endswith("\n"):
            batch[-1] += "\n"
        yield first, batch, is_text
        first += len(batch)


def _record_lines(lines: list[str]) -> list[int]:
    """The index of each of ``lines`` that is neither blank nor a ``#``
    comment, so holds a record."""
    return [i for i, line in enumerate(lines) if (text := line.strip()) and text[0] != "#"]


def _scan(lines: list[str], tails: dict[str, tuple[str, str]]) -> list[str] | None:
    """The attack name on each of ``lines``, a text stream's, if every line
    is plain, else None.

    A plain line is ASCII with no byte up to a space but its one newline
    at the end, so without it the line is its own stripped text; it is
    neither blank nor a ``#`` comment, has 42 or 43 fields, and its tail
    (attack name and any difficulty) fits in ``TAIL_BYTES``. ``_record``
    would check only its tail, so each distinct tail goes through
    ``_canonical_tail`` once here. A difficulty that is not an integer
    makes the block not plain, so that ``_record`` names its line.
    """
    text = "".join(lines)
    if not text.isascii():
        return None
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    if len(ends) != len(lines) or np.count_nonzero(data <= ord(" ")) != len(ends):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (starts == ends).any() or (data[starts] == ord("#")).any():
        return None
    commas = np.flatnonzero(data == ord(","))
    upto = np.searchsorted(commas, ends)  # commas before each line's end
    since = np.concatenate(([0], upto[:-1]))  # commas before its start
    fields = upto - since + 1
    if ((fields != N_FEATURES + 1) & (fields != N_FEATURES + 2)).any():
        return None
    cut = commas[since + N_FEATURES - 1]  # the comma before the attack name
    width = ends - cut - 1
    if (width > TAIL_BYTES).any():
        return None
    # Each line's tail, right-aligned in its last TAIL_BYTES with NUL before
    # it, as words. Distinct tails are found by a checked hash of the words:
    # np.unique sorts one uint64 per line faster than 32-byte rows.
    grid = sliding_window_view(data, TAIL_BYTES)[ends - TAIL_BYTES]
    grid *= np.arange(TAIL_BYTES) >= TAIL_BYTES - width[:, None]
    words = grid.view(np.uint64)
    _, seen, inverse = np.unique(words @ _MIX, return_index=True, return_inverse=True)
    if (words[seen][inverse] != words).any():
        return None  # two tails share a hash
    names = []
    for tail in grid[seen].view(f"S{TAIL_BYTES}").ravel().tolist():
        tail = tail.lstrip(b"\0").decode("ascii")
        if tail not in tails:
            try:
                tails[tail] = _canonical_tail(tail)
            except ValueError:
                return None
        names.append(tails[tail][1])
    return np.array(names, dtype=object)[inverse].tolist()


def _record(text: str, line_no: int, tails: dict[str, tuple[str, str]]) -> Record:
    """The record on one stripped record line, checked and canonical. Only
    a line holding whitespace is split, to strip its fields. ``tails``
    holds the canonical form of each (attack name, difficulty) tail seen."""
    n_fields = text.count(",") + 1
    if n_fields not in (N_FEATURES + 1, N_FEATURES + 2):
        raise ParseError(
            f"expected {N_FEATURES + 1} or {N_FEATURES + 2} fields, got {n_fields}",
            line_no,
        )
    line = text
    if len(text.split(None, 1)) > 1:
        line = ",".join(field.strip() for field in text.split(","))
    cut = line.rindex(",")
    if n_fields == N_FEATURES + 2:
        cut = line.rindex(",", 0, cut)
    tail = line[cut + 1:]
    if tail not in tails:
        try:
            tails[tail] = _canonical_tail(tail)
        except ValueError:
            raw = text.rpartition(",")[2]
            raise ParseError(f"difficulty field is not an integer: {raw!r}", line_no) from None
    canonical, label = tails[tail]
    if canonical != tail:
        line = line[: cut + 1] + canonical
    return Record(line, label)


def parse_labels(source: Iterable[str] | str) -> list[str]:
    """The attack name of every record, each line checked as ``parse_kdd``
    checks it. With these a subsample is drawn before any record is kept.
    A plain block (see ``_scan``) is labelled whole; ``_record`` reads the
    lines of any other."""
    tails: dict[str, tuple[str, str]] = {}
    labels: list[str] = []
    for first, lines, is_text in _blocks(source):
        plain = _scan(lines, tails) if is_text else None
        if plain is not None:
            labels += plain
        else:
            labels += [_record(lines[j].strip(), first + j, tails).label
                       for j in _record_lines(lines)]
    return labels


def parse_kdd(
    source: Iterable[str] | str,
    keep: Iterable[int] | None = None,
    labels: Sequence[str] | None = None,
) -> list[Record]:
    """Parse comma-separated NSL-KDD lines (42 or 43 fields) into records.

    Accepts an open text file, any iterable of lines, or a whole string.
    One byte-order mark (U+FEFF) at the very start is skipped. Blank lines
    and ``#`` comment lines are skipped. A 43rd field is the difficulty
    score and must be an integer.

    By default every line is checked and every record returned. With
    ``keep`` (record indices, counted from 0 over records, not lines),
    only those records are checked and returned, in file order; any other
    line is only tested for being blank or a comment. ``labels`` must then
    be what ``parse_labels`` read from the same data: a record count or a
    kept attack name that differs from it raises ``DataError``, as the
    data changed between the two reads.
    """
    tails: dict[str, tuple[str, str]] = {}  # few distinct (name, difficulty) pairs
    records: list[Record] = []
    wanted = None if keep is None else np.unique(np.fromiter(keep, dtype=np.int64))
    count = 0  # records before the block
    for first, lines, _ in _blocks(source):
        at = _record_lines(lines)  # the line of each record in the block
        if wanted is None:
            picks = range(len(at))
        else:
            lo, hi = np.searchsorted(wanted, (count, count + len(at)))
            picks = (wanted[lo:hi] - count).tolist()
        for i in picks:
            line_no = first + at[i]
            record = _record(lines[at[i]].strip(), line_no, tails)
            if wanted is not None and record.label != labels[count + i]:
                raise DataError(
                    f"line {line_no}: the file changed while it was being read "
                    f"(the record was {labels[count + i]!r}, now {record.label!r})"
                )
            records.append(record)
        count += len(at)
    if wanted is not None and count != len(labels):
        raise DataError(
            f"the file changed while it was being read ({len(labels)} records, now {count})"
        )
    return records


def map_label(name: str) -> int:
    """Map an attack name to its class index in ``CLASS_NAMES``."""
    try:
        return ATTACK_CATEGORIES[name.strip().lower()]
    except KeyError:
        raise UnknownLabelError(name) from None


def _is_float(value: str) -> bool:
    try:
        float(value)
    except ValueError:
        return False
    return True


def class_labels(names: Sequence[str]) -> np.ndarray:
    """Class index of each attack name; each distinct name is mapped once."""
    codes = {name: map_label(name) for name in dict.fromkeys(names)}
    return np.fromiter(map(codes.__getitem__, names), dtype=np.int64, count=len(names))


def fit_encoding(records: Sequence[Record], fitted_on: str = "unspecified") -> EncodingTable:
    """Build first-occurrence ordinal code maps for string-valued columns.

    A column is categorical when it holds at least one non-numeric value.
    The records are read ``CHUNK_ROWS`` at a time, and each chunk's
    distinct values extend the codes. A chunk whose numeric columns
    ``_numbers`` reads adds no categorical column; ``float`` judges every
    value of any other. A column whose first non-number comes after the
    first chunk is read again from the first record, so its codes still
    count from there.
    """
    if not len(records):
        raise DataError("cannot fit an encoding on zero records")
    maps: dict[int, dict[str, int]] = {}
    for start, lines in _chunks(records):
        numeric = [col for col in range(N_FEATURES) if col not in maps]
        checked = not numeric or _numbers(lines, numeric) is not None
        top = max(maps, default=-1) + 1 if checked else N_FEATURES
        for col, values in enumerate(_columns(lines, top)):
            mapping = maps.get(col)
            if mapping is None:
                if checked or all(map(_is_float, set(values))):
                    continue
                mapping = maps[col] = {}
                values = chain((r.line.split(",", col + 1)[col] for r in records[:start]), values)
            for value in dict.fromkeys(values):
                mapping.setdefault(value, len(mapping))
    return EncodingTable(columns=dict(sorted(maps.items())), fitted_on=fitted_on)


def _float_columns(block: np.ndarray, lines: Sequence[str], cols: Sequence[int],
                   start: int) -> None:
    """Fill ``block``'s columns ``cols`` from ``lines`` a column at a time
    with ``float``. The first column holding a non-number, else the first
    record holding a non-finite value, raises ``DataError``; ``start`` is
    the index of the first record."""
    columns = _columns(lines, N_FEATURES)
    for col in cols:
        values = columns[col]
        try:
            block[:, col] = np.asarray(values, dtype=np.float64)
        except ValueError:
            bad = next(i for i, v in enumerate(values) if not _is_float(v))
            raise DataError(
                f"non-numeric value {values[bad]!r} in numeric column "
                f"{col} ({FEATURE_NAMES[col]}), record {start + bad}"
            ) from None
    finite = np.isfinite(block)
    if not finite.all():
        record, col = (int(i) for i in np.argwhere(~finite)[0])
        raise DataError(
            f"non-finite value {columns[col][record]!r} in numeric column "
            f"{col} ({FEATURE_NAMES[col]}), record {start + record}"
        )


def encode(records: Sequence[Record], table: EncodingTable) -> Encoded:
    """Encode records to a numeric matrix (unnormalized) plus class labels.

    The matrix is allocated once and filled ``CHUNK_ROWS`` records at a
    time: codes from each line split up to its last categorical column,
    numbers by ``_numbers``, or by ``float`` where ``_numbers`` gives up. An
    error names the record's index in ``records``.
    """
    labels = class_labels([r.label for r in records])
    rows = np.empty((len(records), N_FEATURES), dtype=np.float64)
    numeric = [col for col in range(N_FEATURES) if col not in table.columns]
    top = max(table.columns, default=-1) + 1
    for start, lines in _chunks(records):
        block = rows[start:start + len(lines)]
        columns = _columns(lines, top)
        # Codes first: _float_columns checks the whole block for finite values.
        for col, mapping in table.columns.items():
            unseen = len(mapping)
            block[:, col] = [mapping.get(v, unseen) for v in columns[col]]
        if not numeric:
            continue
        values = _numbers(lines, numeric)
        if values is None:
            _float_columns(block, lines, numeric, start)
        else:
            block[:, numeric] = values
    return Encoded(rows, labels)


def fit_normalize(dataset: Dataset | Encoded) -> NormStats:
    """Fit per-feature min/max. Call on training rows only."""
    return NormStats(dataset.rows.min(axis=0), dataset.rows.max(axis=0))


def apply_normalize(dataset: Dataset | Encoded, stats: NormStats) -> Dataset:
    """Min-max scale to [0, 1] with clipping; degenerate features map to 0.

    An ``Encoded`` matrix is scaled in place and becomes the returned
    ``Dataset``'s read-only rows, so it can be normalized only once. A
    ``Dataset``'s rows are copied first and stay as they were.
    """
    span = stats.maxs - stats.mins
    live = span > 0
    scaled = dataset.rows if isinstance(dataset, Encoded) else dataset.rows.copy()
    scaled -= stats.mins
    scaled /= np.where(live, span, 1.0)
    scaled[:, ~live] = 0.0
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return Dataset(scaled, dataset.labels)


def stratified_sample_indices(labels: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Pick ``n`` row indices preserving class proportions within one row.

    Deterministic for a fixed seed; result is sorted ascending.
    """
    labels = np.asarray(labels)
    total = labels.shape[0]
    if n <= 0:
        raise DataError("subsample size must be positive")
    if n > total:
        raise DataError(f"subsample size {n} exceeds row count {total}")
    if n == total:
        return np.arange(total, dtype=np.int64)
    rng = np.random.default_rng(seed)
    classes, counts = np.unique(labels, return_counts=True)
    exact = counts * (n / total)
    base = np.floor(exact).astype(np.int64)
    remainder = n - int(base.sum())
    # Hand out leftover rows by largest fractional part, class index breaking ties.
    order = np.lexsort((np.arange(len(classes)), -(exact - base)))
    for j in order[:remainder]:
        base[j] += 1
    picks = []
    for cls, take in zip(classes, base):
        pool = np.flatnonzero(labels == cls)
        if take > 0:
            picks.append(rng.choice(pool, size=int(take), replace=False))
    return np.sort(np.concatenate(picks).astype(np.int64))


def stratified_fold_indices(
    labels: np.ndarray, k: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold split over label array; returns (train, test) index
    pairs. Test folds partition the full index set.

    A class with fewer than ``k`` rows is spread best-effort over the first
    folds and a ``DataWarning`` is emitted.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise DataError("k must be at least 2")
    if k > labels.shape[0]:
        raise DataError(f"k={k} exceeds row count {labels.shape[0]}")
    rng = np.random.default_rng(seed)
    buckets: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in np.unique(labels):
        pool = rng.permutation(np.flatnonzero(labels == cls))
        if pool.shape[0] < k:
            warnings.warn(
                f"class {cls} has {pool.shape[0]} rows < k={k}; "
                "distributing best-effort",
                DataWarning,
                stacklevel=2,
            )
        for fold, chunk in enumerate(np.array_split(pool, k)):
            buckets[fold].append(chunk)
    all_idx = np.arange(labels.shape[0], dtype=np.int64)
    folds = []
    for fold in range(k):
        test = np.sort(np.concatenate(buckets[fold]).astype(np.int64))
        train = np.setdiff1d(all_idx, test, assume_unique=True)
        folds.append((train, test))
    return folds


def class_histogram(labels: np.ndarray) -> dict[str, int]:
    """Row count per class name, including absent classes."""
    labels = np.asarray(labels)
    return {name: int(np.sum(labels == i)) for i, name in enumerate(CLASS_NAMES)}


# --- human-readable artifact files -------------------------------------------

def encoding_to_text(table: EncodingTable) -> str:
    """Serialize an encoding table as auditable key=value lines."""
    lines = [f"fitted_on={table.fitted_on}"]
    for col in sorted(table.columns):
        mapping = table.columns[col]
        lines.append(f"column.{col}.name={FEATURE_NAMES[col]}")
        for value, code in mapping.items():
            if "=" in value or "\n" in value:
                raise DataError(f"cannot serialize categorical value {value!r}")
            lines.append(f"column.{col}.code.{value}={code}")
    return "\n".join(lines) + "\n"


def encoded_lines(dataset: Dataset) -> Iterator[str]:
    """One CSV line per row, newline included: every value's float repr,
    then the label index. Lines are formatted ``CHUNK_ROWS`` rows at a
    time as they are consumed, so a writer never holds the whole text.

    Each distinct value of a column (by bit pattern, so -0.0 and 0.0 stay
    apart) goes through ``repr`` once.
    """
    columns = []
    for values in dataset.rows.T:
        bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        # np.unique's int64 indices would be as large as the matrix; they set
        # prepare's peak (139 against 117 MB on 125,973 rows), so take the smallest type.
        columns.append((texts, inverse.astype(np.min_scalar_type(len(bits)))))
    labels = dataset.labels.tolist()
    for start in range(0, dataset.n_rows, CHUNK_ROWS):
        stop = start + CHUNK_ROWS
        chunk = [texts[inverse[start:stop]].tolist() for texts, inverse in columns]
        chunk.append([f"{label}\n" for label in labels[start:stop]])
        yield from map(",".join, zip(*chunk))


def _read_rows(lines: list[str], first: int, name: str, values: array) -> None:
    """Append to ``values`` the values and label on each of ``lines``, the
    first of which is line ``first`` of the file ``name``: by ``_numbers``,
    or else by ``float``, which raises ``DataError`` at the first line that
    is not 42 numbers."""
    table = _numbers(lines, None)
    if table is not None and table.shape[1] == N_FEATURES + 1:
        values.frombytes(table.tobytes())
        return
    for line_no, line in enumerate(lines, start=first):
        fields = line.split(",")
        try:
            if len(fields) != N_FEATURES + 1:
                raise ValueError(f"{len(fields)} fields, not {N_FEATURES} values and a label")
            values.extend(map(float, fields))
        except ValueError as exc:
            raise DataError(f"{name}: line {line_no}: {exc}") from None


def read_encoded(lines: Iterable[str], name: str) -> Dataset:
    """The rows and labels ``encoded_lines`` wrote to the file ``name``, read
    from its lines, ``#`` header lines first, ``CHUNK_ROWS`` lines at a time
    (``_read_rows``) into one flat array of doubles; either way each
    ``repr`` reads back to its bits. A row that is not 41 values in [0, 1]
    (normalization clips to it) and a class index, or no row at all, raises
    ``DataError``."""
    lines = iter(lines)
    first = 1  # the number of the chunk's first line
    for line in lines:
        if not line.startswith("#"):
            break
        first += 1
    else:
        raise DataError(f"{name}: no rows")
    rest = chain([line], lines)
    values = array("d")
    while chunk := list(islice(rest, CHUNK_ROWS)):
        _read_rows(chunk, first, name, values)
        first += len(chunk)
    table = np.frombuffer(values).reshape(-1, N_FEATURES + 1)
    rows, labels = table[:, :N_FEATURES], table[:, N_FEATURES]
    good = ((rows >= 0.0) & (rows <= 1.0)).all(axis=1) & np.isin(labels, range(len(CLASS_NAMES)))
    if not good.all():  # the rows are the last len(good) lines
        raise DataError(f"{name}: line {first - len(good) + int(np.argmin(good))}: a value "
                        f"outside [0, 1] or a label not in 0..{len(CLASS_NAMES) - 1}")
    return Dataset(rows, labels.astype(np.int64))


def norm_stats_to_text(stats: NormStats) -> str:
    """Serialize normalization stats; float repr round-trips exactly."""
    lines = []
    for i, (lo, hi) in enumerate(zip(stats.mins, stats.maxs)):
        lines.append(f"feature.{i}.name={FEATURE_NAMES[i] if i < N_FEATURES else i}")
        lines.append(f"feature.{i}.min={float(lo)!r}")
        lines.append(f"feature.{i}.max={float(hi)!r}")
    return "\n".join(lines) + "\n"
