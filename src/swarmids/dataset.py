"""NSL-KDD ingestion: parsing, categorical encoding, label mapping,
min-max normalization, and stratified sampling/folding.

A parsed record stays one canonical text line until a stage encodes it.
Fitting and encoding each split the lines ``CHUNK_ROWS`` records at a
time, and ``encode`` fills one matrix that ``apply_normalize`` then scales
in place. To subsample, ``prepare`` reads the data twice: ``parse_labels``
checks every line and keeps only the attack names the sample is drawn
from, and ``parse_kdd`` then keeps only the drawn records. String-valued
columns are detected from the data and encoded with deterministic
first-occurrence ordinal codes. The attack-name to category mapping ships
as a versioned table under ``data/``.
"""

from __future__ import annotations

import io
import warnings
from array import array
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

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


def _chunks(records: Sequence[Record]) -> Iterator[tuple[int, list[list[str]]]]:
    """(index of the first record, its 41 feature columns) for each
    ``CHUNK_ROWS`` records, split from their lines; no more than one
    chunk's fields exist at a time."""
    width = N_FEATURES + 1  # maxsplit leaves the features, then the label and any difficulty
    for start in range(0, len(records), CHUNK_ROWS):
        chunk = records[start:start + CHUNK_ROWS]
        fields = list(chain.from_iterable(r.line.split(",", N_FEATURES) for r in chunk))
        yield start, [fields[col::width] for col in range(N_FEATURES)]


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


def _canonical_tail(tail: str, text: str, line_no: int) -> tuple[str, str]:
    """A record's trailing fields (attack name, optional difficulty) in
    canonical form, and the attack name; ``text`` is the stripped line."""
    name, comma, difficulty = tail.partition(",")
    label = name.lower()
    if comma:
        try:
            difficulty = str(int(difficulty))
        except ValueError:
            raw = text.rpartition(",")[2]
            raise ParseError(f"difficulty field is not an integer: {raw!r}", line_no) from None
    return label + comma + difficulty, label


def _record_lines(source: Iterable[str] | str) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each record line of ``source``.

    One byte-order mark (U+FEFF) at the very start is skipped, and so are
    blank lines and ``#`` comment lines. A string is split into lines as a
    text file read splits them: at ``\\n``, ``\\r\\n`` and ``\\r`` only.
    """
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else iter(source)
    first = next(lines, "").removeprefix("\ufeff")
    for line_no, line in enumerate(chain([first], lines), start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield line_no, text


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
        tails[tail] = _canonical_tail(tail, text, line_no)
    canonical, label = tails[tail]
    if canonical != tail:
        line = line[: cut + 1] + canonical
    return Record(line, label)


def parse_labels(source: Iterable[str] | str) -> list[str]:
    """The attack name of every record, each line checked as ``parse_kdd``
    checks it. With these a subsample is drawn before any record is kept."""
    tails: dict[str, tuple[str, str]] = {}
    return [_record(text, line_no, tails).label for line_no, text in _record_lines(source)]


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
    lines = _record_lines(source)
    if keep is None:
        return [_record(text, line_no, tails) for line_no, text in lines]
    wanted = set(keep)
    records: list[Record] = []
    index = -1
    for index, (line_no, text) in enumerate(lines):
        if index in wanted:
            record = _record(text, line_no, tails)
            if record.label != labels[index]:
                raise DataError(
                    f"line {line_no}: the file changed while it was being read "
                    f"(the record was {labels[index]!r}, now {record.label!r})"
                )
            records.append(record)
    if index + 1 != len(labels):
        raise DataError(
            f"the file changed while it was being read ({len(labels)} records, now {index + 1})"
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
    The records are split ``CHUNK_ROWS`` at a time, and each chunk's
    distinct values extend the codes. A column whose first non-number
    comes after the first chunk is read again from the first record, so
    its codes still count from there.
    """
    if not len(records):
        raise DataError("cannot fit an encoding on zero records")
    maps: dict[int, dict[str, int]] = {}
    for start, columns in _chunks(records):
        for col, values in enumerate(columns):
            mapping = maps.get(col)
            if mapping is None:
                if all(map(_is_float, set(values))):
                    continue
                mapping = maps[col] = {}
                values = chain((r.line.split(",", col + 1)[col] for r in records[:start]), values)
            for value in dict.fromkeys(values):
                mapping.setdefault(value, len(mapping))
    return EncodingTable(columns=dict(sorted(maps.items())), fitted_on=fitted_on)


def encode(records: Sequence[Record], table: EncodingTable) -> Encoded:
    """Encode records to a numeric matrix (unnormalized) plus class labels.

    The matrix is allocated once and filled ``CHUNK_ROWS`` records at a
    time; an error names the record's index in ``records``.
    """
    labels = class_labels([r.label for r in records])
    rows = np.empty((len(records), N_FEATURES), dtype=np.float64)
    for start, columns in _chunks(records):
        block = rows[start:start + len(columns[0])]
        for col, values in enumerate(columns):
            mapping = table.columns.get(col)
            if mapping is not None:
                unseen = len(mapping)
                block[:, col] = [mapping.get(v, unseen) for v in values]
                continue
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


def read_encoded(lines: Iterable[str], name: str) -> Dataset:
    """The rows and labels ``encoded_lines`` wrote to the file ``name``, read
    from its lines, ``#`` header lines first; ``float`` reads each ``repr``
    back to its bits. A row that is not 41 values in [0, 1] (normalization
    clips to it) and a class index, or no row at all, raises ``DataError``."""
    values = array("d")
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
    if not good.all():  # the rows are the last len(good) lines
        raise DataError(f"{name}: line {line_no - len(good) + int(np.argmin(good)) + 1}: a value "
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
