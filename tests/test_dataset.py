"""Parsing, encoding, label mapping, normalization, and stratified splits."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmids.dataset import (
    CHUNK_ROWS,
    CLASS_NAMES,
    N_FEATURES,
    Dataset,
    apply_normalize,
    class_histogram,
    encode,
    encoding_to_text,
    fit_encoding,
    fit_normalize,
    map_label,
    norm_stats_to_text,
    parse_kdd,
    stratified_fold_indices,
    stratified_sample_indices,
)
from swarmids.errors import DataError, DataWarning, ParseError, UnknownLabelError

from conftest import nsl_kdd_train_path, requires_nsl_kdd


def _line(features=None, label="normal", difficulty=None):
    fields = list(features or ["0"] * N_FEATURES)
    fields.append(label)
    if difficulty is not None:
        fields.append(str(difficulty))
    return ",".join(fields)


def _fields(record):
    """A parsed record's canonical line read back as features, label and
    difficulty."""
    fields = record.line.split(",")
    difficulty = int(fields[N_FEATURES + 1]) if len(fields) > N_FEATURES + 1 else None
    return SimpleNamespace(
        features=tuple(fields[:N_FEATURES]), label=fields[N_FEATURES], difficulty=difficulty
    )


class TestParse:
    def test_43_field_line_keeps_difficulty(self):
        features = ["0", "tcp", "http", "SF"] + ["1"] * 37
        records = [_fields(r) for r in parse_kdd(_line(features, "neptune", 21))]
        assert len(records) == 1
        assert records[0].label == "neptune"
        assert records[0].difficulty == 21
        assert records[0].features == tuple(features)

    def test_42_field_line_has_no_difficulty(self):
        records = [_fields(r) for r in parse_kdd(_line(label="smurf"))]
        assert records[0].difficulty is None
        assert records[0].label == "smurf"

    def test_empty_stream(self):
        assert parse_kdd("") == []
        assert parse_kdd([]) == []

    def test_wrong_field_count_reports_line_number(self):
        good = _line()
        bad = ",".join(["0"] * 40)
        with pytest.raises(ParseError) as err:
            parse_kdd("\n".join([good, good, bad]))
        assert err.value.line_no == 3

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n" + _line() + "\n"
        assert len(parse_kdd(text)) == 1

    def test_bad_difficulty_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_kdd(_line(label="normal") + ",notanint")


class TestLabels:
    def test_normal(self):
        assert map_label("normal") == 0

    def test_canonical_attacks(self):
        assert CLASS_NAMES[map_label("neptune")] == "DoS"
        assert CLASS_NAMES[map_label("buffer_overflow")] == "U2R"
        assert CLASS_NAMES[map_label("satan")] == "Probe"
        assert CLASS_NAMES[map_label("guess_passwd")] == "R2L"

    def test_unknown_label_named_in_error(self):
        with pytest.raises(UnknownLabelError, match="sneaky_new_attack"):
            map_label("sneaky_new_attack")

    @pytest.mark.parametrize("bad", [-1, len(CLASS_NAMES)])
    def test_dataset_rejects_label_outside_class_list(self, bad):
        labels = [0] * 10 + [bad] * 10
        with pytest.raises(DataError, match=f"label {bad} is outside"):
            Dataset(np.zeros((20, 3)), labels)


def _records_with(values, column=1):
    """Records whose ``column`` holds ``values``, one per record."""
    records = []
    for v in values:
        features = ["0"] * N_FEATURES
        features[column] = v
        records.append(parse_kdd(_line(features))[0])
    return records


class TestEncoding:
    def test_first_occurrence_codes(self):
        table = fit_encoding(_records_with(["tcp", "udp", "tcp"]))
        assert table.columns[1] == {"tcp": 0, "udp": 1}

    def test_single_value_column(self):
        table = fit_encoding(_records_with(["icmp"]))
        assert table.columns[1] == {"icmp": 0}

    def test_numeric_columns_not_encoded(self):
        table = fit_encoding(_records_with(["1.5", "2", "3e4"]))
        assert 1 not in table.columns

    def test_empty_records_rejected(self):
        with pytest.raises(DataError):
            fit_encoding([])

    def test_encode_lookup_and_numeric_passthrough(self):
        records = _records_with(["tcp", "udp"])
        table = fit_encoding(records)
        ds = encode(records, table)
        assert ds.rows[0, 1] == 0.0 and ds.rows[1, 1] == 1.0
        features = ["491"] + ["x"] + ["0"] * 39
        one = parse_kdd(_line(features))
        ds2 = encode(one, fit_encoding(one))
        assert ds2.rows[0, 0] == 491.0

    def test_unseen_value_gets_reserved_code(self):
        train = _records_with(["tcp", "udp"])
        table = fit_encoding(train)
        unseen = _records_with(["sctp"])
        ds = encode(unseen, table)
        assert ds.rows[0, 1] == 2.0  # == len(table.columns[1])

    def test_encoding_stable(self, synth_records):
        table = fit_encoding(synth_records)
        a = encode(synth_records, table)
        b = encode(synth_records, table)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.labels, b.labels)

    def test_round_trip_decode(self, synth_records):
        # Codes are 0..n-1 without repeats, so every code names one value.
        table = fit_encoding(synth_records)
        for mapping in table.columns.values():
            assert sorted(mapping.values()) == list(range(len(mapping)))

    def test_artifact_round_trip(self, synth_records):
        table = fit_encoding(synth_records, fitted_on="test")
        lines = encoding_to_text(table).splitlines()
        assert lines[0] == "fitted_on=test"
        codes = {}
        for line in lines:
            key, _, value = line.partition("=")
            if ".code." in key:
                col, _, name = key[len("column."):].partition(".code.")
                codes.setdefault(int(col), {})[name] = int(value)
        assert codes == {c: dict(m) for c, m in table.columns.items()}

    def test_taken_records_encode_to_the_taken_rows(self, synth_records):
        # A fold encodes the records it takes; their rows must not depend on
        # where the chunk boundaries fall.
        records = synth_records * (2 * CHUNK_ROWS // len(synth_records) + 1)
        table = fit_encoding(records)
        idx = np.array([5, 0, CHUNK_ROWS + 17, 17, 3, 2 * CHUNK_ROWS + 1, 3])
        taken = encode([records[i] for i in idx], table)
        whole = encode(records, table)
        assert taken.rows.tobytes() == whole.rows[idx].tobytes()
        assert taken.labels.tobytes() == whole.labels[idx].tobytes()

    def test_codes_follow_first_occurrence_across_chunks(self):
        # Column 0 is numeric for the first chunk and then holds strings, so
        # its codes count from record 0, not from the first string.
        values = [str(i % 7) for i in range(CHUNK_ROWS)] + ["x", "3", "y", "x", "0"]
        records = _records_with(values, column=0)
        table = fit_encoding(records)
        codes = [(str(i), i) for i in range(7)] + [("x", 7), ("y", 8)]
        assert list(table.columns[0].items()) == codes
        assert encode(records, table).rows[:, 0].tolist() == [
            float(table.columns[0][v]) for v in values
        ]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_rejected(self, value):
        records = parse_kdd("\n".join([_line(), _line([value] + ["0"] * (N_FEATURES - 1))]))
        with pytest.raises(DataError, match=rf"'{value}'.*column 0 \(duration\), record 1"):
            encode(records, fit_encoding(records))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_dataset_rejects_non_finite_rows(self, value):
        with pytest.raises(DataError, match="rows must be finite"):
            Dataset(np.array([[value, 1.0]]), [0])


class TestNormalize:
    def _dataset(self, column):
        rows = np.zeros((len(column), N_FEATURES))
        rows[:, 0] = column
        return Dataset(rows, np.zeros(len(column), dtype=np.int64))

    def test_min_max_scaling(self):
        ds = self._dataset([0.0, 5.0, 10.0])
        out = apply_normalize(ds, fit_normalize(ds))
        assert np.allclose(out.rows[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        ds = self._dataset([7.0, 7.0, 7.0])
        out = apply_normalize(ds, fit_normalize(ds))
        assert np.array_equal(out.rows[:, 0], [0.0, 0.0, 0.0])

    def test_test_time_clipping(self):
        train = self._dataset([0.0, 10.0])
        stats = fit_normalize(train)
        test = self._dataset([12.0, -3.0])
        out = apply_normalize(test, stats)
        assert out.rows[0, 0] == 1.0
        assert out.rows[1, 0] == 0.0

    def test_bytes_match_the_whole_array_formula(self):
        # apply_normalize scales one matrix in place; the reference builds a
        # new array at each step. Test rows reach outside the fitted range,
        # and columns 3 and 7 are constant.
        rng = np.random.default_rng(4)
        train = rng.choice([-0.0, 0.0, 0.1, 1 / 3, 7.0, 1e300], size=(50, N_FEATURES))
        train[:, [3, 7]] = 2.5
        stats = fit_normalize(Dataset(train, np.zeros(50, dtype=np.int64)))
        test = Dataset(rng.uniform(-1e3, 1e3, size=(30, N_FEATURES)),
                       np.zeros(30, dtype=np.int64))
        before = test.rows.tobytes()
        span = stats.maxs - stats.mins
        scaled = (test.rows - stats.mins) / np.where(span > 0, span, 1.0)
        expected = np.clip(np.where(span > 0, scaled, 0.0), 0.0, 1.0)
        assert apply_normalize(test, stats).rows.tobytes() == expected.tobytes()
        assert test.rows.tobytes() == before

    def test_refit_on_normalized_is_identity(self, synth_dataset):
        # Once data is in [0,1], stats fitted on it normalize to itself.
        stats = fit_normalize(synth_dataset)
        again = apply_normalize(synth_dataset, stats)
        assert np.allclose(again.rows, synth_dataset.rows, atol=1e-15)

    def test_normalized_range(self, synth_dataset):
        assert synth_dataset.rows.min() >= 0.0
        assert synth_dataset.rows.max() <= 1.0

    def test_stats_artifact_round_trip(self, synth_dataset):
        stats = fit_normalize(synth_dataset)
        text = norm_stats_to_text(stats)
        values = dict(line.split("=", 1) for line in text.splitlines())
        for i in range(N_FEATURES):
            assert float(values[f"feature.{i}.min"]) == stats.mins[i]
            assert float(values[f"feature.{i}.max"]) == stats.maxs[i]


class TestSubsample:
    def test_full_size_is_identity(self, synth_dataset):
        idx = stratified_sample_indices(synth_dataset.labels, synth_dataset.n_rows, seed=3)
        assert np.array_equal(idx, np.arange(synth_dataset.n_rows))

    def test_proportions_within_one_row(self):
        labels = np.array([0] * 90 + [1] * 10)
        idx = stratified_sample_indices(labels, 10, seed=0)
        picked = labels[idx]
        assert np.sum(picked == 0) == 9
        assert np.sum(picked == 1) == 1

    def test_deterministic(self, synth_dataset):
        a = stratified_sample_indices(synth_dataset.labels, 200, seed=11)
        b = stratified_sample_indices(synth_dataset.labels, 200, seed=11)
        assert np.array_equal(a, b)

    def test_zero_rejected(self, synth_dataset):
        with pytest.raises(DataError):
            stratified_sample_indices(synth_dataset.labels, 0, seed=0)

    def test_oversize_rejected(self, synth_dataset):
        with pytest.raises(DataError):
            stratified_sample_indices(synth_dataset.labels, synth_dataset.n_rows + 1, seed=0)


class TestFolds:
    def test_two_by_two_symmetry(self):
        labels = np.array([0, 0, 1, 1])
        folds = stratified_fold_indices(labels, 2, seed=0)
        for _, test in folds:
            assert np.sum(labels[test] == 0) == 1
            assert np.sum(labels[test] == 1) == 1

    def test_partition_property(self, synth_dataset):
        folds = stratified_fold_indices(synth_dataset.labels, 5, seed=2)
        unions = np.concatenate([test for _, test in folds])
        assert np.array_equal(np.sort(unions), np.arange(synth_dataset.n_rows))
        for train, test in folds:
            assert np.intersect1d(train, test).size == 0

    def test_small_class_warns(self):
        labels = np.array([0] * 40 + [1] * 2)
        with pytest.warns(DataWarning):
            stratified_fold_indices(labels, 5, seed=0)

    def test_k_bounds(self):
        with pytest.raises(DataError):
            stratified_fold_indices(np.array([0, 1]), 1, seed=0)

    def test_deterministic(self, synth_dataset):
        a = stratified_fold_indices(synth_dataset.labels, 4, seed=9)
        b = stratified_fold_indices(synth_dataset.labels, 4, seed=9)
        for (tr_a, te_a), (tr_b, te_b) in zip(a, b):
            assert np.array_equal(tr_a, tr_b)
            assert np.array_equal(te_a, te_b)


@settings(max_examples=30, deadline=None)
@given(
    labels=st.lists(st.integers(min_value=0, max_value=3), min_size=10, max_size=80),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fold_partition_property(labels, k, seed):
    labels = np.array(labels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        folds = stratified_fold_indices(labels, k, seed)
    assert len(folds) == k
    union = np.concatenate([test for _, test in folds])
    assert np.array_equal(np.sort(union), np.arange(labels.shape[0]))


def test_class_histogram(synth_dataset):
    histogram = class_histogram(synth_dataset.labels)
    assert set(histogram) == set(CLASS_NAMES)
    assert sum(histogram.values()) == synth_dataset.n_rows


def test_label_totality_synthetic(synth_records):
    for record in synth_records:
        map_label(record.label)


@requires_nsl_kdd
class TestRealNslKdd:
    @pytest.fixture(scope="class")
    def real_records(self):
        with nsl_kdd_train_path().open("r", encoding="utf-8") as stream:
            return parse_kdd(stream)

    def test_row_count(self, real_records):
        assert len(real_records) == 125973

    def test_label_totality(self, real_records):
        for record in real_records:
            map_label(record.label)

    def test_protocol_column_has_three_codes(self, real_records):
        table = fit_encoding(real_records)
        assert len(table.columns[1]) == 3

    def test_ten_fold_sizes(self, real_records):
        labels = np.array([map_label(r.label) for r in real_records])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DataWarning)
            folds = stratified_fold_indices(labels, 10, seed=0)
        sizes = [test.shape[0] for _, test in folds]
        assert sum(sizes) == 125973
        assert all(abs(s - 12597) <= 10 for s in sizes)
