import numpy as np
import pytest

from conftest import write_pcm16_wav
from voicebench.data import (
    LabeledDataset,
    ScalerState,
    apply_scaler,
    fit_scaler,
    load_audio_dataset,
    load_tabular_dataset,
    oversample,
    read_csv_rows,
    stratified_split,
)
from voicebench.errors import (
    ClassTooSmall,
    DimensionMismatch,
    EmptyDataset,
    IngestError,
    InvalidLabel,
    MissingColumn,
    NonNumericValue,
    SingleClass,
    UsageError,
)


class TestLabeledDataset:
    def test_basic_construction(self):
        ds = LabeledDataset(np.zeros((4, 2)), [0, 1, 0, 1])
        assert ds.features.shape[1] == 2
        assert np.bincount(ds.labels).tolist() == [2, 2]

    def test_rejects_label_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LabeledDataset(np.zeros((4, 2)), [0, 1, 1])

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(InvalidLabel):
            LabeledDataset(np.zeros((3, 2)), [0, 1, 2])

    def test_rejects_single_class(self):
        with pytest.raises(SingleClass):
            LabeledDataset(np.zeros((3, 2)), [1, 1, 1])


class TestAudioLoader:
    def test_loads_corpus(self, audio_corpus):
        root, _ = audio_corpus
        ds = load_audio_dataset(root, {"controls": 0, "patients": 1})
        assert ds.features.shape == (17, 13)
        assert np.bincount(ds.labels).tolist() == [9, 8]
        assert np.all(np.isfinite(ds.features))
        # controls sort before patients, files sort within each group
        assert ds.row_ids[0].startswith("controls/")
        assert ds.row_ids == tuple(sorted(ds.row_ids))

    def test_deterministic_reload(self, audio_corpus):
        root, _ = audio_corpus
        a = load_audio_dataset(root, {"controls": 0, "patients": 1})
        b = load_audio_dataset(root, {"controls": 0, "patients": 1})
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_bad_file_aborts_with_ingest_error(self, tmp_path):
        rng = np.random.default_rng(0)
        for group in ("a", "b"):
            (tmp_path / group).mkdir()
        for i in range(3):
            write_pcm16_wav(tmp_path / "a" / f"x{i}.wav", rng.normal(size=8000) * 0.1, 16000)
            write_pcm16_wav(tmp_path / "b" / f"y{i}.wav", rng.normal(size=8000) * 0.1, 16000)
        (tmp_path / "a" / "broken.wav").write_bytes(b"not a wav at all")
        with pytest.raises(IngestError) as exc_info:
            load_audio_dataset(tmp_path, {"a": 0, "b": 1})
        assert any("a/broken.wav" in rel for rel, _ in exc_info.value.failures)

    def test_missing_group_dir(self, tmp_path):
        (tmp_path / "only").mkdir()
        with pytest.raises(EmptyDataset):
            load_audio_dataset(tmp_path, {"only": 0, "absent": 1})

    def test_bad_group_label(self, tmp_path):
        with pytest.raises(InvalidLabel):
            load_audio_dataset(tmp_path, {"g": 7})
        with pytest.raises(UsageError, match="'g'"):
            load_audio_dataset(tmp_path, {"g": True})


class TestTabularLoader:
    def test_loads_csv(self, tabular_csv):
        ds = load_tabular_dataset(
            tabular_csv, label_column="status", drop_columns=("name",)
        )
        assert ds.features.shape == (60, 22)
        assert np.bincount(ds.labels).tolist() == [24, 36]

    def test_missing_label_column(self, tabular_csv):
        with pytest.raises(MissingColumn):
            load_tabular_dataset(tabular_csv, label_column="nope")

    def test_missing_drop_column(self, tabular_csv):
        with pytest.raises(MissingColumn):
            load_tabular_dataset(
                tabular_csv, label_column="status", drop_columns=("ghost",)
            )

    @pytest.mark.parametrize("header,twice", [("a,y,y", "y"), ("a,a,y", "a")])
    def test_column_named_twice(self, tmp_path, header, twice):
        path = tmp_path / "twice.csv"
        path.write_text(f"{header}\n1.0,2.0,0\n1.5,2.5,1\n")
        with pytest.raises(MissingColumn) as exc_info:
            load_tabular_dataset(path, label_column="y")
        assert f"{path}: column '{twice}' is named twice" in str(exc_info.value)

    def test_nonnumeric_cell_is_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1.0,2.0,0\n1.5,oops,1\n")
        with pytest.raises(NonNumericValue) as exc_info:
            load_tabular_dataset(path, label_column="y")
        message = str(exc_info.value)
        assert "row 3" in message and "'b'" in message and "'oops'" in message

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_cell_is_located(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"a,b,y\n1.0,2.0,0\n1.5,{cell},1\n")
        with pytest.raises(NonNumericValue) as exc_info:
            load_tabular_dataset(path, label_column="y")
        message = str(exc_info.value)
        assert str(path) in message
        assert "row 3" in message and "'b'" in message and f"'{cell}'" in message

    def test_bad_label_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1.0,0\n2.0,5\n")
        with pytest.raises(InvalidLabel):
            load_tabular_dataset(path, label_column="y")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1.0,2.0,0\n1.5,1\n")
        with pytest.raises(NonNumericValue):
            load_tabular_dataset(path, label_column="y")

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "versioned.csv"
        path.write_text("# format_version=1\na,y\n1.0,0\n2.0,1\n3.0,1\n4.0,0\n")
        ds = load_tabular_dataset(path, label_column="y")
        assert ds.features.shape == (4, 1)


    @pytest.mark.parametrize("prefix,suffix", [("\ufeff", ""), ("", "\n\r\n\n")],
                             ids=["bom", "trailing_blank_lines"])
    def test_reads_like_the_plain_file(self, tabular_csv, tmp_path, prefix, suffix):
        # a byte-order mark gave "no column named 'name'"; trailing blank
        # lines gave "row 62: expected 24 fields"
        path = tmp_path / "edited.csv"
        path.write_bytes((prefix + tabular_csv.read_text() + suffix).encode("utf-8"))
        plain, edited = (load_tabular_dataset(p, label_column="status", drop_columns=("name",))
                         for p in (tabular_csv, path))
        assert edited.features.tobytes() == plain.features.tobytes()
        assert edited.labels.tobytes() == plain.labels.tobytes()

class TestFileLines:
    def test_rows_carry_their_file_lines(self, tmp_path):
        path = tmp_path / "edited.csv"
        path.write_bytes("\ufeff# format_version=1\r\na,y\r\n\r\n1,0\r\n# note\r\n2,1\r\n"
                         .encode("utf-8"))
        assert read_csv_rows(path) == (["# format_version=1", "# note"],
                                       [(2, ["a", "y"]), (4, ["1", "0"]), (6, ["2", "1"])])

    @pytest.mark.parametrize("blank,line", [("", 5), ("\n", 6)],
                             ids=["after_a_comment", "and_a_blank_line"])
    def test_loader_names_the_file_line(self, tmp_path, blank, line):
        # rows were counted past the comment and blank lines: this said "row 4"
        path = tmp_path / "versioned.csv"
        path.write_text(f"# format_version=1\na,y\n1,0\n2,1\n{blank}3,oops\n")
        with pytest.raises(InvalidLabel) as exc_info:
            load_tabular_dataset(path, label_column="y")
        assert f"{path} row {line}: label 'oops' is not numeric" in str(exc_info.value)

    def test_row_after_a_field_spanning_lines(self, tmp_path):
        # the quoted cell "2\n" spans lines 2-3; the bad row is line 4
        path = tmp_path / "quoted.csv"
        path.write_text('a,b,y\n1,"2\n",0\n3,oops,1\n')
        with pytest.raises(NonNumericValue) as exc_info:
            load_tabular_dataset(path, label_column="y")
        assert f"{path} row 4, column 'b': 'oops'" in str(exc_info.value)


class TestScaler:
    def test_known_values(self):
        features = np.array([[0.0, 5.0], [4.0, 5.0]])
        state = fit_scaler(features)
        assert np.array_equal(state.means, [2.0, 5.0])
        assert np.array_equal(state.stds, [2.0, 0.0])
        out = apply_scaler(state, features)
        assert np.array_equal(out[:, 0], [-1.0, 1.0])
        # constant column maps to zero instead of blowing up
        assert np.all(out[:, 1] == 0.0)

    def test_uses_population_std(self):
        column = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        state = fit_scaler(column)
        assert abs(state.stds[0] - np.sqrt(2.0)) < 1e-15

    def test_huge_column_scales_without_overflow(self):
        # squaring deviations past ~1e154 overflowed to std inf, which zeroed
        # the column; scaling by a power of two is exact, so bytes match
        column = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        for scale in (2.0 ** 520, 2.0 ** -20):
            state = fit_scaler(column * scale)
            assert state.means[0] == 3.0 * scale
            assert state.stds[0] == fit_scaler(column).stds[0] * scale

    def test_rejects_wrong_width(self):
        state = ScalerState(np.zeros(3), np.ones(3))
        with pytest.raises(DimensionMismatch):
            apply_scaler(state, np.zeros((2, 4)))


class TestRelativeStdFloor:
    def _features(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(40, 4)) + [0.0, 5.0, -2.0, 1.0]
        features[:, 2] = 7.0  # constant
        features[:, 3] = 1.0 + 2.0 ** -52 * (np.arange(40) % 2)  # constant up to rounding
        return features

    def test_power_of_two_scales_keep_the_scaled_bytes(self):
        # the floor was an absolute 1e-12, so a column scaled by 2^-70 lost
        # its spread and one scaled by 2^70 kept its rounding noise
        features = self._features()
        plain = apply_scaler(fit_scaler(features), features)
        assert np.all(plain[:, 2] == 0.0)
        assert np.max(np.abs(plain[:, 3])) == 2.0 ** -6  # one ulp over the 64-ulp floor
        for k in (-1000, -900, -70, 70, 900, 1000):
            scaled = features * 2.0 ** k
            assert apply_scaler(fit_scaler(scaled), scaled).tobytes() == plain.tobytes(), k

    def test_tiny_columns_keep_their_signal(self):
        column = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
        plain = apply_scaler(fit_scaler(column), column)
        for scale in (1e-20, 3e-300):
            tiny = column * scale
            assert np.allclose(apply_scaler(fit_scaler(tiny), tiny), plain, rtol=1e-12)
        # subnormal values carry few bits, but their order and spread survive
        subnormal = column * 5e-321
        assert np.allclose(apply_scaler(fit_scaler(subnormal), subnormal), plain, atol=0.01)

    def test_large_offset_keeps_a_small_spread(self):
        # a spread of about 860 ulps on top of 1e6: a floor of 1e-12 of the
        # magnitude shrank it to std 0.18, the absolute 1e-12 kept it
        signal = np.random.default_rng(4).normal(size=(200, 1))
        column = 1e6 + 1e-7 * signal
        out = apply_scaler(fit_scaler(column), column)
        assert abs(out.std() - 1.0) < 1e-6
        assert np.corrcoef(out[:, 0], signal[:, 0])[0, 1] > 0.999

    def test_constant_subnormal_and_largest_columns(self):
        features = np.array([[5e-320, 1.7e308], [5e-320, -1.7e308], [5e-320, 1.7e308]])
        out = apply_scaler(fit_scaler(features), features)
        assert np.all(out[:, 0] == 0.0)
        assert np.allclose(out[:, 1], [2 ** -0.5, -2 ** 0.5, 2 ** -0.5])


class TestStratifiedSplit:
    def test_balanced_100_rows(self):
        rng = np.random.default_rng(50)
        ds = LabeledDataset(
            rng.normal(size=(100, 4)),
            np.repeat([0, 1], 50),
        )
        split = stratified_split(ds, seed=3)
        assert split.train_labels.size == 60
        assert split.validation_labels.size == 20
        assert split.test_labels.size == 20
        for part in (split.train_labels, split.validation_labels, split.test_labels):
            assert int(part.sum()) * 2 == part.size  # still balanced per class

    def test_indices_sorted_and_disjoint(self):
        rng = np.random.default_rng(51)
        ds = LabeledDataset(rng.normal(size=(37, 3)), rng.integers(0, 2, 37))
        split = stratified_split(ds, seed=9)
        merged = np.concatenate([split.train_idx, split.validation_idx, split.test_idx])
        assert np.unique(merged).size == 37
        for idx in (split.train_idx, split.validation_idx, split.test_idx):
            assert np.all(np.diff(idx) > 0)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(52)
        ds = LabeledDataset(rng.normal(size=(60, 3)), np.repeat([0, 1], 30))
        a = stratified_split(ds, seed=1)
        b = stratified_split(ds, seed=2)
        assert not np.array_equal(a.test_idx, b.test_idx)

    def test_tiny_class_keeps_every_partition(self):
        rng = np.random.default_rng(53)
        labels = np.array([0] * 30 + [1] * 3)
        ds = LabeledDataset(rng.normal(size=(33, 2)), labels)
        split = stratified_split(ds, seed=0)
        for part in (split.train_labels, split.validation_labels, split.test_labels):
            assert int(np.sum(part == 1)) == 1

    def test_class_too_small(self):
        rng = np.random.default_rng(54)
        labels = np.array([0] * 30 + [1] * 2)
        ds = LabeledDataset(rng.normal(size=(32, 2)), labels)
        with pytest.raises(ClassTooSmall):
            stratified_split(ds, seed=0)

    def test_scaled_train_is_centered(self):
        rng = np.random.default_rng(55)
        ds = LabeledDataset(rng.normal(5.0, 3.0, size=(80, 4)), np.repeat([0, 1], 40))
        split = stratified_split(ds, seed=11)
        assert np.max(np.abs(split.train_features.mean(axis=0))) < 1e-12
        assert np.max(np.abs(split.train_features.std(axis=0) - 1.0)) < 1e-12


class TestOversample:
    def test_70_30_becomes_70_70(self):
        rng = np.random.default_rng(60)
        features = rng.normal(size=(100, 5))
        labels = np.array([0] * 70 + [1] * 30)
        out_f, out_y = oversample(features, labels, seed=4)
        assert out_f.shape == (140, 5)
        assert int(np.sum(out_y == 0)) == int(np.sum(out_y == 1)) == 70
        assert np.array_equal(out_f[:100], features)
        assert np.array_equal(out_y[:100], labels)
        assert np.all(out_y[100:] == 1)

    def test_balanced_input_unchanged(self):
        rng = np.random.default_rng(61)
        features = rng.normal(size=(10, 2))
        labels = np.repeat([0, 1], 5)
        out_f, out_y = oversample(features, labels, seed=4)
        assert out_f.shape == (10, 2)
        assert np.array_equal(out_f, features)

    def test_deterministic(self):
        rng = np.random.default_rng(62)
        features = rng.normal(size=(40, 3))
        labels = np.array([0] * 28 + [1] * 12)
        a = oversample(features, labels, seed=7)
        b = oversample(features, labels, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            oversample(np.zeros((4, 2)), np.zeros(4, dtype=int), seed=0)
