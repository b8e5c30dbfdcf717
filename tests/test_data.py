import numpy as np
import pytest

from pidual import data as data_mod
from pidual.data import (
    PiDataset,
    RandomPiSpec,
    SynthConfig,
    annotator_permutations,
    augment_random_pi,
    generate_synthetic,
    load_csv,
    save_csv,
    split_dataset,
)
from pidual.errors import ContractError, DataFormatError


def test_zero_noise_rate_gives_clean_labels():
    ds = generate_synthetic(SynthConfig(n=500, noise_rate=0.0, seed=1))
    assert np.array_equal(ds.noisy_labels, ds.clean_labels)
    assert not ds.wrong_mask_of("train").any()


def test_informativeness_zero_channels_constant():
    ds = generate_synthetic(SynthConfig(n=300, pi_informativeness=0.0, noise_rate=0.3, seed=2))
    annotators = 5
    reliability_col = ds.pi[:, annotators]
    switch_col = ds.pi[:, annotators + 1]
    assert np.unique(reliability_col).size == 1
    assert np.unique(switch_col).size == 1
    # the one-hot block still varies
    assert np.unique(ds.pi[:, :annotators], axis=0).shape[0] > 1


def test_realized_noise_rate_within_binomial_interval():
    # 99% interval for n=2000, p=0.4 is about +-0.028; the asserted band is wider
    ds = generate_synthetic(SynthConfig(n=2000, num_classes=4, noise_rate=0.4, seed=7))
    rate = float(ds.wrong_mask_of("train").mean())
    assert 0.36 <= rate <= 0.44


def test_wrong_labels_are_genuinely_wrong():
    for mode in (data_mod.ERROR_MODE_UNIFORM, data_mod.ERROR_MODE_PERMUTATION):
        ds = generate_synthetic(SynthConfig(n=800, noise_rate=0.5, error_mode=mode, seed=3))
        wrong = ds.wrong_mask_of("train")
        assert wrong.any()
        assert np.all(ds.noisy_labels[wrong] != ds.clean_labels[wrong])


def test_generated_pi_width_is_the_configs():
    # config.py caps the data size by SynthConfig.pi_dim before any row is drawn
    for mode in (data_mod.ERROR_MODE_UNIFORM, data_mod.ERROR_MODE_PERMUTATION):
        cfg = SynthConfig(n=50, annotators=6, error_mode=mode, seed=4)
        assert generate_synthetic(cfg).pi_dim == cfg.pi_dim == 6 + len(data_mod.PI_CHANNELS)


def test_permutation_mode_noise_is_function_of_annotator_and_label():
    cfg = SynthConfig(n=1000, noise_rate=0.4, error_mode=data_mod.ERROR_MODE_PERMUTATION, seed=9)
    ds = generate_synthetic(cfg)
    perms = annotator_permutations(cfg)
    wrong = ds.wrong_mask_of("train")
    recomputed = perms[ds.annotator_ids[wrong], ds.clean_labels[wrong]]
    assert np.array_equal(recomputed, ds.noisy_labels[wrong])


def test_generator_deterministic():
    cfg = SynthConfig(n=200, noise_rate=0.3, seed=42)
    a, b = generate_synthetic(cfg), generate_synthetic(cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.pi, b.pi)
    assert np.array_equal(a.noisy_labels, b.noisy_labels)


def test_explicit_reliabilities_accepted_when_consistent():
    cfg = SynthConfig(n=4000, annotators=2, reliabilities=[0.9, 0.5], noise_rate=0.3, seed=5)
    ds = generate_synthetic(cfg)
    assert abs(ds.wrong_mask_of("train").mean() - 0.3) < 0.05


def test_augment_length_zero_is_identity():
    ds = generate_synthetic(SynthConfig(n=50, seed=0))
    assert augment_random_pi(ds, RandomPiSpec(0, seed=1)) is ds


def test_augment_appends_distinct_identifiers():
    ds = generate_synthetic(SynthConfig(n=100, seed=0))
    out = augment_random_pi(ds, RandomPiSpec(8, seed=3))
    assert out.pi_dim == ds.pi_dim + 8
    ids = out.pi[:, -8:]
    assert np.unique(ids, axis=0).shape[0] == 100


def test_augment_deterministic():
    ds = generate_synthetic(SynthConfig(n=60, seed=0))
    a = augment_random_pi(ds, RandomPiSpec(4, seed=11))
    b = augment_random_pi(ds, RandomPiSpec(4, seed=11))
    assert np.array_equal(a.pi, b.pi)


def test_split_zero_fractions_all_train():
    ds = generate_synthetic(SynthConfig(n=40, seed=0))
    out = split_dataset(ds, 0.0, 0.0, seed=1)
    assert out.split_indices(data_mod.SPLIT_TRAIN).size == 40


def test_split_counts():
    ds = generate_synthetic(SynthConfig(n=1000, seed=0))
    out = split_dataset(ds, 0.04, 0.2, seed=1)
    assert out.split_indices(data_mod.SPLIT_NOISY_VAL).size == 40
    assert out.split_indices(data_mod.SPLIT_CLEAN_TEST).size == 200
    assert out.split_indices(data_mod.SPLIT_TRAIN).size == 760


def test_split_partition_and_determinism():
    ds = generate_synthetic(SynthConfig(n=333, seed=0))
    a = split_dataset(ds, 0.1, 0.25, seed=5)
    b = split_dataset(ds, 0.1, 0.25, seed=5)
    assert np.array_equal(a.split, b.split)
    sizes = [a.split_indices(name).size for name in data_mod.SPLIT_NAMES]
    assert sum(sizes) == 333


def test_csv_round_trip_lossless(tmp_path):
    ds = generate_synthetic(SynthConfig(n=120, noise_rate=0.3, seed=13))
    ds = split_dataset(ds, 0.1, 0.2, seed=2)
    ds = augment_random_pi(ds, RandomPiSpec(3, seed=4))
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    loaded = load_csv(path, num_classes=ds.num_classes)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.pi, ds.pi)
    assert np.array_equal(loaded.noisy_labels, ds.noisy_labels)
    assert np.array_equal(loaded.clean_labels, ds.clean_labels)
    assert np.array_equal(loaded.split, ds.split)
    assert loaded.num_classes == ds.num_classes


def test_csv_small_well_formed(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        "x0,x1,a0,noisy_label\n1.0,2.0,0.5,0\n3.5,-1.0,0.25,1\n0.0,0.0,1.0,1\n",
        encoding="utf-8",
    )
    ds = load_csv(path)
    assert ds.n == 3 and ds.feature_dim == 2 and ds.pi_dim == 1
    assert not ds.has_clean_labels
    assert np.array_equal(ds.noisy_labels, [0, 1, 1])
    assert ds.features[1, 0] == 3.5


def test_csv_missing_noisy_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,a0,label\n1.0,1.0,0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="noisy_label"):
        load_csv(path)


def test_csv_non_numeric_cell_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,a0,noisy_label\n1.0,1.0,0\noops,1.0,1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="row 3"):
        load_csv(path)


@pytest.mark.parametrize(
    "body, match",
    [
        (b"x0,a0,noisy_label\n1.0,1.0,0\n\xff,1.0,1\n", "not UTF-8 CSV text .*position 28"),
        (b'x0,a0,noisy_label\n1.0,"' + b"1" * 200_000 + b'",0\n', "not UTF-8 CSV text"),
        (b"x0,a0,noisy_label\n1.0,1.0,99999999999999999999\n", "row 2: non-numeric cell"),
    ],
    ids=["not-utf8", "field-above-csv-limit", "label-above-int64"],
)
def test_csv_unreadable_text_or_huge_label_reports_where(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_bytes(body)
    with pytest.raises(DataFormatError, match=match):
        load_csv(path)


def test_csv_split_column_needs_a_train_row(tmp_path):
    path = tmp_path / "split.csv"
    path.write_text("x0,a0,noisy_label,split\n1.0,1.0,0,clean_test\n2.0,1.0,1,noisy_val\n")
    with pytest.raises(DataFormatError, match=f"{path}: the split column holds no 'train' row"):
        load_csv(path)
    path.write_text("x0,a0,noisy_label,split\n1.0,1.0,0,clean_test\n2.0,1.0,1,train\n")
    assert load_csv(path).split_indices(data_mod.SPLIT_TRAIN).tolist() == [1]


def test_csv_label_out_of_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,a0,noisy_label\n1.0,1.0,5\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="out of range"):
        load_csv(path, num_classes=3)


def test_clean_labels_gated_behind_eval_accessors():
    ds = generate_synthetic(SynthConfig(n=30, noise_rate=0.2, seed=0))
    no_clean = PiDataset(
        features=ds.features,
        pi=ds.pi,
        noisy_labels=ds.noisy_labels,
        clean_labels=None,
        split=ds.split,
        num_classes=ds.num_classes,
    )
    with pytest.raises(ContractError):
        no_clean.clean_labels_of(data_mod.SPLIT_TRAIN)
    with pytest.raises(ContractError):
        no_clean.wrong_mask_of(data_mod.SPLIT_TRAIN)
