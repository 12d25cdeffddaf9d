import struct
import sys
import tracemalloc

import numpy as np
import pytest

from curvalign.data import (
    AugmentationPolicy,
    BatchPlan,
    Dataset,
    _shift_batch,
    augment_view,
    batches,
    load_idx,
    make_blobs,
    make_pattern_images,
    make_ring,
    save_dataset_csv,
    save_idx,
    stream,
    write_csv,
)
from curvalign.errors import (
    BadMagicError,
    BatchTooSmallError,
    CountMismatchError,
    InvalidCountsError,
    InvariantViolationError,
    NonFiniteError,
    ShapeMismatchError,
    TruncatedFileError,
)
from oracles import augment_whole_batch, pattern_images_loop, shift_batch_grouped


def _write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, image_magic=2051, label_magic=2049):
    n = len(labels)
    images = tmp_path / "images-idx3-ubyte"
    labs = tmp_path / "labels-idx1-ubyte"
    images.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols) + bytes(pixels))
    labs.write_bytes(struct.pack(">II", label_magic, n) + bytes(labels))
    return images, labs


def test_load_idx_hand_built_pair(tmp_path):
    pixels = [0, 51, 102, 255, 255, 204, 153, 0]  # two 2x2 images
    images, labels = _write_idx_pair(tmp_path, pixels, [3, 7])
    ds = load_idx(images, labels)
    assert len(ds) == 2 and ds.dim == 4
    assert ds.image_shape == (2, 2)
    assert np.allclose(ds.features[0], np.array([0, 51, 102, 255]) / 255.0, atol=0)
    assert np.allclose(ds.features[1], np.array([255, 204, 153, 0]) / 255.0, atol=0)
    assert ds.labels.tolist() == [3, 7]
    assert ds.num_classes == 8


def test_load_idx_rejects_bad_magic(tmp_path):
    images, labels = _write_idx_pair(tmp_path, [0] * 8, [0, 1], image_magic=2049)
    with pytest.raises(BadMagicError):
        load_idx(images, labels)
    images, labels = _write_idx_pair(tmp_path, [0] * 8, [0, 1], label_magic=2051)
    with pytest.raises(BadMagicError):
        load_idx(images, labels)


def test_load_idx_count_mismatch_and_truncation(tmp_path):
    images = tmp_path / "i"
    labels = tmp_path / "l"
    images.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + bytes(8))
    labels.write_bytes(struct.pack(">II", 2049, 3) + bytes(3))
    with pytest.raises(CountMismatchError):
        load_idx(images, labels)

    images.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + bytes(5))  # short payload
    labels.write_bytes(struct.pack(">II", 2049, 2) + bytes(2))
    with pytest.raises(TruncatedFileError):
        load_idx(images, labels)

    images.write_bytes(struct.pack(">II", 2051, 2))  # header cut off
    with pytest.raises(TruncatedFileError):
        load_idx(images, labels)


def test_save_idx_round_trip(tmp_path):
    ds = make_pattern_images(6, 3, 4, seed=0)
    images, labels = tmp_path / "im", tmp_path / "lb"
    save_idx(ds.features, ds.labels, 4, 4, images, labels)
    loaded = load_idx(images, labels)
    assert np.max(np.abs(loaded.features - ds.features)) <= 0.5 / 255.0  # 8-bit quantization
    assert np.array_equal(loaded.labels, ds.labels)


def _criterion_7_set():
    return make_pattern_images(3048, 10, 28, seed=0)


def test_save_idx_bytes_of_the_criterion_7_set(tmp_path):
    ds = _criterion_7_set()
    images, labels = tmp_path / "im", tmp_path / "lb"
    save_idx(ds.features, ds.labels, 28, 28, images, labels)
    pixels = np.clip(np.rint(ds.features * 255.0), 0, 255).astype(np.uint8)
    assert images.read_bytes() == struct.pack(">IIII", 2051, 3048, 28, 28) + pixels.tobytes()
    assert labels.read_bytes() == (struct.pack(">II", 2049, 3048)
                                   + bytes(i % 10 for i in range(3048)))
    loaded = load_idx(images, labels)
    assert np.array_equal(loaded.features, pixels / 255.0)
    assert np.array_equal(loaded.labels, ds.labels)


@pytest.mark.parametrize("labels,error", [
    (np.arange(2), CountMismatchError),               # one label short
    (np.zeros((3, 1), dtype=np.int64), CountMismatchError),
    (np.array([0, 300, 1]), InvariantViolationError),  # was written as 44
    (np.array([0, -1, 1]), InvariantViolationError),   # was written as 255
    (np.array([0.0, 1.5, 2.0]), InvariantViolationError),
])
def test_save_idx_rejects_labels_the_format_cannot_hold(tmp_path, labels, error):
    images, labs = tmp_path / "im", tmp_path / "lb"
    with pytest.raises(error):
        save_idx(np.full((3, 4), 0.5), labels, 2, 2, images, labs)
    assert not images.exists() and not labs.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_idx_rejects_non_finite_features(tmp_path, bad):
    feats = np.full((3, 4), 0.5)
    feats[1, 2] = bad
    images, labs = tmp_path / "im", tmp_path / "lb"
    with pytest.raises(NonFiniteError):
        save_idx(feats, np.arange(3), 2, 2, images, labs)
    assert not images.exists() and not labs.exists()


def test_save_idx_writes_labels_0_and_255(tmp_path):
    images, labs = tmp_path / "im", tmp_path / "lb"
    save_idx(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([255, 0], dtype=np.uint8), 1, 2,
             images, labs)
    assert load_idx(images, labs).labels.tolist() == [255, 0]


MiB = 1 << 20


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_make_pattern_images_peak_memory_is_its_output_plus_4_mib():
    output = 3048 * 784 * 8
    assert _peak_bytes(make_pattern_images, 3048, 10, 28, 0) <= output + 4 * MiB


def test_save_idx_peak_memory_is_one_float64_copy_plus_the_pixels(tmp_path):
    ds = _criterion_7_set()
    bound = ds.features.nbytes + ds.features.size + MiB
    assert _peak_bytes(save_idx, ds.features, ds.labels, 28, 28,
                       tmp_path / "im", tmp_path / "lb") <= bound


@pytest.mark.parametrize("args,kwargs", [
    ((3048, 10, 28, 0), {}),            # criterion 7's set
    ((3048, 10, 28, 31), {}),           # score-eager's set at seed 31
    ((20, 10, 28, 3), {}),              # fewer rows than one 41-row block
    ((100, 7, 28, 4), {}),              # not a multiple of the block
    ((50, 3, 8, 5), {"max_shift": 0}),
    ((50, 3, 8, 5), {"max_shift": 8}),  # shifts reach the side
    ((50, 3, 8, 5), {"max_shift": 11}),
    ((60, 4, 28, 6), {"noise": 0.0}),
    ((60, 4, 28, 6), {"contrast_range": (0.7, 0.7)}),
    ((30, 2, 2, 7), {}),
], ids=["criterion-7", "score-eager-31", "n-20", "n-100", "shift-0", "shift-8", "shift-11",
        "noise-0", "contrast-c-c", "side-2"])
def test_pattern_images_equal_the_reference_loop_bit_for_bit(args, kwargs):
    n, num_classes, side, seed = args
    got = make_pattern_images(*args, **kwargs).features
    want = pattern_images_loop(n, num_classes, side, stream(seed, "patterns"), **kwargs)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("make,key", [
    (lambda v: make_pattern_images(20, 2, 8, seed=0, noise=v), "patterns_noise"),
    (lambda v: make_blobs(20, 2, 4, v, seed=0), "blobs_spread"),
    (lambda v: make_ring(20, 2, 0.3, v, seed=0), "ring_noise"),
])
@pytest.mark.parametrize("value", [-0.5, -1.0, np.inf, np.nan])
def test_dataset_noise_must_be_finite_and_non_negative(make, key, value):
    with pytest.raises(InvariantViolationError, match=f"{key} must be >= 0 and finite"):
        make(value)


def test_make_blobs_properties():
    a = make_blobs(64, 4, 8, 0.01, seed=5)
    b = make_blobs(64, 4, 8, 0.01, seed=5)
    assert np.array_equal(a.features, b.features)
    assert a.features.min() >= 0.0 and a.features.max() <= 1.0

    tight = make_blobs(12, 3, 5, 0.0, seed=1)
    for cls in range(3):
        rows = tight.features[tight.labels == cls]
        assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))  # spread 0

    with pytest.raises(InvalidCountsError):
        make_blobs(1, 2, 4, 0.1, seed=0)


def test_blobs_one_nn_oracle():
    ds = make_blobs(200, 4, 8, 0.004, seed=7)
    feats, labels = ds.features, ds.labels
    correct = 0
    for i in range(len(ds)):
        d2 = np.sum((feats - feats[i]) ** 2, axis=1)
        d2[i] = np.inf
        correct += labels[np.argmin(d2)] == labels[i]
    assert correct == len(ds)  # tiny spread vs center separation


def test_make_ring_properties():
    ds = make_ring(90, 3, 0.35, 0.01, seed=2)
    assert len(ds) == 90 and ds.dim == 2
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    radii = np.linalg.norm(ds.features - 0.5, axis=1)
    assert np.all(np.abs(radii - 0.35) < 0.1)
    assert np.array_equal(ds.features, make_ring(90, 3, 0.35, 0.01, seed=2).features)


def test_make_pattern_images_properties():
    ds = make_pattern_images(40, 5, 8, seed=3)
    assert ds.dim == 64 and ds.image_shape == (8, 8)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert np.array_equal(ds.features, make_pattern_images(40, 5, 8, seed=3).features)
    assert ds.labels.tolist() == [i % 5 for i in range(40)]


def test_dataset_csv_export(tmp_path):
    ds = make_blobs(5, 2, 3, 0.1, seed=0)
    path = tmp_path / "ds.csv"
    save_dataset_csv(ds, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,f0,f1,f2"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert int(first[0]) == ds.labels[0]
    assert float(first[1]) == ds.features[0, 0]  # repr round-trips exactly


def test_dataset_csv_bytes(tmp_path):
    ds = Dataset(np.array([[0.5, -0.0], [1e-300, 1.0]]), np.array([3, 0], dtype=np.int64), "t", 4)
    path = tmp_path / "ds.csv"
    save_dataset_csv(ds, path)
    assert path.read_bytes() == b"label,f0,f1\n3,0.5,-0.0\n0,1e-300,1.0\n"


def test_write_csv_bytes(tmp_path):
    # the format of every CSV the package writes: str for integers, repr(float) otherwise
    rows = [
        (np.int64(3), np.float64(0.5), -0.0, 1e-300),
        (7, 0.1, np.float64(-0.0), np.float64(2.5e-7)),
    ]
    path = tmp_path / "t.csv"
    write_csv(path, ["label", "a", "b", "c"], rows)
    assert path.read_bytes() == b"label,a,b,c\n3,0.5,-0.0,1e-300\n7,0.1,-0.0,2.5e-07\n"


def test_augment_identity_policy():
    x = np.random.default_rng(0).uniform(0, 1, size=16)
    policy = AugmentationPolicy(0.0, 0.0, 0, image_shape=(4, 4))
    out = augment_view(x, policy, stream(0, "aug", 0))
    assert np.array_equal(out, x)


def test_augment_reproducible_and_stream_dependent():
    x = np.random.default_rng(1).uniform(0, 1, size=64)
    policy = AugmentationPolicy(0.1, 0.1, 1, image_shape=(8, 8))
    a = augment_view(x, policy, stream(7, "aug", 0, 0, 5, 0))
    b = augment_view(x, policy, stream(7, "aug", 0, 0, 5, 0))
    c = augment_view(x, policy, stream(7, "aug", 0, 0, 5, 1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_augment_shift_zero_fills():
    img = np.ones((4, 4))
    policy = AugmentationPolicy(0.0, 0.0, 3, image_shape=(4, 4))
    # scan seeds until a nonzero shift is drawn, then check the zero fill
    for s in range(50):
        out = augment_view(img.ravel(), policy, stream(s, "shift")).reshape(4, 4)
        if out.sum() < 16.0:
            assert set(np.unique(out)) <= {0.0, 1.0}
            return
    pytest.fail("no nonzero shift drawn in 50 seeds")


def test_augment_mask_fraction():
    x = np.ones(100)
    policy = AugmentationPolicy(0.0, 0.25, 0)
    out = augment_view(x, policy, stream(3, "mask"))
    assert int((out == 0.0).sum()) == 25


def test_augment_noise_statistics():
    # mean |delta| of Gaussian noise is sigma * sqrt(2/pi)
    x = np.full(10_000, 0.5)
    policy = AugmentationPolicy(0.1, 0.0, 0)
    out = augment_view(x, policy, stream(4, "noise"))
    expected = 0.1 * np.sqrt(2.0 / np.pi)
    assert abs(np.mean(np.abs(out - x)) - expected) <= 0.05 * expected


def test_augment_batch_masks_n_mask_per_row():
    x = np.ones((64, 100))
    policy = AugmentationPolicy(0.0, 0.25, 0)
    out = augment_view(x, policy, stream(3, "mask"))
    assert out.shape == (64, 100)
    assert ((out == 0.0).sum(axis=1) == 25).all()
    assert np.array_equal(x, np.ones((64, 100)))  # the input batch is not touched


def test_augment_batch_masks_each_coordinate_uniformly():
    # 4000 rows, 10 of 50 coordinates masked per row: every coordinate's
    # masking rate is 0.2, with a binomial sd of 0.0063; allow 0.03 (4.7 sd)
    x = np.ones((4000, 50))
    policy = AugmentationPolicy(0.0, 0.2, 0)
    rate = (augment_view(x, policy, stream(5, "mask-rate")) == 0.0).mean(axis=0)
    assert np.abs(rate - 0.2).max() <= 0.03


def _zero_fill_shift(img, dy, dx):
    """Reference shift: roll, then zero the rows and columns that wrapped."""
    rows, cols = img.shape
    out = np.roll(img, (dy, dx), axis=(0, 1))
    out[: max(0, dy)] = 0.0
    out[rows + min(0, dy):] = 0.0
    out[:, : max(0, dx)] = 0.0
    out[:, cols + min(0, dx):] = 0.0
    return out


def test_augment_batch_shift_matches_a_zero_fill_shift_per_row():
    rows, cols, s = 6, 8, 3
    x = np.random.default_rng(2).uniform(0.1, 1.0, size=(1000, rows * cols))
    policy = AugmentationPolicy(0.0, 0.0, s, image_shape=(rows, cols))
    out = augment_view(x, policy, stream(6, "shift-batch"))
    offsets = [(dy, dx) for dy in range(-s, s + 1) for dx in range(-s, s + 1)]
    seen = set()
    for got, img in zip(out, x):
        img = img.reshape(rows, cols)
        match = [o for o in offsets
                 if np.array_equal(got, _zero_fill_shift(img, *o).reshape(-1))]
        assert len(match) == 1
        seen.add(match[0])
    assert seen == set(offsets)  # every offset group in [-s, s]^2 was exercised


@pytest.mark.parametrize("shape,rows,s", [
    ((50, 60), (6, 10), 3),     # not square
    ((30, 16), (4, 4), 5),      # shifts reach past the side
    ((64,), (8, 8), 2),         # one row passed as (d,)
    ((256, 784), (28, 28), 2),  # the criterion-7 batch
], ids=["6x10", "past-the-side", "one-row", "criterion-7"])
def test_padded_window_shift_equals_the_whole_batch_oracle(shape, rows, s):
    x = np.random.default_rng(s).uniform(0.1, 1.0, size=shape)
    policy = AugmentationPolicy(0.0, 0.0, s, image_shape=rows)
    got = augment_view(x, policy, stream(10, "shift", s))
    assert np.array_equal(got, augment_whole_batch(x, 0.0, 0.0, s, rows, stream(10, "shift", s)))
    if s >= min(rows):
        assert (np.atleast_2d(got) == 0.0).all(axis=1).any()  # some row slid out whole
    if shape[0] == 256:
        assert np.array_equal(got, shift_batch_grouped(x, s, rows, stream(10, "shift", s)))


def test_shift_makes_as_many_numpy_calls_for_one_offset_as_for_25():
    class Drawn:  # a generator whose (b, 2) integers draw is the given offsets
        def __init__(self, shifts):
            self.shifts = np.asarray(shifts)

        def integers(self, low, high, size):
            assert (low, high, size) == (-2, 3, self.shifts.shape)
            return self.shifts

    def c_calls(shifts):
        x = np.random.default_rng(0).uniform(size=(25, 784))
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(arg) if event == "c_call" else None)
        try:
            _shift_batch(x, AugmentationPolicy(0.0, 0.0, 2, image_shape=(28, 28)), Drawn(shifts))
        finally:
            sys.setprofile(None)
        return len(calls)

    every = [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)]
    assert c_calls([(1, -2)] * 25) == c_calls(every)


def test_augment_one_row_batch_equals_row_call():
    x = np.random.default_rng(3).uniform(0, 1, size=64)
    policy = AugmentationPolicy(0.1, 0.2, 2, image_shape=(8, 8))
    row = augment_view(x, policy, stream(8, "aug", 1))
    batch = augment_view(x[None, :], policy, stream(8, "aug", 1))
    assert row.shape == (64,) and batch.shape == (1, 64)
    assert np.array_equal(batch[0], row)


@pytest.mark.parametrize("b,d,policy", [
    (100, 784, AugmentationPolicy(0.1, 0.1, 2, image_shape=(28, 28))),  # 41-row blocks
    (250, 300, AugmentationPolicy(0.05, 0.2, 0)),                        # 109-row blocks
    (7, 64, AugmentationPolicy(0.1, 0.1, 1, image_shape=(8, 8))),        # one block
])
def test_augment_draws_in_row_blocks_as_the_whole_batch_form(b, d, policy):
    x = np.random.default_rng(b).uniform(0, 1, size=(b, d))
    got = augment_view(x, policy, stream(9, "aug", b))
    want = augment_whole_batch(x, policy.noise_sigma, policy.mask_fraction, policy.shift_max,
                               policy.image_shape, stream(9, "aug", b))
    assert np.array_equal(got, want)


def test_pretrain_step_builds_one_augment_stream_per_view(monkeypatch):
    from curvalign import trainer
    from curvalign.model import Architecture

    paths = []

    def counting_stream(seed, *path):
        paths.append(path)
        return stream(seed, *path)

    monkeypatch.setattr(trainer, "stream", counting_stream)
    config = trainer.TrainConfig(
        architecture=Architecture(16, (16,), (16, 8)), epochs=1, batch_size=32, k=4, seed=2,
        augmentation=AugmentationPolicy(0.05, 0.1, 0),
    )
    trainer.pretrain(config, make_blobs(32, 4, 16, 0.1, seed=2))  # one step
    assert paths == [("augment", 0, 0, 0), ("augment", 0, 0, 1)]


def test_pretrain_builds_augment_streams_in_order_across_epochs(monkeypatch):
    from curvalign import trainer
    from curvalign.model import Architecture

    paths = []

    def counting_stream(seed, *path):
        paths.append(path)
        return stream(seed, *path)

    monkeypatch.setattr(trainer, "stream", counting_stream)
    config = trainer.TrainConfig(
        architecture=Architecture(16, (16,), (16, 8)), epochs=2, batch_size=32, k=4, seed=2,
        augmentation=AugmentationPolicy(0.05, 0.1, 0),
    )
    trainer.pretrain(config, make_blobs(64, 4, 16, 0.1, seed=2))  # 2 epochs x 2 batches
    assert paths == [
        ("augment", epoch, batch, view) for epoch in (0, 1) for batch in (0, 1) for view in (0, 1)
    ]


@pytest.mark.parametrize("d", [32, 30])
def test_augment_rejects_an_image_shape_that_does_not_fit_the_rows(d):
    rows = np.full((3, d), 0.5)
    policy = AugmentationPolicy(0.1, 0.1, 1, image_shape=(4, 4))
    with pytest.raises(ShapeMismatchError) as info:
        augment_view(rows, policy, stream(0, "aug"))
    assert "16" in str(info.value) and str(d) in str(info.value)


def test_batches_cover_and_drop():
    plan = BatchPlan(seed=0, batch_size=5, min_batch=1)
    got = batches(10, plan, epoch=0)
    assert [len(b) for b in got] == [5, 5]
    assert sorted(np.concatenate(got).tolist()) == list(range(10))

    plan = BatchPlan(seed=0, batch_size=4, min_batch=5)  # k=3 -> min k+2=5
    got = batches(10, plan, epoch=0)
    assert [len(b) for b in got] == [4, 4]  # trailing 2 dropped

    a = batches(10, BatchPlan(1, 4, 1), epoch=2)
    b = batches(10, BatchPlan(1, 4, 1), epoch=2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = batches(10, BatchPlan(1, 4, 1), epoch=3)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_batches_errors():
    with pytest.raises(BatchTooSmallError):
        batches(4, BatchPlan(0, 8, 1), 0)


def test_stream_determinism_and_independence():
    a = stream(0, "x", 1).normal(size=4)
    b = stream(0, "x", 1).normal(size=4)
    c = stream(0, "x", 2).normal(size=4)
    d = stream(1, "x", 1).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_dataset_validation():
    with pytest.raises(CountMismatchError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), "x", 2)
    with pytest.raises(ValueError):
        Dataset(np.full((2, 2), 1.5), np.zeros(2, dtype=int), "x", 2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Dataset(np.array([[0.5, np.nan], [0.5, 0.5]]), np.zeros(2, dtype=int), "x", 2)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
def test_policy_rejects_a_non_finite_or_negative_noise_sigma(sigma):
    with pytest.raises(InvariantViolationError, match="noise_sigma must be >= 0 and finite"):
        AugmentationPolicy(noise_sigma=sigma)
