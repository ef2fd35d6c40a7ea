import copy
import hashlib
import pickle
import struct

import numpy as np
import pytest

from casif import (
    AdamState,
    Checkpoint,
    HyperParams,
    ItemVocabulary,
    ModelParams,
    PrefixExample,
    ProcessedDataset,
    TrainConfig,
    TrainingError,
    adam_step,
    backward_batch,
    finite_difference_grad,
    forward_batch,
    init_params,
    load_checkpoint,
    lr_for_epoch,
    make_batches,
    save_checkpoint,
    train,
)
from casif.errors import ConfigError, DataError
from casif.model import VARIANTS, sub_batches, zero_gradients
from casif.trainer import ADAM_BETA1
from reference_impl import ref_adam_step


def toy_dataset(num_items=10, n_sessions=8, seed=0):
    rng = np.random.default_rng(seed)
    sessions = [[int(x) for x in rng.integers(0, num_items, size=int(rng.integers(2, 6)))]
                for _ in range(n_sessions)]
    vocab = ItemVocabulary({str(i): i for i in range(num_items)},
                           [str(i) for i in range(num_items)])
    return ProcessedDataset(train_sessions=sessions, test_sessions=[], vocab=vocab)


def small_cfg(**kw):
    kw.setdefault("hp", HyperParams(d=6))
    kw.setdefault("epochs", 2)
    return TrainConfig(**kw)


class TestLearningRateSchedule:
    def test_documented_values(self):
        cfg = small_cfg()
        assert lr_for_epoch(cfg, 0) == 0.001
        assert lr_for_epoch(cfg, 2) == 0.001
        assert lr_for_epoch(cfg, 3) == pytest.approx(0.0001)
        assert lr_for_epoch(cfg, 7) == pytest.approx(1e-5)

    def test_non_increasing_piecewise_constant(self):
        cfg = small_cfg()
        values = [lr_for_epoch(cfg, e) for e in range(12)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for start in range(0, 12, 3):
            assert len(set(values[start:start + 3])) == 1


class TestBatching:
    def test_sizes_and_partition(self):
        examples = [PrefixExample([0], 1) for _ in range(300)]
        for i, ex in enumerate(examples):
            ex.label = i   # tag so we can track the partition
        batches = make_batches(examples, 128, seed=0, epoch=0)
        assert [len(b) for b in batches] == [128, 128, 44]
        seen = sorted(ex.label for b in batches for ex in b)
        assert seen == list(range(300))

    def test_deterministic_and_epoch_dependent(self):
        examples = [PrefixExample([0], i) for i in range(50)]
        a = make_batches(examples, 16, seed=3, epoch=0)
        b = make_batches(examples, 16, seed=3, epoch=0)
        c = make_batches(examples, 16, seed=3, epoch=1)
        flat = lambda bs: [ex.label for batch in bs for ex in batch]
        assert flat(a) == flat(b)
        assert flat(a) != flat(c)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            make_batches([], 128, seed=0, epoch=0)


class TestAdam:
    def test_first_step_magnitude(self):
        hp = HyperParams(d=4)
        params = init_params(5, hp, seed=0)
        before = params.copy()
        grads = zero_gradients(params)
        grads.flat[:] = 1.0
        adam_step(params, grads, AdamState.fresh(params), lr=0.01)
        # bias-corrected first step: theta -= lr * 1 / (1 + eps)
        expect = 0.01 / (1.0 + 1e-8)
        for name, arr in params.tensors():
            assert np.allclose(getattr(before, name) - arr, expect, atol=1e-15)

    def test_zero_gradient_is_identity(self):
        hp = HyperParams(d=4)
        params = init_params(5, hp, seed=1)
        before = params.copy()
        state = AdamState.fresh(params)
        adam_step(params, zero_gradients(params), state, lr=0.5)
        assert state.t == 1
        for name, arr in params.tensors():
            assert np.array_equal(arr, getattr(before, name))

    def test_non_finite_gradient_aborts_naming_tensor(self):
        hp = HyperParams(d=4)
        params = init_params(5, hp, seed=2)
        grads = zero_gradients(params)
        grads["att_score"][2] = np.nan
        with pytest.raises(TrainingError, match="att_score"):
            adam_step(params, grads, AdamState.fresh(params), lr=0.1)

    def test_descends_a_quadratic(self):
        # minimize 0.5 * ||theta||^2 through the same update rule
        hp = HyperParams(d=4)
        params = init_params(3, hp, seed=3)
        state = AdamState.fresh(params)
        for _ in range(400):
            grads = zero_gradients(params)
            grads.flat[:] = params.flat
            adam_step(params, grads, state, lr=0.05)
        assert max(np.abs(arr).max() for _, arr in params.tensors()) < 1e-2

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_per_tensor_reference_bit_for_bit(self, variant):
        hp = HyperParams(d=4, variant=variant)
        params = init_params(6, hp, seed=4)
        state = AdamState.fresh(params)
        ref = {name: arr.copy() for name, arr in params.tensors()}
        ref_m1 = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        ref_m2 = {name: np.zeros_like(arr) for name, arr in params.tensors()}
        rng = np.random.default_rng(5)
        for t in range(1, 51):
            grads = zero_gradients(params)
            n = grads.flat.size
            grads.flat[:] = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 4, n)
            ref_grads = {name: g.copy() for name, g in grads.items()}
            adam_step(params, grads, state, lr=0.01)
            ref_adam_step(ref, ref_grads, ref_m1, ref_m2, t, lr=0.01)
        assert state.t == 50
        for name, arr in params.tensors():
            assert np.array_equal(arr, ref[name]), name
            assert np.array_equal(state.moment1[name], ref_m1[name]), name
            assert np.array_equal(state.moment2[name], ref_m2[name]), name

    @pytest.mark.parametrize("variant, last", [("casif", "mlp_current_b"), ("casif_s", "att_simple_b")])
    def test_non_finite_in_last_tensor_named_with_coordinate(self, variant, last):
        hp = HyperParams(d=4, variant=variant)
        params = init_params(5, hp, seed=2)
        before = params.copy()
        grads = zero_gradients(params)
        assert params.tensor_names()[-1] == last
        grads[last][3] = np.nan
        state = AdamState.fresh(params)
        with pytest.raises(TrainingError, match=rf"{last} at coordinate \(3,\)"):
            adam_step(params, grads, state, lr=0.1)
        assert state.t == 0 and np.array_equal(params.flat, before.flat)

    def test_finite_gradient_whose_sum_overflows_still_steps(self):
        hp = HyperParams(d=4)
        params = init_params(5, hp, seed=6)
        before = params.copy()
        grads = zero_gradients(params)
        grads["emb"][0, 0] = grads["w_in"][1, 1] = 1e308
        grads["att_bias"][:] = 1.0
        with np.errstate(over="ignore"):
            assert not np.isfinite(grads.flat.sum())
        state = AdamState.fresh(params)
        with np.errstate(over="ignore"):     # g * g overflows in the second moment
            adam_step(params, grads, state, lr=0.1)
        assert state.t == 1
        assert state.moment1["emb"][0, 0] == (1.0 - ADAM_BETA1) * 1e308
        assert np.all(params.att_bias != before.att_bias)
        assert np.isfinite(params.flat).all()


@pytest.mark.parametrize("variant", VARIANTS)
class TestFlatLayout:
    """Every tensor is a view into one vector, row-major in declared order."""

    def assert_tiles(self, flat, tensors):
        flat[:] = np.arange(flat.size)      # writes through to the views, in order
        assert np.array_equal(np.concatenate([arr.reshape(-1) for _, arr in tensors]),
                              np.arange(flat.size))
        assert all(np.shares_memory(arr, flat) for _, arr in tensors)

    def test_params_and_gradients_are_views_of_flat(self, variant):
        hp = HyperParams(d=3, variant=variant)
        params = init_params(5, hp, seed=1)
        examples = [PrefixExample([1, 2], 3)]
        assert type(backward_batch(forward_batch(examples, params, hp), params, hp)) is type(params)
        assert type(finite_difference_grad(examples, params, hp)) is type(params)
        assert ModelParams(params.flat, params.shapes()).flat is params.flat
        assert params.flat.dtype == np.float64
        self.assert_tiles(params.flat, params.tensors())
        grads = zero_gradients(params)
        assert type(grads) is type(params)
        assert list(grads) == list(params.tensor_names())
        self.assert_tiles(grads.flat, list(grads.items()))

    def test_copy_shares_no_memory(self, variant):
        params = init_params(5, HyperParams(d=3, variant=variant), seed=1)
        dup = params.copy()
        assert np.array_equal(dup.flat, params.flat)
        assert not np.shares_memory(dup.flat, params.flat)
        self.assert_tiles(dup.flat, dup.tensors())

    def test_deepcopy_and_pickle_keep_the_views(self, variant):
        params = init_params(5, HyperParams(d=3, variant=variant), seed=1)
        grads = zero_gradients(params)
        for dup in (copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            assert not np.shares_memory(dup.flat, params.flat)
            self.assert_tiles(dup.flat, dup.tensors())
        for dup in (copy.deepcopy(grads), pickle.loads(pickle.dumps(grads))):
            assert type(dup) is type(grads) and not np.shares_memory(dup.flat, grads.flat)
            self.assert_tiles(dup.flat, list(dup.items()))

    def test_checkpoint_tensor_section_is_flat(self, tmp_path, variant):
        hp = HyperParams(d=3, variant=variant)
        params = init_params(5, hp, seed=1)
        adam = AdamState.fresh(params)
        assert type(adam.moment1) is type(params) and type(adam.moment2) is type(params)
        adam.moment1.flat[:] = 0.5
        adam.moment2.flat[:] = np.arange(adam.moment2.flat.size) + 0.25
        path = tmp_path / "flat.ckpt"
        save_checkpoint(path, Checkpoint(hp=hp, params=params, adam=adam, epoch=0, rng_seed=0))
        header = 41     # magic, version, the model fields, epoch, Adam step and seed
        data = path.read_bytes()
        assert data[header:] == params.flat.tobytes() + adam.moment1.flat.tobytes() + adam.moment2.flat.tobytes()
        back = load_checkpoint(path)
        assert np.array_equal(back.params.flat, params.flat)
        self.assert_tiles(back.params.flat, back.params.tensors())
        for moment in (back.adam.moment1, back.adam.moment2):
            assert type(moment) is type(back.params)
            self.assert_tiles(moment.flat, list(moment.items()))


class TestConfigValidation:
    def test_bad_values_rejected(self):
        nan, inf = float("nan"), float("inf")
        for kw in ({"epochs": 0}, {"batch_size": 0}, {"lr0": 0.0},
                   {"lr_decay_every": 0}, {"l2_lambda": -1e-6},
                   # a sign-flipping or non-finite rate trains wrongly or fails late on the loss
                   {"lr0": inf}, {"lr0": nan}, {"lr_decay_factor": -1.0}, {"lr_decay_factor": 0.0},
                   {"lr_decay_factor": nan}, {"lr_decay_factor": inf},
                   {"l2_lambda": nan}, {"l2_lambda": inf}):
            with pytest.raises(ConfigError, match=next(iter(kw))):
                small_cfg(**kw)


class TestTrainingLoop:
    def test_empty_dataset_rejected(self):
        ds = toy_dataset()
        ds.train.clear()
        with pytest.raises(DataError):
            train(ds, small_cfg())

    def test_loss_descends_without_decay(self):
        ds = toy_dataset(seed=4)
        cfg = small_cfg(epochs=20, batch_size=8, lr0=0.01, lr_decay_factor=1.0, seed=0)
        result = train(ds, cfg)
        losses = [log.mean_loss for log in result.epoch_logs]
        # conflicting random targets put a floor under the loss; still, the
        # descent must be unmistakable
        assert losses[-1] < losses[0] - 0.3

    def test_casif_s_leaves_its_unused_tensors_at_their_init(self):
        # README: a casif_s checkpoint holds the conditioning and interest tensors, which get zero gradient
        ds = toy_dataset(n_sessions=20, seed=7)
        hp = HyperParams(d=6, variant="casif_s")
        cfg = small_cfg(epochs=1, batch_size=4, hp=hp, l2_lambda=0.0, seed=3)
        trained = train(ds, cfg).params
        init = init_params(ds.num_items, hp, cfg.seed)
        assert not np.array_equal(trained.att_simple_w, init.att_simple_w)
        for name in ("att_item", "att_last", "att_mean", "att_bias",
                     "mlp_general_w", "mlp_general_b", "mlp_current_w", "mlp_current_b"):
            assert np.array_equal(trained[name], init[name]), name

    def test_l2_term_included_in_reported_loss(self):
        ds = toy_dataset(seed=5)
        r_none = train(ds, small_cfg(epochs=1, l2_lambda=0.0))
        r_heavy = train(ds, small_cfg(epochs=1, l2_lambda=1.0))
        # identical init: the difference at epoch 0 is lambda * sum theta^2 plus
        # second-order effects; with lambda=1 it must be clearly visible
        assert r_heavy.epoch_logs[0].mean_loss > r_none.epoch_logs[0].mean_loss + 1.0

    def test_one_loss_pass_per_sub_batch(self, monkeypatch):
        # the loss train logs and the gradient backward_batch takes come from one call
        import casif.model
        ds = toy_dataset(num_items=2000, n_sessions=40, seed=6)
        cfg = small_cfg(epochs=1, batch_size=32)
        single = casif.model._loss_and_grad
        widths = []

        def counting(probs, *args):
            widths.append(probs.shape[0])
            return single(probs, *args)

        monkeypatch.setattr(casif.model, "_loss_and_grad", counting)
        train(ds, cfg)
        batches = make_batches(ds.train, cfg.batch_size, cfg.seed, 0)
        expected = [len(rows) for batch in batches for rows in sub_batches(batch, ds.num_items, cfg.hp)]
        assert len(expected) > len(batches)
        assert widths == expected

    def test_identical_runs_identical_checkpoints(self, tmp_path):
        ds = toy_dataset(seed=7)
        paths = []
        for run in range(2):
            result = train(ds, small_cfg(epochs=3, seed=11))
            p = tmp_path / f"run{run}.ckpt"
            save_checkpoint(p, result.checkpoint)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ds = toy_dataset(seed=8)
        whole = train(ds, small_cfg(epochs=4, seed=5))
        p_whole = tmp_path / "whole.ckpt"
        save_checkpoint(p_whole, whole.checkpoint)

        first = train(ds, small_cfg(epochs=2, seed=5))
        p_half = tmp_path / "half.ckpt"
        save_checkpoint(p_half, first.checkpoint)
        resumed = train(ds, small_cfg(epochs=4, seed=5), resume=load_checkpoint(p_half))
        p_resumed = tmp_path / "resumed.ckpt"
        save_checkpoint(p_resumed, resumed.checkpoint)

        assert p_whole.read_bytes() == p_resumed.read_bytes()
        assert [l.epoch for l in resumed.epoch_logs] == [2, 3]

    def test_resume_item_count_mismatch_rejected(self):
        ds = toy_dataset(num_items=10, seed=9)
        other = toy_dataset(num_items=11, seed=9)
        ckpt = train(other, small_cfg(epochs=1)).checkpoint
        with pytest.raises(DataError, match="items"):
            train(ds, small_cfg(epochs=2), resume=ckpt)

    def test_resume_takes_model_settings_and_seed_from_checkpoint(self, tmp_path):
        ds = toy_dataset(seed=8)
        whole = train(ds, small_cfg(epochs=4, seed=5))
        first = train(ds, small_cfg(epochs=2, seed=5))
        p_half = tmp_path / "half.ckpt"
        save_checkpoint(p_half, first.checkpoint)
        resumed = train(ds, small_cfg(epochs=4, hp=HyperParams(d=9)), resume=load_checkpoint(p_half))
        assert resumed.checkpoint.rng_seed == 5 and resumed.checkpoint.hp == HyperParams(d=6)
        for path, result in ((tmp_path / "whole.ckpt", whole), (tmp_path / "resumed.ckpt", resumed)):
            save_checkpoint(path, result.checkpoint)
        assert (tmp_path / "whole.ckpt").read_bytes() == (tmp_path / "resumed.ckpt").read_bytes()

    def test_resume_past_requested_epochs_rejected(self):
        ds = toy_dataset(seed=8)
        ckpt = train(ds, small_cfg(epochs=4)).checkpoint
        with pytest.raises(ConfigError, match=r"4 epochs.* 2 asked"):
            train(ds, small_cfg(epochs=2), resume=ckpt)
        assert train(ds, small_cfg(epochs=4), resume=ckpt).epoch_logs == []


class TestCheckpointFormat:
    def roundtrip(self, tmp_path, **hp_kw):
        hp = HyperParams(d=5, **hp_kw)
        params = init_params(7, hp, seed=13)
        adam = AdamState.fresh(params)
        adam.t = 42
        for name in adam.moment1:
            adam.moment1[name] += 0.25
            adam.moment2[name] += 0.5
        ckpt = Checkpoint(hp=hp, params=params, adam=adam, epoch=9, rng_seed=123)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        return ckpt, load_checkpoint(path), path

    def test_round_trip_bit_exact(self, tmp_path):
        ckpt, back, _ = self.roundtrip(tmp_path)
        assert back.hp == ckpt.hp
        assert back.num_items == 7 and back.epoch == 9 and back.rng_seed == 123
        assert back.adam.t == 42
        for name, arr in ckpt.params.tensors():
            assert np.array_equal(getattr(back.params, name), arr)
            assert np.array_equal(back.adam.moment1[name], ckpt.adam.moment1[name])
            assert np.array_equal(back.adam.moment2[name], ckpt.adam.moment2[name])

    def test_round_trip_simplified_variant(self, tmp_path):
        ckpt, back, _ = self.roundtrip(tmp_path, variant="casif_s")
        assert back.hp.variant == "casif_s"
        assert np.array_equal(back.params.att_simple_w, ckpt.params.att_simple_w)

    # sha256 of the checkpoint below.  It pins the tensor order, which is both
    # the byte layout and the init draw order, and the Adam-state layout.
    LAYOUT_SHA256 = {
        "casif": "92f58b3ccac0c9c2f791f66d1b99be1097cb51cf4a990d4c1c002dda28c04641",
        "casif_s": "0ecd81bea620f3679692667c85ff76b2898853b9b76ae7ec8dc90ade737d8134",
    }

    @pytest.mark.parametrize("variant", ["casif", "casif_s"])
    def test_layout_pinned(self, tmp_path, variant):
        hp = HyperParams(d=3, gnn_steps=2, variant=variant)
        params = init_params(5, hp, seed=11)
        moment1, moment2 = init_params(5, hp, seed=12), init_params(5, hp, seed=13)
        moment2.flat[:] = moment2.flat * moment2.flat
        adam = AdamState(moment1=moment1, moment2=moment2, t=7)
        path = tmp_path / "pinned.ckpt"
        save_checkpoint(path, Checkpoint(hp=hp, params=params, adam=adam, epoch=2, rng_seed=19))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.LAYOUT_SHA256[variant]

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_oversized_header_is_truncation(self, tmp_path):
        # a corrupt header asking for far more tensor bytes than the file holds
        _, _, path = self.roundtrip(tmp_path)
        data = bytearray(path.read_bytes())
        data[6:14] = struct.pack("<II", 2**31, 2**32 - 1)   # d, num_items
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_detected(self, tmp_path):
        _, _, path = self.roundtrip(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 99])
    def test_unsupported_version_detected(self, tmp_path, version):
        _, _, path = self.roundtrip(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:6] = version.to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match=f"unsupported checkpoint version {version}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, offset",
                             [("embedding dimension", 6), ("num_items", 10), ("gnn_steps", 14)])
    def test_zero_header_field_is_a_data_error(self, tmp_path, field, offset):
        # a header value HyperParams or init_params rejects is a defect of the file,
        # not of the configuration
        _, _, path = self.roundtrip(tmp_path)
        data = bytearray(path.read_bytes())
        data[offset:offset + 4] = struct.pack("<I", 0)
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match=f"bad header: .*{field}") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch):
        import casif.trainer
        ckpt, _, path = self.roundtrip(tmp_path)
        before = path.read_bytes()
        write = casif.trainer._write_array
        calls = []

        def failing(fh, arr):
            calls.append(arr)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            write(fh, arr)

        monkeypatch.setattr(casif.trainer, "_write_array", failing)
        ckpt.params.flat += 1.0
        with pytest.raises(OSError):
            save_checkpoint(path, ckpt)
        assert path.read_bytes() == before
        assert load_checkpoint(path).epoch == 9
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
