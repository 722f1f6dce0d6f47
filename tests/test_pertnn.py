import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zoft.errors import CheckpointError, NumericOverflowError, PartitionMismatchError
from zoft.meta_trainer import MetaConfig, meta_step
from zoft.paramspace import BlockPartition, NoiseSeed, ParamVector
from zoft import pertnn
from zoft.testbeds import QuadraticTask
from zoft.zo_optimizer import OptState, _used_scales


def partition():
    return BlockPartition([("w", 4), ("b", 2)])


def random_params(hidden=6, seed=0):
    return pertnn.init(partition(), hidden=hidden, seed=NoiseSeed(seed))


def assert_same_params(a, b):
    """Names, hidden width and every array equal, bit for bit."""
    assert a.block_names == b.block_names and a.hidden == b.hidden
    for mine, theirs in zip(a.arrays, b.arrays):
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()


def write_checkpoint(params, path):
    with open(path, "wb") as f:
        pertnn.save(params, f)


def assert_round_trip(params, path):
    """Saved and loaded, `params` comes back whole: re-saving the loaded
    network writes the original bytes, and it matches bit for bit."""
    write_checkpoint(params, path)
    loaded = pertnn.load(path, params.block_names)
    again = path.with_name(path.name + ".again")
    write_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert_same_params(loaded, params)


def flatten(params):
    parts = []
    for i in range(params.n_blocks):
        parts += [params.w1[i].ravel(), params.b1[i], params.w2[i], [params.b2[i]]]
    return np.concatenate([np.atleast_1d(p) for p in parts])


def unflatten_into(params, flat):
    pos = 0
    for i in range(params.n_blocks):
        for arr in (params.w1[i], params.b1[i], params.w2[i]):
            n = arr.size
            arr.flat[:] = flat[pos : pos + n]
            pos += n
        params.b2[i] = float(flat[pos])
        pos += 1


def forward_block(params, x, block):
    """Block `block`'s raw std for the feature vector x, read from forward_all
    on a feature matrix with x in row `block` and zeros elsewhere."""
    features = np.zeros((params.n_blocks, pertnn.N_FEATURES))
    features[block] = x
    raws, cache = pertnn.forward_all(params, features)
    return float(raws[block]), cache


def backward_block(params, cache, upstream, block):
    """backward with `upstream` on block `block` and 0 on the others: the
    parameter gradients."""
    vector = np.zeros(params.n_blocks)
    vector[block] = upstream
    return pertnn.backward(params, cache, vector)


class TestForward:
    def test_output_positive(self):
        params = random_params()
        x = np.array([3.0, -2.0, 1.0, 0.5, 0.1])
        for i in range(2):
            raw, _ = forward_block(params, x, i)
            assert raw > 0

    def test_zero_input_fresh_network(self):
        # b1 is random under init, so only the all-zero-weight network is
        # guaranteed to emit exactly 1
        params = pertnn.constant_params(partition(), hidden=3)
        raw, _ = forward_block(params, np.zeros(5), 0)
        assert raw == pytest.approx(1.0, rel=1e-15)

    def test_constant_network_ignores_input(self):
        params = pertnn.constant_params(partition(), hidden=3)
        raw, _ = forward_block(params, np.array([9.0, -4.0, 2.0, 1.0, 7.0]), 1)
        assert raw == pytest.approx(1.0, rel=1e-15)

    def test_oracle_value(self):
        # 1 hidden unit, hand-evaluated: softplus(w2*tanh(w1.x+b1)+b2)
        p = pertnn.PertNNParams(
            ("w", "b"), 1,
            [np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])] * 2,
            [np.array([0.5])] * 2,
            [np.array([2.0])] * 2,
            [0.25] * 2,
        )
        x = np.array([0.3, 0.0, 1.0, 0.0, 0.0])
        expected = math.log1p(math.exp(2.0 * math.tanh(0.8) + 0.25))
        raw, _ = forward_block(p, x, 0)
        assert raw == pytest.approx(expected, rel=1e-15)

    def test_input_validation(self):
        # forward_all checks nothing; the step's one pass flags a NaN feature
        # row, and only that row, or raises for a vector
        features = np.ones((3, 2, 5))
        features[1, 1, 3] = np.nan
        failures = {}
        with np.errstate(invalid="ignore"):
            _, used, _, _ = _used_scales(random_params(), features, partition(), True,
                                         failures)
            assert list(failures) == [1]
            assert isinstance(failures[1], NumericOverflowError)
            assert "blocks b" in str(failures[1])
            assert np.all(used[1] == 1.0) and np.all(np.isfinite(used))
            with pytest.raises(NumericOverflowError, match="blocks b"):
                _used_scales(random_params(), features[1], partition(), False)

    def test_forward_all_shape_check(self):
        params = random_params()
        with pytest.raises(Exception):
            pertnn.forward_all(params, np.zeros((3, 5)))

    # hidden widths around SIMD and pairwise-sum strides, up to 1000; block
    # counts up to 33; a feature vector, or 1, 12 or 24 rows
    @pytest.mark.parametrize("hidden", [1, 2, 3, 7, 8, 16, 31, 32, 33, 64, 129, 1000])
    @pytest.mark.parametrize("n_blocks", [1, 2, 5, 33])
    def test_second_layer_matches_the_batched_matmul(self, hidden, n_blocks):
        # forward_all sums W2 . h with np.vecdot; the batched `@` it replaced
        # is the reference, and every trajectory depends on these bits
        rng = np.random.default_rng(hidden * 100 + n_blocks)
        w2 = rng.uniform(-1, 1, (n_blocks, hidden)) / math.sqrt(hidden)
        for rows in [(), (1,), (12,), (24,)]:
            h = np.tanh(rng.normal(size=rows + (n_blocks, hidden)))
            ref = (w2[..., None, :] @ h[..., None])[..., 0, 0]
            assert np.array_equal(np.vecdot(w2, h), ref)

    @pytest.mark.parametrize("rows", [(), (1,), (12,)])
    def test_forward_all_matches_the_out_of_place_form(self, rows):
        # the bias and tanh applied in place leave every bit of h, y and raw
        p = BlockPartition([(f"b{i}", 3) for i in range(5)])
        params = pertnn.init(p, hidden=32, seed=NoiseSeed(4))
        features = np.random.default_rng(5).normal(size=rows + (5, pertnn.N_FEATURES))
        h = np.tanh((params.w1 @ features[..., None])[..., 0] + params.b1)
        y = (params.w2[..., None, :] @ h[..., None])[..., 0, 0] + params.b2
        raw, cache = pertnn.forward_all(params, features)
        assert np.array_equal(cache.h, h) and np.array_equal(cache.y, y)
        assert np.array_equal(raw, np.logaddexp(0.0, y))


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for trial in range(100):
            params = random_params(hidden=4, seed=trial)
            x = rng.normal(size=5)
            block = trial % 2
            upstream = float(rng.normal())
            raw, cache = forward_block(params, x, block)
            grads = backward_block(params, cache, upstream, block)

            flat = flatten(params)
            gflat = flatten(grads)
            eps = 1e-6
            # probe 8 random coordinates per trial to keep this fast
            for j in rng.choice(len(flat), size=8, replace=False):
                probe = params.copy()
                bumped = flat.copy()
                bumped[j] += eps
                unflatten_into(probe, bumped)
                up, _ = forward_block(probe, x, block)
                bumped[j] -= 2 * eps
                unflatten_into(probe, bumped)
                dn, _ = forward_block(probe, x, block)
                fd = upstream * (up - dn) / (2 * eps)
                denom = max(abs(fd), abs(gflat[j]), 1e-8)
                worst = max(worst, abs(fd - gflat[j]) / denom)
        assert worst <= 1e-6

    def test_gradient_zero_outside_block(self):
        params = random_params()
        _, cache = forward_block(params, np.ones(5), 0)
        grads = backward_block(params, cache, 1.0, 0)
        assert np.all(grads.w1[1] == 0)
        assert grads.b2[1] == 0.0

    def test_stale_cache_rejected(self):
        params = random_params(hidden=4)
        other = random_params(hidden=7)
        _, cache = forward_block(other, np.ones(5), 0)
        with pytest.raises(PartitionMismatchError, match="cache does not match"):
            pertnn.backward(params, cache, 1.0)


class TestLeanBackward:
    """backward wraps the arrays it computes without checking them."""

    def test_gradients_alias_nothing(self):
        params = random_params()
        features = np.random.default_rng(0).normal(size=(params.n_blocks, pertnn.N_FEATURES))
        _, cache = pertnn.forward_all(params, features)
        upstream = np.array([0.5, -2.0])
        kept = [a.copy() for a in (*params.arrays, cache.x, cache.h, cache.y, upstream)]
        grads = pertnn.backward(params, cache, upstream)
        assert grads.block_names == params.block_names and grads.hidden == params.hidden
        for a, b in itertools.combinations(grads.arrays, 2):
            assert not np.shares_memory(a, b)
        for arr in grads.arrays:
            arr += 1.0
        now = (*params.arrays, cache.x, cache.h, cache.y, upstream)
        assert all(np.array_equal(a, b) for a, b in zip(now, kept))

    def test_meta_step_builds_no_validated_params(self, monkeypatch):
        # the network's weights are checked where they come from outside
        # (init, load, copy); a meta-step's gradients are the package's own
        built = []
        check = pertnn.PertNNParams.__init__
        monkeypatch.setattr(pertnn.PertNNParams, "__init__",
                            lambda self, *args: built.append(1) or check(self, *args))
        part = BlockPartition([("a", 2), ("b", 3)])
        rng = np.random.default_rng(0)
        task = QuadraticTask(part, eigs=rng.uniform(0.2, 2.0, 5), theta_star=rng.normal(size=5))
        theta = ParamVector(task.init_theta(0), part)
        net = pertnn.init(part, hidden=4, seed=NoiseSeed(0))
        built.clear()
        z = rng.standard_normal(5)
        for normalize in (True, False):
            config = MetaConfig(eta1=0.05, eta2=0.1, steps=1, seed=0, normalize=normalize)
            meta_step(theta, net, task, OptState(), 0, config, z)
        assert built == []


class TestParams:
    def test_add_scaled(self):
        a = random_params(seed=1)
        b = random_params(seed=2)
        expect = flatten(a) + 0.5 * flatten(b)
        a.add_scaled(b, 0.5)
        assert np.allclose(flatten(a), expect, rtol=0, atol=0)

    @pytest.mark.parametrize("factor", [0.5, -0.05, 1.0 / 3.0])
    def test_add_scaled_has_the_bits_of_per_array_updates(self, factor):
        a, b = random_params(seed=1), random_params(seed=2)
        want = [mine.copy() for mine in a.arrays]
        for mine, theirs in zip(want, b.arrays):
            mine += factor * theirs
        a.add_scaled(b, factor)
        for got, mine in zip(a.arrays, want):
            assert got.tobytes() == mine.tobytes()

    def test_add_scaled_leaves_its_argument_as_it_was(self):
        a, b = random_params(seed=1), random_params(seed=2)
        before = b.flat.copy()
        a.add_scaled(b, -0.05)
        assert b.flat.tobytes() == before.tobytes()

    def test_copy(self):
        a = random_params()
        b = a.copy()
        assert_same_params(a, b)
        b.w1[0, 0, 0] += 1.0
        assert a.w1[0, 0, 0] != b.w1[0, 0, 0]

    def test_copy_shares_no_memory(self):
        a = random_params()
        b = a.copy()
        for x, y in itertools.product((a.flat, *a.arrays), (b.flat, *b.arrays)):
            assert not np.shares_memory(x, y)

    def test_weights_are_views_of_one_buffer(self, tmp_path):
        # W1, b1, W2 and b2, in that order, tile the flat buffer
        params = random_params()
        features = np.random.default_rng(0).normal(size=(params.n_blocks, pertnn.N_FEATURES))
        _, cache = pertnn.forward_all(params, features)
        write_checkpoint(params, tmp_path / "net.ckpt")
        built = [params, params.copy(), pertnn.load(tmp_path / "net.ckpt", params.block_names),
                 pertnn.backward(params, cache, np.array([0.5, -2.0])),
                 pertnn.PertNNParams(params.block_names, params.hidden, *params.arrays)]
        for p in built:
            assert p.flat.ndim == 1 and p.flat.size == sum(a.size for a in p.arrays)
            for arr in p.arrays:
                assert arr.base is p.flat
            tiled = np.concatenate([arr.ravel() for arr in p.arrays])
            assert tiled.tobytes() == p.flat.tobytes()

    def test_init_deterministic(self):
        assert_same_params(random_params(seed=3), random_params(seed=3))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = random_params(hidden=5, seed=12)
        # exercise full double precision in the text format
        params.b2[0] = 1.0 / 3.0
        assert_round_trip(params, tmp_path / "net.ckpt")

    def test_magic_line(self, tmp_path):
        params = random_params()
        path = tmp_path / "net.ckpt"
        write_checkpoint(params, path)
        assert path.read_text().splitlines()[0] == "ZOFT-PERTNN v1"

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("SOMETHING ELSE\nblocks=1 hidden=2 features=5\n")
        with pytest.raises(CheckpointError,
                           match="^" + re.escape(f"{path}: expected magic 'ZOFT-PERTNN v1', "
                                                 "got 'SOMETHING ELSE'")):
            pertnn.load(path, ["w"])

    def test_truncated(self, tmp_path):
        params = random_params()
        path = tmp_path / "net.ckpt"
        write_checkpoint(params, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(CheckpointError,
                           match="^" + re.escape(f"{path}: file declares 2 blocks but ends inside "
                                                 "block 1")):
            pertnn.load(path, params.block_names)

    def test_bad_row_width(self, tmp_path):
        params = random_params()
        path = tmp_path / "net.ckpt"
        write_checkpoint(params, path)
        lines = path.read_text().splitlines()
        lines[3] = "1.0 2.0"  # a W1 row with too few fields
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError,
                           match="^" + re.escape(f"{path}: block 0 W1 row 0: expected 5 fields, "
                                                 "got 2")):
            pertnn.load(path, params.block_names)

    def test_blocks_named_otherwise_are_refused(self, tmp_path):
        params = random_params()
        path = tmp_path / "net.ckpt"
        write_checkpoint(params, path)
        for names in (("b", "w"), ("w",), ("w", "b", "c")):
            with pytest.raises(CheckpointError,
                               match="^" + re.escape(f"{path}: checkpoint blocks ['w', 'b'] "
                                                     f"do not match the model's blocks "
                                                     f"{list(names)}")):
                pertnn.load(path, names)
        assert_same_params(pertnn.load(path, ["w", "b"]), params)
        # the names are compared after every weight is read and checked
        params.b2[1] = np.nan
        write_checkpoint(params, path)
        with pytest.raises(CheckpointError,
                           match="^" + re.escape(f"{path}: block b: non-finite b2")):
            pertnn.load(path, ["b", "w"])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_any_init(self, seed, tmp_path_factory):
        params = random_params(hidden=3, seed=seed)
        assert_round_trip(params, tmp_path_factory.mktemp("ckpt") / "net.ckpt")
