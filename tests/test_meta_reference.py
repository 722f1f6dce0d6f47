"""Meta-training against its plain statement (meta_reference.py).

Block sizes are drawn around the shapes where the code branches: 1 value,
one dot piece (8192) and one noise chunk (32768), so a dot is one BLAS call
or pieces and a loss dense or pieced.  Each case trains one to three tasks
for one to four outer steps, with batch noise on or off, normalization on
or off and a reset period of one or two outer steps or none, and every log
entry and trained weight must equal the reference's bit for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import meta_reference
from zoft import pertnn
from zoft.meta_trainer import MetaConfig, train
from zoft.paramspace import NoiseSeed
from zoft.testbeds import make_rank_family

SMALL = st.sampled_from([1, 2, 3, 5])
SIZES = st.one_of(SMALL, SMALL, SMALL, st.sampled_from([8191, 8192, 8193]),
                  st.sampled_from([32767, 32768, 32769]))
# the reference forms about a dozen d-sized vectors a meta-step
MAX_D = 80_000


@st.composite
def cases(draw):
    sizes = []
    for size in draw(st.lists(SIZES, min_size=1, max_size=30)):
        if sizes and sum(sizes) + size > MAX_D:
            break
        sizes.append(size)
    noisy = draw(st.booleans())
    tasks = [make_rank_family(sizes, [max(1.0, s / 2) for s in sizes], [opnorm] * len(sizes),
                              noise_tau=0.5 if noisy else 0.0, seed=k)
             for k, opnorm in enumerate((1.0, 2.0, 0.5)[:draw(st.integers(1, 3))])]
    config = MetaConfig(eta1=draw(st.sampled_from([1e-3, 2e-2])),
                        # the meta-gradient sums over d values
                        eta2=draw(st.sampled_from([0.0, 1e-3, 5e-2])) / sum(sizes),
                        steps=draw(st.integers(1, 4)),
                        reset_period=draw(st.sampled_from([1, 2, 50])),
                        seed=draw(st.integers(0, 3)), normalize=draw(st.booleans()))
    return tasks, config, draw(st.sampled_from([2, 4]))


def same(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cases())
def test_train_equals_the_reference(case):
    tasks, config, hidden = case
    net = pertnn.init(tasks[0].partition, hidden, NoiseSeed(config.seed))
    got, log = train(config, tasks, net)
    want, entries = meta_reference.train(
        tasks, net, config.seed, config.steps, config.eta1, config.eta2, config.epsilon,
        config.reset_period, config.batch_size, config.normalize)
    task, l_zo, loss, reset = zip(*entries)
    assert log.n == len(entries)
    assert log.task.tolist() == list(task) and log.reset.tolist() == list(reset)
    assert same(log.l_zo, l_zo) and same(log.loss, loss)
    assert same(got.flat, want.flat)
    assert any(reset) == (config.steps >= config.reset_period)
