"""The composed fine-tuning step against its plain statement (reference.py).

Block sizes are drawn around the shapes where the code branches: 1 value,
one dot piece (8192) and one noise chunk (32768), so a partition is one span
or several, a span holds several blocks or part of one, and a loss is one
dot or pieces.  Each case runs mezo, finetuner or mixed rows, with
normalization on or off, rates of 0 or not, on one task or two, for 1 to 5
steps, and every loss, scale and parameter must equal the reference's bit
for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import reference
from zoft import pertnn
from zoft.paramspace import NoiseSeed, ParamVector
from zoft.testbeds import QuadraticRows, make_rank_family
from zoft.zo_optimizer import OptState, ZOConfig, run_population, step

SMALL = st.sampled_from([1, 2, 3, 5])
SIZES = st.one_of(SMALL, SMALL, SMALL, st.sampled_from([8191, 8192, 8193]),
                  st.sampled_from([32767, 32768, 32769]))
# the walk draws z three times a step for each reference row
MAX_D = 120_000


@st.composite
def cases(draw):
    sizes = []
    for size in draw(st.lists(SIZES, min_size=1, max_size=40)):
        if sizes and sum(sizes) + size > MAX_D:
            break
        sizes.append(size)
    n_rows = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(["mezo", "finetuner", "mixed"]))
    learned = [mode == "finetuner" or (mode == "mixed" and r % 2 == 1)
               for r in range(n_rows)]
    noisy = draw(st.booleans())
    tasks = [make_rank_family(sizes, [max(1.0, s / 2) for s in sizes], [opnorm] * len(sizes),
                              noise_tau=0.5 if noisy else 0.0, seed=k)
             for k, opnorm in enumerate((1.0, 2.0)[:draw(st.integers(1, 2))])]
    return dict(
        tasks=[tasks[r % len(tasks)] for r in range(n_rows)],
        lrs=[draw(st.sampled_from([0.0, 1e-3, 2e-2])) for _ in range(n_rows)],
        learned=learned,
        config=ZOConfig(draw(st.integers(1, 5)), mode="mezo" if mode == "mezo" else "finetuner",
                        seed=draw(st.integers(0, 3)), normalize=draw(st.booleans())),
    )


def same(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases())
def test_step_and_population_equal_the_reference(case):
    tasks, lrs, learned, config = case["tasks"], case["lrs"], case["learned"], case["config"]
    partition = tasks[0].partition
    net = pertnn.init(partition, 4, NoiseSeed(config.seed))
    rows = reference.start(tasks, lrs, learned, config.seed)
    theta = ParamVector(np.stack([row.values for row in rows]), partition)
    state = OptState(learned=None if all(learned) else np.array(learned))
    loss_of = tasks[0].loss if len(set(map(id, tasks))) == 1 else QuadraticRows(tasks)
    for t in range(1, config.steps + 1):
        batch = config.seed * 1000003 + t
        got = step(theta, state, batch, config, loss_of, np.array(lrs), net)
        reference.step(rows, t, batch, config.seed, config.epsilon, net, config.normalize)
        assert same(got, [row.losses[-1] for row in rows]), t
        assert same(state.prev_scales, [row.prev_scales for row in rows]), t
        assert same(theta.values, [row.values for row in rows]), t
    outcomes = run_population(tasks, lrs, config, net if config.mode == "finetuner" else None,
                              learned)
    for row, outcome in zip(rows, outcomes):
        first, hit, tail = reference.race(row.losses)
        assert same(outcome.first, first) and outcome.hit == hit
        assert same(outcome.tail, tail)
