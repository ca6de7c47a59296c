"""Random-stream determinism and independence tests."""

import numpy as np
import pytest

from repro.util.rng import RngStreams


def test_same_seed_same_stream():
    a = RngStreams(5).stream("x").random(10)
    b = RngStreams(5).stream("x").random(10)
    assert np.array_equal(a, b)


def test_different_names_give_different_streams():
    streams = RngStreams(5)
    a = streams.stream("alpha").random(10)
    b = streams.stream("beta").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_give_different_streams():
    a = RngStreams(1).stream("x").random(10)
    b = RngStreams(2).stream("x").random(10)
    assert not np.array_equal(a, b)


def test_stream_object_is_cached():
    streams = RngStreams(0)
    assert streams.stream("mac") is streams.stream("mac")


def test_drawing_from_one_stream_does_not_affect_another():
    reference = RngStreams(9).stream("b").random(5)
    streams = RngStreams(9)
    streams.stream("a").random(1000)  # consume heavily
    assert np.array_equal(streams.stream("b").random(5), reference)


def test_spawn_is_deterministic():
    a = RngStreams(3).spawn("trial-0").stream("x").random(3)
    b = RngStreams(3).spawn("trial-0").stream("x").random(3)
    assert np.array_equal(a, b)


def test_spawn_children_differ():
    parent = RngStreams(3)
    a = parent.spawn("trial-0").stream("x").random(3)
    b = parent.spawn("trial-1").stream("x").random(3)
    assert not np.array_equal(a, b)


def test_seed_property():
    assert RngStreams(42).seed == 42


@pytest.mark.parametrize(
    "seed", [0, 1, 11, 2**31 - 1, 2**32 - 1, 2**32, 2**40]
)
@pytest.mark.parametrize(
    "name", ["mac-0", "routing-2999", "mobility", "fault-0", "véhicule-ü"]
)
def test_stream_state_matches_list_seeded_sequence(seed, name):
    """Streams are seeded from ``[seed] + code points``: whichever form
    the entropy takes internally, every state (hence every draw) is the
    one the plain list gives ``SeedSequence``."""
    expected = np.random.default_rng(
        np.random.SeedSequence([seed] + [ord(c) for c in name])
    )
    observed = RngStreams(seed).stream(name)
    assert observed.bit_generator.state == expected.bit_generator.state


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStreams(-1).stream("mac-0")
