import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_distributions import sample

from riskbench.distributions import Nig, Normal, StudentT
from riskbench.sampling import RandomnessContract, Scheme, parse_scheme, stream_key


class TestStreamKey:
    def test_key_layout(self):
        # independent re-derivation: hash of "seed:tag" in the high word,
        # replication index in the low word
        seed, tag, k = 42, "sample|normal:0:1|iid", 137
        digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
        want = (int.from_bytes(digest, "little") << 64) | k
        assert stream_key(seed, tag, k) == want

    def test_low_word_is_replication_index(self):
        base = stream_key(0, "x", 0)
        assert stream_key(0, "x", 12345) - base == 12345

    def test_distinct_tags_and_seeds(self):
        keys = {
            stream_key(0, "a", 0),
            stream_key(0, "b", 0),
            stream_key(1, "a", 0),
            stream_key(1, "b", 0),
        }
        assert len(keys) == 4

    def test_negative_replication_rejected(self):
        with pytest.raises(ValueError):
            stream_key(0, "a", -1)


class TestContract:
    def test_streams_are_reproducible(self):
        c = RandomnessContract(7)
        a = c.stream("t", 3).standard_normal(16)
        b = c.stream("t", 3).standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_differ_across_replications(self):
        c = RandomnessContract(7)
        a = c.stream("t", 0).standard_normal(16)
        b = c.stream("t", 1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_philox_backs_the_generator(self):
        c = RandomnessContract(0)
        assert isinstance(c.stream("t", 0).bit_generator, np.random.Philox)


class TestKeyed:
    @pytest.mark.parametrize("dist", [Normal(), StudentT(5.0), Nig(0.4, 0.14)])
    def test_at_matches_a_fresh_stream(self, dist):
        c = RandomnessContract(42)
        at = c.keyed("sample|x")
        g = at(3)
        # leave a partly used Philox buffer and a cached uint32 behind
        g.standard_normal(7)
        g.random(3)
        g.integers(0, 2**32, size=1, dtype=np.uint32)
        assert g.bit_generator.state["has_uint32"] == 1
        assert g.bit_generator.state["buffer_pos"] < 4
        got = sample(dist, 11, at(0))
        want = sample(dist, 11, c.stream("sample|x", 0))
        assert np.array_equal(got, want)

    def test_interleaved_tags_keep_their_streams(self):
        # sample and companion draws alternate per replication, as in the study
        c, dist = RandomnessContract(42), Nig(0.4, 0.14)
        sample_at, companion_at = c.keyed("sample|x"), c.keyed("companion|x")
        for k in (0, 1, 9, 2):
            for at, tag, size in ((sample_at, "sample|x", 13), (companion_at, "companion|x", 3)):
                got = sample(dist, size, at(k))
                assert np.array_equal(got, sample(dist, size, c.stream(tag, k)))

    def test_index_past_two_to_the_63(self):
        c, k = RandomnessContract(7), 2**63 + 5
        at = c.keyed("t")
        at(1).random(5)
        fresh = c.stream("t", k)
        assert repr(at(k).bit_generator.state) == repr(fresh.bit_generator.state)
        assert np.array_equal(at(k).standard_normal(16), fresh.standard_normal(16))

    def test_negative_replication_rejected(self):
        at = RandomnessContract(0).keyed("a")
        with pytest.raises(ValueError):
            at(-1)

    def test_at_returns_one_generator(self):
        c = RandomnessContract(1)
        at = c.keyed("t")
        assert at(4) is at(0)
        assert repr(at(4).bit_generator.state) == repr(c.stream("t", 4).bit_generator.state)


class TestSchemes:
    def test_parse_and_label(self):
        assert parse_scheme("iid", 250) == Scheme(250, 1)
        assert parse_scheme("overlapping:10", 250) == Scheme(250, 10)
        assert parse_scheme("overlapping", 250) == Scheme(250, 10)
        assert parse_scheme("overlapping:3", 50) == Scheme(50, 3)
        assert Scheme(250, 1).label == "iid"
        assert Scheme(250, 10).label == "overlapping:10"

    @given(n=st.integers(1, 10**6), h=st.integers(1, 10**4), iid=st.booleans())
    def test_label_parses_back_to_the_scheme(self, n, h, iid):
        scheme = Scheme(n, 1 if iid else h)
        assert parse_scheme(scheme.label, n) == scheme

    def test_parse_rejects_garbage(self):
        for bad in ("", "rolling", "overlapping:0", "overlapping:x"):
            with pytest.raises(ValueError):
                parse_scheme(bad, 250)

    def test_one_day_window_is_spelled_iid(self):
        with pytest.raises(ValueError, match="'iid'"):
            parse_scheme("overlapping:1", 250)

    def test_base_draw_count(self):
        c, dist, n = RandomnessContract(3), Nig(0.4, 0.14), 250
        for h in (10, 1):
            # n + h - 1 base draws give n observations of h summands each
            out = np.empty((3, n))
            Scheme(n, h).window_sums(np.ones((3, n + h - 1)), out)
            assert np.array_equal(out, np.full((3, n), float(h)))
            # a replication takes n + h - 1 base and h companion draws
            s_rng, c_rng = c.stream("s", h), c.stream("c", h)
            draw_one(dist, Scheme(n, h), s_rng, c_rng)
            for rng, count, tag in ((s_rng, n + h - 1, "s"), (c_rng, h, "c")):
                fresh = c.stream(tag, h)
                sample(dist, count, fresh)
                assert rng.random() == fresh.random()

    def test_horizons(self):
        assert parse_scheme("iid", 250).h == 1
        assert parse_scheme("overlapping:10", 250).h == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            Scheme(0, 1)
        with pytest.raises(ValueError):
            Scheme(10, 0)


def draw_one(dist, scheme, sample_rng, companion_rng):
    """One replication as a one-row tile of the study loop: (sample row,
    companion)."""
    raw = tuple(np.empty((1, scheme.n + scheme.h - 1)) for _ in range(dist.RAW_ARRAYS))
    companion_raw = tuple(np.empty((1, scheme.h)) for _ in range(dist.RAW_ARRAYS))
    dist.draw(sample_rng, raw, 0)
    dist.draw(companion_rng, companion_raw, 0)
    row = np.empty((1, scheme.n))
    scheme.window_sums(dist.transform(raw), row)
    return row[0], np.sum(dist.transform(companion_raw), axis=1)[0]


class TestDraws:
    def test_rolling_sums_match_naive_loop(self):
        c = RandomnessContract(11)
        n, h = 40, 10
        got, _ = draw_one(StudentT(5.0), Scheme(n, h), c.stream("s", 2), c.stream("c", 2))
        base = sample(StudentT(5.0), n + h - 1, c.stream("s", 2))
        naive = np.array([base[i : i + h].sum() for i in range(n)])
        assert got.shape == (n,)
        assert np.allclose(got, naive, atol=1e-10 * (1 + np.abs(naive).max()))

    def test_secured_companion_is_horizon_sum(self):
        c = RandomnessContract(11)
        _, got = draw_one(Normal(), Scheme(30, 10), c.stream("s", 4), c.stream("c", 4))
        want = float(sample(Normal(), 10, c.stream("c", 4)).sum())
        assert got == want

    def test_secured_companion_iid_is_single_draw(self):
        c = RandomnessContract(11)
        _, got = draw_one(Normal(), Scheme(30, 1), c.stream("s", 5), c.stream("c", 5))
        want = float(sample(Normal(), 1, c.stream("c", 5))[0])
        assert got == want

    def test_overlapping_autocorrelation_is_positive(self):
        # rolling sums share h-1 of h terms with their neighbors
        c = RandomnessContract(5)
        x, _ = draw_one(Normal(), Scheme(5000, 10), c.stream("s", 0), c.stream("c", 0))
        lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert lag1 > 0.8
