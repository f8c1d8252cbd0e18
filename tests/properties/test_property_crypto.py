"""Property-based tests for the cryptographic substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import FeistelCipher, FieldEncryptor
from repro.crypto.hashing import keyed_hash, one_way_bits
from repro.crypto.prng import DeterministicPRNG

BLOCKS = st.integers(min_value=0, max_value=2**64 - 1)
KEYS = st.text(min_size=1, max_size=16)
TEXTS = st.text(max_size=60)
# Hex-looking junk: every spelling int(x, 16) tolerates, plus lengths that
# are and are not multiples of 16.
MALFORMED = st.one_of(
    st.text(alphabet="0123456789abcdefABCDEF +-_xX\t\n٠", max_size=48),
    st.integers(0, 2**128).map(lambda n: format(n, "032X")),
    st.sampled_from(["", "0" * 15, "0" * 16, "0" * 32, "0x" + "0" * 14]),
)


def outcome(call, *args):
    """``("ok", result)`` or ``("raises", exception type)``."""
    try:
        return "ok", call(*args)
    except (ValueError, UnicodeDecodeError) as exc:
        return "raises", type(exc)


class TestCipherProperties:
    @given(block=BLOCKS, key=KEYS)
    @settings(max_examples=60, deadline=None)
    def test_feistel_roundtrip(self, block, key):
        cipher = FeistelCipher(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(value=TEXTS, key=KEYS)
    @settings(max_examples=60, deadline=None)
    def test_field_encryptor_roundtrip(self, value, key):
        encryptor = FieldEncryptor(key)
        assert encryptor.decrypt(encryptor.encrypt(value)) == value

    @given(value=TEXTS, key=KEYS)
    @settings(max_examples=60, deadline=None)
    def test_field_encryptor_tokens_are_hex(self, value, key):
        token = FieldEncryptor(key).encrypt(value)
        assert len(token) % 16 == 0 and len(token) > 0
        int(token, 16)


class TestDecryptManyDifferential:
    """``decrypt_many`` against the scalar ``decrypt`` it batches."""

    @given(
        key=KEYS,
        other_key=KEYS,
        values=st.lists(st.one_of(TEXTS, st.text(min_size=20, max_size=90)), max_size=8),
        junk=st.lists(MALFORMED, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_scalar_per_token(self, key, other_key, values, junk, data):
        encryptor = FieldEncryptor(key)
        pool = (
            encryptor.encrypt_many(values)  # right key, incl. empty and multi-block values
            + FieldEncryptor(other_key).encrypt_many(values)  # possibly the wrong key
            + junk
        )
        tokens = data.draw(st.lists(st.sampled_from(pool), max_size=12)) if pool else []
        tokens += tokens[: len(tokens) // 2]  # repeated tokens decrypt alike
        expected = [outcome(encryptor.decrypt, token) for token in tokens]
        for token, scalar in zip(tokens, expected):
            batched = outcome(encryptor.decrypt_many, [token])
            assert batched == (scalar if scalar[0] == "raises" else ("ok", [scalar[1]]))
        first_failure = next((result for result in expected if result[0] == "raises"), None)
        whole = outcome(encryptor.decrypt_many, tokens)
        if first_failure is None:
            assert whole == ("ok", [result for _, result in expected])
        else:
            assert whole == first_failure

    @given(key=KEYS)
    @settings(max_examples=20, deadline=None)
    def test_empty_column(self, key):
        assert FieldEncryptor(key).decrypt_many([]) == []


class TestHashProperties:
    @given(
        value=st.one_of(st.text(max_size=30), st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
        key=KEYS,
    )
    @settings(max_examples=80, deadline=None)
    def test_keyed_hash_is_stable_and_non_negative(self, value, key):
        assert keyed_hash(value, key) == keyed_hash(value, key)
        assert keyed_hash(value, key) >= 0

    @given(value=st.text(max_size=30), n_bits=st.integers(min_value=1, max_value=256))
    @settings(max_examples=60, deadline=None)
    def test_one_way_bits_length_and_alphabet(self, value, n_bits):
        bits = one_way_bits(value, n_bits)
        assert len(bits) == n_bits
        assert set(bits) <= {0, 1}


class TestPRNGProperties:
    @given(seed=st.text(max_size=20), low=st.integers(-1000, 1000), span=st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_randint_within_bounds(self, seed, low, span):
        rng = DeterministicPRNG(seed)
        high = low + span
        for _ in range(5):
            assert low <= rng.randint(low, high) <= high

    @given(seed=st.text(max_size=20), n=st.integers(1, 60), fraction=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_subset_indices_properties(self, seed, n, fraction):
        subset = DeterministicPRNG(seed).subset_indices(n, fraction)
        assert len(subset) == int(round(n * fraction))
        assert len(set(subset)) == len(subset)
        assert all(0 <= index < n for index in subset)

    @given(seed=st.text(max_size=20), items=st.lists(st.integers(), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_shuffle_preserves_multiset(self, seed, items):
        shuffled = list(items)
        DeterministicPRNG(seed).shuffle(shuffled)
        assert sorted(shuffled) == sorted(items)
