"""Tests for the Feistel block cipher and the field encryptor."""

import pytest

from repro.crypto.cipher import FeistelCipher, FieldEncryptor


class TestFeistelCipher:
    def test_roundtrip_small_values(self):
        cipher = FeistelCipher(b"key")
        for block in (0, 1, 255, 2**32, 2**64 - 1):
            assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_roundtrip_many_blocks(self):
        cipher = FeistelCipher("another key")
        for block in range(0, 5000, 37):
            assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_is_a_permutation_on_a_sample(self):
        cipher = FeistelCipher("key")
        outputs = {cipher.encrypt_block(block) for block in range(512)}
        assert len(outputs) == 512

    def test_encryption_depends_on_key(self):
        assert FeistelCipher("k1").encrypt_block(1234) != FeistelCipher("k2").encrypt_block(1234)

    def test_encryption_is_deterministic(self):
        assert FeistelCipher("k").encrypt_block(99) == FeistelCipher("k").encrypt_block(99)

    def test_output_in_block_range(self):
        cipher = FeistelCipher("k")
        for block in (0, 123456789, 2**64 - 1):
            assert 0 <= cipher.encrypt_block(block) < 2**64

    def test_rejects_out_of_range_blocks(self):
        cipher = FeistelCipher("k")
        with pytest.raises(ValueError):
            cipher.encrypt_block(2**64)
        with pytest.raises(ValueError):
            cipher.encrypt_block(-1)
        with pytest.raises(ValueError):
            cipher.decrypt_block(2**64)

    def test_rejects_too_few_rounds(self):
        with pytest.raises(ValueError):
            FeistelCipher("k", rounds=3)

    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            FeistelCipher(b"")

    def test_rounds_property(self):
        assert FeistelCipher("k", rounds=12).rounds == 12


class TestFieldEncryptor:
    def test_roundtrip_ssn(self):
        enc = FieldEncryptor("secret")
        token = enc.encrypt("123456789")
        assert token != "123456789"
        assert enc.decrypt(token) == "123456789"

    def test_roundtrip_non_numeric(self):
        enc = FieldEncryptor("secret")
        for value in ("", "a", "hello world", "ünïcødé", "x" * 100):
            assert enc.decrypt(enc.encrypt(value)) == value

    def test_roundtrip_non_string_values(self):
        enc = FieldEncryptor("secret")
        assert enc.decrypt(enc.encrypt(424242)) == "424242"

    def test_deterministic(self):
        enc = FieldEncryptor("secret")
        assert enc.encrypt("123456789") == enc.encrypt("123456789")

    def test_distinct_values_distinct_tokens(self):
        enc = FieldEncryptor("secret")
        tokens = {enc.encrypt(f"{i:09d}") for i in range(500)}
        assert len(tokens) == 500

    def test_token_is_hex(self):
        token = FieldEncryptor("secret").encrypt("123456789")
        int(token, 16)  # does not raise
        assert len(token) % 16 == 0

    def test_key_matters(self):
        assert FieldEncryptor("k1").encrypt("123") != FieldEncryptor("k2").encrypt("123")

    def test_wrong_key_does_not_recover_plaintext(self):
        token = FieldEncryptor("right-key").encrypt("123456789")
        try:
            recovered = FieldEncryptor("wrong-key").decrypt(token)
        except (ValueError, UnicodeDecodeError):
            return
        assert recovered != "123456789"

    def test_decrypt_rejects_malformed_tokens(self):
        enc = FieldEncryptor("secret")
        with pytest.raises(ValueError):
            enc.decrypt("")
        with pytest.raises(ValueError):
            enc.decrypt("abc")  # not a multiple of 16
        with pytest.raises(ValueError):
            enc.decrypt("zz" * 8)  # not hexadecimal

    def test_long_values_use_chaining(self):
        enc = FieldEncryptor("secret")
        token = enc.encrypt("ab" * 40)
        # CBC-style chaining: repeated plaintext blocks must not produce
        # repeated ciphertext blocks.
        blocks = [token[i : i + 16] for i in range(0, len(token), 16)]
        assert len(set(blocks)) == len(blocks)


def forge(encryptor: FieldEncryptor, framed: bytes) -> str:
    """Encrypt raw framed bytes with *encryptor*'s key, bypassing the codec.

    Produces tokens whose blocks decrypt to framing ``encrypt`` never emits
    (overlong length prefix, non-zero padding, an extra block).
    """
    previous = encryptor._iv
    parts = []
    for offset in range(0, len(framed), 8):
        previous = encryptor._cipher.encrypt_block(int.from_bytes(framed[offset : offset + 8], "big") ^ previous)
        parts.append(previous.to_bytes(8, "big").hex())
    return "".join(parts)


def leading_zero_token(encryptor: FieldEncryptor) -> tuple[str, str]:
    """A ``(value, token)`` pair whose token starts with two zero digits."""
    for number in range(100_000):
        value = str(number)  # one block each, so every token differs
        token = encryptor.encrypt(value)
        if token.startswith("00"):
            return value, token
    raise AssertionError("no token with a leading zero byte found")


class TestTokenGrammar:
    """Decryption accepts exactly the tokens ``encrypt`` emits.

    Parsing blocks with ``int(block, 16)`` used to accept every spelling
    below, so several cell values decrypted to one identifier.  Each one is
    checked on the scalar and the batched path.
    """

    @pytest.fixture(scope="class")
    def encryptor(self):
        return FieldEncryptor("secret")

    @pytest.fixture(scope="class")
    def canonical(self, encryptor):
        return leading_zero_token(encryptor)

    @staticmethod
    def assert_rejected(encryptor, token, valid):
        with pytest.raises(ValueError):
            encryptor.decrypt(token)
        with pytest.raises(ValueError):
            encryptor.decrypt_many([token])
        with pytest.raises(ValueError):
            encryptor.decrypt_many([valid, token, valid])

    def test_canonical_token_decrypts(self, encryptor, canonical):
        value, token = canonical
        assert encryptor.decrypt(token) == value
        assert encryptor.decrypt_many([token]) == [value]

    @pytest.mark.parametrize(
        "respell",
        [
            pytest.param(lambda t: t.upper(), id="uppercase"),
            pytest.param(lambda t: " " + t[1:], id="leading-space"),
            pytest.param(lambda t: t[1:16] + "\t" + t[16:], id="trailing-tab-in-block"),
            pytest.param(lambda t: "+" + t[1:], id="plus-sign"),
            pytest.param(lambda t: t[1] + "_" + t[2:], id="underscore-separator"),
            pytest.param(lambda t: "0x" + t[2:], id="0x-prefix"),
            pytest.param(lambda t: "٠" + t[1:], id="non-ascii-digit"),
        ],
    )
    def test_respelled_hex_is_rejected(self, encryptor, canonical, respell):
        _, token = canonical
        respelled = respell(token)
        assert respelled != token and len(respelled) == len(token)
        self.assert_rejected(encryptor, respelled, token)

    def test_overlong_length_prefix_is_rejected(self, encryptor):
        valid = encryptor.encrypt("123456")
        self.assert_rejected(encryptor, forge(encryptor, b"\x00\x14123456"), valid)

    def test_non_zero_padding_is_rejected(self, encryptor):
        valid = encryptor.encrypt("12345")
        self.assert_rejected(encryptor, forge(encryptor, b"\x00\x0512345\x07"), valid)

    def test_extra_zero_block_is_rejected(self, encryptor):
        valid = encryptor.encrypt("12345")
        self.assert_rejected(encryptor, forge(encryptor, b"\x00\x0512345\x00" + bytes(8)), valid)

    def test_forged_canonical_framing_decrypts(self, encryptor):
        # The forging helper itself is faithful: canonical framing round-trips.
        assert forge(encryptor, b"\x00\x0512345\x00") == encryptor.encrypt("12345")


class TestDecryptMany:
    # Equality with the scalar path is the hypothesis suite's job
    # (tests/properties/test_property_crypto.py); these pin the sweep itself.
    def test_accepts_any_iterable(self):
        enc = FieldEncryptor("secret")
        tokens = enc.encrypt_many(["1", "2"])
        assert enc.decrypt_many(iter(tokens)) == ["1", "2"]

    def test_stops_at_the_first_bad_token(self):
        enc = FieldEncryptor("secret")
        consumed = []

        def column():
            for token in (enc.encrypt("1"), "zz" * 8, enc.encrypt("2")):
                consumed.append(token)
                yield token

        with pytest.raises(ValueError):
            enc.decrypt_many(column())
        assert len(consumed) == 2
