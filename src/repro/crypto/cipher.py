"""A keyed, invertible pseudorandom permutation for identifying columns.

Section 4.2.3 of the paper replaces every value of an identifying column
(e.g. the SSN) by its encryption under a block cipher such as DES or AES.
The encrypted values keep the column unique and traceable by the data holder,
and they feed the tuple-selection hash of the watermarking algorithm.

Offline we have no third-party cryptography package, so the cipher is a
balanced Feistel network over 64-bit blocks whose round function is
HMAC-SHA-256.  A Feistel network with a pseudorandom round function is a
pseudorandom permutation (Luby–Rackoff), which is exactly the property the
framework needs: deterministic, invertible, and unpredictable without the key.

:class:`FieldEncryptor` wraps the block cipher with a simple string codec so
that arbitrary identifier strings (not just 8-byte blocks) can be encrypted to
printable hexadecimal tokens and decrypted back.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Iterable

__all__ = ["FeistelCipher", "FieldEncryptor"]

_BLOCK_BITS = 64
_HALF_BITS = _BLOCK_BITS // 2
_HALF_MASK = (1 << _HALF_BITS) - 1


class FeistelCipher:
    """Balanced Feistel network over 64-bit blocks.

    Parameters
    ----------
    key:
        Secret key (``bytes`` or ``str``).
    rounds:
        Number of Feistel rounds.  Ten rounds is far beyond the four needed
        for the Luby–Rackoff security argument.
    """

    def __init__(self, key: bytes | str, rounds: int = 10) -> None:
        if rounds < 4:
            raise ValueError("a Feistel network needs at least 4 rounds to be a strong PRP")
        if isinstance(key, str):
            key = key.encode("utf-8")
        if not key:
            raise ValueError("key must be non-empty")
        self._rounds = rounds
        self._round_keys = [
            hmac.new(key, b"feistel-round-%d" % i, hashlib.sha256).digest() for i in range(rounds)
        ]

    @property
    def rounds(self) -> int:
        """Number of Feistel rounds."""
        return self._rounds

    def _round_function(self, half: int, round_index: int) -> int:
        digest = hmac.new(
            self._round_keys[round_index],
            half.to_bytes(4, "big"),
            hashlib.sha256,
        ).digest()
        return int.from_bytes(digest[:4], "big")

    def encrypt_block(self, block: int) -> int:
        """Encrypt a 64-bit integer block."""
        if not 0 <= block < (1 << _BLOCK_BITS):
            raise ValueError("block must be a 64-bit unsigned integer")
        left = (block >> _HALF_BITS) & _HALF_MASK
        right = block & _HALF_MASK
        for i in range(self._rounds):
            left, right = right, left ^ self._round_function(right, i)
        return (left << _HALF_BITS) | right

    def decrypt_block(self, block: int) -> int:
        """Invert :meth:`encrypt_block`."""
        if not 0 <= block < (1 << _BLOCK_BITS):
            raise ValueError("block must be a 64-bit unsigned integer")
        left = (block >> _HALF_BITS) & _HALF_MASK
        right = block & _HALF_MASK
        for i in reversed(range(self._rounds)):
            left, right = right ^ self._round_function(left, i), left
        return (left << _HALF_BITS) | right


@dataclass(frozen=True)
class _Codec:
    """How identifier strings are packed into 64-bit blocks."""

    encoding: str = "utf-8"

    def to_blocks(self, text: str) -> list[int]:
        raw = text.encode(self.encoding)
        # Length-prefix so that trailing padding zeros are unambiguous.
        framed = len(raw).to_bytes(2, "big") + raw
        padded_len = -(-len(framed) // 8) * 8
        framed = framed.ljust(padded_len, b"\x00")
        return [int.from_bytes(framed[i : i + 8], "big") for i in range(0, len(framed), 8)]

    def unframe(self, framed: bytes) -> str:
        """Invert the framing of :meth:`to_blocks`, accepting only what it emits.

        The length prefix must account for every block but the padding, and
        the padding must be zeros, so each identifier has exactly one framed
        spelling (``ValueError`` otherwise).
        """
        end = 2 + int.from_bytes(framed[:2], "big")
        if len(framed) != -(-end // 8) * 8:
            raise ValueError("length prefix does not match the number of blocks")
        if any(framed[end:]):
            raise ValueError("padding after the framed value is not zero")
        return framed[2:end].decode(self.encoding)


def _token_blocks(token: str) -> list[int]:
    """Parse a token into 64-bit blocks, accepting only what ``encrypt`` emits.

    That is lowercase hexadecimal, a positive multiple of 16 digits long and
    nothing else: no whitespace, sign, ``_`` separator, ``0x`` prefix or
    uppercase digit, so distinct cell values never decrypt to one identifier.
    """
    if len(token) % 16 != 0 or not token:
        raise ValueError("token length must be a positive multiple of 16 hex digits")
    try:
        raw = bytes.fromhex(token)
    except ValueError as exc:
        raise ValueError("token is not valid hexadecimal") from exc
    if raw.hex() != token:
        raise ValueError("token is not canonical lowercase hexadecimal")
    return [int.from_bytes(raw[i : i + 8], "big") for i in range(0, len(raw), 8)]


class FieldEncryptor:
    """Deterministic encryption of identifier fields to printable tokens.

    This is the ``E()`` used by the binning algorithm (Figure 8): each value of
    an identifying column is replaced, one-to-one, by its encryption.  The
    encryption is deterministic so that equal identifiers map to equal tokens
    (preserving keys and joins on the holder's side) and invertible so that the
    owner can decrypt the column when resolving an ownership dispute.

    Tokens are hexadecimal strings; CBC-style chaining with a key-derived
    initialisation block hides repeated 8-byte patterns inside long values.
    """

    def __init__(self, key: bytes | str, rounds: int = 10) -> None:
        self._cipher = FeistelCipher(key, rounds=rounds)
        if isinstance(key, str):
            key = key.encode("utf-8")
        iv_digest = hmac.new(key, b"field-encryptor-iv", hashlib.sha256).digest()
        self._iv = int.from_bytes(iv_digest[:8], "big")
        self._codec = _Codec()

    def encrypt(self, value: object) -> str:
        """Encrypt *value* (coerced to ``str``) to a hexadecimal token."""
        text = value if isinstance(value, str) else str(value)
        blocks = self._codec.to_blocks(text)
        previous = self._iv
        out: list[int] = []
        for block in blocks:
            cipher_block = self._cipher.encrypt_block(block ^ previous)
            out.append(cipher_block)
            previous = cipher_block
        return "".join(block.to_bytes(8, "big").hex() for block in out)

    def encrypt_many(self, values: Iterable[object]) -> list[str]:
        """Encrypt a whole column of values; one token per input value.

        Bit-identical to ``[self.encrypt(v) for v in values]`` — same codec,
        CBC chaining and Feistel arithmetic — but the HMAC key schedule of
        every round key is computed **once per call** (RFC 2104 inner/outer
        pads, cloned per block, the same technique as
        :class:`repro.crypto.batch.KeyedHashStream`) and repeated values are
        memoised.  This is the batched path the columnar binning rewrite
        uses; the scalar :meth:`encrypt` remains the reference the
        equivalence suite compares against.
        """
        from repro.crypto.batch import _hmac_pads  # deferred: keeps crypto deps acyclic

        rounds = [
            (inner.copy, outer.copy)
            for inner, outer in (_hmac_pads(key) for key in self._cipher._round_keys)
        ]
        iv = self._iv
        encoding = self._codec.encoding
        memo: dict[str, str] = {}
        tokens: list[str] = []
        append = tokens.append
        for value in values:
            text = value if isinstance(value, str) else str(value)
            token = memo.get(text)
            if token is None:
                raw = text.encode(encoding)
                framed = len(raw).to_bytes(2, "big") + raw
                padded_len = -(-len(framed) // 8) * 8
                framed = framed.ljust(padded_len, b"\x00")
                previous = iv
                parts: list[str] = []
                for offset in range(0, len(framed), 8):
                    block = int.from_bytes(framed[offset : offset + 8], "big") ^ previous
                    left = (block >> _HALF_BITS) & _HALF_MASK
                    right = block & _HALF_MASK
                    for inner_copy, outer_copy in rounds:
                        digest = inner_copy()
                        digest.update(right.to_bytes(4, "big"))
                        outer = outer_copy()
                        outer.update(digest.digest())
                        left, right = right, left ^ int.from_bytes(outer.digest()[:4], "big")
                    previous = (left << _HALF_BITS) | right
                    parts.append(previous.to_bytes(8, "big").hex())
                token = memo[text] = "".join(parts)
            append(token)
        return tokens

    def decrypt(self, token: str) -> str:
        """Invert :meth:`encrypt`; any token it cannot emit raises ``ValueError``."""
        previous = self._iv
        framed = bytearray()
        for block in _token_blocks(token):
            framed += (self._cipher.decrypt_block(block) ^ previous).to_bytes(8, "big")
            previous = block
        return self._codec.unframe(bytes(framed))

    def decrypt_many(self, tokens: Iterable[str]) -> list[str]:
        """Decrypt a whole column of tokens; one identifier per input token.

        Equal to ``[self.decrypt(t) for t in tokens]`` — same token grammar,
        CBC chaining, Feistel arithmetic and framing checks — with the key
        schedule of :meth:`encrypt_many`: HMAC pads derived once per call
        (round keys in reverse order) and cloned per round.  There is no
        memo: the identifying columns it decrypts hold unique values.  The
        first token the scalar path would reject raises the same exception
        here, so a caller for whom one failure decides the outcome stops at
        it.
        """
        from repro.crypto.batch import _hmac_pads  # deferred: keeps crypto deps acyclic

        rounds = [
            (inner.copy, outer.copy)
            for inner, outer in (_hmac_pads(key) for key in reversed(self._cipher._round_keys))
        ]
        iv = self._iv
        unframe = self._codec.unframe
        clear: list[str] = []
        append = clear.append
        for token in tokens:
            previous = iv
            framed = bytearray()
            for block in _token_blocks(token):
                left = (block >> _HALF_BITS) & _HALF_MASK
                right = block & _HALF_MASK
                for inner_copy, outer_copy in rounds:
                    digest = inner_copy()
                    digest.update(left.to_bytes(4, "big"))
                    outer = outer_copy()
                    outer.update(digest.digest())
                    left, right = right ^ int.from_bytes(outer.digest()[:4], "big"), left
                framed += (((left << _HALF_BITS) | right) ^ previous).to_bytes(8, "big")
                previous = block
            append(unframe(bytes(framed)))
        return clear
