"""AesCipher (OpenSSL AES) against the pure-Python FIPS-197 oracle."""

import os
import sys
import threading

import pytest

from repro.crypto.aes import AES
from repro.crypto.blockcipher import BLOCK_SIZE, AesCipher, BlockCipher
from repro.crypto.random import DeterministicRandomSource
from repro.errors import BlockSizeError, KeySizeError
from repro.obs import value_of

#: empty, one and two blocks, coalesced-burst sizes (27-29), and a
#: whole-document job
_SIZES = (0, 1, 2, 27, 28, 29, 1000)


def _blockwise(fn, data: bytes) -> bytes:
    return b"".join(fn(data[i : i + BLOCK_SIZE])
                    for i in range(0, len(data), BLOCK_SIZE))


class TestAesCipher:
    def test_satisfies_protocol(self):
        assert isinstance(AesCipher(bytes(16)), BlockCipher)

    def test_block_round_trip(self):
        cipher = AesCipher(os.urandom(16))
        block = os.urandom(BLOCK_SIZE)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_empty_many(self):
        cipher = AesCipher(bytes(16))
        assert cipher.encrypt_many(b"") == b""
        assert cipher.decrypt_many(b"") == b""

    @pytest.mark.parametrize("bad_len", [1, 15, 17, 31])
    def test_ragged_input_rejected(self, bad_len):
        cipher = AesCipher(bytes(16))
        for fn in (cipher.encrypt_many, cipher.decrypt_many,
                   cipher.encrypt_block, cipher.decrypt_block):
            with pytest.raises(BlockSizeError):
                fn(bytes(bad_len))

    @pytest.mark.parametrize("key_len", [0, 8, 15, 17, 64])
    def test_bad_key_size_rejected(self, key_len):
        with pytest.raises(KeySizeError):
            AesCipher(bytes(key_len))

    def test_shared_across_threads(self):
        """One cipher used by more threads than cores: an OpenSSL
        context refuses concurrent use, so AesCipher must serialize."""
        cipher = AesCipher(bytes(range(16)))
        data = os.urandom(BLOCK_SIZE * 20000)
        want = cipher.encrypt_many(data)
        errors: list[BaseException] = []

        def work():
            try:
                for _ in range(40):
                    assert cipher.encrypt_many(data) == want
                    assert cipher.decrypt_many(want) == data
                    assert cipher.encrypt_block(data[:16]) == want[:16]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


@pytest.mark.parametrize("key_len", [16, 24, 32])
@pytest.mark.parametrize("nblocks", _SIZES)
class TestDifferential:
    """Byte-for-byte agreement with the pure-Python oracle, per block
    and in bulk, for every key size."""

    def test_encrypt_matches_oracle(self, key_len, nblocks):
        key = os.urandom(key_len)
        data = os.urandom(BLOCK_SIZE * nblocks)
        want = _blockwise(AES(key).encrypt_block, data)
        cipher = AesCipher(key)
        assert cipher.encrypt_many(data) == want
        assert _blockwise(cipher.encrypt_block, data) == want

    def test_decrypt_matches_oracle(self, key_len, nblocks):
        key = os.urandom(key_len)
        data = os.urandom(BLOCK_SIZE * nblocks)
        want = _blockwise(AES(key).decrypt_block, data)
        cipher = AesCipher(key)
        assert cipher.decrypt_many(data) == want
        assert _blockwise(cipher.decrypt_block, data) == want


class TestCounterAccounting:
    @pytest.mark.parametrize("nblocks", _SIZES)
    def test_one_count_per_block(self, nblocks):
        """crypto.aes.calls advances by exactly ``nblocks`` per bulk
        call, and the direction split always sums to the total."""
        cipher = AesCipher(bytes(range(16)))
        data = os.urandom(16 * nblocks)

        def snap():
            return {name: value_of(f"crypto.aes.{name}")
                    for name in ("calls", "encrypt_calls", "decrypt_calls")}

        before = snap()
        cipher.encrypt_many(data)
        after_enc = snap()
        cipher.decrypt_many(cipher.encrypt_many(data))
        after_dec = snap()
        cipher.decrypt_block(cipher.encrypt_block(bytes(16)))
        after_blocks = snap()

        assert after_enc["calls"] - before["calls"] == nblocks
        assert after_enc["encrypt_calls"] - before["encrypt_calls"] == nblocks
        assert after_enc["decrypt_calls"] == before["decrypt_calls"]
        assert after_dec["decrypt_calls"] - after_enc["decrypt_calls"] == nblocks
        assert after_blocks["calls"] - after_dec["calls"] == 2
        # parity: every call is exactly one encrypt or one decrypt
        for state in (before, after_enc, after_dec, after_blocks):
            assert state["calls"] == (state["encrypt_calls"]
                                      + state["decrypt_calls"])


class TestDrbgKnownAnswer:
    """DeterministicRandomSource is the AES-CTR keystream of AesCipher;
    every seeded experiment and fuzz digest rests on these bytes."""

    def test_seed_7_stream(self):
        assert DeterministicRandomSource(7).token(64).hex() == (
            "9244b1123c08fb4f60c9cf6d279dd37684cf2198939c6776d2156b54a893bd36"
            "606fee18205382d63c2ca89de5116267ba9a0e84d6b7163848cc5254fb5b88fb"
        )

    def test_seed_7_fork_x_stream(self):
        child = DeterministicRandomSource(7).fork(b"x")
        assert child.token(64).hex() == (
            "2a9a05285500a482f2854722d3835faa6eae2f768d30a7c7ccdc8e9d7d9bfaa7"
            "894db033b18d27c8d29b8c24f309f70b5a93e102cff6ae1ef5b3278efb8d83cf"
        )
