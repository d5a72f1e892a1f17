"""AES block cipher implemented from scratch (FIPS-197): the oracle.

The cipher that runs is :class:`repro.crypto.blockcipher.AesCipher`,
the installed OpenSSL's AES, much as the 2011 prototype used the
Stanford JavaScript AES library [33].  This module is the independent
reference it is checked against: the import-time known-answer self-test
(``repro.crypto.selftest``) and the differential unit tests run both
and require identical bytes.

Implementation notes
--------------------
* The S-box is *derived* (multiplicative inverse in GF(2^8) followed by
  the affine transform) rather than pasted in, and is checked against
  known values by ``repro.crypto.selftest``.
* Encryption and decryption use the classic four "T-table" formulation:
  each round is 16 table lookups and 16 XORs.
* Key sizes 128/192/256 are supported; the schemes default to AES-128
  exactly as the paper assumes a 2^128 key search space.
"""

from __future__ import annotations

from repro.errors import BlockSizeError, KeySizeError

BLOCK_SIZE = 16
_ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic and S-box construction
# ---------------------------------------------------------------------------


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 0x02) in GF(2^8) modulo x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) (Rijndael's field)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[list[int], list[int]]:
    """Construct the AES S-box and its inverse.

    Uses the fact that 0x03 generates the multiplicative group of
    GF(2^8): walking powers of the generator yields every nonzero element
    together with its inverse without any division routine.
    """
    # exp/log tables over generator 3
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = gf_mul(x, 3)
    exp[255] = exp[0]

    def inverse(a: int) -> int:
        if a == 0:
            return 0
        return exp[255 - log[a]]

    sbox = [0] * 256
    for value in range(256):
        inv = inverse(value)
        # Affine transform: s = inv ^ rotl1 ^ rotl2 ^ rotl3 ^ rotl4 ^ 0x63
        s = inv
        for shift in range(1, 5):
            s ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[value] = s ^ 0x63

    inv_sbox = [0] * 256
    for value, s in enumerate(sbox):
        inv_sbox[s] = value
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()

# ---------------------------------------------------------------------------
# T-tables
# ---------------------------------------------------------------------------


def _rotr32(word: int, bits: int) -> int:
    return ((word >> bits) | (word << (32 - bits))) & 0xFFFFFFFF


def _build_encrypt_tables() -> list[list[int]]:
    te0 = [0] * 256
    for value in range(256):
        s = SBOX[value]
        s2 = _xtime(s)
        s3 = s2 ^ s
        te0[value] = (s2 << 24) | (s << 16) | (s << 8) | s3
    return [te0] + [[_rotr32(w, 8 * i) for w in te0] for i in range(1, 4)]


def _build_decrypt_tables() -> list[list[int]]:
    td0 = [0] * 256
    for value in range(256):
        s = INV_SBOX[value]
        td0[value] = (
            (gf_mul(s, 0x0E) << 24)
            | (gf_mul(s, 0x09) << 16)
            | (gf_mul(s, 0x0D) << 8)
            | gf_mul(s, 0x0B)
        )
    return [td0] + [[_rotr32(w, 8 * i) for w in td0] for i in range(1, 4)]


TE = _build_encrypt_tables()
TD = _build_decrypt_tables()

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

# ---------------------------------------------------------------------------
# Key schedule
# ---------------------------------------------------------------------------


def expand_key(key: bytes) -> list[int]:
    """Expand ``key`` into the encryption round-key words (big-endian)."""
    if len(key) not in _ROUNDS_BY_KEYLEN:
        raise KeySizeError(
            f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
        )
    nk = len(key) // 4
    rounds = _ROUNDS_BY_KEYLEN[len(key)]
    words = [
        int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)
    ]
    for i in range(nk, 4 * (rounds + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
            temp = (
                (SBOX[(temp >> 24) & 0xFF] << 24)
                | (SBOX[(temp >> 16) & 0xFF] << 16)
                | (SBOX[(temp >> 8) & 0xFF] << 8)
                | SBOX[temp & 0xFF]
            )
            temp ^= _RCON[i // nk - 1] << 24
        elif nk > 6 and i % nk == 4:
            temp = (
                (SBOX[(temp >> 24) & 0xFF] << 24)
                | (SBOX[(temp >> 16) & 0xFF] << 16)
                | (SBOX[(temp >> 8) & 0xFF] << 8)
                | SBOX[temp & 0xFF]
            )
        words.append(words[i - nk] ^ temp)
    return words


def _inv_mix_word(word: int) -> int:
    """Apply InvMixColumns to a single 32-bit column."""
    b = [(word >> 24) & 0xFF, (word >> 16) & 0xFF, (word >> 8) & 0xFF, word & 0xFF]
    return (
        (gf_mul(b[0], 0x0E) ^ gf_mul(b[1], 0x0B) ^ gf_mul(b[2], 0x0D) ^ gf_mul(b[3], 0x09)) << 24
        | (gf_mul(b[0], 0x09) ^ gf_mul(b[1], 0x0E) ^ gf_mul(b[2], 0x0B) ^ gf_mul(b[3], 0x0D)) << 16
        | (gf_mul(b[0], 0x0D) ^ gf_mul(b[1], 0x09) ^ gf_mul(b[2], 0x0E) ^ gf_mul(b[3], 0x0B)) << 8
        | (gf_mul(b[0], 0x0B) ^ gf_mul(b[1], 0x0D) ^ gf_mul(b[2], 0x09) ^ gf_mul(b[3], 0x0E))
    )


def expand_key_decrypt(round_keys: list[int]) -> list[int]:
    """Derive the decryption ("equivalent inverse cipher") key schedule.

    The decryption rounds apply InvMixColumns before AddRoundKey, so all
    round keys except the first and last must be passed through
    InvMixColumns, and the whole schedule is used in reverse order.
    """
    rounds = len(round_keys) // 4 - 1
    out: list[int] = []
    for rnd in range(rounds, -1, -1):
        chunk = round_keys[4 * rnd : 4 * rnd + 4]
        if 0 < rnd < rounds:
            chunk = [_inv_mix_word(w) for w in chunk]
        out.extend(chunk)
    return out


# ---------------------------------------------------------------------------
# The cipher
# ---------------------------------------------------------------------------


class AES:
    """AES in raw block (ECB-of-one-block) form.

    This object is deliberately low level: it encrypts exactly one
    16-byte block at a time, which is all a reference needs.
    """

    def __init__(self, key: bytes):
        self._ek = expand_key(key)
        self._dk = expand_key_decrypt(self._ek)
        self._rounds = len(self._ek) // 4 - 1
        self.key_size = len(key)

    # -- encryption ---------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise BlockSizeError(
                f"AES block must be 16 bytes, got {len(block)}"
            )
        ek = self._ek
        te0, te1, te2, te3 = TE
        sbox = SBOX

        t0 = int.from_bytes(block[0:4], "big") ^ ek[0]
        t1 = int.from_bytes(block[4:8], "big") ^ ek[1]
        t2 = int.from_bytes(block[8:12], "big") ^ ek[2]
        t3 = int.from_bytes(block[12:16], "big") ^ ek[3]

        base = 4
        for _ in range(self._rounds - 1):
            s0 = (te0[t0 >> 24] ^ te1[(t1 >> 16) & 0xFF]
                  ^ te2[(t2 >> 8) & 0xFF] ^ te3[t3 & 0xFF] ^ ek[base])
            s1 = (te0[t1 >> 24] ^ te1[(t2 >> 16) & 0xFF]
                  ^ te2[(t3 >> 8) & 0xFF] ^ te3[t0 & 0xFF] ^ ek[base + 1])
            s2 = (te0[t2 >> 24] ^ te1[(t3 >> 16) & 0xFF]
                  ^ te2[(t0 >> 8) & 0xFF] ^ te3[t1 & 0xFF] ^ ek[base + 2])
            s3 = (te0[t3 >> 24] ^ te1[(t0 >> 16) & 0xFF]
                  ^ te2[(t1 >> 8) & 0xFF] ^ te3[t2 & 0xFF] ^ ek[base + 3])
            t0, t1, t2, t3 = s0, s1, s2, s3
            base += 4

        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns)
        s0 = ((sbox[t0 >> 24] << 24) | (sbox[(t1 >> 16) & 0xFF] << 16)
              | (sbox[(t2 >> 8) & 0xFF] << 8) | sbox[t3 & 0xFF]) ^ ek[base]
        s1 = ((sbox[t1 >> 24] << 24) | (sbox[(t2 >> 16) & 0xFF] << 16)
              | (sbox[(t3 >> 8) & 0xFF] << 8) | sbox[t0 & 0xFF]) ^ ek[base + 1]
        s2 = ((sbox[t2 >> 24] << 24) | (sbox[(t3 >> 16) & 0xFF] << 16)
              | (sbox[(t0 >> 8) & 0xFF] << 8) | sbox[t1 & 0xFF]) ^ ek[base + 2]
        s3 = ((sbox[t3 >> 24] << 24) | (sbox[(t0 >> 16) & 0xFF] << 16)
              | (sbox[(t1 >> 8) & 0xFF] << 8) | sbox[t2 & 0xFF]) ^ ek[base + 3]

        return b"".join(s.to_bytes(4, "big") for s in (s0, s1, s2, s3))

    # -- decryption ---------------------------------------------------

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise BlockSizeError(
                f"AES block must be 16 bytes, got {len(block)}"
            )
        dk = self._dk
        td0, td1, td2, td3 = TD
        inv = INV_SBOX

        t0 = int.from_bytes(block[0:4], "big") ^ dk[0]
        t1 = int.from_bytes(block[4:8], "big") ^ dk[1]
        t2 = int.from_bytes(block[8:12], "big") ^ dk[2]
        t3 = int.from_bytes(block[12:16], "big") ^ dk[3]

        base = 4
        for _ in range(self._rounds - 1):
            s0 = (td0[t0 >> 24] ^ td1[(t3 >> 16) & 0xFF]
                  ^ td2[(t2 >> 8) & 0xFF] ^ td3[t1 & 0xFF] ^ dk[base])
            s1 = (td0[t1 >> 24] ^ td1[(t0 >> 16) & 0xFF]
                  ^ td2[(t3 >> 8) & 0xFF] ^ td3[t2 & 0xFF] ^ dk[base + 1])
            s2 = (td0[t2 >> 24] ^ td1[(t1 >> 16) & 0xFF]
                  ^ td2[(t0 >> 8) & 0xFF] ^ td3[t3 & 0xFF] ^ dk[base + 2])
            s3 = (td0[t3 >> 24] ^ td1[(t2 >> 16) & 0xFF]
                  ^ td2[(t1 >> 8) & 0xFF] ^ td3[t0 & 0xFF] ^ dk[base + 3])
            t0, t1, t2, t3 = s0, s1, s2, s3
            base += 4

        s0 = ((inv[t0 >> 24] << 24) | (inv[(t3 >> 16) & 0xFF] << 16)
              | (inv[(t2 >> 8) & 0xFF] << 8) | inv[t1 & 0xFF]) ^ dk[base]
        s1 = ((inv[t1 >> 24] << 24) | (inv[(t0 >> 16) & 0xFF] << 16)
              | (inv[(t3 >> 8) & 0xFF] << 8) | inv[t2 & 0xFF]) ^ dk[base + 1]
        s2 = ((inv[t2 >> 24] << 24) | (inv[(t1 >> 16) & 0xFF] << 16)
              | (inv[(t0 >> 8) & 0xFF] << 8) | inv[t3 & 0xFF]) ^ dk[base + 2]
        s3 = ((inv[t3 >> 24] << 24) | (inv[(t2 >> 16) & 0xFF] << 16)
              | (inv[(t1 >> 8) & 0xFF] << 8) | inv[t0 & 0xFF]) ^ dk[base + 3]

        return b"".join(s.to_bytes(4, "big") for s in (s0, s1, s2, s3))
