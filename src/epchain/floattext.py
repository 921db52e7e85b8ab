"""Float values as the text of '%.17g', made in numpy a block at a time.

``float_texts`` gives exactly what ``'%.17g' % value`` gives for each value
of a float64 array, byte for byte, at a fraction of CPython's cost per
value (its 17-digit path runs the bignum dtoa).

*Scale.*  A nonzero x with |x| in the certified band [1e-280, 1e280] has
decimal exponent e = floor(log10 |x|), corrected once where log10 rounds
across a power of ten, and |x| 10^(16 - e) is formed in double-double
arithmetic: a Dekker product against the double-double 10^(16 - e) of a
table built from exact integers.  It is off the exact product by a few
1e-15 units, so its nearest integer is the 17-digit mantissa that '%.17g'
rounds to.

*Lay out.*  The text is laid out as six 8-byte words per value: sign,
'0.000' prefix, first digit and its dot slot; four groups of 4 digits, each
digit followed by a dot slot, from a table of 4-digit groups; and the 'e+XX'
suffix ending in a newline.  Unused slots and stripped zeros are NUL bytes,
deleted in one pass before the text is split at the newlines.  Zeros skip
the arithmetic.

*Fall back.*  A value the fast path cannot certify takes Python's own
'%.17g': a product within 1e-9 of a half unit (exact decimal ties such as
2^-25 among them), one whose corrected decade still leaves [1e16, 1e17), a
non-finite value, and any |x| outside the band.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["BLOCK_CELLS", "float_texts"]

BLOCK_CELLS = 1 << 12  # values per block: its byte layout and temporaries stay near 1 MB
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_POW_MIN, _POW_MAX = 16 - 282, 16 + 282  # the powers 10^k the band can need
_EXP_MAX = 300  # the scientific exponents of the suffix table, -300..300


@dataclass(frozen=True)
class _TextTables:
    pow_hi: np.ndarray  # 10^k rounded, k = _POW_MIN.._POW_MAX
    pow_hi_head: np.ndarray  # its upper 26 bits (Dekker split)
    pow_hi_tail: np.ndarray  # and the rest
    pow_lo: np.ndarray  # 10^k - pow_hi, rounded
    groups: np.ndarray  # uint64 per 4-digit group 0000..9999: each digit, then a NUL dot slot
    ends: np.ndarray  # int8 at 10000 i + g: the mantissa digits up to group i's last nonzero one
    heads: np.ndarray  # uint64 per layout code: the '0.000' prefix and the first digit's dot
    masks: np.ndarray  # (codes, 4) uint64: 0xff on the kept digits of the four groups
    dots: np.ndarray  # (codes, 4) uint64: the dot within the groups
    signs: np.ndarray  # uint64 per 10 sign + first digit: the sign and first-digit bytes
    tails: np.ndarray  # uint64 per e + _EXP_MAX: 'e+XX\n'; the last entry is '\n'


def _words(chunks) -> np.ndarray:
    """8-byte strings as uint64 words, so the bytes keep their order on any host."""
    return np.frombuffer(b"".join(chunk.ljust(8, b"\0") for chunk in chunks), dtype=np.uint64)


@functools.cache
def _text_tables() -> _TextTables:
    """The formatter's tables, built on first use (a few milliseconds) from exact integers."""
    hi, lo = [], []
    for k in range(_POW_MIN, _POW_MAX + 1):
        if k >= 0:
            power = 10**k
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            # int / int is correctly rounded, and so is the residual 1/10^-k - hi
            denom = 10**-k
            hi.append(1 / denom)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * denom) / (den * denom))
    pow_hi = np.array(hi)
    scaled = _SPLITTER * pow_hi
    head = scaled - (scaled - pow_hi)

    g = np.arange(10000, dtype=np.int16)
    slots = np.zeros((10000, 8), np.uint8)
    for i, unit in enumerate((1000, 100, 10, 1)):
        slots[:, 2 * i] = g // unit % 10 + ord("0")
    # digits 1 + 4 i .. 4 + 4 i of the mantissa are group i: the digits up to
    # its last nonzero one are 4 i + 5 less its trailing zeros, none for a
    # zero group, except that the first digit is always kept
    last = np.int8(4) - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)
    ends = np.where(g > 0, (1 + 4 * np.arange(4, dtype=np.int8))[:, None] + last, np.int8(0))
    ends[0] = np.where(g > 0, 1 + last, 1)

    # layout code 17 (e + 4) + nd - 1 for the fixed form (-4 <= e < 17),
    # 357 + nd - 1 for the scientific one, nd the digits left after
    # stripping trailing zeros
    heads, masks, dots = [], [], []
    for e in [*range(-4, 17), None]:
        for nd in range(1, 18):
            kept = max(nd, e + 1) if e is not None and e >= 0 else nd
            dot = 0 if e is None else e  # the dot follows digit `dot`
            prefix = b"0.000"[: 1 - e] if e is not None and e < 0 else b""
            heads.append(bytes(1) + prefix.ljust(6, b"\0") + (b"." if 0 == dot < kept - 1 else b""))
            mask, dot_slots = bytearray(32), bytearray(32)
            mask[0 : 2 * (kept - 1) : 2] = b"\xff" * (kept - 1)
            if 0 < dot < kept - 1:
                dot_slots[2 * dot - 1] = ord(".")
            masks.append(bytes(mask))
            dots.append(bytes(dot_slots))
    return _TextTables(
        pow_hi, head, pow_hi - head, np.array(lo),
        slots.view(np.uint64).ravel(), ends.ravel(),
        _words(heads), _words(masks).reshape(-1, 4), _words(dots).reshape(-1, 4),
        _words(bytes([sign, 0, 0, 0, 0, 0, ord("0") + d]) for sign in (0, ord("-")) for d in range(10)),
        _words([*(b"e%+03d\n" % e for e in range(-_EXP_MAX, _EXP_MAX + 1)), b"\n"]),
    )


def _scaled(a: np.ndarray, k: np.ndarray, tab: _TextTables) -> tuple[np.ndarray, np.ndarray]:
    """a 10^k as a double-double (s, t): s + t is off the exact product by a few 1e-32 relative."""
    i = k - _POW_MIN
    hi_head, hi_tail = tab.pow_hi_head[i], tab.pow_hi_tail[i]
    p = a * tab.pow_hi[i]
    scaled = _SPLITTER * a
    a_head = scaled - (scaled - a)
    a_tail = a - a_head
    # p + err = a pow_hi exactly (Dekker); then add a pow_lo and renormalise
    err = ((a_head * hi_head - p) + a_head * hi_tail + a_tail * hi_head) + a_tail * hi_tail
    c = err + a * tab.pow_lo[i]
    s = p + c
    v = s - p
    return s, (p - (s - v)) + (c - v)


def _decade_miss(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """-1 where s + t < 1e16, +1 where s + t >= 1e17, else 0."""
    above = (s > 1e17) | ((s == 1e17) & (t >= 0.0))
    below = (s < 1e16) | ((s == 1e16) & (t < 0.0))
    return above.astype(np.intp) - below


def _python_text(value: float) -> str:
    """The fallback: CPython's own 17-digit text of one float."""
    return "%.17g" % value


def float_texts(x: np.ndarray) -> list[str]:
    """'%.17g' % value for each value of a float64 array, as a list of str,
    made ``BLOCK_CELLS`` values at a time."""
    texts = []
    for start in range(0, len(x), BLOCK_CELLS):
        block = x[start : start + BLOCK_CELLS]
        text, uncertified = _float_bytes(block)
        block_texts = text.decode("ascii").split("\n")
        block_texts.pop()
        for i in uncertified.tolist():
            block_texts[i] = _python_text(float(block[i]))
        texts += block_texts
    return texts


def _mantissas(a: np.ndarray, tab: _TextTables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each |x| > 0 as its 17-digit integer mantissa n in [1e16, 1e17) and
    decimal exponent e, and whether the two are certified."""
    certified = (a >= 1e-280) & (a <= 1e280)
    a = np.where(certified, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    s, t = _scaled(a, 16 - e, tab)
    miss = _decade_miss(s, t)
    moved = np.flatnonzero(miss)
    if moved.size:
        # log10 rounded across a power of ten: one step to the neighbouring decade
        e[moved] += miss[moved]
        s[moved], t[moved] = _scaled(a[moved], 16 - e[moved], tab)
        certified[moved[_decade_miss(s[moved], t[moved]) != 0]] = False
    floor = np.floor(t)
    frac = t - floor
    certified &= np.abs(frac - 0.5) > 1e-9
    n = s.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    # a mantissa that rounds up to 10^17 is 10^16 of the next decade
    carry = n == 10**17
    n[carry] = 10**16
    return n, e + carry, certified


def _float_bytes(x: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The texts of ``float_texts``, each ended by a newline, and the indices
    of the cells they leave to ``_python_text``."""
    tab = _text_tables()
    words = np.zeros((len(x), 6), np.uint64)
    # a zero is its sign and first digit; the arithmetic skips it
    words[:, 0] = np.take(tab.signs, 10 * np.signbit(x))
    words[:, 5] = tab.tails[-1]
    nonzero = np.flatnonzero(x)
    x = x[nonzero]
    n, e, certified = _mantissas(np.abs(x), tab)
    groups = np.empty((len(x), 4), np.int64)
    high9, low8 = np.divmod(n, 10**8)
    first, mid8 = np.divmod(high9, 10**8)
    np.divmod(mid8, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low8, 10**4, out=(groups[:, 2], groups[:, 3]))
    ends = np.take(tab.ends, groups + 10000 * np.arange(4))
    nd = np.maximum(np.maximum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 2], ends[:, 3]))
    fixed = (e >= -4) & (e < 17)
    code = np.where(fixed, 17 * e + 67, 356) + nd
    words[nonzero, 0] = np.take(tab.heads, code) | np.take(tab.signs, 10 * np.signbit(x) + first)
    body = np.take(tab.groups, groups)
    body &= np.take(tab.masks, code, axis=0)
    body |= np.take(tab.dots, code, axis=0)
    words[nonzero, 1:5] = body
    words[nonzero, 5] = np.take(tab.tails, np.where(fixed, 2 * _EXP_MAX + 1, e + _EXP_MAX))
    return words.tobytes().translate(None, b"\0"), nonzero[~certified]
