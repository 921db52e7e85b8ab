"""Float values as the text of '%.17g', made in numpy a block at a time.

``run_texts`` gives exactly what ``'%.17g' % value`` gives for each value
of a (rows, k) float64 block of table rows, byte for byte, at a fraction
of CPython's cost per value (its 17-digit path runs the bignum dtoa),
joined into one ``str`` per run of adjacent float cells of a row, with the
table's separator between the cells of a run.

*Scale.*  A nonzero x with |x| in the certified band [1e-280, 1e280] has
decimal exponent e = floor(log10 |x|), corrected once where log10 rounds
across a power of ten, and |x| 10^(16 - e) is formed in double-double
arithmetic: a Dekker product against the double-double 10^(16 - e) of a
table built from exact integers.  It is off the exact product by a few
1e-15 units, so its nearest integer is the 17-digit mantissa that '%.17g'
rounds to.  Where 10^(16 - e) is itself a double (-6 <= e <= 16) the
product is exact, and so is its fraction: a decimal tie there rounds half
to even, as '%.17g' does.

*Lay out.*  The text is laid out as 8-byte words per value: sign, '0.000'
prefix, first digit and its dot slot; four groups of 4 digits, each digit
followed by a dot slot, from a table of 4-digit groups; and the 'e+XX'
suffix followed by the run's separator, or by '|' where the value ends its
run, in one or two words.  Unused slots and stripped zeros are NUL bytes,
deleted in one pass; the block is then decoded once and split once at the
'|' bytes, into one ``str`` per run.  A zero is its sign and '0'.

*Fall back.*  A value the fast path cannot certify is laid out as one '?'
byte, and Python's own '%.17g' of it is spliced into the decoded block in
its place, in cell order: a product within 1e-9 of a half unit outside
-6 <= e <= 16 (exact decimal ties such as 2^-25 among them), one whose
corrected decade still leaves [1e16, 1e17), a non-finite value, and any |x|
outside the band.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["BLOCK_CELLS", "run_texts"]

BLOCK_CELLS = 1 << 12  # values per block: its byte layout and temporaries stay near 1 MB
_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_POW_MIN, _POW_MAX = 16 - 282, 16 + 282  # the powers 10^k the band can need
_EXP_MAX = 300  # the scientific exponents of the suffix table, -300..300
_NO_EXP = 2 * _EXP_MAX + 1  # the suffix code of the fixed form: no exponent
# a value's text ends its run at _RUN_END; _MARK stands for a value left to Python
_RUN_END, _MARK = "|", "?"


@dataclass(frozen=True)
class _TextTables:
    pow_hi: np.ndarray  # 10^k rounded, k = _POW_MIN.._POW_MAX
    pow_hi_head: np.ndarray  # its upper 26 bits (Dekker split)
    pow_hi_tail: np.ndarray  # and the rest
    pow_lo: np.ndarray  # 10^k - pow_hi, rounded
    groups: np.ndarray  # uint64 per 4-digit group 0000..9999: each digit, then a NUL dot slot
    ends: np.ndarray  # int8 at 10000 i + g: the mantissa digits up to group i's last nonzero one
    heads: np.ndarray  # uint64 per layout code: the '0.000' prefix and the first digit's dot
    masks: np.ndarray  # (4, codes) uint64: 0xff on the kept digits of each group
    dots: np.ndarray  # (4, codes) uint64: the dot within each group
    signs: np.ndarray  # uint64 per 10 sign + first digit: the sign and first-digit bytes
    mark: np.uint64  # the word of a value left to Python: _MARK


def _words(chunks, width: int = 1) -> np.ndarray:
    """Strings of up to 8 width bytes as width uint64 words each, so the bytes
    keep their order on any host."""
    return np.frombuffer(b"".join(chunk.ljust(8 * width, b"\0") for chunk in chunks), dtype=np.uint64)


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
        _words(heads), _words(masks).reshape(-1, 4).T.copy(), _words(dots).reshape(-1, 4).T.copy(),
        _words(bytes([sign, 0, 0, 0, 0, 0, ord("0") + d]) for sign in (0, ord("-")) for d in range(10)),
        _words([_MARK.encode()])[0],
    )


@functools.cache
def _tails(sep: str) -> np.ndarray:
    """The bytes that end a value's text, as one void item of whole words at 2 c + r
    for suffix code c (e + _EXP_MAX, or _NO_EXP) and r = 1 where the value ends its
    run: the 'e+XX' suffix, then sep or _RUN_END."""
    if not sep.isascii() or {"\0", _RUN_END, _MARK} & set(sep):
        raise ValueError(f"a run separator must be ASCII without NUL, {_RUN_END!r} or {_MARK!r}: {sep!r}")
    suffixes = [*(b"e%+03d" % e for e in range(-_EXP_MAX, _EXP_MAX + 1)), b""]
    chunks = [suffix + end for suffix in suffixes for end in (sep.encode(), _RUN_END.encode())]
    width = -(-max(map(len, chunks)) // 8)
    return _words(chunks, width).view(f"V{8 * width}")


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


def run_texts(block: np.ndarray, run_ends: np.ndarray, sep: str) -> list[str]:
    """The text of each run of a (rows, k) float64 block, row by row: the
    '%.17g' texts of the run's cells joined by sep, one str per (row, run).

    Column j is the last of its run where ``run_ends[j]``; the last column
    must be.  sep is ASCII and holds no NUL, '|' or '?'.
    """
    text, uncertified = _float_bytes(block, run_ends, _tails(sep))
    text = text.decode("ascii")
    if uncertified.size:
        pieces = text.split(_MARK)
        fallbacks = map(_python_text, block.ravel()[uncertified].tolist())
        text = "".join(itertools.chain.from_iterable(zip(pieces, fallbacks))) + pieces[-1]
    texts = text.split(_RUN_END)
    texts.pop()
    return texts


def _mantissas(a: np.ndarray, tab: _TextTables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each |x| as its 17-digit integer mantissa n in [1e16, 1e17) and decimal
    exponent e, and whether the two are certified: never for |x| outside the band,
    zero among them."""
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
    # where 10^(16 - e) is a double, s + t is the exact product and frac is exact:
    # its fraction has no bit below 2^-50, so every value there is certified
    # and a tie rounds half to even
    certified &= ((e >= -6) & (e <= 16)) | (np.abs(frac - 0.5) > 1e-9)
    n = s.astype(np.int64) + floor.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & (n & 1 == 1))
    # a mantissa that rounds up to 10^17 is 10^16 of the next decade
    carry = n == 10**17
    n[carry] = 10**16
    return n, e + carry, certified


def _float_bytes(block: np.ndarray, run_ends: np.ndarray, tails: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The texts of a (rows, k) block's values in row order, each followed by
    its tail of ``_tails``, and the flat indices of the values laid out as
    _MARK, for ``_python_text``."""
    tab = _text_tables()
    x = block.ravel()
    words = np.empty((len(x), 5 + tails.itemsize // 8), np.uint64)
    n, e, certified = _mantissas(np.abs(x), tab)
    # the 16 digits after the first as four 4-digit groups, one row each (numpy
    # divides by a scalar fast, but not divmod)
    high9 = n // 10**8
    first = high9 // 10**8
    eights = (high9 - first * 10**8, n - high9 * 10**8)
    groups = np.empty((4, len(x)), np.int64)
    for i, eight in enumerate(eights):
        np.floor_divide(eight, 10**4, out=groups[2 * i])
        np.subtract(eight, groups[2 * i] * 10**4, out=groups[2 * i + 1])
    nd = np.take(tab.ends, groups + 10000 * np.arange(4)[:, None]).max(axis=0)
    fixed = (e >= -4) & (e < 17)
    code = np.where(fixed, 17 * e + 67, 356) + nd
    sign = 10 * np.signbit(x)
    words[:, 0] = np.take(tab.heads, code) | np.take(tab.signs, sign + first)
    body = np.take(tab.groups, groups)
    body &= np.take(tab.masks, code, axis=1)
    body |= np.take(tab.dots, code, axis=1)
    words[:, 1:5] = body.T
    suffix = np.where(fixed, _NO_EXP, e + _EXP_MAX)
    # a zero is its sign and first digit, and any other uncertified value _MARK
    special = np.flatnonzero(~certified)
    zero = x[special] == 0.0
    words[special, 0] = np.where(zero, np.take(tab.signs, sign[special]), tab.mark)
    words[special, 1:5] = 0
    suffix[special] = _NO_EXP
    tail = 2 * suffix + np.broadcast_to(run_ends, block.shape).ravel()
    words[:, 5:].view(tails.dtype)[:, 0] = np.take(tails, tail)
    return words.tobytes().translate(None, b"\0"), special[~zero]
