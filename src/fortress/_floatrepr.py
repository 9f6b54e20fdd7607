"""``repr`` of a block of float64 values, computed in numpy.

:func:`reprs` gives, for every cell of a float64 array, the bytes of
``repr(v)``: the shortest decimal that reads back as the same double, in
Python's layout (positional when the decimal exponent is -4 to 15, else
``d.ddde±XX``). NaN gives empty bytes. Cells are returned as 24-byte
NUL-padded slots, the length of the longest finite ``repr``.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), as in the core of Java's ``DoubleToDecimal.toDecimal``:
products of a 126-bit power of ten with the value's scaled significand and
with its neighbours' midpoints, rounded to odd, bound the interval of
decimals that read back as the value. Two of Java's rules are Java's own
and are left out, since ``Double.toString`` wants two digits where ``repr``
takes one: the one-digit-shorter candidate is tried for every ``s >= 10``
(not ``s >= 100``), and subnormals take no ×10 path (with it ``8e-323``
comes out as ``7.9e-323``).

Every uint64 expression takes ``np.uint64`` operands only: numpy 1.x
promotes uint64 with a Python int to float64. Products of arrays wrap
modulo 2**64 without a warning, which ``_rop`` relies on.
"""

from __future__ import annotations

import functools

import numpy as np

# Cells per pass. On a 2-vCPU guest a 1,024-row part of 25 features took
# 8.6 ms in chunks of 1,024 cells, 6.5 ms of 2,048, 5.6 ms of 4,096, 5.3 ms
# of 8,192 and 8.0 ms in one pass (median of 12, against 17.5 ms for a
# repr per cell); at this size each temporary stays under 1 MB.
CHUNK_CELLS = 4096
# bytes of the longest finite repr, "-1.2345678901234567e-308"
SLOT = 24

_Q_MIN = -1074  # the binary exponent of a subnormal's unit
_K_MIN = -324  # the decimal exponents k of the power table
_K_MAX = 292
_C_MIN = 1 << 52  # the least normal significand

_U = np.uint64
_ONE, _TWO, _TEN = _U(1), _U(2), _U(10)
_S32, _S52, _S63 = _U(32), _U(52), _U(63)
_M32, _M52, _M63 = _U((1 << 32) - 1), _U((1 << 52) - 1), _U((1 << 63) - 1)
_INF = _U(0x7FF << 52)  # the bits of inf; a NaN's are above
_P10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)
_P8, _P15, _P16 = _P10[8], _P10[15], _P10[16]

# A cell's layout mode: decpt + 3 where repr is positional (decpt in -3..16,
# for 10**(decpt - 1) <= |v| < 10**decpt), _EXP_MODE for a two-digit and
# _EXP_MODE + 1 for a three-digit exponent. Its shape adds the digit count
# n (1..17) and the sign: ((mode * 17 + n - 1) << 1) + negative.
_EXP_MODE = 20
_NAN_SHAPE = (_EXP_MODE + 2) * 17 * 2
# A cell's source row of _SRC bytes: "-0." and its first digit, its other
# 16 digits, four NULs, and its exponent text ("e+XX", NUL-padded to 8).
_SRC = 32
_MINUS, _ZERO, _POINT, _DIGIT0, _NUL, _EXP = 0, 1, 2, 3, 20, 24
_OFFSETS = np.arange(0, CHUNK_CELLS * _SRC, _SRC)[:, None]  # of each cell's row


def _flog10pow2(q: np.ndarray) -> np.ndarray:
    """floor(q * log10(2)) for int64 ``q`` in [-1074, 972]."""
    return (q * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(q: np.ndarray) -> np.ndarray:
    """floor(q * log10(2) + log10(3/4))."""
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(e * log2(10)) for ``e`` in [-324, 324]."""
    return (e * 913_124_641_741) >> 38


def _powers() -> np.ndarray:
    """Rows g1, its low 32 bits, g1 >> 32, and those two of g0, by k in
    [_K_MIN, _K_MAX], where g = g1 * 2**63 + g0 = floor(10**-k / 2**r) + 1
    and r = floor(-k * log2(10)) - 125, so that 2**125 <= g < 2**126."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)  # -r
        if k <= 0:
            p = 10 ** -k
            g = (p << shift if shift >= 0 else p >> -shift) + 1
        else:
            g = (1 << shift) // 10 ** k + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows.append((g1, g1 & 0xFFFFFFFF, g1 >> 32, g0 & 0xFFFFFFFF, g0 >> 32))
    return np.array(rows, dtype=np.uint64).T.copy()


def _mulhi(a0, a1, b0, b1) -> np.ndarray:
    """The high 64 bits of a * b from 32-bit halves, for a < 2**63 and
    b < 2**63."""
    mid = a1 * b0 + ((a0 * b0) >> _S32)  # < 2**63 + 2**32
    mid2 = (mid & _M32) + a0 * b1
    return a1 * b1 + (mid >> _S32) + (mid2 >> _S32)


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Java's ``rop``: floor(g * cp / 2**127), rounded to odd, for the rows
    of ``g`` that :func:`_powers` gives and cp < 2**63."""
    g1, g1_0, g1_1, g0_0, g0_1 = g
    b0, b1 = cp & _M32, cp >> _S32
    x1 = _mulhi(g0_0, g0_1, b0, b1)
    y1, y0 = _mulhi(g1_0, g1_1, b0, b1), g1 * cp
    z = (y0 >> _ONE) + x1
    return (y1 + (z >> _S63)) | (((z & _M63) + _M63) >> _S63)


def _digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest round-trip decimal of each positive finite double, given
    by its uint64 ``bits``, as uint64 ``f`` and int64 ``k`` with
    v = f * 10**k. ``f`` may end in zeros; it has 16 or 17 digits where v is
    normal. Zero and NaN give values the caller overwrites."""
    t = bits & _M52
    bq = (bits >> _S52).astype(np.int64)
    normal = bq != 0
    c = np.where(normal, t | _U(_C_MIN), t)
    q = np.where(normal, bq - 1075, _Q_MIN)
    # the interval is narrower below a power of two, except among subnormals
    regular = (c != _U(_C_MIN)) | ~normal
    k = np.where(regular, _flog10pow2(q), _flog10_three_quarters_pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)  # 2..5
    out = c & _ONE  # an odd significand's interval excludes its ends
    g = tables()[0].take(k - _K_MIN, axis=1)
    cb = c << _TWO
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - np.where(regular, _TWO, _ONE)) << h) + out
    vbr = _rop(g, (cb + _TWO) << h) - out
    s = vb >> _TWO
    # the one-digit-shorter candidates s' * 10 and (s' + 1) * 10
    sp10 = s // _TEN * _TEN
    upin = vbl <= sp10 << _TWO
    wpin = (sp10 + _TEN) << _TWO <= vbr
    shorter = (s >= _TEN) & (upin != wpin)
    uin = vbl <= s << _TWO
    win = (s + _ONE) << _TWO <= vbr
    # both s and s + 1 in the interval: the nearer, s on an even tie
    mid = (s << _TWO) + _TWO
    lower = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & ((s & _ONE) == _U(0))))
    f = np.where(shorter, np.where(upin, sp10, sp10 + _TEN), np.where(lower, s, s + _ONE))
    return f, k


@functools.cache
def tables() -> tuple[np.ndarray, ...]:
    """The tables of :func:`reprs`, built on first use; a process forked
    after the first use shares this one's. They are :func:`_powers`, then
    those of the layout: ``lead`` (``-0.`` and a digit) and ``quads`` (four
    digits) as uint32 words of the source row, ``tails`` (for the quad at
    digit 1 + 4j, the count of digits up to its last nonzero one, or 0),
    ``exps`` (exponent texts from e-324 as uint64 words) and ``layouts``
    (a shape's 24 source bytes)."""
    lead = np.frombuffer(b"".join(b"-0.%d" % d for d in range(10)), dtype=np.uint32)
    quad = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = (quad + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    last = 4 - np.argmax(quad[:, ::-1] != 0, axis=1)  # digits to the last nonzero
    tails = np.where(quad.any(axis=1), last + np.arange(1, 17, 4)[:, None], 0).astype(np.uint8)
    exps = np.frombuffer(
        b"".join((b"e%+03d" % x).ljust(8, b"\0") for x in range(_K_MIN, 324)), dtype=np.uint64
    )
    rows = []
    for mode in range(_EXP_MODE + 2):
        for n in range(1, 18):
            digits = list(range(_DIGIT0, _DIGIT0 + n))
            if mode < _EXP_MODE:
                decpt = mode - 3
                if decpt <= 0:  # "0." and -decpt zeros before the digits
                    body = [_ZERO, _POINT] + [_ZERO] * -decpt + digits
                elif decpt < n:
                    body = digits[:decpt] + [_POINT] + digits[decpt:]
                else:  # decpt - n zeros and ".0" after the digits
                    body = digits + [_ZERO] * (decpt - n) + [_POINT, _ZERO]
            else:
                body = digits[:1] + ([_POINT] + digits[1:] if n > 1 else [])
                body += range(_EXP, _EXP + 4 + mode - _EXP_MODE)
            rows += [body, [_MINUS] + body]
    rows.append([])  # NaN
    layouts = np.array([r + [_NUL] * (SLOT - len(r)) for r in rows], dtype=np.intp)
    return _powers(), lead, quads, tails, exps, layouts


def reprs(x: np.ndarray) -> np.ndarray:
    """``repr(v)`` of every cell of float64 ``x`` as ``S24`` bytes of the
    same shape, and ``b""`` for NaN. Raises ``ValueError`` on an infinity."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=f"S{SLOT}")
    cells, slots = x.reshape(-1), out.reshape(-1).view(np.uint8).reshape(-1, SLOT)
    for lo in range(0, cells.size, CHUNK_CELLS):
        _chunk(cells[lo:lo + CHUNK_CELLS], slots[lo:lo + CHUNK_CELLS])
    return out


def _chunk(v: np.ndarray, slots: np.ndarray) -> None:
    """Write the slots of the 1-D float64 chunk ``v`` to (cells, SLOT)
    uint8 ``slots``."""
    _, lead, quads, tails, exps, layouts = tables()
    bits = v.view(np.uint64)
    mag = bits & _M63
    inf = mag == _INF
    if inf.any():
        raise ValueError(f"cannot format non-finite value {float(v[inf][0])!r}")
    nan = mag > _INF
    f, k = _digits(mag)
    special = nan | (mag == _U(0))
    f[special] = 0  # zero is the digit 0 at decpt 1
    k[special] = 0
    ndigits = (f >= _P16) + 16
    small = np.flatnonzero(f < _P15)  # subnormal, or zero
    if small.size:
        ndigits[small] = np.searchsorted(_P10[1:17], f[small], side="right") + 1
    decpt = ndigits + k
    # the digits from the left: a, then b and c as two quads each
    fl = f * _P10[17 - ndigits]
    a = fl // _P16
    r = fl - a * _P16
    b = r // _P8
    c = (r - b * _P8).astype(np.intp)
    b = b.astype(np.intp)
    src = np.zeros((v.size, _SRC // 4), dtype=np.uint32)
    src[:, 0] = lead[a.astype(np.intp)]
    quad = []
    for j, half in ((1, b), (3, c)):
        hi = half // 10000
        quad += [hi, half - hi * 10000]
        src[:, j], src[:, j + 1] = quads[quad[-2]], quads[quad[-1]]
    # the digit count n, up to the last nonzero digit: the last quad's,
    # unless it is 0000
    n = tails[3][quad[3]]
    short = np.flatnonzero(n == 0)
    if short.size:
        m = np.ones(short.size, dtype=np.uint8)
        for j in range(3):
            np.maximum(m, tails[j][quad[j][short]], out=m)
        n[short] = m
    src.view(np.uint64)[:, _EXP // 8] = exps[decpt - 1 - _K_MIN]
    positional = (decpt >= -3) & (decpt <= 16)
    mode = np.where(positional, decpt + 3, _EXP_MODE + (np.abs(decpt - 1) >= 100))
    shape = ((mode * 17 + n - 1) << 1) + (bits >> _S63).astype(np.intp)
    shape[nan] = _NAN_SHAPE
    idx = layouts[shape]
    idx += _OFFSETS[:v.size]
    src.view(np.uint8).reshape(-1).take(idx, out=slots)
