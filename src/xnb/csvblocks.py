"""Plain blocks of a CSV body: their fields, and the exact float64 values of their decimal cells.

``xnb.dataset`` reads a CSV body in blocks of whole lines. A block with no quote,
NUL or lone CR, in UTF-8 and with the header's field count on every line is
plain: numpy splits it at its commas and line ends where the csv module would
(``plain_fields``), and ``decimals`` converts each cell that is a plain decimal
to the double ``float()`` gives, eight digits at a time. The reader sends every
other cell through ``float()``.
"""

from __future__ import annotations

import numpy as np

WINDOW = 24  # a cell longer than this many bytes is declined


def line_blocks(raw, size: int):
    """Yield the bytes of ``raw`` from where it stands, in blocks of whole lines.

    A block is at most ``size`` bytes, or one line that is longer; a last
    line without a newline gets one.
    """
    rest = b""
    while data := raw.read(max(size - len(rest), len(rest))):
        data = rest + data
        end = data.rfind(b"\n") + 1
        block, rest = data[:end], data[end:]
        del data  # only the block and the rest are held while the block is read
        if block:
            yield block
    if rest:
        yield rest + b"\n"


def plain_fields(data: bytes, width: int, limit: int):
    """Where the fields of a block of lines are, or None when the block is not plain.

    A plain block holds no quote, NUL or lone CR, is UTF-8, and each of its
    non-blank lines has ``width`` fields of at most ``limit`` bytes: the
    csv module would split it at each comma and line end, and skip its
    blank lines. The result is the non-blank lines' indices, the number of
    lines, the block as uint8 after ``WINDOW`` zero bytes, and each field's
    start and end in it, as (non-blank lines, width) arrays.
    """
    if b'"' in data or b"\0" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    buf = np.zeros(WINDOW + len(data), np.uint8)
    buf[WINDOW:] = np.frombuffer(data, np.uint8)
    separator = buf == 44
    separator |= buf == 10
    seps = np.flatnonzero(separator).astype(np.int32 if buf.size < 2**31 else np.intp)  # each field's end
    del separator
    newline = buf[seps] == 10
    line_end = seps[newline]
    count = line_end.size
    line_start = np.concatenate(([WINDOW], line_end[:-1] + 1))
    if b"\r" in data:
        crlf = buf[line_end - 1] == 13
        if np.count_nonzero(crlf) != np.count_nonzero(buf == 13):  # a CR that does not end a line
            return None
        line_end = line_end - crlf
    lines = np.arange(count)
    blank = line_end == line_start
    if blank.any():  # the csv module skips them; one field end each
        lines = np.flatnonzero(~blank)
        drop = np.flatnonzero(newline)[blank]
        seps, newline = np.delete(seps, drop), np.delete(newline, drop)
        line_start, line_end = line_start[lines], line_end[lines]
    if seps.size != lines.size * width or not newline[width - 1 :: width].all():  # a row of another width
        return None
    ends = seps.reshape(lines.size, width)
    starts = np.empty_like(ends)
    starts[:, 1:] = ends[:, :-1] + 1
    starts[:, 0], ends[:, -1] = line_start, line_end
    if len(data) > limit and lines.size and (ends - starts).max() > limit:
        return None
    return lines, count, buf, starts, ends


# ``decimals`` tables: the role of each byte that is not a digit ('.', 'e' or 'E', '+' or '-', none), and for the
# words of a window, the mask of its bytes from n on and ASCII '0' in those before n
_ROLE = np.full(256, 3, np.intp)
_ROLE[[46, 101, 69, 43, 45]] = 0, 1, 1, 2, 2
_KEEP = np.array([[(1 << 64) - (1 << 8 * min(max(n - 8 * w, 0), 8)) for w in range(3)] for n in range(WINDOW + 1)],
                 np.uint64)
_ZEROS = np.uint64(0x3030303030303030)
_FILL = _ZEROS & ~_KEEP
# powers as exact uint64 and float64: 10^j (past 10^19, more than any mantissa), 10^(j-1) (1 for j = 0), 5^j,
# M * 5^j's bound 2^63, and 2^j at j + 64
_POW10 = np.array([10**j for j in range(20)] + [2**64 - 1] * 4, np.uint64)
_SHIFT10 = np.array([1] + [10**j for j in range(19)] + [0] * 4, np.uint64)
_POW5 = np.array([5**j for j in range(28)], np.uint64)
_POW5F = _POW5.astype(np.float64)
_LIMIT = np.array([(2**63 - 1) // 5**j for j in range(28)], np.uint64)
_POW2 = np.ldexp(1.0, np.arange(-64, 65))


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The value of each uint64 word's eight ASCII digits, its first byte the most significant (SWAR)."""
    v = words - _ZEROS
    v = v * np.uint64(10) + (v >> np.uint64(8))
    low, high, pair = np.uint64(0x000000FF000000FF), np.uint64(100 + (1_000_000 << 32)), np.uint64(1 + (10_000 << 32))
    return ((v & low) * high + ((v >> np.uint64(16)) & low) * pair) >> np.uint64(32)


def _windows(buf: np.ndarray, ends: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """The ``WINDOW`` bytes of ``buf`` before each of ``ends`` as three uint64 words, the first ``lead`` of them '0'."""
    view = np.ndarray((buf.size - WINDOW + 1,), f"V{WINDOW}", buf, strides=(1,))
    words = view[ends - WINDOW].view("<u8").reshape(-1, 3)
    words &= _KEEP.take(lead, axis=0, mode="clip")
    words |= _FILL.take(lead, axis=0, mode="clip")
    return words


def _mantissa(words: np.ndarray, place: np.ndarray):
    """The integer that each window's digits make, less the '0' that stands ``place`` columns
    from its end (none for 0), and whether the window's digits are below 10^19."""
    parts = _eight_digits(words)
    whole = (parts[:, 0] * np.uint64(10**8) + parts[:, 1]) * np.uint64(10**8) + parts[:, 2]
    divisor = _POW10.take(place, mode="clip")
    high = whole // divisor
    return high * _SHIFT10.take(place, mode="clip") + (whole - high * divisor), parts[:, 0] < 1000


def _exact(m: np.ndarray, q: np.ndarray):
    """The double nearest m * 10^q for 0 <= q <= 27 with m * 5^q below 2^63, and for -22 <= q < 0
    unless the second rounding may be off (see ``decimals``); and where it is."""
    power = _POW5.take(-q, mode="clip")
    whole = m // power
    r = (m - whole * power).astype(np.float64) / _POW5F.take(-q, mode="clip")
    base = whole.astype(np.float64)
    unit = (np.maximum(base, 1.0).view(np.int64) & 0x7FF0000000000000).view(np.float64)  # 2^floor(log2 Q0)
    scaled = r / unit * 2.0**53  # r over half the spacing of Q0's binade
    ok = (q + 22).view(np.uint64) < 50
    ok &= (q >= 0) | (whole < 2**53) & ((r == 0) | (scaled != np.floor(scaled)))
    value = (base + r) * _POW2.take(64 + q, mode="clip")
    large = np.flatnonzero(q >= 0)
    if large.size:
        q, m = q[large], m[large]
        ok[large] &= m <= _LIMIT.take(q, mode="clip")
        value[large] = (m * _POW5.take(q, mode="clip")).astype(np.float64) * _POW2.take(64 + q, mode="clip")
    return value, ok


def decimals(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The float64 value of each cell ``buf[starts:ends]`` that is a plain decimal, and which cells are.

    A plain decimal is ``-?D+(.D+)?([eE][+-]?D{1,3})?`` in at most ``WINDOW`` bytes whose
    digits, read as one integer, are below 10^19; its value is the one ``float()`` gives, or
    the cell is declined. The mantissa is read as three eight-digit words with its '.' as a
    0 digit, which a division by 10^(fraction + 1) takes out. With M the mantissa's digits
    as an integer and q the exponent less the fraction digits, the value is M * 10^q:
    - for 0 <= q <= 27, M * 5^q below 2^63 is rounded once to float64 and scaled by 2^q;
    - for -22 <= q < 0, with k = -q, Q0 = M // 5^k and R = M - Q0 * 5^k, the sum
      s = Q0 + r with r = R / 5^k (one correctly rounded division, as R and 5^k are
      below 2^53) is scaled by 2^-k. Rounding Q0 + r gives the double nearest
      Q0 + R / 5^k unless r fell on a midpoint of the grid of Q0's binade, which
      R / 5^k never is (Q0 + r reaches the next binade only when r is 1.0). A cell
      whose r is a multiple of half that grid's spacing, and one with Q0 >= 2^53,
      is declined.
    Every other cell is declined, and a declined cell's value is meaningless.
    """
    size = len(starts)
    offset = WINDOW - (ends - starts)  # the column of each cell's first byte in its window
    negative = buf[starts] == 45
    lead = offset + negative  # the column after the sign
    words = _windows(buf, ends, lead)
    flat = words.view(np.uint8).ravel()
    hits = np.flatnonzero(flat - np.uint8(48) >= 10)  # the bytes that are not digits
    cells = hits // WINDOW
    seen = np.full((size, 4), -1, np.int8)  # the column of each cell's byte of each role (the last unread)
    seen[:, 1] = WINDOW
    seen[cells, _ROLE.take(flat[hits])] = hits - cells * WINDOW
    count = np.bincount(cells, minlength=size)
    flat[hits] = 48  # the dot reads as a 0 digit
    del hits, cells  # each array is dropped once read, to bound the peak per cell
    dot, e, sign = seen[:, 0], seen[:, 1], seen[:, 2]
    has_dot, has_e, has_sign = dot >= 0, e < WINDOW, sign >= 0
    fraction = (e - dot - 1) * has_dot
    ok = (offset >= 0) & (offset < WINDOW) & (fraction >= has_dot) & (np.where(has_dot, dot, e) > lead)
    ok &= count == has_dot.astype(np.intp) + has_e + has_sign  # so at most one of each, and nothing else
    ok &= has_e | ~has_sign
    q = -fraction.astype(np.intp)
    if has_e.any():  # each exponent, and the mantissa in a window that ends where it does
        at = np.flatnonzero(has_e)
        shift = WINDOW - e[at]
        digits = shift - 1 - has_sign[at]
        ok[at] &= ((sign[at] < 0) | (sign[at] == e[at] + 1)) & (digits >= 1) & (digits <= 3)
        exponent = _eight_digits(_windows(buf, ends[at], WINDOW - digits)[:, 2]).astype(np.intp)
        q[at] += np.where(buf[ends[at] - shift + 1] == 45, -exponent, exponent)
        words[at] = _windows(buf, ends[at] - shift, lead[at] + shift)
        at = at[has_dot[at]]
        flat[at * WINDOW + dot[at] + WINDOW - e[at]] = 48
    del flat
    m, below = _mantissa(words, fraction + has_dot)
    del words
    value, exact = _exact(m, q)
    value *= 1 - 2.0 * negative
    return value, ok & below & exact
