"""Artifact rendering: a run's table as CSV or JSON text, ROW_BLOCK rows at a time.

Both formats go through one block writer (_blocks).  A row is fixed bytes (CSV separators, JSON
keys and indentation, and the one cell of each _constant column) with a NUL-padded slot for
every other cell; a block of rows is one uint8 array that starts as that row repeated, and its
text is the array's bytes other than NUL.  Every cell is one of three kinds (_Format): an int,
%d in both formats (_INT); a CSV float, %.16e (_CSV); a JSON float, json.dumps's repr (_JSON).
A kind's exact vectorized kernel writes the cells it decides: an int's sign and digits from
_digit_groups, %.16e from _scientific, the shortest round-trip repr from _shortest.  Python
formats only the cells a kernel leaves undecided, or every cell of a block too small to pay for
the vector math.  The bytes are those of rendering the whole text at once, and the memory held
does not grow with the row count.
"""

from __future__ import annotations

import functools
import json
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import __version__

ROW_BLOCK = 256  # rows rendered and written at a time, so the memory held does not grow with N
_PYTHON_BELOW = 160  # a block of fewer cells to fill formats them faster in Python, as measured
_E0 = 300  # _POWERS column e + _E0 holds decimal exponent e
_TIE = 1e-6  # this near a rounding boundary, a cell goes to Python: the kernels err by < 1e-14
_DEKKER = 134217729.0  # 2**27 + 1: splits a double into two halves of at most 26 bits
_HEAD = np.uint64(2**64 - 2**27)  # keeps a double's sign, exponent and top 26 bits
_FRACTION_BITS = np.uint64(2**52 - 1)  # a double's significand bits below the implicit one
_INT_KEEP = np.array([10**16] * 2 + [10**j for j in range(15, 0, -1)] + [0])  # see _fill_ints
_TENS = np.array([10**k for k in range(17)] + [2**62] * 15)  # past 10**16: no multiple in range


class _Format(NamedTuple):
    """One kind of cell: the bytes of its slot; the kernel that writes a block's cells of the
    kind, from the list of their columns, into a (columns, rows, width) array and returns the
    mask of those it decided; and Python's text of a list of values, each padded with spaces to
    the slot."""
    width: int
    fill: Callable[[np.ndarray, list], np.ndarray]
    python: Callable[[list], bytes]


def _constant(col: np.ndarray) -> bool:
    """Whether every cell of a non-empty column holds its first cell's bits: a float column is
    compared as unsigned integers, so -0.0 beside +0.0, or NaNs of different payloads, are not
    constant."""
    if col.dtype.kind == "f":
        col = col.view(f"u{col.itemsize}")
    return len(col) > 0 and bool(col[0] == col[-1] and (col == col[0]).all())


def _real_columns(values) -> dict[str, np.ndarray]:
    """The real columns of one table column: "_re" and "_im" of a complex one, else "" alone.  A
    float column of another dtype is cast to float64 once, so every format writes the cells of
    its float64 cast."""
    arr = np.asarray(values)
    cols = {"_re": arr.real, "_im": arr.imag} if np.iscomplexobj(arr) else {"": arr}
    return {key: np.asarray(col, np.float64) if col.dtype.kind == "f" else col
            for key, col in cols.items()}


def _render_csv(cfg, columns, meta) -> Iterator[str]:
    """Yield the CSV text, the comment and header lines first, then ROW_BLOCK rows at a time.
    Integer cells as %d and real cells as %.16e, to the bytes that format()ting each cell's numpy
    scalar writes; a complex column becomes two, _re and _im."""
    header, parts = [], []
    for name, values in columns:
        for suffix, col in _real_columns(values).items():
            header.append(name + suffix)
            parts += [col, b","]
    parts[-1] = b"\n"
    head = [f"# collisim {__version__}", "# config: " + json.dumps(cfg.echo, sort_keys=True),
            "# meta: " + json.dumps(meta, sort_keys=True), ",".join(header)]
    yield "\n".join(head) + "\n"
    yield from _blocks(parts, len(columns[0][1]), _CSV)


def _render_json(cfg, columns, meta) -> Iterator[str]:
    """Yield json.dumps(doc, sort_keys=True, indent=2) + "\n" of doc = {"version", "config",
    "meta", "rows": [{name: cell, ...} per row]}, complex cells as {"re", "im"}, to the byte,
    ROW_BLOCK rows at a time, without building the rows: the rows' blocks are spliced into
    json.dumps of the rest of the document."""
    parts = [b",\n    {\n"]  # the first row drops its ",\n"
    for name, values in sorted(columns, key=lambda column: column[0]):
        cols = _real_columns(values)
        parts.append(b"      %s: " % json.dumps(name).encode())
        if "_re" in cols:
            parts += [b'{\n        "im": ', cols["_im"], b',\n        "re": ', cols["_re"],
                      b"\n      }"]
        else:
            parts.append(cols[""])
        parts.append(b",\n")
    parts[-1] = b"\n    }"
    n = len(columns[0][1])
    doc = {"version": __version__, "config": cfg.echo, "meta": meta, "rows": []}
    head, empty, tail = json.dumps(doc, sort_keys=True, indent=2).rpartition('"rows": []')
    if not n:
        yield head + empty + tail + "\n"
        return
    yield head + '"rows": [\n'
    blocks = _blocks(parts, n, _JSON)
    yield next(blocks)[2:]
    yield from blocks
    yield "\n  ]" + tail + "\n"


def _blocks(parts: list, n: int, fmt: _Format) -> Iterator[str]:
    """The n rows of a table, ROW_BLOCK at a time, from ``parts``: the bytes of a row's fixed
    text, or a column, whose cells are of the kind _INT if it holds ints and fmt otherwise.  A
    _constant column's one cell, its kind's Python text, becomes fixed text; every other column
    gets a slot of its kind's width.  A block is one (rows, row bytes) uint8 array, the fixed
    row repeated, into which the cells of each kind are copied from one (columns, rows, width)
    array.  A block of at least _PYTHON_BELOW such cells takes their text from each kind's fill,
    and from Python only for the cells it leaves undecided; a smaller block, where the vector
    math costs more than it saves, takes every cell's text from Python.  Python is given each
    column's own values, so a bool stays a bool.  The row count is the table's, so a row whose
    every column is constant still renders n times."""
    row, kinds = [], {}
    for part in parts:
        if isinstance(part, bytes):
            row.append(part)
            continue
        kind = _INT if part.dtype.kind in "iu" else fmt
        if _constant(part):
            row.append(kind.python(part[:1].tolist()).rstrip(b" "))
        else:
            kinds.setdefault(kind, {})[sum(map(len, row))] = part
            row.append(bytes(kind.width))
    row = np.frombuffer(b"".join(row), np.uint8)
    k = sum(map(len, kinds.values()))
    text = lambda kind, values: np.frombuffer(kind.python(values).replace(b" ", b"\0"), np.uint8)
    for lo in range(0, n, ROW_BLOCK):
        m = min(ROW_BLOCK, n - lo)
        block = np.empty((m, len(row)), np.uint8)
        block[...] = row
        vector = m * k >= _PYTHON_BELOW
        for kind, slots in kinds.items():
            cols = [col[lo:lo + m] for col in slots.values()]
            if vector:
                cells = np.zeros((len(cols), m, kind.width), np.uint8)
                todo = ~kind.fill(cells, cols)
                values = [v for col, undecided in zip(cols, todo) for v in col[undecided].tolist()]
                if values:
                    cells[todo] = text(kind, values).reshape(len(values), -1)
            else:  # every cell from Python: its text is the cells, read in place
                values = [v for col in cols for v in col.tolist()]
                cells = text(kind, values).reshape(len(cols), m, -1)
            for start, cell in zip(slots, cells):
                block[:, start:start + kind.width] = cell
        yield block.tobytes().translate(None, b"\0").decode("ascii")


def _fill_ints(cells: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """Write the %d of each int v with |v| < 10**17 of a block's int columns into cells (columns,
    rows, 24), its sign at byte 0 and its digits at bytes 1 and 3-18, leading zeros NUL; return
    the (columns, rows) mask of the cells written.  The other cells are left to the caller.
    The columns are read one at a time: numpy stacks int64 beside uint64 as floats."""
    digits = np.empty(cells.shape[:2], np.int64)
    good = np.empty(digits.shape, bool)
    for j, v in enumerate(cols):
        good[j] = (v > -10**17) & (v < 10**17)
        digits[j] = np.where(good[j], v, 0)
    cells[..., 0] = np.where(digits < 0, ord("-"), 0)
    np.abs(digits, out=digits)
    _write_digits(cells, digits)
    cells[..., 1:19] *= digits[..., None] >= _INT_KEEP  # byte 3 + j: the digit 10**(15 - j)
    return good


def _fill_scientific(cells: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """Write the %.16e of each double of a block's float columns into cells (columns, rows, 24),
    from _scientific: its sign at byte 0, its digits at bytes 1 and 3-18 about the "." at 2, its
    exponent at 19-23; return the (columns, rows) mask of the cells written.  The other cells
    are left to the caller."""
    x = np.stack(cols, dtype=np.float64)
    digits, exponent, good = _scientific(x)
    cells[..., 0] = np.where(np.signbit(x), ord("-"), 0)
    _write_digits(cells, digits)
    cells[..., 2] = ord(".")
    cells[..., 19:24] = _POWERS.text.take(exponent, axis=0)
    return good


def _write_digits(cells: np.ndarray, digits: np.ndarray) -> None:
    """Write the 17 digits of each integer of digits in [0, 10**17) into bytes 1 and 3-18 of
    its slot of cells."""
    lead, groups = _digit_groups(digits)
    cells[..., 1] = lead
    cells[..., 3:19].view(np.uint32)[...] = _quads().take(groups).transpose(1, 2, 0)


def _fill_shortest(cells: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """As _fill_scientific, but a double gets the text of its repr, from _shortest: a bool
    column's 0.0 and 1.0 (a zero, and a power-of-two significand) are never decided, so Python
    writes json's false and true.  A slot of 48 bytes has fixed places for repr's every layout:
    byte 0 the sign, 1-5 "0.000" (the start of a fixed-point |x| < 1), then the 17 digits, digit
    i at 6 + 2 i with a possible "." after it, and at 40-44 the exponent's text.  Each byte is
    written, then masked by _layouts' row for the cell's exponent and digit count, which also
    adds the "0.000" prefix and the "."."""
    x = np.stack(cols, dtype=np.float64)
    digits, count, exponent, good = _shortest(x)
    lead, groups = _digit_groups(digits)
    cells[..., 0] = np.where(np.signbit(x), ord("-"), 0)
    cells[..., 6] = lead
    cells[..., 8:40].view(np.uint64)[...] = _spread_quads().take(groups).transpose(1, 2, 0)
    cells[..., 40:45] = _POWERS.text.take(exponent, axis=0)
    e = exponent - _E0
    layout = np.where((e >= -4) & (e < 16), e + 5, 0) * 17 + count - 1
    keep, fixed = _layouts()
    words = cells.view(np.uint64)
    words &= keep.take(layout, axis=0)
    words |= fixed.take(layout, axis=0)
    return good


class _PowersOfTen:
    """Column e + _E0 of ``values`` holds 10**(16 - e) as hi + lo, hi the double nearest it and
    lo the double nearest the rest, with hi's two Dekker halves between them; ``text[e + _E0]``
    is the exponent's text, e+05 or e-123.  A column is computed from Python ints the first
    time a block needs it."""

    def __init__(self) -> None:
        self.lo = self.hi = _E0  # the columns [lo, hi) are filled
        self.values = self.text = None

    def fill(self, lo: int, hi: int) -> np.ndarray:
        if lo < self.lo or hi > self.hi:
            if self.values is None:
                self.values = np.zeros((4, 2 * _E0 + 1))
                self.text = np.zeros((2 * _E0 + 1, 5), np.uint8)
            for col in [*range(lo, self.lo), *range(self.hi, hi)]:
                k = 16 - (col - _E0)
                num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
                big = num / den  # int / int is correctly rounded
                p, q = big.as_integer_ratio()
                c = big * _DEKKER
                head = c - (c - big)
                self.values[:, col] = big, head, big - head, (num * q - p * den) / (den * q)
                text = b"e%+03d" % (col - _E0)
                self.text[col, :len(text)] = np.frombuffer(text, np.uint8)
            self.lo, self.hi = min(lo, self.lo), max(hi, self.hi)
        return self.values


_POWERS = _PowersOfTen()


def _scaled(x: np.ndarray):
    """|x| 10**(16 - e) for each double of x, e its estimated decimal exponent floor(log10 |x|),
    as the integer part I and the fraction f; return |x| (1.0 where it is not in range), 10**(16
    - e)'s hi, the column e + _E0 of _POWERS, I, f, and whether |x| is in range.

    |x| 10**(16 - e) = |x| (hi + lo) is formed as p + r: p = |x| hi, and r the exact error of
    that product by Dekker's split (Numer. Math. 18, 224 (1971)) plus |x| lo.  p is an integer,
    since it is at least 2**53, and r is off by under 1e-14, so I = p + floor(r) and f = r -
    floor(r).  |x| is in range where it lies inside 1e-280..1e280: outside, or at 0 and the
    non-finite values, the product's parts could overflow or lose bits."""
    a = np.abs(x)
    finite = (a > 1e-280) & (a < 1e280)
    a = np.where(finite, a, 1.0)
    exponent = (np.log10(a) + _E0).astype(np.intp)  # positive, so truncation is floor
    big, head, tail, lo = _POWERS.fill(int(exponent.min()), int(exponent.max()) + 1).take(
        exponent, axis=1)
    p = a * big
    ah = (a.view(np.uint64) & _HEAD).view(np.float64)  # the top 26 bits of a
    al = a - ah
    r = ((ah * head - p) + ah * tail + al * head) + al * tail + a * lo
    whole = np.floor(r)
    low = p.astype(np.int64) + whole.astype(np.int64)
    return a, big, exponent, low, r - whole, finite


def _scientific(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each double of x, the 17 digits of %.16e as one integer in [10**16, 10**17), the
    column e + _E0 of _POWERS of its decimal exponent e, and whether the two are decided.

    With I and f from _scaled, I + (f > 1/2) is the correctly rounded mantissa unless f lies
    within _TIE of 1/2.  A cell is undecided there; where I lies outside [10**16, 10**17 - 1),
    as it does when e is one off, next to a power of ten, or when the rounding would carry into
    an 18th digit; and where |x| is not in _scaled's range."""
    _, _, exponent, low, fraction, good = _scaled(x)
    good &= np.abs(fraction - 0.5) > _TIE
    good &= (low - 10**16).view(np.uint64) < 9 * 10**16 - 1
    return low + (fraction > 0.5), exponent, good


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For each double of x, the digits of its shortest round-trip repr as one integer D in
    [10**16, 10**17), their count n (D's digits past the n-th are 0), the column e + _E0 of
    _POWERS of its decimal exponent e, and whether the three are decided.

    In units of the 17th digit, |x| is I + f (_scaled) and the doubles' rounding interval
    around it is I + f -+ h, h = spacing(|x|) / 2 10**(16 - e): [lo, hi] = [I + ceil(f - h), I +
    floor(f + h)] are the integers in it.  The shortest digits that read back as x are then a
    multiple of 10**k in [lo, hi] with k largest (Steele & White, PLDI 1990; Adams, PLDI 2018),
    found by a binary search over k in 0..16, and of the multiples, the one nearest I + f, as
    repr chooses.  A cell is undecided where either bound lies within _TIE of an integer (the
    interval's ends are in it or not by the parity of x's significand); where I + f lies
    within _TIE of the midpoint between two multiples; where the significand is a power of two,
    whose interval is half as wide below; where D carries to 10**17; where I lies outside
    [10**16, 10**17); and where |x| is not in _scaled's range."""
    a, big, exponent, low, fraction, good = _scaled(x)
    good &= (low - 10**16).view(np.uint64) < 9 * 10**16
    good &= (a.view(np.uint64) & _FRACTION_BITS) != 0
    half = np.spacing(a) * big * 0.5
    down, up = fraction - half, fraction + half
    good &= (np.abs(down - np.rint(down)) > _TIE) & (np.abs(up - np.rint(up)) > _TIE)
    lo = low + np.ceil(down).astype(np.int64)
    hi = low + np.floor(up).astype(np.int64)
    k = np.zeros(x.shape, np.intp)
    for step in (16, 8, 4, 2, 1):  # lo > 0 has no multiple of _TENS[17:], so k stays in 0..16
        wider = k + step
        power = _TENS.take(wider)
        k = np.where(hi // power * power >= lo, wider, k)
    power = _TENS.take(k)
    rest = low % power
    above = (2 * rest - power) + 2 * fraction  # 2 (I + f) less twice the midpoint above I - rest
    good &= np.abs(above) > 2 * _TIE
    digits = low - rest + power * (above > 0)
    good &= digits < 10**17
    return digits, 17 - k, exponent, good


def _digit_groups(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 decimal digits of each integer of digits in [0, 10**17), from integer quotients:
    the ASCII code of the first, of digits' shape, and the other 16 as indices 0..9999 of four
    four-digit groups, of shape (4,) + digits' shape."""
    high, low = np.divmod(digits.ravel(), 10**8)
    lead = high // 10**8
    eights = np.stack((high - lead * 10**8, low))
    groups = np.empty((2, 2, len(high)), np.intp)
    np.floor_divide(eights, 10**4, out=groups[:, 0])
    np.subtract(eights, groups[:, 0] * 10**4, out=groups[:, 1])
    return ((lead + ord("0")).astype(np.uint8).reshape(digits.shape),
            groups.reshape((4,) + digits.shape))


@functools.cache
def _quads() -> np.ndarray:
    """The groups "0000" .. "9999", four ASCII bytes each held as one uint32, built on first use."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
    quads = np.empty((100, 100, 4), np.uint8)
    quads[..., :2] = pairs[:, None]
    quads[..., 2:] = pairs
    quads.flags.writeable = False  # one table shared by every call
    return quads.view(np.uint32).reshape(-1)


@functools.cache
def _spread_quads() -> np.ndarray:
    """The groups of _quads() with a NUL after each digit, eight bytes each held as one uint64."""
    spread = np.zeros((10**4, 8), np.uint8)
    spread[:, ::2] = _quads().view(np.uint8).reshape(-1, 4)
    spread.flags.writeable = False
    return spread.view(np.uint64).reshape(-1)


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """The masks and fixed bytes of _fill_shortest's 48-byte slot, six uint64 words a row, for
    each exponent class c and digit count n, at row c * 17 + n - 1: class 0 is scientific
    notation (e < -4 or e >= 16), class e + 5 fixed-point notation.  A mask keeps the sign, the
    digits shown and, for class 0, the exponent; the fixed bytes add the "0.000" prefix of an
    e < 0 and the "."."""
    keep = np.zeros((21, 17, 48), np.uint8)
    fixed = np.zeros((21, 17, 48), np.uint8)
    keep[..., 0] = 255
    keep[0, :, 40:45] = 255
    for c in range(21):
        e = c - 5
        for n in range(1, 18):
            shown, dot = n, (0 if n > 1 else None)  # scientific: d[.ddd]e+XX
            if c and e < 0:  # 0.000ddd
                fixed[c, n - 1, 1:2 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
                dot = None
            elif c:  # ddd.ddd, at least one digit past the "."
                shown, dot = max(n, e + 2), e
            keep[c, n - 1, 6:6 + 2 * shown:2] = 255
            if dot is not None:
                fixed[c, n - 1, 7 + 2 * dot] = ord(".")
    keep.flags.writeable = fixed.flags.writeable = False
    return keep.view(np.uint64).reshape(-1, 6), fixed.view(np.uint64).reshape(-1, 6)


def _json_python(values: list) -> bytes:
    """json's text of each value, the repr of a finite float, padded with spaces to 48 bytes."""
    return (b"%-48s" * len(values)) % tuple(json.dumps(values)[1:-1].encode().split(b", "))


_INT = _Format(24, _fill_ints, lambda values: (b"%-24d" * len(values)) % tuple(values))
_CSV = _Format(24, _fill_scientific, lambda values: (b"%-24.16e" * len(values)) % tuple(values))
_JSON = _Format(48, _fill_shortest, _json_python)
WRITERS = {"csv": _render_csv, "json": _render_json}  # the artifact formats, by name
