"""Channel geometry, field storage, and quadrature-based norms.

The channel is [-L, L] x T^(n-1) with the transverse torus of unit length
and unit total measure.  Quadrature is trapezoidal in x1 (half-weights at
the ends) and the uniform periodic rule in the transverse directions,
whose weights sum to exactly 1.

Text files of floats (snapshots and profile.txt) hold the bytes
``np.savetxt(..., fmt="%.17e")`` writes, formatted in numpy by
`format_e17`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadExponentError

# smallest normal double: a sum of |f|^p below it has lost its precision
_TINY = np.finfo(float).tiny
# The dimensions n of a channel, and its fewest points along x1 and per torus axis
DIMENSIONS = (1, 2, 3)
MIN_N1 = 16
MIN_NPRIME = 4


@dataclass(frozen=True)
class ChannelGrid:
    """Discrete channel: n in 1..3, x1 in [-L, L], unit transverse torus."""

    dimension: int
    half_length: float
    n1: int
    nprime: int = 1

    def __post_init__(self):
        if self.dimension not in DIMENSIONS:
            raise ValueError(f"dimension must be one of {DIMENSIONS}, got {self.dimension}")
        if self.half_length <= 0.0:
            raise ValueError("half_length must be positive")
        if self.n1 < MIN_N1:
            raise ValueError(f"need at least {MIN_N1} longitudinal points")
        if self.dimension >= 2 and self.nprime < MIN_NPRIME:
            raise ValueError(f"need at least {MIN_NPRIME} transverse points")

    @property
    def h1(self) -> float:
        return 2.0 * self.half_length / (self.n1 - 1)

    @property
    def hprime(self) -> float:
        return 1.0 / self.nprime

    @cached_property
    def x1(self) -> np.ndarray:
        return np.linspace(-self.half_length, self.half_length, self.n1)

    @cached_property
    def xprime(self) -> np.ndarray:
        return np.arange(self.nprime) * self.hprime

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n1,) + (self.nprime,) * (self.dimension - 1)

    @property
    def column(self) -> tuple[int, ...]:
        """The shape (n1, 1, ...) of an x1 column that broadcasts against a field."""
        return (self.n1,) + (1,) * (self.dimension - 1)

    @cached_property
    def w1(self) -> np.ndarray:
        """Trapezoid weights along x1; sums to 2 L."""
        w = np.full(self.n1, self.h1)
        w[0] = w[-1] = 0.5 * self.h1
        return w

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights as an (n1, 1, ...) column (w1 in 1-d) that
        broadcasts against a field: w1 times 1/N' per transverse axis.

        Transverse weights are 1/N' each, so a transverse slice carries
        unit measure and the total measure is 2 L.  Each entry is the
        product a full-size array would hold, so weighted sums keep their bits.
        """
        w = self.w1
        for _ in range(self.dimension - 1):
            w = w[..., None] * self.hprime
        return w


@dataclass
class Field:
    """Solution values on a channel grid at one instant.

    x1 is the shock-attached coordinate xi = x1 - s t.
    """

    grid: ChannelGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


def _weights(arr: np.ndarray, grid: ChannelGrid) -> np.ndarray:
    """Quadrature weights for a grid-shaped array or an x1 slice."""
    if arr.shape == grid.shape:
        return grid.weights
    if arr.shape == (grid.n1,):
        return grid.w1
    raise ValueError(f"array shape {arr.shape} fits neither the grid nor an x1 slice")


def lp_norm(arr: np.ndarray, p, grid: ChannelGrid) -> float:
    """L^p norm by trapezoid-in-x1, uniform-in-x' quadrature; p=inf is max|.|.

    ``arr`` is grid-shaped or a 1-d x1 slice.  The sum of |arr|^p is taken
    directly; only when it underflows to zero or a subnormal, or overflows,
    while max|arr| is positive and finite, is the norm recomputed as
    max|arr| times the norm of arr / max|arr|.
    """
    if not p >= 1.0:
        raise BadExponentError(f"need p >= 1, got {p}")
    w = _weights(arr, grid)
    mag = np.abs(arr)
    if np.isinf(p):
        return float(np.max(mag))
    with np.errstate(over="ignore"):
        total = np.sum(w * mag ** p)
    if not _TINY <= total < np.inf:
        peak = np.max(mag)
        if 0.0 < peak < np.inf:
            return float(peak * np.sum(w * (mag / peak) ** p) ** (1.0 / p))
    return float(total ** (1.0 / p))


def integrate(arr: np.ndarray, grid: ChannelGrid) -> float:
    """Signed full-domain quadrature with the same weights as lp_norm."""
    return float(np.sum(_weights(arr, grid) * arr))


def gradient(arr: np.ndarray, grid: ChannelGrid) -> list[np.ndarray]:
    """Central-difference gradient components, one array per axis of ``arr``.

    One-sided differences at the x1 boundaries, periodic wrap transversally.
    """
    out = []
    d1 = np.empty_like(arr)
    d1[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * grid.h1)
    d1[0] = (arr[1] - arr[0]) / grid.h1
    d1[-1] = (arr[-1] - arr[-2]) / grid.h1
    out.append(d1)
    for axis in range(1, arr.ndim):
        out.append((np.roll(arr, -1, axis) - np.roll(arr, 1, axis)) / (2.0 * grid.hprime))
    return out


# "%.17e" writes the 18 significant digits D of |x| = D 10^(E-17), correctly
# rounded.  `format_e17` reads D off y = |x| 10^(17-E), formed as a
# double-double: 10^k = _P10_HI + _P10_LO from exact integers, times |x| by
# Dekker's error-free TwoProduct on Veltkamp's split (Numer. Math. 18, 1971).
# y's error stays below 1e-13, so D is exact unless y lies within
# _E17_TIE_BAND of a half.  Those values, ties among them, values outside
# (_E17_MIN, _E17_MAX), where the product could underflow or the table of
# 10^k run out, nan and inf go to Python's correctly rounded "%.17e"
# (Gay 1990).
_E17_MIN, _E17_MAX = 1e-280, 1e16
_E17_TIE_BAND = 1e-6
# Veltkamp's splitter 2^27 + 1: a double splits into two 26-bit halves
_SPLITTER = 134217729.0
# Values per `format_e17` call, which bound its temporaries (~120 bytes a
# value) on long arrays such as profile.txt.  2^14 split a nonzero-3d field
# (512 x 64) in two and cost that run ~0.2 s: with smaller temporaries
# glibc's mmap threshold stays low, and the step's arrays fault in again on
# every step.
_E17_BLOCK = 1 << 15


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10_double_double(kmax: int):
    exact = [10 ** k for k in range(kmax + 1)]
    hi = np.array([float(p) for p in exact])
    return hi, np.array([float(p - int(h)) for p, h in zip(exact, hi)])


def _words(texts, width: int) -> np.ndarray:
    """Byte strings, zero-padded to ``width``, as rows of little-endian words."""
    joined = b"".join(text.ljust(width, b"\0") for text in texts)
    return np.frombuffer(joined, np.uint8).reshape(-1, width).view("<u4")


def _digit_words(count: int) -> np.ndarray:
    """The four ASCII digits of 0 .. count - 1, as one word each."""
    i = np.arange(count)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    return (digits + ord("0")).astype(np.uint8).view("<u4")[:, 0]


def _exponent_text(e: int) -> bytes:
    """'e', the sign, the digits of |e| (a 0 byte for a missing hundreds
    digit) and the delimiter ' '."""
    text = b"e%+04d " % e
    return text if abs(e) >= 100 else text[:2] + b"\0" + text[3:]


# 10^k = _P10_HI + _P10_LO for k <= 300, and _P10_HI split for TwoProduct
_P10_HI, _P10_LO = _pow10_double_double(300)
_P10_HH, _P10_HL = _split(_P10_HI)
# One value takes 7 words, 28 bytes: the sign, the leading digit, '.' and
# one digit; 16 digits; the exponent; the delimiter at byte 25.  Zero bytes
# pad (a plus sign, a missing hundreds digit, bytes 26 and 27) and are dropped.
_E17_WORDS = 7
_LEAD = _words([sign + b"%d.%d" % divmod(i, 10) for sign in (b"\0", b"-")
                for i in range(100)], 4)[:, 0]
_QUADS = _digit_words(10000)
_EMAX = 300
_EXPONENTS = _words([_exponent_text(e) for e in range(-_EMAX, _EMAX + 1)], 8)


def _times_pow10(ax, ah, al, k):
    """ax 10^k as a normalised double-double (hi, lo); (ah, al) = _split(ax)."""
    p = ax * _P10_HI.take(k)
    hh, hl = _P10_HH.take(k), _P10_HL.take(k)
    lo = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + ax * _P10_LO.take(k)
    hi = p + lo
    return hi, lo - (hi - p)


def _decade_shift(hi, lo):
    """+1 where hi + lo >= 1e18, -1 where it is < 1e17, else 0."""
    return (((hi > 1e18) | ((hi == 1e18) & (lo >= 0.0))).astype(np.intp)
            - ((hi < 1e17) | ((hi == 1e17) & (lo < 0.0))))


def _decimal(x: np.ndarray):
    """(D, E, exact) of each value of a 1-d ``x``: |x| = D 10^(E-17) to the
    nearest of 18 significant digits, where ``exact``; 0 and 0 for zeros.

    D is the rounded y = |x| 10^(17-E), y the double-double hi + lo in
    [1e17, 1e18), hi an integer, after a first guess E = floor(log10 |x|)
    and at most one re-scale.
    """
    ax = np.abs(x)
    exact = (ax > _E17_MIN) & (ax < _E17_MAX)
    ax = np.where(exact, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.intp)
    ah, al = _split(ax)
    hi, lo = _times_pow10(ax, ah, al, 17 - e)
    shift = _decade_shift(hi, lo)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        hi[moved], lo[moved] = _times_pow10(ax[moved], ah[moved], al[moved], 17 - e[moved])
        exact[moved[_decade_shift(hi[moved], lo[moved]) != 0]] = False
    floor = np.floor(lo)
    frac = lo - floor
    exact &= np.abs(frac - 0.5) > _E17_TIE_BAND
    # no D rounds up to 10^18: y would lie within 1/2 of 10^18, |x| within
    # 5e-19 of a power of ten, and the only such double, 1e153, is out of range
    digits = hi.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    zero = x == 0.0
    digits[zero] = 0
    e[zero] = 0
    return digits, e, exact | zero


def format_e17(values: np.ndarray) -> bytes:
    """The rows of a 2-d array as ``np.savetxt(..., fmt="%.17e")`` writes them:
    values joined by ' ', each row ended by '\n', and no header.

    Every value reads as Python's "%.17e" of it.  The digits come from
    `_decimal` and the text from lookup tables; the few values `_decimal`
    cannot prove exact (see _E17_TIE_BAND) are formatted by Python.
    """
    values = np.asarray(values, dtype=float)
    x = values.ravel()
    digits, e, exact = _decimal(x)
    words = np.empty((x.size, _E17_WORDS), "<u4")
    # each integer temporary goes as soon as it is used: on a nonzero-3d
    # field (512 x 64) the call's peak above RSS fell from 5.5 to 3.3 MB
    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    del digits
    words[:, 0] = _LEAD.take(lead + 100 * np.signbit(x))
    del lead
    eights = np.empty((2, x.size), np.intp)
    eights[0] = rest // 10 ** 8
    eights[1] = rest - eights[0] * 10 ** 8
    del rest
    quads = np.empty((2, 2, x.size), np.intp)
    quads[:, 0] = eights // 10 ** 4
    quads[:, 1] = eights - quads[:, 0] * 10 ** 4
    del eights
    words[:, 1:5] = _QUADS.take(quads.reshape(4, -1)).T
    del quads
    words[:, 5:] = _EXPONENTS.take(e + _EMAX, axis=0)
    del e
    text = words.view(np.uint8)
    text[values.shape[1] - 1::values.shape[1], 25] = ord("\n")
    slow = np.flatnonzero(~exact)
    if slow.size:
        python = np.array(["%.17e" % v for v in x[slow].tolist()], dtype="S25")
        text[slow, :25] = python.view(np.uint8).reshape(-1, 25)
    return text[text != 0].tobytes()


def save_text_e17(path, values: np.ndarray, header: str) -> None:
    """``np.savetxt(path, values, fmt="%.17e", header=header)`` for a 2-d
    ``values`` and a one-line header, formatted by `format_e17`."""
    rows = max(1, _E17_BLOCK // values.shape[1])
    with open(path, "wb") as fh:
        fh.write(f"# {header}\n".encode())
        for start in range(0, len(values), rows):
            fh.write(format_e17(values[start:start + rows]))


def save_field_text(fld: Field, path) -> None:
    """Text snapshot: one header line, then the x1-by-x' matrix.

    The bytes are those of ``np.savetxt(path, matrix, fmt="%.17e",
    header=header)``; `format_e17` formats them in numpy, and hands the
    values it cannot prove exact to Python's own "%.17e".
    """
    g = fld.grid
    header = (f"shocklab-field n={g.dimension} N1={g.n1} Nprime={g.nprime} "
              f"L={float(g.half_length)!r} t={float(fld.time)!r}")
    save_text_e17(path, fld.values.reshape(g.n1, -1), header)


def load_field_text(path) -> Field:
    with open(path) as fh:
        header = fh.readline().lstrip("# ").split()
    meta = dict(item.split("=", 1) for item in header[1:])
    grid = ChannelGrid(dimension=int(meta["n"]), half_length=float(meta["L"]),
                       n1=int(meta["N1"]), nprime=int(meta["Nprime"]))
    values = np.loadtxt(path).reshape(grid.shape)
    return Field(grid=grid, values=values, time=float(meta["t"]))
