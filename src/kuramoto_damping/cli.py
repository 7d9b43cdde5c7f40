"""Config-driven experiment runner.

Usage: kuramoto-damping <experiment> --config path.json [--out dir]

Experiments: stability | kc-scan | linear | witness | nonlinear | finite-n |
compare.  Every experiment reads a strict JSON config (unknown keys are
rejected), writes deterministically named CSV/JSON artifacts into the output
directory, and drops a config.json sidecar carrying the resolved config and a
format-version field.  Time series go to CSV (floats printed with 17
significant digits so reruns are byte-identical), reports to JSON.

The plain command line (options before or after the experiment, as ``--opt
value`` or ``--opt=value``, the last of a repeated option winning) is read
without importing argparse, whose gettext and locale imports cost about 2 ms a
call; argparse parses every other one (a prefix such as ``--conf``, ``--``,
``-h``, a usage error).  ``-h`` prints the help and exits 0; a usage error
prints the usage and exits 2.

Exit codes: 0 success, 2 usage or config/validation error (no artifacts; a
``--config`` that cannot be read or an ``--out`` that cannot be made a
directory is a config error), 3 numeric failure or an array too large for
memory (diagnostic error.json written when possible).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import dispersion, finiten, spectral, volterra
from .distributions import (
    bi_cauchy,
    build_grid,
    distribution_from_config,
    finite_number,
    require_keys,
)
from .exceptions import BlowupDetected, ConfigError, KuramotoDampingError

FORMAT_VERSION = 1

EXPERIMENTS = ("stability", "kc-scan", "linear", "witness", "nonlinear", "finite-n", "compare")


# ---------------------------------------------------------------------------
# config validation


def _integer(obj, key, context, default=None, minimum=1, maximum=None):
    val = obj.get(key, default)
    valid = isinstance(val, int) and not isinstance(val, bool) and val >= minimum
    if not valid or (maximum is not None and val > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ConfigError(f"{context}: {key} must be an integer {bound}, got {val!r}")
    return val


def _positive(obj, key, context):
    raw = obj[key]
    val = finite_number(raw)
    if val is None or val <= 0:
        raise ConfigError(f"{context}: {key} must be a positive finite number, got {raw!r}")
    return val


def _number(obj, key, context, default):
    """An optional number; a JSON boolean is rejected, not read as 0 or 1."""
    raw = obj.get(key, default)
    val = finite_number(raw)
    if val is None:
        raise ConfigError(f"{context}: {key} must be a finite number, got {raw!r}")
    return val


def _numbers(values, context):
    """The entries of a JSON list, each read by ``_number``."""
    return [_number({"value": v}, "value", f"{context}[{i}]", None) for i, v in enumerate(values)]


def _path(obj, key, context):
    """A required path, which JSON can only give as a string."""
    raw = obj.get(key)
    if not isinstance(raw, str):
        raise ConfigError(f"{context}: {key} must be a path string, got {raw!r}")
    return Path(raw)


def _nonnegative(obj, key, context):
    raw = obj[key]
    val = finite_number(raw)
    if val is None or val < 0:
        raise ConfigError(f"{context}: {key} must be a nonnegative finite number, got {raw!r}")
    return val


@contextlib.contextmanager
def _constructing(context):
    """Report a ValueError, TypeError or OverflowError from building a problem as a config error."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _distribution(obj, context):
    try:
        return distribution_from_config(obj)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(f"{context}: bad distribution spec: {exc}") from exc


def _mode_profile(spec, context):
    """One initial-perturbation mode from its JSON description: (k, h_k, source).

    h_k(omega) is the profile; source(dist, t) is its continuum transform
    int g(omega) h_k(omega) exp(-i omega t) domega on the density g = dist.
    """
    require_keys(spec, {"mode", "kind"}, {"value", "amplitude", "width", "center"}, context)
    kind = spec["kind"]
    mode = _integer(spec, "mode", context)
    if kind == "constant":
        raw = spec.get("value", 1.0)
        parts = raw if isinstance(raw, list) and len(raw) == 2 else [raw, 0.0]
        value = complex(*_numbers(parts, f"{context}.value"))
        return (
            mode,
            lambda w: np.full(np.shape(w), value, dtype=complex),
            lambda dist, t: value * dist.fourier_transform(t),
        )
    if kind == "gaussian":
        amp = _number(spec, "amplitude", context, 1.0)
        width = _positive(spec, "width", context) if "width" in spec else 1.0
        center = _number(spec, "center", context, 0.0)
        return (
            mode,
            lambda w: amp * np.exp(-0.5 * ((np.asarray(w) - center) / width) ** 2) + 0j,
            lambda dist, t: dist.gaussian_profile_source(t, amp, width, center),
        )
    raise ConfigError(f"{context}: unknown mode kind {kind!r}")


def _perturbation_modes(obj, context):
    require_keys(obj, {"modes"}, set(), context)
    if not isinstance(obj["modes"], list) or not obj["modes"]:
        raise ConfigError(f"{context}: modes must be a non-empty list")
    modes = {}
    for i, spec in enumerate(obj["modes"]):
        mode, profile, _ = _mode_profile(spec, f"{context}.modes[{i}]")
        if mode in modes:
            raise ConfigError(f"{context}: duplicate mode {mode}")
        modes[mode] = profile
    return modes


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(x):
    return f"{x:.17g}"


_CSV_CHUNK = 4096  # rows per chunk: bounds the memory one chunk takes
# Below this many rows floats are formatted one at a time: ``_FloatText`` costs about
# 90 array calls per column whatever its length, and a process's first write builds
# its tables.  A 5-column write breaks even near 150 rows in a warm process and
# near 300 rows on a process's first write.
_SMALL_CSV_ROWS = 256

# A float field is laid out in a slot of four uint64 words (32 bytes):
# "-0.000", the first digit and '.', the other 16 digits, then "e+XXX" and the
# separator.  In fixed notation with 1 <= E <= 15 the 16 digits move one byte
# up after the E-th to let the '.' in, and the last one takes the place of the
# 'e'.  A mask chosen by the field's layout code zeroes every byte %.17g would
# not print, and the zero bytes are deleted from the whole chunk at once.
_SLOT = 4
_SEP_BYTE = 29  # byte of a slot that holds the separator
_FAST = 250  # |x| in [1e-250, 1e250): 10^(16-E) and the products stay normal doubles
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_NEAR_TIE = 1e-6  # scaled values this close to a half go through Python's correctly rounded %
_TEXT = 23  # layout class of a slot that holds a string of up to 24 bytes


@functools.cache
def _float_tables():
    """The tables of ``_FloatText``, built on the first float write."""
    return _FloatTables()


class _FloatTables:
    """Digit, exponent and mask tables of ``_FloatText``, and the powers of ten.

    One instance serves every writer; ``powers`` only gains columns, each the
    same constant whoever fills it.
    """

    def __init__(self):
        # the 4 digits of a group, little-endian, and the same 4 bytes up
        two = np.arange(100)
        pair = (two // 10 + 48 | (two % 10 + 48) << 8).astype(np.uint64)
        self.quads = (pair[:, None] | pair << np.uint64(16)).ravel()
        self.quads_up = self.quads << np.uint64(32)
        lead = [int.from_bytes(b"-0.000%c." % (48 + d), "little") for d in range(10)]
        self.lead = np.array(lead, dtype=np.uint64)
        # 2 (1 + position of the last nonzero digit after the first), per group
        # k = 0..3 at 10000 k + group, or 2 if the group is 0
        end = np.where(two % 10 > 0, 2, np.sign(two)).astype(np.int8)  # last nonzero of 2 digits
        last = np.where(end > 0, 2 + end, end[:, None]).ravel()
        offset = np.arange(2, 34, 8, dtype=np.int8)[:, None]
        self.last = np.where(last > 0, 2 * last + offset, 2).ravel()
        # "e+XXX" for E = -400..400; a 2-digit exponent's mask drops the X of hundreds
        e = np.arange(-400, 401)
        mag = np.abs(e)
        sign = np.where(e < 0, ord("-"), ord("+"))
        chars = [ord("e"), sign, mag // 100 + 48, mag // 10 % 10 + 48, mag % 10 + 48]
        self.exponent = sum(c << 8 * i for i, c in enumerate(chars)).astype(np.uint64)
        self.layout = 36 * np.where((e >= -4) & (e < 17), e + 4, np.where(mag < 100, 21, 22))
        self.keep, self.keep_shifted, self.dots = _slot_masks()
        # hi, hi_h, hi_l, lo of 10^(16-E) for E = -400..400: hi + lo is 10^(16-E) to
        # about 2^-106, hi = hi_h + hi_l split in halves; filled as exponents appear
        self.powers = np.empty((4, 801))
        self.filled = set()

    def power(self, e):
        """Fill the column of 10^(16-E) in ``powers``."""
        s = 16 - e
        if s >= 0:
            hi = float(10**s)
            lo = float(10**s - int(hi))
        else:
            hi = 1 / 10**-s  # int true division rounds correctly
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10**-s) / (den * 10**-s)
        split = hi * _SPLIT
        hi_h = split - (split - hi)
        self.powers[:, e + 400] = hi, hi_h, hi - hi_h, lo
        self.filled.add(e)

    def scaled(self, a, e):
        """floor(a 10^(16-E)) as int64 and the fraction left over, for a 10^(16-E) < 2^63."""
        for k in set(range(int(e.min()), int(e.max()) + 1)) - self.filled:
            self.power(k)
        column = e + 400
        hi, hi_h, hi_l, lo = (row.take(column) for row in self.powers)
        prod = a * hi
        a_h = a * _SPLIT
        work = a_h - a
        a_h -= work
        a_l = a - a_h
        # a hi = prod + rest exactly (Dekker's two-product); a lo is the tail
        rest = a_h * hi_h
        rest -= prod
        for u, v in ((a_h, hi_l), (a_l, hi_h), (a_l, hi_l), (a, lo)):
            rest += np.multiply(u, v, out=work)
        floor = np.floor(rest, out=work)
        rest -= floor
        q = prod.astype(np.int64)
        q += floor.astype(np.int64)
        return q, rest


class _FloatText:
    """Lays out doubles exactly as ``'%.17g' % v``; one serves one csv.

    A nonzero x with 1e-250 <= |x| < 1e250 is scaled to y = |x| 10^(16-E),
    E = floor(log10|x|), by a double-double product (Dekker, Numer. Math. 18,
    224, 1971) with 10^s held as hi + lo to about 2^-106, so the digits of
    round(y) are its 17 significant digits.  Values whose y lies within 1e-6
    of a half, and every value out of that range or not finite, are formatted
    by Python's correctly rounded % instead.
    """

    def __init__(self, size):
        self.tables = _float_tables()
        # work arrays for up to ``size`` values, reused by every call
        self.groups = np.empty((5, size), dtype=np.uint64)
        self.index = np.empty((4, size), dtype=np.int64)
        self.slots = np.empty((_SLOT, size), dtype=np.uint64)
        self.shifted = np.empty((_SLOT, size), dtype=np.uint64)
        self.work = np.empty(size, dtype=np.uint64)

    def words(self, x, sep):
        """Slot words of the doubles x, word k in row k, each with the separator ``sep``.

        Returns a view of a work array, shape (4, x.size), valid until the next call.
        """
        t = self.tables
        a = np.abs(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            e = np.log10(a)
        np.floor(e, out=e)
        other = ~((e >= -_FAST) & (e < _FAST))  # zero, out of range or not finite
        a[other] = 1.0
        e[other] = 0.0
        e = e.astype(np.int64)
        q, frac = t.scaled(a, e)
        # log10 can miss by one next to a power of ten: E is right when 10^16 <= y < 10^17
        redo = np.flatnonzero((q - 10**16).view(np.uint64) >= 9 * 10**16)
        if redo.size:
            e[redo] += (q[redo] >= 10**17).astype(np.int64) - (q[redo] < 10**16)
            q[redo], frac[redo] = t.scaled(a[redo], e[redo])
            other[redo] |= (q[redo] < 10**16) | (q[redo] >= 10**17)
        slow = np.abs(frac - 0.5) < _NEAR_TIE
        slow |= other
        slow &= x != 0
        q += frac >= 0.5
        q[other] = 0  # zeros print as the digit 0
        carry = np.flatnonzero(q == 10**17)  # a double just below 10^(E+1) prints as it
        q[carry] = 10**16
        e[carry] += 1

        size = x.size
        # the first digit, then four groups of 4
        rest = q.view(np.uint64)
        groups = self.groups[:, :size]
        for k, scale in enumerate((10**16, 10**12, 10**8, 10**4)):
            np.floor_divide(rest, scale, out=groups[k])
            rest -= np.multiply(groups[k], scale, out=groups[k + 1])
        groups[4] = rest
        groups = groups.view(np.int64)
        index = self.index[:, :size]
        np.add(groups[1:], np.arange(0, 40000, 10000)[:, None], out=index)
        last = t.last.take(index, mode="clip")
        e += 400
        code = t.layout.take(e)
        code += np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3]))
        code += np.signbit(x)

        words = self.slots[:, :size]
        work = self.work[:size]
        words[0] = t.lead.take(groups[0])  # raises, were the first digit 10
        t.quads.take(groups[1], out=words[1], mode="clip")
        words[1] |= t.quads_up.take(groups[2], out=work, mode="clip")
        t.quads.take(groups[3], out=words[2], mode="clip")
        words[2] |= t.quads_up.take(groups[4], out=work, mode="clip")
        t.exponent.take(e, out=words[3], mode="clip")
        words[3] |= sep
        for i in np.flatnonzero(slow).tolist():
            text = _fmt(float(x[i])).encode().ljust(24, b"\0")
            words[:3, i] = np.frombuffer(text, dtype=np.uint64)
            code[i] = 36 * _TEXT
        # with 1 <= E <= 15 the digits after the E-th come from a copy one byte up
        e -= 401
        if (e.view(np.uint64) < 15).any():
            shifted = self.shifted[:, :size]
            np.left_shift(words[1:3], np.uint64(8), out=shifted[1:3])
            np.right_shift(words[1:3], np.uint64(56), out=shifted[2:4])
            shifted[2] |= np.left_shift(words[2], np.uint64(8), out=work)
            for k in (1, 2, 3):
                words[k] &= t.keep[k].take(code, out=work, mode="clip")
                shifted[k] &= t.keep_shifted[k].take(code, out=work, mode="clip")
                shifted[k] |= t.dots[k].take(code, out=work, mode="clip")
                words[k] |= shifted[k]
            words[0] &= t.keep[0].take(code, out=work, mode="clip")
        else:
            for word, keep in zip(words, t.keep):
                word &= keep.take(code, out=work, mode="clip")
        return words


def _slot_masks():
    """Byte masks of a float slot and of its copy one byte up, and the '.' of that copy.

    Each has shape (4, codes): word k of every layout code in row k, 0xff or
    0x00 per byte for the masks.  Code = 36 class + 2 digits + sign, where the
    class is E + 4 for fixed notation, 21 or 22 for an exponent of 2 or 3
    digits and 23 for a string; digits counts the significant ones.
    """
    cls, digits, b = np.ix_(np.arange(24), np.arange(18), np.arange(8 * _SLOT))
    e = cls - 4
    fixed = cls < 21
    expo = (cls == 21) | (cls == 22)
    number = cls < _TEXT
    inner = fixed & (e >= 1) & (e <= 15)  # the '.' sits among the 16 digits, at byte 8 + E
    fraction = inner & (digits > e + 1)  # and digits follow it
    keep = np.zeros((24, 18, 8 * _SLOT), dtype=bool)
    keep |= (b == _SEP_BYTE) | ((cls == _TEXT) & (b < 24))
    keep |= fixed & (e < 0) & (b > 0) & (b < 2 - e)  # "0." and the zeros after it
    keep |= number & (b == 6)  # the first digit
    keep |= ((fixed & (e == 0)) | expo) & (b == 7) & (digits > 1)  # '.' after it
    # digits 2..n from byte 8 on, in fixed notation all those before the '.' too;
    # with the '.' among them, those after it come from the copy one byte up
    end = 7 + np.where(fixed, np.maximum(digits, e + 1), digits)
    keep |= number & (b >= 8) & (b < np.where(inner, 8 + e, end))
    keep |= expo & (b >= 24) & (b < 29) & ((b != 26) | (cls == 22))  # "e+XX(X)"
    shifted = fraction & (b > 8 + e) & (b < 8 + digits)
    dot = fraction & (b == 8 + e)
    masks = [
        (np.stack([keep, keep | (number & (b == 0))], axis=2), 255),  # without and with a '-'
        (np.stack([shifted] * 2, axis=2), 255),
        (np.stack([dot] * 2, axis=2), 46),
    ]
    return [
        (mask.view(np.uint8) * np.uint8(byte)).reshape(-1, 8 * _SLOT).view(np.uint64).T.copy()
        for mask, byte in masks
    ]


def _csv_chunk(columns, seps, floats, buf):
    """Lay out some rows, each column's fields with their separators, in ``buf``.

    Returns ``buf``, or a new bytearray when the rows need another size.
    Bytes that are not printed are zero.
    """
    rows = len(columns[0])
    widths, texts = [], {}
    for j, col in enumerate(columns):
        if col.dtype.kind == "f":
            if floats is not None:
                widths.append(_SLOT)
                continue
            col = col.astype(float, copy=False)
        # every other column, and the floats of a small csv, as text holding no NUL byte
        fmt = _fmt if col.dtype.kind == "f" else str
        fields = [f"{fmt(v)}{seps[j]}".encode() for v in col.tolist()]
        width = -(-max(map(len, fields)) // 8)
        texts[j] = np.array(fields, dtype=f"S{8 * width}").view(np.uint64).reshape(rows, width)
        widths.append(width)
    at = np.cumsum([0] + widths).tolist()
    if len(buf) != 8 * rows * at[-1]:
        buf = bytearray(8 * rows * at[-1])
    words = np.frombuffer(buf, dtype=np.uint64).reshape(rows, at[-1])
    for j, col in enumerate(columns):
        if j in texts:
            words[:, at[j] : at[j + 1]] = texts[j]
        else:
            sep = np.uint64(ord(seps[j]) << 8 * (_SEP_BYTE - 24))
            words[:, at[j] : at[j + 1]] = floats.words(col.astype(float, copy=False), sep).T
    return buf


def _write_csv(path, header, columns, rows=None):
    """One row per entry, written a chunk of ``_CSV_CHUNK`` rows at a time.

    ``columns`` is a list of columns, or a function of (lo, hi) that returns
    rows lo to hi of every column for a csv of ``rows`` rows, so that columns
    derived from others are built one chunk at a time.  Float columns print
    exactly as ``'%.17g' % v``, every other column as ``str``.  Floats of a
    csv with at least ``_SMALL_CSV_ROWS`` rows are laid out by ``_FloatText``
    with array operations; only near-ties, non-finite values and |x| outside
    [1e-250, 1e250) go through Python's % one value at a time.  A smaller csv
    formats every float with %.
    """
    if callable(columns):
        block = columns
    else:
        columns = [np.asarray(column) for column in columns]
        rows = min(map(len, columns), default=0)
        block = lambda lo, hi: [col[lo:hi] for col in columns]
    seps = [","] * (len(header) - 1) + ["\n"]
    floats = None
    buf = bytearray()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, rows, _CSV_CHUNK):
            chunk = [np.asarray(col) for col in block(lo, min(lo + _CSV_CHUNK, rows))]
            if lo == 0 and rows >= _SMALL_CSV_ROWS and any(col.dtype.kind == "f" for col in chunk):
                floats = _FloatText(len(chunk[0]))
            buf = _csv_chunk(chunk, seps, floats, buf)
            fh.write(buf.translate(None, b"\0"))


# np.genfromtxt(names=True) drops these from a header name
_NAME_DROPS = str.maketrans("", "", "~!@#$%^&*()-=+\\|]}[{';:/?.>,<")
_DATA_LINE = re.compile(r"[ \t]*[^#\s]")


def _read_csv(path, names, context):
    """The named columns of a csv file as one float array, in the order of ``names``.

    The header is the first non-blank line, with or without a leading '#'.
    Its names are matched after trimming spaces, turning inner spaces into
    '_' and dropping punctuation, so "Re(F)" is "ReF", as in
    ``np.genfromtxt(names=True)``.  Columns may come in any order and extra
    columns are ignored, but every row needs one field per header name.
    Blank lines and '#' comments in the body are skipped.  A file that is not
    text, a missing name, a body without rows, or a field that is empty,
    short or not a number is a ConfigError.
    """
    try:
        with open(path) as fh:
            # readline, not iteration, so that tell() can mark where the body starts
            lines = iter(fh.readline, "")
            header = next((line for line in lines if line.strip()), "")
            body = fh.tell()
            has_rows = any(map(_DATA_LINE.match, lines))
            fields = header.lstrip().removeprefix("#").split(",")
            found = [field.strip().replace(" ", "_").translate(_NAME_DROPS) for field in fields]
            missing = [name for name in names if name not in found]
            if missing:
                raise ConfigError(
                    f"{context}: csv {path} has no column {missing[0]!r} (header {found})"
                )
            if not has_rows:  # loadtxt would only warn
                raise ConfigError(f"{context}: csv {path} has no data rows")
            wanted = [found.index(name) for name in names]
            skip = {i: lambda field: 0.0 for i in range(len(found)) if i not in wanted}
            # loadtxt takes the body a line at a time from the file, never as one copy
            fh.seek(body)
            data = np.loadtxt(fh, delimiter=",", ndmin=2, converters=skip)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{context}: csv {path} is not text: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{context}: csv {path}: {exc}") from exc
    except OSError as exc:  # a directory, say
        raise ConfigError(f"{context}: csv {path} cannot be read: {exc.strerror}") from exc
    if data.shape[1] != len(found):
        raise ConfigError(
            f"{context}: csv {path} rows have {data.shape[1]} fields, its header {len(found)}"
        )
    return data if wanted == list(range(len(found))) else data[:, wanted]


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_sidecar(outdir, experiment, config):
    _write_json(
        outdir / "config.json",
        {"formatVersion": FORMAT_VERSION, "experiment": experiment, "config": config},
    )


def _order_parameter_columns(times, values, weight_order):
    """Rows lo to hi of t, Re R, Im R, |R| and (1+t)^n |R|, as a function of (lo, hi)."""

    def block(lo, hi):
        t, r = times[lo:hi], values[lo:hi]
        size = np.abs(r)
        return [t, r.real, r.imag, size, (1.0 + t) ** weight_order * size]

    return block


def _order_parameter_csv(path, times, values, weight_order):
    header = ["t", "Re(R)", "Im(R)", "abs(R)", f"(1+t)^{weight_order}*abs(R)"]
    _write_csv(path, header, _order_parameter_columns(times, values, weight_order), len(times))


# ---------------------------------------------------------------------------
# experiments


def run_stability(config, outdir):
    require_keys(config, {"distribution", "coupling"}, {"boundary_points"}, "stability")
    dist = _distribution(config["distribution"], "stability")
    coupling = _nonnegative(config, "coupling", "stability")
    points = _integer(config, "boundary_points", "stability", default=2001, maximum=10**6)
    report = dispersion.analyze_stability(dist, coupling, boundary_points=points)
    payload = {"formatVersion": FORMAT_VERSION, "config": config}
    payload.update(report.to_json_dict())
    _write_json(outdir / "stability_report.json", payload)
    return {"verdict": report.verdict}


def run_kc_scan(config, outdir):
    require_keys(config, {"parameter", "values"}, {"delta", "omega0"}, "kc-scan")
    parameter = config["parameter"]
    values = config["values"]
    if parameter not in ("omega0", "delta"):
        raise ConfigError(f"kc-scan: parameter must be 'omega0' or 'delta', got {parameter!r}")
    if not isinstance(values, list) or not values:
        raise ConfigError("kc-scan: values must be a non-empty list")

    values = _numbers(values, "kc-scan.values")
    delta = _number(config, "delta", "kc-scan", 1.0)
    omega0 = _number(config, "omega0", "kc-scan", 0.0)

    def family(value):
        if parameter == "omega0":
            return bi_cauchy(delta, value)
        return bi_cauchy(value, omega0)

    with _constructing("kc-scan"):
        kcs, crits = zip(*(dispersion.critical_coupling(family(v)) for v in values))

    _write_csv(
        outdir / "kc_scan.csv",
        ["param", "K_c", "critical_omegas"],
        [values, kcs, [";".join(_fmt(w) for w in crit) for crit in crits]],
    )
    return {"rows": len(values)}


def _linear_source(config, dist, context):
    spec = config["input"]
    require_keys(
        spec, {"type"}, {"exponent", "modulation", "profile", "path", "grid_nodes", "mass_threshold"},
        f"{context}.input",
    )
    kind = spec["type"]
    if kind == "poly_decay":
        exponent = _number(spec, "exponent", f"{context}.input", 4.0)
        modulation = spec.get("modulation", "none")
        if modulation not in ("none", "cos", "exp_i"):
            raise ConfigError(f"{context}: unknown modulation {modulation!r}")

        def source(t):
            t = np.asarray(t, dtype=float)
            base = (1.0 + t) ** -exponent
            if modulation == "cos":
                return base * np.cos(t) + 0j
            if modulation == "exp_i":
                return base * np.exp(1j * t)
            return base + 0j

        return source
    if kind == "mode":
        _, _, transform = _mode_profile({"mode": 1, **spec["profile"]}, f"{context}.input.profile")
        # F is the continuum transform, so the grid keys shape nothing; they are
        # still checked, with the limits a grid build puts on them
        nodes = _integer(spec, "grid_nodes", f"{context}.input", default=2048, minimum=8)
        threshold = _number(spec, "mass_threshold", f"{context}.input", 1.0 - 1e-8)
        if finite_number(nodes) is None:
            raise ConfigError(f"{context}.input: grid_nodes is too large for a float")
        if not 0.0 < threshold < 1.0:
            raise ConfigError(f"{context}.input: mass_threshold must lie in (0, 1), got {threshold}")
        return lambda t: transform(dist, t)
    if kind == "csv":
        path = _path(spec, "path", f"{context}.input")
        if not path.exists():
            raise ConfigError(f"{context}: input CSV {path} does not exist")
        data = _read_csv(path, ("t", "ReF", "ImF"), context)
        if not np.all(np.isfinite(data)):
            raise ConfigError(f"{context}: input CSV {path} holds a non-finite value")
        t_ref, re_ref, im_ref = data.T
        if np.any(np.diff(t_ref) <= 0):
            raise ConfigError(f"{context}: input CSV {path} needs strictly increasing t")
        # np.interp would hold F at its end values outside the csv's t range
        end = float(config["dt"]) * round(float(config["horizon"]) / float(config["dt"]))
        if t_ref[0] > 0 or t_ref[-1] < end:
            raise ConfigError(f"{context}: input CSV {path} must cover t in [0, {end}]")

        def source(t):
            t = np.asarray(t, dtype=float)
            return np.interp(t, t_ref, re_ref) + 1j * np.interp(t, t_ref, im_ref)

        # a real F is marched in real arrays
        return source if im_ref.any() else lambda t: np.interp(t, t_ref, re_ref)
    raise ConfigError(f"{context}: unknown input type {kind!r}")


def _fit_window(config, horizon):
    window = config.get("fit_window", [0.25 * horizon, 0.9 * horizon])
    pair = isinstance(window, list) and len(window) == 2
    bounds = [finite_number(v) for v in window] if pair else [None]
    if None in bounds or not bounds[0] < bounds[1]:
        raise ConfigError(f"linear: fit_window must be two numbers a < b, got {window!r}")
    return tuple(bounds)


def run_linear(config, outdir):
    require_keys(
        config,
        {"distribution", "coupling", "input", "dt", "horizon"},
        {"weight_order", "fit_window"},
        "linear",
    )
    dist = _distribution(config["distribution"], "linear")
    coupling = _nonnegative(config, "coupling", "linear")
    dt = _positive(config, "dt", "linear")
    horizon = _positive(config, "horizon", "linear")
    weight_order = _integer(config, "weight_order", "linear", default=4, minimum=0, maximum=1000)
    # R.csv's (1+t)^n column must stay finite up to the last time written,
    # which lies within dt/2 of the horizon.
    if weight_order * math.log1p(horizon + 0.5 * dt) > math.log(sys.float_info.max):
        raise ConfigError(
            f"linear: (1+t)^{weight_order} overflows a float before the last time written; "
            f"need weight_order * ln(1 + horizon + dt/2) <= ln(max float) = "
            f"{math.log(sys.float_info.max):.4f}"
        )
    window = _fit_window(config, horizon)
    with _constructing("linear"):
        source = _linear_source(config, dist, "linear")
        problem = volterra.VolterraProblem(
            volterra.kuramoto_kernel(dist, coupling), source, dt, horizon
        )
    solution = volterra.solve(problem)
    _order_parameter_csv(outdir / "R.csv", solution.times, solution.values, weight_order)

    noisy = False
    try:
        fit = volterra.fit_decay(solution, window=window)
    except KuramotoDampingError as exc:
        fit = getattr(exc, "fit", None)
        noisy = True
    payload = {
        "formatVersion": FORMAT_VERSION,
        "config": config,
        "windowTooNoisy": noisy,
        "fit": None
        if fit is None
        else {
            "exponent": fit.exponent,
            "amplitude": fit.amplitude,
            "window": list(fit.window),
            "residual": fit.residual,
        },
    }
    _write_json(outdir / "decay_fit.json", payload)
    return {"noisy": noisy}


def run_witness(config, outdir):
    require_keys(
        config, {"distribution", "coupling", "dt", "horizon"}, {"amplitude"}, "witness"
    )
    dist = _distribution(config["distribution"], "witness")
    coupling = _nonnegative(config, "coupling", "witness")
    dt = _positive(config, "dt", "witness")
    horizon = _positive(config, "horizon", "witness")
    with _constructing("witness"):
        amplitude = _number(config, "amplitude", "witness", 1.0)
        source, rate = volterra.instability_witness(dist, coupling, amplitude)
        problem = volterra.VolterraProblem(
            volterra.kuramoto_kernel(dist, coupling), source, dt, horizon
        )
    # the source grows like |A| e^{rate t} up to the last time, within dt/2 of
    # the horizon; past ln(max float) it overflows before it can be checked
    growth = math.log(abs(amplitude)) + rate * (horizon + 0.5 * dt)
    if growth > math.log(sys.float_info.max):
        raise BlowupDetected(
            f"witness: ln|A| + rate * (horizon + dt/2) = {growth:.4g} exceeds "
            f"ln(max float) = {math.log(sys.float_info.max):.4f}"
        )
    solution = volterra.solve(problem)
    _write_csv(
        outdir / "witness_F.csv",
        ["t", "Re(F)", "Im(F)"],
        [solution.times, solution.source.real, solution.source.imag],
    )
    _order_parameter_csv(outdir / "R.csv", solution.times, solution.values, 0)

    predicted = np.abs(amplitude) * np.exp(rate * solution.times)
    deviation = float(np.max(np.abs(np.abs(solution.values) / predicted - 1.0)))
    payload = {
        "formatVersion": FORMAT_VERSION,
        "config": config,
        "predictedRate": rate,
        "maxRelativeDeviation": deviation,
        "verdict": "GrowthConfirmed" if deviation <= 0.02 else "GrowthMismatch",
    }
    _write_json(outdir / "witness_report.json", payload)
    return {"verdict": payload["verdict"]}


def run_nonlinear(config, outdir):
    require_keys(
        config,
        {"distribution", "coupling", "epsilon", "k_max", "grid_nodes", "dt", "horizon",
         "initial_perturbation"},
        {"output_every", "weight_order", "snapshot_times", "mass_threshold"},
        "nonlinear",
    )
    dist = _distribution(config["distribution"], "nonlinear")
    coupling = _nonnegative(config, "coupling", "nonlinear")
    epsilon = _positive(config, "epsilon", "nonlinear")
    dt = _positive(config, "dt", "nonlinear")
    horizon = _positive(config, "horizon", "nonlinear")
    k_max = _integer(config, "k_max", "nonlinear", minimum=2)
    nodes = _integer(config, "grid_nodes", "nonlinear")
    output_every = _integer(config, "output_every", "nonlinear", default=10)
    weight_order = _integer(
        config, "weight_order", "nonlinear", default=4, minimum=2,
        maximum=spectral.MAX_WEIGHT_ORDER,
    )

    # run checks the step-size bound and the weight order before it marches
    with _constructing("nonlinear"):
        snapshot_times = tuple(_numbers(config.get("snapshot_times", ()), "nonlinear.snapshot_times"))
        # the slack admits a last snapshot time computed as steps * dt
        if any(not 0.0 <= t <= horizon * (1.0 + 1e-12) for t in snapshot_times):
            raise ConfigError(
                f"nonlinear: snapshot_times must lie in [0, horizon = {horizon}], "
                f"got {list(snapshot_times)}"
            )
        modes = _perturbation_modes(config["initial_perturbation"], "nonlinear.initial_perturbation")
        grid = build_grid(dist, nodes, _number(config, "mass_threshold", "nonlinear", 1.0 - 1e-8))
        state = spectral.initialize(dist, grid, k_max, epsilon, coupling, modes=modes)
        result = spectral.run(
            state,
            dt,
            horizon,
            output_every=output_every,
            weight_order=weight_order,
            snapshot_times=snapshot_times,
        )

    _order_parameter_csv(outdir / "R.csv", result.times, result.order_params, weight_order)
    columns = _order_parameter_columns(result.times, result.order_params, weight_order)

    def diagnostics(lo, hi):
        t, _, _, _, weighted = columns(lo, hi)
        return [t, weighted, result.diag_norm_over_time[lo:hi], result.diag_norm_low[lo:hi]]

    _write_csv(
        outdir / "diagnostics.csv",
        ["t", f"(1+t)^{weight_order}*abs(R)", f"H{weight_order}/(1+t)", f"H{weight_order - 2}"],
        diagnostics,
        len(result.times),
    )

    initial_norm = state.initial_weighted_norm
    recurrence_time = spectral.recurrence_horizon(state.grid)
    scattering = {
        "formatVersion": FORMAT_VERSION,
        "config": config,
        "recurrenceTime": recurrence_time,
        "initialWeightedNorm": initial_norm if np.isfinite(initial_norm) else None,
    }
    if len(result.snapshots) >= 3:
        report = spectral.scattering_profile(state, result, weight_order)
        scattering.update(
            {
                "snapshotTimes": report.snapshot_times,
                "pairwiseNorms": report.pairwise_norms,
                "converged": report.converged,
                "verdict": report.verdict,
            }
        )
    else:
        scattering.update({"verdict": "NotEvaluated", "converged": None})
    _write_json(outdir / "scattering.json", scattering)
    return {"recurrenceTime": recurrence_time}


def run_finite_n(config, outdir):
    require_keys(
        config,
        {"distribution", "oscillators", "coupling", "epsilon", "dt", "horizon",
         "initial_perturbation"},
        {"sampling", "seed", "output_every", "continuum_dir"},
        "finite-n",
    )
    dist = _distribution(config["distribution"], "finite-n")
    count = _integer(config, "oscillators", "finite-n", minimum=2)
    coupling = _nonnegative(config, "coupling", "finite-n")
    epsilon = _nonnegative(config, "epsilon", "finite-n")
    dt = _positive(config, "dt", "finite-n")
    horizon = _positive(config, "horizon", "finite-n")
    sampling = config.get("sampling", "quantile")
    seed = _integer(config, "seed", "finite-n", minimum=0) if "seed" in config else None
    output_every = _integer(config, "output_every", "finite-n", default=10)
    with _constructing("finite-n"):
        modes = _perturbation_modes(config["initial_perturbation"], "finite-n.initial_perturbation")
        state = finiten.sample_oscillators(
            dist, count, coupling, epsilon=epsilon, modes=modes, sampling=sampling, seed=seed
        )
    cont = None
    if "continuum_dir" in config:
        # checked before simulating, so a mismatch leaves no artifacts
        cont_cfg, cont = _load_run(
            _path(config, "continuum_dir", "finite-n"), "nonlinear", "R.csv",
            ("t", "ReR", "ImR"), "finite-n",
        )
        _require_matching(cont_cfg, config, "finite-n: continuum run disagrees")
    times, orders = finiten.simulate(state, dt, horizon, output_every=output_every)
    _write_csv(
        outdir / "zn.csv",
        ["t", "Re(Z)", "Im(Z)", "abs(Z)"],
        [times, orders.real, orders.imag, np.abs(orders)],
    )
    summary = {"oscillators": count}
    if cont is not None:
        summary["supDifference"] = _comparison_artifacts(
            outdir, config, epsilon, times, orders, cont[:, 0], cont[:, 1] + 1j * cont[:, 2]
        )
    return summary


def _load_run(run_dir, experiment, csv_name, columns, context):
    """A run's config and the named columns of one of its csv artifacts."""
    sidecar = run_dir / "config.json"
    series = run_dir / csv_name
    if not sidecar.exists() or not series.exists():
        raise ConfigError(f"{context}: {run_dir} is missing {csv_name} or config.json")
    meta = _load_config(sidecar)
    if meta.get("experiment") != experiment:
        raise ConfigError(
            f"{context}: {run_dir} holds a {meta.get('experiment')!r} run, expected {experiment!r}"
        )
    config = meta.get("config")
    if not isinstance(config, dict):
        raise ConfigError(f"{context}: {sidecar} holds no config object")
    return config, _read_csv(series, columns, context)


def _require_matching(first, second, message):
    """Raise ConfigError unless two run configs share the compared keys."""
    for key in ("distribution", "coupling", "epsilon", "horizon"):
        if first.get(key) != second.get(key):
            raise ConfigError(
                f"{message} on {key}: {first.get(key)!r} vs {second.get(key)!r}"
            )


def _comparison_artifacts(outdir, config, epsilon, t_fin, z, t_cont, r):
    """Time-aligned comparison table and sup-norm summary; returns the sup."""
    r_interp = np.interp(t_fin, t_cont, r.real) + 1j * np.interp(t_fin, t_cont, r.imag)
    # finite-N sums run over exp(+i theta); the continuum order parameter
    # weighs with exp(-i theta), so compare against the conjugate
    diff = np.abs(np.conj(z) - epsilon * r_interp)
    _write_csv(
        outdir / "comparison.csv",
        ["t", "abs(Z)", "eps*abs(R)", "abs(conj(Z)-eps*R)"],
        [t_fin, np.abs(z), epsilon * np.abs(r_interp), diff],
    )
    payload = {
        "formatVersion": FORMAT_VERSION,
        "config": config,
        "supDifference": float(diff.max()),
        "timeRange": [float(t_fin[0]), float(t_fin[-1])],
    }
    _write_json(outdir / "summary.json", payload)
    return float(diff.max())


def run_compare(config, outdir):
    require_keys(config, {"continuum_dir", "finite_n_dir"}, set(), "compare")
    cont_cfg, cont = _load_run(
        _path(config, "continuum_dir", "compare"), "nonlinear", "R.csv", ("t", "ReR", "ImR"),
        "compare",
    )
    fin_cfg, fin = _load_run(
        _path(config, "finite_n_dir", "compare"), "finite-n", "zn.csv", ("t", "ReZ", "ImZ"),
        "compare",
    )
    _require_matching(cont_cfg, fin_cfg, "compare: runs disagree")

    sup = _comparison_artifacts(
        outdir,
        config,
        _number(cont_cfg, "epsilon", "compare: continuum run", None),
        fin[:, 0],
        fin[:, 1] + 1j * fin[:, 2],
        cont[:, 0],
        cont[:, 1] + 1j * cont[:, 2],
    )
    return {"supDifference": sup}


RUNNERS = {
    "stability": run_stability,
    "kc-scan": run_kc_scan,
    "linear": run_linear,
    "witness": run_witness,
    "nonlinear": run_nonlinear,
    "finite-n": run_finite_n,
    "compare": run_compare,
}


# ---------------------------------------------------------------------------
# entry point


def _load_config(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        with open(path) as fh:
            config = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the parser's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except OSError as exc:  # a directory, say: '' names the working directory
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config


_OPTIONS = ("--config", "--out")


def _parse_args(argv):
    """(experiment, config path, out dir or None) from the command line.

    The plain grammar is read here: one experiment, and ``--config PATH`` and
    ``--out DIR`` as ``--opt value`` (a value not starting with '-') or
    ``--opt=value``, in any order, the last of a repeated option winning.
    Every other command line goes to ``_argparse``.
    """
    values = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        name, eq, value = arg.partition("=")
        if arg in _OPTIONS and i + 1 < len(argv) and not argv[i + 1].startswith("-"):
            i += 1
            values[arg] = argv[i]
        elif eq and name in _OPTIONS:
            values[name] = value
        elif arg in EXPERIMENTS and "experiment" not in values:
            values["experiment"] = arg
        else:
            return _argparse(argv)
        i += 1
    if "experiment" not in values or "--config" not in values:
        return _argparse(argv)
    return values["experiment"], values["--config"], values.get("--out")


def _argparse(argv):
    """(experiment, config path, out dir or None) as argparse reads ``argv``.

    Prefixes such as ``--conf``, '--', ``-h`` and usage errors land here: ``-h``
    prints the help and raises SystemExit(0), a usage error prints the usage
    and raises SystemExit(2).  Both are laid out at 80 columns whatever the
    terminal.  argparse's [] for ``--config=--`` or ``--out=--`` is read as the
    path '--', as on the plain path.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="kuramoto-damping",
        description="Experiments on damping of the incoherent state in the mean-field "
        "oscillator ensemble",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78),
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", default=None, help="output directory (default out-<experiment>)")
    args = parser.parse_args(argv)
    return (args.experiment, *("--" if path == [] else path for path in (args.config, args.out)))


def main(argv=None):
    experiment, config_path, out = _parse_args(sys.argv[1:] if argv is None else argv)
    outdir = Path(out) if out else Path(f"out-{experiment}")
    created = not outdir.exists()
    try:
        config = _load_config(config_path)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file at the path or on it
            raise ConfigError(f"cannot make output directory {outdir}: {exc.strerror}") from exc
        summary = RUNNERS[experiment](config, outdir)
    except ConfigError as exc:
        # a rejected config must leave no artifacts behind
        if created and outdir.exists() and not any(outdir.iterdir()):
            outdir.rmdir()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (KuramotoDampingError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass for an array it cannot allocate
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        payload = {
            "formatVersion": FORMAT_VERSION,
            "experiment": experiment,
            "error": name,
            "message": str(exc),
        }
        try:
            _write_json(outdir / "error.json", payload)
        except OSError:
            pass
        print(f"numeric failure: {name}: {exc}", file=sys.stderr)
        return 3

    _write_sidecar(outdir, experiment, config)
    print(json.dumps({"experiment": experiment, **summary}, sort_keys=True))
    return 0


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
