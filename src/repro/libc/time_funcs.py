"""The "C time" group.

Flavour mechanics:

* glibc's ``time()`` is a thin system-call wrapper, so a bad out-pointer
  comes back as ``EFAULT`` from the probing kernel; MSVCRT's stores
  through the pointer in user mode and faults.
* glibc validates ``struct tm`` field ranges (error return); MSVCRT
  indexes its month/day name tables with whatever the struct contains,
  so garbage fields walk off the tables and fault.

Both mechanisms make this one of the eight groups where the paper
measured *Linux lower* than Windows.
"""

from __future__ import annotations

from repro.libc import errno_codes as E
from repro.sim.guarded import kernel_copy_to_user

_U32 = 0xFFFF_FFFF

_DAYS_IN_MONTH = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
_MONTH_NAMES = [
    b"Jan", b"Feb", b"Mar", b"Apr", b"May", b"Jun",
    b"Jul", b"Aug", b"Sep", b"Oct", b"Nov", b"Dec",
]
_DAY_NAMES = [b"Sun", b"Mon", b"Tue", b"Wed", b"Thu", b"Fri", b"Sat"]


def _civil_from_unix(seconds: int) -> tuple[int, int, int, int, int, int, int, int]:
    """(year, month0, day, hour, minute, second, weekday, yearday)."""
    days, rem = divmod(seconds, 86_400)
    hour, rem = divmod(rem, 3_600)
    minute, second = divmod(rem, 60)
    weekday = (4 + days) % 7  # 1970-01-01 was a Thursday
    year = 1970
    while True:
        length = 366 if _is_leap(year) else 365
        if days < length:
            break
        days -= length
        year += 1
    yearday = days
    month = 0
    month_days = list(_DAYS_IN_MONTH)
    if _is_leap(year):
        month_days[1] = 29
    while days >= month_days[month]:
        days -= month_days[month]
        month += 1
    return year, month, days + 1, hour, minute, second, weekday, yearday


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


class TimeMixin:
    """time.h implementations (8 functions)."""

    # ------------------------------------------------------------------
    # struct tm marshalling (nine i32 fields, 36 bytes used of 44)
    # ------------------------------------------------------------------

    def _read_tm(self, func: str, address: int) -> list[int]:
        return [self.mem.read_i32(address + 4 * i) for i in range(9)]

    def _write_tm(self, address: int, fields: list[int]) -> None:
        for index, value in enumerate(fields):
            self.mem.write_i32(address + 4 * index, value)

    def _tm_fields_sane(self, fields: list[int]) -> bool:
        sec, minute, hour, mday, mon, year, _wday, _yday, _isdst = fields
        return (
            0 <= sec <= 61
            and 0 <= minute <= 59
            and 0 <= hour <= 23
            and 1 <= mday <= 31
            and 0 <= mon <= 11
            and -1900 <= year <= 8099
        )

    def _month_name(self, func: str, month: int) -> bytes:
        """Index the month-name table the way this flavour does."""
        if self.traits.tm_fields_validated:
            return _MONTH_NAMES[month % 12]
        # Unchecked table walk: garbage months read off the table.
        self.mem.read(self._ctype_region.start + 128 + month * 4, 1)
        return _MONTH_NAMES[month % 12]

    # ------------------------------------------------------------------
    # Functions
    # ------------------------------------------------------------------

    def time(self, t_ptr: int) -> int:
        now = self.machine.clock.unix_seconds()
        if t_ptr != 0:
            if self.traits.time_via_syscall:
                ok = kernel_copy_to_user(
                    self.machine,
                    self.mem,
                    "time",
                    t_ptr,
                    (now & _U32).to_bytes(4, "little"),  # 32-bit time_t
                )
                if not ok:
                    self._set_errno(E.EFAULT)
                    return -1 & _U32
            else:
                self.mem.write_u32(t_ptr, now)  # user-mode store
        return now

    def localtime(self, t_ptr: int) -> int:
        seconds = self.mem.read_i32(t_ptr)  # dereferences in user mode
        if seconds < 0:
            if self.traits.tm_fields_validated:
                self._set_errno(E.EOVERFLOW)
                return 0
            seconds &= 0x7FFF_FFFF
        year, mon, mday, hour, minute, sec, wday, yday = _civil_from_unix(seconds)
        out = self._static_tm_buffer()
        self._write_tm(out, [sec, minute, hour, mday, mon, year - 1900, wday, yday, 0])
        return out

    def gmtime(self, t_ptr: int) -> int:
        return self.localtime(t_ptr)  # the simulated machine runs in UTC

    def mktime(self, tm_ptr: int) -> int:
        fields = self._read_tm("mktime", tm_ptr)
        if not self._tm_fields_sane(fields):
            if self.traits.tm_fields_validated:
                self._set_errno(E.EOVERFLOW)
                return -1 & _U32
            # Unchecked: normalisation walks the month table with the
            # garbage month value.
            self._month_name("mktime", fields[4])
        sec, minute, hour, mday, mon, year = fields[:6]
        total_days = 0
        for y in range(1970, max(1970, min(year + 1900, 10_000))):
            total_days += 366 if _is_leap(y) else 365
        month_days = list(_DAYS_IN_MONTH)
        if _is_leap(year + 1900):
            month_days[1] = 29
        total_days += sum(month_days[: max(0, min(mon, 11))]) + max(0, mday - 1)
        return total_days * 86_400 + hour * 3_600 + minute * 60 + sec

    def _render_asctime(self, func: str, fields: list[int]) -> bytes:
        sec, minute, hour, mday, mon, year = fields[:6]
        wday = fields[6]
        month = self._month_name(func, mon)
        day = _DAY_NAMES[wday % 7]
        return (
            day
            + b" "
            + month
            + b" %2d %02d:%02d:%02d %4d\n" % (mday, hour, minute, sec, year + 1900)
        )

    def asctime(self, tm_ptr: int) -> int:
        fields = self._read_tm("asctime", tm_ptr)
        if not self._tm_fields_sane(fields) and self.traits.tm_fields_validated:
            self._set_errno(E.EOVERFLOW)
            return 0
        text = self._render_asctime("asctime", fields)
        out = self._static_str_buffer()
        self.mem.write_cstring(out, text[:62])
        return out

    def ctime(self, t_ptr: int) -> int:
        tm_addr = self.localtime(t_ptr)
        if tm_addr == 0:
            return 0
        return self.asctime(tm_addr)

    def strftime(self, buffer: int, maxsize: int, fmt_addr: int, tm_ptr: int) -> int:
        maxsize &= _U32
        fmt = self._scan_str("strftime", fmt_addr)
        fields = self._read_tm("strftime", tm_ptr)
        if not self._tm_fields_sane(fields):
            if self.traits.tm_fields_validated:
                self._set_errno(E.EOVERFLOW)
                return 0
            self._month_name("strftime", fields[4])
        rendered = bytearray()
        index = 0
        while index < len(fmt):
            if fmt[index] == ord("%") and index + 1 < len(fmt):
                conv = fmt[index + 1 : index + 2]
                if conv == b"Y":
                    rendered += str(fields[5] + 1900).encode()
                elif conv == b"m":
                    rendered += b"%02d" % ((fields[4] % 12) + 1)
                elif conv == b"d":
                    rendered += b"%02d" % fields[3]
                elif conv == b"H":
                    rendered += b"%02d" % fields[2]
                else:
                    rendered += fmt[index : index + 2]
                index += 2
            else:
                rendered.append(fmt[index])
                index += 1
        if maxsize == 0 or len(rendered) + 1 > maxsize:
            return 0
        self._write_span("strftime", buffer, bytes(rendered) + b"\x00")
        return len(rendered)

    def difftime(self, end: int, start: int) -> float:
        return float(end - start)
