"""Unit tests for the C math and C time groups across CRT flavours."""

import math

import pytest

from repro.core.context import TestContext
from repro.libc import errno_codes as E
from repro.libc.time_funcs import _civil_from_unix
from repro.posix.linux import LINUX
from repro.sim.errors import AccessViolation, ArithmeticFault
from repro.sim.machine import Machine
from repro.win32.variants import WINNT


def crt_for(personality):
    machine = Machine(personality)
    ctx = TestContext(machine, machine.spawn_process())
    return ctx, ctx.crt


@pytest.fixture()
def glibc():
    return crt_for(LINUX)


@pytest.fixture()
def msvcrt():
    return crt_for(WINNT)


class TestMathValues:
    @pytest.mark.parametrize(
        "func,arg,expected",
        [
            ("sqrt", 4.0, 2.0),
            ("sqrt", 0.0, 0.0),
            ("exp", 0.0, 1.0),
            ("log", math.e, 1.0),
            ("log10", 100.0, 2.0),
            ("fabs", -2.5, 2.5),
            ("ceil", 1.2, 2.0),
            ("floor", 1.8, 1.0),
            ("sin", 0.0, 0.0),
            ("cos", 0.0, 1.0),
            ("tan", 0.0, 0.0),
            ("sinh", 0.0, 0.0),
            ("cosh", 0.0, 1.0),
            ("tanh", 0.0, 0.0),
            ("asin", 1.0, math.pi / 2),
            ("acos", 1.0, 0.0),
            ("atan", 0.0, 0.0),
        ],
    )
    def test_values_match_reference(self, glibc, func, arg, expected):
        _, crt = glibc
        assert getattr(crt, func)(arg) == pytest.approx(expected)

    def test_binary_functions(self, glibc):
        _, crt = glibc
        assert crt.atan2(1.0, 1.0) == pytest.approx(math.pi / 4)
        assert crt.pow(2.0, 10.0) == 1024.0
        assert crt.fmod(7.0, 3.0) == pytest.approx(1.0)
        assert crt.ldexp(1.5, 3) == 12.0

    def test_abs_and_labs(self, glibc):
        _, crt = glibc
        assert crt.abs(-5) == 5
        assert crt.labs(5) == 5
        # abs(INT_MIN) is UB; real CRTs return INT_MIN unchanged.
        assert crt.abs(-0x8000_0000) == -0x8000_0000


class TestMathDomainErrors:
    def test_glibc_reports_edom_quietly(self, glibc):
        ctx, crt = glibc
        assert math.isnan(crt.sqrt(-1.0))
        assert ctx.process.errno == E.EDOM

    def test_glibc_log_zero_is_edom(self, glibc):
        ctx, crt = glibc
        crt.log(0.0)
        assert ctx.process.errno == E.EDOM

    def test_glibc_nan_propagates_quietly(self, glibc):
        ctx, crt = glibc
        assert math.isnan(crt.sin(math.nan))
        assert ctx.process.errno == 0

    def test_msvcrt_nan_raises_fp_exception(self, msvcrt):
        _, crt = msvcrt
        with pytest.raises(ArithmeticFault) as info:
            crt.sin(math.nan)
        assert info.value.win32_exception == "EXCEPTION_FLT_INVALID_OPERATION"

    def test_msvcrt_nan_in_second_operand_raises(self, msvcrt):
        _, crt = msvcrt
        with pytest.raises(ArithmeticFault):
            crt.pow(2.0, math.nan)

    def test_msvcrt_domain_error_still_errno(self, msvcrt):
        ctx, crt = msvcrt
        crt.sqrt(-1.0)
        assert ctx.process.errno == E.EDOM

    def test_exp_overflow_is_erange(self, glibc):
        ctx, crt = glibc
        result = crt.exp(1e308)
        assert result == pytest.approx(1.79769313486231571e308)
        assert ctx.process.errno == E.ERANGE

    def test_pow_overflow_is_erange(self, glibc):
        ctx, crt = glibc
        crt.pow(1e308, 2.0)
        assert ctx.process.errno == E.ERANGE

    def test_fmod_zero_divisor_edom(self, glibc):
        ctx, crt = glibc
        crt.fmod(1.0, 0.0)
        assert ctx.process.errno == E.EDOM

    def test_trig_of_infinity_is_edom(self, glibc):
        ctx, crt = glibc
        crt.sin(math.inf)
        assert ctx.process.errno == E.EDOM


class TestCivilTime:
    def test_epoch(self):
        assert _civil_from_unix(0)[:6] == (1970, 0, 1, 0, 0, 0)

    def test_known_date(self):
        # 2000-06-25 00:00:00 UTC (the paper's conference opening day).
        year, mon, day, hour, minute, sec, wday, yday = _civil_from_unix(
            961_891_200
        )
        assert (year, mon + 1, day) == (2000, 6, 25)
        assert (hour, minute, sec) == (0, 0, 0)
        assert wday == 0  # Sunday

    def test_matches_python_datetime(self):
        import datetime

        for seconds in (86_399, 951_827_696, 1_234_567_890, 2**31 - 1):
            expected = datetime.datetime.fromtimestamp(
                seconds, tz=datetime.timezone.utc
            )
            year, mon, day, hour, minute, sec, _, _ = _civil_from_unix(seconds)
            assert (year, mon + 1, day, hour, minute, sec) == (
                expected.year,
                expected.month,
                expected.day,
                expected.hour,
                expected.minute,
                expected.second,
            )


class TestTimeFunctions:
    def test_time_returns_clock(self, glibc):
        ctx, crt = glibc
        assert crt.time(0) == ctx.machine.clock.unix_seconds()

    def test_time_writes_through_valid_pointer(self, glibc):
        ctx, crt = glibc
        out = ctx.buffer(8)
        now = crt.time(out)
        assert ctx.mem.read_u32(out) == now

    def test_glibc_time_wraps_past_32_bits(self, glibc):
        # sleep(INT_MIN) can push the virtual clock past 2**32 s; the
        # syscall store truncates like a 32-bit time_t, as the user-mode
        # store already does.
        ctx, crt = glibc
        ctx.machine.clock.ticks += (1 << 33) * 1000
        out = ctx.buffer(8)
        now = crt.time(out)
        assert now >= 1 << 32
        assert ctx.mem.read_u32(out) == now & 0xFFFF_FFFF

    def test_glibc_time_bad_pointer_is_efault(self, glibc):
        ctx, crt = glibc
        assert crt.time(0xDEAD_0000) == 0xFFFF_FFFF
        assert ctx.process.errno == E.EFAULT

    def test_msvcrt_time_bad_pointer_faults(self, msvcrt):
        _, crt = msvcrt
        with pytest.raises(AccessViolation):
            crt.time(0xDEAD_0000)

    def test_localtime_roundtrip_with_mktime(self, glibc):
        ctx, crt = glibc
        now = ctx.machine.clock.unix_seconds()
        t_ptr = ctx.buffer(8)
        ctx.mem.write_u32(t_ptr, now)
        tm_addr = crt.localtime(t_ptr)
        assert crt.mktime(tm_addr) == now

    def test_localtime_bad_pointer_faults_everywhere(self, glibc, msvcrt):
        for ctx, crt in (glibc, msvcrt):
            with pytest.raises(AccessViolation):
                crt.localtime(0)

    def test_glibc_rejects_garbage_tm(self, glibc):
        ctx, crt = glibc
        garbage = ctx.buffer(44, b"\x7f" * 44)
        assert crt.mktime(garbage) == 0xFFFF_FFFF
        assert ctx.process.errno == E.EOVERFLOW

    def test_msvcrt_garbage_tm_walks_off_month_table(self, msvcrt):
        ctx, crt = msvcrt
        garbage = ctx.buffer(44, b"\x7f" * 44)
        with pytest.raises(AccessViolation):
            crt.mktime(garbage)

    def test_asctime_formats(self, glibc):
        ctx, crt = glibc
        tm = ctx.buffer(44)
        for index, value in enumerate([0, 30, 12, 25, 5, 100, 0, 176, 0]):
            ctx.mem.write_i32(tm + 4 * index, value)
        out = crt.asctime(tm)
        text = ctx.mem.read_cstring(out)
        assert b"Jun" in text and b"2000" in text and b"12:30:00" in text

    def test_ctime_equals_asctime_of_localtime(self, glibc):
        ctx, crt = glibc
        t_ptr = ctx.buffer(8)
        ctx.mem.write_u32(t_ptr, 961_891_200)
        text = ctx.mem.read_cstring(crt.ctime(t_ptr))
        assert b"Sun Jun 25" in text

    def test_strftime_conversions(self, glibc):
        ctx, crt = glibc
        tm = ctx.buffer(44)
        for index, value in enumerate([0, 0, 9, 25, 5, 100, 0, 176, 0]):
            ctx.mem.write_i32(tm + 4 * index, value)
        out = ctx.buffer(64)
        fmt = ctx.cstring(b"%Y-%m-%d %H")
        written = crt.strftime(out, 64, fmt, tm)
        assert written == len("2000-06-25 09")
        assert ctx.mem.read_cstring(out) == b"2000-06-25 09"

    def test_strftime_zero_maxsize_returns_zero(self, glibc):
        ctx, crt = glibc
        tm = ctx.buffer(44)
        ctx.mem.write_i32(tm + 12, 1)  # mday
        assert crt.strftime(ctx.buffer(8), 0, ctx.cstring(b"%d"), tm) == 0

    def test_difftime(self, glibc):
        _, crt = glibc
        assert crt.difftime(100, 40) == 60.0
