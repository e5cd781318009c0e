"""Staircase construction, growth certificate, and Hartogs cap scans."""

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import levicheck.staircase as staircase_module
from helpers_disc import disc_node_coords
from helpers_report import violation_alignment
from levicheck.cli import run_scenario
from levicheck.fields import ParameterError, circle_mean
from levicheck.potential import zygmund_domain
from levicheck.staircase import (
    _DEPTH_BUDGET,
    _FAR_FIELD,
    ConstructionError,
    FatF,
    X0Certificate,
    _as_fraction,
    build_cantor,
    bump_window,
    bump_window_second_derivative_sup,
    default_alphas,
    fat_F,
    find_x0,
    hartogs_ball_domain,
    hartogs_staircase,
    interval_distance,
    subharmonicity_scan,
    superharmonic_mean_excess,
)

HALF_EIGHTH = (Fraction(1, 2), Fraction(1, 8))

ratio_lists = st.lists(
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(9, 10), max_denominator=64),
    min_size=1,
    max_size=5,
)


def gap_row(system, n):
    """The 2**n open gaps removed from generation n: each lies between the
    two generation-(n+1) intervals its parent splits into."""
    kids = system.level(n + 1)
    return tuple((kids[2 * i][1], kids[2 * i + 1][0]) for i in range(2**n))


def exact(system, x):
    """A breakpoint numerator of ``system`` as the Fraction it stands for."""
    return Fraction(x, system.denominator)


# -- oracle: build_cantor as it kept every generation's intervals and gaps,
# verbatim but for its return value; level(n) and gap_row must equal them


def build_cantor_levels_oracle(alphas, depth=None):
    ratios = tuple(_as_fraction(a) for a in alphas)
    if depth is None:
        depth = len(ratios)
    if not 1 <= depth <= _DEPTH_BUDGET:
        raise ParameterError(f"depth must lie in [1, {_DEPTH_BUDGET}], got {depth}")
    if len(ratios) < depth:
        raise ParameterError(
            f"need at least {depth} gap ratios, got {len(ratios)}"
        )
    ratios = ratios[:depth]
    for a in ratios:
        if not 0 < a < 1:
            raise ParameterError(f"gap ratios must lie in (0, 1), got {a}")

    levels: list[tuple[tuple[Fraction, Fraction], ...]] = [((Fraction(0), Fraction(1)),)]
    gaps: list[tuple[tuple[Fraction, Fraction], ...]] = []
    for n in range(depth):
        a_n = ratios[n]
        gap_row: list[tuple[Fraction, Fraction]] = []
        next_row: list[tuple[Fraction, Fraction]] = []
        for left, right in levels[n]:
            center = (left + right) / 2
            half = a_n * (right - left) / 2
            g = (center - half, center + half)
            gap_row.append(g)
            next_row.append((left, g[0]))
            next_row.append((g[1], right))
        gaps.append(tuple(gap_row))
        levels.append(tuple(next_row))
    return ratios, tuple(levels), tuple(gaps)


# -- oracle: the Fraction construction of the breakpoint row, f_N and F,
# verbatim from build_cantor, the staircase iterate and fat_F before they moved to
# integer numerators; the library's rows must equal them as Fractions


@dataclass(frozen=True)
class Rows:
    """Breakpoints ``xs``, f_N values ``ys`` and F values ``values`` as
    Fractions: the rows the verbatim oracles below read."""

    alphas: tuple[Fraction, ...]
    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    @classmethod
    def of(cls, fat):
        """The library's rows, each integer over its denominator."""
        d, scale = fat.system.denominator, 2**fat.system.depth
        return cls(
            alphas=fat.system.alphas,
            xs=tuple(Fraction(x, d) for x in fat.xs),
            ys=tuple(Fraction(y, scale) for y in fat.system.ys),
            values=tuple(Fraction(v, fat.denominator) for v in fat.values),
        )

    @classmethod
    def construct(cls, alphas):
        """The rows built in Fraction arithmetic."""
        ratios = tuple(_as_fraction(a) for a in alphas)
        xs = cantor_row_oracle(ratios)
        ys = iterate_row_oracle(xs, len(ratios))
        return cls(alphas=ratios, xs=xs, ys=ys, values=fat_values_oracle(xs, ys))

    def level(self, n):
        s = 2 ** (len(self.alphas) - n)
        return tuple(zip(self.xs[:: 2 * s], self.xs[2 * s - 1 :: 2 * s]))


def cantor_row_oracle(ratios):
    xs: tuple[Fraction, ...] = (Fraction(0), Fraction(1))
    for a_n in ratios:
        row: list[Fraction] = []
        for left, right in zip(xs[::2], xs[1::2]):
            center = (left + right) / 2
            half = a_n * (right - left) / 2
            row += (left, center - half, center + half, right)
        xs = tuple(row)
    return xs


def iterate_row_oracle(xs, n):
    ys: list[Fraction] = []
    step = Fraction(1, 2**n)
    for i in range(2**n):
        ys.extend((i * step, (i + 1) * step))
    return tuple(ys)


def fat_values_oracle(xs, ys):
    g = tuple(y - x for x, y in zip(xs, ys))
    vals: list[Fraction] = [Fraction(0)]
    acc = Fraction(0)
    for k in range(len(g) - 1):
        acc += (g[k] + g[k + 1]) * (xs[k + 1] - xs[k]) / 2
        vals.append(acc)
    return tuple(vals)


def iterate_value_oracle(rows, x) -> Fraction:
    x = _as_fraction(x)
    if x <= rows.xs[0]:
        return rows.ys[0]
    if x >= rows.xs[-1]:
        return rows.ys[-1]
    k = bisect_right(rows.xs, x) - 1
    x0, x1 = rows.xs[k], rows.xs[k + 1]
    y0, y1 = rows.ys[k], rows.ys[k + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


# -- oracles: FatF's exact lookups that bisect for every value and
# find_x0's scan over every gap of every generation, kept verbatim but
# reading Fraction rows (``self`` renamed ``rows``); the library must
# return exactly their values


def value_exact_oracle(rows, x) -> Fraction:
    x = _as_fraction(x)
    if x <= 0 or x >= 1:
        return Fraction(0)
    k = bisect_right(rows.xs, x) - 1
    xk = rows.xs[k]
    fk = rows.ys[k]
    fx = iterate_value_oracle(rows, x)
    return rows.values[k] + ((fk - xk) + (fx - x)) * (x - xk) / 2


def sup_norm_exact_oracle(rows) -> Fraction:
    candidates = list(rows.xs)
    for k in range(len(rows.xs) - 1):
        x0, x1 = rows.xs[k], rows.xs[k + 1]
        y0, y1 = rows.ys[k], rows.ys[k + 1]
        m = (y1 - y0) / (x1 - x0)
        if m != 1:
            t = (y0 - m * x0) / (1 - m)
            if x0 < t < x1:
                candidates.append(t)
    return max(abs(value_exact_oracle(rows, t)) for t in candidates)


def left_gap_oracle(rows, x0):
    left_gap = None
    for n in range(len(rows.alphas)):
        kids = rows.level(n + 1)
        for g in ((kids[2 * i][1], kids[2 * i + 1][0]) for i in range(2**n)):
            if g[1] == x0:
                left_gap = g
                break
        if left_gap is not None:
            break
    return left_gap


def find_x0_oracle(fat, rows, n_offsets):
    """find_x0 on the oracle value lookup and the scan over all gaps."""
    a1, b1 = rows.level(1)[0]
    slope1 = 1 / (1 - rows.alphas[0])
    growth = (slope1 - 1) / 2

    best_x = None
    best_g = None
    for x, y in zip(rows.xs, rows.ys):
        if a1 <= x <= b1:
            g = y - slope1 * x
            if best_g is None or g < best_g:
                best_g = g
                best_x = x
    x0 = best_x

    dist = min(x0 - a1, b1 - x0)
    delta0 = min(Fraction(1, 20), dist / 2)
    if delta0 <= 0:
        raise ConstructionError("base point sits on the interval boundary")

    f_x0 = value_exact_oracle(rows, x0)
    df_x0 = iterate_value_oracle(rows, x0) - x0
    for k in range(1, n_offsets + 1):
        s = delta0 * k / n_offsets
        dev = value_exact_oracle(rows, x0 + s) - f_x0 - s * df_x0
        if dev < growth * s * s:
            raise ConstructionError(
                f"quadratic growth fails at offset {float(s)!r}: "
                f"deviation {float(dev)!r} < {float(growth * s * s)!r}"
            )

    left_gap = left_gap_oracle(rows, x0)

    left_defect = None
    if x0 > 0:
        reach = delta0 if left_gap is None else min(delta0, (left_gap[1] - left_gap[0]) / 2)
        if reach > 0:
            ratios = []
            for k in range(1, 8):
                s = -reach * k / 8
                dev = value_exact_oracle(rows, x0 + s) - f_x0 - s * df_x0
                ratios.append(dev / (s * s))
            left_defect = min(ratios)

    return X0Certificate(
        x0=x0,
        growth=growth,
        delta0=delta0,
        g_min=best_g,
        offsets_checked=n_offsets,
        left_gap=left_gap,
        left_defect=left_defect,
    )


def assert_matches_fraction_construction(alphas, n_offsets):
    """Every breakpoint, f_N and F value, the sup of |F| and every
    certificate field equal those of the Fraction construction."""
    fat = fat_F(build_cantor(alphas))
    rows = Rows.construct(alphas)
    assert Rows.of(fat) == rows
    assert fat.sup_norm_exact() == sup_norm_exact_oracle(rows)
    try:
        expect = find_x0_oracle(fat, rows, n_offsets)
    except ConstructionError as exc:
        with pytest.raises(ConstructionError, match=re.escape(str(exc))):
            find_x0(fat, n_offsets=n_offsets)
        return
    cert = find_x0(fat, n_offsets=n_offsets)
    for f in fields(X0Certificate):
        assert getattr(cert, f.name) == getattr(expect, f.name), f.name


@pytest.fixture(scope="module")
def sys_half():
    return build_cantor(default_alphas(Fraction(1, 2), 6))


@pytest.fixture(scope="module")
def fat_half(sys_half):
    return fat_F(sys_half)


@pytest.fixture(scope="module")
def dom99():
    return hartogs_staircase(alpha1="99/100", spacing=1.0 / 256.0)


@pytest.fixture(scope="module")
def fat99():
    """dom99's F, built here as hartogs_staircase builds it: from the
    hartogs-scan default alpha1 "99/100", exactly 99/100, to depth 10."""
    return fat_F(build_cantor(default_alphas("99/100", 10)))


@pytest.fixture(scope="module")
def scan99(dom99):
    return subharmonicity_scan(dom99)


@pytest.fixture(scope="module")
def dom50():
    return hartogs_staircase(alpha1=0.5, spacing=1.0 / 256.0)


@pytest.fixture(scope="module")
def scan50(dom50):
    return subharmonicity_scan(dom50)


def iterate(system, n):
    """The depth-n truncation of ``system``, whose staircase is f_n."""
    return build_cantor(system.alphas[:n])


class TestBuildCantor:
    def test_interval_length_identity(self, sys_half):
        for n in range(sys_half.depth + 1):
            expect = Fraction(1, 2**n) * sys_half.kept_measure(n)
            for a, b in sys_half.level(n):
                assert exact(sys_half, b - a) == expect

    def test_gaps_centered_with_exact_ratio(self, sys_half):
        for n in range(sys_half.depth):
            for i, (a, b) in enumerate(sys_half.level(n)):
                ga, gb = gap_row(sys_half, n)[i]
                assert ga + gb == a + b
                assert gb - ga == sys_half.alphas[n] * (b - a)

    def test_children_partition_parent_minus_gap(self, sys_half):
        for n in range(sys_half.depth):
            for i, (a, b) in enumerate(sys_half.level(n)):
                ga, gb = gap_row(sys_half, n)[i]
                left = sys_half.level(n + 1)[2 * i]
                right = sys_half.level(n + 1)[2 * i + 1]
                assert left == (a, ga)
                assert right == (gb, b)

    @given(
        a1=st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda a: 0 < a < 1),
        depth=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_row_matches_all_levels_oracle(self, a1, depth):
        alphas = default_alphas(a1, depth)
        system = build_cantor(alphas)
        ratios, levels, gaps = build_cantor_levels_oracle(alphas)
        assert system.alphas == ratios
        assert all(type(x) is int for x in system.xs)
        as_fractions = tuple(exact(system, x) for x in system.xs)
        assert as_fractions == tuple(x for pair in levels[depth] for x in pair)

        def pairs(row):
            return tuple((exact(system, a), exact(system, b)) for a, b in row)

        for n in range(depth + 1):
            assert pairs(system.level(n)) == levels[n]
        for n in range(depth):
            assert pairs(gap_row(system, n)) == gaps[n]

    def test_quarter_schedule_measure_value(self):
        sys_q = build_cantor(default_alphas(Fraction(1, 4), 8))
        measure = sys_q.kept_measure(8)
        expect = Fraction(1)
        for k in range(1, 9):
            expect *= 1 - Fraction(1, 4**k)
        assert measure == expect
        assert float(measure) == pytest.approx(0.688541, abs=5e-7)

    def test_default_alphas_geometric(self):
        alphas = default_alphas(Fraction(9, 10), 4)
        assert alphas == (
            Fraction(9, 10),
            Fraction(9, 40),
            Fraction(9, 160),
            Fraction(9, 640),
        )

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            build_cantor([Fraction(0)])
        with pytest.raises(ParameterError):
            build_cantor([Fraction(1)])
        with pytest.raises(ParameterError, match=re.escape("depth must lie in [1, 14], got 0")):
            build_cantor([])
        with pytest.raises(ParameterError):
            default_alphas(Fraction(3, 2), 2)

    @pytest.mark.parametrize("text", ["abc", "1/0", ""])
    def test_malformed_fraction_string(self, text):
        with pytest.raises(ParameterError, match="is not a fraction"):
            default_alphas(text, 3)
        with pytest.raises(ParameterError, match="is not a fraction"):
            build_cantor([text])

    def test_depth_budget(self):
        over = _DEPTH_BUDGET + 1
        with pytest.raises(ParameterError, match=f"got {over}"):
            build_cantor([Fraction(1, 2)] * over)
        message = re.escape(f"depth must lie in [1, {_DEPTH_BUDGET}], got {over}")
        with pytest.raises(ParameterError, match=message):
            default_alphas(Fraction(1, 2), over)

    @given(ratios=ratio_lists)
    @settings(max_examples=40, deadline=None)
    def test_level_counts_and_measure(self, ratios):
        system = build_cantor(ratios)
        n = system.depth
        assert len(system.level(n)) == 2**n
        total = sum(b - a for a, b in system.level(n))
        expect = Fraction(1)
        for a in ratios:
            expect *= 1 - a
        assert exact(system, total) == expect
        # generation m of the depth-n system is the depth-m system's row
        for m in range(1, n):
            coarse = build_cantor(ratios[:m])
            assert [exact(system, x) for pair in system.level(m) for x in pair] == [
                exact(coarse, x) for x in coarse.xs
            ]


class TestCantorFunction:
    def test_first_iterate_half_on_gap(self, sys_half):
        f1 = iterate(sys_half, 1)
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(5, 8), Fraction(3, 4)):
            assert f1.value_exact(t) == Fraction(1, 2)
        assert f1.value_exact(Fraction(1, 8)) == Fraction(1, 4)

    def test_breakpoint_values(self, sys_half):
        n = 4
        fn = iterate(sys_half, n)
        for i, (a, b) in enumerate(fn.level(n)):
            assert fn.value_exact(exact(fn, a)) == Fraction(i, 2**n)
            assert fn.value_exact(exact(fn, b)) == Fraction(i + 1, 2**n)

    def test_slope_inverse_measure(self, sys_half):
        for n in range(1, sys_half.depth + 1):
            fn = iterate(sys_half, n)
            a, b = (exact(fn, x) for x in fn.level(n)[-1])
            slope = (fn.value_exact(b) - fn.value_exact(a)) / (b - a)
            assert slope * sys_half.kept_measure(n) == 1

    def test_successive_sup_distance(self, sys_half):
        for n in range(1, sys_half.depth):
            assert iterate(sys_half, n).sup_distance(iterate(sys_half, n + 1)) <= Fraction(1, 2**n)

    def test_symmetry(self, sys_half):
        fn = iterate(sys_half, 5)
        for t in (Fraction(1, 7), Fraction(9, 64), Fraction(2, 5)):
            assert fn.value_exact(1 - t) == 1 - fn.value_exact(t)

    def test_float_matches_exact(self, sys_half):
        fn = sys_half
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.0, 1.0, size=40):
            fr = Fraction(float(t))
            assert float(fn(t)) == pytest.approx(float(fn.value_exact(fr)), abs=1e-14)

    @given(
        t=st.fractions(min_value=0, max_value=1, max_denominator=512),
        s=st.fractions(min_value=0, max_value=1, max_denominator=512),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, sys_half, t, s):
        fn = iterate(sys_half, 4)
        lo, hi = min(t, s), max(t, s)
        assert fn.value_exact(lo) <= fn.value_exact(hi)


class TestFatF:
    def test_zero_at_both_endpoints(self, fat_half):
        assert fat_half.value_exact(0) == 0
        assert fat_half.value_exact(1) == 0
        assert fat_half.values[0] == 0
        assert fat_half.values[-1] == 0

    def test_symmetry(self, fat_half):
        for t in (Fraction(1, 5), Fraction(9, 64), Fraction(3, 7)):
            assert fat_half.value_exact(t) == fat_half.value_exact(1 - t)

    def test_center_value(self, fat_half):
        assert fat_half.value_exact(Fraction(1, 2)) == Fraction(1, 16)

    def test_second_difference_minus_one_on_gaps(self, fat_half):
        system = fat_half.system
        h = Fraction(1, 4096)
        for n in (0, 1, 2):
            ga, gb = (exact(system, x) for x in gap_row(system, n)[0])
            t = (ga + gb) / 2
            if t - h <= ga or t + h >= gb:
                continue
            second = (
                fat_half.value_exact(t + h)
                - 2 * fat_half.value_exact(t)
                + fat_half.value_exact(t - h)
            ) / h**2
            assert second == -1

    def test_float_second_difference_on_gap(self, fat_half):
        h = 2.0**-12
        t = 0.5
        second = (fat_half(t + h) - 2.0 * fat_half(t) + fat_half(t - h)) / h**2
        assert second == pytest.approx(-1.0, abs=1e-4)

    def test_matches_quadrature_of_integrand(self, fat_half):
        fn = fat_half.system
        knots = [float(exact(fat_half.system, t)) for t in fn.xs]
        for x in (0.1, 0.33, 0.5, 0.8):
            inner = [t for t in knots if 0.0 < t < x]
            ref, err = quad(lambda t: float(fn(t)) - t, 0.0, x, points=inner, limit=400)
            assert err < 1e-10
            assert float(fat_half(x)) == pytest.approx(ref, abs=1e-9)

    def test_sup_norm_exact_vs_dense_grid(self, fat_half):
        sup = float(fat_half.sup_norm_exact())
        grid = np.linspace(0.0, 1.0, 100001)
        dense = float(np.max(np.abs(fat_half(grid))))
        assert dense <= sup + 1e-15
        assert sup <= dense + 1e-6

    def test_derivative_is_f_minus_t(self, fat_half):
        fn = fat_half.system
        for t in (Fraction(1, 9), Fraction(9, 64), Fraction(5, 8)):
            assert fat_half.derivative_exact(t) == fn.value_exact(t) - t

    def test_truncation_error(self, sys_half):
        for n in (2, 4, 6):
            assert fat_F(build_cantor(sys_half.alphas[:n])).truncation_error == 2.0 ** (1 - n)

    @given(ratios=ratio_lists, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracles(self, ratios, data):
        fat = fat_F(build_cantor(ratios))
        rows = Rows.of(fat)
        points = data.draw(
            st.lists(st.fractions(min_value=0, max_value=1, max_denominator=1 << 12), max_size=20),
            label="points",
        )
        for x in [*points, *rows.xs]:
            assert fat.value_exact(x) == value_exact_oracle(rows, x)
            assert fat.system.value_exact(x) == iterate_value_oracle(rows, x)
        assert fat.sup_norm_exact() == sup_norm_exact_oracle(rows)

    @pytest.mark.parametrize(
        "alpha1, depth", [(Fraction(1, 2), 6), (Fraction(9, 10), 8)], ids=["half-6", "tenths-8"]
    )
    def test_sup_norm_evaluates_only_interior_vertices(self, alpha1, depth, monkeypatch):
        # F has a vertex strictly inside a piece exactly where the slope
        # algebra puts the zero of f_N - t there; the zeros at x = 0 and x = 1
        # sit on breakpoints, whose values F already holds
        fat = fat_F(build_cantor(default_alphas(alpha1, depth)))
        rows = Rows.of(fat)
        want = []
        for k in range(len(rows.xs) - 1):
            x0, x1 = rows.xs[k], rows.xs[k + 1]
            y0, y1 = rows.ys[k], rows.ys[k + 1]
            m = (y1 - y0) / (x1 - x0)
            if m != 1 and x0 < (y0 - m * x0) / (1 - m) < x1:
                want.append((k, (y0 - m * x0) / (1 - m)))
        seen = []
        piece = FatF._piece

        def spy(self, k, p, q):
            seen.append((k, Fraction(p, q)))
            return piece(self, k, p, q)

        monkeypatch.setattr(FatF, "_piece", spy)
        assert fat.sup_norm_exact() == sup_norm_exact_oracle(rows)
        assert seen == want and want

    def test_outside_support_zero(self, fat_half):
        assert float(fat_half(-0.2)) == 0.0
        assert float(fat_half(1.3)) == 0.0
        assert fat_half.derivative_exact(-0.1) == 0


class TestFractionConstruction:
    """The integer rows against the Fraction construction they replace."""

    @given(
        a1=st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda a: 0 < a < 1),
        depth=st.integers(1, 12),
    )
    @settings(max_examples=12, deadline=None)
    @example(a1=Fraction(9, 10), depth=12)
    def test_geometric_schedules_to_depth_12(self, a1, depth):
        assert_matches_fraction_construction(default_alphas(a1, depth), n_offsets=40)

    @given(ratios=ratio_lists)
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_schedules(self, ratios):
        assert_matches_fraction_construction(ratios, n_offsets=40)

    def test_cap_schedule_at_thousand_offsets(self):
        # the staircase cap's own certificate, at the offsets it is run with
        assert_matches_fraction_construction(default_alphas(Fraction(99, 100), 10), 1000)


class TestFindX0:
    def test_exact_two_level_example(self):
        fat = fat_F(build_cantor(HALF_EIGHTH))
        cert = find_x0(fat, n_offsets=1000)
        assert cert.x0 == Fraction(9, 64)
        assert cert.growth == Fraction(1, 2)
        assert cert.delta0 == Fraction(1, 20)
        assert cert.g_min == -Fraction(1, 32)
        assert cert.left_gap == (Fraction(7, 64), Fraction(9, 64))
        assert cert.left_defect == -Fraction(1, 2)

    @pytest.mark.parametrize("alpha1", [Fraction(1, 2), Fraction(9, 10)])
    def test_certified_growth_at_thousand_offsets(self, alpha1):
        fat = fat_F(build_cantor(default_alphas(alpha1, 8)))
        cert = find_x0(fat, n_offsets=1000)
        assert cert.offsets_checked == 1000
        assert cert.growth == alpha1 / (2 * (1 - alpha1))
        a1, b1 = fat.system.level(1)[0]
        assert exact(fat.system, a1) < cert.x0 < exact(fat.system, b1)
        assert cert.left_gap == left_gap_oracle(Rows.of(fat), cert.x0)

    @pytest.mark.parametrize("depth", [2, 3, 5, 8])
    @pytest.mark.parametrize("den", [3, 7, 10, 100])
    def test_x0_ends_a_gap_for_every_alpha1_over_den(self, den, depth):
        # from depth 2 the staircase is steeper than slope1 on every kept
        # interval, so g's leftmost minimizer opens one past the first
        for k in range(1, den):
            fat = fat_F(build_cantor(default_alphas(Fraction(k, den), depth)))
            cert = find_x0(fat, n_offsets=10)
            assert cert.left_gap == left_gap_oracle(Rows.of(fat), cert.x0)
            assert cert.left_gap[1] == cert.x0
            assert cert.left_defect == -Fraction(1, 2)

    @pytest.mark.parametrize("den", [3, 7, 10, 100])
    def test_depth_one_has_no_growth_point(self, den):
        # f_1 has slope slope1 on its kept interval: g is flat there, and its
        # leftmost minimizer is the interval's left end
        for k in range(1, den):
            fat = fat_F(build_cantor(default_alphas(Fraction(k, den), 1)))
            with pytest.raises(ConstructionError, match="interval boundary"):
                find_x0(fat, n_offsets=10)

    def test_growth_bound_float_spot_check(self, fat_half):
        cert = find_x0(fat_half, n_offsets=100)
        x0 = float(cert.x0)
        f0 = float(fat_half(x0))
        d0 = float(fat_half.derivative_exact(cert.x0))
        growth = float(cert.growth)
        rng = np.random.default_rng(3)
        for s in rng.uniform(0.0, float(cert.delta0), size=50):
            dev = float(fat_half(x0 + s)) - f0 - s * d0
            assert dev >= growth * s * s - 1e-12

    def test_left_side_exact_defect(self, fat_half):
        cert = find_x0(fat_half, n_offsets=100)
        assert cert.left_defect == -Fraction(1, 2)
        ga, gb = cert.left_gap
        s = -(gb - ga) / 4
        dev = (
            fat_half.value_exact(cert.x0 + s)
            - fat_half.value_exact(cert.x0)
            - s * fat_half.derivative_exact(cert.x0)
        )
        assert dev == -s * s / 2

    def test_supporting_line_minimality(self, fat_half):
        cert = find_x0(fat_half, n_offsets=10)
        fn = fat_half.system
        slope1 = 1 / (1 - fat_half.system.alphas[0])
        a1, b1 = fat_half.system.level(1)[0]
        f_x0 = fn.value_exact(cert.x0)
        for x in fn.xs:
            if a1 <= x <= b1:
                x = exact(fat_half.system, x)
                assert fn.value_exact(x) - f_x0 >= slope1 * (x - cert.x0)

    @given(ratios=ratio_lists, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, ratios, data):
        n = data.draw(st.integers(1, len(ratios)), label="n")
        fat = fat_F(build_cantor(ratios[:n]))
        try:
            expect = find_x0_oracle(fat, Rows.of(fat), 40)
        except ConstructionError as exc:
            with pytest.raises(ConstructionError, match=re.escape(str(exc))):
                find_x0(fat, n_offsets=40)
            return
        cert = find_x0(fat, n_offsets=40)
        for f in fields(X0Certificate):
            assert getattr(cert, f.name) == getattr(expect, f.name), f.name

    def test_offsets_validation(self, fat_half):
        with pytest.raises(ParameterError):
            find_x0(fat_half, n_offsets=0)

    def test_report_table_is_exact(self, fat_half, tmp_path):
        # the staircase-build table writes the certificate's numbers as exact decimals
        cert = find_x0(fat_half, n_offsets=10)
        params = {"alpha1": "1/2", "depth": fat_half.system.depth, "n_offsets": 10}
        config = {"scenario": "staircase-build", "params": params, "outdir": str(tmp_path)}
        table = run_scenario(config)[0]["tables"]["x0_certificate"]
        assert Fraction(table["x0"]) == cert.x0 and Fraction(table["g_min"]) == cert.g_min
        assert table["offsets_checked"] == 10


class TestBumpWindow:
    def test_plateau_and_support(self):
        assert bump_window(0.0) == 1.0
        assert bump_window(1.0) == 1.0
        assert bump_window(-0.7) == 1.0
        assert bump_window(2.0) == 0.0
        assert bump_window(5.3) == 0.0
        mid = bump_window(np.linspace(1.05, 1.95, 19))
        assert np.all((mid > 0.0) & (mid < 1.0))

    def test_even_and_monotone_on_transition(self):
        t = np.linspace(1.0, 2.0, 101)
        vals = bump_window(t)
        assert np.all(np.diff(vals) <= 0.0)
        assert np.allclose(bump_window(-t), vals, atol=0.0)

    def test_flat_joins(self):
        assert abs(bump_window(1.0 + 1e-4) - 1.0) < 1e-30
        assert bump_window(2.0 - 1e-4) < 1e-30

    @staticmethod
    def sampled_second_derivative_sup(h):
        t = np.arange(1.0 + h, 2.0 - h, h)
        vals = bump_window(np.stack([t - h, t, t + h]))
        return float(np.max(np.abs((vals[0] - 2.0 * vals[1] + vals[2]) / h**2)))

    def test_second_derivative_sup_is_the_sampled_stencil(self):
        # the 1e-5-step sample bump_window_second_derivative_sup used to take;
        # the window through math.exp instead of np.exp gives the same bits
        sampled = self.sampled_second_derivative_sup(1e-5)
        frozen = bump_window_second_derivative_sup()
        assert frozen.hex() == sampled.hex() == "0x1.3ae9d6760d43fp+3"

    def test_second_derivative_sup_stable_in_step(self):
        sup = bump_window_second_derivative_sup()
        assert sup == pytest.approx(self.sampled_second_derivative_sup(3e-5), rel=1e-2)
        assert sup == pytest.approx(9.84, rel=1e-2)


class TestHartogsDomain:
    def test_ball_cap_values(self):
        dom = hartogs_ball_domain(spacing=1.0 / 128.0)
        assert dom.cap.value(0j) == 0.0
        r = 0.5
        assert dom.cap.value(complex(r, 0.0)) == pytest.approx(
            0.5 * math.log(1.0 - r * r), abs=1e-12
        )
        assert dom.kind == "ball"
        assert dom.columns == [] and dom.params == {}

    def test_staircase_params(self, dom99, fat99):
        # c1 = 1 / (8 sup|F| sup|window''|), recomputed from the cap's own F
        # and window, caps the ring term 16 c1 F(x - 1/2) window''(4 y) at 2
        f_sup = float(fat99.sup_norm_exact())
        w2_sup = bump_window_second_derivative_sup()
        p = dom99.params
        assert p["c1"] == 1.0 / (8.0 * f_sup * w2_sup)
        assert 16.0 * p["c1"] * f_sup * w2_sup == pytest.approx(2.0, rel=1e-12)
        assert p["growth"] == 49.5  # exactly (1 / (1 - 99/100) - 1) / 2
        assert p["z0_real"] == float(find_x0(fat99, n_offsets=1).x0 + Fraction(1, 2))

    def test_growth_certified_at_cap_offsets(self, monkeypatch):
        # the cap stores no certificate, so record the one find_x0 call it makes
        calls = []

        def recording_find_x0(fat, n_offsets):
            calls.append((n_offsets, find_x0(fat, n_offsets=n_offsets)))
            return calls[-1][1]

        monkeypatch.setattr(staircase_module, "find_x0", recording_find_x0)
        hartogs_staircase(alpha1="99/100", spacing=1.0 / 8.0)
        [(n_offsets, cert)] = calls
        assert n_offsets == staircase_module._CAP_OFFSETS
        assert cert.offsets_checked == 1000

    def test_argument_validation(self):
        with pytest.raises(ParameterError):
            hartogs_staircase(alpha1=1.5)

    def test_cap_value_decomposition(self, dom99, fat99):
        h = dom99.spacing
        x = 0.5 + 2.0 * h
        y = 3.0 * h
        expect = 0.5 * math.log(1.0 - x * x - y * y) + dom99.params["c1"] * float(
            fat99(x - 0.5)
        ) * bump_window(4.0 * y)
        assert dom99.cap.value((x, y)) == pytest.approx(expect, abs=1e-12)

    def test_segment_intervals_shifted(self, dom99, fat99):
        kept = fat99.system.kept_union()
        assert len(kept) == 2**10
        assert dom99.columns == [(a + 0.5, b + 0.5) for a, b in kept]


class TestIntervalDistance:
    def test_exact_distances(self):
        ivs = [(0.0, 1.0), (2.0, 3.0)]
        pts = np.array([-0.5, 0.0, 0.5, 1.25, 1.9, 2.5, 3.4])
        out = interval_distance(pts, ivs)
        assert np.allclose(out, [0.5, 0.0, 0.0, 0.25, 0.1, 0.0, 0.4], atol=1e-12)

    def test_empty_union_rejected(self):
        with pytest.raises(ParameterError):
            interval_distance(np.array([0.0]), [])


class TestSubharmonicityScan:
    def test_ball_has_no_violations(self):
        scan = subharmonicity_scan(hartogs_ball_domain(spacing=1.0 / 128.0))
        assert scan.violating_count() == 0
        assert scan.max_laplacian() <= -2.0 + 1e-3
        assert scan.scanned_count() > 0

    def test_steep_staircase_violates_on_segment(self, scan99):
        assert scan99.violating_count() > 0
        _, _, _, dist_h, dist_e = scan99.violators()
        assert scan99.reach_2h == 2.0 * scan99.domain.spacing + 1e-12
        assert np.max(dist_h) <= scan99.reach_2h
        assert np.max(dist_e) > 0.1

    def test_far_field_strictly_superharmonic(self, scan99):
        assert scan99.far_field_max() <= -0.5

    def test_threshold_flags(self, scan99, scan50):
        assert not scan99._threshold_report()["growth_below_threshold"]
        assert scan50._threshold_report()["growth_below_threshold"]
        assert scan50.violating_count() == 0

    def test_mean_checks_side_by_side(self, scan99, scan50):
        mc99 = scan99.mean_checks
        mc50 = scan50.mean_checks
        assert mc99["positive"] > 0
        assert mc99["max_excess"] > 0.0
        assert mc50["positive"] == 0
        assert mc50["max_excess"] <= 0.0

    def test_scan_radius_validation(self, dom99):
        with pytest.raises(ParameterError):
            subharmonicity_scan(dom99, scan_radius=1.5)


# -- oracle: subharmonicity_scan as it stored whole-grid masks and distance
# copies and tested the segment nodes one circle_mean call at a time,
# verbatim but for its return value; violators(), far_field_max(),
# the alignment of violators() (tests/helpers_report.py) and mean_checks
# must equal what it reported


def whole_grid_scan(domain, scan_radius=0.96):
    cap = domain.cap
    lap = cap.laplacian_field()
    xs = cap.axis()
    gx, gy = cap.meshes()
    rr = np.hypot(gx, gy)
    scanned = np.isfinite(lap) & (rr <= scan_radius)
    lap_masked = np.where(scanned, lap, np.nan)
    violating = scanned & (lap_masked > 0.0)

    mean_checks = None
    if domain.kind == "staircase":
        dx = interval_distance(xs, domain.columns)
        dist_h = np.broadcast_to(dx[:, None], lap.shape).copy()
        dist_e = np.hypot(dist_h, gy)
        mean_checks = whole_grid_mean_checks(domain, scanned, dist_h, gy)
    else:
        dist_h = np.full(lap.shape, np.nan)
        dist_e = np.full(lap.shape, np.nan)
    dist_horizontal = np.where(scanned, dist_h, np.nan)
    dist_euclidean = np.where(scanned, dist_e, np.nan)

    viol = np.argwhere(violating)
    violators = [
        [float(xs[i]) for i, _ in viol],
        [float(xs[j]) for _, j in viol],
        [float(lap_masked[i, j]) for i, j in viol],
        [float(dist_horizontal[i, j]) for i, j in viol],
        [float(dist_euclidean[i, j]) for i, j in viol],
    ]
    far = lap_masked[scanned & (dist_horizontal > _FAR_FIELD)]
    dh = dist_horizontal[violating]
    de = dist_euclidean[violating]
    reach = 2.0 * domain.spacing + 1e-12
    return {
        "scanned_count": int(np.count_nonzero(scanned)),
        "violators": violators,
        "far_field_max": float(np.max(far)) if far.size else float("nan"),
        "alignment": {
            "count": int(dh.size),
            "max_horizontal": float(np.max(dh, initial=0.0)),
            "max_euclidean": float(np.max(de, initial=0.0)),
            "within_2h": bool(np.max(dh, initial=0.0) <= reach),
        },
        "mean_checks": mean_checks,
    }


def whole_grid_mean_checks(domain, scanned, dist_h, gy):
    cap = domain.cap
    h = cap.spacing
    radius = min(max(4.0 * h, 0.004), 0.0085)
    sel = scanned & (dist_h <= 2.0 * h) & (np.abs(gy) <= 2.5 * h)
    excesses = []
    for i, j in np.argwhere(sel):
        center = complex(*disc_node_coords(cap, (i, j)))
        excesses.append(circle_mean(cap, center, radius) - cap.value(center))
    if not excesses:
        return {"radius": radius, "nodes": 0, "positive": 0, "max_excess": float("nan")}
    arr = np.array(excesses)
    return {
        "radius": radius,
        "nodes": int(arr.size),
        "positive": int(np.count_nonzero(arr > 0.0)),
        "max_excess": float(np.max(arr)),
    }


# name -> (domain, scan radius); at radius 0.3 no node of the segment is scanned
SCAN_DOMAINS = {
    "ball": (lambda: hartogs_ball_domain(spacing=1.0 / 128.0), 0.96),
    "staircase-128": (lambda: hartogs_staircase(alpha1="99/100", spacing=1.0 / 128.0), 0.96),
    "staircase-300": (lambda: hartogs_staircase(alpha1="99/100", spacing=1.0 / 300.0), 0.96),
    "staircase-64-inner": (lambda: hartogs_staircase(alpha1="99/100", spacing=1.0 / 64.0), 0.3),
    "cantor": (lambda: zygmund_domain(1.0, 2, 1.0 / 64.0), 0.96),
}


@pytest.mark.parametrize("name", sorted(SCAN_DOMAINS))
def test_column_distances_report_what_whole_grid_copies_did(name):
    build, scan_radius = SCAN_DOMAINS[name]
    domain = build()
    scan = subharmonicity_scan(domain, scan_radius)
    want = whole_grid_scan(domain, scan_radius)
    got = {
        "scanned_count": scan.scanned_count(),
        "violators": [column.tolist() for column in scan.violators()],
        "far_field_max": scan.far_field_max(),
        "alignment": violation_alignment(scan),
        "mean_checks": scan.mean_checks,
    }
    # repr keeps every bit of a float and reads NaN as equal to NaN
    assert repr(got) == repr(want)
    assert (scan.violating_count() > 0) == (name in ("staircase-128", "staircase-300", "cantor"))
    assert (scan.mean_checks is not None) == name.startswith("staircase")


class TestSuperharmonicMeanExcess:
    def test_ball_strictly_negative(self):
        dom = hartogs_ball_domain(spacing=1.0 / 256.0)
        out = superharmonic_mean_excess(dom, 0.3 + 0.1j, [0.02, 0.01])
        assert all(v < 0.0 for v in out.values())

    def test_steep_staircase_positive_at_small_radii(self, dom99):
        z0 = complex(dom99.params["z0_real"], 0.0)
        out = superharmonic_mean_excess(dom99, z0, [0.01, 0.005])
        assert all(v > 0.0 for v in out.values())

    def test_shallow_staircase_stays_negative(self, dom50):
        z0 = complex(dom50.params["z0_real"], 0.0)
        out = superharmonic_mean_excess(dom50, z0, [0.02, 0.01, 0.005])
        assert all(v < 0.0 for v in out.values())
