import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokeslab.grid import Field, Grid, integrate
from stokeslab.corpus import corpus_seeds, random_smooth_field
from stokeslab.weights import (
    _cube_points,
    _cube_product,
    HypothesisSet,
    RadialWeight,
    admissible_range,
    aq_check,
    feasibility,
    feasibility_scan,
    maximal_function,
    mollifier_sup,
    sobolev_embedding_ratio,
)


def test_radial_weight_forms():
    w = RadialWeight(-1.5, "homogeneous")
    r2 = np.array([0.0, 1.0, 4.0])
    vals = w.values_r2(r2)
    assert np.isinf(vals[0])
    assert vals[1] == pytest.approx(1.0)
    assert vals[2] == pytest.approx(2.0**-1.5)
    wp = RadialWeight(2.0, "homogeneous")
    assert wp.values_r2(np.array([0.0]))[0] == 0.0
    with pytest.raises(ValueError):
        RadialWeight(1.0, "radial")
    with pytest.raises(ValueError):
        RadialWeight(np.inf)


def test_aq_constant_weight():
    rep = aq_check(RadialWeight(0.0), 2.0)
    assert rep.verdict == "finite"
    assert rep.sup_estimate == pytest.approx(1.0, abs=1e-12)


def test_aq_bracket_alpha2_finite():
    # alpha = 2 lies inside (-n, n(q-1)) = (-3, 3) for q = 2, n = 3
    rep = aq_check(RadialWeight(2.0), 2.0)
    assert rep.verdict == "finite"


def test_aq_homogeneous_minus3_diverges_on_shrinking_cubes():
    sides = [10.0**e for e in np.linspace(-3, 0.2, 12)]
    rep = aq_check(RadialWeight(-3.0, "homogeneous"), 2.0, cube_sides=sides,
                   centers=[0.0])
    assert rep.verdict == "diverging"


def test_aq_homogeneous_minus2_finite_on_shrinking_cubes():
    sides = [10.0**e for e in np.linspace(-3, 0.2, 12)]
    rep = aq_check(RadialWeight(-2.0, "homogeneous"), 2.0, cube_sides=sides,
                   centers=[0.0])
    assert rep.verdict == "finite"


def test_aq_growth_over_last_ladder_step_diverges():
    # every refinement jump stays below the diverging threshold, so only the
    # running sup's growth from side 10 to side 100 can give this verdict
    rep = aq_check(RadialWeight(3.0), 2.0, cube_sides=[0.1, 1, 10, 100], centers=[0.0])
    assert max(s.refinement_jump for s in rep.samples) < 0.17
    assert rep.verdict == "diverging"


@pytest.mark.parametrize("alpha,verdict", [
    (-2.0, "finite"),
    (-1.0, "finite"),
    (1.0, "finite"),
    (2.0, "finite"),
    (-3.0, "diverging"),
    (-4.0, "diverging"),
    (2.8, "inconclusive"),    # largest refinement jump 0.128, between the two thresholds
])
def test_aq_bracket_family(alpha, verdict):
    rep = aq_check(RadialWeight(alpha), 2.0)
    assert rep.verdict == verdict


def test_aq_sup_at_least_one():
    for alpha in (-2.0, 0.0, 1.5):
        rep = aq_check(RadialWeight(alpha), 2.0)
        assert rep.sup_estimate >= 1.0 - 1e-9
        assert all(s.product >= 1.0 - 1e-9 for s in rep.samples)


def test_aq_rejections():
    with pytest.raises(ValueError):
        aq_check(RadialWeight(1.0), 1.0)
    with pytest.raises(ValueError):
        aq_check(RadialWeight(1.0), 2.0, cube_sides=[1.0, 2.0, 4.0])
    # no cube center would leave every side's sup at 0.0, below Jensen's 1
    with pytest.raises(ValueError, match="at least one cube center"):
        aq_check(RadialWeight(0.0), 2.0, centers=[])
    for n in (0, -1):
        with pytest.raises(ValueError, match="dimension n must be >= 1"):
            aq_check(RadialWeight(0.0), 2.0, n=n)
    with pytest.raises(ValueError, match="must be finite"):
        aq_check(RadialWeight(1.0), np.inf)


def test_admissible_range_values():
    assert admissible_range(3.0, 3) == pytest.approx((-1.0, 2.0))
    assert admissible_range(2.0, 4) == pytest.approx((-2.0, 2.0))
    with pytest.raises(ValueError):
        admissible_range(1.0, 3)
    with pytest.raises(ValueError, match="must be finite"):
        admissible_range(np.inf, 3)
    for n in (0, -2):
        with pytest.raises(ValueError, match="dimension n must be >= 1"):
            admissible_range(2.0, n)


@pytest.mark.parametrize("s", [-1.0, 0.25, 1.0])
def test_admissible_range_cross_check_with_aq(s):
    # s inside (-n/q, n/q') for q = 2, n = 3 puts <x>^(sq) in the class
    q = 2.0
    lo, hi = admissible_range(q, 3)
    assert lo < s < hi
    rep = aq_check(RadialWeight(s * q), q)
    assert rep.verdict == "finite"


def test_maximal_of_constant():
    g = Grid(3, 32, 8.0)
    mf = maximal_function(Field(g, np.full(g.shape, -1.5)))
    assert np.abs(mf.data - 1.5).max() < 1e-12


def test_maximal_dominates_input():
    g = Grid(3, 32, 8.0)
    f = random_smooth_field(g, 3)
    mf = maximal_function(f)
    assert np.all(mf.data >= np.abs(f.data) - 1e-13)


def test_maximal_mollifier_domination_gaussian():
    g = Grid(3, 64, 16.0)
    f = Field(g, np.exp(-g.radius_sq()))
    mf = maximal_function(f)
    ms = mollifier_sup(f)
    assert np.all(ms.data <= mf.data * (1 + 1e-12) + 1e-13)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=4, max_value=24).map(lambda half: 2 * half),
       st.floats(min_value=0.5, max_value=20.0), st.integers(min_value=0, max_value=2**32 - 1))
def test_maximal_dominates_input_and_mollifier_on_any_grid(N, L, seed):
    # every lattice ball is centrally symmetric and the radius-h ball is the
    # centre alone, whether or not the offsets h d are exact floats
    g = Grid(3, N, L)
    f = random_smooth_field(g, seed, components=1)
    mf = maximal_function(f)
    assert np.all(mf.data >= f.magnitude() - 1e-13)
    assert np.all(mollifier_sup(f).data <= mf.data * (1 + 1e-12))


def test_maximal_weighted_operator_norm():
    g = Grid(3, 64, 16.0)
    for seed in corpus_seeds(99, 5):
        f = random_smooth_field(g, seed)
        ratio = integrate(maximal_function(f), 2, 1.0) / integrate(f, 2, 1.0)
        assert 1.0 <= ratio <= 10.0


def test_maximal_grows_with_ladder():
    g = Grid(3, 32, 8.0)
    f = random_smooth_field(g, 12)
    ladder = np.geomspace(g.h, g.L, 6)
    refined = np.union1d(ladder, np.geomspace(1.3 * g.h, 0.9 * g.L, 17))
    coarse = maximal_function(f, ladder)
    fine = maximal_function(f, refined)
    assert np.all(fine.data >= coarse.data - 1e-13)


def test_hypothesis_set_derived_indices():
    hs = HypothesisSet(n=5, q1=4.0, q2=3.0)
    assert hs.q12 == pytest.approx(12.0 / 7.0)
    assert hs.q2_star == pytest.approx(7.5)
    assert hs.q22_star == pytest.approx(15.0 / 7.0)
    with pytest.raises(ValueError):
        HypothesisSet(n=5, q1=5.0, q2=3.0)
    with pytest.raises(ValueError):
        HypothesisSet(n=5, q1=4.0, q2=2.0)


def test_feasibility_example():
    window = feasibility(5, 4.0, 3.0)
    assert window.lo == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert window.hi == pytest.approx(25.0 / 24.0, abs=1e-12)
    assert not window.empty


def test_feasibility_lower_bound_activates():
    window = feasibility(5, 4.0, 2.6)
    assert window.lo == pytest.approx(2.0 - 5.0 / 2.6, abs=1e-12)
    assert not window.empty


def test_feasibility_monotone_in_dimension():
    # with q1, q2 at fixed fractions of n, growing n never loses feasibility
    seen_nonempty = False
    for n in (4, 5, 6, 8, 12, 20):
        window = feasibility(n, 0.8 * n, 0.6 * n)
        if seen_nonempty:
            assert not window.empty
        seen_nonempty = seen_nonempty or not window.empty
    assert seen_nonempty


def test_feasibility_scan_n3_empty():
    total, nonempty, widest = feasibility_scan(3, 0.01)
    assert total > 10000
    assert nonempty == 0
    assert widest <= 0.0


@pytest.mark.parametrize("step", [10.0, 1.6])   # no q1 and no q2 / q2 only
def test_feasibility_scan_rejects_empty_grid(step):
    with pytest.raises(ValueError, match=r"no \(q1, q2\) grid points"):
        feasibility_scan(3, step)


def test_oversized_grids_are_refused_before_allocation():
    # 16^7 = 2^28 fine cube midpoints, and about 2e6 x 1.5e6 scan points: both
    # are refused from their sizes, so no array of them is ever traced
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"16\^7 midpoints"):
            aq_check(RadialWeight(2.0), 2.0, n=7)
        with pytest.raises(ValueError, match="more than 16777216"):
            feasibility_scan(3, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _product(a1, a2, q):
    return a1 * a2 ** (q - 1.0) if np.isfinite(a1) and np.isfinite(a2) else np.inf


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_grouped_cube_rule_is_the_full_midpoint_mean(n):
    # against np.mean over the full meshgrid at aq_check's two resolutions;
    # m = 9 at n = 5 puts a midpoint on the origin, where the homogeneous
    # weight is infinite
    m0 = max(8, int(np.ceil(32768 ** (1.0 / n))))
    infinite = 0
    for m in (m0, 2 * m0):
        grouped = _cube_points(n, m)
        assert grouped[0].size < m**n or n == 1
        assert abs(grouped[2].sum() - 1.0) < 1e-14
        ax = (np.arange(m) + 0.5) / m - 0.5
        pts = np.meshgrid(*([ax] * n), indexing="ij")
        u_sq = sum(p**2 for p in pts)
        for c in (0.0, 1.0, 64.0):
            for side in (1.0 / 8.0, 1.0, 1024.0):
                r_sq = c**2 + 2.0 * c * side * pts[0] + side**2 * u_sq
                for w in (RadialWeight(1.5), RadialWeight(-2.0, "homogeneous")):
                    with np.errstate(divide="ignore"):
                        vals = w.values_r2(r_sq)
                    for q in (1.5, 2.0, 3.0):
                        with np.errstate(divide="ignore"):
                            a2 = np.mean(vals ** (-1.0 / (q - 1.0)))
                        want = _product(np.mean(vals), a2, q)
                        got = _cube_product(w, q, c, side, *grouped)
                        if np.isinf(want):
                            infinite += 1
                            assert np.isinf(got)
                        else:
                            assert abs(got / want - 1.0) <= 1e-14
    assert infinite == (9 if n == 5 else 0)


@pytest.mark.parametrize("q", [1.01, 1.001])
def test_cube_products_near_q_one_keep_the_jensen_bound(q):
    # w^(-1/(q-1)) underflowed to 0 on whole cubes, and the product with it
    # (below Jensen's bound of 1) was divided by in the refinement jump
    verdicts = {}
    for alpha in (2.0, 0.5, -2.0, 0.0):
        report = aq_check(RadialWeight(alpha), q)
        assert all(1.0 - 1e-9 <= s.product < np.inf for s in report.samples)
        verdicts[alpha] = report.verdict
    # <x>^alpha lies in A_q exactly for -3/q < alpha < 3 (1 - 1/q)
    assert verdicts == {2.0: "diverging", 0.5: "diverging", -2.0: "finite", 0.0: "finite"}


def test_huge_cube_sides_are_refused_before_any_product():
    # side^2 = 1e600 overflows; it used to raise OverflowError mid-ladder
    with pytest.raises(ValueError, match="overflows"):
        aq_check(RadialWeight(1.0), 2.0, cube_sides=[1e-3, 1e300])
    with pytest.raises(ValueError, match="overflows"):
        aq_check(RadialWeight(1.0), 2.0, cube_sides=[1e-3, 1.0], centers=[1e200])
    aq_check(RadialWeight(1.0), 2.0, cube_sides=[1e-3, 1e150])


def test_feasibility_scan_matches_pointwise_windows():
    # the scan evaluates HypothesisSet on arrays; compare with scalar windows
    n, step = 5, 0.25
    total, nonempty, widest = feasibility_scan(n, step)
    widths = [
        feasibility(n, q1, q2).hi - feasibility(n, q1, q2).lo
        for q1 in np.arange(1.0 + step, float(n), step)
        for q2 in np.arange(n / 2.0 + step, float(n), step)
    ]
    assert total == len(widths)
    assert nonempty == sum(w > 0.0 for w in widths)
    assert widest == max(widths)


def test_embedding_ratio_bounded_and_stable():
    from refinement import refine_field

    g = Grid(3, 32, 16.0)
    coarse, fine = 0.0, 0.0
    for seed in corpus_seeds(7, 3):
        f = random_smooth_field(g, seed)
        coarse = max(coarse, sobolev_embedding_ratio(f, 2.0, 1.0))
        fine = max(fine, sobolev_embedding_ratio(refine_field(f), 2.0, 1.0))
    assert abs(fine / coarse - 1.0) <= 0.1


def test_embedding_rejects_flat_input():
    g = Grid(3, 16, 4.0)
    with pytest.raises(ValueError):
        sobolev_embedding_ratio(Field(g, np.ones(g.shape)), 2.0, 1.0)


def _aq_ladder_cubes():
    """aq_check's coarse rule at n = 3 and its default ladder of cubes, for
    the weights <x>^2, <x>^-2 and <x>^-3."""
    grouped = _cube_points(3, 32)
    for alpha in (2.0, -2.0, -3.0):
        for c in (0.0, 1.0, 8.0, 64.0):
            for side in (2.0**k for k in range(-3, 11)):
                yield RadialWeight(alpha), c, side, grouped


def test_cube_product_tracks_a_longdouble_reference_over_the_q_range():
    # the product a1 a2^(q-1) evaluated in 80-bit long double; the largest
    # relative error in float64 is 2.1e-15 at q = 10 and at most 1.3e-15 from
    # q = 30 on, where the direct a2^(q-1) grows with q to 1.7e-12 at 1e4
    ld = np.longdouble
    qs = (1.01, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0, 1e4)
    worst = dict.fromkeys(qs, 0.0)
    for w, c, side, (u1, u_sq, weights) in _aq_ladder_cubes():
        r_sq = ld(c) ** 2 + 2 * ld(c) * ld(side) * u1.astype(ld) + ld(side) ** 2 * u_sq.astype(ld)
        vals = (1 + r_sq) ** (ld(w.s) / 2)
        low = vals.min()
        a1 = np.sum(weights.astype(ld) * (vals / low))
        for q in qs:
            a2 = np.sum(weights.astype(ld) * (low / vals) ** (1 / (ld(q) - 1)))
            want = a1 * a2 ** (ld(q) - 1)
            got = _cube_product(w, q, c, side, u1, u_sq, weights)
            worst[q] = max(worst[q], float(abs(ld(got) / want - 1)))
    assert max(worst.values()) <= 3e-15, worst


@pytest.mark.parametrize("q, tol", [(1e12, 1e-12), (1e20, 4e-15)])
def test_cube_product_tends_to_the_a_infinity_constant(q, tol):
    # as q -> oo the product tends to avg(v) / geomean(v) (Hruscev 1984); the
    # power mean of order 1/(q-1) exceeds the geometric mean by about
    # var(log v) / (2(q-1)), at most 7.8e-13 at q = 1e12 on this ladder
    for w, c, side, (u1, u_sq, weights) in _aq_ladder_cubes():
        vals = w.values_r2(c**2 + 2.0 * c * side * u1 + side**2 * u_sq)
        limit = np.sum(weights * vals) / np.exp(np.sum(weights * np.log(vals)))
        assert abs(_cube_product(w, q, c, side, u1, u_sq, weights) / limit - 1.0) <= tol


@pytest.mark.parametrize("q", [1e12, 1e20])
def test_huge_q_keeps_the_jensen_bound_and_the_verdicts(q):
    # <x>^2 lies in every A_q with q > 5/3; <x>^-3 in none
    report = aq_check(RadialWeight(2.0), q)
    assert report.verdict == "finite" and abs(report.sup_estimate - 1.30409) < 1e-5
    assert aq_check(RadialWeight(-3.0), q).verdict == "diverging"
