"""Box function tests: frozen examples plus randomized oracle checks.

Boxes are ``(lower, upper)`` bound pairs, passed to the ``geometry``
functions as the engine passes its population rows. ``Hypercube`` keeps
only its checked constructor and ``contains``, tested here too.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cooptile.agents import EngineConfig
from cooptile.engine import Engine, Resolution
from cooptile.geometry import (
    Hypercube,
    around,
    checked,
    contains,
    enclose,
    exclude,
    overlap_index,
    overlap_volume,
    overlap_widths,
    push,
    rescale,
    volume,
)

TOL = 1e-9
EPS = EngineConfig().epsilon_scale  # the engine's default exclusion margin


def box(lo, up):
    return checked(np.asarray(lo, dtype=float), np.asarray(up, dtype=float))


def center(b) -> np.ndarray:
    return (b[0] + b[1]) / 2.0


def iv(a, b) -> float:
    """Intersection volume, computed as the engine computes it."""
    return overlap_volume(overlap_widths(*a, *b))


def same(a, b) -> bool:
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# ── strategies ──────────────────────────────────────────────────────

finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def boxes(draw, dim=None):
    p = dim if dim is not None else draw(st.integers(1, 4))
    lo = np.array([draw(st.floats(-3, 3, **finite)) for _ in range(p)])
    width = np.array([draw(st.floats(0.05, 4, **finite)) for _ in range(p)])
    return box(lo, lo + width)


@st.composite
def box_pairs(draw):
    p = draw(st.integers(1, 4))
    return draw(boxes(dim=p)), draw(boxes(dim=p))


@st.composite
def boxes_with_free_point(draw):
    p = draw(st.integers(1, 4))
    regions = draw(st.lists(boxes(dim=p), min_size=1, max_size=3))
    return regions, np.array([draw(st.floats(-10, 10, **finite)) for _ in range(p)])


@st.composite
def box_with_point(draw):
    h = draw(boxes())
    fracs = np.array([draw(st.floats(0, 1, **finite)) for _ in range(h[0].size)])
    return h, h[0] + fracs * (h[1] - h[0])


# ── construction ────────────────────────────────────────────────────


class TestConstruction:
    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            box([0, 0], [1, 0])
        with pytest.raises(ValueError):
            Hypercube([0, 0], [1, 0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            box([2], [1])
        with pytest.raises(ValueError):
            Hypercube([2], [1])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Hypercube([0, 0], [1, 1, 1])

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            Hypercube([], [])

    def test_around(self):
        lo, up = around(np.array([1.0, 2.0]), 0.5)
        assert np.array_equal(lo, [0.5, 1.5])
        assert np.array_equal(up, [1.5, 2.5])
        with pytest.raises(ValueError):
            around(np.array([1.0, 2.0]), 0.0)

    def test_value_semantics(self):
        h = Hypercube([0, 0], [1, 1])
        with pytest.raises(ValueError):
            h.lower[0] = -1.0


# ── volume / contains ───────────────────────────────────────────────


class TestVolume:
    def test_unit_square(self):
        assert volume(*box([0, 0], [1, 1])) == 1.0

    def test_rectangle(self):
        assert volume(*box([0, 0], [2, 3])) == 6.0

    def test_cube(self):
        assert volume(*box([-1, -1, -1], [1, 1, 1])) == 8.0


class TestContains:
    @staticmethod
    def both(lo, up, x) -> bool:
        inside = contains(*box(lo, up), np.asarray(x, dtype=float))
        assert Hypercube(lo, up).contains(x) == inside
        return inside

    def test_interior(self):
        assert self.both([0, 0], [1, 1], [0.5, 0.5])

    def test_boundary_inclusive(self):
        assert self.both([0, 0], [1, 1], [0.0, 1.0])

    def test_outside(self):
        assert not self.both([0, 0], [1, 1], [1.0001, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Hypercube([0, 0], [1, 1]).contains([0.5])


# ── rescaling (grow on factor > 0, shrink on factor < 0) ────────────


class TestExpandRetract:
    def test_expand_zero_is_identity(self):
        h = box([0, 0], [1, 1])
        g = rescale(*h, 0.0)
        assert g[0] is h[0] and g[1] is h[1]

    def test_expand_square(self):
        g = rescale(*box([0, 0], [1, 1]), 0.1)
        side = math.sqrt(1.1)  # 1.0488088481701516
        assert np.allclose(g[1] - g[0], side, rtol=TOL)
        assert np.allclose(center(g), [0.5, 0.5], atol=TOL)
        assert volume(*g) == pytest.approx(1.1, rel=TOL)

    def test_expand_doubles_volume(self):
        g = rescale(*box([0, 0], [2, 2]), 1.0)
        assert volume(*g) == pytest.approx(8.0, rel=TOL)

    def test_retract_zero_is_identity(self):
        h = box([-1, 2], [4, 5])
        g = rescale(*h, -0.0)
        assert g[0] is h[0] and g[1] is h[1]

    def test_retract_square(self):
        g = rescale(*box([0, 0], [1, 1]), -0.19)
        assert volume(*g) == pytest.approx(0.81, rel=TOL)
        assert np.allclose(g[1] - g[0], 0.9, rtol=TOL)

    def test_retract_cube_side(self):
        g = rescale(*box([0, 0, 0], [1, 1, 1]), -0.271)  # 0.729 ** (1/3) == 0.9
        assert np.allclose(g[1] - g[0], 0.9, rtol=TOL)

    def test_retract_rejects_full_collapse(self):
        with pytest.raises(ValueError):
            rescale(*box([0], [1]), -1.0)

    @given(boxes(), st.floats(0, 0.9, **finite))
    @settings(max_examples=100)
    def test_volume_ratios(self, h, factor):
        assert volume(*rescale(*h, factor)) == pytest.approx((1 + factor) * volume(*h), rel=TOL)
        assert volume(*rescale(*h, -factor)) == pytest.approx((1 - factor) * volume(*h), rel=TOL)

    @given(boxes(), st.floats(0, 0.9, **finite))
    @settings(max_examples=50)
    def test_rescale_preserves_center(self, h, factor):
        assert np.allclose(center(rescale(*h, factor)), center(h), atol=1e-12)
        assert np.allclose(center(rescale(*h, -factor)), center(h), atol=1e-12)


# ── float arithmetic against the numpy formulas ────────────────────


def numpy_rescale(lower, upper, factor):
    """``rescale`` as elementwise numpy ufuncs, in the same operation order."""
    if factor == 0.0:
        return lower, upper
    half = (upper - lower) * ((1.0 + factor) ** (1.0 / lower.size) / 2.0)
    center = (lower + upper) / 2.0
    return checked(center - half, center + half)


def numpy_volume(lower, upper):
    return float(np.prod(upper - lower))


def numpy_overlap_volume(widths):
    return 0.0 if (widths <= 0.0).any() else float(np.prod(widths))


def outcome(fn, *args):
    """The bytes of ``fn``'s result, or the type of the error it raises."""
    try:
        result = fn(*args)
    except ValueError as err:
        return type(err)
    return np.asarray(result, dtype=float).tobytes()


@st.composite
def scaled_boxes(draw, dim):
    """Boxes whose sides span many magnitudes, down to products that underflow."""
    lo = np.array([draw(st.floats(-1e6, 1e6, **finite)) for _ in range(dim)])
    width = np.array([draw(st.floats(1e-60, 1e6, **finite)) for _ in range(dim)])
    assume(((lo + width) > lo).all())
    return lo, lo + width


class TestFloatArithmetic:
    """The box functions that loop over Python floats or call ndarray reductions give the bytes
    of the elementwise numpy formulas, at every dimension, not only where ``1/d`` is exact."""

    @given(st.integers(1, 6).flatmap(scaled_boxes),
           st.one_of(st.sampled_from([0.0, -0.0, 0.1, -0.1, 0.2, -0.2, -0.5, 1.0, -0.999]),
                     st.floats(-0.999, 1.0, **finite)))
    @settings(max_examples=300)
    def test_rescale_and_volume_match_numpy_bytes(self, h, factor):
        assert outcome(rescale, *h, factor) == outcome(numpy_rescale, *h, factor)
        assert outcome(volume, *h) == outcome(numpy_volume, *h)

    @given(st.integers(1, 6).flatmap(lambda d: st.lists(
        st.one_of(st.floats(-1.0, 1e6, **finite), st.floats(1e-200, 1e-30, **finite)), min_size=d, max_size=d)))
    @settings(max_examples=300)
    def test_overlap_volume_matches_numpy_bytes(self, widths):
        widths = np.array(widths)
        assert outcome(overlap_volume, widths) == outcome(numpy_overlap_volume, widths)


# ── overlap ─────────────────────────────────────────────────────────


class TestIntersectionVolume:
    def test_identical(self):
        h = box([0, 0], [1, 1])
        assert iv(h, h) == 1.0

    def test_disjoint(self):
        assert iv(box([0, 0], [1, 1]), box([2, 2], [3, 3])) == 0.0

    def test_partial(self):
        assert iv(box([0, 0], [2, 1]), box([1, 0], [3, 1])) == 1.0

    def test_touching_faces_do_not_overlap(self):
        assert iv(box([0, 0], [1, 1]), box([1, 0], [2, 1])) == 0.0


class TestOverlapIndex:
    @staticmethod
    def index(a, b) -> float:
        return overlap_index(iv(a, b), *a, *b)

    def test_identical_is_one(self):
        h = box([0, 0], [1, 1])
        assert self.index(h, h) == 1.0

    def test_disjoint_is_zero(self):
        assert self.index(box([0, 0], [1, 1]), box([2, 2], [3, 3])) == 0.0

    def test_half(self):
        a, b = box([0, 0], [2, 1]), box([1, 0], [3, 1])
        assert self.index(a, b) == pytest.approx(0.5, rel=TOL)

    def test_containment_is_one(self):
        assert self.index(box([0, 0], [4, 4]), box([1, 1], [2, 2])) == 1.0

    @given(box_pairs())
    @settings(max_examples=100)
    def test_symmetric_and_bounded(self, pair):
        a, b = pair
        ab, ba = self.index(a, b), self.index(b, a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0
        assert (ab == 0.0) == (iv(a, b) == 0.0)


# ── push ────────────────────────────────────────────────────────────


def push_oracle(pusher, pushee):
    """All separating single-bound cuts, ranked by removed volume then (dim, side).

    Removed volume is ``volume(pushee) * removed_width / side``, so the
    width fraction is the ranking key.
    """
    (p_lo, p_up), (lo0, up0) = pusher, pushee
    sides = up0 - lo0
    candidates = []
    for j in range(p_lo.size):
        if up0[j] > p_up[j]:
            lo = lo0.copy()
            lo[j] = p_up[j]
            removed = (p_up[j] - lo0[j]) / sides[j]
            candidates.append(((removed, j, 0), box(lo, up0)))
        if lo0[j] < p_lo[j]:
            up = up0.copy()
            up[j] = p_lo[j]
            removed = (up0[j] - p_lo[j]) / sides[j]
            candidates.append(((removed, j, 1), box(lo0, up)))
    if not candidates:
        return None
    return min(candidates, key=lambda c: c[0])[1]


class TestPush:
    def test_single_separating_dimension(self):
        lo, up = push(*box([0, 0], [1, 1]), *box([0.5, 0], [1.5, 1]))
        assert np.array_equal(lo, [1.0, 0.0])
        assert np.array_equal(up, [1.5, 1.0])

    def test_tie_prefers_lowest_dimension(self):
        lo, up = push(*box([0, 0], [1, 1]), *box([0.9, 0.9], [2, 2]))
        assert np.array_equal(lo, [1.0, 0.9])
        assert np.array_equal(up, [2.0, 2.0])

    def test_full_containment_annihilates(self):
        assert push(*box([0, 0], [3, 3]), *box([1, 1], [2, 2])) is None

    @given(box_pairs())
    @settings(max_examples=200)
    def test_matches_minimal_cut_oracle(self, pair):
        pusher, pushee = pair
        assume(iv(pusher, pushee) > 0.0)
        result = push(*pusher, *pushee)
        expected = push_oracle(pusher, pushee)
        if expected is None:
            assert result is None
        else:
            assert same(result, expected)

    @given(box_pairs())
    @example((box([-1.5], [0.0]), box([-1.44510365e-117], [1.0])))  # cut below volume()'s rounding
    @settings(max_examples=200)
    def test_separation_and_shrinkage(self, pair):
        (p_lo, p_up), (lo0, up0) = pusher, pushee = pair
        assume(iv(pusher, pushee) > 0.0)
        result = push(*pusher, *pushee)
        contained_extent = bool(np.all(lo0 >= p_lo) and np.all(up0 <= p_up))
        if result is None:
            assert contained_extent
        else:
            lo, up = result
            assert not contained_extent
            assert iv(pusher, result) == 0.0
            assert np.all(lo >= lo0)
            assert np.all(up <= up0)
            # strictly smaller means a bound moved inward; volume() may round a tiny cut away
            assert np.any(lo > lo0) or np.any(up < up0)
            assert volume(*result) <= volume(*pushee)


# ── point exclusion ─────────────────────────────────────────────────


def exclude_oracle(h, x: np.ndarray, epsilon_scale: float):
    """All 2p single-bound cuts past x, ranked by removed-volume fraction.

    The removed volume is ``volume * ((x - l)/side + eps_scale)`` for a
    lower cut and mirrored for an upper cut; ranking by the fraction keeps
    mathematically tied cuts tied in float, resolved by (dim, side).
    """
    h_lo, h_up = h
    sides = h_up - h_lo
    candidates = []
    for j in range(h_lo.size):
        eps = epsilon_scale * sides[j]
        if x[j] + eps < h_up[j]:
            lo = h_lo.copy()
            lo[j] = x[j] + eps
            removed = (x[j] - h_lo[j]) / sides[j] + epsilon_scale
            candidates.append(((removed, j, 0), box(lo, h_up)))
        if x[j] - eps > h_lo[j]:
            up = h_up.copy()
            up[j] = x[j] - eps
            removed = (h_up[j] - x[j]) / sides[j] + epsilon_scale
            candidates.append(((removed, j, 1), box(h_lo, up)))
    return min(candidates, key=lambda c: c[0])[1]


class TestExclude:
    def test_cheap_cut_near_upper_face(self):
        x = np.array([0.99, 0.5])
        g = exclude(*box([0, 0], [1, 1]), x, EPS)
        assert not contains(*g, x)
        assert g[1][0] < 0.99
        assert volume(*g) == pytest.approx(0.99, abs=1e-4)

    def test_cheap_cut_near_lower_face(self):
        x = np.array([0.5, 0.01])
        g = exclude(*box([0, 0], [1, 1]), x, EPS)
        assert not contains(*g, x)
        assert g[0][1] > 0.01
        assert volume(*g) == pytest.approx(0.99, abs=1e-4)

    def test_center_tie_moves_dim0_lower_bound(self):
        lo, up = exclude(*box([0, 0], [1, 1]), np.array([0.5, 0.5]), EPS)
        assert lo[0] > 0.5  # lower-bound cut in dimension 0
        assert np.array_equal(up, [1.0, 1.0])
        assert lo[1] == 0.0

    def test_not_contained_is_noop(self):
        h = box([0, 0], [1, 1])
        g = exclude(*h, np.array([2.0, 2.0]), EPS)
        assert g[0] is h[0] and g[1] is h[1]

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            exclude(*box([0, 0], [1, 1]), np.array([0.5, 0.5]), 0.5)

    @given(box_with_point())
    @settings(max_examples=200)
    def test_matches_four_cut_oracle(self, case):
        h, x = case
        assert same(exclude(*h, x, EPS), exclude_oracle(h, x, EPS))

    @given(box_with_point())
    @settings(max_examples=200)
    def test_point_leaves_box_and_box_shrinks(self, case):
        h, x = case
        lo, up = result = exclude(*h, x, EPS)
        assert not contains(*result, x)
        assert np.all(lo >= h[0])
        assert np.all(up <= h[1])
        assert volume(*result) < volume(*h)


# ── enclosing ───────────────────────────────────────────────────────


class TestEnclose:
    def test_self_identity(self):
        h = box([0, 1], [2, 3])
        assert same(enclose(*h, *h), h)

    def test_disjoint_boxes(self):
        lo, up = enclose(*box([0, 0], [1, 1]), *box([2, 2], [3, 3]))
        assert np.array_equal(lo, [0.0, 0.0])
        assert np.array_equal(up, [3.0, 3.0])

    def test_partial_overlap(self):
        lo, up = enclose(*box([0, 0], [1, 2]), *box([0.5, 1], [0.8, 3]))
        assert np.array_equal(lo, [0.0, 0.0])
        assert np.array_equal(up, [1.0, 3.0])

    @given(box_pairs())
    @settings(max_examples=100)
    def test_contains_both_commutative_idempotent(self, pair):
        a, b = pair
        g = enclose(*a, *b)
        assert np.all(g[0] <= a[0]) and np.all(g[1] >= a[1])
        assert np.all(g[0] <= b[0]) and np.all(g[1] >= b[1])
        assert same(g, enclose(*b, *a))
        assert same(g, enclose(*g, *g))


# ── distance: the engine's nearest-agent choice ─────────────────────


def engine_of(*regions) -> Engine:
    """A frozen engine of zero-model agents holding ``regions``, ids in order."""
    agents = [
        {"id": i, "region": {"lower": lo.tolist(), "upper": up.tolist()}, "confidence": 0.0,
         "model": {"weights": [0.0] * lo.size, "bias": 0.0, "step_count": 0}}
        for i, (lo, up) in enumerate(regions)
    ]
    return Engine.from_snapshot({"config": EngineConfig().to_dict(), "model_config": {"kind": "pa1"},
                                 "dim": regions[0][0].size, "cycle": 0, "next_agent_id": len(agents),
                                 "agents": agents})


class TestDistance:
    """The distance from a point to a box exists only in the engine's fallback for an
    uncovered point, which the nearest agent answers (ties to the lowest id)."""

    @staticmethod
    def nearest(x, *regions) -> int:
        report = engine_of(*regions).exploit_step(np.asarray(x, dtype=float))
        assert [e.resolution for e in report.ncs_events] == [Resolution.NEAREST]
        return report.winner_id

    def test_inside_is_zero(self):
        report = engine_of(box([0, 0], [1, 1]), box([2, 2], [3, 3])).exploit_step(np.array([0.3, 0.9]))
        assert report.activated_ids == [0] and report.winner_id == 0 and report.ncs_events == []

    def test_axis_gap(self):
        # agent 0 lies 1.0 from the point along axis 0, agent 1 1.0 +- 1e-6 on the other side
        x = [2.0, 0.5]
        assert self.nearest(x, box([0, 0], [1, 1]), box([3 + 1e-6, 0], [4, 1])) == 0
        assert self.nearest(x, box([0, 0], [1, 1]), box([3 - 1e-6, 0], [4, 1])) == 1

    def test_corner_gap(self):
        # agent 0's corner lies sqrt(2) from the point, agent 1's face sqrt(2) +- 1e-6
        x, far = [2.0, 2.0], 2.0 + math.sqrt(2)
        assert self.nearest(x, box([0, 0], [1, 1]), box([far + 1e-6, 0], [6, 4])) == 0
        assert self.nearest(x, box([0, 0], [1, 1]), box([far - 1e-6, 0], [6, 4])) == 1

    @given(boxes_with_free_point())
    @example(([box([-1.0], [-4.4e-313]), box([2.2e-313], [1.0])], np.array([0.0])))  # squared gaps underflow
    @settings(max_examples=150)
    def test_matches_projection_oracle(self, case):
        regions, x = case
        # math.dist scales before squaring, so subnormal gaps stay apart
        distances = [math.dist(x, np.clip(x, lo, up)) for lo, up in regions]
        report = engine_of(*regions).exploit_step(x)
        assert (report.activated_ids == []) == (min(distances) > 0.0)
        assert (min(distances) == 0.0) == any(contains(lo, up, x) for lo, up in regions)
        if not report.activated_ids:
            assert distances[report.winner_id] == pytest.approx(min(distances), rel=TOL, abs=0.0)
