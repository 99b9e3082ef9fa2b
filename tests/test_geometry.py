"""Hypercube operator tests: frozen examples plus randomized oracle checks."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cooptile.geometry import Hypercube

TOL = 1e-9


def box(lo, up) -> Hypercube:
    return Hypercube(np.asarray(lo, dtype=float), np.asarray(up, dtype=float))


# ── strategies ──────────────────────────────────────────────────────

finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def boxes(draw, dim=None):
    p = dim if dim is not None else draw(st.integers(1, 4))
    lo = np.array([draw(st.floats(-3, 3, **finite)) for _ in range(p)])
    width = np.array([draw(st.floats(0.05, 4, **finite)) for _ in range(p)])
    return Hypercube(lo, lo + width)


@st.composite
def box_pairs(draw):
    p = draw(st.integers(1, 4))
    return draw(boxes(dim=p)), draw(boxes(dim=p))


@st.composite
def box_with_free_point(draw):
    h = draw(boxes())
    return h, np.array([draw(st.floats(-10, 10, **finite)) for _ in range(h.dim)])


@st.composite
def box_with_point(draw):
    h = draw(boxes())
    fracs = np.array([draw(st.floats(0, 1, **finite)) for _ in range(h.dim)])
    return h, h.lower + fracs * (h.upper - h.lower)


# ── construction ────────────────────────────────────────────────────


class TestConstruction:
    def test_rejects_empty_extent(self):
        with pytest.raises(ValueError):
            box([0, 0], [1, 0])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            box([2], [1])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            box([0, 0], [1, 1, 1])

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            box([], [])

    def test_around(self):
        h = Hypercube.around(np.array([1.0, 2.0]), 0.5)
        assert np.array_equal(h.lower, [0.5, 1.5])
        assert np.array_equal(h.upper, [1.5, 2.5])

    def test_value_semantics(self):
        h = box([0, 0], [1, 1])
        with pytest.raises(ValueError):
            h.lower[0] = -1.0


# ── volume / contains ───────────────────────────────────────────────


class TestVolume:
    def test_unit_square(self):
        assert box([0, 0], [1, 1]).volume() == 1.0

    def test_rectangle(self):
        assert box([0, 0], [2, 3]).volume() == 6.0

    def test_cube(self):
        assert box([-1, -1, -1], [1, 1, 1]).volume() == 8.0


class TestContains:
    def test_interior(self):
        assert box([0, 0], [1, 1]).contains([0.5, 0.5])

    def test_boundary_inclusive(self):
        assert box([0, 0], [1, 1]).contains([0.0, 1.0])

    def test_outside(self):
        assert not box([0, 0], [1, 1]).contains([1.0001, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            box([0, 0], [1, 1]).contains([0.5])


# ── expansion / retraction ──────────────────────────────────────────


class TestExpandRetract:
    def test_expand_zero_is_identity(self):
        h = box([0, 0], [1, 1])
        g = h.expand(0.0)
        assert np.array_equal(g.lower, h.lower) and np.array_equal(g.upper, h.upper)

    def test_expand_square(self):
        g = box([0, 0], [1, 1]).expand(0.1)
        side = math.sqrt(1.1)  # 1.0488088481701516
        assert np.allclose(g.upper - g.lower, side, rtol=TOL)
        assert np.allclose(g.center, [0.5, 0.5], atol=TOL)
        assert g.volume() == pytest.approx(1.1, rel=TOL)

    def test_expand_doubles_volume(self):
        g = box([0, 0], [2, 2]).expand(1.0)
        assert g.volume() == pytest.approx(8.0, rel=TOL)

    def test_retract_zero_is_identity(self):
        h = box([-1, 2], [4, 5])
        g = h.retract(0.0)
        assert np.array_equal(g.lower, h.lower) and np.array_equal(g.upper, h.upper)

    def test_retract_square(self):
        g = box([0, 0], [1, 1]).retract(0.19)
        assert g.volume() == pytest.approx(0.81, rel=TOL)
        assert np.allclose(g.upper - g.lower, 0.9, rtol=TOL)

    def test_retract_cube_side(self):
        g = box([0, 0, 0], [1, 1, 1]).retract(0.271)  # 0.729 ** (1/3) == 0.9
        assert np.allclose(g.upper - g.lower, 0.9, rtol=TOL)

    def test_retract_rejects_full_collapse(self):
        with pytest.raises(ValueError):
            box([0], [1]).retract(1.0)

    def test_expand_rejects_negative(self):
        with pytest.raises(ValueError):
            box([0], [1]).expand(-0.1)

    @given(boxes(), st.floats(0, 0.9, **finite))
    @settings(max_examples=100)
    def test_volume_ratios(self, h, factor):
        assert h.expand(factor).volume() == pytest.approx((1 + factor) * h.volume(), rel=TOL)
        assert h.retract(factor).volume() == pytest.approx((1 - factor) * h.volume(), rel=TOL)

    @given(boxes(), st.floats(0, 0.9, **finite))
    @settings(max_examples=50)
    def test_rescale_preserves_center(self, h, factor):
        assert np.allclose(h.expand(factor).center, h.center, atol=1e-12)
        assert np.allclose(h.retract(factor).center, h.center, atol=1e-12)


# ── overlap ─────────────────────────────────────────────────────────


class TestIntersectionVolume:
    def test_identical(self):
        h = box([0, 0], [1, 1])
        assert h.intersection_volume(h) == 1.0

    def test_disjoint(self):
        assert box([0, 0], [1, 1]).intersection_volume(box([2, 2], [3, 3])) == 0.0

    def test_partial(self):
        assert box([0, 0], [2, 1]).intersection_volume(box([1, 0], [3, 1])) == 1.0

    def test_touching_faces_do_not_overlap(self):
        assert box([0, 0], [1, 1]).intersection_volume(box([1, 0], [2, 1])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            box([0], [1]).intersection_volume(box([0, 0], [1, 1]))


class TestOverlapIndex:
    def test_identical_is_one(self):
        h = box([0, 0], [1, 1])
        assert h.overlap_index(h) == 1.0

    def test_disjoint_is_zero(self):
        assert box([0, 0], [1, 1]).overlap_index(box([2, 2], [3, 3])) == 0.0

    def test_half(self):
        a, b = box([0, 0], [2, 1]), box([1, 0], [3, 1])
        assert a.overlap_index(b) == pytest.approx(0.5, rel=TOL)

    def test_containment_is_one(self):
        assert box([0, 0], [4, 4]).overlap_index(box([1, 1], [2, 2])) == 1.0

    @given(box_pairs())
    @settings(max_examples=100)
    def test_symmetric_and_bounded(self, pair):
        a, b = pair
        ab, ba = a.overlap_index(b), b.overlap_index(a)
        assert ab == ba
        assert 0.0 <= ab <= 1.0
        assert (ab == 0.0) == (a.intersection_volume(b) == 0.0)


# ── push ────────────────────────────────────────────────────────────


def push_oracle(pusher: Hypercube, pushee: Hypercube):
    """All separating single-bound cuts, ranked by removed volume then (dim, side).

    Removed volume is ``pushee.volume() * removed_width / side``, so the
    width fraction is the ranking key.
    """
    sides = pushee.upper - pushee.lower
    candidates = []
    for j in range(pusher.dim):
        if pushee.upper[j] > pusher.upper[j]:
            lo = pushee.lower.copy()
            lo[j] = pusher.upper[j]
            removed = (pusher.upper[j] - pushee.lower[j]) / sides[j]
            candidates.append(((removed, j, 0), Hypercube(lo, pushee.upper)))
        if pushee.lower[j] < pusher.lower[j]:
            up = pushee.upper.copy()
            up[j] = pusher.lower[j]
            removed = (pushee.upper[j] - pusher.lower[j]) / sides[j]
            candidates.append(((removed, j, 1), Hypercube(pushee.lower, up)))
    if not candidates:
        return None
    return min(candidates, key=lambda c: c[0])[1]


class TestPush:
    def test_single_separating_dimension(self):
        result = box([0, 0], [1, 1]).push(box([0.5, 0], [1.5, 1]))
        assert np.array_equal(result.lower, [1.0, 0.0])
        assert np.array_equal(result.upper, [1.5, 1.0])

    def test_tie_prefers_lowest_dimension(self):
        result = box([0, 0], [1, 1]).push(box([0.9, 0.9], [2, 2]))
        assert np.array_equal(result.lower, [1.0, 0.9])
        assert np.array_equal(result.upper, [2.0, 2.0])

    def test_full_containment_annihilates(self):
        assert box([0, 0], [3, 3]).push(box([1, 1], [2, 2])) is None

    def test_no_overlap_is_noop(self):
        pushee = box([2, 2], [3, 3])
        assert box([0, 0], [1, 1]).push(pushee) is pushee

    @given(box_pairs())
    @settings(max_examples=200)
    def test_matches_minimal_cut_oracle(self, pair):
        pusher, pushee = pair
        assume(pusher.intersection_volume(pushee) > 0.0)
        result = pusher.push(pushee)
        expected = push_oracle(pusher, pushee)
        if expected is None:
            assert result is None
        else:
            assert np.array_equal(result.lower, expected.lower)
            assert np.array_equal(result.upper, expected.upper)

    @given(box_pairs())
    @example((box([-1.5], [0.0]), box([-1.44510365e-117], [1.0])))  # cut below volume()'s rounding
    @settings(max_examples=200)
    def test_separation_and_shrinkage(self, pair):
        pusher, pushee = pair
        assume(pusher.intersection_volume(pushee) > 0.0)
        result = pusher.push(pushee)
        contained_extent = bool(
            np.all(pushee.lower >= pusher.lower) and np.all(pushee.upper <= pusher.upper)
        )
        if result is None:
            assert contained_extent
        else:
            assert not contained_extent
            assert pusher.intersection_volume(result) == 0.0
            assert np.all(result.lower >= pushee.lower)
            assert np.all(result.upper <= pushee.upper)
            # strictly smaller means a bound moved inward; volume() may round a tiny cut away
            assert np.any(result.lower > pushee.lower) or np.any(result.upper < pushee.upper)
            assert result.volume() <= pushee.volume()


# ── point exclusion ─────────────────────────────────────────────────


def exclude_oracle(h: Hypercube, x: np.ndarray, epsilon_scale: float):
    """All 2p single-bound cuts past x, ranked by removed-volume fraction.

    The removed volume is ``volume * ((x - l)/side + eps_scale)`` for a
    lower cut and mirrored for an upper cut; ranking by the fraction keeps
    mathematically tied cuts tied in float, resolved by (dim, side).
    """
    sides = h.upper - h.lower
    candidates = []
    for j in range(h.dim):
        eps = epsilon_scale * sides[j]
        if x[j] + eps < h.upper[j]:
            lo = h.lower.copy()
            lo[j] = x[j] + eps
            removed = (x[j] - h.lower[j]) / sides[j] + epsilon_scale
            candidates.append(((removed, j, 0), Hypercube(lo, h.upper)))
        if x[j] - eps > h.lower[j]:
            up = h.upper.copy()
            up[j] = x[j] - eps
            removed = (h.upper[j] - x[j]) / sides[j] + epsilon_scale
            candidates.append(((removed, j, 1), Hypercube(h.lower, up)))
    return min(candidates, key=lambda c: c[0])[1]


class TestExclude:
    def test_cheap_cut_near_upper_face(self):
        g = box([0, 0], [1, 1]).exclude([0.99, 0.5])
        assert not g.contains([0.99, 0.5])
        assert g.upper[0] < 0.99
        assert g.volume() == pytest.approx(0.99, abs=1e-4)

    def test_cheap_cut_near_lower_face(self):
        g = box([0, 0], [1, 1]).exclude([0.5, 0.01])
        assert not g.contains([0.5, 0.01])
        assert g.lower[1] > 0.01
        assert g.volume() == pytest.approx(0.99, abs=1e-4)

    def test_center_tie_moves_dim0_lower_bound(self):
        g = box([0, 0], [1, 1]).exclude([0.5, 0.5])
        assert g.lower[0] > 0.5  # lower-bound cut in dimension 0
        assert np.array_equal(g.upper, [1.0, 1.0])
        assert g.lower[1] == 0.0

    def test_not_contained_is_noop(self):
        h = box([0, 0], [1, 1])
        assert h.exclude([2.0, 2.0]) is h

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            box([0, 0], [1, 1]).exclude([0.5, 0.5], epsilon_scale=0.5)

    @given(box_with_point())
    @settings(max_examples=200)
    def test_matches_four_cut_oracle(self, case):
        h, x = case
        result = h.exclude(x)
        expected = exclude_oracle(h, x, 1e-6)
        assert np.array_equal(result.lower, expected.lower)
        assert np.array_equal(result.upper, expected.upper)

    @given(box_with_point())
    @settings(max_examples=200)
    def test_point_leaves_box_and_box_shrinks(self, case):
        h, x = case
        result = h.exclude(x)
        assert not result.contains(x)
        assert np.all(result.lower >= h.lower)
        assert np.all(result.upper <= h.upper)
        assert result.volume() < h.volume()


# ── enclosing / distance ────────────────────────────────────────────


class TestEnclose:
    def test_self_identity(self):
        h = box([0, 1], [2, 3])
        g = h.enclose(h)
        assert np.array_equal(g.lower, h.lower) and np.array_equal(g.upper, h.upper)

    def test_disjoint_boxes(self):
        g = box([0, 0], [1, 1]).enclose(box([2, 2], [3, 3]))
        assert np.array_equal(g.lower, [0.0, 0.0])
        assert np.array_equal(g.upper, [3.0, 3.0])

    def test_partial_overlap(self):
        g = box([0, 0], [1, 2]).enclose(box([0.5, 1], [0.8, 3]))
        assert np.array_equal(g.lower, [0.0, 0.0])
        assert np.array_equal(g.upper, [1.0, 3.0])

    @given(box_pairs())
    @settings(max_examples=100)
    def test_contains_both_commutative_idempotent(self, pair):
        a, b = pair
        g = a.enclose(b)
        assert np.all(g.lower <= a.lower) and np.all(g.upper >= a.upper)
        assert np.all(g.lower <= b.lower) and np.all(g.upper >= b.upper)
        h = b.enclose(a)
        assert np.array_equal(g.lower, h.lower) and np.array_equal(g.upper, h.upper)
        gg = g.enclose(g)
        assert np.array_equal(g.lower, gg.lower) and np.array_equal(g.upper, gg.upper)


class TestDistance:
    def test_inside_is_zero(self):
        assert box([0, 0], [1, 1]).distance_to([0.3, 0.9]) == 0.0

    def test_axis_gap(self):
        assert box([0, 0], [1, 1]).distance_to([2, 0.5]) == pytest.approx(1.0, rel=TOL)

    def test_corner_gap(self):
        assert box([0, 0], [1, 1]).distance_to([2, 2]) == pytest.approx(math.sqrt(2), rel=TOL)

    @given(box_with_free_point())
    @example((box([2.2e-313], [1.0]), np.array([0.0])))  # the squared gap underflows
    @settings(max_examples=150)
    def test_matches_projection_oracle(self, case):
        h, x = case
        projected = np.clip(x, h.lower, h.upper)
        expected = float(np.linalg.norm(x - projected))
        assert h.distance_to(x) == pytest.approx(expected, abs=TOL)
        assert (h.distance_to(x) == 0.0) == h.contains(x)
