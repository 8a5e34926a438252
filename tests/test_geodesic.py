from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import levelflow as lf
from levelflow import geodesic as geo
from levelflow.errors import InvalidInputError

from conftest import uniform_field


def raw(speed, seed):
    """The unnormalized solution that solve_eikonal normalizes (float speed, bool seed)."""
    return geo._solve(speed, seed, geo.EXACT_INIT_RADIUS)


def stencil_reference(radius: int):
    """(dr, dc, segment length, sample offsets) for every offset within radius.

    Offsets are the nearest-pixel points at <= 1 px spacing along the
    segment from (0, 0) to (dr, dc); repeats are kept, each is one sample.
    """
    out = []
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            step = float(np.hypot(dr, dc))
            if step == 0 or step > radius:
                continue
            n_samples = max(3, int(np.ceil(2.0 * step)) + 1)
            samples = tuple(
                (int(round(s * dr)), int(round(s * dc))) for s in np.linspace(0.0, 1.0, n_samples)
            )
            out.append((dr, dc, step, samples))
    return tuple(out)


def exact_init_reference(dist, speed, seed, radius):
    # Seed the neighborhood of the seed set with straight-segment costs so
    # the first-order scheme does not bake its large near-source error into
    # every downstream characteristic.  The cost of the segment from a seed
    # pixel is its length times the mean speed sampled along it (a discrete
    # line integral, nearest-neighbor sampling at <= 1 px spacing): exact
    # for uniform speed, and any particular path only ever upper-bounds the
    # geodesic distance, so the sweeps remain free to lower these values.
    h, w = dist.shape
    for dr, dc, step, samples in stencil_reference(radius):
        if abs(dr) >= h or abs(dc) >= w:
            continue  # the segment leaves the grid from every pixel
        src_r = slice(max(0, -dr), h - max(0, dr))
        src_c = slice(max(0, -dc), w - max(0, dc))
        dst_r = slice(max(0, dr), h - max(0, -dr))
        dst_c = slice(max(0, dc), w - max(0, -dc))
        path_speed = np.zeros((dst_r.stop - dst_r.start, dst_c.stop - dst_c.start))
        for ri, ci in samples:
            path_speed += speed[
                dst_r.start - ri : dst_r.stop - ri, dst_c.start - ci : dst_c.stop - ci
            ]
        path_speed /= len(samples)
        cand = np.where(seed[src_r, src_c], step * path_speed, np.inf)
        dist[dst_r, dst_c] = np.minimum(dist[dst_r, dst_c], cand)
    dist[seed] = 0.0


def godunov_candidate(d, f, i, j):
    """The Godunov upwind update of pixel (i, j) from its 4-neighbours in d."""
    h, w = d.shape
    big = np.inf
    a = min(
        d[i, j - 1] if j > 0 else big,
        d[i, j + 1] if j < w - 1 else big,
    )
    b = min(
        d[i - 1, j] if i > 0 else big,
        d[i + 1, j] if i < h - 1 else big,
    )
    lo, hi = min(a, b), max(a, b)
    fh = f[i, j]
    if not np.isfinite(hi) or hi - lo >= fh:
        return lo + fh
    # (a - b) * (a - b), not (a - b) ** 2: pow can round the square differently
    return 0.5 * (a + b + np.sqrt(2 * fh * fh - (a - b) * (a - b)))


def initial_distances(seed, init):
    """``init`` copied, or 0 on seeds and inf elsewhere, i.e. no exact init."""
    if init is not None:
        return init.copy()
    d = np.full(seed.shape, np.inf)
    d[seed] = 0.0
    return d


def sequential_reference(f, seed, init=None, max_iterations=200):
    """Godunov fast sweeping, one pixel at a time in the four sequential
    Gauss-Seidel orders, seeds held at 0, starting from ``init`` (default:
    0 on seeds, inf elsewhere, i.e. no exact init).  Stops after the first
    pass that changes no bit, or after ``max_iterations`` passes."""
    h, w = f.shape
    d = initial_distances(seed, init)
    orders = [
        (range(h), range(w)),
        (range(h), range(w - 1, -1, -1)),
        (range(h - 1, -1, -1), range(w)),
        (range(h - 1, -1, -1), range(w - 1, -1, -1)),
    ]
    for _ in range(max_iterations):
        prev = d.copy()
        for ii, jj in orders:
            for i in ii:
                for j in jj:
                    if not seed[i, j]:
                        d[i, j] = min(d[i, j], godunov_candidate(d, f, i, j))
        if np.array_equal(d, prev):
            break
    return d


def jacobi_reference(f, seed, init=None):
    """Godunov iteration in the order the solver runs: every free pixel's
    candidate from the previous values at once, a pixel taking it when it
    drops, seeds held at 0, starting from ``init`` as in
    ``sequential_reference``.  Stops when no pixel drops.

    Gauss-Seidel sweeps stop at a fixed point of the same rounded update,
    but two such fixed points can differ in the last bit; this order is
    the one the solver must match bit for bit."""
    h, w = f.shape
    d = initial_distances(seed, init)
    while True:
        prev = d.copy()
        for i in range(h):
            for j in range(w):
                if not seed[i, j]:
                    d[i, j] = min(prev[i, j], godunov_candidate(prev, f, i, j))
        if np.array_equal(d, prev):
            return d


def snake_maze(n):
    """Speed 1 in one-pixel corridors joined end to end, 1e3 in the walls
    between them, seeded at the corridor start: the geodesic runs n**2 / 2
    pixels, so Jacobi needs thousands of iterations on a small grid."""
    speed = np.ones((n, n))
    speed[1::2] = 1e3
    speed[1::4, -1] = speed[3::4, 0] = 1.0
    seed = np.zeros((n, n), dtype=bool)
    seed[0, 0] = True
    return speed, seed


class TestSpeedField:
    def test_constant_image_floor(self):
        f = geo.speed_field(np.full((32, 32), 0.7), geo.SpeedParams())
        assert np.allclose(f, 1e-3, rtol=0, atol=1e-18)

    def test_step_edge_value(self):
        image = np.zeros((16, 16))
        image[:, 8:] = 1.0
        f = geo.speed_field(image, geo.SpeedParams())
        # central difference across a unit step is 0.5 on both flanking columns
        assert f[5, 8] == pytest.approx(1e-3 + 1e3 * 0.25, rel=1e-12)
        assert f[5, 2] == pytest.approx(1e-3, rel=1e-12)

    def test_beta_zero_ignores_image(self):
        image = uniform_field((50, 0), (16, 16))
        f = geo.speed_field(image, geo.SpeedParams(eps_d=1e-3, beta_g=0.0))
        assert np.allclose(f, 1e-3)

    def test_external_extra_cost_hook(self):
        image = np.zeros((8, 8))
        d_e = np.ones((8, 8))
        f0 = geo.speed_field(image, geo.SpeedParams(nu=0.5))
        f1 = geo.speed_field(image, geo.SpeedParams(nu=0.5), d_e=d_e)
        assert np.allclose(f1 - f0, 0.5)


class TestSolveEikonal:
    def test_uniform_speed_matches_euclidean(self):
        n = 128
        seed = np.zeros((n, n), dtype=bool)
        seed[64, 64] = True
        dmap = geo.solve_eikonal(np.ones((n, n)), seed)
        rows, cols = np.mgrid[0:n, 0:n].astype(float)
        true = np.hypot(rows - 64, cols - 64)
        true_n = true / true.max()
        b = 8
        inner = (slice(b, n - b), slice(b, n - b))
        got = dmap.values[inner]
        want = true_n[inner]
        nz = want > 0
        assert float(np.abs(got[nz] - want[nz]).max() / want[nz].max()) <= 0.02 or np.all(
            np.abs(got[nz] - want[nz]) / want[nz] <= 0.02
        )

    def test_zero_on_seed_positive_elsewhere(self):
        n = 48
        seed = np.zeros((n, n), dtype=bool)
        seed[10:14, 20:24] = True
        dmap = geo.solve_eikonal(np.ones((n, n)), seed)
        assert np.all(dmap.values[seed] == 0.0)
        assert np.all(dmap.values[~seed] > 0.0)

    def test_seed_everywhere_flat(self):
        dmap = geo.solve_eikonal(np.ones((16, 16)), np.ones((16, 16), dtype=bool))
        assert dmap.flat
        assert np.all(dmap.values == 0.0)
        assert dmap.max_raw == 0.0

    def test_empty_seed_rejected(self):
        with pytest.raises(InvalidInputError):
            geo.solve_eikonal(np.ones((16, 16)), np.zeros((16, 16), dtype=bool))

    def test_boolean_seed_of_another_shape_rejected(self):
        with pytest.raises(InvalidInputError, match="^fields must share one shape"):
            geo.solve_eikonal(np.ones((8, 8)), np.ones((8, 9), dtype=bool))

    def test_nonpositive_speed_rejected(self):
        seed = np.zeros((8, 8), dtype=bool)
        seed[0, 0] = True
        with pytest.raises(InvalidInputError):
            geo.solve_eikonal(np.zeros((8, 8)), seed)

    def test_two_seed_min_superposition(self):
        # the discrete solution from a seed union is bounded above by the
        # pointwise min of single-seed solutions (exactly, up to solver
        # tolerance) and matches it to discretization accuracy; where fronts
        # collide the first-order scheme can dip slightly below the min
        f = 0.5 + uniform_field((51, 0), (64, 64))
        sa = np.zeros((64, 64), dtype=bool)
        sb = np.zeros((64, 64), dtype=bool)
        sa[10, 50] = True
        sb[55, 20] = True
        da = raw(f, sa)
        db = raw(f, sb)
        dab = raw(f, sa | sb)
        pointwise_min = np.minimum(da, db)
        scale = pointwise_min.max()
        assert np.all(dab <= pointwise_min + 1e-6 * scale)
        assert np.abs(dab - pointwise_min).max() <= 0.01 * scale

    def test_monotone_in_speed(self):
        f1 = 0.5 + uniform_field((51, 1), (48, 48))
        f2 = f1 + uniform_field((51, 2), (48, 48))
        seed = np.zeros((48, 48), dtype=bool)
        seed[7, 40] = True
        seed[33, 12] = True
        d1 = raw(f1, seed)
        d2 = raw(f2, seed)
        assert np.all(d2 >= d1 - 1e-9)

    def test_a_map_holds_its_values_and_their_maximum(self):
        assert [f.name for f in fields(geo.DistanceMap)] == ["values", "max_raw"]
        f = 0.5 + uniform_field((51, 3), (40, 40))
        seed = np.zeros((40, 40), dtype=bool)
        seed[3, 3] = True
        dmap, want = geo.solve_eikonal(f, seed), raw(f, seed)
        assert dmap.max_raw == want.max()
        assert np.array_equal(dmap.values, want / want.max())

    def test_normalization_idempotent(self):
        seed = np.zeros((32, 32), dtype=bool)
        seed[16, 16] = True
        dmap = geo.solve_eikonal(np.ones((32, 32)), seed)
        v = dmap.values
        assert v.max() == 1.0
        assert np.array_equal(v / v.max(), v)

    def test_deterministic(self):
        f = 0.5 + uniform_field((51, 3), (40, 40))
        seed = np.zeros((40, 40), dtype=bool)
        seed[3, 3] = True
        d1 = geo.solve_eikonal(f, seed)
        d2 = geo.solve_eikonal(f, seed)
        assert np.array_equal(d1.values, d2.values)
        assert d1.max_raw == d2.max_raw

    @pytest.mark.parametrize(
        "shape, seeds",
        [
            ((12, 12), [(4, 7)]),
            ((9, 14), [(4, 7)]),
            ((14, 9), [(4, 7)]),
            ((12, 12), [(0, 0), (11, 3), (5, 9)]),
            ((32, 32), [(10, 8)]),
        ],
        ids=["12x12", "9x14", "14x9", "12x12-multi-seed", "32x32"],
    )
    def test_wavefront_order_matches_sequential_reference(self, shape, seeds):
        # the active-set wavefront reaches the fixed point of the plain
        # Jacobi order bit for bit, and that of the Gauss-Seidel order up to
        # rounding: the two orders can stop an ulp apart
        f = 0.5 + uniform_field((51, 4), shape)
        seed = np.zeros(shape, dtype=bool)
        for r, c in seeds:
            seed[r, c] = True
        got = geo._solve(f, seed, 0)
        assert np.array_equal(got, jacobi_reference(f, seed))
        assert np.allclose(got, sequential_reference(f, seed), rtol=1e-14, atol=0)

    def test_row_shorter_than_init_radius(self):
        seed = np.zeros((1, 9), dtype=bool)
        seed[0, 4] = True
        assert np.array_equal(raw(np.ones((1, 9)), seed)[0], np.abs(np.arange(9) - 4.0))

    def test_long_strip_converges_to_exact_distances(self):
        # 11 993 Jacobi iterations: the divergence guard must scale with the grid
        seed = np.zeros((1, 12001), dtype=bool)
        seed[0, 0] = True
        assert np.array_equal(raw(np.ones((1, 12001)), seed)[0], np.arange(12001.0))

    def test_snake_maze_matches_sequential_sweeps(self):
        speed, seed = snake_maze(64)
        got = raw(speed, seed)
        init = np.full(speed.shape, np.inf)
        init[seed] = 0.0
        exact_init_reference(init, speed, seed, 8)
        want = sequential_reference(speed, seed, init)
        assert np.abs(got - want).max() <= 1e-12 * want.max()

    @pytest.mark.parametrize("speed", [1e308, 1e200, 9.5e153])
    def test_overflowing_speed_diverges(self, speed):
        # warned, then returned NaN distances at 1e308, and below it the
        # straight-segment init that no two-sided update could lower
        seed = np.zeros((8, 8), dtype=bool)
        seed[3, 3] = True
        with pytest.raises(lf.DivergenceError, match="^eikonal update overflows float64"):
            geo.solve_eikonal(np.full((8, 8), speed), seed)

    def test_largest_speeds_solve_without_a_warning(self):
        # warned: diff * diff overflows where one neighbour lies far above
        # the other, and the one-sided update is taken there
        speed = np.where(uniform_field((51, 6), (16, 16)) < 0.5, 9.4e153, 1.0)
        seed = np.zeros((16, 16), dtype=bool)
        seed[0, 0] = True
        dmap = geo.solve_eikonal(speed, seed)
        assert np.isfinite(dmap.values).all() and dmap.max_raw > 9.4e153

    @pytest.mark.parametrize("shape", [(3, 40), (40, 5)], ids=["3x40", "40x5"])
    def test_thin_grid_zero_on_seed_positive_elsewhere(self, shape):
        f = 0.5 + uniform_field((51, 5), shape)
        seed = np.zeros(shape, dtype=bool)
        seed[1, 2] = True
        dmap = geo.solve_eikonal(f, seed)
        assert np.all(dmap.values[seed] == 0.0)
        assert np.all(dmap.values[~seed] > 0.0)



def reuse_problem(shape=(12, 20)):
    speed = 0.5 + uniform_field((52, 1), shape)
    seed = np.zeros(shape, dtype=bool)
    seed[3, 4] = True
    return speed, seed


@pytest.fixture
def solves(monkeypatch):
    """Counts the solves that actually run (memo misses and unscoped calls)."""
    calls = []
    original = geo._solve

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(geo, "_solve", counting)
    return calls


class TestReuseSolves:
    def test_repeat_in_scope_returns_the_same_map(self, solves):
        speed, seed = reuse_problem()
        with geo.reuse_solves():
            a = geo.solve_eikonal(speed, seed)
            b = geo.solve_eikonal(speed.copy(), seed.copy())
        assert b is a
        assert len(solves) == 1
        assert np.array_equal(a.values, geo.solve_eikonal(speed, seed).values)

    def test_outside_a_scope_every_call_solves_and_maps_are_read_only(self, solves):
        speed, seed = reuse_problem()
        a = geo.solve_eikonal(speed, seed)
        b = geo.solve_eikonal(speed, seed)
        assert b is not a and len(solves) == 2
        for dmap in (a, b):
            with pytest.raises(ValueError, match="read-only"):
                dmap.values[0, 0] = 1.0

    def test_maps_in_a_scope_are_read_only(self):
        speed, seed = reuse_problem()
        with geo.reuse_solves():
            dmap = geo.solve_eikonal(speed, seed)
        assert not dmap.values.flags.writeable

    @pytest.mark.parametrize(
        "change",
        ["transposed-shape", "speed-bit", "seed-pixel", "strided-view"],
    )
    def test_any_change_of_the_problem_misses(self, solves, change):
        speed, seed = reuse_problem()
        if change == "transposed-shape":
            # the same C-order bytes under the transposed dimensions
            speed, seed = speed.reshape(speed.shape[::-1]), seed.reshape(seed.shape[::-1])
        elif change == "speed-bit":
            speed = speed.copy()
            speed.view(np.uint64)[7, 9] ^= np.uint64(1)
        elif change == "seed-pixel":
            seed = seed.copy()
            seed[8, 15] = True
        else:
            # a strided view of a wider array: its values, not its buffer, count
            wide_speed, wide_seed = reuse_problem((12, 40))
            speed, seed = wide_speed[:, ::2], wide_seed[:, ::2]
        with geo.reuse_solves():
            first = geo.solve_eikonal(*reuse_problem())
            second = geo.solve_eikonal(speed, seed)
        assert second is not first and len(solves) == 2
        assert np.array_equal(second.values, geo.solve_eikonal(speed.copy(), seed.copy()).values)

    def test_soft_seed_hits_the_map_of_its_boolean_seed(self, solves):
        speed, seed = reuse_problem()
        with geo.reuse_solves():
            a = geo.solve_eikonal(speed, seed)
            b = geo.solve_eikonal(speed, np.where(seed, 0.5, 0.4999))
        assert b is a and len(solves) == 1

    def test_strided_view_hits_its_contiguous_copy(self, solves):
        wide_speed, wide_seed = reuse_problem((12, 40))
        speed, seed = wide_speed[:, ::2], wide_seed[:, ::2]
        with geo.reuse_solves():
            a = geo.solve_eikonal(speed, seed)
            b = geo.solve_eikonal(np.ascontiguousarray(speed), np.ascontiguousarray(seed))
        assert b is a and len(solves) == 1

    def test_memo_holds_at_most_reuse_max_solves(self, solves):
        speed, _ = reuse_problem()
        seeds = []
        for k in range(geo._REUSE_MAX + 3):
            seed = np.zeros(speed.shape, dtype=bool)
            seed[k % 12, k] = True
            seeds.append(seed)
        with geo.reuse_solves():
            for seed in seeds[:-1]:
                geo.solve_eikonal(speed, seed)
                assert len(geo._reuse.get()) <= geo._REUSE_MAX
            oldest_kept = seeds[-1 - geo._REUSE_MAX]
            n = len(solves)
            geo.solve_eikonal(speed, oldest_kept)  # a hit makes it the newest
            geo.solve_eikonal(speed, seeds[-1])  # evicts the least recently used
            assert len(solves) == n + 1
            geo.solve_eikonal(speed, oldest_kept)
            assert len(solves) == n + 1
            geo.solve_eikonal(speed, seeds[-geo._REUSE_MAX])
            assert len(solves) == n + 2
            assert len(geo._reuse.get()) == geo._REUSE_MAX

    def test_scope_is_reset_after_an_exception(self):
        speed, seed = reuse_problem()
        with pytest.raises(RuntimeError):
            with geo.reuse_solves():
                geo.solve_eikonal(speed, seed)
                raise RuntimeError("boom")
        assert geo._reuse.get() is None

    def test_failed_solve_is_not_stored(self, monkeypatch):
        def diverge(*args):
            raise lf.DivergenceError("eikonal iteration did not converge", step=1)

        speed, seed = reuse_problem()
        with geo.reuse_solves():
            monkeypatch.setattr(geo, "_solve", diverge)
            with pytest.raises(lf.DivergenceError):
                geo.solve_eikonal(speed, seed)
            assert len(geo._reuse.get()) == 0
            monkeypatch.undo()
            geo.solve_eikonal(speed, seed)
            assert len(geo._reuse.get()) == 1

    def test_inner_scope_starts_empty_and_outer_memo_survives(self, solves):
        speed, seed = reuse_problem()
        with geo.reuse_solves():
            a = geo.solve_eikonal(speed, seed)
            with geo.reuse_solves():
                assert geo.solve_eikonal(speed, seed) is not a
            assert geo.solve_eikonal(speed, seed) is a
        assert len(solves) == 2


@st.composite
def eikonal_problems(draw, max_side=20):
    """Random shape up to max_side square, positive speed, a speed
    increment and a non-empty seed set."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    speed = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.1, 10.0)))
    extra = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 10.0)))
    seed = draw(hnp.arrays(bool, shape))
    seed[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = True
    return speed, extra, seed


class TestSolveEikonalProperties:
    @settings(max_examples=50)
    @given(eikonal_problems())
    def test_bare_scheme_matches_sequential_reference(self, problem):
        # bit for bit in the solver's own order, up to rounding in sweep order
        speed, _, seed = problem
        got = geo._solve(speed, seed, 0)
        assert np.array_equal(got, jacobi_reference(speed, seed))
        assert np.allclose(got, sequential_reference(speed, seed), rtol=1e-14, atol=0)

    @settings(max_examples=50)
    @given(eikonal_problems(max_side=24), st.integers(0, 12))
    def test_one_more_sequential_pass_changes_no_bit(self, problem, radius):
        # the result is a fixed point of the scheme: one more pixel-order
        # Gauss-Seidel pass leaves it as it is.  It is also the fixed point
        # that Jacobi iteration reaches from the per-offset slice init, which
        # TestExactInit holds the solver's init to bit for bit.
        speed, _, seed = problem
        got = geo._solve(speed, seed, radius)
        assert np.array_equal(sequential_reference(speed, seed, got, max_iterations=1), got)
        init = np.full(speed.shape, np.inf)
        init[seed] = 0.0
        exact_init_reference(init, speed, seed, radius)
        assert np.array_equal(got, jacobi_reference(speed, seed, init))

    @settings(max_examples=50)
    @given(eikonal_problems())
    def test_zero_on_seed_positive_elsewhere_and_monotone_in_speed(self, problem):
        speed, extra, seed = problem
        d1 = raw(speed, seed)
        d2 = raw(speed + extra, seed)
        assert np.all(d1[seed] == 0.0)
        assert np.all(d1[~seed] > 0.0)
        # up to rounding in the two-sided update
        assert np.all(d2 >= d1 - 1e-6 * d1.max())


@st.composite
def init_problems(draw):
    """A positive speed, a seed set with one pixel forced onto a border row
    or column, and an init radius; a grid side is often below the radius."""
    radius = draw(st.integers(1, 12))
    side = st.integers(1, radius) | st.integers(1, 24)
    shape = (draw(side), draw(side))
    speed = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.1, 10.0)))
    seed = draw(hnp.arrays(bool, shape))
    r, c = draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))
    if draw(st.booleans()):
        r = draw(st.sampled_from((0, shape[0] - 1)))
    else:
        c = draw(st.sampled_from((0, shape[1] - 1)))
    seed[r, c] = True
    return speed, seed, radius


def initialized(init, speed, seed, radius):
    """0 on seeds and inf elsewhere, then ``init``'s straight-segment costs."""
    dist = np.full(seed.shape, np.inf)
    dist[seed] = 0.0
    init(dist, speed, seed, radius)
    return dist


class TestExactInit:
    # The init itself, before any Jacobi iteration.  It sums over a flat run
    # of box rows whose shifts wrap past the row ends into pad columns; the
    # reference shifts the 2-D grid and never wraps.

    @settings(max_examples=100)
    @given(init_problems())
    def test_matches_reference_bit_for_bit(self, problem):
        speed, seed, radius = problem
        got = initialized(geo._exact_init, speed, seed, radius)
        want = initialized(exact_init_reference, speed, seed, radius)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("shape", ["box", "two-disks", "disk"])
    def test_pipeline_seeds_match_reference_bit_for_bit(self, n, shape):
        # a box inset by n/5, the phantom's ground truth and a centred disk
        # of radius n/4, over the phantom's speed field
        image, gt = lf.make_phantom(lf.PhantomSpec("two-disks", n, noise_sigma=0.3, seed=3))
        rows, cols = np.mgrid[0:n, 0:n]
        k, centre = round(n / 5), (n - 1) / 2
        seed = {
            "box": (rows >= k) & (rows < n - k) & (cols >= k) & (cols < n - k),
            "two-disks": gt > 0.5,
            "disk": np.hypot(rows - centre, cols - centre) <= n / 4,
        }[shape]
        speed = geo.speed_field(image, geo.SpeedParams())
        got = initialized(geo._exact_init, speed, seed, geo.EXACT_INIT_RADIUS)
        want = initialized(exact_init_reference, speed, seed, geo.EXACT_INIT_RADIUS)
        assert got.tobytes() == want.tobytes()


class TestDistanceForMask:
    def test_zero_inside_increasing_outside(self, two_disks_64):
        image, gt = two_disks_64
        dmap = geo.distance_for_mask(image, gt)
        assert np.all(dmap.values[gt > 0.5] == 0.0)
        assert np.all(dmap.values[gt < 0.5] > 0.0)

    def test_edges_are_costly(self):
        # equidistant probes from the seed: one behind a strong intensity
        # edge, one in a flat region
        n = 64
        image = np.zeros((n, n))
        image[:, 32:] = 1.0  # vertical edge at column 32
        mask = np.zeros((n, n))
        mask[30:35, 8:13] = 1.0  # seed in the flat left region
        dmap = geo.distance_for_mask(image, mask)
        behind_edge = dmap.values[32, 40]  # 30 px right: crosses the edge
        flat = dmap.values[62, 10]  # 30 px down: stays flat
        assert behind_edge > 10 * flat

    def test_all_foreground_chains_to_zero_energy(self, two_disks_64):
        image, _ = two_disks_64
        from levelflow import levelset as ls

        dmap = geo.distance_for_mask(image, np.ones_like(image))
        assert dmap.flat
        e = ls.energy_distance(np.full(image.shape, 1e12), ls.HeavisideParams(), dmap.values)
        assert e == 0.0

    def test_empty_mask_rejected(self, two_disks_64):
        image, _ = two_disks_64
        with pytest.raises(InvalidInputError):
            geo.distance_for_mask(image, np.zeros_like(image))
