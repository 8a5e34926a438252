import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

import levelflow as lf
from levelflow.errors import FieldFormatError, InvalidInputError

from conftest import normal_field


class TestAsField:
    @pytest.mark.parametrize(
        "value, message",
        [(np.zeros(4), "2-D"), (np.zeros((0, 3)), "non-empty"), ([[1.0, np.nan]], "non-finite")],
        ids=["1-d", "empty", "nan"],
    )
    def test_rejected(self, value, message):
        with pytest.raises(InvalidInputError, match=message):
            lf.field.as_field(value)

    @pytest.mark.parametrize(
        "image", [np.eye(4) + 1j, "abc", [["a", "b"]], np.eye(4, dtype=object)],
        ids=["complex", "str", "strings", "object"],
    )
    def test_non_real_field_rejected_naming_it(self, image):
        # a complex image lost its imaginary part with a ComplexWarning, and a
        # string raised a bare ValueError
        with pytest.raises(InvalidInputError, match="^image must hold real numbers, got dtype"):
            lf.energy_total(image, np.eye(4) - 0.5, lf.HeavisideParams(), lf.EnergyWeights(),
                            lf.AreaPrior(8.0, 8.0), np.zeros((4, 4)))

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int32, np.float32, ">f8"])
    def test_real_dtypes_become_float64(self, dtype):
        f = lf.field.as_field(np.eye(3, dtype=dtype))
        assert f.dtype == np.float64 and f.tolist() == np.eye(3).tolist()


def _three_fields(shape):
    return st.tuples(*[hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3))] * 3)


class TestGradient:
    def test_linear_field_exact(self):
        rows, cols = np.mgrid[0:8, 0:8].astype(float)
        gx, gy = lf.gradient(cols)
        assert np.allclose(gx[1:-1, 1:-1], 1.0)
        assert np.allclose(gy[1:-1, 1:-1], 0.0)

    def test_constant_field_zero(self):
        gx, gy = lf.gradient(np.full((9, 7), 3.25))
        assert np.all(gx == 0.0)
        assert np.all(gy == 0.0)

    def test_quadratic_exact_at_interior(self):
        # central difference of x^2 is exact: ((x+1)^2 - (x-1)^2)/2 = 2x
        _, cols = np.mgrid[0:16, 0:16].astype(float)
        gx, _ = lf.gradient(cols**2)
        assert gx[8, 5] == pytest.approx(10.0, abs=0)

    def test_degenerate_grid_rejected(self):
        for shape in [(1, 8), (8, 1), (1, 1), (8,)]:
            with pytest.raises(InvalidInputError, match="gradient needs at least a 2x2 grid"):
                lf.gradient(np.zeros(shape))
            with pytest.raises(InvalidInputError, match="gradient needs at least a 2x2 grid"):
                lf.gradient_adjoint(np.ones(shape), np.ones(shape))

    def test_integer_input_gives_float_derivatives(self):
        ints = np.array([[0, 1, 2], [0, 1, 2]])
        gx, gy = lf.gradient(ints)
        assert gx.dtype == gy.dtype == np.float64
        assert gx.tolist() == [[0.5, 1.0, 0.5]] * 2
        for got, want in zip((gx, gy), lf.gradient(ints.astype(float))):
            assert got.tobytes() == want.tobytes()
        adjoint = lf.gradient_adjoint(ints, ints)
        assert adjoint.dtype == np.float64
        assert adjoint.tobytes() == lf.gradient_adjoint(ints * 1.0, ints * 1.0).tobytes()

    def test_adjoint_identity(self):
        u = normal_field((21, 0), (13, 17))
        vx = normal_field((21, 1), (13, 17))
        vy = normal_field((21, 2), (13, 17))
        gx, gy = lf.gradient(u)
        lhs = float((gx * vx + gy * vy).sum())
        rhs = float((u * lf.gradient_adjoint(vx, vy)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @settings(max_examples=30)
    @given(st.tuples(st.integers(2, 12), st.integers(2, 12)).flatmap(_three_fields))
    def test_adjoint_identity_any_shape(self, fields):
        # <grad f, v> = <f, grad* v>, up to rounding of sums whose terms
        # are at most max|f| * |v| each
        f, vx, vy = fields
        gx, gy = lf.gradient(f)
        lhs = float((gx * vx + gy * vy).sum())
        rhs = float((f * lf.gradient_adjoint(vx, vy)).sum())
        scale = float(np.abs(f).max() * (np.abs(vx).sum() + np.abs(vy).sum()))
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestPhantoms:
    def test_two_disks_structure(self):
        image, mask = lf.make_phantom(lf.PhantomSpec(kind="two-disks", size=64, seed=3))
        assert set(np.unique(image)) == {0.0, 1.0}
        assert set(np.unique(mask)) == {0.0, 1.0}
        _, n = ndimage.label(mask > 0.5, structure=np.ones((3, 3)))
        assert n == 2

    def test_ring_euler_characteristic(self):
        _, mask = lf.make_phantom(lf.PhantomSpec(kind="ring-with-hole", size=64, seed=0))
        _, n_fg = ndimage.label(mask > 0.5, structure=np.ones((3, 3)))
        _, n_bg = ndimage.label(mask < 0.5)
        assert n_fg == 1
        assert n_bg == 2  # outside plus one hole

    def test_c_shape_no_hole(self):
        _, mask = lf.make_phantom(lf.PhantomSpec(kind="c-shape", size=64, seed=0))
        _, n_fg = ndimage.label(mask > 0.5, structure=np.ones((3, 3)))
        _, n_bg = ndimage.label(mask < 0.5)
        assert n_fg == 1
        assert n_bg == 1

    def test_determinism(self):
        spec = lf.PhantomSpec(kind="two-rects", size=48, noise_sigma=0.1, seed=11)
        i1, m1 = lf.make_phantom(spec)
        i2, m2 = lf.make_phantom(spec)
        assert np.array_equal(i1, i2)
        assert np.array_equal(m1, m2)

    def test_noise_changes_with_seed(self):
        a, _ = lf.make_phantom(lf.PhantomSpec(kind="two-disks", size=32, noise_sigma=0.1, seed=1))
        b, _ = lf.make_phantom(lf.PhantomSpec(kind="two-disks", size=32, noise_sigma=0.1, seed=2))
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            lf.PhantomSpec(kind="hexagon", size=64)
        with pytest.raises(InvalidInputError):
            lf.PhantomSpec(kind="two-disks", size=16)
        with pytest.raises(InvalidInputError):
            lf.PhantomSpec(kind="two-disks", size=64, fg=0.5, bg=0.5)

    @pytest.mark.parametrize(
        "field, value", [("size", "64"), ("size", 64.0), ("seed", 1.5), ("seed", True)]
    )
    def test_int_field_of_another_type_rejected(self, field, value):
        # "64" raised a bare TypeError; 64.0 and 1.5 were accepted
        kwargs = {"kind": "two-disks", "size": 64, "seed": 0, field: value}
        with pytest.raises(InvalidInputError, match=f"^{field} expects int, got "):
            lf.PhantomSpec(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_range_rejected(self, seed):
        with pytest.raises(InvalidInputError, match="seed must be in"):
            lf.PhantomSpec(kind="two-disks", size=32, seed=seed)


class TestFieldIO:
    def test_lsf1_round_trip_identity(self, tmp_path):
        f = normal_field((23, 0), (64, 64))
        p1 = tmp_path / "a.lsf1"
        p2 = tmp_path / "b.lsf1"
        lf.save_field(f, p1)
        once = lf.load_field(p1)
        lf.save_field(once, p2)
        twice = lf.load_field(p2)
        # identity on the format: a second round trip is bit-exact
        assert np.array_equal(once, twice)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pgm_of_a_constant_field(self, tmp_path):
        p = tmp_path / "c.pgm"
        lf.save_field(np.full((3, 5), 0.25), p)
        assert p.read_bytes() == b"P5\n# constant field, value=0.25\n5 3\n255\n" + bytes(15)
        assert np.array_equal(lf.load_field(p), np.zeros((3, 5)))

    def test_lsf1_float32_values_exact(self, tmp_path):
        f = normal_field((23, 1), (16, 16)).astype(np.float32).astype(np.float64)
        p = tmp_path / "f.lsf1"
        lf.save_field(f, p)
        assert np.array_equal(lf.load_field(p), f)

    def test_truncated_payload_reports_counts(self, tmp_path):
        p = tmp_path / "t.lsf1"
        lf.save_field(np.zeros((64, 64)), p)
        blob = p.read_bytes()
        p.write_bytes(blob[: 12 + 100 * 4])
        with pytest.raises(FieldFormatError) as exc:
            lf.load_field(p)
        assert "4096" in str(exc.value)
        assert "100" in str(exc.value)
        assert "offset 12" in str(exc.value)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.lsf1"
        p.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(FieldFormatError) as exc:
            lf.load_field(p)
        assert exc.value.offset == 0

    def test_dimension_overflow(self, tmp_path):
        import struct

        p = tmp_path / "big.lsf1"
        p.write_bytes(b"LSF1" + struct.pack("<II", 2**20, 2**20))
        with pytest.raises(FieldFormatError):
            lf.load_field(p)

    def test_pgm_import_scaling(self, tmp_path):
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([255, 0]))
        out = lf.load_field(p)
        assert out[0, 0] == 1.0
        assert out[0, 1] == 0.0

    def test_pgm_export_documents_rescale(self, tmp_path):
        f = np.array([[0.0, 2.0], [4.0, 8.0]])
        p = tmp_path / "h.pgm"
        lf.save_field(f, p)
        header = p.read_bytes()
        assert header.startswith(b"P5")
        assert b"linear rescale" in header
        back = lf.load_field(p)
        assert back[1, 1] == 1.0  # max maps to 255 -> 1.0
        assert back[0, 0] == 0.0

    @pytest.mark.parametrize("value", [1e39, -1e39, 3.5e38])
    def test_lsf1_value_beyond_float32_rejected_before_writing(self, tmp_path, value):
        # a value that rounds to inf in float32 would make a file load_field rejects
        p = tmp_path / "big.lsf1"
        with pytest.raises(InvalidInputError, match="float32"):
            lf.save_field(np.array([[0.0, value], [1.0, 2.0]]), p)
        assert not p.exists()

    def test_lsf1_float32_max_round_trips(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        f = np.array([[top, -top], [0.0, 1.0]])
        p = tmp_path / "max.lsf1"
        lf.save_field(f, p)
        assert np.array_equal(lf.load_field(p), f)

    def test_pgm_range_too_wide_to_rescale_rejected(self, tmp_path):
        # hi - lo overflows to inf, which used to write an all-zero raster
        p = tmp_path / "wide.pgm"
        with pytest.raises(InvalidInputError, match="range"):
            lf.save_field(np.array([[-1e308, 1e308], [0.0, 1.0]]), p)
        assert not p.exists()

    def test_pgm_16bit_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n2 1\n65535\n" + bytes([0, 0, 0, 0]))
        with pytest.raises(FieldFormatError):
            lf.load_field(p)

    def test_pgm_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([255, 0, 7]))
        with pytest.raises(FieldFormatError) as exc:
            lf.load_field(p)
        assert "promises 2 bytes, file holds 3" in str(exc.value)


@st.composite
def damaged(draw, blob):
    """One byte replaced, the file cut short, or bytes appended."""
    kind = draw(st.sampled_from(["mutate", "truncate", "extend"]))
    if kind == "mutate":
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1 :]
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    return blob + draw(st.binary(min_size=1, max_size=8))


def _fields(elements):
    shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))
    return shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=elements))


class TestFieldIOProperties:
    @settings(max_examples=25)
    @given(f=_fields(st.floats(-3e38, 3e38)))  # inside the float32 range
    def test_lsf1_round_trip_is_the_float32_cast(self, tmp_path_factory, f):
        path = tmp_path_factory.getbasetemp() / "round_trip.lsf1"
        lf.save_field(f, path)
        out = lf.load_field(path)
        assert out.tobytes() == f.astype(np.float32).astype(np.float64).tobytes()

    @settings(max_examples=25)
    @given(f=_fields(st.floats(width=32, allow_nan=False, allow_infinity=False)))
    def test_lsf1_round_trip_exact_for_float32_values(self, tmp_path_factory, f):
        path = tmp_path_factory.getbasetemp() / "exact.lsf1"
        lf.save_field(f, path)
        assert lf.load_field(path).tobytes() == f.tobytes()


class TestFieldFuzz:
    @pytest.mark.parametrize("suffix", [".lsf1", ".pgm"])
    def test_damaged_file_loads_or_raises_field_format_error(self, suffix, tmp_path):
        valid = tmp_path / f"valid{suffix}"
        lf.save_field(normal_field((23, 2), (3, 4)), valid)

        @given(damaged(valid.read_bytes()))
        def check(data):
            path = tmp_path / f"damaged{suffix}"
            path.write_bytes(data)
            try:
                out = lf.load_field(path)
            except FieldFormatError:
                return
            assert out.ndim == 2 and np.all(np.isfinite(out))

        check()
