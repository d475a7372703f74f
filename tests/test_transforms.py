import numpy as np
import pytest
import scipy.fft

from etchomo import fct_backward_batch, fct_forward_batch, transforms
from etchomo.oracles import dct1d_ref_forward

from conftest import dct1d_ref_backward


def ref2d(v):
    """Tensor-product direct-sum transform of one (ny, nx) slice."""
    ny, nx = v.shape
    out = np.empty_like(v, dtype=np.float64)
    for j in range(ny):
        out[j] = dct1d_ref_forward(v[j])
    for i in range(nx):
        out[:, i] = dct1d_ref_forward(out[:, i])
    return out


class TestReference1d:
    def test_constant_pair(self):
        assert np.allclose(dct1d_ref_forward([1.0, 1.0]), [2.0, 0.0], atol=1e-15)

    def test_impulse(self):
        got = dct1d_ref_forward([1.0, 0.0])
        assert np.allclose(got, [1.0, np.sqrt(2.0) / 2.0], rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17])
    def test_inversion_pair(self, n):
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n)
        assert np.allclose(dct1d_ref_backward(dct1d_ref_forward(u)), u, atol=1e-13)


class TestForwardBatch:
    def test_constant_slice_dc_only(self):
        coeff = fct_forward_batch(np.full((2, 4, 6), 3.0))
        assert coeff[0, 0, 0] == pytest.approx(6 * 4 * 3.0, rel=1e-13)
        mask = np.ones((2, 4, 6), dtype=bool)
        mask[:, 0, 0] = False
        assert np.max(np.abs(coeff[mask])) <= 1e-12 * 72.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((1, 6, 7))
        coeff = fct_forward_batch(v)
        want = ref2d(v[0])
        assert np.max(np.abs(coeff[0] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_batch_independence(self):
        rng = np.random.default_rng(3)
        slices = rng.standard_normal((3, 5, 4))
        batch = fct_forward_batch(slices)
        for k in range(3):
            single = fct_forward_batch(slices[k:k + 1].copy())
            assert np.array_equal(batch[k], single[0])

    def test_slice_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        slices = rng.standard_normal((4, 3, 5))
        a = fct_forward_batch(slices)
        b = fct_forward_batch(slices[::-1].copy())
        assert np.allclose(a[::-1], b, atol=0)


class TestBackwardBatch:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((4, 8, 8))
        back = fct_backward_batch(fct_forward_batch(v))
        assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))

    def test_f32_round_trip_keeps_dtype(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((3, 6, 5)).astype(np.float32)
        coeff = fct_forward_batch(v)
        back = fct_backward_batch(coeff)
        assert coeff.dtype == back.dtype == np.float32
        assert np.max(np.abs(back - v)) <= 1e-5 * np.max(np.abs(v))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_overwrite_matches_copy_bit_for_bit(self, dtype):
        rng = np.random.default_rng(9)
        coeff = rng.standard_normal((5, 7, 6)).astype(dtype)
        kept = coeff.copy()
        want = fct_backward_batch(coeff)
        assert np.array_equal(coeff, kept)
        got = fct_backward_batch(coeff, out=coeff)
        assert got.dtype == dtype
        assert np.array_equal(got, want)

    def test_spectral_impulse(self):
        # backward of a DC impulse carries the 2/N weights and the halved
        # zero-frequency terms: (4/(2*2)) * (1/2) * (1/2) * 1 = 1/4
        coeff = np.zeros((1, 2, 2))
        coeff[0, 0, 0] = 1.0
        assert np.allclose(fct_backward_batch(coeff), 0.25, rtol=1e-14)

    def test_odd_sizes_round_trip(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((2, 3, 5))
        back = fct_backward_batch(fct_forward_batch(v))
        assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))

    def test_backward_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        coeff = rng.standard_normal((1, 5, 4))
        got = fct_backward_batch(coeff)
        stage = np.stack([dct1d_ref_backward(row) for row in coeff[0]])
        want = np.stack([dct1d_ref_backward(stage[:, i]) for i in range(4)], axis=1)
        assert np.allclose(got[0], want, atol=1e-13)


@pytest.mark.parametrize("nx", [1, 2, 5, 8])
@pytest.mark.parametrize("ny", [1, 3, 4, 9])
def test_oracle_equivalence_parities(nx, ny):
    rng = np.random.default_rng(nx * 100 + ny)
    v = rng.standard_normal((2, ny, nx))
    coeff = fct_forward_batch(v)
    for k in range(2):
        want = ref2d(v[k])
        scale = max(np.max(np.abs(want)), 1e-30)
        assert np.max(np.abs(coeff[k] - want)) <= 1e-12 * scale
    back = fct_backward_batch(coeff)
    assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))


@pytest.mark.parametrize("shape", [(6, 5), (7, 4), (1, 3), (8, 8)])
def test_parseval_identity(shape):
    # the physical dot product equals the alpha-weighted spectral one; this is
    # what lets the tridiagonal solves act directly on transformed data
    ny, nx = shape
    rng = np.random.default_rng(ny * 10 + nx)
    r = rng.standard_normal((1, ny, nx))
    z = rng.standard_normal((1, ny, nx))
    rh, zh = fct_forward_batch(r), fct_forward_batch(z)
    ax = np.where(np.arange(nx) == 0, 0.5, 1.0)
    ay = np.where(np.arange(ny) == 0, 0.5, 1.0)
    spectral = 4.0 / (nx * ny) * np.sum(ay[:, None] * ax[None, :] * rh[0] * zh[0])
    physical = np.sum(r * z)
    assert spectral == pytest.approx(physical, rel=1e-11)


# plane sides on both sides of the product branch's limit (64), and a mixed
# plane with one side past it
BRANCH_PLANES = [(63, 63), (64, 64), (65, 65), (24, 65), (65, 24), (64, 2)]
# worst deviation from the direct sums, relative to the largest entry
TOLERANCE = {np.float64: 1e-12, np.float32: 2e-6}


def ref2d_backward(c):
    stage = np.stack([dct1d_ref_backward(row) for row in c])
    return np.stack([dct1d_ref_backward(stage[:, i]) for i in range(c.shape[1])], axis=1)


def product_branch(shape):
    return max(shape[1:]) <= transforms._MATRIX_MAX_SIDE


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("plane", BRANCH_PLANES)
class TestBothBranches:
    def test_forward_matches_direct_sum(self, plane, dtype):
        rng = np.random.default_rng(sum(plane))
        v = rng.standard_normal((2,) + plane).astype(dtype)
        coeff = fct_forward_batch(v)
        assert coeff.dtype == dtype
        for k in range(2):
            want = ref2d(v[k].astype(np.float64))
            dev = np.max(np.abs(coeff[k] - want)) / np.max(np.abs(want))
            assert dev <= TOLERANCE[dtype]

    def test_backward_matches_direct_sum(self, plane, dtype):
        rng = np.random.default_rng(sum(plane) + 1)
        c = rng.standard_normal((2,) + plane).astype(dtype)
        back = fct_backward_batch(c)
        assert back.dtype == dtype
        for k in range(2):
            want = ref2d_backward(c[k].astype(np.float64))
            dev = np.max(np.abs(back[k] - want)) / np.max(np.abs(want))
            assert dev <= TOLERANCE[dtype]

    def test_out_is_the_callers_buffer_with_the_allocating_bits(self, plane, dtype):
        rng = np.random.default_rng(sum(plane) + 2)
        v = rng.standard_normal((3,) + plane).astype(dtype)
        kept = v.copy()
        want_fwd = fct_forward_batch(v)
        buf = np.full_like(v, np.nan)
        assert fct_forward_batch(v, out=buf) is buf
        assert np.array_equal(buf, want_fwd) and np.array_equal(v, kept)
        want_back = fct_backward_batch(want_fwd)
        assert fct_backward_batch(buf, out=buf) is buf
        assert np.array_equal(buf, want_back)
        # in place over the input, forward too
        assert fct_forward_batch(v, out=v) is v
        assert np.array_equal(v, want_fwd)

    def test_against_scipy_dctn(self, plane, dtype):
        # wide planes keep pocketfft's bits; narrow ones agree within rounding
        rng = np.random.default_rng(sum(plane) + 3)
        v = rng.standard_normal((3,) + plane).astype(dtype)
        fwd = scipy.fft.dctn(v, type=2, axes=(1, 2)) * dtype(0.25)
        back = scipy.fft.idctn(v, type=2, axes=(1, 2)) * dtype(4.0)
        if product_branch(v.shape):
            for got, want in ((fct_forward_batch(v), fwd), (fct_backward_batch(v), back)):
                dev = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert dev <= TOLERANCE[dtype]
        else:
            assert np.array_equal(fct_forward_batch(v), fwd)
            assert np.array_equal(fct_backward_batch(v), back)


    def test_unscaled_is_exactly_four_and_a_quarter_times_the_normalized(self, plane, dtype):
        # the factors are powers of two, so only the exponent moves
        rng = np.random.default_rng(sum(plane) + 4)
        v = rng.standard_normal((3,) + plane).astype(dtype)
        fwd = fct_forward_batch(v, unscaled=True)
        back = fct_backward_batch(v, unscaled=True)
        assert fwd.dtype == back.dtype == dtype
        assert np.array_equal(fwd, fct_forward_batch(v) * dtype(4.0))
        assert np.array_equal(back, fct_backward_batch(v) * dtype(0.25))
        buf = v.copy()
        assert fct_forward_batch(buf, out=buf, unscaled=True) is buf
        assert np.array_equal(buf, fwd)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_products_run_in_chunks_of_layers(dtype, monkeypatch):
    # a slab of many chunks gives the bits of its layers transformed alone
    rng = np.random.default_rng(10)
    v = rng.standard_normal((7, 5, 6)).astype(dtype)
    whole, whole_back = fct_forward_batch(v), fct_backward_batch(v)
    monkeypatch.setattr(transforms, "_BLOCK_BYTES", 2 * 5 * 6 * v.itemsize)
    assert np.array_equal(fct_forward_batch(v), whole)
    assert np.array_equal(fct_backward_batch(v), whole_back)
    in_place = v.copy()
    assert np.array_equal(fct_forward_batch(in_place, out=in_place), whole)
    for k in range(7):
        assert np.array_equal(fct_forward_batch(v[k:k + 1])[0], whole[k])


# a plane of each branch: products (24-wide) and pocketfft (65-wide)
OUT_PLANES = [(24, 24), (65, 24)]
TRANSFORMS = [fct_forward_batch, fct_backward_batch]


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("plane", OUT_PLANES)
class TestOutContract:
    def test_refuses_an_out_of_another_dtype(self, plane, transform):
        v = np.ones((3,) + plane)
        with pytest.raises(ValueError, match="out has dtype float32, expected float64"):
            transform(v, out=np.empty(v.shape, dtype=np.float32))
        # the dtype after integer data is promoted to f64
        with pytest.raises(ValueError, match="out has dtype float32, expected float64"):
            transform(np.ones((3,) + plane, dtype=np.int64),
                      out=np.empty(v.shape, dtype=np.float32))

    def test_refuses_an_out_that_overlaps_the_data(self, plane, transform):
        # enough layers that the product branch runs several chunks
        buf = np.random.default_rng(12).standard_normal((201,) + plane)
        kept = buf.copy()
        with pytest.raises(ValueError, match="overlaps the data"):
            transform(buf[:-1], out=buf[1:])
        with pytest.raises(ValueError, match="overlaps the data"):
            transform(buf[1:], out=buf[:-1])
        assert np.array_equal(buf, kept)

    def test_takes_the_same_memory_through_another_view(self, plane, transform):
        rng = np.random.default_rng(13)
        v = rng.standard_normal((5,) + plane)
        want = transform(v)
        flat = v.copy().ravel()
        # a second view object of the same elements, as the FCT workspace is
        out = flat.reshape(v.shape)
        assert transform(flat.reshape(v.shape), out=out) is out
        assert np.array_equal(out, want)
