"""Tests for the spectral layer: grids, Fourier tables, models, minimality.

Reference values come from closed forms that are independent of the code
under test: geometric autoregressive covariances, finite moving-average
covariances computed by direct convolution, and hand-integrated trig
polynomials.
"""

import re

import numpy as np
import pytest

from gapcast import (
    FourierTable,
    SpectralModel,
    ar1_model,
    ar1_scalar,
    check_minimality,
    coeffs_from_samples,
    covariance,
    grid_points,
    laurent_density,
    laurent_entry,
    ma_pair_model,
    make_ar1_pair,
    white_model,
)
from gapcast.errors import (
    DataShapeError,
    InsufficientLagError,
    InvalidParameterError,
    SingularDensityError,
)
from gapcast.spectral import _eigvalsh, _inv, density_data

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# grid and Fourier coefficients
# ---------------------------------------------------------------------------


def test_grid_layout():
    lam = grid_points(8)
    assert lam.shape == (8,)
    assert lam[0] == pytest.approx(-np.pi)
    assert np.allclose(np.diff(lam), 2 * np.pi / 8)
    assert lam[-1] == pytest.approx(np.pi - 2 * np.pi / 8)


def test_model_rejects_bad_grid_sizes():
    for n in (48, 32):  # not a power of two / below the minimum
        with pytest.raises(InvalidParameterError):
            white_model(1, grid_size=n)


def test_white_coefficients_vanish_off_zero():
    table = coeffs_from_samples(density_data(1.7, 64, 2, "F"), max_lag=6)
    assert np.allclose(table.coeff(0), 1.7 * np.eye(2), atol=1e-14)
    for k in range(1, 7):
        assert np.abs(table.coeff(k)).max() < 1e-14
        assert np.abs(table.coeff(-k)).max() < 1e-14


def test_trig_polynomial_coefficients_exact():
    # f(lam) = 2 + e^{i lam} + e^{-i lam} has c(0)=2, c(+-1)=1, c(k)=0 else.
    def f(lam):
        return (2.0 + 2.0 * np.cos(lam))[:, None, None].astype(complex)

    table = coeffs_from_samples(f(grid_points(64)), max_lag=5)
    assert table.coeff(0)[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert table.coeff(1)[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert table.coeff(-1)[0, 0] == pytest.approx(1.0, abs=1e-14)
    for k in (2, 3, 4, 5):
        assert abs(table.coeff(k)[0, 0]) < 1e-14


def test_table_lag_bounds():
    table = coeffs_from_samples(density_data(1.0, 64, 1, "F"), max_lag=3)
    with pytest.raises(InsufficientLagError):
        table.coeff(4)
    with pytest.raises(InsufficientLagError):
        table.coeff(-4)


def test_grid_too_small_for_lag():
    # n nodes resolve lags up to n/4; the refusal names the smallest grid, a
    # power of two of at least 64 nodes, that resolves the lag asked for
    samples = density_data(1.0, 64, 1, "F")
    assert coeffs_from_samples(samples, max_lag=16).max_lag == 16
    with pytest.raises(InsufficientLagError, match=r"^a grid of 64 nodes resolves lags "
                       r"up to 16, not 17; lag 17 needs at least 128 nodes$"):
        coeffs_from_samples(samples, max_lag=17)
    with pytest.raises(InsufficientLagError, match="lag 33 needs at least 256 nodes$"):
        coeffs_from_samples(samples, max_lag=33)
    with pytest.raises(InsufficientLagError, match="lag 3 needs at least 64 nodes$"):
        coeffs_from_samples(density_data(1.0, 8, 1, "F"), max_lag=3)
    with pytest.raises(InvalidParameterError):
        coeffs_from_samples(samples, max_lag=-1)


def test_hermitian_defect_zero_for_hermitian_integrand():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))

    def f(lam):
        ph = np.exp(1j * lam)[:, None, None]
        base = A[None] * ph + np.conj(A.T)[None] * np.conj(ph)
        return base + 5.0 * np.eye(2)[None]

    table = coeffs_from_samples(f(grid_points(128)), max_lag=4)
    # max_k || c(-k) - c(k)^* ||
    adj = np.conj(np.swapaxes(table.data, -1, -2))
    assert np.abs(table.data[::-1] - adj).max() < 1e-14


def test_nonfinite_integrand_rejected():
    def f(lam):
        out = np.ones((len(lam), 1, 1), dtype=complex)
        out[3] = np.inf
        return out

    with pytest.raises(SingularDensityError):
        SpectralModel(dim=1, F=f, grid_size=64)


# ---------------------------------------------------------------------------
# covariances against closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b,scale", [(0.5, 1.0), (-0.3, 2.5), (0.9, 0.4)])
def test_ar1_covariance_geometric(b, scale):
    # For f(lam) = scale / |1 - b e^{i lam}|^2 the covariance sequence is
    # R(n) = scale * b^n / (1 - b^2), n >= 0 -- a geometric decay.
    model = SpectralModel(dim=1, F=lambda lam: ar1_scalar(lam, b, scale)[:, None, None],
                          grid_size=1024, pole_modulus=abs(b))
    for n in (0, 1, 2, 5, 9):
        want = scale * b ** n / (1.0 - b * b)
        got = covariance(model, n)[0, 0]
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_covariance_conjugate_symmetry():
    rng = np.random.default_rng(11)
    c0 = rng.normal(size=(2, 2))
    c1 = rng.normal(size=(2, 2))
    model = ma_pair_model([c0, c1], grid_size=256)
    for n in range(5):
        Rp = covariance(model, n)
        Rm = covariance(model, -n)
        assert np.allclose(Rm, Rp.conj().T, atol=1e-12)


def test_ma_covariance_by_direct_convolution():
    # xi(t) = C0 w(t) + C1 w(t-1) with unit white w gives
    # R(0) = C0 C0^T + C1 C1^T and R(1) = C1 C0^T.
    C0 = np.array([[1.0, 0.2], [0.0, 1.0]])
    C1 = np.array([[0.5, -0.3], [0.4, 0.1]])
    model = ma_pair_model([C0, C1], grid_size=256)
    R0 = covariance(model, 0)
    R1 = covariance(model, 1)
    assert np.allclose(R0, C0 @ C0.T + C1 @ C1.T, atol=1e-12)
    assert np.allclose(R1, C1 @ C0.T, atol=1e-12)
    assert np.abs(covariance(model, 2)).max() < 1e-12


def test_ma_pair_cross_covariance():
    # Shared innovations couple signal and noise: with w = v the cross
    # covariance at lag 0 is sum_j Cx_j S Ce_j^T for innovation blocks S.
    Cx = [np.array([[1.0]]), np.array([[0.6]])]
    Ce = [np.array([[0.8]]), np.array([[-0.2]])]
    S = np.array([[1.0, 0.7], [0.7, 1.0]])
    model = ma_pair_model(Cx, Ce, innovation_cov=S, grid_size=256)
    want = sum(Cx[j] @ S[:1, 1:] @ Ce[j].T for j in range(2))
    got = covariance(model, 0, which="Fxe")
    assert np.allclose(got, want, atol=1e-12)
    assert not model.is_uncorrelated
    # Observation density must stay consistent: Fz = F + Fxe + Fxe^* + G.
    Fz = model.samples("Fz")
    rebuilt = (model.samples("F") + model.samples("G") + model.samples("Fxe")
               + np.conj(np.swapaxes(model.samples("Fxe"), -1, -2)))
    assert np.abs(Fz - rebuilt).max() < 1e-12


# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b1,b2", [(0.5, 0.3), (-0.7, 0.2), (0.9, -0.95)])
def test_make_ar1_pair_entries(b1, b2):
    # the mixed AR(1) model is the hand-built F = [[f, f], [f, f + g]] bit for bit
    model = make_ar1_pair(b1, b2, grid_size=256)
    f, g = ar1_scalar(model.lam, b1), ar1_scalar(model.lam, b2)
    hand = np.empty((256, 2, 2), dtype=complex)
    hand[:, 0, 0] = hand[:, 0, 1] = hand[:, 1, 0] = f
    hand[:, 1, 1] = f + g
    assert np.array_equal(model.samples("F"), hand)
    assert model.is_noiseless
    assert model.pole_modulus == pytest.approx(max(abs(b1), abs(b2)))


def test_ar1_model_with_noise_variants():
    m = ar1_model(poles=(0.6, -0.4), scales=(1.0, 2.0),
                  noise_poles=(0.2, 0.1), noise_scales=(0.5, 0.5),
                  grid_size=256)
    assert not m.is_noiseless
    assert m.is_uncorrelated
    G = m.samples("G")
    lam = m.lam
    assert np.allclose(G[:, 0, 0], ar1_scalar(lam, 0.2, 0.5), atol=1e-12)
    assert np.abs(G[:, 0, 1]).max() < 1e-14


def test_ar1_model_mix_keeps_density_psd():
    mix = np.array([[1.0, 0.4], [0.1, 1.0]])
    m = ar1_model(poles=(0.7, 0.3), mix=mix, grid_size=256)
    F = m.samples("F")
    eigs = np.linalg.eigvalsh(0.5 * (F + np.conj(np.swapaxes(F, -1, -2))))
    assert eigs.min() > -1e-12


def test_laurent_entry_matches_ar1():
    # 1 / |1 - 0.5 z|^2 expands to 1 / (-0.5 z^{-1} + 1.25 - 0.5 z).
    lam = grid_points(256)
    fn = laurent_entry(0, (1.0,), -1, (-0.5, 1.25, -0.5))
    assert np.allclose(fn(lam), ar1_scalar(lam, 0.5), atol=1e-12)


def test_laurent_density_assembles_matrix():
    d = laurent_density(2, {(0, 0): laurent_entry(0, (2.0,)),
                            (0, 1): laurent_entry(1, (0.5,)),
                            (1, 1): laurent_entry(0, (1.0,))})
    lam = grid_points(64)
    vals = d(lam)
    assert vals.shape == (64, 2, 2)
    assert np.allclose(vals[:, 0, 0], 2.0)
    assert np.allclose(vals[:, 0, 1], 0.5 * np.exp(1j * lam))
    # unspecified lower entry mirrors the upper one conjugated
    assert np.allclose(vals[:, 1, 0], np.conj(vals[:, 0, 1]))


def test_per_node_density_data_pins_grid():
    samples = np.ones((64, 1, 1), dtype=complex)
    model = SpectralModel(dim=1, F=samples, grid_size=64)
    assert np.array_equal(model.samples("F"), samples)
    with pytest.raises(DataShapeError, match="F: expected a number, a 1x1 matrix or a "
                                             "128x1x1 per-node array, got shape"):
        model.with_grid(128)
    with pytest.raises(InvalidParameterError):
        SpectralModel(dim=1, F=samples, grid_size=128)


def _constant(value):
    """The function form of a constant: ``value`` times the identity, or the matrix."""
    mat = value * np.eye(2) if np.ndim(value) == 0 else np.asarray(value)
    return lambda lam: np.broadcast_to(mat, (lam.size, 2, 2))


@pytest.mark.parametrize("form", ["number", "matrix", "per-node", "function"])
def test_model_densities_read_every_form_of_density_data(form):
    # F, G and F_xe in one form sample exactly as their function form does
    n = 64
    pair = ma_pair_model([np.eye(2), [[0.5, 0.2], [0.0, 0.3]]], [np.eye(2)],
                         innovation_cov=np.eye(4) + 0.3 * np.eye(4, k=2) + 0.3 * np.eye(4, k=-2),
                         grid_size=n)
    data = {
        "number": {"F": 2.0, "G": 1.5, "F_xe": 0.3},
        "matrix": {"F": [[2.0, 0.5], [0.5, 1.0]], "G": [[1.5, 0.2j], [-0.2j, 1.0]],
                   "F_xe": [[0.3, 0.1], [0.0, 0.2]]},
        "per-node": {key: getattr(pair, key)(grid_points(n)) for key in ("F", "G", "F_xe")},
        "function": {key: getattr(pair, key) for key in ("F", "G", "F_xe")},
    }[form]
    functions = ({key: getattr(pair, key) for key in data} if form in ("per-node", "function")
                 else {key: _constant(value) for key, value in data.items()})
    model = SpectralModel(dim=2, grid_size=n, **data)
    reference = SpectralModel(dim=2, grid_size=n, **functions)
    assert not model.is_uncorrelated
    for which in ("F", "G", "Fxe", "Fex", "Fz"):
        assert np.array_equal(model.samples(which), reference.samples(which))
    if form == "per-node":   # per-node data is known on its own grid only
        with pytest.raises(DataShapeError, match="F: expected a number"):
            model.with_grid(2 * n)
    else:
        assert np.array_equal(model.with_grid(2 * n).samples("Fz"),
                              reference.with_grid(2 * n).samples("Fz"))


def test_density_functions_read_the_shared_nodes():
    seen = []
    model = SpectralModel(dim=1, F=lambda lam: seen.append(lam) or np.ones((lam.size, 1, 1)),
                          grid_size=64)
    assert len(seen) == 1 and seen[0] is model.lam and not seen[0].flags.writeable


@pytest.mark.parametrize("value", [np.nan, np.inf, [[1.0, 0.0], [0.0, np.nan]]])
def test_density_data_refuses_non_finite_values(value):
    with pytest.raises(SingularDensityError,
                       match=r"density 'data.upper' is non-finite at grid node lambda=-3\.14") \
            as info:
        density_data(value, 64, 2, "data.upper")
    assert info.value.key == "data.upper"


def test_with_grid_regrids_callable_models():
    m = white_model(1, scale=3.0, grid_size=64)
    m2 = m.with_grid(256)
    assert m2.grid_size == 256
    assert np.allclose(m2.samples("F")[:, 0, 0], 3.0)


def test_psd_validation_at_construction():
    bad = -np.ones((64, 1, 1), dtype=complex)
    with pytest.raises(InvalidParameterError):
        SpectralModel(dim=1, F=bad, grid_size=64,
                      pole_modulus=None)
    skew = np.zeros((64, 2, 2), dtype=complex)
    skew[:, 0, 1] = 1.0
    skew[:, 1, 0] = -1.0
    with pytest.raises(InvalidParameterError):
        SpectralModel(dim=2, F=skew, grid_size=64,
                      pole_modulus=None)


def _flat(dim, value=1.0):
    return np.broadcast_to(value * np.eye(dim, dtype=complex), (64, dim, dim))


def test_validation_checks_the_noise_and_cross_densities():
    skew = np.zeros((64, 2, 2), dtype=complex)
    skew[:, 0, 1], skew[:, 1, 0] = 1.0, -1.0
    cross = np.full((64, 1, 1), 0.1 + 0.1j)
    for kwargs, message in [
        (dict(dim=1, G=_flat(1, -1.0)), "density G has a negative eigenvalue"),
        (dict(dim=2, G=skew), "density G is not Hermitian"),
        (dict(dim=1, F_xe=cross), "noiseless model cannot carry"),
    ]:
        with pytest.raises(InvalidParameterError, match=message):
            SpectralModel(F=_flat(kwargs["dim"]), grid_size=64, **kwargs)


def test_validation_checks_the_joint_density():
    # F = G = 1 with F_xe = 1.5: each density is PSD, but [[1, 1.5], [1.5, 1]]
    # has the eigenvalue -0.5, so no (xi, eta) has these densities
    with pytest.raises(InvalidParameterError,
                       match="joint signal-noise density is not positive semidefinite"):
        SpectralModel(dim=1, F=_flat(1), G=_flat(1), F_xe=_flat(1, 1.5), grid_size=64)
    # the rank-one boundary F_xe = 1 is a process: xi = eta
    SpectralModel(dim=1, F=_flat(1), G=_flat(1), F_xe=_flat(1, 1.0), grid_size=64)
    # correlated innovations give a PSD joint density by construction, of
    # rank one when the innovations are equal
    for rho in (0.5, 1.0):
        model = ma_pair_model([[[1.0]], [[0.6]]], [[[0.8]]],
                              innovation_cov=[[1.0, rho], [rho, 1.0]], grid_size=256)
        assert not model.is_uncorrelated


@pytest.mark.parametrize("c", [1e-12, 1e-7, 1.0, 1e9])
def test_validation_does_not_depend_on_units(c):
    # the tolerances are relative to the density: below unit scale they used
    # to act as absolute ones, and F = -0.5e-12 passed as a density
    for kwargs, message in [
        (dict(F=_flat(1, -0.5 * c), G=_flat(1, c)), "density F has a negative eigenvalue"),
        (dict(F=_flat(1, c), G=_flat(1, -0.5 * c)), "density G has a negative eigenvalue"),
        (dict(F=_flat(1, c), G=_flat(1, c), F_xe=_flat(1, 1.5 * c)),
         "joint signal-noise density is not positive semidefinite"),
    ]:
        with pytest.raises(InvalidParameterError, match=message):
            SpectralModel(dim=1, grid_size=64, **kwargs)
    skew = np.zeros((64, 2, 2), dtype=complex)
    skew[:, 0, 0], skew[:, 1, 1] = c, c
    skew[:, 0, 1] = 1e-6 * c
    with pytest.raises(InvalidParameterError, match="density F is not Hermitian"):
        SpectralModel(dim=2, F=skew, grid_size=64)
    SpectralModel(dim=1, F=_flat(1, c), G=_flat(1, c), F_xe=_flat(1, c), grid_size=64)


def test_an_all_zero_density_is_accepted():
    model = SpectralModel(dim=2, F=_flat(2), G=_flat(2, 0.0), grid_size=64)
    assert model.is_noiseless
    SpectralModel(dim=2, F=_flat(2, 0.0), G=_flat(2), grid_size=64)


def test_adjoint_cross_density_is_derived_from_the_cross_density():
    values = np.random.default_rng(3).normal(size=(64, 2, 2, 2)) @ [1.0, 1.0j]
    model = SpectralModel(dim=2, F=_flat(2, 4.0), G=_flat(2, 4.0),
                          F_xe=values, grid_size=64)
    assert np.array_equal(model.samples("Fex"), np.conj(np.swapaxes(values, -1, -2)))
    noisy = SpectralModel(dim=2, F=_flat(2), G=_flat(2), grid_size=64)
    assert np.array_equal(noisy.samples("Fex"), np.zeros((64, 2, 2)))
    with pytest.raises(TypeError):
        SpectralModel(dim=1, F=_flat(1), F_ex=_flat(1), grid_size=64)


def test_validation_skips_absent_densities():
    model = SpectralModel(dim=1, F=_flat(1), grid_size=64)
    assert set(model._samples) == {"F"}
    assert model.is_noiseless and model.is_uncorrelated


def test_grid_nodes_are_computed_once_and_read_only():
    model = white_model(1, grid_size=128)
    assert model.lam is model.lam and not model.lam.flags.writeable
    assert np.array_equal(model.lam, grid_points(128))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_node_eigenvalues_match_eigvalsh(dim):
    # 1 x 1 blocks take the real part, which is what ?heevd returns; 2 x 2
    # blocks take the closed form, within rounding of ?heevd; larger ones ?heevd
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(256, dim, dim)) + 1j * rng.normal(size=(256, dim, dim))
    x = x @ np.conj(np.swapaxes(x, -1, -2))
    got, want = _eigvalsh(x), np.linalg.eigvalsh(x)
    if dim == 2:
        assert np.all(np.abs(got - want) <= 8 * EPS * want[:, -1:])
    else:
        assert np.array_equal(got, want)


def _hermitian_blocks(seed, n=4096, max_cond=1e12):
    """Random complex Hermitian positive definite 2 x 2 blocks, of largest
    eigenvalue 1e-8..1e8 and condition number 1..max_cond."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))[0]
    top = 10.0 ** rng.uniform(-8, 8, n)
    eig = np.stack((top / 10.0 ** rng.uniform(0, np.log10(max_cond), n), top), axis=-1)
    x = (q * eig[:, None, :]) @ np.conj(np.swapaxes(q, -1, -2))
    return 0.5 * (x + np.conj(np.swapaxes(x, -1, -2)))


@pytest.mark.parametrize("seed", range(3))
def test_node_kernels_on_hermitian_blocks_up_to_the_condition_ceiling(seed):
    x = _hermitian_blocks(seed)
    want = np.linalg.eigvalsh(x)
    got = _eigvalsh(x)
    assert np.all(np.abs(got - want) <= 8 * EPS * want[:, -1:])
    cond = want[:, 1] / want[:, 0]
    assert cond.max() > 1e11
    defect = np.linalg.norm(x @ _inv(x) - np.eye(2), ord=2, axis=(1, 2))
    assert np.all(defect <= 16 * EPS * cond)


def test_node_kernels_are_exact_on_diagonal_blocks():
    rng = np.random.default_rng(4)
    diag = rng.normal(size=(512, 2)) * 10.0 ** rng.uniform(-8, 8, size=(512, 2))
    diag[:8, 1] = diag[:8, 0]   # equal entries: a double eigenvalue
    x = np.zeros((512, 2, 2), dtype=complex)
    x[:, 0, 0], x[:, 1, 1] = diag[:, 0], diag[:, 1]
    assert np.array_equal(_eigvalsh(x), np.sort(diag, axis=1))


def test_node_kernels_on_a_double_eigenvalue_without_coupling():
    # a = d and b = 0: h = |b| = 0, where t must be 0 and not 0 / 0
    x = np.broadcast_to(np.diag([2.5, 2.5]).astype(complex), (64, 2, 2))
    with np.errstate(all="raise"):
        eig, inv = _eigvalsh(x), _inv(x)
    assert np.array_equal(eig, np.full((64, 2), 2.5))
    assert np.array_equal(inv, np.broadcast_to(np.diag([0.4, 0.4]), (64, 2, 2)))


def test_an_indefinite_2x2_density_is_refused_with_its_eigenvalue():
    # [[1, 2], [2, 1]] has the eigenvalues -1 and 3
    with pytest.raises(InvalidParameterError,
                       match=re.escape("density F has a negative eigenvalue (-1.00e+00)")):
        SpectralModel(dim=2, F=np.array([[1.0, 2.0], [2.0, 1.0]]), grid_size=64)
    # the 2 x 2 joint density of a correlated scalar model, [[1, 1.5], [1.5, 1]]
    with pytest.raises(InvalidParameterError, match=re.escape(
            "joint signal-noise density is not positive semidefinite (eigenvalue -5.00e-01)")):
        SpectralModel(dim=1, F=_flat(1), G=_flat(1), F_xe=_flat(1, 1.5), grid_size=64)


# ---------------------------------------------------------------------------
# minimality
# ---------------------------------------------------------------------------


def test_minimality_passes_for_regular_models():
    m = make_ar1_pair(0.5, 0.3, grid_size=256)
    rep = check_minimality(m)
    assert np.isfinite(rep.value)
    assert rep.value > 0
    assert check_minimality(m) is rep   # judged once per model


def test_minimality_fails_on_spectral_zero():
    # |1 - e^{i lam}|^2 vanishes at lam = 0, so the inverse density is not
    # integrable and the sequence cannot be minimal.
    m = ma_pair_model([np.array([[1.0]]), np.array([[-1.0]])], grid_size=256)
    with pytest.raises(SingularDensityError) as err:
        check_minimality(m)
    assert str(err.value) == ("minimality check failed: observation density "
                              "singular at lambda=0.000000")


@pytest.mark.parametrize("model,spread", [
    # two equal AR(0.9) components, one at 1e-13 of the other's power: 1e13
    # at every node, and 100 at 0 against 1e-13 / 3.61 at pi over the grid
    (lambda: ar1_model(poles=[0.9, 0.9], scales=[1.0, 1e-13], grid_size=256), "3.610e+15"),
    # the noiseless unit-root MA(1): a 1 x 1 block is 1 at every node, but
    # |1 + e^{i lambda}|^2 runs from 4 at 0 to its rounding residue at pi
    (lambda: ma_pair_model([[[1.0]], [[1.0]]], grid_size=256), "2.667e+32"),
], ids=["ar1_pair", "unit_root_ma1"])
def test_minimality_fails_above_the_condition_ceiling(model, spread):
    with pytest.raises(SingularDensityError) as err:
        check_minimality(model())
    assert str(err.value) == (
        f"minimality check failed: condition number {spread} exceeds ceiling 1.0e+12: "
        "largest eigenvalue at lambda=0.000000, smallest at lambda=-3.141593")


def test_minimality_fails_on_a_non_finite_integral():
    # 3e-308 I is well conditioned, but six reciprocals of it overflow
    m = SpectralModel(dim=6, F=3e-308, grid_size=64)
    with np.errstate(over="ignore"), pytest.raises(SingularDensityError) as err:
        check_minimality(m)
    assert str(err.value) == "minimality check failed: non-finite integral"


def test_minimality_value_matches_quadrature():
    # Scalar check: value is the average of 1/f over the grid.
    m = SpectralModel(dim=1,
                      F=lambda lam: ar1_scalar(lam, 0.4, 2.0)[:, None, None],
                      grid_size=512, pole_modulus=0.4)
    rep = check_minimality(m)
    want = float(np.mean(1.0 / ar1_scalar(m.lam, 0.4, 2.0)))
    assert rep.value == pytest.approx(want, rel=1e-12)
