import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condwalk import (DomainError, IncrementLaw, NoTiltExists, cramer_tilt,
                      format_law, is_lattice, left_exit_prob, log_mgf,
                      parse_law, tilted_mean)
from condwalk import increments, special
from condwalk.rngstream import chunk_generator


def test_sample_degenerate_law():
    law = IncrementLaw.finite([1.0], [1.0])
    rng = chunk_generator(0, 0)
    assert law.sample_block(rng, 1)[0] == 1.0


def test_sampling_deterministic_given_state():
    law = IncrementLaw.gaussian(0, 1)
    a = law.sample_block(chunk_generator(123, 5), 1)[0]
    b = law.sample_block(chunk_generator(123, 5), 1)[0]
    assert a == b


def test_uniform_sample_mean_clt_bound():
    law = IncrementLaw.uniform(-1, 1)
    rng = chunk_generator(77, 0)
    draws = law.sample_block(rng, 10 ** 6)
    assert abs(draws.mean()) <= 4.0 * (1.0 / math.sqrt(3.0)) / 1e3


_SAMPLERS = {
    "gaussian": IncrementLaw.gaussian(0.5, 2.0),
    "laplace": IncrementLaw.laplace(-0.5, 1.5),
    "uniform": IncrementLaw.uniform(-1.0, 3.0),
    "finite": IncrementLaw.finite([-1.0, 0.5, 2.0], [0.5, 0.3, 0.2]),
    "tilted_laplace": cramer_tilt(IncrementLaw.laplace(-0.3, 1.0)),
    "tilted_uniform": cramer_tilt(IncrementLaw.uniform(-2.0, 1.0)),
}


@pytest.mark.parametrize("name", sorted(_SAMPLERS))
def test_sample_block_into_out_draws_the_same(name):
    sampler = _SAMPLERS[name]
    fresh = sampler.sample_block(chunk_generator(5, 2), (300, 7))
    buf = np.full(4000, np.nan)
    out = buf[:2100].reshape(300, 7)
    got = sampler.sample_block(chunk_generator(5, 2), (300, 7), out=out)
    assert got is out
    assert np.array_equal(fresh, out)
    assert np.isnan(buf[2100:]).all()


class _PlacedUniforms:
    """A generator whose uniform draws are the given values, in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape, out=None):
        if out is None:
            out = np.empty(shape)
        out[...] = self.u.reshape(out.shape)
        return out


@pytest.mark.parametrize("atoms", [1, 2, 3, 32, 33])
def test_finite_sampler_matches_binary_search(atoms):
    # up to 32 atoms the sampler counts edges instead of calling
    # searchsorted; the index must be searchsorted's for every u in [0, 1)
    rnd = np.random.default_rng(atoms)
    probs = rnd.dirichlet(np.ones(atoms))
    if atoms > 2:
        probs[1] = 0.0  # a repeated edge
        probs /= math.fsum(probs)
    law = IncrementLaw.finite(rnd.normal(size=atoms), probs)
    cum = np.cumsum(law.probs)
    cum[-1] = 1.0
    edges = cum[:-1]
    u = np.concatenate([edges, np.nextafter(edges, 0.0),
                        np.nextafter(edges, 1.0), rnd.random(501),
                        [0.0, np.nextafter(1.0, 0.0)]])
    if u.size % 2:
        u = u[1:]
    expect = np.asarray(law.points)[np.searchsorted(cum, u, side="right")]
    assert np.array_equal(law.sample_block(_PlacedUniforms(u), u.size), expect)
    out = np.empty((u.size // 2, 2))
    got = law.sample_block(_PlacedUniforms(u), out.shape, out=out)
    assert got is out
    assert np.array_equal(out.ravel(), expect)


class _ZeroFirst:
    """A generator whose first uniform draw is exactly 0."""

    def random(self, shape, out=None):
        out = np.random.default_rng(0).random(shape, out=out)
        out.flat[0] = 0.0
        return out


def test_laplace_sampler_maps_zero_uniform_to_a_finite_draw():
    draws = IncrementLaw.laplace(0.0, 1.0).sample_block(_ZeroFirst(), 10)
    assert np.isfinite(draws).all()
    assert draws[0] == pytest.approx(math.log(2.0 ** -53))


def test_laplace_sampler_matches_the_law():
    from scipy import stats
    law = IncrementLaw.laplace(-0.5, 1.5)
    draws = law.sample_block(chunk_generator(61, 0), 2 * 10 ** 5)
    assert stats.kstest(draws, np.vectorize(law.cdf)).pvalue > 1e-4


# -- moments ----------------------------------------------------------------


@pytest.mark.parametrize("spec, mean, variance", [
    ("gaussian:-0.5,1", -0.5, 1.0), ("finite:-1,0.5;1,0.5", 0.0, 1.0),
    ("uniform:-1,1", 0.0, 1.0 / 3.0), ("laplace:0,2", 0.0, 8.0)])
def test_law_mean_and_variance(spec, mean, variance):
    law = parse_law(spec)
    assert law.mean == mean
    assert law.variance == pytest.approx(variance, rel=1e-14)


# -- Cramér tilt -------------------------------------------------------------


def test_gaussian_tilt_closed_form():
    t = cramer_tilt(IncrementLaw.gaussian(-0.5, 1.0))
    assert t.lam == pytest.approx(0.5, abs=1e-12)
    assert t.log_mgf == pytest.approx(-0.125, abs=1e-12)
    assert t.variance == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("spec", ["gaussian:-0.5,2", "finite:-1,0.6;1,0.4"])
def test_tilted_law_draws_and_integrates_as_the_plain_law(spec):
    # a tilted gaussian is the gaussian shifted by lam b^2, and a tilted
    # finite law re-weights the atoms by e^{lam x}: the tilt draws as that
    # untilted law does, bit for bit (random stream v3)
    law = parse_law(spec)
    t = cramer_tilt(law)
    if law.family == "gaussian":
        plain = IncrementLaw.gaussian(law.a + t.lam * law.b ** 2, law.b)
    else:
        x = np.asarray(law.points)
        w = np.asarray(law.probs) * np.exp(t.lam * x - np.max(t.lam * x))
        plain = IncrementLaw.finite(law.points, w / np.sum(w))
    for shape in [(300, 7), 1000]:
        want = plain.sample_block(chunk_generator(5, 2), shape).tobytes()
        buf = np.empty(shape)
        assert t.sample_block(chunk_generator(5, 2), shape, out=buf) is buf
        assert buf.tobytes() == want
        assert t.sample_block(chunk_generator(5, 2), shape).tobytes() == want
    if law.family != "gaussian":
        return
    u = np.linspace(-9.0, 9.0, 181)
    for got, ref in [(t, plain), (increments._mirror(t),
                                  IncrementLaw.gaussian(-plain.a, plain.b))]:
        for a, b in zip(increments._cdf_partial_mean(got, u),
                        increments._cdf_partial_mean(ref, u)):
            assert a.tobytes() == b.tobytes()
    assert (increments._density(t, u).tobytes()
            == increments._density(plain, u).tobytes())
    assert t.support_bounds() == plain.support_bounds()


def test_zero_mean_identity_tilt():
    law = IncrementLaw.gaussian(0.0, 2.0)
    t = cramer_tilt(law)
    assert t is law
    assert t.lam == 0.0 and t.log_mgf == 0.0
    assert t.variance == 4.0


def test_finite_support_root_residual():
    law = IncrementLaw.finite([-2.0, 1.0], [0.25, 0.75])
    t = cramer_tilt(law)
    assert abs(tilted_mean(law, t.lam)) <= 1e-12
    assert abs(sum(x * p for x, p in zip(t.points, t.probs))) <= 1e-12


def test_laplace_tilt_against_analytic_root():
    # root of mu (1 - lam^2 b^2) + 2 lam b^2 = 0 inside the mgf strip
    mu, b = -0.5, 1.0
    law = IncrementLaw.laplace(mu, b)
    t = cramer_tilt(law)
    analytic = (b - math.sqrt(b * b + mu * mu)) / (mu * b)
    assert t.lam == pytest.approx(analytic, abs=1e-10)
    assert abs(tilted_mean(law, t.lam)) <= 1e-12


def test_uniform_tilt_against_analytic_mean():
    law = IncrementLaw.uniform(-2.0, 1.0)
    t = cramer_tilt(law)

    def exact_txm(lam):  # integral of x e^{lam x} / (hi - lo)
        lo, hi = -2.0, 1.0
        prim = lambda x: math.exp(lam * x) * (lam * x - 1.0) / lam ** 2
        return (prim(hi) - prim(lo)) / (hi - lo)

    assert abs(exact_txm(t.lam)) <= 1e-11
    assert t.log_mgf < 0.0


@pytest.mark.parametrize("law", [
    IncrementLaw.finite([-1.0], [1.0]),
    IncrementLaw.finite([1.0, 2.0], [0.5, 0.5]),
])
def test_no_tilt_exists_reports_bracket(law):
    with pytest.raises(NoTiltExists) as err:
        cramer_tilt(law)
    assert err.value.bracket is not None


def test_log_mgf_negative_at_root_for_drifted_laws():
    for law in (IncrementLaw.gaussian(0.3, 1.0), IncrementLaw.laplace(0.2, 0.7),
                IncrementLaw.uniform(-1.0, 2.0),
                IncrementLaw.finite([-1, 0, 2], [0.2, 0.3, 0.5])):
        t = cramer_tilt(law)
        assert t.lam != 0.0
        assert t.log_mgf < 0.0
        assert t.variance > 0.0


def test_residual_grid_around_root():
    law = IncrementLaw.laplace(-0.4, 0.8)
    t = cramer_tilt(law)
    assert abs(tilted_mean(law, t.lam)) <= 1e-12
    # tilted mean is increasing through the root
    assert tilted_mean(law, t.lam - 0.05) < 0 < tilted_mean(law, t.lam + 0.05)


@pytest.mark.parametrize("family", ["uniform", "laplace", "gaussian", "finite"])
def test_tilt_round_trip_sampling(family):
    law = {
        "uniform": IncrementLaw.uniform(-2.0, 1.0),
        "laplace": IncrementLaw.laplace(-0.5, 1.0),
        "gaussian": IncrementLaw.gaussian(-0.5, 1.0),
        "finite": IncrementLaw.finite([-2.0, 1.0], [0.25, 0.75]),
    }[family]
    tilt = cramer_tilt(law)
    draws = tilt.sample_block(chunk_generator(42, 3), 10 ** 6)
    s_lam = math.sqrt(tilt.variance)
    assert abs(draws.mean()) <= 4.0 * s_lam / 1e3
    assert draws.var() == pytest.approx(tilt.variance, rel=0.02)


def _uniform_f_m_reference(a, b, lam, t):
    """F(t) and M(t) of uniform[a, b] tilted by lam, to 50 digits."""
    import mpmath
    with mpmath.workdps(50):
        a, b, lam = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(lam)
        t = min(max(mpmath.mpf(t), a), b)
        scale = mpmath.expm1(lam * (b - a))
        e = mpmath.expm1(lam * (t - a))
        return e / scale, (t * (e + 1) - a - e / lam) / scale


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-3.0, 0.5), (0.2, 5.0)])
@pytest.mark.parametrize("lam_w", [-1.5e-5, 2e-9, 3e-3, -0.4, 2.5, -40.0,
                                   800.0, -800.0])
def test_tilted_uniform_cdf_partial_mean_to_50_digits(a, b, lam_w):
    # lam (b - a) = lam_w: small tilts cancelled in the closed form, and
    # lam (b - a) > 709 overflowed it to NaN
    lam = lam_w / (b - a)
    t = np.concatenate([np.linspace(a, b, 33), [a + 1e-7, b - 1e-7]])
    base = IncrementLaw.uniform(a, b)
    law = increments.TiltedLaw(base, lam, log_mgf(base, lam))
    f, m = increments._cdf_partial_mean(law, t)
    scale = max(abs(a), abs(b))
    for ti, fi, mi in zip(t, f, m):
        f_ref, m_ref = _uniform_f_m_reference(a, b, lam, ti)
        assert abs(fi - f_ref) <= 1e-12 * f_ref + 1e-300
        assert abs(mi - m_ref) <= 1e-15 * scale


# -- left exit probability ----------------------------------------------------


def test_left_exit_values():
    g = IncrementLaw.gaussian(0, 1)
    assert left_exit_prob(g, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert left_exit_prob(g, 1.0) == pytest.approx(0.15865525393145707, abs=1e-12)
    f = IncrementLaw.finite([-1, 1], [0.5, 0.5])
    assert left_exit_prob(f, 0.5) == 0.5
    assert left_exit_prob(f, 1.0) == 0.0  # atom exactly at -t does not exit


@given(st.floats(min_value=-3, max_value=8), st.floats(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_left_exit_monotone_and_in_unit_interval(t, dt):
    law = IncrementLaw.laplace(0.1, 0.9)
    p1, p2 = left_exit_prob(law, t), left_exit_prob(law, t + dt)
    assert 0.0 <= p2 <= p1 <= 1.0


# -- mirrored laws -------------------------------------------------------------


_MIRRORED = [IncrementLaw.gaussian(0.3, 1.5), IncrementLaw.laplace(-0.2, 0.7),
             IncrementLaw.uniform(-1.0, 2.5),
             cramer_tilt(parse_law("laplace:-0.3,1")),
             cramer_tilt(parse_law("uniform:-1,2"))]


@pytest.mark.parametrize("law", _MIRRORED, ids=["gaussian", "laplace",
                                                "uniform", "tilted_laplace",
                                                "tilted_uniform"])
def test_mirror_is_the_law_of_minus_x(law):
    mirror = increments._mirror(law)
    u = np.concatenate([np.linspace(-6.0, 6.0, 97),
                        [law.a, -law.a, law.b, -law.b]])
    assert np.array_equal(increments._density(mirror, u),
                          increments._density(law, -u))
    f = increments._cdf_partial_mean(mirror, u)[0]
    f_minus = increments._cdf_partial_mean(law, -u)[0]
    # F of -X at t is P(X >= -t) = 1 - F(-t): X has no atoms
    assert np.max(np.abs(f + f_minus - 1.0)) <= 1e-15
    assert increments._mirror(mirror) == law


# -- lattice test --------------------------------------------------------------


def test_lattice_decisions():
    assert not is_lattice(IncrementLaw.gaussian(0, 1))
    assert not is_lattice(IncrementLaw.laplace(0, 1))
    assert not is_lattice(IncrementLaw.uniform(-1, 1))
    assert is_lattice(IncrementLaw.finite([-1, 1], [0.5, 0.5]))
    assert is_lattice(IncrementLaw.finite([-1, 0, 1], [1 / 3] * 3))
    assert is_lattice(IncrementLaw.finite([0, 1 / 3, 0.5, 1], [0.25] * 4))
    assert not is_lattice(
        IncrementLaw.finite([-1, 0, math.sqrt(2)], [1 / 3] * 3))
    # any two-atom law sits on an arithmetic progression
    assert is_lattice(IncrementLaw.finite([-1, math.sqrt(2)], [0.5, 0.5]))


# -- grammar -------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    "gaussian:0.0,1.0", "laplace:-0.5,1.25", "uniform:-1.0,1.0",
    "finite:-1.0,0.5;1.0,0.5",
])
def test_grammar_round_trip(spec):
    law = parse_law(spec)
    assert parse_law(format_law(law)) == law


@pytest.mark.parametrize("spec, canonical", [
    ("gaussian:0.0,1.0", "gaussian:0.0,1.0"),
    (" Gaussian:0,1", "gaussian:0.0,1.0"),
    ("laplace:-0.5,1.25", "laplace:-0.5,1.25"),
    ("uniform:-1,2", "uniform:-1.0,2.0"),
    ("finite:1,0.25;-1,0.75", "finite:-1.0,0.75;1.0,0.25")])
def test_grammar_canonical_spelling(spec, canonical):
    # cached tables and row estimates are keyed by this spelling
    assert format_law(parse_law(spec)) == canonical


def test_grammar_rejects_garbage():
    with pytest.raises(DomainError):
        parse_law("cauchy:0,1")
    with pytest.raises(DomainError):
        parse_law("gaussian:asdf")
    with pytest.raises(DomainError):
        parse_law("finite:-1,0.5;1,0.6")  # probs sum to 1.1


# -- closed-form tilt ----------------------------------------------------------

# lam, Lambda(lam) and Lambda''(lam), as float.hex, from the adaptive-quadrature
# tilt that the closed forms replaced.  For the two narrow uniforms its
# Lambda was off by 2.7e-10 and 3.2e-6 relative; there the reference is the
# exact value, computed in 50-digit arithmetic.
TILT_REFERENCE = {
    "laplace:-0.3,1": ("0x1.2c9523bff6f38p-3", "-0x1.6c9cba4cbdbf0p-6",
                       "0x1.1127ea971eafcp+1"),
    "laplace:0.2,0.5": ("-0x1.8a68a4a8d9f76p-2", "-0x1.4173ac48bd08dp-5",
                        "0x1.1e571898b4777p-1"),
    "laplace:-0.4,0.8": ("0x1.2e2ac13ef8e8cp-2", "-0x1.f1322efcc304ep-5",
                         "0x1.83fa8b57ffb06p+0"),
    "laplace:-0.01,1": ("0x1.47abfba2cc5e8p-8", "-0x1.a36cd71c2862ap-16",
                        "0x1.0004ea47d0d48p+1"),
    "uniform:-1,2": ("-0x1.6ec8bd2bba244p-1", "-0x1.6194e29e6ace4p-3",
                     "0x1.354a714b445b0p-1"),
    "uniform:-2,1": ("0x1.6ec8bd2bba244p-1", "-0x1.6194e29e6ace4p-3",
                     "0x1.354a714b445b0p-1"),
    "uniform:-1,1.001": ("-0x1.88d2b924fa7fcp-10", "-0x1.9240388a6e20bp-22",
                         "0x1.55acb27b11f8bp-2"),
    "uniform:-1,1.00001": ("-0x1.f74fbafba2604p-17", "-0x1.49d9a60a68e27p-35",
                           "0x1.55563507730cdp-2"),
}


@pytest.mark.parametrize("spec", sorted(TILT_REFERENCE))
def test_closed_form_tilt_matches_reference(spec):
    law = parse_law(spec)
    t = cramer_tilt(law)
    lam, lg, var = (float.fromhex(h) for h in TILT_REFERENCE[spec])
    # abs=0: approx's default absolute 1e-12 would swallow Lambda ~ 4e-11
    assert t.lam == pytest.approx(lam, rel=1e-10, abs=0.0)
    assert t.log_mgf == pytest.approx(lg, rel=1e-10, abs=0.0)
    assert log_mgf(law, t.lam) == t.log_mgf
    assert t.variance == pytest.approx(var, rel=1e-10, abs=0.0)


def test_tilt_makes_no_quadrature_call(monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("quadrature called")

    # increments binds no quadrature, and the one wrapper refuses calls
    assert not hasattr(increments, "quad")
    monkeypatch.setattr(special, "quad", no_quad)
    for spec in ("gaussian:-0.5,1", "laplace:-0.3,1", "uniform:-1,2",
                 "uniform:-1,1.00001", "finite:-2,0.25;1,0.75"):
        law = parse_law(spec)
        t = cramer_tilt(law)
        assert abs(tilted_mean(law, t.lam)) <= 1e-12
        assert log_mgf(law, 0.5 * t.lam) < 0.0


@pytest.mark.parametrize("spec", ["uniform:0.5,2", "uniform:0,2",
                                  "uniform:-2,0"])
def test_one_signed_uniform_has_no_tilt(spec):
    with pytest.raises(NoTiltExists) as err:
        cramer_tilt(parse_law(spec))
    assert err.value.bracket is not None


@pytest.mark.parametrize("spec", ["gaussian:-0.5,1", "laplace:-0.3,1",
                                  "laplace:0.2,0.5", "uniform:-1,2",
                                  "uniform:-1,1.001"])
def test_tilted_density_moments_match_tilted_law(spec):
    # an independent reference: scipy's own quadrature of the density
    from scipy.integrate import quad as scipy_quad

    t = cramer_tilt(parse_law(spec))
    lo, hi = t.support_bounds()
    kink = [t.base.a] if t.base.family == "laplace" else None

    def moment(k):
        return scipy_quad(lambda u: u ** k * float(t.density(u)),
                          lo, hi, points=kink, epsabs=1e-13, epsrel=1e-11,
                          limit=200)[0]

    assert moment(0) == pytest.approx(1.0, rel=1e-10, abs=0.0)
    assert abs(moment(1) - t.mean) <= 1e-10
    assert moment(2) == pytest.approx(t.variance, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("fn", [tilted_mean, log_mgf])
@pytest.mark.parametrize("lam", [1.0, 1.5, -1.0, -2.0, math.nan, math.inf])
def test_lam_outside_mgf_strip_raises(fn, lam):
    with pytest.raises(DomainError) as err:
        fn(IncrementLaw.laplace(-0.3, 1.0), lam)
    assert f"lam={lam!r}" in str(err.value)
    assert "(-1.0, 1.0)" in str(err.value)


@pytest.mark.parametrize("fn", [tilted_mean, log_mgf])
@pytest.mark.parametrize("spec", ["gaussian:0,1", "uniform:-1,2",
                                  "finite:-1,0.5;1,0.5"])
def test_non_finite_lam_raises(fn, spec):
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="mgf strip"):
            fn(parse_law(spec), lam)


# -- non-finite parameters -------------------------------------------------------


@pytest.mark.parametrize("spec", [
    "gaussian:0,nan", "gaussian:nan,1", "gaussian:0,inf", "gaussian:-inf,1",
    "laplace:inf,1", "laplace:0,nan", "uniform:0,inf", "uniform:nan,1",
    "uniform:-inf,0", "finite:-1,nan;1,1", "finite:-1,0.5;inf,0.5",
    "finite:nan,0.5;1,0.5",
])
def test_non_finite_parameters_rejected(spec):
    with pytest.raises(DomainError, match="must be finite"):
        parse_law(spec)


def test_finite_constructor_rejects_nan_probability():
    with pytest.raises(DomainError, match="must be finite"):
        IncrementLaw.finite([-1, 1], [math.nan, 1])
