import math
import re

import numpy as np
import pytest

import seed_reference
import subreglab.geometry as geometry
from subreglab.geometry import (
    ScaleLadder,
    derive_seed,
    dual_kind,
    dual_norm,
    dual_sphere_grid,
    norm,
    norming_functional,
    norming_functionals,
    norming_vector,
    norms,
    pairing,
    r2_lattice,
    sample_annuli,
    sample_annulus,
)

KINDS = ("l1", "l2", "linf")


def test_norm_closed_forms():
    v = [3.0, -4.0]
    assert norm(v, "l1") == 7.0
    assert norm(v, "l2") == 5.0
    assert norm(v, "linf") == 4.0
    assert norm([0.0, 0.0], "l2") == 0.0


def test_norm_rejects_unknown_kind():
    with pytest.raises(ValueError):
        norm([1.0], "l3")


def _wide_floats(rng, n, exponents):
    """n signed floats m * 2**e, m in [1, 2), e drawn from exponents."""
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return sign * np.ldexp(rng.uniform(1.0, 2.0, n), rng.choice(exponents, n))


def _fsum_l1(V):
    """math.fsum of the absolute values of each row of V; None where fsum
    raises OverflowError."""
    out = []
    for row in V.tolist():
        try:
            out.append(math.fsum(abs(c) for c in row))
        except OverflowError:
            out.append(None)
    return out


def _assert_l1_is_fsum(V):
    want = _fsum_l1(V)
    fits = np.array([w is not None for w in want])
    got = norms(V[fits], "l1")
    assert got.view(np.int64).tolist() == \
        np.array([w for w in want if w is not None]).view(np.int64).tolist()
    for row in V[~fits]:
        with pytest.raises(OverflowError):
            norms(row[None, :], "l1")
        with pytest.raises(OverflowError):
            norm(row, "l1")
    return int((~fits).sum())


def test_l1_norms_of_two_coordinates_are_the_fsum_bits():
    rng = np.random.default_rng(17)
    n = 20000
    full = np.arange(-1075, 1024)  # 2**-1075 * m is a subnormal or 0
    a = _wide_floats(rng, n, full)
    # the second coordinate over the full range, or within 2**60 of the first
    # (past the largest float it is inf, a subnormal or 0)
    with np.errstate(over="ignore", under="ignore"):
        near = np.ldexp(a * rng.uniform(0.5, 2.0, n), rng.integers(-60, 61, n))
    b = np.where(rng.random(n) < 0.5, _wide_floats(rng, n, full), near)
    # sums exactly half an ulp (or 1.5, 2.5 ulp) above |a|: ties round to even;
    # near the largest float some of them round to inf, where fsum raises
    h = np.abs(_wide_floats(rng, n, np.arange(-1000, 1024)))
    odd = 2 * rng.integers(0, 3, n) + 1
    half = np.where(rng.random(n) < 0.5, -1.0, 1.0) * odd * (np.spacing(h) / 2)
    # the top four floats, plus half their ulp 2**971: the odd ones round to inf
    top = np.finfo(float).max - 2.0**971 * rng.integers(0, 4, 64)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1.0, -1.0, 1e308, -1e308, np.nextafter(np.inf, 0.0), np.inf, -np.inf,
               np.nan, -np.nan]
    pairs = np.array([(x, y) for x in special for y in special])
    V = np.vstack([np.column_stack([a, b]), np.column_stack([b, a]), np.column_stack([h, half]),
                   np.column_stack([top, np.full(64, 2.0**970)]), pairs])
    assert _assert_l1_is_fsum(V) > 0  # the overflowing rows were drawn and raise


def test_l1_norms_overflow_as_fsum_does():
    with pytest.raises(OverflowError):
        norms(np.array([[0.5, 0.25], [1e308, -1e308]]), "l1")
    with pytest.raises(OverflowError):
        norm([1e308, -1e308], "l1")
    inf_rows = np.array([[np.inf, 1e308], [1e308, -np.inf], [np.inf, np.nan]])
    assert norms(inf_rows, "l1")[:2].tolist() == [np.inf, np.inf]
    assert math.isnan(norms(inf_rows, "l1")[2])


def test_l1_norms_of_three_or_more_coordinates_are_the_fsum_bits():
    rng = np.random.default_rng(19)
    for d in (3, 4):
        V = _wide_floats(rng, 5000 * d, np.arange(-1075, 1024)).reshape(-1, d)
        # columns of close magnitude, where the exact sum differs from a
        # left-to-right one
        close = _wide_floats(rng, 5000 * d, np.arange(-3, 4)).reshape(-1, d)
        _assert_l1_is_fsum(np.vstack([V, close]))


@pytest.mark.parametrize("kind", ["l2", "linf"])
@pytest.mark.parametrize("dim", range(1, 9))
def test_l2_and_linf_norms_are_the_norm_bits(kind, dim):
    # rows over the full exponent range (l2 squares overflow to inf and
    # underflow to 0), rows of close magnitudes, and rows from a grid with
    # signed zeros, ties of the largest coordinate, inf and nan
    rng = np.random.default_rng(23 + dim)
    full = np.arange(-1075, 1024)
    grid = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 5e-324, -5e-324, 1e308, -1e308,
            np.inf, -np.inf, np.nan, -np.nan]
    V = np.vstack([_wide_floats(rng, 400 * dim, full).reshape(-1, dim),
                   _wide_floats(rng, 400 * dim, np.arange(-3, 4)).reshape(-1, dim),
                   rng.choice(grid, (400, dim))])
    with np.errstate(over="ignore"):  # l2 squares past the largest float
        want = np.array([norm(v, kind) for v in V])
        got = norms(V, kind)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert np.isnan(want).any() and np.isinf(want).any()


def test_dual_kind_pairing():
    assert dual_kind("l1") == "linf"
    assert dual_kind("linf") == "l1"
    assert dual_kind("l2") == "l2"


def test_dual_norm_is_norm_in_dual_kind():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=4)
        for kind in KINDS:
            assert dual_norm(v, kind) == norm(v, dual_kind(kind))


def test_pairing_is_euclidean_inner_product():
    assert pairing([1.0, -2.0], [3.0, 5.0]) == -7.0


@pytest.mark.parametrize("kind", KINDS)
def test_norming_functional_attains_the_norm(kind):
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = rng.normal(size=3)
        if norm(u, kind) == 0.0:
            continue
        u_star = norming_functional(u, kind)
        assert pairing(u_star, u) == pytest.approx(norm(u, kind), rel=1e-12)
        assert dual_norm(u_star, kind) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_norming_functionals_row_k_is_the_one_vector_call(kind, dim):
    # rows from a small grid: ties of the largest coordinate, zero and
    # signed-zero coordinates; the rows of norm 0 (1e-300 squares to 0 in
    # l2) are left out
    rng = np.random.default_rng(11)
    V = rng.choice([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 0.3, -1e-300], (200, dim))
    V = V[norms(V, kind) > 0.0]
    want = np.array([norming_functional(v, kind) for v in V])
    assert norming_functionals(V, kind).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_norming_vector_pairs_to_exactly_one(kind):
    rng = np.random.default_rng(6)
    for _ in range(25):
        raw = rng.normal(size=3)
        y_star = raw / dual_norm(raw, kind)
        v = norming_vector(y_star, kind)
        assert pairing(y_star, v) == 1.0  # exact, builders rely on it
        assert norm(v, kind) == pytest.approx(1.0, abs=1e-9)


def test_norming_vector_rejects_non_unit_input():
    with pytest.raises(ValueError):
        norming_vector([2.0, 0.0], "l2")


def test_derive_seed_is_deterministic_and_tag_sensitive():
    a = derive_seed(7, 1, 31)
    assert a == derive_seed(7, 1, 31)
    seen = {derive_seed(7, j, tag) for j in range(16) for tag in (31, 37, 41)}
    assert len(seen) == 48
    assert all(isinstance(s, int) and s >= 0 for s in seen)


# every seed tag of the package: graph samples and draws (17 to 89), the
# interval, compl_angle and inverse sampler streams (3, 7, 11 and shells 0-3),
# the calm perturbations (131, 173) and eckart_young (151)
_TAGS = (0, 1, 2, 3, 7, 11, 17, 31, 37, 41, 43, 47, 53, 61, 71, 83, 89, 131, 151, 173)
# ladder seeds: small ones, and ints that only arithmetic modulo 2**64 keeps
_SEEDS = list(range(64)) + [-1, 2**63 - 1, 2**64 - 1, 2**64 + 5, 2**70]


def _reference_lattice(n, dim, seed):
    """r2_lattice(n, dim, seed) from the scalar splitmix64 offsets."""
    g = 2.0  # the real root > 1 of x**(dim+1) = x + 1
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = np.array([((1.0 / g) ** (k + 1)) % 1.0 for k in range(dim)])
    offs = np.array(seed_reference.r2_offsets(seed, dim))
    return (offs[None, :] + np.arange(1, n + 1, dtype=float)[:, None] * alpha[None, :]) % 1.0


def test_derive_seed_is_the_scalar_splitmix64():
    """derive_seed, called with ints (a Python int) or with columns (an
    int64 column, as ScaleLadder.seeds calls it), gives the scalar
    reference's seed for every tag of the package, on the annuli j < 97 of
    every ladder seed of _SEEDS, and for the stream tags on each of those
    annulus seeds."""
    for seed in _SEEDS:
        for tag in _TAGS:
            got = [seed_reference.derive_seed(seed, j + 1, tag) for j in range(97)]
            assert [derive_seed(seed, j + 1, tag) for j in (0, 96)] == [got[0], got[96]]
            assert all(type(derive_seed(seed, j + 1, tag)) is int for j in (0, 96))
            assert ScaleLadder(depth=97, seed=seed).seeds(tag).tolist() == got
            assert ScaleLadder(depth=97, seed=seed).seeds(tag, start=90).tolist() == got[90:]
            assert derive_seed(seed, np.arange(1, 98), tag).tolist() == got
        assert derive_seed(seed) == seed_reference.derive_seed(seed)
        col = [seed_reference.derive_seed(seed, j + 1, 61) for j in range(97)]
        for tag in (0, 1, 2, 3, 7, 11, 131, 151, 173):
            want = [seed_reference.derive_seed(s, tag) for s in col]
            assert [derive_seed(s, tag) for s in col[:3]] == want[:3], (seed, tag)
            assert derive_seed(np.array(col), tag).tolist() == want, (seed, tag)
    # a column of ladder seeds, the ints beyond int64 and uint64 among them
    got = derive_seed(_SEEDS, np.array([5]), 17)
    assert got.dtype == np.int64
    assert got.tolist() == [seed_reference.derive_seed(s, 5, 17) for s in _SEEDS]


def test_uint64_to_float_conversion_rounds_as_python_ints_do():
    """A uint64 state divided by 2.0**64 in numpy is the Python int state
    divided by 2.0**64: the state rounds to the nearest float, ties to
    even, at the largest state and at the ties and their neighbours."""
    states = [2**64 - 1, 2**63 + 1024, 2**63 + 1025, 2**53 + 1, 2**53 + 3, 2**63 - 1, 0, 1]
    got = (np.array(states, dtype=np.uint64) / 2.0**64).tolist()
    assert got == [s / 2.0**64 for s in states]
    assert got[:4] == [1.0, 0.5, 0.5 + 2.0**-53, 2.0**-11]


@pytest.mark.parametrize("dim", [1, 2, 3, 9])
def test_r2_lattice_offsets_are_the_scalar_splitmix64(dim):
    """Every seed's lattice, drawn alone and in one block of every seed,
    has the bits of the scalar reference's offsets, at the ladder seeds of
    _SEEDS and at annulus seeds derived from them."""
    seeds = _SEEDS + [seed_reference.derive_seed(s, j + 1, 61) for s in _SEEDS[60:]
                      for j in range(97)]
    want = np.concatenate([_reference_lattice(3, dim, s) for s in seeds])
    got = geometry._r2_lattices(3, dim, seeds)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for s in _SEEDS[60:]:
        assert np.array_equal(r2_lattice(3, dim, s).view(np.int64),
                              _reference_lattice(3, dim, s).view(np.int64)), s


def test_r2_lattice_deterministic_unit_cube():
    pts = r2_lattice(64, 3, seed=9)
    assert pts.shape == (64, 3)
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)
    assert np.array_equal(pts, r2_lattice(64, 3, seed=9))
    assert not np.array_equal(pts, r2_lattice(64, 3, seed=10))


@pytest.mark.parametrize("kind", KINDS)
def test_sample_annulus_respects_the_shell(kind):
    center = np.array([0.25, -1.0])
    for seed in range(4):
        pts = sample_annulus(center, 0.125, 0.25, 60, seed=seed, kind=kind)
        r = np.array([norm(p - center, kind) for p in pts])
        assert np.all(r > 0.125 - 1e-12)
        assert np.all(r <= 0.25 + 1e-12)
    again = sample_annulus(center, 0.125, 0.25, 60, seed=2, kind=kind)
    assert np.array_equal(again, sample_annulus(center, 0.125, 0.25, 60, seed=2, kind=kind))


def _one_annulus(center, r_inner, r_outer, n, seed, kind):
    """The draw of one annulus as sample_annulus made it before sample_annuli
    existed: its own lattice, directions and affine map."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    dim = c.size + 1
    if n <= 0:
        return np.zeros((0, c.size))
    u = _reference_lattice(n, dim, seed)
    radii = r_outer - (r_outer - r_inner) * u[:, 0]
    return c[None, :] + radii[:, None] * geometry._directions(u[:, 1:], kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [1, 2, 3, 9])
@pytest.mark.parametrize("n", [1, 64])
def test_sample_annuli_are_the_one_annulus_draws_bit_for_bit(kind, dim, n):
    """One block of annuli, one annulus, the annulus (0, r] and no annulus
    at all give the rows of the per-annulus draws, concatenated."""
    center = np.linspace(-0.5, 0.75, dim)
    inner, outer = [0.0, 0.125, 0.0625, 1e-9], [0.5, 0.25, 0.125, 2e-9]
    seeds = [derive_seed(7, j + 1, 61) for j in range(len(inner))]
    for k in (4, 1, 0):
        got = sample_annuli(center, inner[:k], outer[:k], n, seeds[:k], kind)
        want = [_one_annulus(center, a, b, n, s, kind) for a, b, s in
                zip(inner[:k], outer[:k], seeds[:k])]
        want = np.concatenate(want) if want else np.zeros((0, dim))
        assert got.shape == want.shape == (k * n, dim)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), k
    one = sample_annulus(center, inner[1], outer[1], n, seeds[1], kind)
    assert np.array_equal(one.view(np.int64), _one_annulus(center, inner[1], outer[1], n,
                                                           seeds[1], kind).view(np.int64))


def test_sample_annulus_rejects_bad_radii():
    with pytest.raises(ValueError):
        sample_annulus([0.0], 0.5, 0.25, 8)
    with pytest.raises(ValueError):
        sample_annulus([0.0], -1.0, 0.25, 8)
    with pytest.raises(ValueError, match=r"bad annulus radii \(0.5, 0.25\]"):  # the second annulus
        sample_annuli([0.0], [0.125, 0.5], [0.25, 0.25], 8, [1, 2])
    # nan is a bad radius, inner or outer; the first bad annulus is named
    with pytest.raises(ValueError, match=r"bad annulus radii \(nan, 0.5\]"):
        sample_annuli([0.0], [0.125, math.nan, 0.0], [0.25, 0.5, math.nan], 8, [1, 2, 3])
    with pytest.raises(ValueError, match=r"bad annulus radii \(0.0, nan\]"):
        sample_annuli([0.0], [0.125, 0.0], [0.25, math.nan], 8, [1, 2])


@pytest.mark.parametrize("kind", KINDS)
def test_dual_sphere_grid_unit_dual_vectors(kind):
    dk = dual_kind(kind)
    grid = dual_sphere_grid(kind, 3, m=24)
    assert len(grid) >= 6
    for v in grid:
        assert norm(v, dk) == pytest.approx(1.0, rel=1e-12)
    # the signed axes lead the grid in every kind
    axes = {tuple(np.sign(v)) for v in grid[:6]}
    assert len(axes) == 6


def test_dual_sphere_grid_dim_one():
    grid = dual_sphere_grid("l1", 1)
    assert sorted(v[0] for v in grid) == [-1.0, 1.0]


def test_scale_ladder_radii_and_annuli():
    lad = ScaleLadder(r0=0.5, theta=0.5, depth=4, samples_per_scale=8, seed=1)
    assert lad.radius(0) == 0.5
    assert lad.radius(3) == 0.0625
    assert [lad.radius(j) for j in range(4)] == [0.5, 0.25, 0.125, 0.0625]
    inner, outer = lad.annuli()
    assert inner.tolist() == [0.25, 0.125, 0.0625, 0.03125]
    assert outer.tolist() == [0.5, 0.25, 0.125, 0.0625]
    assert [c.tolist() for c in lad.annuli(2)] == [[0.0625, 0.03125], [0.125, 0.0625]]
    assert [c.tolist() for c in lad.annuli(4)] == [[], []]
    # the radii of r0 * theta**j, where np.power rounds differently
    odd = ScaleLadder(r0=0.7, theta=0.3, depth=40)
    assert odd.annuli()[1].tolist() == [0.7 * 0.3**j for j in range(40)]


def test_scale_ladder_deepen_preserves_the_prefix():
    lad = ScaleLadder(depth=6, samples_per_scale=32, seed=3)
    deeper = lad.deepen(4)
    assert deeper.depth == 10
    assert [deeper.radius(j) for j in range(6)] == [lad.radius(j) for j in range(6)]
    assert deeper.seed == lad.seed
    assert np.array_equal(deeper.seeds(41)[:6], lad.seeds(41))
    assert np.array_equal(deeper.seeds(41, start=6), deeper.seeds(41)[6:])
    assert lad.seeds(41).dtype == np.int64


def test_scale_ladder_validation():
    with pytest.raises(ValueError):
        ScaleLadder(r0=0.0)
    with pytest.raises(ValueError):
        ScaleLadder(theta=1.0)
    with pytest.raises(ValueError):
        ScaleLadder(depth=0)
    with pytest.raises(ValueError):
        ScaleLadder(samples_per_scale=0)
    # an annulus that rounds to empty, in the underflow and subnormal ranges
    with pytest.raises(ValueError, match="annulus 2"):
        ScaleLadder(theta=1e-200, depth=4)
    with pytest.raises(ValueError, match="annulus 0"):
        ScaleLadder(r0=1e-323, theta=0.9)
    with pytest.raises(ValueError, match=re.escape("annulus 0 (inf, inf] is empty: "
                                                   "r0 * theta**1 is not below r0 * theta**0")):
        ScaleLadder(r0=math.inf, theta=1e-200, depth=3)  # annulus 1 is (nan, inf]
    assert [c[-1] for c in ScaleLadder(theta=1e-200, depth=2).annuli()] == [0.0, 1e-200 * 0.5]
