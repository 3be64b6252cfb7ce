import math

import numpy as np
import pytest

import reference as ref
from hoi import (
    CovarianceMatrix,
    InsufficientSamples,
    InvalidData,
    InvalidNplet,
    PgmBlock,
    PgmSpec,
    block_concat,
    ground_truth_hoi,
    r_system_cov,
    s_system_cov,
    sample_gaussian,
)


@pytest.mark.parametrize("m,c", [(2, 1.0), (3, 1.0), (3, 0.5), (5, 2.0)])
def test_system_covariances_match_longhand_construction(m, c):
    np.testing.assert_array_equal(r_system_cov(m, c).sigma, ref.r_system_sigma(m, c))
    np.testing.assert_array_equal(s_system_cov(m, c).sigma, ref.s_system_sigma(m, c))


@pytest.mark.parametrize("m,c", [(2, 1.0), (3, 0.7), (6, 1.3)])
def test_redundant_system_determinant_is_one(m, c):
    # noise variance 1 makes the Schur complement collapse to the identity
    assert np.linalg.det(r_system_cov(m, c).sigma) == pytest.approx(1.0, rel=1e-10)


def test_system_cov_argument_validation():
    with pytest.raises(InvalidData):
        r_system_cov(0, 1.0)
    with pytest.raises(InvalidData):
        s_system_cov(2, math.inf)


def test_block_concat_layout_and_slices():
    a = r_system_cov(2, 1.0)
    b = s_system_cov(2, 1.0)
    cc = block_concat([a, b, CovarianceMatrix(np.eye(2))])
    assert cc.n_variables == 8
    assert cc.block_slices == ((0, 3), (3, 6), (6, 8))
    np.testing.assert_array_equal(cc.sigma[:3, :3], a.sigma)
    np.testing.assert_array_equal(cc.sigma[3:6, 3:6], b.sigma)
    np.testing.assert_array_equal(cc.sigma[6:, 6:], np.eye(2))
    off = cc.sigma.copy()
    off[:3, :3] = off[3:6, 3:6] = off[6:, 6:] = 0.0
    assert (off == 0.0).all()


def test_ground_truth_matches_reference_route():
    sigma = r_system_cov(3, 1.0)
    got = ground_truth_hoi(sigma, range(4))
    want = ref.measures(sigma.sigma, range(4))
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert all(isinstance(v, float) for v in got)


def test_ground_truth_refuses_non_integer_indices():
    sigma = r_system_cov(3, 1.0)
    with pytest.raises(InvalidNplet):  # not truncated to the measures of (0, 1, 2)
        ground_truth_hoi(sigma, [0.9, 1.5, 2.2])
    assert ground_truth_hoi(sigma, np.array([0, 1, 2])) == ground_truth_hoi(sigma, [0, 1, 2])


def test_sample_gaussian_shape_determinism_and_moments():
    cov = r_system_cov(2, 1.0)
    x = sample_gaussian(cov, 5000, seed=9)
    y = sample_gaussian(cov, 5000, seed=9)
    z = sample_gaussian(cov, 5000, seed=10)
    assert x.values.shape == (5000, 3)
    np.testing.assert_array_equal(x.values, y.values)
    assert not np.array_equal(x.values, z.values)
    emp = np.cov(x.values.T)
    assert np.abs(emp - cov.sigma).max() < 0.15
    with pytest.raises(InsufficientSamples):
        sample_gaussian(cov, 2, seed=0)


def test_pgm_block_and_spec_basics():
    blk = PgmBlock(kind="r", n_sources=3)
    assert blk.size == 4
    assert blk.c == 1.0
    np.testing.assert_array_equal(blk.cov().sigma, r_system_cov(3, 1.0).sigma)
    indep = PgmBlock(kind="independent", n_sources=4)
    assert indep.size == 4
    np.testing.assert_array_equal(indep.cov().sigma, np.eye(4))

    spec = PgmSpec(blocks=(PgmBlock("r", 2), PgmBlock("s", 2), PgmBlock("independent", 2)))
    assert spec.n_variables == 8
    built = spec.build()
    assert built.block_slices == ((0, 3), (3, 6), (6, 8))
    names = spec.variable_names()
    assert names[0] == "r0_x0"
    assert names[2] == "r0_y"
    assert names[3] == "s1_x0"
    assert names[6] == "n2_x0"
    assert len(names) == 8


def test_pgm_spec_json_round_trip():
    spec = PgmSpec(blocks=(PgmBlock("r", 3, c=0.5), PgmBlock("independent", 2)))
    again = PgmSpec.from_json(spec.to_json())
    assert again == spec
    parsed = PgmSpec.from_json(
        '{"blocks": [{"kind": "R", "n_sources": 2}, {"kind": "s", "n_sources": 2, "c": 2.0}]}'
    )
    assert parsed.blocks[0].kind == "r"
    assert parsed.blocks[1].c == 2.0


def test_pgm_spec_json_validation():
    bad = [
        "[]",
        "{}",
        '{"blocks": "nope"}',
        '{"blocks": []}',
        '{"blocks": [{"n_sources": 2}]}',
        '{"blocks": [{"kind": "r"}]}',
        '{"blocks": [{"kind": "bogus", "n_sources": 2}]}',
        '{"blocks": [{"kind": "r", "n_sources": 0}]}',
        '{"blocks": [{"kind": "r", "n_sources": 2, "mystery": 1}]}',
        '{"blocks": [{"kind": "r", "n_sources": 2}], "mystery": 1}',
    ]
    for doc in bad:
        with pytest.raises(InvalidData):
            PgmSpec.from_json(doc)
    with pytest.raises(InvalidData):
        PgmSpec.from_json("not json at all")
