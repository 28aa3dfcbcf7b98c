import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim.devices import MosParams, Region, mos_current_signed, mos_eval

from oracles import reference_mos_current_signed, reference_mos_eval

NOM = MosParams(beta=200e-6, vt=0.4, lam=0.0)


def test_saturation_example():
    e = mos_eval(NOM, 0.9, 1.0)
    assert e.region is Region.SATURATION
    assert e.current == pytest.approx(25e-6, rel=1e-12)
    assert e.gm == pytest.approx(100e-6, rel=1e-12)
    assert e.ro == math.inf


def test_cutoff_example():
    e = mos_eval(NOM, 0.3, 0.5)
    assert e.region is Region.CUTOFF
    assert e.current == 0.0
    assert e.gm == 0.0


def test_channel_length_modulation_example():
    p = MosParams(beta=200e-6, vt=0.4, lam=0.1)
    e = mos_eval(p, 0.9, 1.0)
    assert e.current == pytest.approx(27.5e-6, rel=1e-12)
    assert e.gds == pytest.approx(2.5e-6, rel=1e-12)
    assert e.ro == pytest.approx(400e3, rel=1e-12)


def test_triode_region():
    e = mos_eval(NOM, 0.9, 0.2)
    assert e.region is Region.TRIODE
    assert e.current == pytest.approx(200e-6 * (0.5 * 0.2 - 0.02), rel=1e-12)


def test_negative_vds_rejected():
    with pytest.raises(ValueError):
        mos_eval(NOM, 0.9, -0.1)


@pytest.mark.parametrize("lam", [0.0, 0.05])
@pytest.mark.parametrize("vgs,vds", [(0.9, 1.0), (0.9, 0.2), (0.7, 0.8), (1.2, 0.3)])
def test_gm_gds_match_finite_differences(lam, vgs, vds):
    # away from region boundaries, analytic partials track central differences
    p = MosParams(beta=200e-6, vt=0.4, lam=lam)
    h = 1e-6
    e = mos_eval(p, vgs, vds)
    gm_fd = (mos_eval(p, vgs + h, vds).current - mos_eval(p, vgs - h, vds).current) / (2 * h)
    gds_fd = (mos_eval(p, vgs, vds + h).current - mos_eval(p, vgs, vds - h).current) / (2 * h)
    assert e.gm == pytest.approx(gm_fd, rel=1e-6)
    if e.gds != 0.0:
        assert e.gds == pytest.approx(gds_fd, rel=1e-6)
    else:
        assert abs(gds_fd) < 1e-12


def test_continuity_at_boundary_lambda_zero():
    vgs = 0.9
    vds = vgs - NOM.vt
    below = mos_eval(NOM, vgs, vds - 1e-12).current
    at = mos_eval(NOM, vgs, vds).current
    assert at == pytest.approx(below, abs=1e-15)


def test_boundary_jump_with_lambda_documented():
    # the (1+lam*vds) factor applies in saturation only; the jump equals
    # (beta/2)*vov^2*lam*vov at the boundary
    p = MosParams(beta=200e-6, vt=0.4, lam=0.05)
    vgs = 0.9
    vov = vgs - p.vt
    jump = mos_eval(p, vgs, vov).current - mos_eval(p, vgs, vov - 1e-12).current
    assert jump == pytest.approx(0.5 * p.beta * vov**2 * p.lam * vov, rel=1e-3)


def test_monotone_in_vgs_and_vds():
    prev = -1.0
    for k in range(50):
        i = mos_eval(NOM, 0.4 + k * 0.02, 1.0).current
        assert i >= prev
        prev = i
    prev = -1.0
    for k in range(50):
        i = mos_eval(MosParams(200e-6, 0.4, 0.05), 0.9, k * 0.05).current
        assert i >= prev
        prev = i


def test_signed_current_is_odd_under_swap():
    p = MosParams(beta=200e-6, vt=0.4, lam=0.05)
    i_fwd, _, _ = mos_current_signed(p, 0.9, 0.3)
    i_rev, _, _ = mos_current_signed(p, 0.9 - 0.3, -0.3)
    assert i_rev == pytest.approx(-i_fwd, rel=1e-12)


def test_signed_partials_match_fd():
    p = MosParams(beta=200e-6, vt=0.4, lam=0.05)
    h = 1e-7
    for vgs, vds in [(0.9, -0.3), (0.7, -0.05)]:
        _, dg, dd = mos_current_signed(p, vgs, vds)
        dg_fd = (mos_current_signed(p, vgs + h, vds)[0]
                 - mos_current_signed(p, vgs - h, vds)[0]) / (2 * h)
        dd_fd = (mos_current_signed(p, vgs, vds + h)[0]
                 - mos_current_signed(p, vgs, vds - h)[0]) / (2 * h)
        assert dg == pytest.approx(dg_fd, rel=1e-5)
        assert dd == pytest.approx(dd_fd, rel=1e-5)


def test_params_validation():
    with pytest.raises(ValueError):
        MosParams(beta=-1.0, vt=0.4)
    with pytest.raises(ValueError):
        MosParams(beta=1e-3, vt=0.4, lam=-0.1)
    with pytest.raises(ValueError):
        MosParams(beta=1e-3, vt=math.nan)


# mos_eval and mos_current_signed share one tuple-returning square-law core;
# each must give the same bits as the MosEval-building evaluation it replaced
@settings(max_examples=300, deadline=None)
@given(beta=st.floats(1e-6, 1e-2), vt=st.floats(-0.5, 1.0), lam=st.floats(0.0, 0.2),
       vgs=st.floats(-2.0, 5.0), vds=st.floats(-2.0, 5.0))
def test_square_law_matches_reference(beta, vt, lam, vgs, vds):
    p = MosParams(beta, vt, lam)
    assert mos_current_signed(p, vgs, vds) == reference_mos_current_signed(p, vgs, vds)
    if vds >= 0.0:
        assert mos_eval(p, vgs, vds) == reference_mos_eval(p, vgs, vds)
    else:
        with pytest.raises(ValueError, match="vds must be >= 0"):
            mos_eval(p, vgs, vds)


def test_signed_evaluation_propagates_nan():
    # the source/drain swap must not recurse on a NaN vds
    for vgs in (0.3, 0.9):
        assert all(map(math.isnan, mos_current_signed(NOM, vgs, math.nan)))
        assert all(map(math.isnan, reference_mos_current_signed(NOM, vgs, math.nan)))


def test_perturbed_matches_replace():
    p = MosParams(beta=200e-6, vt=0.4, lam=0.05)
    q = p.perturbed(0.01, -0.02)
    assert q == dataclasses.replace(p, vt=p.vt + 0.01, beta=p.beta * (1.0 - 0.02))
    assert p.perturbed(0.0, -2.0).beta == 1e-15  # clamped, so still valid
