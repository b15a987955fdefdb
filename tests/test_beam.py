"""Link geometry, mode bookkeeping and LG field evaluation.

The propagation quantities are pinned against values computed once from the
textbook formulas with independent arithmetic; the field evaluator is
checked against physical invariants (unit power, radial orthogonality,
helical phase) that do not depend on the implementation. The displaced
field exact2d samples is checked in ``test_crosstalk.py``.
"""

import math
import re

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from oamlink.beam import (
    MAX_AZIMUTHAL_ORDER,
    LinkGeometry,
    ModeSet,
    check_offset_radius,
    lg_field,
)
from oamlink.numerics import LAGUERRE_MAX_ORDER, gauss_legendre

# Derived once from z_R = pi w0^2 / lambda, w(z) = w0 sqrt(1 + (z/z_R)^2),
# R(z) = z (1 + (z_R/z)^2) at lambda = 1.55 um, Z = 1000 km.
RAYLEIGH_25MM = 1266.771231286207
BEAM_RADIUS_25MM = 19.73522877802906
CURVATURE_25MM = 1000001.6047093525
BEAM_RADIUS_15MM = 32.892024992607176


def default_geom(waist=0.025, radial_index=0, distance=1.0e6):
    return LinkGeometry(
        wavelength=1.55e-6, waist=waist, radial_index=radial_index, distance=distance
    )


class TestLinkGeometry:
    def test_frozen_derived_quantities(self):
        geom = default_geom()
        assert geom.rayleigh_range == pytest.approx(RAYLEIGH_25MM, rel=1e-14)
        assert geom.beam_radius_at_rx == pytest.approx(BEAM_RADIUS_25MM, rel=1e-14)
        assert geom.curvature_at_rx == pytest.approx(CURVATURE_25MM, rel=1e-14)
        assert geom.wavenumber == pytest.approx(2.0 * math.pi / 1.55e-6, rel=1e-15)

    def test_smaller_waist_diverges_faster(self):
        geom = default_geom(waist=0.015)
        assert geom.beam_radius_at_rx == pytest.approx(BEAM_RADIUS_15MM, rel=1e-14)
        assert geom.beam_radius_at_rx > default_geom().beam_radius_at_rx

    def test_beam_radius_limits(self):
        z_r = default_geom().rayleigh_range
        # Next to the waist plane w(Z) is w0.
        near = default_geom(distance=1e-9)
        assert near.beam_radius_at_rx == pytest.approx(near.waist, rel=1e-15)
        # Far field: w(Z) approaches w0 * Z / z_R.
        far = default_geom(distance=500.0 * z_r)
        assert far.beam_radius_at_rx == pytest.approx(
            far.waist * far.distance / z_r, rel=1e-5
        )

    def test_curvature_radius(self):
        z_r = default_geom().rayleigh_range
        # R is minimal at Z = z_R where it equals 2 z_R.
        at_z_r = default_geom(distance=z_r).curvature_at_rx
        assert at_z_r == pytest.approx(2.0 * z_r, rel=1e-14)
        assert default_geom(distance=0.5 * z_r).curvature_at_rx > 2.0 * z_r
        assert default_geom(distance=2.0 * z_r).curvature_at_rx > 2.0 * z_r

    def test_gouy_phase(self):
        # (2p + |ell| + 1) * arctan(Z/z_R); at Z = z_R the arctan is pi/4.
        # It is the phase of the field on the +x axis next to the beam axis,
        # where the helical and curvature phases vanish (k r^2/2R < 1e-15).
        z_r = default_geom().rayleigh_range

        def on_axis_phase(geom, ell):
            return np.angle(lg_field(geom, [ell], 1e-6, 0.0)[0])

        geom = default_geom(distance=z_r)
        assert on_axis_phase(geom, 2) == pytest.approx(3.0 * math.pi / 4.0)
        assert on_axis_phase(geom, -2) == on_axis_phase(geom, 2)
        geom_p1 = default_geom(radial_index=1, distance=z_r)
        assert on_axis_phase(geom_p1, 0) == pytest.approx(3.0 * math.pi / 4.0)
        assert on_axis_phase(default_geom(distance=1e-9), 0) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkGeometry(wavelength=0.0, waist=0.025, radial_index=0, distance=1e6)
        with pytest.raises(ValueError):
            LinkGeometry(wavelength=1.55e-6, waist=-0.01, radial_index=0, distance=1e6)
        with pytest.raises(ValueError):
            LinkGeometry(wavelength=1.55e-6, waist=0.025, radial_index=0, distance=0.0)
        with pytest.raises(ValueError):
            LinkGeometry(
                wavelength=1.55e-6, waist=0.025, radial_index=-1, distance=1e6
            )
        with pytest.raises(ValueError):
            LinkGeometry(
                wavelength=1.55e-6, waist=0.025, radial_index=0.5, distance=1e6
            )
        with pytest.raises(ValueError, match=re.escape("radial_index must be an integer in "
                                                       "[0, 12], got True")):
            LinkGeometry(wavelength=1.55e-6, waist=0.025, radial_index=True, distance=1e6)
        with pytest.raises(ValueError):
            LinkGeometry(
                wavelength=1.55e-6,
                waist=0.025,
                radial_index=LAGUERRE_MAX_ORDER + 1,
                distance=1e6,
            )
        # Finite inputs whose k, z_R, w(Z) or R(Z) overflow or vanish.
        for wavelength, waist, distance in [
            (1e-300, 0.025, 1e6), (1e300, 0.025, 1e6), (1.55e-6, 1e200, 1e6),
            (1.55e-6, 1e-200, 1e6), (1.55e-6, 0.025, 1e306), (1.55e-6, 0.025, 1e-300),
        ]:
            with pytest.raises(ValueError, match="finite, positive k, z_R, w"):
                LinkGeometry(wavelength, waist, 0, distance)


class TestModeSet:
    def test_filter_defaults_to_tx(self):
        modes = ModeSet(tx_modes=(-2, 1))
        assert modes.filter_modes == (-2, 1)
        assert modes.n_tx == 2
        assert modes.n_filter == 2

    def test_explicit_filter(self):
        modes = ModeSet(tx_modes=(-2, 1), filter_modes=(-4, -2, 1, 3))
        assert modes.n_filter == 4
        assert modes.tx_modes == (-2, 1)
        # NumPy integers are orders too.
        assert ModeSet(np.array([-2, 1]), [np.int64(1)]).filter_modes == (1,)

    def test_streams_default_to_singletons(self):
        modes = ModeSet(tx_modes=(-2, 1))
        assert modes.streams == ((-2,), (1,))
        assert modes.n_streams == 2

    def test_one_set_has_one_stored_form(self):
        # Singleton streams given explicitly, or not at all, are one set.
        plain = ModeSet(tx_modes=(-2, 1))
        for same in (ModeSet((-2, 1), stream_grouping=((-2,), (1,))),
                     ModeSet([np.int64(-2), 1], filter_modes=(-2, 1), stream_grouping=[[-2], [1]])):
            assert same == plain and hash(same) == hash(plain)
        assert ModeSet((-2, 1), stream_grouping=((-2, 1),)) != plain

    def test_label_and_parse(self):
        assert ModeSet(tx_modes=(-2, 1)).label == "-2|1"
        assert ModeSet(tx_modes=(0,)).label == "0"
        plain = ModeSet.parse("-2|1")
        assert plain.streams == ((-2,), (1,))
        assert plain == ModeSet((-2, 1)) and hash(plain) == hash(ModeSet((-2, 1)))
        grouped = ModeSet.parse("-4,-2|1,3")
        assert grouped.streams == ((-4, -2), (1, 3))
        assert grouped.tx_modes == (-4, -2, 1, 3)
        assert grouped.label == "-4,-2|1,3"
        assert grouped == ModeSet((-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3)))
        # A spec that names no set is refused by it, with the set's reason.
        with pytest.raises(ValueError, match=re.escape("bad mode set spec 'a|b': invalid literal")):
            ModeSet.parse("a|b")
        with pytest.raises(ValueError, match=re.escape("bad mode set spec '-2|-2': tx modes must")):
            ModeSet.parse("-2|-2")

    def test_grouped_streams(self):
        modes = ModeSet(tx_modes=(-4, -2, 1, 3), stream_grouping=((-4, -2), (1, 3)))
        assert modes.streams == ((-4, -2), (1, 3))
        assert modes.n_streams == 2
        assert modes.n_tx == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeSet(tx_modes=(1, 1))
        with pytest.raises(ValueError):
            ModeSet(tx_modes=())
        with pytest.raises(ValueError):
            ModeSet(tx_modes=(MAX_AZIMUTHAL_ORDER + 1,))
        with pytest.raises(ValueError):
            ModeSet(tx_modes=(1,), filter_modes=(-MAX_AZIMUTHAL_ORDER - 1,))
        # A repeated filter would count its branch twice in the detection.
        with pytest.raises(ValueError, match="filter modes must be pairwise distinct"):
            ModeSet(tx_modes=(-2, 1), filter_modes=(-2, 1, 1))
        # An empty filter bank has no detector branch to decide from.
        with pytest.raises(ValueError, match="need at least one filter mode"):
            ModeSet(tx_modes=(-2, 1), filter_modes=())
        # Grouping must partition the tx set exactly.
        with pytest.raises(ValueError):
            ModeSet(tx_modes=(-2, 1), stream_grouping=((-2,),))
        with pytest.raises(ValueError):
            ModeSet(tx_modes=(-2, 1), stream_grouping=((-2, 1), (1,)))
        with pytest.raises(ValueError):
            ModeSet(tx_modes=(-2, 1), stream_grouping=((-2, 1), ()))

    @pytest.mark.parametrize(
        "args, refusal",
        [
            (((1.9, -2),), "tx mode order must be an integer, got 1.9"),
            (((2.0, -2),), "tx mode order must be an integer, got 2.0"),
            (((1, -2), ("0", 1)), "filter mode order must be an integer, got '0'"),
            (((1, -2), None, [[1.5], [-2]]), "stream grouping order must be an integer, got 1.5"),
            # A bool is an int to isinstance, but never an order.
            (((True, -2),), "tx mode order must be an integer, got True"),
            (((1, -2), (np.int64(1), False)), "filter mode order must be an integer, got False"),
        ],
    )
    def test_refuses_a_non_integer_order(self, args, refusal):
        # Refused by name, as lg_field refuses them, not truncated to the
        # integer set nobody asked for.
        with pytest.raises(ValueError, match=re.escape(refusal)):
            ModeSet(*args)


def polar_closed_form(geom, ell, r, phi):
    """u_{p,ell}(r, phi) at Z written out in polar form, independently of
    ``lg_field``: C/w (sqrt(2) r/w)^|ell| L_p^|ell|(2 r^2/w^2)
    exp(-r^2/w^2 - i k r^2/(2R) - i ell phi + i (2p + |ell| + 1) atan(Z/z_R))."""
    w, p, n = geom.beam_radius_at_rx, geom.radial_index, abs(ell)
    norm = math.sqrt(2.0 * math.factorial(p) / (math.pi * math.factorial(p + n)))
    phase = (-geom.wavenumber * r**2 / (2.0 * geom.curvature_at_rx) - ell * phi
             + (2 * p + n + 1) * math.atan(geom.distance / geom.rayleigh_range))
    return (norm / w * (math.sqrt(2.0) * r / w) ** n * eval_genlaguerre(p, n, 2.0 * r**2 / w**2)
            * np.exp(-(r**2) / w**2 + 1j * phase))


def radial_power(geom, ell, order=200):
    """2*pi * integral of |u|^2 r dr; |u| has no phi dependence."""
    w = geom.beam_radius_at_rx
    nodes, weights = gauss_legendre(order, 0.0, 10.0 * w)
    intensity = np.abs(lg_field(geom, [ell], nodes, 0.0)[0]) ** 2
    return 2.0 * math.pi * (weights @ (intensity * nodes))


class TestLgField:
    def test_unit_power(self):
        for p in (0, 1):
            for ell in (0, 1, -3, 4):
                for z in (5.0e5, 1.0e6):
                    geom = default_geom(radial_index=p, distance=z)
                    assert radial_power(geom, ell) == pytest.approx(
                        1.0, rel=1e-10
                    ), (p, ell, z)

    def test_radial_orthogonality_across_p(self):
        # Same ell, different p: the radial profiles are orthogonal, and the
        # curvature phase is common so it cancels in the overlap.
        ell = 2
        geom0 = default_geom(radial_index=0)
        geom1 = default_geom(radial_index=1)
        w = geom0.beam_radius_at_rx
        nodes, weights = gauss_legendre(240, 0.0, 10.0 * w)
        u0 = lg_field(geom0, [ell], nodes, 0.0)[0]
        u1 = lg_field(geom1, [ell], nodes, 0.0)[0]
        overlap = 2.0 * math.pi * (weights @ (u0 * np.conj(u1) * nodes))
        assert abs(overlap) < 1e-10

    def test_helical_phase(self):
        geom = default_geom()
        r = 12.0
        base = lg_field(geom, [-2], r, 0.0)[0]
        for phi in (0.3, 2.0, -1.1):
            rotated = lg_field(geom, [-2], r * math.cos(phi), r * math.sin(phi))[0]
            assert rotated == pytest.approx(base * np.exp(1j * 2 * phi), rel=1e-12)

    def test_on_axis_value(self):
        geom = default_geom()
        w = geom.beam_radius_at_rx
        # ell != 0 vanishes on axis; ell = 0 has |u| = sqrt(2/pi)/w there.
        assert lg_field(geom, [3], 0.0, 0.0)[0] == 0.0
        assert abs(lg_field(geom, [0], 0.0, 0.0)[0]) == pytest.approx(
            math.sqrt(2.0 / math.pi) / w, rel=1e-12
        )

    def test_peak_of_fundamental(self):
        # Gaussian intensity falls to e^-2 of the axial value at r = w.
        geom = default_geom()
        w = geom.beam_radius_at_rx
        ratio = abs(lg_field(geom, [0], w, 0.0)[0]) / abs(lg_field(geom, [0], 0.0, 0.0)[0])
        assert ratio == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_scalar_and_array_forms(self):
        geom = default_geom()
        out = lg_field(geom, [1], 5.0, 0.2)
        assert out.shape == (1,)
        x = np.array([1.0, 5.0, 9.0])
        arr = lg_field(geom, [1], x, 0.2)[0]
        assert arr.shape == (3,)
        assert arr[1] == pytest.approx(out[0], rel=1e-15)

    def test_guards(self):
        geom = default_geom()
        with pytest.raises(ValueError):
            lg_field(geom, [MAX_AZIMUTHAL_ORDER + 1], 1.0, 0.0)

    @pytest.mark.parametrize("order", [1.5, 2.0, "1", None])
    def test_refuses_a_non_integer_order(self, order):
        # Refused by name, not by a TypeError from the helix power loop.
        geom = default_geom()
        with pytest.raises(ValueError, match=f"order must be an integer, got {order!r}"):
            lg_field(geom, [0, order], 1.0, 0.0)

    @pytest.mark.parametrize(
        "first, second",
        [(math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (1.0, -math.inf),
         (np.array([1.0, math.nan]), 0.0)],
        ids=["nan-first", "nan-second", "inf-first", "inf-second", "nan-in-array"],
    )
    def test_rejects_non_finite_coordinates(self, first, second):
        # Each of these used to come back as nan+nanj.
        with pytest.raises(ValueError, match="must be finite"):
            lg_field(default_geom(), [1], first, second)

    @pytest.mark.parametrize("p", [0, 2])
    def test_matches_the_polar_closed_form(self, p):
        # Every quadrant, both axes, the negative x-axis from y = +0 and from
        # y = -0 (where atan2 jumps between +pi and -pi), and the origin.
        geom = default_geom(radial_index=p)
        x = np.array([12.0, -7.0, -20.0, 3.0, 0.0, 0.0, 9.0, -15.0, -15.0, -1e-9, 0.0])
        y = np.array([5.0, 18.0, -6.0, -25.0, 11.0, -4.0, 0.0, 0.0, -0.0, 0.0, 0.0])
        r, phi = np.hypot(x, y), np.arctan2(y, x)
        assert phi[7] == math.pi and phi[8] == -math.pi
        orders = (-16, -3, -1, 0, 1, 2, 5, 16)
        fields = lg_field(geom, orders, x, y)
        for field, ell in zip(fields, orders):
            np.testing.assert_allclose(field, polar_closed_form(geom, ell, r, phi), rtol=1e-12)
            assert field[7] == field[8]
            assert (field[-1] == 0.0) == (ell != 0)

    def test_each_order_of_a_sequence_matches_its_single_call(self):
        rng = np.random.default_rng(11)
        x, y = rng.uniform(-60.0, 60.0, (2, 40, 50))
        orders = (-16, -4, -1, 0, 2, 3, 16)
        for p in (0, 2):
            geom = default_geom(radial_index=p)
            many = lg_field(geom, orders, x, y)
            assert many.shape == (len(orders), 40, 50)
            for field, ell in zip(many, orders):
                one = lg_field(geom, [ell], x, y)[0]
                np.testing.assert_allclose(field, one, rtol=4 * np.finfo(float).eps, atol=0)

    def test_values_do_not_depend_on_other_orders(self):
        geom = default_geom(radial_index=1)
        rng = np.random.default_rng(12)
        r = np.concatenate([rng.rayleigh(20.0, 5000), [0.0, 1e-9, 150.0]])
        phi = rng.uniform(-7.0, 7.0, r.size)
        x, y = r * np.cos(phi), r * np.sin(phi)
        for ell in (-5, 0, 1, 16):
            alone = lg_field(geom, [ell], x, y)[0]
            for others in ([ell], [ell - 1], [-16, 16], list(range(-16, 17))):
                together = lg_field(geom, others + [ell], x, y)[-1]
                assert np.array_equal(together, alone), (ell, others)

    def test_guard_fires_for_any_order_of_a_sequence(self):
        geom = default_geom()
        too_high = MAX_AZIMUTHAL_ORDER + 1
        for orders in ([too_high], [0, 1, -too_high], (2, too_high, 3)):
            with pytest.raises(ValueError, match="exceeds guard"):
                lg_field(geom, orders, 1.0, 0.0)

    def test_sequence_forms(self):
        geom = default_geom()
        pair = lg_field(geom, [1, -2], 5.0, 0.2)
        assert isinstance(pair, np.ndarray) and pair.shape == (2,)
        assert pair.dtype == complex and pair[0] == lg_field(geom, [1], 5.0, 0.2)[0]
        x = np.array([1.0, 5.0, 9.0])
        assert lg_field(geom, (1,), x, 0.2).shape == (1, 3)
        assert lg_field(geom, np.array([0, 3]), x[:, None], x).shape == (2, 3, 3)
        assert lg_field(geom, [], x, 0.2).shape == (0, 3)


class TestOffsetRadiusGuard:
    @pytest.mark.parametrize("radii, named", [
        ([-5.0, math.nan], "-5.0"),
        ([math.nan, -5.0], "nan"),
        ([1.0, math.inf, -2.0], "inf"),
        ([2.0, math.inf], "inf"),
        ([[3.0, 2.0], [1.0, -1e-300]], "-1e-300"),
        (-0.5, "-0.5"),
    ])
    def test_names_the_first_bad_offset(self, radii, named):
        with pytest.raises(ValueError, match=re.escape(f"finite and >= 0, got {named}")):
            check_offset_radius(np.array(radii))

    @pytest.mark.parametrize("radii", [0.0, -0.0, 5, [0.0, 1e308], [], [[1.0, 2.0]]])
    def test_accepts_finite_non_negative_offsets(self, radii):
        check_offset_radius(np.array(radii))
