import random
from fractions import Fraction

import pytest

from planecubic.surfaces import (
    SurfaceError,
    SurfaceModel,
    blowdown_vp,
    blowup_vp,
    canonical_class,
    intersect,
    is_mf_cy_admissible,
    sarkisov_degree,
)

P2 = SurfaceModel.plane()


class TestIntersection:
    def test_anticanonical_dot_negative_section(self):
        for n in range(4):
            Fn = SurfaceModel.hirzebruch(n)
            assert intersect(Fn, (n + 2, 2), (0, 1)) == 2 - n

    def test_fiber_squares_to_zero(self):
        assert intersect(SurfaceModel.hirzebruch(2), (1, 0), (1, 0)) == 0

    def test_plane_cubics(self):
        assert intersect(P2, (3,), (3,)) == 9

    def test_symmetric_bilinear(self):
        rng = random.Random(17)
        for n in (0, 1, 2, 3):
            Fn = SurfaceModel.hirzebruch(n)
            for _ in range(20):
                D1 = (rng.randint(-5, 5), rng.randint(-5, 5))
                D2 = (rng.randint(-5, 5), rng.randint(-5, 5))
                D3 = (rng.randint(-5, 5), rng.randint(-5, 5))
                assert intersect(Fn, D1, D2) == intersect(Fn, D2, D1)
                s = tuple(a + b for a, b in zip(D2, D3))
                assert intersect(Fn, D1, s) == intersect(Fn, D1, D2) + intersect(
                    Fn, D1, D3
                )

    def test_basis_mismatch(self):
        with pytest.raises(SurfaceError):
            intersect(P2, (1, 2), (1,))


class TestCanonicalClass:
    def test_plane(self):
        assert canonical_class(P2) == (-3,)

    def test_f2(self):
        assert canonical_class(SurfaceModel.hirzebruch(2)) == (-4, -2)

    def test_f0(self):
        assert canonical_class(SurfaceModel.hirzebruch(0)) == (-2, -2)

    def test_anticanonical_pairs_with_admissibility(self):
        for n in range(6):
            Fn = SurfaceModel.hirzebruch(n)
            minus_k = tuple(-c for c in canonical_class(Fn))
            assert (intersect(Fn, minus_k, (0, 1)) >= 0) == is_mf_cy_admissible(Fn)


class TestAdmissibility:
    def test_examples(self):
        assert is_mf_cy_admissible(SurfaceModel.hirzebruch(2))
        assert not is_mf_cy_admissible(SurfaceModel.hirzebruch(3))
        assert is_mf_cy_admissible(P2)


class TestBlowupVp:
    def test_on_boundary(self):
        assert blowup_vp(1) == (True, 0)

    def test_off_boundary(self):
        assert blowup_vp(0) == (False, 1)

    def test_discrepancy_relation(self):
        for m in (0, 1):
            vp, disc = blowup_vp(m)
            assert disc + m == 1

    def test_singular_boundary_rejected(self):
        with pytest.raises(SurfaceError):
            blowup_vp(2)


class TestBlowdownVp:
    def test_transverse(self):
        assert blowdown_vp(1)

    def test_disjoint(self):
        assert not blowdown_vp(0)

    def test_tangent_makes_singular_image(self):
        assert not blowdown_vp(2)

    def test_negative_rejected(self):
        with pytest.raises(SurfaceError):
            blowdown_vp(-1)


class TestSarkisovDegree:
    def test_plane_quartics(self):
        assert sarkisov_degree(P2, (4,)) == Fraction(4, 3)

    def test_hirzebruch(self):
        assert sarkisov_degree(SurfaceModel.hirzebruch(1), (2, 1)) == Fraction(1, 2)

    def test_lines(self):
        assert sarkisov_degree(P2, (1,)) == Fraction(1, 3)


class TestModelValidation:
    def test_negative_n_rejected(self):
        with pytest.raises(SurfaceError):
            SurfaceModel.hirzebruch(-1)

    def test_plane_and_hirzebruch_by_index(self):
        assert P2 == SurfaceModel() and P2.is_plane and P2.rank == 1 and repr(P2) == "P2"
        F0 = SurfaceModel.hirzebruch(0)
        assert F0 == SurfaceModel(0) and not F0.is_plane and F0.rank == 2 and repr(F0) == "F0"

    @pytest.mark.parametrize("n", [None, True, 1.0, Fraction(2)])
    def test_index_must_be_an_int(self, n):
        with pytest.raises(SurfaceError):
            SurfaceModel.hirzebruch(n)


class TestNothingIsCast:
    """The lattice functions take ints only, bools excluded."""

    @pytest.mark.parametrize("D", [(2.7,), (Fraction(2),), (True,)])
    def test_plane_class(self, D):
        with pytest.raises(SurfaceError):
            intersect(P2, D, (1,))

    def test_hirzebruch_class(self):
        with pytest.raises(SurfaceError):
            sarkisov_degree(SurfaceModel.hirzebruch(1), (2, 1.5))

    @pytest.mark.parametrize("m", [1.9, 0.5, True, False])
    def test_blowup_multiplicity(self, m):
        with pytest.raises(SurfaceError):
            blowup_vp(m)

    @pytest.mark.parametrize("c_dot_e", [1.5, 1.0, True])
    def test_blowdown_intersection(self, c_dot_e):
        with pytest.raises(SurfaceError):
            blowdown_vp(c_dot_e)
