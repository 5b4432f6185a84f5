"""Tests for the elliptic-curve victim: group laws + trace structure."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.ecc import (
    BASE_POINT,
    Curve,
    ECCBuffers,
    ECCWorkload,
    TOY_CURVE,
    TracedScalarMult,
    random_scalar,
)

scalars = st.integers(min_value=1, max_value=1 << 20)


class TestCurveGroupLaws:
    def test_base_point_on_curve(self):
        assert TOY_CURVE.contains(BASE_POINT)

    def test_identity_laws(self):
        assert TOY_CURVE.add(None, BASE_POINT) == BASE_POINT
        assert TOY_CURVE.add(BASE_POINT, None) == BASE_POINT
        assert TOY_CURVE.add(None, None) is None

    def test_inverse(self):
        negated = TOY_CURVE.negate(BASE_POINT)
        assert TOY_CURVE.contains(negated)
        assert TOY_CURVE.add(BASE_POINT, negated) is None

    def test_addition_stays_on_curve(self):
        doubled = TOY_CURVE.double(BASE_POINT)
        tripled = TOY_CURVE.add(doubled, BASE_POINT)
        assert TOY_CURVE.contains(doubled)
        assert TOY_CURVE.contains(tripled)

    @given(scalars, scalars)
    @settings(max_examples=40, deadline=None)
    def test_commutativity(self, a, b):
        point_a = TOY_CURVE.scalar_mult(a, BASE_POINT)
        point_b = TOY_CURVE.scalar_mult(b, BASE_POINT)
        assert TOY_CURVE.add(point_a, point_b) == TOY_CURVE.add(point_b, point_a)

    @given(scalars, scalars)
    @settings(max_examples=40, deadline=None)
    def test_scalar_distributivity(self, a, b):
        # (a + b)G == aG + bG: the defining homomorphism property.
        left = TOY_CURVE.scalar_mult(a + b, BASE_POINT)
        right = TOY_CURVE.add(
            TOY_CURVE.scalar_mult(a, BASE_POINT),
            TOY_CURVE.scalar_mult(b, BASE_POINT),
        )
        assert left == right

    @given(scalars)
    @settings(max_examples=40, deadline=None)
    def test_scalar_mult_stays_on_curve(self, scalar):
        assert TOY_CURVE.contains(TOY_CURVE.scalar_mult(scalar, BASE_POINT))

    def test_singular_curve_rejected(self):
        with pytest.raises(ValueError):
            Curve(p=23, a=0, b=0)


class TestTracedScalarMult:
    @given(scalars)
    @settings(max_examples=40, deadline=None)
    def test_traced_result_matches_reference(self, scalar):
        traced = TracedScalarMult(scalar)
        list(traced.run())
        assert traced.result == TOY_CURVE.scalar_mult(scalar, BASE_POINT)

    def test_add_page_touched_only_on_one_bits(self):
        buffers = ECCBuffers()
        scalar = 0b1011001
        traced = TracedScalarMult(scalar, buffers=buffers)
        current_bit = None
        touched = {}
        for kind, arg1, vpn in traced.run():
            if kind == "bit":
                current_bit = arg1
                touched[current_bit] = 0
            elif vpn == buffers.add_vpn:
                touched[current_bit] += 1
        for index, count in touched.items():
            assert (count > 0) == bool((scalar >> index) & 1)

    def test_double_pages_touched_every_window(self):
        buffers = ECCBuffers()
        traced = TracedScalarMult(0b101, buffers=buffers)
        windows = []
        pages = set()
        for kind, _arg1, vpn in traced.run():
            if kind == "bit":
                if pages:
                    windows.append(pages)
                pages = set()
            else:
                pages.add(vpn)
        windows.append(pages)
        for window in windows:
            assert buffers.accum_vpn in window
            assert buffers.double_vpn in window

    def test_negative_scalar_rejected(self):
        with pytest.raises(ValueError):
            TracedScalarMult(-1)


class TestECCWorkload:
    def test_trace_confined_to_buffers(self):
        workload = ECCWorkload(scalar=0b110101, runs=1)
        pages = {vpn for _gap, vpn in workload.events(random.Random(0))}
        assert pages <= set(workload.buffers.pages())

    def test_secure_region_covers_buffers(self):
        workload = ECCWorkload(scalar=5, runs=1)
        sbase, ssize = workload.secure_region()
        assert ssize == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ECCWorkload(scalar=5, runs=0)
        with pytest.raises(ValueError):
            ECCWorkload(scalar=0, runs=1)

    def test_random_scalar_has_top_bit_set(self):
        scalar = random_scalar(bits=32, seed=4)
        assert scalar.bit_length() == 32
        assert scalar % 2 == 1


class TestEdDSAAttack:
    def test_full_scalar_recovery_on_sa(self):
        from repro.attacks import eddsa_attack
        from repro.tlb import TLBKind

        result = eddsa_attack(TLBKind.SA)
        assert result.recovered_exactly

    def test_secure_designs_block_recovery(self):
        from repro.attacks import eddsa_attack
        from repro.tlb import TLBKind

        for kind in (TLBKind.SP, TLBKind.RF):
            result = eddsa_attack(kind)
            assert not result.recovered_exactly
