"""Tests for the instruction-TLB channel and libgcrypt's hardening."""


from repro.attacks import itlb_attack, tlbleed_attack
from repro.tlb import TLBKind
from repro.workloads.rsa import CodePages, MPIBuffers, TracedModExp, generate_key

KEY = generate_key(bits=48, seed=11)


class TestCodePageTrace:
    def _code_touches_by_bit(self, hardened):
        code = CodePages()
        exponent = 0b1100101
        traced = TracedModExp(
            5, exponent, 99991, hardened=hardened, code_pages=code
        )
        touches = {}
        current = None
        for kind, arg1, vpn in traced.run():
            if kind == "bit":
                current = arg1
                touches[current] = {"square": 0, "multiply": 0}
            elif vpn == code.square_vpn:
                touches[current]["square"] += 1
            elif vpn == code.multiply_vpn:
                touches[current]["multiply"] += 1
        return exponent, touches

    def test_unhardened_multiply_page_is_secret_dependent(self):
        exponent, touches = self._code_touches_by_bit(hardened=False)
        for index, counts in touches.items():
            bit = (exponent >> index) & 1
            assert counts["square"] == 1
            assert (counts["multiply"] > 0) == bool(bit)

    def test_hardened_multiply_page_is_constant(self):
        _exponent, touches = self._code_touches_by_bit(hardened=True)
        for counts in touches.values():
            assert counts["square"] == 1
            assert counts["multiply"] == 1

    def test_unhardened_result_is_still_correct(self):
        traced = TracedModExp(1234, 0b1011001, 99991, hardened=False)
        list(traced.run())
        assert traced.result == pow(1234, 0b1011001, 99991)

    def test_no_code_events_without_code_pages(self):
        code = CodePages()
        traced = TracedModExp(5, 0b101, 99991)
        pages = {vpn for kind, _g, vpn in traced.run() if kind == "access"}
        assert not pages & set(code.pages())

    def test_unhardened_has_no_tp_touch(self):
        buffers = MPIBuffers()
        traced = TracedModExp(5, 0b111, 99991, hardened=False)
        pages = {vpn for kind, _g, vpn in traced.run() if kind == "access"}
        assert buffers.tp_vpn not in pages


class TestITLBAttack:
    def test_unhardened_victim_falls_on_sa(self):
        result = itlb_attack(TLBKind.SA, hardened=False, key=KEY)
        assert result.recovered_exactly

    def test_secure_itlbs_block_the_channel(self):
        for kind in (TLBKind.SP, TLBKind.RF):
            result = itlb_attack(kind, hardened=False, key=KEY)
            assert not result.recovered_exactly, kind

    def test_hardening_closes_the_itlb_channel(self):
        # Figure 5's unconditional multiply: the code-page pattern becomes
        # constant, so even the standard I-TLB leaks nothing.
        result = itlb_attack(TLBKind.SA, hardened=True, key=KEY)
        assert not result.recovered_exactly
        assert result.accuracy < 0.7

    def test_hardening_does_not_close_the_dtlb_channel(self):
        # The TLBleed thesis: software mitigations aimed at one channel
        # (Flush+Reload on code) leave the data-TLB channel open.
        assert tlbleed_attack(TLBKind.SA, key=KEY).recovered_exactly
