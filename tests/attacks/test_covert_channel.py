"""Tests for the TLB covert channel."""

import pytest

from repro.attacks import random_message, transmit
from repro.attacks.covert_channel import CovertChannelResult
from repro.tlb import TLBKind

MESSAGE = random_message(160, seed=5)


class TestStandardTLBChannel:
    def test_error_free_transmission(self):
        result = transmit(MESSAGE, TLBKind.SA)
        assert result.received == MESSAGE
        assert result.bit_error_rate == 0.0

    def test_full_capacity(self):
        result = transmit(MESSAGE, TLBKind.SA)
        assert result.empirical_capacity() == pytest.approx(1.0)

    def test_reports_throughput(self):
        result = transmit(MESSAGE, TLBKind.SA)
        assert result.bits_per_kilocycle > 0
        assert result.cycles > 0


class TestSecureTLBChannels:
    def test_sp_closes_the_channel(self):
        result = transmit(MESSAGE, TLBKind.SP)
        assert result.empirical_capacity() < 0.05
        assert result.bit_error_rate > 0.25

    def test_rf_collapses_the_capacity(self):
        result = transmit(MESSAGE, TLBKind.RF)
        assert result.empirical_capacity() < 0.15
        assert result.bit_error_rate > 0.2

    def test_rf_channel_varies_with_seed(self):
        first = transmit(MESSAGE, TLBKind.RF, seed=1)
        second = transmit(MESSAGE, TLBKind.RF, seed=2)
        assert first.received != second.received


class TestValidation:
    def test_empty_message_rejected(self):
        with pytest.raises(ValueError):
            transmit("", TLBKind.SA)

    def test_non_binary_message_rejected(self):
        with pytest.raises(ValueError):
            transmit("10a1", TLBKind.SA)

    def test_capacity_needs_both_symbols(self):
        result = CovertChannelResult(
            sent="1111", received="1111", kind=TLBKind.SA, cycles=10
        )
        with pytest.raises(ValueError):
            result.empirical_capacity()

    def test_random_message_is_deterministic(self):
        assert random_message(50, seed=2) == random_message(50, seed=2)
        assert set(random_message(50, seed=2)) <= {"0", "1"}
