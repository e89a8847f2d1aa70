"""Jacobson/Karels round-trip-time estimation (RFC 6298 shape).

Extracted from the AoE initiator so the same estimator can be used
per *replica*: the distribution fabric's RTT-aware selector keeps one
:class:`RttEstimator` per candidate target and routes reads to the
fastest.  Karn's algorithm lives here too — a sample taken from a
retransmitted transaction is ambiguous (the reply may answer either
copy) and must never feed the estimate.
"""

from __future__ import annotations


class RttEstimator:
    """EWMA smoothed RTT + variance, with Karn-style loss backoff."""

    def __init__(self, initial_rto: float = 50e-3,
                 min_rto: float = 2e-3):
        self._srtt = initial_rto / 2.0
        self._rttvar = initial_rto / 4.0
        self.min_rto = min_rto
        self.samples = 0

    @property
    def srtt(self) -> float:
        return self._srtt

    @property
    def rto(self) -> float:
        """Retransmission timeout: SRTT + 4 * RTTVAR, floored."""
        rto = self._srtt + 4.0 * self._rttvar
        return rto if rto > self.min_rto else self.min_rto

    def observe(self, sample: float) -> None:
        """Fold one *unambiguous* RTT sample into the estimate.

        Callers enforce Karn's algorithm: never pass a sample measured
        on a transaction that was retransmitted.
        """
        error = sample - self._srtt
        self._srtt += 0.125 * error
        self._rttvar += 0.25 * (abs(error) - self._rttvar)
        self.samples += 1

    def back_off(self) -> None:
        """Loss signal: widen the timeout window (Karn-style doubling)."""
        self._rttvar *= 2.0
