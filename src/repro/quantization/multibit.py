"""Multi-bit quantizer (Jana et al., MobiCom 2009).

Divides the window's value range into ``2**bits_per_sample``
equal-probability bins (empirical quantiles), Gray-codes the bin index of
each sample, and optionally drops samples falling within a guard fraction
of a bin boundary, where small measurement asymmetries flip bins.  The
paper uses this quantizer on Bob's side of the prediction/quantization
model (Sec. IV-B).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.quantization.base import QuantizationResult, Quantizer
from repro.utils.bits import gray_code_table
from repro.utils.validation import require, require_in_range

# Cephes ``ndtri`` (which ``scipy.stats.norm.ppf`` evaluates): the central
# rational approximation for exp(-2) < p < 1 - exp(-2), and the tail one
# for sqrt(-2 log p) < 8.  The far tail (p < exp(-32)) is not ported: the
# smallest boundary a quantizer asks for is 1/256.
_S2PI = 2.50662827463100050242e0
_EXP_MINUS_2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)


def _polevl(x: float, coefficients: Tuple[float, ...]) -> float:
    """Cephes ``polevl``: Horner's rule, highest power first."""
    result = coefficients[0]
    for coefficient in coefficients[1:]:
        result = result * x + coefficient
    return result


def _p1evl(x: float, coefficients: Tuple[float, ...]) -> float:
    """Cephes ``p1evl``: ``polevl`` with an implied leading coefficient 1."""
    return _polevl(x, (x + coefficients[0],) + coefficients[1:])


def _normal_quantile(p: float) -> float:
    """The standard normal quantile of ``p``, for 1e-13 <= p <= 1 - 1e-13.

    Bit for bit what ``scipy.stats.norm.ppf`` returns on that range.
    """
    y, negate = p, True
    if y > 1.0 - _EXP_MINUS_2:
        y, negate = 1.0 - y, False
    if y > _EXP_MINUS_2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    x = x - math.log(x) / x - z * _polevl(z, _P1) / _p1evl(z, _Q1)
    return -x if negate else x


class MultiBitQuantizer(Quantizer):
    """Equal-probability multi-bit quantization with Gray coding.

    Args:
        bits_per_sample: Bits extracted per kept sample (M); the window is
            split into ``2**M`` quantile bins.
        guard_band_fraction: Fraction of each bin's probability mass,
            adjacent to every internal boundary, whose samples are dropped.
            0 keeps everything.
        fixed_thresholds: If ``True``, bin boundaries are the *standard
            normal* quantiles applied to the z-scored window instead of
            the window's empirical quantiles.  Empirical quantiles from a
            short window are themselves noisy and estimated independently
            by the two parties; fixed boundaries remove that asymmetry
            (and make the bin function learnable by the quantization
            head, which is why the Vehicle-Key pipeline uses this mode).

    A window holding a non-finite value (NaN or +/-inf) is not quantized:
    it keeps no sample and yields no bits.
    """

    def __init__(
        self,
        bits_per_sample: int = 2,
        guard_band_fraction: float = 0.0,
        fixed_thresholds: bool = False,
    ):
        require(1 <= bits_per_sample <= 8, "bits_per_sample must be in [1, 8]")
        require_in_range(guard_band_fraction, 0.0, 0.49, "guard_band_fraction")
        self.bits_per_sample = int(bits_per_sample)
        self.guard_band_fraction = float(guard_band_fraction)
        self.fixed_thresholds = bool(fixed_thresholds)
        self._codebook = gray_code_table(self.bits_per_sample)
        # Internal bin boundaries as CDF positions and, for fixed
        # thresholds, the standard normal quantiles at them.
        self._boundary_cdf = np.arange(1, self.n_levels) / self.n_levels
        self._normal_boundaries = None
        if self.fixed_thresholds:
            self._normal_boundaries = np.array(
                [_normal_quantile(p) for p in self._boundary_cdf.tolist()]
            )

    @property
    def n_levels(self) -> int:
        """Number of quantization bins."""
        return 1 << self.bits_per_sample

    def quantize(self, values: np.ndarray) -> QuantizationResult:
        window = np.asarray(values, dtype=float)
        require(window.ndim == 1, "values must be 1-D")
        codes, kept = self.quantize_rows(window[np.newaxis])
        return QuantizationResult(
            bits=codes[0][kept[0]].reshape(-1),
            kept=kept[0],
            bits_per_sample=self.bits_per_sample,
        )

    def quantize_rows(self, windows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Quantize every row of a ``[W, L]`` window matrix on its own.

        :meth:`quantize` is a one-row call of this method.

        Returns:
            ``(codes, kept)``: ``codes`` is the ``[W, L, bits_per_sample]``
            ``uint8`` Gray codeword of every sample's bin and ``kept`` the
            ``[W, L]`` guard-band keep-mask, so row ``i``'s key bits are
            ``codes[i][kept[i]].reshape(-1)``.  Rows holding a non-finite
            value keep nothing (their codes are zero).
        """
        windows = np.asarray(windows, dtype=float)
        require(windows.ndim == 2, "windows must be [window, sample]")
        n_windows, length = windows.shape
        require(
            length >= self.n_levels,
            f"window of {length} samples is too small for "
            f"{self.n_levels} quantile bins",
        )
        codes = np.zeros((n_windows, length, self.bits_per_sample), dtype=np.uint8)
        kept = np.zeros((n_windows, length), dtype=bool)
        finite = np.isfinite(windows).all(axis=1)
        rows = windows[finite]
        if self.fixed_thresholds:
            mean = rows.mean(axis=1, keepdims=True)
            std = rows.std(axis=1, keepdims=True)
            normalized = (rows - mean) / np.where(std > 0, std, 1.0)
            levels = np.searchsorted(self._normal_boundaries, normalized, side="right")
        else:
            # Empirical quantile boundaries (internal only), one set per
            # row.  They are sorted, so a sample's bin is the number of
            # boundaries at or below it -- what a right-sided
            # searchsorted on the row's own boundaries returns.
            boundaries = np.quantile(rows, self._boundary_cdf, axis=1).T
            levels = (rows[:, :, np.newaxis] >= boundaries[:, np.newaxis, :]).sum(axis=2)
        codes[finite] = self._codebook[levels]

        row_kept = np.ones(rows.shape, dtype=bool)
        if self.guard_band_fraction > 0:
            # Drop samples whose empirical CDF position is within
            # guard_band_fraction of a boundary's CDF position.  The CDF
            # position depends only on the sample's stable rank in its
            # row, so the keep decision is made once per rank.
            rank_cdf = (np.arange(length) + 0.5) / length
            guard = self.guard_band_fraction / self.n_levels
            rank_kept = (
                np.abs(rank_cdf[:, np.newaxis] - self._boundary_cdf) > guard
            ).all(axis=1)
            order = np.argsort(rows, axis=1, kind="stable")
            np.put_along_axis(row_kept, order, rank_kept, axis=1)
        kept[finite] = row_kept
        return codes, kept
