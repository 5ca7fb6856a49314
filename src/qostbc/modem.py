"""Gray-mapped M-PSK and square M-QAM with hard-decision demapping.

PSK points sit on the unit circle at angles ``2*pi*m/M`` and carry the
binary-reflected Gray label of the ring index ``m``.  Square QAM uses the
``{+-1, +-3, ...}`` grid with an independent Gray label per axis and is
scaled to unit average energy.  Bit words are MSB-first uint8 arrays.
Mapping weights each word's bits into its label and looks the point up; a
hard decision finds the nearest point's index and looks up its label bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Modulation",
    "modulation",
    "modulation_spec",
    "psk_distance_spectrum",
    "count_bit_errors",
]


def _gray(m: np.ndarray) -> np.ndarray:
    return m ^ (m >> 1)


class Modulation:
    """A PSK or square-QAM constellation with Gray bit labels.

    Parameters
    ----------
    family : str
        ``"psk"`` or ``"qam"``.
    order : int
        Constellation size, a power of two; QAM additionally requires an
        even number of bits per symbol (square grid).
    """

    def __init__(self, family: str, order: int):
        self.family, self.order, b = _Spec.checked(family, order)
        self.bits_per_symbol = b
        m = np.arange(order)
        if family == "psk":
            self.points = np.exp(2j * np.pi * m / order)
            self.labels = _gray(m)
        else:
            side = int(round(np.sqrt(order)))
            self._side = side
            self._scale = np.sqrt(3.0 / (2.0 * (order - 1)))
            lev = (2 * np.arange(side) - (side - 1)) * self._scale
            i_idx, q_idx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
            self.points = (lev[i_idx] + 1j * lev[q_idx]).ravel()
            self.labels = (_gray(i_idx) * side + _gray(q_idx)).ravel()
        # label -> point lookup, and MSB-first bit weights in the narrowest
        # unsigned type that holds every label
        self._point_of_label = np.empty(order, dtype=complex)
        self._point_of_label[self.labels] = self.points
        self._weights = (1 << np.arange(b - 1, -1, -1)).astype(np.min_scalar_type(order - 1))
        # point index -> (b,) bits of its label
        labels = self.labels.astype(self._weights.dtype)
        self._point_bits = ((labels[:, None] & self._weights) != 0).astype(np.uint8)

    def __repr__(self):
        return f"{self.order}-{self.family.upper()}"

    def map_bits(self, bits) -> np.ndarray:
        """Map bit words of shape ``(..., bits_per_symbol)`` to symbols."""
        bits = np.asarray(bits)
        if bits.shape[-1] != self.bits_per_symbol:
            raise ValueError(
                f"expected {self.bits_per_symbol} bits per symbol, got {bits.shape[-1]}"
            )
        labels = bits @ self._weights
        # every label of a bit word is in range; "raise" would copy the output
        return self._point_of_label.take(labels, out=np.empty(labels.shape, complex), mode="clip")

    def demap(self, symbols) -> np.ndarray:
        """Nearest-point hard decision; returns ``(..., bits_per_symbol)`` bits."""
        symbols = np.asarray(symbols, dtype=complex)
        shape = symbols.shape
        x = np.empty(shape)
        index = np.empty(shape, np.intp)
        if self.family == "psk":
            np.arctan2(symbols.imag, symbols.real, out=x)  # np.angle
            x *= self.order
            x /= 2 * np.pi
            self._rounded(x, index)
            index &= self.order - 1  # the ring index, modulo M
        else:
            q = np.empty(shape, np.intp)
            self._axis_index(symbols.real, x, index)
            self._axis_index(symbols.imag, x, q)
            index *= self._side
            index += q
        bits = np.empty(shape + (self.bits_per_symbol,), np.uint8)
        return self._point_bits.take(index, axis=0, out=bits, mode="clip")

    @staticmethod
    def _rounded(x, out):
        """``np.round(x).astype(int)`` into ``out``; ``x`` is overwritten."""
        np.round(x, out=x)
        np.copyto(out, x, casting="unsafe")
        return out

    def _axis_index(self, coord, x, out):
        """The grid index along one axis into ``out``, through the float scratch ``x``."""
        side = self._side
        np.divide(coord, self._scale, out=x)
        x += side
        x -= 1
        x /= 2.0
        return np.clip(self._rounded(x, out), 0, side - 1, out=out)


class _Spec(NamedTuple):
    """What a modulation's name fixes: its family, order and bits per symbol."""

    family: str
    order: int
    bits_per_symbol: int

    @classmethod
    def checked(cls, family: str, order: int):
        """The spec of a valid ``family`` and ``order``: the one check of both."""
        if order < 2 or order & (order - 1):
            raise ValueError(f"M={order} is not a power of two >= 2")
        b = int(np.log2(order))
        if family == "qam" and b % 2:
            raise ValueError(f"square QAM needs an even number of bits, got M={order}")
        if family not in ("psk", "qam"):
            raise ValueError(f"unknown family {family!r}")
        return cls(family, order, b)


_ALIASES = {"bpsk": ("psk", 2), "qpsk": ("psk", 4)}


def modulation_spec(name: str) -> _Spec:
    """``(family, order, bits_per_symbol)`` of a CLI name, checked as
    :class:`Modulation` checks them, with no constellation built."""
    key = name.strip().lower()
    if key in _ALIASES:
        return _Spec.checked(*_ALIASES[key])
    for fam in ("psk", "qam"):
        if key.startswith(fam):
            try:
                order = int(key[len(fam) :])
            except ValueError:
                break
            return _Spec.checked(fam, order)
    raise ValueError(f"unrecognised modulation {name!r}")


def modulation(name: str) -> Modulation:
    """Build a modulation from its CLI name, e.g. ``"psk8"`` or ``"qam64"``."""
    return Modulation(*modulation_spec(name)[:2])


def psk_distance_spectrum(m: int) -> np.ndarray:
    """Mean Hamming distance between Gray labels ``k`` sectors apart.

    ``d[k-1]`` is the average number of bit errors caused by a hard PSK
    decision landing ``k`` sectors away from the transmitted one,
    ``k = 1..M-1``.  Rounding ties (half-integers) are resolved away from
    zero; either choice gives the same value since both sides of a tie are
    equidistant.
    """
    if m < 2 or m & (m - 1):
        raise ValueError(f"M={m} is not a power of two >= 2")
    b = int(np.log2(m))

    def _round_half_away(x):
        return np.sign(x) * np.floor(np.abs(x) + 0.5)

    k = np.arange(1, m)
    d = 2.0 * np.abs(k / m - _round_half_away(k / m))
    for i in range(2, b + 1):
        d = d + 2.0 * np.abs(k / 2**i - _round_half_away(k / 2**i))
    return d


def count_bit_errors(tx_bits, rx_bits) -> int:
    """Hamming distance between two equally shaped bit arrays."""
    tx = np.asarray(tx_bits)
    rx = np.asarray(rx_bits)
    if tx.shape != rx.shape:
        raise ValueError(f"shape mismatch {tx.shape} vs {rx.shape}")
    return int(np.count_nonzero(tx != rx))
