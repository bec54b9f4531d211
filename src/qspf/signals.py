"""Synthetic diffusion signals for validating the transform pipeline.

Multi-tensor mixtures give ground-truth attenuations with known analytic
form; random coefficient draws give signals exactly inside the transform's
model space; Rician noise approximates magnitude MR data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .multishell import MultiShellGrid, SpfCoefficients, _paired

__all__ = [
    "TensorComponent",
    "two_tensor_crossing",
    "multi_tensor_eval",
    "random_staircase_signal",
    "add_rician_noise",
]


@dataclass(frozen=True)
class TensorComponent:
    """One Gaussian compartment: a diffusion tensor and its volume fraction.

    tensor is 3x3 symmetric positive-definite in mm^2/s.
    """

    tensor: np.ndarray
    fraction: float

    def __post_init__(self):
        tensor = np.asarray(self.tensor, dtype=float)
        if tensor.shape != (3, 3):
            raise ValueError(f"diffusion tensor must be 3x3, got shape {tensor.shape}")
        if not np.allclose(tensor, tensor.T, rtol=0, atol=1e-12 * max(1.0, np.abs(tensor).max())):
            raise ValueError("diffusion tensor must be symmetric")
        if np.linalg.eigvalsh(tensor).min() <= 0:
            raise ValueError("diffusion tensor must be positive-definite")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"volume fraction must lie in [0, 1], got {self.fraction}")
        object.__setattr__(self, "tensor", tensor)


def _axis_aligned_tensor(eigenvalues, axis) -> np.ndarray:
    """Tensor with the given eigenvalues, largest along the given axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e2 = np.cross(axis, helper)
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(axis, e2)
    frame = np.stack([axis, e2, e3], axis=1)
    return frame @ np.diag(np.asarray(eigenvalues, dtype=float)) @ frame.T


def two_tensor_crossing(
    angle_deg: float = 90.0,
    eigenvalues=(1.7e-3, 3e-4, 3e-4),
    fractions=(0.5, 0.5),
) -> list:
    """Two equal-shape fibers crossing in the x-y plane.

    The first fiber runs along x; the second is rotated by angle_deg about
    z. Default eigenvalues are typical white-matter values in mm^2/s.
    """
    angle = np.deg2rad(angle_deg)
    first = _axis_aligned_tensor(eigenvalues, [1.0, 0.0, 0.0])
    second = _axis_aligned_tensor(eigenvalues, [np.cos(angle), np.sin(angle), 0.0])
    return [
        TensorComponent(first, fractions[0]),
        TensorComponent(second, fractions[1]),
    ]


def multi_tensor_eval(mixture, b, directions):
    """Normalized attenuation of a Gaussian mixture, E = sum_j f_j e^{-b u'D_j u}.

    b is in s/mm^2 and must be non-negative, not NaN (b = inf gives 0, its
    limit); directions must be unit vectors. b-values pair with directions
    as in inverse_spf: one b with many directions, one direction with many
    b-values, matched arrays, or scalars.
    """
    mixture = list(mixture)
    if not mixture:
        raise ValueError("mixture must contain at least one component")
    total = sum(c.fraction for c in mixture)
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"volume fractions must sum to 1, got {total}")
    b, dirs, scalar = _paired(b, directions, "b-values")  # b = inf gives 0
    out = np.zeros(len(dirs))
    for comp in mixture:
        exponent = np.einsum("pi,ij,pj->p", dirs, comp.tensor, dirs)
        out += comp.fraction * np.exp(-b * exponent)
    return float(out[0]) if scalar else out


def random_staircase_signal(seed, grid: MultiShellGrid) -> SpfCoefficients:
    """Reproducible random coefficients inside a grid's model space.

    The table is over the grid's staircase index, in its radial scale and
    b convention. Coefficients are standard normal draws that obey the
    conjugation constraint of real-valued signals, c_{n,l,-m} =
    (-1)^m conj(c_{n,l,m}), so the synthesized samples are real. seed is
    anything numpy's default_rng takes, an int or a SeedSequence.
    """
    index = grid.index
    m = index.orders
    # draws in entry order: one per m = 0 entry, (re, im) per m > 0, none (two pads) for m < 0
    counts = np.sign(m) + 1
    first = np.cumsum(counts) - counts
    draws = np.append(np.random.default_rng(seed).standard_normal(counts.sum()), [0.0, 0.0])
    imag = np.where(m > 0, draws[first + 1], 0.0)
    values = draws[first] + 1j * imag
    return SpfCoefficients(index, grid.radial.zeta, grid.radial.convention,
                           np.where(m < 0, index.mirrored(values), values))


def add_rician_noise(values, sigma: float, seed: int):
    """Magnitude of the signal after complex Gaussian noise.

    Returns |v + eta_1 + i eta_2| with independent eta ~ N(0, sigma^2).
    sigma = 0 reduces to |v|. sigma and values must be finite.
    """
    if not 0 <= sigma < np.inf:  # written so that NaN fails too
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    rng = np.random.default_rng(seed)
    real = values + sigma * rng.standard_normal(values.shape)
    imag = sigma * rng.standard_normal(values.shape)
    return np.hypot(real, imag)
