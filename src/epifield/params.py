"""Flat parameter vector layout: [t0, N, k, theta] per region, then noise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .likelihood import NoiseParams
from .model import RegionParams

NOISE_NAMES = ("tau_phi", "lambda_phi", "sigma_a", "sigma_m")
REGION_NAMES = ("t0", "N", "k", "theta")


def dim_for(n_regions):
    return 4 * n_regions + 4


@dataclass(frozen=True)
class ParamVector:
    """Constrained model parameters for all regions plus the global noise."""

    values: np.ndarray
    n_regions: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (dim_for(self.n_regions),):
            raise ValueError(f"expected {dim_for(self.n_regions)} values, got {values.shape}")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_parts(cls, regions, noise: NoiseParams):
        vals = []
        for p in regions:
            vals.extend([p.t0, p.N, p.k, p.theta])
        vals.extend(noise.as_array())
        return cls(values=np.array(vals), n_regions=len(regions))

    def region(self, r) -> RegionParams:
        t0, N, k, theta = self.values[4 * r : 4 * r + 4]
        return RegionParams(t0=t0, N=N, k=k, theta=theta)

    @property
    def noise(self) -> NoiseParams:
        tau, lam, sa, sm = self.values[-4:]
        return NoiseParams(tau_phi=tau, lambda_phi=lam, sigma_a=sa, sigma_m=sm)


def param_names(n_regions):
    out = []
    for r in range(n_regions):
        out.extend(f"{name}[{r}]" for name in REGION_NAMES)
    out.extend(NOISE_NAMES)
    return out
