"""Point-cloud pipeline: estimate normals, filter them, move the points.

Samples a noisy sphere, estimates normals from local PCA planes, smooths
them with a robust bilateral filter, and finally slides each point along
its filtered normal toward the consensus of its neighborhood.  Radial
direction is known for a sphere, so both the normal error and the radius
spread before/after are printed.
"""

from pathlib import Path

import numpy as np

from denoisekit import (
    FilterSpec,
    PointCloud,
    estimate_normals_pca,
    filter_point_normals,
    save_xyz,
    update_point_positions,
)

OUT = Path(__file__).parent / "out" / "cloud"
OUT.mkdir(parents=True, exist_ok=True)

rng = np.random.Generator(np.random.Philox(key=11))
n = 2000
p = rng.normal(size=(n, 3))
p /= np.linalg.norm(p, axis=1)[:, None]
radial = p.copy()
p *= 1.0 + rng.normal(0, 0.01, n)[:, None]  # radial jitter
cloud = PointCloud(p)


def normal_error_deg(normals):
    dots = np.clip(np.abs(np.einsum("ij,ij->i", normals, radial)), -1, 1)
    return np.degrees(np.arccos(dots)).mean()


est = estimate_normals_pca(cloud, k=6, orient_to=p)  # orient outward
cloud = cloud.with_normals(est)
print(f"PCA normals:      mean error {normal_error_deg(cloud.normals):6.2f} deg")

spec = FilterSpec.preset("li_bilateral", sigma="auto", iterations=3)  # 12 nearest
filtered = filter_point_normals(cloud, spec)
print(f"after filtering:  mean error {normal_error_deg(filtered):6.2f} deg")

new_pts, warn = update_point_positions(cloud, filtered, iterations=3)
radii = np.linalg.norm(new_pts, axis=1)
print(f"radius spread:    {np.std(np.linalg.norm(p, axis=1)):.5f} -> "
      f"{np.std(radii):.5f}  ({warn} empty neighborhoods)")

save_xyz(PointCloud(new_pts, filtered), OUT / "sphere_denoised.xyz")
print(f"wrote {OUT / 'sphere_denoised.xyz'}")
