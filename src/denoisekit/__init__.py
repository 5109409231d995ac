"""Feature-preserving surface denoising in a robust-statistics setting.

Robust kernels (error norm / influence function / weight triples), mesh and
point-cloud normal filtering, two-stage denoising, and a benchmark harness.
"""

from .kernels import KERNEL_KINDS, Kernel, KernelSample, sample_table, samples_to_csv
from .meshcore import (
    DegenerateFaceError,
    MeshError,
    NeighborhoodSpec,
    NonManifoldError,
    ParseError,
    TriMesh,
    load_mesh,
    save_mesh,
)
from .pointcloud import PointCloud, estimate_normals_pca, load_xyz, save_xyz
from .meshfilter import (
    METHODS,
    POINT_METHODS,
    FilterSpec,
    NormalField,
    energy,
    filter_gradient_descent,
    filter_normals,
    guidance_normals,
    vector_directional_median,
    vector_median,
)
from .pointfilter import default_radius, filter_point_normals, update_point_positions
from .vertexupdate import laplacian_smooth, orthogonality_residual, update_vertices
from .bench import (
    MetricsReport,
    add_noise,
    compare,
    make_cube,
    make_icosphere,
    make_plane,
    make_shape,
    make_wedge,
)
from .pipeline import denoise_cloud, denoise_mesh

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
