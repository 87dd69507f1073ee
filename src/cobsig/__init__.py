"""Cobordism signals: labeled simplicial complexes with geodesic energy.

A signal is a labeled simplicial complex (regions X, Y, A, B on its
boundary) together with an edge-length metric.  The package computes
geodesic distance fields on Steiner-refined skeletons, the energy
functionals built from them, noise/filter/composition operations, and
numerical checks of the energy inequalities.
"""

from .complex import (CobordismComplex, ValidationReport, build_complex,
                      region_vertices, validate)
from .energy import energy, energy_ratio, fourier_energy, fourier_relabel
from .errors import (CobsigError, CompositionError, FilterError, GeodesyError,
                     MeshError, MetricError, NoiseError, RegionError)
from .fileio import load_signal, save_signal
from .generators import gen_annular_shell, gen_rectangle, gen_square, vertex_at
from .geodesy import (InjectivityEstimate, diameter, distance_field,
                      distance_to_vertex, injectivity_radius)
from .metric import (MetricField, conformal_scale, induced_metric,
                     lumped_vertex_volume, region_volume, simplex_volumes,
                     total_volume)
from .signal import Signal, make_signal
from .signalops import (Correspondence, NoiseSpec, apply_noise, bump_field,
                        compose, extract_filter, keep_by_predicate,
                        make_correspondence)
from .verify import (BoundReport, CompositionReport, ConvergenceReport,
                     ExpansionReport, FilterReport, check_composition,
                     check_filter, check_thm1_bounds, eps_sweep, grid_oracle,
                     refinement_study)

__version__ = "0.1.0"

__all__ = [
    "CobordismComplex", "ValidationReport", "build_complex", "validate",
    "region_vertices",
    "MetricField", "induced_metric", "conformal_scale", "simplex_volumes",
    "lumped_vertex_volume", "total_volume", "region_volume",
    "InjectivityEstimate", "distance_field", "distance_to_vertex", "diameter",
    "injectivity_radius",
    "Signal", "make_signal",
    "energy", "fourier_relabel", "fourier_energy", "energy_ratio",
    "NoiseSpec", "Correspondence", "bump_field", "apply_noise",
    "extract_filter", "keep_by_predicate", "compose", "make_correspondence",
    "gen_square", "gen_rectangle", "gen_annular_shell", "vertex_at",
    "BoundReport", "ExpansionReport", "ConvergenceReport", "FilterReport",
    "CompositionReport", "check_thm1_bounds", "eps_sweep", "check_filter",
    "check_composition", "grid_oracle", "refinement_study",
    "load_signal", "save_signal",
    "CobsigError", "MeshError", "MetricError", "RegionError", "GeodesyError",
    "NoiseError", "FilterError", "CompositionError",
]
