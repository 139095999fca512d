"""Multifractal spectra of Cantor dusts by the direct histogram method."""

from .measure import CantorDust, NaturalMeasure, cover, read_dust, write_dust
from .spectrum import (AlphaField, SizingStatus, SizingVerdict, Spectrum,
                       alpha_field, auto_size, estimate, histogram_spectrum,
                       read_spectrum_csv, sweep_boxes, validate_sizing,
                       write_spectrum_csv)
from .geometry import (FragmentReport, GeometryConfig, RegimeReport,
                       SegmentReport, SpectrumFeatures, cap_shape_check,
                       classify, compare_sweep, detect_fragments,
                       detect_segment, features)
from .oracles import (OracleSpectrum, SelfSimilarSpec, gen_farey,
                      gen_selfsimilar, gen_superposed, gen_uniform,
                      oracle_spectrum)

__version__ = "0.1.0"
