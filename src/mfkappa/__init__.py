"""Multifractal spectra of Cantor dusts by the direct histogram method.

The public names below are loaded lazily (PEP 562): `import mfkappa` loads
no submodule and no numpy, and each use of a name looks it up on its
module, importing that module on first use.
"""

_EXPORTS = {
    "measure": ("CantorDust", "NaturalMeasure", "cover", "read_dust",
                "write_dust"),
    "spectrum": ("SizingStatus", "Spectrum", "alpha_field", "auto_size",
                 "estimate", "histogram_spectrum", "read_spectrum_csv",
                 "sweep_boxes", "validate_sizing", "write_spectrum_csv"),
    "geometry": ("FragmentReport", "GeometryConfig", "RegimeReport",
                 "SegmentReport", "SpectrumFeatures", "cap_shape_check",
                 "classify", "compare_sweep", "detect_fragments",
                 "detect_segment", "features"),
    "oracles": ("OracleSpectrum", "SelfSimilarSpec", "gen_farey",
                "gen_selfsimilar", "gen_superposed", "gen_uniform",
                "oracle_spectrum"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:  # a submodule name then imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
