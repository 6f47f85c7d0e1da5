"""Kakutani-Rokhlin tower constructions on Cantor space.

Builds, stage by stage, a minimal homeomorphism of {0,1}^N whose
invariant measures form a prescribed simplex, and checks at every
finite stage that the construction is on course: exact invariant-cone
vertices, minimality certificates, and full-group witnesses.

Each top-level name, and each module name such as `cantordyn.tower`,
loads its module on first use, so checking a family loads only
`clopen` and `measure`.
"""

from importlib import import_module as _import

# home module -> the names the package re-exports from it
_EXPORTS = {
    "clopen": "EMPTY FULL ClopenSet DepthTooSmall enumerate_clopen union_all",
    "measure": "FamilyParseError InvalidWeights MeasureFamily TreeMeasure goodness_obstruction parse_family "
    "validate_family",
    "oracles": "DivisibilityFailure GoodnessFailure NotEquivalent SearchFailure affine_approx approx_divide "
    "goodness_select select_copy subset_in_box",
    "tower": "KRPartition NotAPartition NotEquivalentColumn balance_columns from_columns locate_atom "
    "refine_small_base_top run_decomposition trivial_partition",
    "builder": "BuildFailure TowerSequence bratteli_dot build_saturated enumerate_pairs load_sequence "
    "serialize_sequence validate_sequence",
    "verify": "FullGroupWitness InvariantCone MinimalityReport PairNotScheduled StageTooShallow apply_witness "
    "collapse_metric first_return_divide invariant_cone minimality_check saturation_witness",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import("cantordyn." + name)  # which binds the module here
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(_import("cantordyn." + _HOME[name]), name)  # later reads: dict hits
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
