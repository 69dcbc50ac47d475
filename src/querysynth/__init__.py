"""Boolean function analysis and exact quantum query program synthesis.

The package turns truth tables into certified exact quantum query
programs: `boolfun` holds the function representations and invariants,
`formula` the read-once layer, `qprogram` the program tree and
simulator, `synth` the cost engine with certificate construction and
verification, `suites` the large verification campaigns, and `cli` the
command-line front end.
"""

from .boolfun import (
    DEPTH_MAX_ARITY,
    MonotoneNormalForm,
    MultilinearPoly,
    NpnTransform,
    TruthTable,
    parse_function,
    symmetric_decision_depth,
    table_and,
    table_exact,
    table_nae,
    table_or,
    table_parity,
    table_threshold,
)
from .formula import (
    FormulaError,
    parse_formula,
    random_read_once,
    recognize_read_once,
    to_table,
    to_text,
)
from .qprogram import (
    EPSILON,
    AxiomLeaf,
    ClassicalQuery,
    Matrix,
    Output,
    SimulationReport,
    UnitaryBlock,
    XorQuery,
    classify_level,
    nae_program,
    parity_program,
    program_from_json,
    program_to_json,
    query_cost,
    simulate,
    xor_gadget,
)
from .suites import SUITES, SuiteReport, run_suite
from .synth import (
    Certificate,
    VerificationReport,
    certificate_from_json,
    certificate_to_json,
    query_complexity,
    synthesize,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEPTH_MAX_ARITY",
    "EPSILON",
    "TruthTable",
    "NpnTransform",
    "MultilinearPoly",
    "MonotoneNormalForm",
    "parse_function",
    "symmetric_decision_depth",
    "table_and",
    "table_or",
    "table_parity",
    "table_nae",
    "table_exact",
    "table_threshold",
    "FormulaError",
    "parse_formula",
    "to_text",
    "to_table",
    "recognize_read_once",
    "random_read_once",
    "Matrix",
    "Output",
    "ClassicalQuery",
    "XorQuery",
    "UnitaryBlock",
    "AxiomLeaf",
    "SimulationReport",
    "xor_gadget",
    "parity_program",
    "nae_program",
    "query_cost",
    "classify_level",
    "simulate",
    "program_to_json",
    "program_from_json",
    "query_complexity",
    "synthesize",
    "Certificate",
    "verify_certificate",
    "VerificationReport",
    "certificate_to_json",
    "certificate_from_json",
    "SuiteReport",
    "SUITES",
    "run_suite",
]
