"""The public API, pinned in one table.

The names in `coxlen.__all__`, the parameters and defaults of every public
callable (each exported function and class, and each public method of an
exported class) and the fields of every dataclass in the package are
compared with the tables below.  A parameter, field or name cannot be added
or removed without editing these tables, and each such edit is a change to
the behaviour contract that CHANGES.md records.
"""

import ast
import collections
import dataclasses
import enum
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import coxlen

PUBLIC_NAMES = [
    "AvoidanceCertificate", "CoxeterMatrix", "ExactScalar", "FreeCoxeterWord",
    "GramMatrix", "GroupElement", "GrowthRecord", "Kind", "QuasimorphismCert",
    "RealCyclotomicField", "ReflLenResult", "Reflection", "ReflenProtocol",
    "TitsGroup", "TriangleModel", "TypeVerdict", "WarpProfile",
    "affine_bound_experiment", "build_certificate", "build_triangle_model",
    "canonical_key", "carter_length_finite", "certify_lower_bound",
    "classify_component", "classify_group", "compute_short_elements",
    "congruence_search", "counting_qm", "defect_window",
    "enumerate_reflections", "evaluate_word", "exact_reflection_length",
    "fixed_space_codim", "gram_matrix", "gram_signature", "growth_profile",
    "homogenize", "irreducible_components", "minimal_nonaffine_subsets",
    "parse_coxeter_matrix", "reduce_word", "reflen_ball", "reflen_element",
    "tits_generator", "two_pi_certificate", "warp_profile",
]

SIGNATURES = {
    "AvoidanceCertificate": ("(h, prime, short_sets, kernel_min_displacement, "
                             "per_cusp_margin, margin_interval)"),
    "CoxeterMatrix": "(rank, entries)",
    "CoxeterMatrix.make": "(entries)",
    "CoxeterMatrix.submatrix": "(self, subset)",
    "CoxeterMatrix.conductor": "(self)",
    "ExactScalar": "(field, num, den=1)",
    "ExactScalar.is_zero": "(self)",
    "ExactScalar.sign": "(self)",
    "ExactScalar.as_fraction": "(self)",
    "FreeCoxeterWord": "(letters, k)",
    "FreeCoxeterWord.inverse": "(self)",
    "GramMatrix": "(cm, field, rows)",
    "GroupElement": "(gram, packed, word=None)",
    "GroupElement.is_identity": "(self)",
    "GrowthRecord": "(base_word, powers)",
    "QuasimorphismCert": ("(k, pattern, raw_defect, window, "
                          "homogeneous_defect, generator_max, constant, "
                          "stabilized, defect_pair)"),
    "QuasimorphismCert.pattern_text": "(self)",
    "QuasimorphismCert.phi": "(self, g)",
    "QuasimorphismCert.bound_for": "(self, g, power=1)",
    "QuasimorphismCert.lower_bound_for_word": "(self, cm, word)",
    "RealCyclotomicField": "(N)",
    "RealCyclotomicField.refine_theta": "(self, width)",
    "RealCyclotomicField.scalar": "(self, num, den=1)",
    "RealCyclotomicField.from_rational": "(self, q)",
    "RealCyclotomicField.dickson": "(self, k)",
    "RealCyclotomicField.mul": "(self, a, b)",
    "RealCyclotomicField.sign_of": "(self, num, den)",
    "ReflLenResult": ("(element, upper, lower, status, witness, depth_used, "
                      "len_s, lower_sources=(), capped=False)"),
    "Reflection": "(element, root, depth, word)",
    "ReflenProtocol": "(d_cap=6, node_cap=5000000, use_exact_solver=True)",
    "TitsGroup": "(cm)",
    "TitsGroup.inverse_row_key": "(self, g)",
    "TitsGroup.element": "(self, word)",
    "TitsGroup.right_descents": "(self, g)",
    "TitsGroup.reduced_word": "(self, g)",
    "TriangleModel": "(p, q, cm, generators, cusps)",
    "TriangleModel.element": "(self, word)",
    "TypeVerdict": "(kind, components, minimal_nonaffine, signature)",
    "WarpProfile": "(L, r_T, bridge, grid, f, fp, fpp, attempts)",
    "WarpProfile.value": "(self, r)",
    "affine_bound_experiment": "(cm, L, protocol=None)",
    "build_certificate": "(k, pattern, window=None)",
    "build_triangle_model": "(p, q)",
    "canonical_key": "(g)",
    "carter_length_finite": "(cm, word)",
    "certify_lower_bound": "(cert, g, K)",
    "classify_component": "(cm, subset)",
    "classify_group": "(cm)",
    "compute_short_elements": "(model, s, h)",
    "congruence_search": "(model, h, prime_cap=100)",
    "counting_qm": "(w, g)",
    "defect_window": "(w, B)",
    "enumerate_reflections": "(gram, depth_cap)",
    "evaluate_word": "(gens, word, identity=None)",
    "exact_reflection_length": "(group, g, cap=5000000, reduced_word=None)",
    "fixed_space_codim": "(g)",
    "gram_matrix": "(cm)",
    "gram_signature": "(gram)",
    "growth_profile": "(cm, base_word, K, protocol=None, certificates=())",
    "homogenize": "(w, g)",
    "irreducible_components": "(cm)",
    "minimal_nonaffine_subsets": "(cm)",
    "parse_coxeter_matrix": "(text)",
    "reduce_word": "(letters, k)",
    "reflen_ball": "(cm, L, D, node_cap=5000000)",
    "reflen_element": "(cm, word, protocol=None, certificates=())",
    "tits_generator": "(gram, s)",
    "two_pi_certificate": "(model, cert, s)",
    "warp_profile": "(L, r_T=None, grid=512)",
}

DATACLASS_FIELDS = {
    "coxeter.CoxeterMatrix": "rank entries",
    "coxeter.GramMatrix": "cm field rows",
    "coxeter.TypeVerdict": "kind components minimal_nonaffine signature",
    "filling.PlaneIsometry": "m reversing",
    "filling.CuspData": "s vertex conjugator gen_indices mirror_offsets width",
    "filling.TriangleModel": "p q cm generators cusps",
    "filling.ShortElement": "word kind parameter displacement matrix",
    "filling.AvoidanceCertificate": ("h prime short_sets kernel_min_displacement "
                                     "per_cusp_margin margin_interval"),
    "quasimorphism.FreeCoxeterWord": "letters k",
    "quasimorphism.DefectResult": "pattern window value pair stabilized",
    "quasimorphism.QuasimorphismCert": ("k pattern raw_defect window "
                                        "homogeneous_defect generator_max "
                                        "constant stabilized defect_pair"),
    "reflen.ReflenProtocol": "d_cap node_cap use_exact_solver",
    "reflen.ReflLenResult": ("element upper lower status witness depth_used "
                             "len_s lower_sources capped"),
    "reflen.GrowthRecord": "base_word powers",
    "reflen.BallResult": "cm L D results capped",
    "reflen.AffineBoundRecord": ("cm L euclidean_dim bound max_value "
                                 "attained value_counts ball_size"),
    "tits.Reflection": "element root depth word",
    "warp.BridgeSpec": "r_a r_b knots base_value base_slope",
    "warp.WarpProfile": "L r_T bridge grid f fp fpp attempts",
}


def _bare(fn):
    """The signature without annotations: names, kinds and defaults."""
    sig = inspect.signature(fn)
    return str(sig.replace(return_annotation=sig.empty, parameters=[
        p.replace(annotation=p.empty) for p in sig.parameters.values()]))


def test_public_names_are_pinned():
    assert coxlen.__all__ == PUBLIC_NAMES


def test_public_signatures_are_pinned():
    seen = {}
    for name in coxlen.__all__:
        obj = getattr(coxlen, name)
        if inspect.isclass(obj) and issubclass(obj, enum.Enum):
            continue
        seen[name] = _bare(obj)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(value)
                        or isinstance(value, (classmethod, staticmethod))):
                    seen[name + "." + attr] = _bare(getattr(obj, attr))
    assert seen == SIGNATURES


def test_dataclass_fields_are_pinned():
    seen = {}
    for info in pkgutil.iter_modules(coxlen.__path__):
        module = importlib.import_module("coxlen." + info.name)
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                seen[info.name + "." + name] = " ".join(
                    f.name for f in dataclasses.fields(obj))
    assert seen == DATACLASS_FIELDS


def _unused_imports(source):
    """Names a module imports and never reads; a name listed in `__all__`
    counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_import_check_sees_an_unused_name():
    assert _unused_imports("import math\nfrom fractions import Fraction\nmath.pi\n") \
        == ["Fraction"]


def _names_read(tree):
    reads = collections.Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute):
            reads[n.attr] += 1
        elif isinstance(n, ast.alias):
            reads[n.name] += 1
    return reads


def _unreferenced_private_functions(source, package_sources):
    """Module-level `_private` functions of `source` that no code in the
    package reads outside the function's own body."""
    reads = sum((_names_read(ast.parse(text)) for text in package_sources),
                collections.Counter())
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")
            and reads[node.name] == _names_read(node)[node.name]]


def test_unreferenced_private_function_check_sees_an_orphan():
    source = ("def _used(x):\n    return x\n\n"
              "def _orphan(f):\n    return _orphan(f[1:]) if f else []\n\n"
              "def public():\n    return _used(1)\n")
    other = "from m import _elsewhere\n"
    assert _unreferenced_private_functions(source, [source, other]) == ["_orphan"]


def _assert_lines(source):
    """Lines of the `assert` statements of `source`: `python -O` drops them,
    so a check of the package is an explicit raise instead."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_assert_check_sees_an_assert():
    assert _assert_lines("def f(x):\n    assert x > 0\n    return x\n") == [2]


def _exact_scalar_lines(source):
    """Lines of `source` that name ExactScalar: a name read or bound, an
    attribute, an import or a definition."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if "ExactScalar" in (getattr(n, "id", None), getattr(n, "attr", None),
                                 getattr(n, "name", None))]


def test_exact_scalar_check_sees_every_spelling():
    source = ("from .exactfield import ExactScalar, mul\n"
              "import coxlen.exactfield as ef\n"
              "x = ef.ExactScalar\n"
              "'ExactScalar in a string is prose'\n"
              "y = ExactScalar\n")
    assert _exact_scalar_lines(source) == [1, 3, 5]


_ERROR_KINDS = ["CoxlenError", "InputError", "DomainError", "ResourceCapError",
                "CertificateError"]


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _failure_paths(source):
    """Lines of `source` that subclass a package error kind, or that call or
    raise CertificateError instead of going through `errors.require`."""
    lines = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ClassDef) and any(_name(b) in _ERROR_KINDS for b in n.bases):
            lines.add(n.lineno)
        elif isinstance(n, (ast.Call, ast.Raise)) and _name(
                n.func if isinstance(n, ast.Call) else n.exc) == "CertificateError":
            lines.add(n.lineno)
    return sorted(lines)


def test_failure_path_check_sees_every_spelling():
    source = ("from . import errors\n"
              "from .errors import CertificateError, DomainError, require\n"
              "class SearchError(DomainError):\n"
              "    pass\n"
              "def f(x):\n"
              "    require(x, 'bad %s', x)\n"
              "    try:\n"
              "        raise CertificateError('bad')\n"
              "    except CertificateError:\n"
              "        raise errors.CertificateError\n")
    assert _failure_paths(source) == [3, 8, 10]


_SOURCES = {path: path.read_text()
            for path in sorted(pathlib.Path(coxlen.__file__).parent.glob("*.py"))}


@pytest.mark.parametrize("path", sorted(_SOURCES), ids=lambda p: p.name)
def test_every_import_is_used(path):
    source = _SOURCES[path]
    assert _unused_imports(source) == []
    assert _unreferenced_private_functions(source, list(_SOURCES.values())) == []
    assert _assert_lines(source) == []


@pytest.mark.parametrize("path", [p for p in sorted(_SOURCES)
                                  if p.name not in ("exactfield.py", "__init__.py")],
                         ids=lambda p: p.name)
def test_no_computation_names_exact_scalar(path):
    # every computation works on Z[theta] coefficient tuples; ExactScalar is
    # public API, defined in exactfield and exported by __init__ alone
    assert _exact_scalar_lines(_SOURCES[path]) == []


def test_errors_define_one_kind_per_exit_code():
    # exit 1: InputError, DomainError; exit 2: ResourceCapError; exit 3:
    # CertificateError, raised by `require` alone
    tree = ast.parse(next(t for p, t in _SOURCES.items() if p.name == "errors.py"))
    assert [n.name for n in tree.body if isinstance(n, ast.ClassDef)] == _ERROR_KINDS
    assert [n.name for n in tree.body if isinstance(n, ast.FunctionDef)] == ["require"]


@pytest.mark.parametrize("path", [p for p in sorted(_SOURCES) if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_certificate_checks_go_through_require(path):
    assert _failure_paths(_SOURCES[path]) == []
